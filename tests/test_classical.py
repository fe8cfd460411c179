import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslocc.classical import (
    ClassicalError,
    ClassicalProtocol,
    classical_expected_risk,
    decompose_classifier_mixture,
    is_nonsignalling_classical,
    lemma1_pipeline,
    random_nonsignalling_protocol,
    reconstruct_protocol,
    round_marginal,
    single_round_map,
    symmetrize_classical,
)

from conftest import mixture_to_stochastic, product_protocol


def deterministic_protocol(na, nx, ny, n, f):
    """Rounds answered independently by the fixed function f(a, x)."""
    table = np.zeros((na,) + (nx,) * n + (ny,) * n)
    for a in range(na):
        for xs in itertools.product(range(nx), repeat=n):
            ys = tuple(f(a, x) for x in xs)
            table[(a,) + xs + ys] = 1.0
    return ClassicalProtocol(table, na, nx, ny, n)


def test_protocol_validates_normalization():
    t = np.zeros((1, 2, 2, 2, 2))
    with pytest.raises(ClassicalError):
        ClassicalProtocol(t, 1, 2, 2, 2)


def test_deterministic_iid_is_nonsignalling():
    p = deterministic_protocol(2, 2, 2, 3, lambda a, x: (a + x) % 2)
    assert is_nonsignalling_classical(p).ok


def test_signalling_detected():
    # round 1 answers with round 2's question: blatant signalling
    n, nx, ny = 2, 2, 2
    table = np.zeros((1, nx, nx, ny, ny))
    for x1 in range(nx):
        for x2 in range(nx):
            table[0, x1, x2, x2, x1] = 1.0
    p = ClassicalProtocol(table, 1, nx, ny, n)
    rep = is_nonsignalling_classical(p)
    assert not rep.ok
    assert rep.max_deviation >= 0.5


def test_round_marginal_of_product():
    q = np.array([[0.7, 0.2], [0.3, 0.8]])  # q[y, x]
    p = product_protocol([q, q], n=2)
    m = round_marginal(p, 1)
    assert np.allclose(m[0], q.T)


def test_symmetrize_preserves_ns_and_is_idempotent():
    p = random_nonsignalling_protocol(2, 2, 2, 3, seed=5)
    s = symmetrize_classical(p)
    assert is_nonsignalling_classical(s).ok
    s2 = symmetrize_classical(s)
    assert np.allclose(s.table, s2.table, atol=1e-12)


def test_symmetrize_matches_per_permutation_loop():
    rng = np.random.default_rng(5)
    na, nx, ny, n = 2, 2, 3, 3
    table = rng.random((na,) + (nx,) * n + (ny,) * n)
    table /= table.sum(axis=tuple(range(1 + n, 1 + 2 * n)), keepdims=True)
    p = ClassicalProtocol(table, na, nx, ny, n)
    want = np.zeros_like(table)
    perms = list(itertools.permutations(range(n)))
    for perm in perms:
        axes = (0,) + tuple(1 + perm[i] for i in range(n)) \
            + tuple(1 + n + perm[i] for i in range(n))
        want += table.transpose(axes)
    want /= len(perms)
    got = symmetrize_classical(p).table
    assert np.abs(got - table).max() > 1e-3
    assert np.abs(got - want).max() <= 1e-15


def test_decompose_exact_product_measure():
    q = np.array([[0.7, 0.4], [0.3, 0.6]])  # q[y, x]
    mix = decompose_classifier_mixture(q)
    # weights are products of the per-question conditionals
    expect = {(0, 0): 0.7 * 0.4, (0, 1): 0.7 * 0.6,
              (1, 0): 0.3 * 0.4, (1, 1): 0.3 * 0.6}
    got = dict(zip(mix.functions, mix.weights))
    for f, w in expect.items():
        assert np.isclose(got[f], w)
    back = mixture_to_stochastic(mix)
    assert np.allclose(back, q)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 3), st.integers(2, 3))
def test_decompose_reconstruct_roundtrip(seed, nx, ny):
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(ny), size=nx).T  # columns sum to 1
    mix = decompose_classifier_mixture(q)
    assert np.isclose(sum(mix.weights), 1.0)
    assert np.allclose(mixture_to_stochastic(mix), q, atol=1e-12)


def test_reconstruct_is_iid_and_ns():
    q = np.array([[0.9, 0.1], [0.1, 0.9]])
    mix = decompose_classifier_mixture(q)
    p = reconstruct_protocol([mix], n=3)
    assert is_nonsignalling_classical(p).ok
    assert np.allclose(single_round_map(p, 0), q, atol=1e-12)


def test_lemma1_preserves_risk():
    rng = np.random.default_rng(17)
    for seed in range(10):
        p = random_nonsignalling_protocol(2, 2, 2, 2, seed=seed)
        rebuilt, mixes = lemma1_pipeline(p)
        dist = rng.dirichlet(np.ones(4)).reshape(2, 2)
        for a in range(2):
            r0 = classical_expected_risk(p, dist, a)
            r1 = classical_expected_risk(rebuilt, dist, a)
            assert abs(r0 - r1) <= 1e-12


def test_lemma1_rejects_signalling():
    n, nx, ny = 2, 2, 2
    table = np.zeros((1, nx, nx, ny, ny))
    for x1 in range(nx):
        for x2 in range(nx):
            table[0, x1, x2, x2, x1] = 1.0
    p = ClassicalProtocol(table, 1, nx, ny, n)
    with pytest.raises(ClassicalError):
        lemma1_pipeline(p)


def test_classical_risk_known_value():
    # perfect classifier under 0-1 score has zero risk
    p = deterministic_protocol(1, 2, 2, 2, lambda a, x: x)
    dist = np.array([[0.5, 0.0], [0.0, 0.5]])  # reference label equals question
    assert np.isclose(classical_expected_risk(p, dist, 0), 0.0)
    # constant classifier errs exactly with the mass on the other question
    p2 = deterministic_protocol(1, 2, 2, 2, lambda a, x: 0)
    assert np.isclose(classical_expected_risk(p2, dist, 0), 0.5)


def test_random_protocol_is_valid():
    for seed in (0, 1, 2):
        p = random_nonsignalling_protocol(2, 2, 3, 2, seed=seed)
        assert p.table.min() >= -1e-12
        rep = is_nonsignalling_classical(p)
        assert rep.ok, rep.max_deviation
