import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslocc.channels import MeasurePrepareChannel, is_nonsignalling, marginal_channel
from nslocc.classical import (
    ClassicalError,
    ClassicalProtocol,
    classical_expected_risk,
    classical_task,
    decompose_classifier_mixture,
    is_nonsignalling_classical,
    lemma1_pipeline,
    random_nonsignalling_protocol,
    round_marginal,
    single_round_map,
    symmetrize_classical,
)
from nslocc.risk import protocol_risk

from conftest import (
    mixed_product_protocol,
    mixture_to_stochastic,
    oracle_classical_risk,
    oracle_reconstruct_table,
    product_protocol,
)


def deterministic_protocol(na, nx, ny, n, f):
    """Rounds answered independently by the fixed function f(a, x)."""
    table = np.zeros((na,) + (nx,) * n + (ny,) * n)
    for a in range(na):
        for xs in itertools.product(range(nx), repeat=n):
            ys = tuple(f(a, x) for x in xs)
            table[(a,) + xs + ys] = 1.0
    return ClassicalProtocol(table, na, nx, ny, n)


def swap_protocol():
    """Round 1 answers with round 2's question and round 2 with round 1's."""
    table = np.zeros((1, 2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            table[0, x1, x2, x2, x1] = 1.0
    return ClassicalProtocol(table, 1, 2, 2, 2)


def random_table_protocol(na, nx, ny, n, seed):
    """A random conditional table; generically signalling."""
    rng = np.random.default_rng(seed)
    table = rng.random((na,) + (nx,) * n + (ny,) * n)
    table /= table.sum(axis=tuple(range(1 + n, 1 + 2 * n)), keepdims=True)
    return ClassicalProtocol(table, na, nx, ny, n)


def diagonal_embedding(p: ClassicalProtocol, table: np.ndarray) -> np.ndarray:
    """The Choi matrix on (A, X1, Y1, .., Xn, Yn) whose diagonal is the table
    P(y|a, x) / (na·nx^n): how a dense channel holds a classical protocol."""
    n = p.n
    axes = [0] + [ax for i in range(n) for ax in (1 + i, 1 + n + i)]
    return np.diag(table.transpose(axes).ravel() / (p.na * p.nx ** n))


def test_protocol_validates_normalization():
    t = np.zeros((1, 2, 2, 2, 2))
    with pytest.raises(ClassicalError):
        ClassicalProtocol(t, 1, 2, 2, 2)


def test_deterministic_iid_is_nonsignalling():
    p = deterministic_protocol(2, 2, 2, 3, lambda a, x: (a + x) % 2)
    assert is_nonsignalling_classical(p).ok


def test_signalling_detected():
    # round 1 answers with round 2's question: blatant signalling
    rep = is_nonsignalling_classical(swap_protocol())
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


def permute_rounds(table: np.ndarray, perm, n: int) -> np.ndarray:
    """The table with round perm[i]'s (x, y) axes in round i's place."""
    return table.transpose((0,) + tuple(1 + perm[i] for i in range(n))
                           + tuple(1 + n + perm[i] for i in range(n)))


def test_symmetrize_matches_per_permutation_loop():
    for n in (3, 5, 6):
        p = random_table_protocol(2, 2, 3, n, seed=5)
        perms = list(itertools.permutations(range(n)))
        want = sum(permute_rounds(p.table, perm, n) for perm in perms) / len(perms)
        got = symmetrize_classical(p).table
        assert np.abs(got - p.table).max() > 1e-3
        assert np.abs(got - want).max() <= 1e-15


@pytest.mark.parametrize("n", [7, 8])
def test_symmetrize_is_round_permutation_invariant_past_the_oracle(n):
    p = mixed_product_protocol(2, 2, 2, n, seed=n)
    got = symmetrize_classical(p).table
    assert np.abs(got - p.table).max() > 1e-3
    for perm in [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]:
        assert np.abs(permute_rounds(got, perm, n) - got).max() <= 1e-14


def test_decompose_exact_product_measure():
    q = np.array([[0.7, 0.4], [0.3, 0.6]])  # q[y, x]
    mu = decompose_classifier_mixture(q)
    # weights are products of the per-question conditionals, mu[f(0), f(1)]
    expect = {(0, 0): 0.7 * 0.4, (0, 1): 0.7 * 0.6,
              (1, 0): 0.3 * 0.4, (1, 1): 0.3 * 0.6}
    assert mu.shape == (2, 2)
    for f, w in expect.items():
        assert mu[f] == w
    assert np.allclose(mixture_to_stochastic(mu), q)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 3), st.integers(2, 3))
def test_decompose_reconstruct_roundtrip(seed, nx, ny):
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(ny), size=nx).T  # columns sum to 1
    mu = decompose_classifier_mixture(q)
    assert mu.shape == (ny,) * nx
    assert np.isclose(mu.sum(), 1.0)
    # mu[f], in np.ndindex order, is prod_x q(f(x)|x) bit for bit
    for f, w in zip(np.ndindex(mu.shape), mu.ravel()):
        assert w == float(np.prod([q[f[x], x] for x in range(nx)]))
    assert np.allclose(mixture_to_stochastic(mu), q, atol=1e-12)


@pytest.mark.parametrize("q, match", [
    ([[1.2, 0.5], [-0.2, 0.5]], "negative mixture weight"),
    ([[0.7, 0.5], [0.2, 0.5]], "column-stochastic"),
    (np.full((2, 25), 0.5), "2\\^25 functions exceed the dense budget"),
], ids=["negative-entry", "not-stochastic", "over-cap"])
def test_decompose_refuses_a_bad_map(q, match):
    with pytest.raises(ClassicalError, match=match):
        decompose_classifier_mixture(q)


def test_reconstruct_is_iid_and_ns():
    q = np.array([[0.9, 0.1], [0.1, 0.9]])
    # the i.i.d. mixture table of q's classifier mixture is Lemma 1's fixed point
    p = ClassicalProtocol(oracle_reconstruct_table([decompose_classifier_mixture(q)], 3),
                          1, 2, 2, 3)
    assert is_nonsignalling_classical(p).ok
    rebuilt = lemma1_pipeline(p)
    assert isinstance(rebuilt, MeasurePrepareChannel)
    assert len(rebuilt.povm) == 2 ** 2          # one outcome per function f
    dense = rebuilt.dense()
    assert np.abs(dense.omega.matrix - diagonal_embedding(p, p.table)).max() <= 1e-15
    assert is_nonsignalling(dense).max_residual <= 1e-12
    diag = np.diag(marginal_channel(rebuilt).omega.matrix).real.reshape(2, 2)
    assert np.abs(2 * diag.T - q).max() <= 1e-15


@pytest.mark.parametrize("na, nx, ny, n, seed", [
    (2, 2, 2, 1, 0), (2, 2, 2, 2, 1), (2, 2, 2, 3, 2), (1, 2, 3, 2, 3), (2, 3, 2, 2, 4),
])
def test_rebuilt_channel_is_the_oracle_table_on_the_diagonal(na, nx, ny, n, seed):
    p = random_nonsignalling_protocol(na, nx, ny, n, seed=seed)
    rebuilt = lemma1_pipeline(p)
    p_bar = symmetrize_classical(p)
    mus = [decompose_classifier_mixture(single_round_map(p_bar, a)) for a in range(na)]
    assert np.array_equal(rebuilt.povm[:, range(na), range(na)].real,
                          np.stack([mu.ravel() for mu in mus], axis=1))
    want = diagonal_embedding(p, oracle_reconstruct_table(mus, n))
    assert np.abs(rebuilt.dense().omega.matrix - want).max() <= 1e-15
    # its single-round marginal, times na·nx, holds q_a(y|x) on the diagonal
    diag = np.diag(marginal_channel(rebuilt).omega.matrix).real.reshape(na, nx, ny)
    for a in range(na):
        assert np.abs(na * nx * diag[a].T - single_round_map(p_bar, a)).max() <= 1e-15


@pytest.mark.parametrize("seed", [39, 57, 67, 106, 155, 181])
def test_sampler_keeps_clipped_entries_at_zero(seed):
    # an additive final normalization shifted the entries the clip had set to
    # zero to about -1.4e-12 at these seeds, and the table was refused
    p = random_nonsignalling_protocol(2, 2, 2, 3, seed=seed)
    assert p.table.min() >= 0.0
    assert np.abs(p.table.reshape(2, 8, 8).sum(axis=2) - 1.0).max() <= 1e-12
    assert is_nonsignalling_classical(p).ok


def test_lemma1_preserves_risk():
    rng = np.random.default_rng(17)
    for seed in range(10):
        p = random_nonsignalling_protocol(2, 2, 2, 2, seed=seed)
        rebuilt = lemma1_pipeline(p)
        dist = rng.dirichlet(np.ones(4)).reshape(2, 2)
        for a in range(2):
            r0 = classical_expected_risk(p, dist, a)
            r1 = protocol_risk(rebuilt, classical_task(dist, a, p.na, p.n))
            assert abs(r0 - r1) <= 1e-12


@st.composite
def sampled_protocols(draw):
    """(table, seed): a sampled non-signalling table of at most three rounds
    of at most six (x, y) pairs."""
    n = draw(st.integers(1, 3))
    na, nx, ny = draw(st.sampled_from([(2, 2, 2), (1, 2, 3), (2, 3, 2)]))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    return random_nonsignalling_protocol(na, nx, ny, n, seed=seed), seed


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sampled_protocols())
def test_lemma1_channel_has_the_original_risk(case):
    """ROADMAP item 11: for every training value and a random test pmf, the
    rebuilt channel's marginal-path risk is the original table's."""
    p, seed = case
    rebuilt = lemma1_pipeline(p)
    # the example's cost, bounded by its size rather than by a wall-clock
    # deadline: a table of na·(nx·ny)^n <= 2·6³ entries, rebuilt with
    # ny^nx <= 9 outcomes on a (6, 6) preparation side
    assert p.table.size <= 2 * 6 ** 3 and rebuilt.chois.shape[0] <= 9
    assert rebuilt.chois.shape[1] <= 6
    dist = np.random.default_rng(seed).dirichlet(np.ones(p.nx * p.ny)).reshape(p.nx, p.ny)
    for a in range(p.na):
        got = protocol_risk(rebuilt, classical_task(dist, a, p.na, p.n))
        assert abs(got - classical_expected_risk(p, dist, a)) <= 1e-12


def test_lemma1_preserves_risk_past_the_oracle():
    # seven rounds with different maps: round 1 of the S_7 average mixes all seven
    p = mixed_product_protocol(2, 2, 2, 7, seed=7)
    rebuilt = lemma1_pipeline(p)
    dist = np.random.default_rng(7).dirichlet(np.ones(4)).reshape(2, 2)
    for a in range(2):
        got = protocol_risk(rebuilt, classical_task(dist, a, p.na, p.n))
        assert abs(got - classical_expected_risk(p, dist, a)) <= 1e-12


def test_lemma1_refuses_a_rebuilt_channel_over_the_dense_budget():
    # 10^6 functions {0..5} -> {0..9}, each with a 60 x 60 preparation: 29 GB
    p = deterministic_protocol(1, 6, 10, 1, lambda a, x: x)
    tracemalloc.start()
    try:
        with pytest.raises(ClassicalError, match="exceed the dense budget"):
            lemma1_pipeline(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_lemma1_rejects_signalling():
    with pytest.raises(ClassicalError):
        lemma1_pipeline(swap_protocol())


@pytest.mark.parametrize("p", [
    *(random_nonsignalling_protocol(2, 2, 2, n, seed=n) for n in (1, 2, 3)),
    random_nonsignalling_protocol(2, 2, 3, 3, seed=7),
    swap_protocol(),
    *(random_table_protocol(2, 2, 2, n, seed=10 + n) for n in (1, 2, 3)),
    random_table_protocol(1, 3, 3, 2, seed=14),
    random_table_protocol(2, 2, 3, 3, seed=15),
], ids=["ns-n1", "ns-n2", "ns-n3", "ns-ny3-n3", "swap",
        "table-n1", "table-n2", "table-n3", "table-nx3-ny3-n2", "table-ny3-n3"])
def test_risk_contraction_matches_enumeration_oracle(p):
    rng = np.random.default_rng(p.n)
    dist = rng.dirichlet(np.ones(p.nx * p.ny)).reshape(p.nx, p.ny)
    for a in range(p.na):
        assert abs(classical_expected_risk(p, dist, a)
                   - oracle_classical_risk(p, dist, a)) <= 1e-13


@pytest.mark.parametrize("dist, a, match", [
    (np.full((3, 3), 1 / 9), 0, "shape"),
    ([[0.5, 0.7], [0.1, -0.3]], 0, "not a test pmf"),
    ([[0.5, 0.7], [0.1, 0.3]], 0, "not a test pmf"),
    (np.full(4, 0.25), 0, "shape"),
    (np.full((2, 2), 0.25), -1, "training value"),
    (np.full((2, 2), 0.25), 2, "training value"),
], ids=["wrong-shape", "negative-entry", "sum-off-1", "flat", "a-negative", "a-too-large"])
def test_classical_risk_refuses_bad_input(dist, a, match):
    p = random_nonsignalling_protocol(2, 2, 2, 2, seed=0)
    with pytest.raises(ClassicalError, match=match):
        classical_expected_risk(p, dist, a)
    if not (match == "shape" and np.ndim(dist) == 2):  # a 3x3 pmf is a task of its own
        with pytest.raises(ClassicalError, match=match):
            classical_task(dist, a, p.na, p.n)


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
