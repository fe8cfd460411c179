import itertools
import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslocc import channels, tensor_core
from nslocc.channels import (
    ChoiChannel,
    MeasurePrepareChannel,
    _project_nonsignalling,
    _project_psd_trace,
    _project_tp,
    apply_channel,
    choi_factorization,
    choi_of_global_kraus,
    choi_of_kraus,
    is_cptp,
    is_nonsignalling,
    marginal_channel,
    marginal_input,
    measure_and_prepare_choi,
    random_nonsignalling_choi,
    symmetrize_channel,
)
from nslocc.tensor_core import Operator, TensorError, one_blas_thread, op, partial_trace

from conftest import (
    adjoint_apply,
    dense_permutation,
    dense_symmetrize,
    oracle_project_ns_round,
    oracle_project_psd_trace_mask,
    oracle_project_tp_kron,
    oracle_random_nonsignalling_choi,
    oracle_sampler_loop,
    oracle_signalling_residuals,
    product_channel,
    random_density,
    random_kraus,
    random_measure_prepare,
    random_pure,
    random_unitary,
    same_bits,
)


def apply_kraus(kraus, rho):
    return sum(k @ rho @ k.conj().T for k in kraus)


def test_choi_of_kraus_matches_direct_action(rng):
    kraus = random_kraus(rng, 2, 3, count=3)
    ch = choi_of_kraus(kraus, 2, 3)
    for _ in range(5):
        rho = random_density(rng, 2)
        got = apply_channel(ch, op(rho, ("A", 1), ("X1", 2)))
        assert np.allclose(got.matrix, apply_kraus(kraus, rho), atol=1e-12)


def test_adjoint_is_proper_adjoint(rng):
    kraus = random_kraus(rng, 3, 2, count=2)
    ch = choi_of_kraus(kraus, 3, 2)
    rho = random_density(rng, 3)
    obs = rng.standard_normal((2, 2))
    obs = obs + obs.T
    lhs = np.trace(apply_channel(ch, op(rho, ("A", 1), ("X1", 3))).matrix @ obs)
    rhs = np.trace(rho @ adjoint_apply(ch, op(obs, ("Y1", 2))).matrix)
    assert np.isclose(lhs, rhs)


@pytest.mark.parametrize("n", [2, 3])
def test_apply_channel_matches_the_kraus_sum_with_a_side_register(rng, n):
    # measure A with {M, 1 − M}, then run outcome j's Kraus family on every
    # round: Q(ρ) = sum_j Φ_j^{⊗n}(tr_A[(M_j ⊗ 1) ρ]), each Φ_j^{⊗n} by Kraus products
    d_a, d_x, d_y = 2, 2, 3
    krauses = [random_kraus(rng, d_x, d_y, count=2) for _ in range(2)]
    v = random_pure(rng, d_a)
    povm = [np.outer(v, v.conj()), np.eye(d_a) - np.outer(v, v.conj())]
    preps = [partial_trace(choi_of_kraus(k, d_x, d_y).omega, ["X1", "Y1"]) for k in krauses]
    q = measure_and_prepare_choi([op(m, ("A", d_a)) for m in povm], preps, n)
    rho = random_density(rng, d_a * d_x ** n)
    inputs = [("A", d_a)] + [(f"X{i}", d_x) for i in range(1, n + 1)]
    got = apply_channel(q, op(rho, *inputs)).matrix
    want = 0
    for m, kraus in zip(povm, krauses):
        sigma = np.einsum("ab,bxay->xy", m, rho.reshape(d_a, d_x ** n, d_a, d_x ** n))
        for ks in itertools.product(kraus, repeat=n):
            k = reduce(np.kron, ks)
            want = want + k @ sigma @ k.conj().T
    assert np.abs(got - want).max() <= 1e-14
    with pytest.raises(TensorError, match="input state must live on"):
        apply_channel(q, op(rho, *inputs[::-1]))


def test_choi_of_global_kraus_interleaves_the_rounds(rng):
    # omega[(x1, y1, .., xn, yn), (x1', ..)] = sum_K K[y, x] conj(K[y', x']) / d_X^n,
    # x and y the joint indices of the X and Y digits, read off by fancy indexing
    n, d_x, d_y = 3, 2, 3
    kraus = random_kraus(rng, d_x ** n, d_y ** n, count=3)
    digits = np.indices((d_x, d_y) * n).reshape(2 * n, -1)
    xs = np.ravel_multi_index(tuple(digits[0::2]), (d_x,) * n)
    ys = np.ravel_multi_index(tuple(digits[1::2]), (d_y,) * n)
    vecs = np.stack([k[ys, xs] for k in kraus])
    ch = choi_of_global_kraus(kraus, d_x, d_y, n)
    assert ch.omega.shape == choi_factorization(1, d_x, d_y, n)
    assert np.abs(ch.omega.matrix - vecs.T @ vecs.conj() / d_x ** n).max() <= 1e-15
    assert is_cptp(ch).ok


def test_cptp_report_flags_non_tp(rng):
    kraus = random_kraus(rng, 2, 2, count=2)
    ch = choi_of_kraus(kraus, 2, 2)
    assert is_cptp(ch).ok
    # bias the input marginal away from the maximally mixed state
    m = 0.5 * ch.omega.matrix + 0.5 * np.kron(np.diag([0.9, 0.1]), np.eye(2) / 2)
    biased = ChoiChannel(op(m, ("A", 1), ("X1", 2), ("Y1", 2)), 1, 2, 2, 1)
    assert not is_cptp(biased).ok


def test_product_channel_is_nonsignalling(rng):
    single = choi_of_kraus(random_kraus(rng, 2, 2, count=2), 2, 2)
    for n in (2, 3):
        q = product_channel(single, n)
        rep = is_nonsignalling(q)
        assert rep.ok, rep.residuals
        assert is_cptp(q).ok


def test_measure_and_prepare_is_nonsignalling(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    povm = [op(np.outer(v, v.conj()), ("A", 2)),
            op(np.eye(2) - np.outer(v, v.conj()), ("A", 2))]
    preps = [choi_of_kraus(random_kraus(rng, 2, 2, count=2), 2, 2).omega
             for _ in range(2)]
    q = measure_and_prepare_choi(povm, preps, n=3)
    assert is_nonsignalling(q).ok
    assert is_cptp(q).ok


def signalling_swap_channel():
    # two-round channel that swaps its outputs across rounds: Y1 depends on X2
    d = 2
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    return choi_of_global_kraus([swap], 2, 2, n=2)


def test_output_crossing_detected():
    q = signalling_swap_channel()
    rep = is_nonsignalling(q)
    assert not rep.ok
    assert max(rep.residuals) >= 0.5


def test_marginal_channel_matches_single_round(rng):
    single = choi_of_kraus(random_kraus(rng, 2, 2, count=3), 2, 2)
    q = product_channel(single, 3)
    m = marginal_channel(q)
    assert np.allclose(m.omega.matrix, single.omega.matrix, atol=1e-10)


def global_unitary_channel(n: int, seed: int) -> ChoiChannel:
    """A Haar-random unitary on all n qubit rounds at once: it signals."""
    return choi_of_global_kraus([random_unitary(np.random.default_rng(seed), 2 ** n)], 2, 2, n)


def assert_marginal_refused(q: ChoiChannel):
    residual = is_nonsignalling(q).residuals[0]
    assert residual > 0.5
    with pytest.raises(TensorError, match=re.escape(f"residual {residual:.3e} >")):
        marginal_channel(q)


def test_marginal_channel_rejects_signalling():
    assert_marginal_refused(signalling_swap_channel())


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 3])
def test_marginal_channel_rejects_a_global_unitary(n, seed):
    assert_marginal_refused(global_unitary_channel(n, seed))


def test_symmetrize_idempotent_and_permutation_invariant(rng):
    q = random_nonsignalling_choi(1, 2, 2, 2, seed=7)
    s = symmetrize_channel(q)
    s2 = symmetrize_channel(s)
    assert np.allclose(s.omega.matrix, s2.omega.matrix, atol=1e-12)
    # swap the (X, Y) pairs of rounds 1 and 2
    p = dense_permutation([1, 0], 4)      # d_a = 1
    assert np.allclose(p @ s.omega.matrix @ p.T, s.omega.matrix, atol=1e-12)


# (d_a, d_x, d_y) at each n, so the n! oracle's side d_a·(d_x·d_y)^n stays at most 256
SANDWICH_DIMS = {2: (2, 2, 2), 3: (2, 2, 2), 4: (1, 2, 2), 5: (2, 2, 1), 6: (2, 2, 1)}


@pytest.mark.parametrize("n", sorted(SANDWICH_DIMS))
def test_symmetrize_matches_dense_permutation_sandwich(rng, n):
    # a generic Choi state: unit trace, but not symmetric under any site swap
    d_a, d_x, d_y = SANDWICH_DIMS[n]
    fac = choi_factorization(d_a, d_x, d_y, n)
    omega = random_density(rng, fac.dim)
    got = symmetrize_channel(ChoiChannel(Operator(omega, fac), d_a, d_x, d_y, n)).omega.matrix
    assert np.abs(got - omega).max() > 1e-4
    assert np.abs(got - dense_symmetrize(omega, d_a, d_x * d_y, n)).max() <= 1e-14


@pytest.mark.parametrize("n", [7, 8])
def test_symmetrize_is_permutation_invariant_past_the_oracle(rng, n):
    # sides 128 and 256, where the n! sum would take 5,040 and 40,320 views
    fac = choi_factorization(1, 2, 1, n)
    omega = random_density(rng, fac.dim)
    got = symmetrize_channel(ChoiChannel(Operator(omega, fac), 1, 2, 1, n)).omega.matrix
    assert np.abs(got - omega).max() > 1e-4
    for perm in [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]:
        p = dense_permutation(perm, 2)
        assert np.abs(p @ got @ p.T - got).max() <= 1e-14


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 10_000))
def test_random_nonsignalling_choi_is_valid(seed):
    q = random_nonsignalling_choi(2, 2, 2, 2, seed=seed)
    assert is_cptp(q, ).ok
    rep = is_nonsignalling(q)
    assert rep.ok, rep.residuals


def test_choi_unit_trace_enforced(rng):
    kraus = random_kraus(rng, 2, 2, count=2)
    ch = choi_of_kraus(kraus, 2, 2)
    assert np.isclose(ch.omega.trace(), 1.0)
    with pytest.raises(TensorError):
        ChoiChannel(Operator(ch.omega.matrix * 2.0, ch.omega.shape), 1, 2, 2, 1)


@pytest.mark.parametrize("dims", [(2, 2, 2, 1), (2, 2, 2, 2), (2, 2, 2, 3),
                                  (1, 2, 3, 2), (2, 3, 2, 2)])
def test_project_nonsignalling_matches_operator_oracle(rng, dims):
    dim = choi_factorization(*dims).dim
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    want = m
    for i in range(1, dims[3] + 1):
        want = oracle_project_ns_round(want, dims, i)
    got = _project_nonsignalling(m, dims)
    # a single round has nothing to signal to: the projection is the identity
    assert (np.abs(got - m).max() > 1e-2) == (dims[3] > 1)
    assert np.abs(got - want).max() <= 1e-13


def test_project_psd_trace_matches_full_rebuild(rng):
    h = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    h = h + h.conj().T
    w, v = np.linalg.eigh(h)
    assert (w < 0).any() and (w > 0).any()
    want = (v * np.clip(w, 0, None)) @ v.conj().T / np.clip(w, 0, None).sum()
    assert np.abs(_project_psd_trace(h) - want).max() <= 1e-14
    # nothing positive left: the maximally mixed state
    assert np.abs(_project_psd_trace(-(h @ h)) - np.eye(16) / 16).max() == 0.0


@pytest.mark.parametrize("n, seeds", [(2, (0, 1, 2)), (3, (0, 3, 6))])
def test_random_nonsignalling_choi_matches_oracle_sampler(n, seeds):
    for seed in seeds:
        got = random_nonsignalling_choi(2, 2, 2, n, seed=seed).omega.matrix
        want = oracle_random_nonsignalling_choi(2, 2, 2, n, seed=seed)
        assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("d_in, d_out", [(2, 2), (8, 4), (16, 8), (4, 3), (6, 9)])
def test_project_tp_is_the_kron_form_bitwise(rng, d_in, d_out):
    dim = d_in * d_out
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    before = m.copy()
    got = _project_tp(m, d_in, d_out)
    assert same_bits(got, oracle_project_tp_kron(m, d_in, d_out))
    assert np.array_equal(m, before)


@pytest.mark.parametrize("dim, shift, negatives", [
    (16, 0.5, "some"), (27, 0.3, "some"), (128, 0.5, "some"),
    (24, -1.0, "none"), (9, 10.0, "all")])
def test_project_psd_trace_is_the_mask_form_bitwise(rng, dim, shift, negatives):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    # not Hermitian: the step takes the Hermitian part first
    m = g @ g.conj().T / dim - shift * np.eye(dim) + 0.01 * g
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    k = np.count_nonzero(w < 0)
    assert {"none": k == 0, "some": 0 < k < dim, "all": k == dim}[negatives]
    before = m.copy()
    got = _project_psd_trace(m)
    assert same_bits(got, oracle_project_psd_trace_mask(m))
    assert np.array_equal(m, before)
    if negatives == "all":
        assert np.array_equal(got, np.eye(dim) / dim)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_nonsignalling_choi_is_the_fresh_array_sweep_bitwise(n, seed):
    # the sampler runs on one BLAS thread, so the oracle does too
    got = random_nonsignalling_choi(2, 2, 2, n, seed=seed).omega.matrix
    with one_blas_thread():
        want = oracle_sampler_loop(2, 2, 2, n, seed)
    assert same_bits(got, want)


@pytest.fixture
def blas_threads_seen(monkeypatch):
    """The caller runs on two OpenBLAS threads; yields the getter and the
    thread counts the sampler's PSD steps ran on."""
    calls = tensor_core._openblas_threads()
    if calls is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    setter, getter = calls
    seen = []

    def counted(y, fn=channels._project_psd_trace):
        seen.append(getter())
        return fn(y)

    monkeypatch.setattr(channels, "_project_psd_trace", counted)
    before = getter()
    setter(2)
    yield getter, seen
    setter(before)


def test_random_nonsignalling_choi_runs_on_one_blas_thread_and_restores_it(
        blas_threads_seen):
    getter, seen = blas_threads_seen
    q = random_nonsignalling_choi(2, 2, 2, 2, seed=0)
    assert q.cptp_report.ok and q.ns_report.ok
    assert seen and set(seen) == {1}
    assert getter() == 2


def test_random_nonsignalling_choi_restores_the_blas_threads_when_it_refuses(
        blas_threads_seen, monkeypatch):
    getter, seen = blas_threads_seen
    monkeypatch.setattr(channels, "SAMPLER_MAX_ITER", 1)
    with pytest.raises(TensorError, match="did not converge"):
        random_nonsignalling_choi(2, 2, 2, 2, seed=0)
    assert seen == [1]
    assert getter() == 2


def test_random_nonsignalling_choi_without_a_thread_setter_still_samples(
        blas_threads_seen, monkeypatch):
    getter, seen = blas_threads_seen
    monkeypatch.setattr(tensor_core, "_openblas_threads", lambda: None)
    q = random_nonsignalling_choi(2, 2, 2, 2, seed=0)
    assert q.cptp_report.ok and q.ns_report.ok
    assert seen and set(seen) == {2}
    assert getter() == 2


def test_random_nonsignalling_choi_refuses_what_does_not_converge(monkeypatch):
    monkeypatch.setattr(channels, "SAMPLER_MAX_ITER", 1)
    with pytest.raises(TensorError, match=r"alternating projections did not converge: "
                                          r"tp=\S+ psd=\S+ ns=\S+$"):
        random_nonsignalling_choi(2, 2, 2, 2, seed=0)


def test_a_sampled_channel_keeps_the_reports_that_accepted_it(monkeypatch):
    calls = []
    for name in ("is_cptp", "is_nonsignalling"):
        def counted(ch, fn=getattr(channels, name), name=name):
            calls.append(name)
            return fn(ch)
        monkeypatch.setattr(channels, name, counted)
    q = random_nonsignalling_choi(2, 2, 2, 2, seed=4)
    accepted = len(calls)
    assert q.cptp_report.ok and q.ns_report.ok
    assert q.cptp_report is q.cptp_report and q.ns_report is q.ns_report
    assert len(calls) == accepted
    assert q.cptp_report == is_cptp(q) and q.ns_report == is_nonsignalling(q)


def test_nonsignalling_residuals_match_oracle(rng):
    crossing = signalling_swap_channel()
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    povm = [op(np.outer(v, v.conj()), ("A", 2)),
            op(np.eye(2) - np.outer(v, v.conj()), ("A", 2))]
    preps = [choi_of_kraus(random_kraus(rng, 2, 3, count=2), 2, 3).omega
             for _ in range(2)]
    mp = measure_and_prepare_choi(povm, preps, n=3)
    for ch, size in ((crossing, 1.5), (mp, 0.0)):
        got = is_nonsignalling(ch).residuals
        want = oracle_signalling_residuals(ch)
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert np.allclose(got, size, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_measure_prepare_dense_is_measure_and_prepare_choi(rng, n):
    povm, preps = random_measure_prepare(rng, 2, 2, 2, rank=2)
    dense = MeasurePrepareChannel.of(povm, preps, n).dense()
    want = measure_and_prepare_choi(povm, preps, n)
    assert (dense.d_a, dense.d_x, dense.d_y, dense.n) == (2, 2, 2, n)
    assert dense.omega.shape == want.omega.shape
    assert np.array_equal(dense.omega.matrix, want.omega.matrix)
    # an independent grouping of the same sum: kron(M^T, phi^{⊗n}) / d_A
    ref = 0
    for m, phi in zip(povm, preps):
        rounds = np.eye(1)
        for _ in range(n):
            rounds = np.kron(phi.matrix, rounds)
        ref = ref + np.kron(m.matrix.T, rounds) / 2
    assert np.abs(dense.omega.matrix - ref).max() <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3])
def test_measure_prepare_marginal_is_the_closed_form(rng, n):
    povm, preps = random_measure_prepare(rng, 2, 2, 3, rank=3)
    q = MeasurePrepareChannel.of(povm, preps, n)
    dense = q.dense()
    got = marginal_channel(q)
    for want in (marginal_channel(dense), marginal_channel(symmetrize_channel(dense))):
        assert got.omega.shape == want.omega.shape
        assert np.abs(got.omega.matrix - want.omega.matrix).max() <= 1e-13


def test_measure_prepare_needs_no_symmetrizing_and_cannot_signal(rng):
    povm, preps = random_measure_prepare(rng, 2, 2, 2, rank=2)
    q = MeasurePrepareChannel.of(povm, preps, 3)
    assert symmetrize_channel(q) is q
    assert is_nonsignalling(q).residuals == (0.0, 0.0, 0.0)
    dense = q.dense()
    assert np.abs(symmetrize_channel(dense).omega.matrix - dense.omega.matrix).max() <= 1e-15
    assert is_nonsignalling(dense).max_residual <= 1e-12


def _broken_stacks(case):
    povm = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    chois = np.stack([np.eye(4) / 4, np.diag([0.5, 0.0, 0.5, 0.0])]).astype(complex)
    if case == "povm-incomplete":
        povm[1, 1, 1] = 0.5
    elif case == "povm-not-psd":
        povm = np.stack([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])]).astype(complex)
    elif case == "preparation-not-psd":
        chois[1] = np.diag([0.75, -0.25, 0.25, 0.25])
    elif case == "preparation-trace":
        chois[1] *= 2
    elif case == "preparation-not-tp":
        chois[1] = np.diag([0.5, 0.5, 0.0, 0.0])   # input marginal diag(1, 0)
    elif case == "stack-shapes":
        chois = chois[:1]
    elif case == "not-single-round-1-2":   # the Choi state of a 2-round channel
        dim = choi_factorization(1, 2, 2, 2).dim
        povm, chois = np.eye(2)[None], np.eye(dim)[None] / dim
    elif case == "not-single-round-2-1":   # one with a side register
        dim = choi_factorization(2, 2, 2, 1).dim
        povm, chois = np.eye(2)[None], np.eye(dim)[None] / dim
    elif case == "choi-side-not-dx-dy":
        povm, chois = np.eye(2)[None], np.eye(6)[None] / 6
    elif case == "one-choi-too-many":
        povm, chois = np.eye(2)[None], np.stack([np.eye(4) / 4] * 2)
    elif case == "povm-not-a-stack":
        povm, chois = np.eye(2), np.eye(4)[None] / 4
    elif case == "choi-not-unit-trace":
        chois = np.stack([np.eye(4) / 4, np.eye(4) / 2])
    return povm, chois


@pytest.mark.parametrize("case, message", [
    ("povm-incomplete", "completeness"),
    ("povm-not-psd", "POVM element is not PSD"),
    ("preparation-not-psd", "preparation is not PSD"),
    ("preparation-trace", "Choi state trace off 1"),
    ("preparation-not-tp", "input marginal"),
    ("stack-shapes", "stacks"),
    ("not-single-round-1-2", "single-round"),
    ("not-single-round-2-1", "single-round"),
    ("choi-side-not-dx-dy", "stacks"),
    ("one-choi-too-many", "stacks"),
    ("povm-not-a-stack", "stacks"),
    ("choi-not-unit-trace", "trace"),
])
def test_measure_prepare_rejects_invalid_stacks(case, message):
    MeasurePrepareChannel(*_broken_stacks(None), 2, 2, 2)
    with pytest.raises(TensorError, match=message):
        MeasurePrepareChannel(*_broken_stacks(case), 2, 2, 2)


@pytest.mark.parametrize("case, message", [
    ("no-outcome", "got 0 elements and 0 preparations"),
    ("preparations-on-two-spaces",
     r"preparations live on different spaces: \[\(\('X1', 2\), \('Y1', 2\)\), "
     r"\(\('X1', 3\), \('Y1', 2\)\)\]"),
    ("povm-on-two-spaces", "POVM elements live on different spaces"),
], ids=["no-outcome", "preparations-on-two-spaces", "povm-on-two-spaces"])
def test_measure_prepare_of_refuses_inputs_it_cannot_stack(case, message):
    povm = [op(np.eye(2) / 2, ("A", 2))] * 2
    preps = [op(np.eye(4) / 4, ("X1", 2), ("Y1", 2)), op(np.eye(6) / 6, ("X1", 3), ("Y1", 2))]
    if case == "no-outcome":
        povm, preps = [], []
    elif case == "povm-on-two-spaces":
        povm, preps = [op(np.eye(2), ("A", 2)), op(np.zeros((3, 3)), ("A", 3))], preps[:1] * 2
    with pytest.raises(TensorError, match=message):
        MeasurePrepareChannel.of(povm, preps, 2)


def test_a_valid_measure_prepare_channel_is_certified_without_an_eigensolve(monkeypatch, rng):
    # 2,001 outcomes: a complete POVM of Wishart elements on C^3 and random
    # trace-preserving Choi states on C^2 ⊗ C^2, whose PSD certificate is one
    # Cholesky factorization per stack
    k, d_a = 2001, 3
    g = rng.standard_normal((k, d_a, 2)) + 1j * rng.standard_normal((k, d_a, 2))
    blocks = g @ g.conj().swapaxes(1, 2)
    w, v = np.linalg.eigh(blocks.sum(axis=0))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    povm = inv_root @ blocks @ inv_root
    h = rng.standard_normal((k, 4, 4)) + 1j * rng.standard_normal((k, 4, 4))
    phi = h @ h.conj().swapaxes(1, 2)
    w, v = np.linalg.eigh(marginal_input(phi, 2, 2))
    lift = np.kron((v / np.sqrt(w)[:, None, :]) @ v.conj().swapaxes(1, 2), np.eye(2))
    chois = lift @ phi @ lift.conj().swapaxes(1, 2) / 2
    calls = []

    def counted(solver):
        def call(*args, **kwargs):
            calls.append(solver.__name__)
            return solver(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
    q = MeasurePrepareChannel(povm, chois, 2, 2, 3)
    assert len(q.povm) == 2001 and calls == []
