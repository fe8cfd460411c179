import re
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslocc import definetti, locc, risk, tensor_core
from nslocc.channels import (
    NS_TOL,
    ChoiChannel,
    MeasurePrepareChannel,
    choi_factorization,
    choi_of_global_kraus,
    choi_of_kraus,
    is_nonsignalling,
    marginal_channel,
    measure_and_prepare_choi,
    random_nonsignalling_choi,
    symmetrize_channel,
)
from nslocc.cli import _classification_family
from nslocc.definetti import MeasureGrid, build_grid, purify_extension
from nslocc.locc import (
    build_locc_protocol,
    purify_channel,
    theorem1_bound,
)
from nslocc.risk import (
    LearningTask,
    RiskReport,
    classification_task,
    expected_risk,
    protocol_risk,
    r_operator,
    risk_gap_experiment,
    swap_matrix,
    tomography_task,
)
from nslocc.tensor_core import (
    HERM_TOL,
    Operator,
    TensorError,
    op,
    op_norm,
    partial_trace,
)

from conftest import (
    classifier_choi,
    dense_permutation,
    dense_symmetrize,
    loop_marginal_choi,
    oracle_r_operator,
    oracle_risk_direct,
    oracle_task_matrices,
    permutation_operator,
    oracle_resolution_residual,
    product_channel,
    random_density,
    random_kraus,
    random_measure_prepare,
    random_unitary,
    symmetrized_risk_observable,
    task_operators,
)


def two_state_task(theta, n=1, prior=0.5):
    v0 = np.array([1.0, 0.0])
    v1 = np.array([np.cos(theta), np.sin(theta)])
    return classification_task(
        [prior, 1 - prior],
        [np.outer(v0, v0), np.outer(v1, v1)], n=n)


def ignore_training_channel(kraus, d_a, n):
    """Channel that discards A and applies the same single-round map per round."""
    single = choi_of_kraus(kraus, 2, 2)
    q = product_channel(single, n)
    m = np.kron(np.eye(d_a) / d_a, q.omega.matrix)
    from nslocc.channels import ChoiChannel, choi_factorization
    from nslocc.tensor_core import Operator
    fac = choi_factorization(d_a, 2, 2, n)
    return ChoiChannel(Operator(m, fac), d_a, 2, 2, n)


def helstrom_channel(theta, n):
    """Measure the test state in the Helstrom basis and output the label."""
    v0 = np.array([1.0, 0.0])
    v1 = np.array([np.cos(theta), np.sin(theta)])
    h = 0.5 * np.outer(v0, v0) - 0.5 * np.outer(v1, v1)
    w, vecs = np.linalg.eigh(h)
    # eigenvector with positive eigenvalue votes for class 0
    k0 = np.outer(np.array([1.0, 0.0]), vecs[:, np.argmax(w)].conj())
    k1 = np.outer(np.array([0.0, 1.0]), vecs[:, np.argmin(w)].conj())
    return ignore_training_channel([k0, k1], d_a=4, n=n)


def test_classification_task_shapes():
    t = two_state_task(np.pi / 3, n=2)
    assert t.d_a == 4 and t.d_x == 2 and t.d_y == 2 and t.d_r == 2
    assert np.isclose(t.rho_a.trace().real, 1.0)


@pytest.mark.parametrize("builder", [classification_task, tomography_task])
def test_task_builders_refuse_one_prior_short(builder):
    # zipping priors with states would drop the second state from rho_XR
    # while it still entered rho_A and the label count
    states = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    with pytest.raises(TensorError, match="1 priors for 2 states"):
        builder([1.0], states, n=1)


@pytest.mark.parametrize("builder", [classification_task, tomography_task])
def test_task_builders_refuse_states_of_different_dimension(builder):
    with pytest.raises(TensorError, match="share one dimension"):
        builder([0.5, 0.5], [np.eye(2) / 2, np.eye(3) / 3], n=1)


@pytest.mark.parametrize("rho_xr, s", [
    # ρ_XR's R is a qubit and S's a qutrit
    (np.eye(4).reshape(2, 2, 2, 2) / 4, np.eye(6).reshape(2, 3, 2, 3)),
    # ρ_XR as a matrix, not as its (X, R, X, R) view
    (np.eye(4) / 4, np.eye(4).reshape(2, 2, 2, 2)),
    # S's column Y differs from its row Y
    (np.eye(4).reshape(2, 2, 2, 2) / 4, np.zeros((2, 2, 3, 2))),
], ids=["r-registers-differ", "flat-pair-state", "score-not-square"])
def test_task_refuses_arrays_of_mismatched_shapes(rho_xr, s):
    shapes = ", ".join(map(str, [(2, 2), rho_xr.shape, s.shape]))
    with pytest.raises(TensorError, match=f"task shapes {re.escape(shapes)} are not"):
        LearningTask(np.eye(2) / 2, rho_xr, s, 1)


def test_helstrom_risk_matches_closed_form():
    theta = np.pi / 5
    c = np.cos(theta)
    t = two_state_task(theta, n=1)
    q = helstrom_channel(theta, n=1)
    risk = expected_risk(q, t, path="direct")
    assert np.isclose(risk, 0.5 * (1 - np.sqrt(1 - c ** 2)), atol=1e-10)


def test_risk_affine_in_observable(rng):
    t = two_state_task(np.pi / 4, n=1)
    q = helstrom_channel(np.pi / 4, n=1)
    base = expected_risk(q, t, path="marginal")
    scaled = LearningTask(rho_a=t.rho_a, rho_xr=t.rho_xr,
                          s=t.s * 2.0, n=t.n)
    shifted = LearningTask(rho_a=t.rho_a, rho_xr=t.rho_xr,
                           s=t.s + np.eye(4).reshape(2, 2, 2, 2) * 0.3,
                           n=t.n)
    assert np.isclose(expected_risk(q, scaled, path="marginal"), 2 * base)
    assert np.isclose(expected_risk(q, shifted, path="marginal"), base + 0.3)


def test_dual_paths_agree(rng):
    base = two_state_task(np.pi / 3, n=2)
    t2 = LearningTask(rho_a=np.eye(2) / 2, rho_xr=base.rho_xr, s=base.s, n=2)
    for seed in range(5):
        q = random_nonsignalling_choi(2, 2, 2, 2, seed=seed)
        a = expected_risk(q, t2, path="marginal")
        b = expected_risk(q, t2, path="direct")
        assert abs(a - b) <= 1e-8


def test_symmetrized_observable_permutation_invariant():
    t = two_state_task(np.pi / 3, n=1)
    s = task_operators(t)[2]
    s_bar = symmetrized_risk_observable(s, 3).matrix
    # swap the (Y, R) pairs of rounds 1 and 2
    p = dense_permutation([1, 0, 2], len(s.matrix))
    assert np.allclose(p @ s_bar @ p.T, s_bar, atol=1e-12)


def test_symmetrized_observable_sum_vs_average():
    t = two_state_task(np.pi / 3, n=1)
    s = task_operators(t)[2]
    avg = symmetrized_risk_observable(s, 2)
    # the raw sum S ⊗ 1 + 1 ⊗ S on (Y1, R1, Y2, R2)
    eye = np.eye(len(s.matrix))
    tot = np.kron(s.matrix, eye) + np.kron(eye, s.matrix)
    assert np.allclose(tot, 2 * avg.matrix)


def test_r_operator_hermitian_and_bounded():
    t = two_state_task(np.pi / 4, n=2)
    r = r_operator(t)
    assert np.abs(r - r.conj().T).max() <= HERM_TOL
    assert op_norm(r) <= op_norm(t.s.reshape(4, 4)) + 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["classification", "tomography"]), st.integers(1, 3),
       st.integers(2, 3), st.integers(0, 2 ** 31 - 1))
def test_r_operator_matches_the_embedded_oracle(kind, labels, d, seed):
    # the closed form ρ_Aᵀ ⊗ N against the trace over (A, X, Y, R) of the
    # embedded, partially transposed product, on complex states
    rng = np.random.default_rng(seed)
    priors = rng.dirichlet(np.ones(labels))
    priors[-1] = 1.0 - priors[:-1].sum()
    build = classification_task if kind == "classification" else tomography_task
    task = build(list(priors), [random_density(rng, d) for _ in range(labels)], n=1)
    got, want = r_operator(task), oracle_r_operator(task)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-15


@pytest.mark.parametrize("overlap", [0.3, 0.6, 1.0])
def test_r_operator_is_the_oracle_bit_for_bit_on_the_risk_gap_task(overlap):
    rho0, rho1, _, _ = _classification_family(overlap)
    task = classification_task([0.5, 0.5], [rho0, rho1], n=3)
    assert np.array_equal(r_operator(task), oracle_r_operator(task))


@pytest.mark.parametrize("kind", ["classification", "tomography"])
@pytest.mark.parametrize("labels, d", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3),
                                       (1, 16), (2, 16)])
def test_task_matrices_are_the_kron_sums_bit_for_bit(rng, kind, labels, d):
    # three 16-level class states would make a 4,096-side ρ_A of 256 MiB
    priors = list(np.full(labels, 1.0 / labels))
    states = [random_density(rng, d) for _ in range(labels)]
    build = classification_task if kind == "classification" else tomography_task
    task = build(priors, states, n=labels)
    rho_a, rho_xr, s = oracle_task_matrices(kind, priors, states)
    assert np.array_equal(task.rho_a, rho_a)
    assert np.array_equal(task.rho_xr.reshape(rho_xr.shape), rho_xr)
    assert np.array_equal(task.s.reshape(s.shape), s)


def test_risk_gap_operators_are_built_without_kron(monkeypatch):
    # the risk-gap run's fixed operators are single contractions: the
    # classifier family, its task and the task's risk kernel
    def refuse(*args, **kwargs):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", refuse)
    rho0, rho1, povm, preps = _classification_family(0.6)
    task = classification_task([0.5, 0.5], [rho0, rho1], n=3)
    assert task.r_kernel.shape == (16, 16)


def test_classification_family_matches_the_kraus_choi_states():
    rho0, rho1, povm, preps = _classification_family(0.6)
    _, v = np.linalg.eigh(rho0 / 2 - rho1 / 2)
    for got, basis in zip(preps, (v[:, ::-1], v)):
        want = classifier_choi(basis)
        assert got.labels == want.labels
        assert np.array_equal(got.matrix, want.matrix)
    p_plus = np.outer(v[:, 1], v[:, 1])
    for got, e in zip(povm, (p_plus, np.eye(2) - p_plus)):
        assert got.labels == ("A",)
        assert np.array_equal(got.matrix, np.kron(e, np.eye(2)))


def test_swap_matrix_is_involution():
    for d in (2, 3):
        s = swap_matrix(d)
        assert np.allclose(s @ s, np.eye(d * d))
        assert np.allclose(s, permutation_operator((1, 0), d).matrix)


def test_tomography_task_identity_channel_zero_risk():
    # channel copies the classical name x into a fresh preparation of state x
    v0 = np.array([1.0, 0.0])
    v1 = np.array([0.0, 1.0])
    states = [np.outer(v0, v0), np.outer(v1, v1)]
    t = tomography_task([0.5, 0.5], states, n=1)
    povm = [op(np.eye(4), ("A", 4))]
    # preparation conditioned on x: Choi of x -> rho_x
    kraus = [np.array([[1.0, 0.0], [0.0, 0.0]]),
             np.array([[0.0, 0.0], [0.0, 1.0]])]
    q = choi_of_kraus(kraus, 2, 2)
    q_full = measure_and_prepare_choi(povm, [partial_trace(q.omega, ["X1", "Y1"])], n=1)
    risk = expected_risk(q_full, t, path="direct")
    assert np.isclose(risk, 0.0, atol=1e-12)


def test_protocol_risk_close_to_collective_for_mp_channel(rng):
    # a channel that is already measure-and-prepare should reconstruct with a
    # small risk gap at matched grid points
    theta = np.pi / 3
    t = two_state_task(theta, n=2)
    q = helstrom_channel(theta, n=2)
    report = risk_gap_experiment(t, q, build_grid(16, "haar:0:800"))
    assert report.gap <= min(2 * op_norm(t.s.reshape(4, 4)), report.bound) + 1e-9
    assert report.bound == theorem1_bound(t.d_a, t.d_x, t.d_y, t.n,
                                          report.r_infnorm)


def test_expected_risk_both_paths_gate(rng):
    q = random_nonsignalling_choi(2, 2, 2, 2, seed=21)
    t = LearningTask(rho_a=np.eye(2) / 2,
                     rho_xr=two_state_task(np.pi / 3).rho_xr,
                     s=two_state_task(np.pi / 3).s, n=2)
    val = expected_risk(q, t, path="both")
    assert np.isfinite(val)


@pytest.mark.parametrize("n", [2, 3])
def test_risk_gap_matches_dense_permutation_oracle(monkeypatch, n):
    """risk-gap values against a run where every S_n average is a dense P ω P†
    sum, the grid residual is evaluated on the full d^n space against a dense
    permutation projector, and the protocol marginal is a per-outcome kron loop."""
    rho0, rho1, povm, preps = _classification_family(0.6)
    q = measure_and_prepare_choi(povm, preps, n)
    task = classification_task([0.5, 0.5], [rho0, rho1], n=n)
    fast = risk_gap_experiment(task, q, build_grid(16, "haar:0:200"))

    def dense_symmetrize_channel(ch):
        avg = dense_symmetrize(ch.omega.matrix, ch.d_a, ch.d_x * ch.d_y, ch.n)
        return ChoiChannel(Operator(avg, ch.omega.factors), ch.d_a, ch.d_x, ch.d_y, ch.n)

    def loop_marginal(channel):
        if not isinstance(channel, MeasurePrepareChannel):
            return marginal_channel(channel)
        fac = choi_factorization(channel.d_a, channel.d_x, channel.d_y, 1)
        return ChoiChannel(Operator(loop_marginal_choi(channel), fac),
                           channel.d_a, channel.d_x, channel.d_y, 1)

    monkeypatch.setattr(locc, "symmetrize_channel", dense_symmetrize_channel)
    monkeypatch.setattr(risk, "symmetrize_channel", dense_symmetrize_channel)
    monkeypatch.setattr(definetti, "_dense_resolution_residual", oracle_resolution_residual)
    monkeypatch.setattr(risk, "marginal_channel", loop_marginal)
    slow = risk_gap_experiment(task, q, build_grid(16, "haar:0:200"))
    for key in ("risk_collective", "risk_locc", "gap", "grid_residual"):
        assert getattr(fast, key) == pytest.approx(getattr(slow, key), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("stage", ["symmetrize_channel", "purify_extension",
                                   "purify_product_mixture", "direct risk evaluation"])
def test_dense_stages_refuse_work_over_the_budget(monkeypatch, stage):
    rho0, rho1, povm, preps = _classification_family(0.6)
    q = measure_and_prepare_choi(povm, preps, 2)               # side 64
    task = classification_task([0.5, 0.5], [rho0, rho1], n=2)  # direct side 256
    structured = MeasurePrepareChannel.of(povm, preps, 3)   # core side 64
    calls = {"symmetrize_channel": lambda: symmetrize_channel(q),
             "purify_extension": lambda: purify_extension(q.omega.matrix, q.d_a, q.n),
             "purify_product_mixture": lambda: purify_channel(structured),
             "direct risk evaluation": lambda: expected_risk(q, task, path="direct")}
    monkeypatch.setattr(tensor_core, "DENSE_BYTES_BUDGET", 16 * 64 * 64 - 1)
    with pytest.raises(TensorError, match=stage):
        calls[stage]()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_structured_risk_gap_matches_the_dense_channel(n):
    rho0, rho1, povm, preps = _classification_family(0.6)
    task = classification_task([0.5, 0.5], [rho0, rho1], n=n)
    structured = MeasurePrepareChannel.of(povm, preps, n)
    dense = measure_and_prepare_choi(povm, preps, n)
    got = risk_gap_experiment(task, structured, build_grid(16, "haar:0:200"))
    want = risk_gap_experiment(task, dense, build_grid(16, "haar:0:200"))
    for key in RiskReport.__dataclass_fields__:
        assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-12, abs=0), key
    assert expected_risk(structured, task, path="both") == pytest.approx(
        expected_risk(dense, task, path="both"), rel=1e-12, abs=0)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2, 3]), st.integers(0, 2 ** 31 - 1),
       st.sampled_from([0.3, 0.6, 0.9]))
def test_relabelling_the_outcomes_leaves_the_risk_report_unchanged(n, seed, overlap):
    # the reversed outcome order gives the same channel, so the whole
    # reduction sees the same state and only its summation order changes
    rho0, rho1, povm, preps = _classification_family(overlap)
    task = classification_task([0.5, 0.5], [rho0, rho1], n=n)
    grid = build_grid(16, f"haar:{seed}:300")
    want = risk_gap_experiment(task, MeasurePrepareChannel.of(povm, preps, n), grid)
    got = risk_gap_experiment(task, MeasurePrepareChannel.of(povm[::-1], preps[::-1], n),
                              grid)
    for key in RiskReport.__dataclass_fields__:
        assert getattr(got, key) == pytest.approx(getattr(want, key), rel=0, abs=1e-12), key


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2, 3]), st.integers(0, 2 ** 31 - 1),
       st.sampled_from([0.3, 0.6, 0.9]))
def test_local_unitaries_on_channel_and_task_leave_the_risk_unchanged(n, seed, overlap):
    # (U_A, V_X, W_Y) on the task and the matching conjugation of the channel:
    # the channel sees rotated inputs, undoes the rotation and rotates its
    # outputs, which the rotated score undoes again
    rho0, rho1, povm, preps = _classification_family(overlap)
    task = classification_task([0.5, 0.5], [rho0, rho1], n=n)
    q = MeasurePrepareChannel.of(povm, preps, n)
    rng = np.random.default_rng(seed)
    u, v, w = random_unitary(rng, 4), random_unitary(rng, 2), random_unitary(rng, 2)
    eye = np.eye(2)
    _, rho_xr, s = task_operators(task)
    turned = LearningTask(
        rho_a=u @ task.rho_a @ u.conj().T,
        rho_xr=(np.kron(v, eye) @ rho_xr.matrix @ np.kron(v, eye).conj().T).reshape(2, 2, 2, 2),
        s=(np.kron(w, eye) @ s.matrix @ np.kron(w, eye).conj().T).reshape(2, 2, 2, 2),
        n=n)
    site = np.kron(v.conj(), w)
    structured = MeasurePrepareChannel(u @ q.povm @ u.conj().T,
                                       site @ q.chois @ site.conj().T, 2, 2, n)
    g = reduce(np.kron, [u.conj()] + [site] * n)
    dense = q.dense()
    dense = ChoiChannel(Operator(g @ dense.omega.matrix @ g.conj().T, dense.omega.factors),
                        4, 2, 2, n)
    want = expected_risk(q, task, path="marginal")
    for channel in (structured, dense):
        got = expected_risk(channel, turned, path="marginal")
        assert got == pytest.approx(want, rel=0, abs=1e-12)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([0.3, 0.6, 0.9]))
def test_local_unitaries_with_the_grid_rotated_leave_the_reduction_unchanged(seed, overlap):
    """ROADMAP item 8: W = Ū ⊗ V on a site (X, Y) turns the preparations,
    U the task's ρ_XR and V its S; the purification's doubled sites then
    turn by W ⊗ W̄, and a grid turned by it too gives the same overlaps, so
    the same risk_locc and grid_residual, at every n of a sweep."""
    rho0, rho1, povm, preps = _classification_family(overlap)
    rng = np.random.default_rng(seed)
    u, v = random_unitary(rng, 2), random_unitary(rng, 2)
    w, eye = np.kron(u.conj(), v), np.eye(2)
    grid = build_grid(16, f"haar:{seed}:200")
    turned_grid = MeasureGrid(grid.vectors @ np.kron(w, w.conj()).T, grid.weights,
                              grid.d_eff, grid.mode)

    def turn(x, m, shape):
        """(x ⊗ 1_R) m (x ⊗ 1_R)† in the task's array shape."""
        g = np.kron(x, eye)
        return (g @ m.matrix @ g.conj().T).reshape(shape)

    for n in (1, 2, 3):
        task = classification_task([0.5, 0.5], [rho0, rho1], n=n)
        _, rho_xr, s = task_operators(task)
        turned = LearningTask(rho_a=task.rho_a, rho_xr=turn(u, rho_xr, task.rho_xr.shape),
                              s=turn(v, s, task.s.shape), n=n)
        q = MeasurePrepareChannel.of(povm, preps, n)
        rotated = MeasurePrepareChannel(q.povm, w @ q.chois @ w.conj().T, 2, 2, n)
        want = risk_gap_experiment(task, q, grid)
        got = risk_gap_experiment(turned, rotated, turned_grid)
        assert got.risk_locc == pytest.approx(want.risk_locc, rel=0, abs=1e-10)
        assert got.grid_residual == pytest.approx(want.grid_residual, rel=0, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_protocol_is_a_channel_whose_risk_paths_agree(n):
    rho0, rho1, povm, preps = _classification_family(0.6)
    task = classification_task([0.5, 0.5], [rho0, rho1], n=n)
    proto = build_locc_protocol(MeasurePrepareChannel.of(povm, preps, n),
                                build_grid(16, "haar:0:200"))
    assert isinstance(proto, MeasurePrepareChannel) and proto.n == n
    want = protocol_risk(proto, task)
    assert expected_risk(proto, task, "both") == pytest.approx(want, rel=0, abs=1e-12)
    assert expected_risk(proto, task, "direct") == pytest.approx(want, rel=0, abs=1e-12)


def test_risk_gap_experiment_builds_the_r_operator_once(monkeypatch):
    rho0, rho1, povm, preps = _classification_family(0.6)
    task = classification_task([0.5, 0.5], [rho0, rho1], n=2)
    calls = []

    def counted(t):
        calls.append(t)
        return r_operator(t)

    monkeypatch.setattr(risk, "r_operator", counted)
    risk_gap_experiment(task, MeasurePrepareChannel.of(povm, preps, 2),
                        build_grid(16, "haar:0:200"))
    assert len(calls) == 1 and calls[0] is task


def traced_peak(call) -> int:
    """Peak bytes tracemalloc sees while `call` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("builder", [classification_task, tomography_task])
def test_training_state_over_the_budget_is_refused_before_it_is_built(builder):
    # 13 qubit states ask for an 8,192-sided training state (1 GiB)
    states = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])] * 6 + [np.eye(2) / 2]

    def build():
        with pytest.raises(TensorError, match="training state needs a dense 8192 x 8192"):
            builder([1 / 13] * 13, states, n=1)

    assert traced_peak(build) < 2 ** 20


def _oracle_cases(n: int):
    """(channel, task) pairs on which the direct path must match the embedding
    oracle: the risk-gap channel on its task, then, on complex classification
    and tomography tasks (so that a transposed pairing shows), a random
    measure-and-prepare channel, two sampled non-signalling channels (not
    symmetric under round permutations) and a signalling channel, a random
    joint channel on X^n -> Y^n."""
    rng = np.random.default_rng(n)
    rho0, rho1, povm, preps = _classification_family(0.6)
    out = [(MeasurePrepareChannel.of(povm, preps, n),
            classification_task([0.5, 0.5], [rho0, rho1], n=n))]
    for builder in (classification_task, tomography_task):
        task = builder([0.3, 0.7], [random_density(rng, 2) for _ in range(2)], n=n)
        out.append((MeasurePrepareChannel.of(*random_measure_prepare(rng, 4, 2, 2, 2), n),
                    task))
        out += [(random_nonsignalling_choi(4, 2, 2, n, seed=seed), task) for seed in (0, 1)]
        joint = choi_of_global_kraus(random_kraus(rng, 2 ** n, 2 ** n, count=3), 2, 2, n)
        out.append((joint, LearningTask(np.eye(1), task.rho_xr, task.s, n)))
    return out


@pytest.mark.parametrize("n", [1, 2])
def test_direct_risk_matches_the_embedding_oracle(n):
    for q, task in _oracle_cases(n):
        assert expected_risk(q, task, "direct") == pytest.approx(
            oracle_risk_direct(q, task), rel=0, abs=1e-14)


@st.composite
def sampled_channel_tasks(draw):
    """A sampled non-signalling channel on (A, X, Y) = (4, 2, 2) at n = 1 or
    2, and a complex classification or tomography task of two qubit states."""
    n = draw(st.integers(1, 2))
    builder = draw(st.sampled_from([classification_task, tomography_task]))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    prior = rng.uniform(0.1, 0.9)
    task = builder([prior, 1.0 - prior], [random_density(rng, 2) for _ in range(2)], n=n)
    return random_nonsignalling_choi(4, 2, 2, n, seed=seed), task


@settings(max_examples=20, deadline=None, derandomize=True)
@given(sampled_channel_tasks())
def test_direct_risk_matches_the_embedding_oracle_on_sampled_channels(case):
    """ROADMAP item 8, oracle agreement: the per-round contraction against
    the embedding oracle's labelled embeds and partial transpose."""
    q, task = case
    # the example's cost, bounded by its size rather than by a wall-clock
    # deadline: the Choi side 4·4² at n = 2
    assert len(q.omega.matrix) <= 4 * 4 ** 2
    assert abs(risk._risk_direct(q, task) - oracle_risk_direct(q, task)) <= 1e-14


@st.composite
def nearly_nonsignalling_channels(draw):
    """A sampled non-signalling channel on (A, X, Y) = (4, 2, 2) at n = 2 mixed
    with a log-uniform ε in [1e-10, 1e-6] of the round-swap channel (Y1 = X2,
    Y2 = X1) ⊗ 1_A/4, which signals, and a classification task of two random
    qubit states."""
    seed = draw(st.integers(0, 2 ** 31 - 1))
    eps = 10.0 ** draw(st.floats(-10.0, -6.0))
    swap = choi_of_global_kraus([swap_matrix(2)], 2, 2, n=2).omega.matrix
    m = ((1.0 - eps) * random_nonsignalling_choi(4, 2, 2, 2, seed=seed).omega.matrix
         + eps * np.kron(np.eye(4) / 4, swap))
    rng = np.random.default_rng(seed)
    task = classification_task([0.8, 0.2], [random_density(rng, 2) for _ in range(2)], n=2)
    return ChoiChannel(Operator(m, choi_factorization(4, 2, 2, 2)), 4, 2, 2, 2), task


@settings(max_examples=15, deadline=None, derandomize=True)
@given(nearly_nonsignalling_channels())
def test_the_reduction_and_the_dual_path_risk_share_one_signalling_gate(case):
    """ROADMAP item 13: the reduction refuses exactly the channels whose
    signalling residual is over NS_TOL, and the dual-path risk either refuses
    for the residual or its two paths agree to its 1e-8 gate."""
    q, task = case
    # the example's cost, bounded by its size rather than by a wall-clock
    # deadline: the Choi side 4·4² at n = 2
    assert len(q.omega.matrix) <= 4 * 4 ** 2
    signals = is_nonsignalling(q).max_residual > NS_TOL
    try:
        build_locc_protocol(q, build_grid(16, "haar:0:50"))
    except TensorError as err:
        assert signals and "signalling" in str(err)
    else:
        assert not signals
    try:
        direct, marginal = risk._risk_direct(q, task), expected_risk(q, task, "both")
    except TensorError as err:
        assert "signalling residual" in str(err)
    else:
        assert abs(direct - marginal) <= 1e-8


def test_direct_risk_matches_the_embedding_oracle_at_three_rounds():
    rng = np.random.default_rng(3)
    task = classification_task([0.3, 0.7], [random_density(rng, 2) for _ in range(2)], n=3)
    q = random_nonsignalling_choi(4, 2, 2, 3, seed=0)
    assert expected_risk(q, task, "direct") == pytest.approx(
        oracle_risk_direct(q, task), rel=0, abs=1e-14)


def test_both_risk_paths_at_three_rounds_stay_small():
    # the embedding oracle peaked at 385 MiB here
    rho0, rho1, povm, preps = _classification_family(0.6)
    task = classification_task([0.5, 0.5], [rho0, rho1], n=3)
    q = MeasurePrepareChannel.of(povm, preps, 3)
    assert traced_peak(lambda: expected_risk(q, task, path="both")) < 16 * 2 ** 20
