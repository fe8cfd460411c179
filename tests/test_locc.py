import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslocc.channels import (
    ChoiChannel,
    MeasurePrepareChannel,
    choi_factorization,
    choi_of_kraus,
    is_cptp,
    is_nonsignalling,
    marginal_channel,
    random_nonsignalling_choi,
    symmetrize_channel,
)
from nslocc.definetti import (
    _block_overlaps,
    build_grid,
    extract_measure,
    purify_extension,
)
from nslocc.locc import (
    build_locc_protocol,
    choi_pairs_to_sites,
    concentration_report,
    depolarizing_choi,
    marginal_input,
    operator_chebyshev,
    purify_channel,
    repair_distance_bound,
    theorem1_bound,
    tp_repair,
)
from nslocc.tensor_core import Operator, TensorError, op, op_norm, partial_trace, trace_norm

from conftest import (
    extension_psi,
    loop_marginal_choi,
    oracle_tp_repair,
    random_density,
    random_kraus,
    random_measure_prepare,
    random_pure,
)


def random_pair_state(rng, d_x, d_y):
    return op(random_density(rng, d_x * d_y), ("X1", d_x), ("Y1", d_y))


def measure_of(q, seed, count):
    """The de Finetti measure build_locc_protocol extracts on a haar grid."""
    ext = purify_extension(choi_pairs_to_sites(symmetrize_channel(q)))
    return extract_measure(ext, build_grid(ext.site_dim, q.n, f"haar:{seed}:{count}"))


def pair_marginal(phi, d_x, d_y):
    """Reference input marginal tr_Y φ through a labelled partial trace."""
    return partial_trace(op(phi, ("X1", d_x), ("Y1", d_y)), ["X1"]).matrix


def per_point_marginals(approx, d_x, d_y):
    """Reference (weights, input marginals), one per grid point."""
    weights = [np.trace(m).real for m in approx.ms]
    taus = [pair_marginal(phi, d_x, d_y) for phi in approx.phis]
    return weights, taus


def test_tp_repair_fixes_input_marginal(rng):
    fixed = tp_repair(random_density(rng, 6), 2, 3)
    assert np.allclose(pair_marginal(fixed, 2, 3), np.eye(2) / 2, atol=1e-10)
    assert np.isclose(np.trace(fixed).real, 1.0, atol=1e-10)


def test_marginal_input_of_a_stack_matches_each_state(rng):
    phis = np.stack([random_density(rng, 6) for _ in range(4)])
    taus = marginal_input(phis, 2, 3)
    assert taus.shape == (4, 2, 2)
    for phi, tau in zip(phis, taus):
        assert np.abs(tau - pair_marginal(phi, 2, 3)).max() <= 1e-15


@pytest.mark.parametrize("d_x, d_y", [(2, 2), (2, 3), (3, 2)])
def test_tp_repair_matches_operator_oracle(rng, d_x, d_y):
    for _ in range(5):
        phi = random_pair_state(rng, d_x, d_y)
        fixed = tp_repair(phi.matrix, d_x, d_y)
        assert fixed.shape == phi.matrix.shape
        assert np.abs(fixed - oracle_tp_repair(phi).matrix).max() <= 1e-14


def test_tp_repair_rejects_singular_marginal():
    # output of a preparation conditioned on input |0>: marginal is a projector
    m = np.zeros((4, 4))
    m[0, 0] = 1.0
    with pytest.raises(TensorError):
        tp_repair(m, 2, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([2, 3]))
def test_repair_distance_bound_holds(seed, d_x):
    rng = np.random.default_rng(seed)
    lhs, rhs = repair_distance_bound(random_density(rng, d_x * 2), d_x, 2)
    assert lhs <= rhs + 1e-9


def test_repair_noop_when_already_tp(rng):
    q = choi_of_kraus(random_kraus(rng, 2, 2, count=2), 2, 2)
    pair = partial_trace(q.omega, ["X1", "Y1"])
    lhs, rhs = repair_distance_bound(pair.matrix, 2, 2)
    assert lhs < 1e-10 and rhs < 1e-7


def test_operator_chebyshev_hand_value():
    # two orthogonal projectors with equal weight: mu = I/2,
    # E[X (x) X] - mu (x) mu has operator norm 1/4; d=2, eps=0.4
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    emp, bound = operator_chebyshev([(p0, 0.5), (p1, 0.5)], epsilon=0.4)
    assert np.isclose(bound, 4 / 0.16 * 0.25)
    assert emp == 1.0  # both samples are 1/2 away from the mean


def test_operator_chebyshev_is_valid_bound(rng):
    for _ in range(20):
        k = rng.integers(2, 6)
        mats = [random_density(rng, 3) for _ in range(k)]
        probs = rng.dirichlet(np.ones(k))
        for eps in (0.1, 0.3, 0.5):
            emp, bound = operator_chebyshev(list(zip(mats, probs)), eps)
            assert emp <= bound + 1e-12


def test_theorem1_bound_scales_with_n():
    b8 = theorem1_bound(2, 2, 2, 8, 1.0)
    b64 = theorem1_bound(2, 2, 2, 64, 1.0)
    assert np.isclose(b8 / b64, (64 / 8) ** (1 / 6))
    with pytest.raises(TensorError):
        theorem1_bound(2, 2, 2, 0, 1.0)


def test_depolarizing_choi_is_cptp():
    q = depolarizing_choi(2, 3)
    assert is_cptp(q).ok


def test_build_protocol_rejects_signalling_input(rng):
    d = 2
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3) \
        .reshape(d * d, d * d)
    from nslocc.channels import choi_of_global_kraus
    q = choi_of_global_kraus([swap], 2, 2, n=2)
    with pytest.raises(TensorError):
        build_locc_protocol(q)


def test_build_protocol_output_is_valid(rng):
    q = random_nonsignalling_choi(2, 2, 2, 2, seed=11)
    proto = build_locc_protocol(q, "haar:1:400")
    assert isinstance(proto, MeasurePrepareChannel)
    assert (proto.d_a, proto.d_x, proto.d_y, proto.n) == (2, 2, 2, 2)
    assert proto.provenance["grid_mode"] == "haar:1:400"
    assert np.allclose(proto.povm.sum(axis=0), np.eye(2), atol=1e-7)
    assert proto.chois.shape == (len(proto.povm), 4, 4)
    for c in proto.chois:
        rep = is_cptp(ChoiChannel(Operator(c, choi_factorization(1, 2, 2, 1)), 1, 2, 2, 1))
        assert rep.ok, rep
    rebuilt = proto.dense()
    assert is_cptp(rebuilt).ok
    assert is_nonsignalling(rebuilt).ok
    for key in ("epsilon", "delta", "grid_residual", "povm_rescale"):
        assert key in proto.provenance


def test_build_protocol_reports_the_purification_dropped_mass():
    from nslocc.channels import measure_and_prepare_choi
    from nslocc.cli import _classification_family
    _, _, povm, preps = _classification_family(0.6)
    q = measure_and_prepare_choi(povm, preps, 2)
    ext = purify_extension(choi_pairs_to_sites(symmetrize_channel(q)))
    proto = build_locc_protocol(q, "haar:0:200")
    assert proto.provenance["dropped_mass"] == ext.dropped_mass
    assert 0.0 <= ext.dropped_mass <= 1e-13


def test_concentration_report_fields(rng):
    q = random_nonsignalling_choi(2, 2, 2, 2, seed=13)
    proto = build_locc_protocol(q, grid_spec="haar:3:300")
    approx = measure_of(q, seed=3, count=300)  # the measure proto was built from
    rep = concentration_report(approx, epsilon=0.2, delta=0.5, d_x=2, d_y=2)
    assert rep.complement_mass <= 1.0 + 1e-9
    assert rep.complement_bound >= 0.0
    assert rep.ek_residuals[0][0] == 1
    # the stacked computation agrees with a per-point loop
    weights, taus = per_point_marginals(approx, 2, 2)
    e1 = sum(w * t for w, t in zip(weights, taus))
    e2 = sum(w * np.kron(t, t) for w, t in zip(weights, taus))
    near = sum(w for w, t in zip(weights, taus) if op_norm(t - e1) < 0.2)
    assert np.abs(rep.e1.matrix - e1).max() <= 1e-12
    assert abs(rep.ek_residuals[0][1] - trace_norm(e1 - np.eye(2) / 2)) <= 1e-12
    assert abs(rep.ek_residuals[1][1] - trace_norm(e2 - np.eye(4) / 4)) <= 1e-12
    assert abs(rep.r_eps_mass - near) <= 1e-12


def test_protocol_assembled_from_stacked_measure():
    q = random_nonsignalling_choi(2, 2, 2, 2, seed=11)
    proto = build_locc_protocol(q, grid_spec="haar:1:400")
    approx = measure_of(q, seed=1, count=400)
    prov = proto.provenance
    rep = concentration_report(approx, prov["epsilon"], prov["delta"], 2, 2)
    _, taus = per_point_marginals(approx, 2, 2)
    repaired = 0
    for m, phi, tau, elem, choi in zip(approx.ms, approx.phis, taus,
                                       proto.povm, proto.chois):
        assert np.abs(elem - prov["povm_rescale"] * 2 * m.T).max() <= 1e-12
        if (np.linalg.eigvalsh(tau).min() > 1e-8
                and op_norm(tau - rep.e1.matrix) < prov["epsilon"]):
            assert np.abs(choi - tp_repair(phi, 2, 2)).max() <= 1e-12
            repaired += 1
        else:
            assert np.array_equal(choi, depolarizing_choi(2, 2).omega.matrix)
    assert repaired == prov["repaired_count"]
    assert len(proto.povm) == len(approx.ms) + 1
    assert np.array_equal(proto.chois[-1], depolarizing_choi(2, 2).omega.matrix)


def test_marginal_choi_matches_per_outcome_loop():
    q = random_nonsignalling_choi(2, 2, 2, 2, seed=11)
    proto = build_locc_protocol(q, grid_spec="haar:1:400")
    got = marginal_channel(proto, 1).omega
    assert got.labels == ("A", "X1", "Y1")
    assert np.abs(got.matrix - loop_marginal_choi(proto)).max() <= 1e-14


@pytest.mark.parametrize("n, grid, rescaled", [(1, "haar:0:10", True),
                                               (2, "haar:1:400", False)])
def test_slack_element_completes_the_povm(n, grid, rescaled):
    q = random_nonsignalling_choi(2, 2, 2, n, seed=11)
    proto = build_locc_protocol(q, grid)
    assert (proto.provenance["povm_rescale"] < 1.0) == rescaled
    *elements, slack = proto.povm
    assert np.abs(slack - (np.eye(2) - sum(elements))).max() <= 1e-15
    lam = np.linalg.eigvalsh(slack)
    assert abs(proto.provenance["slack_mass"] - np.clip(lam, 0, None).sum() / 2) <= 1e-15


def structured_case(rng, case, n):
    """A measure-and-prepare channel: rank-2 real K_j and phi_j as risk-gap
    runs ("classifier"), rank-1 complex K_j with rank-2 complex phi_j
    ("complex"), three full-rank complex K_j on A = C² with rank-2 complex
    phi_j, whose factor has more columns than omega's side at n = 1, so its
    Gram matrix is singular ("overcomplete"), or d_A = 1, one outcome and a
    unitary's pure phi ("pure")."""
    if case == "classifier":
        from nslocc.cli import _classification_family
        _, _, povm, preps = _classification_family(0.6)
    elif case == "complex":
        povm, preps = random_measure_prepare(rng, 2, 2, 2, rank=2)
    elif case == "overcomplete":
        g = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        g = g @ g.conj().transpose(0, 2, 1)
        w, v = np.linalg.eigh(g.sum(axis=0))
        root = (v / np.sqrt(w)) @ v.conj().T                # (sum_j g_j)^{-1/2}
        povm = [op(root @ x @ root, ("A", 2)) for x in g]
        preps = [partial_trace(choi_of_kraus(random_kraus(rng, 2, 2, count=2), 2, 2).omega,
                               ["X1", "Y1"]) for _ in range(3)]
    else:
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        povm, preps = [op(np.eye(1), ("A", 1))], [choi_of_kraus([u], 2, 2).omega]
    return MeasurePrepareChannel.of(povm, preps, n)


@pytest.mark.parametrize("case", ["classifier", "complex", "overcomplete", "pure"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_structured_purification_is_the_dense_one(rng, case, n):
    q = structured_case(rng, case, n)
    got = purify_channel(q)
    want = purify_extension(choi_pairs_to_sites(symmetrize_channel(q.dense())))
    assert (got.d_a, got.site_dim, got.site_keep_dim) == (want.d_a, want.site_dim,
                                                         want.site_keep_dim)
    assert (got.site_dim != got.site_keep_dim) == (case != "pure")
    assert np.abs(extension_psi(got) - extension_psi(want)).max() <= 1e-12
    assert 0.0 <= got.dropped_mass <= 1e-13
    assert abs(got.dropped_mass - want.dropped_mass) <= 1e-13


@pytest.mark.parametrize("case", ["classifier", "complex", "overcomplete", "pure"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_structured_overlaps_are_the_dense_ones(rng, case, n):
    # a mixed channel keeps its site factors: neither √ω nor ψ is built, and
    # only a pure one takes the dense storage, with identity sites
    q = structured_case(rng, case, n)
    got = purify_channel(q)
    want = purify_extension(choi_pairs_to_sites(symmetrize_channel(q.dense())))
    assert np.array_equal(got.sites, np.eye(got.site_dim)) == (case == "pure")
    grid = build_grid(want.site_dim, n, "haar:3:60")
    assert np.abs(_block_overlaps(got, grid) - _block_overlaps(want, grid)).max() <= 1e-12
    assert np.abs(got.marginal - want.marginal).max() <= 1e-13


def test_structured_purification_counts_the_mass_its_floors_drop():
    # phi's eigenvalue 1e-17 lies below its rank floor 0.5 · 4 · eps, so the
    # factor b leaves it out: ω = phi^{⊗3} loses 3e-17 of its trace
    phi = np.diag([0.5, 1e-17, 0.5, 0.0])
    q = MeasurePrepareChannel(np.eye(1)[None], phi[None], 2, 2, 3)
    got = purify_channel(q)
    assert got.dropped_mass == pytest.approx(3e-17, rel=1e-9)
    want = purify_extension(choi_pairs_to_sites(q.dense()))
    assert np.abs(extension_psi(got) - extension_psi(want)).max() <= 1e-12
