import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslocc import locc
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
    MeasureGrid,
    _block_overlaps,
    build_grid,
    extract_measure,
    purify_extension,
)
from nslocc.locc import (
    build_locc_protocol,
    concentration_report,
    marginal_input,
    purify_channel,
    repair_distance_bound,
    theorem1_bound,
    tp_repair,
)
from nslocc.tensor_core import (
    Operator,
    TensorError,
    eigh_herm,
    op,
    op_norm,
    partial_trace,
    trace_norm,
)

from conftest import (
    extension_psi,
    loop_marginal_choi,
    oracle_einsum_repair,
    oracle_tp_repair,
    random_density,
    random_kraus,
    random_measure_prepare,
    repair_one,
)


def random_pair_state(rng, d_x, d_y):
    return op(random_density(rng, d_x * d_y), ("X1", d_x), ("Y1", d_y))


def dense_purification(q):
    """purify_extension of a dense channel's Choi state."""
    return purify_extension(q.omega.matrix, q.d_a, q.n)


def measure_of(q, seed, count):
    """The de Finetti measure build_locc_protocol extracts on a haar grid."""
    ext = dense_purification(symmetrize_channel(q))
    return extract_measure(ext, build_grid(ext.site_dim, f"haar:{seed}:{count}"))


def pair_marginal(phi, d_x, d_y):
    """Reference input marginal tr_Y φ through a labelled partial trace."""
    return partial_trace(op(phi, ("X1", d_x), ("Y1", d_y)), ["X1"]).matrix


def per_point_marginals(approx, d_x, d_y):
    """Reference (weights, input marginals), one per grid point."""
    weights = [np.trace(m).real for m in approx.ms]
    taus = [pair_marginal(phi, d_x, d_y) for phi in approx.phis]
    return weights, taus


def test_tp_repair_fixes_input_marginal(rng):
    fixed = repair_one(random_density(rng, 6), 2, 3)
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
        fixed = repair_one(phi.matrix, d_x, d_y)
        assert fixed.shape == phi.matrix.shape
        assert np.abs(fixed - oracle_tp_repair(phi).matrix).max() <= 1e-14


@pytest.mark.parametrize("d_x, d_y", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_tp_repair_matches_the_einsum_sandwich(rng, d_x, d_y):
    # F φ F with F = (τ^{-1/2} ⊗ 1_Y)/√d_X against one einsum over the
    # (X, Y, X, Y) view of φ, on complex states
    for _ in range(5):
        phi = random_density(rng, d_x * d_y)
        w, v = eigh_herm(marginal_input(phi, d_x, d_y), check=True)
        want = oracle_einsum_repair(phi, (v / np.sqrt(w)) @ v.conj().T, d_x)
        assert np.abs(repair_one(phi, d_x, d_y) - want).max() <= 1e-15


def test_reduction_that_repairs_no_point_assembles_every_fallback(tmp_path):
    # at n = 3 no input marginal of this grid passes the repair gate, so the
    # stack of repair factors is empty
    from nslocc.cli import _classification_family, main
    _, _, povm, preps = _classification_family(0.6)
    proto = build_locc_protocol(MeasurePrepareChannel.of(povm, preps, 3), "haar:14402:200")
    assert proto.provenance["repaired_count"] == 0
    assert all(np.array_equal(choi, np.eye(4) / 4) for choi in proto.chois)
    out = tmp_path / "r.csv"
    assert main(["risk-gap", "--n", "3", "--grid", "haar:14402:200", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_tp_repair_rejects_singular_marginal():
    # output of a preparation conditioned on input |0>: marginal is a projector
    m = np.zeros((4, 4))
    m[0, 0] = 1.0
    with pytest.raises(TensorError, match="input marginal nearly singular"):
        repair_distance_bound(m, 2, 2)


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


def test_theorem1_bound_scales_with_n():
    b8 = theorem1_bound(2, 2, 2, 8, 1.0)
    b64 = theorem1_bound(2, 2, 2, 64, 1.0)
    assert np.isclose(b8 / b64, (64 / 8) ** (1 / 6))
    with pytest.raises(TensorError):
        theorem1_bound(2, 2, 2, 0, 1.0)


def test_build_protocol_rejects_signalling_input(rng):
    d = 2
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3) \
        .reshape(d * d, d * d)
    from nslocc.channels import choi_of_global_kraus
    q = choi_of_global_kraus([swap], 2, 2, n=2)
    with pytest.raises(TensorError):
        build_locc_protocol(q, "haar:0:20")


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
    ext = dense_purification(symmetrize_channel(q))
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
    assert np.abs(rep.e1 - e1).max() <= 1e-12
    assert abs(rep.ek_residuals[0][1] - trace_norm(e1 - np.eye(2) / 2)) <= 1e-12
    assert abs(rep.ek_residuals[1][1] - trace_norm(e2 - np.eye(4) / 4)) <= 1e-12
    assert abs(rep.r_eps_mass - near) <= 1e-12


def test_protocol_assembled_from_stacked_measure():
    # every repaired point against the labelled-Operator oracle, not against
    # the library's own tp_repair, on sampled channels of each (d_X, d_Y)
    for d_x, d_y in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        d = d_x * d_y
        q = random_nonsignalling_choi(2, d_x, d_y, 2, seed=11)
        proto = build_locc_protocol(q, grid_spec="haar:1:400")
        approx = measure_of(q, seed=1, count=400)
        prov = proto.provenance
        rep = concentration_report(approx, prov["epsilon"], prov["delta"], d_x, d_y)
        _, taus = per_point_marginals(approx, d_x, d_y)
        repaired = 0
        for m, phi, tau, elem, choi in zip(approx.ms, approx.phis, taus,
                                           proto.povm, proto.chois):
            assert np.abs(elem - prov["povm_rescale"] * 2 * m.T).max() <= 1e-12
            if (np.linalg.eigvalsh(tau).min() > 1e-8
                    and op_norm(tau - rep.e1) < prov["epsilon"]):
                want = oracle_tp_repair(op(phi, ("X1", d_x), ("Y1", d_y))).matrix
                assert np.abs(choi - want).max() <= 1e-14
                repaired += 1
            else:
                assert np.array_equal(choi, np.eye(d) / d)
        assert repaired == prov["repaired_count"] > 0
        assert len(proto.povm) == len(approx.ms) + 1
        assert np.array_equal(proto.chois[-1], np.eye(d) / d)


@pytest.mark.parametrize("d_x, d_y", [(2, 2), (3, 2)])
def test_stacked_inverse_roots_match_the_oracle_on_either_lapack_path(rng, d_x, d_y):
    # a stack of real states is solved in real arithmetic; one complex state
    # sends the whole stack, its real members too, down the complex path
    real = [random_density(rng, d_x * d_y).real for _ in range(4)]
    for phis in (np.stack(real), np.stack(real + [random_density(rng, d_x * d_y)])):
        w, v = eigh_herm(marginal_input(phis, d_x, d_y), check=True)
        assert v.dtype == phis.dtype
        for phi, factor in zip(phis, locc._repair_factors(w, v, d_y)):
            want = oracle_tp_repair(op(phi, ("X1", d_x), ("Y1", d_y))).matrix
            assert np.abs(tp_repair(phi, factor) - want).max() <= 1e-14


def test_marginal_choi_matches_per_outcome_loop():
    q = random_nonsignalling_choi(2, 2, 2, 2, seed=11)
    proto = build_locc_protocol(q, grid_spec="haar:1:400")
    got = marginal_channel(proto).omega
    assert got.labels == ("A", "X1", "Y1")
    assert np.abs(got.matrix - loop_marginal_choi(proto)).max() <= 1e-14


@pytest.mark.parametrize("n, grid, rescaled", [(1, "haar:0:10", True),
                                               (2, "haar:1:400", False)])
def test_slack_element_completes_the_povm(monkeypatch, n, grid, rescaled):
    q = random_nonsignalling_choi(2, 2, 2, n, seed=11)
    solved = []

    def counted(m, *args, **kwargs):
        # the POVM-side solves: on one d_A x d_A matrix, in build_locc_protocol
        if m.ndim == 2 and sys._getframe(1).f_code.co_name == "build_locc_protocol":
            solved.append(m)
        return eigh_herm(m, *args, **kwargs)

    monkeypatch.setattr(locc, "eigh_herm", counted)
    proto = build_locc_protocol(q, grid)
    assert (proto.provenance["povm_rescale"] < 1.0) == rescaled
    *elements, slack = proto.povm
    assert np.abs(slack - (np.eye(2) - sum(elements))).max() <= 1e-15
    lam = eigh_herm(slack, vectors=False)
    # the slack is eigensolved once (with a rescale, also the family's sum
    # and the rescaled slack), and its mass is bitwise that spectrum's
    assert len(solved) == (3 if rescaled else 1)
    assert proto.provenance["slack_mass"] == float(np.clip(lam, 0, None).sum()) / 2


def test_reduction_eigensolves_do_not_grow_with_the_grid(monkeypatch):
    # the τ stack is eigensolved once (plus _spread's solve), so a grid eight
    # times larger makes the same number of LAPACK eigensolver calls
    from nslocc.cli import _classification_family
    _, _, povm, preps = _classification_family(0.6)
    q = MeasurePrepareChannel.of(povm, preps, 2)
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, **kwargs):
            calls.append(_solver.__name__)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    counts = []
    for count in (50, 400):
        calls.clear()
        proto = build_locc_protocol(q, f"haar:0:{count}")
        assert proto.provenance["repaired_count"] > 0
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


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
    want = dense_purification(symmetrize_channel(q.dense()))
    assert (got.d_a, got.site_dim, got.site_keep_dim) == (want.d_a, want.site_dim,
                                                         want.site_keep_dim)
    assert got.site_dim == got.site_keep_dim ** 2
    assert np.abs(extension_psi(got) - extension_psi(want)).max() <= 1e-12
    assert 0.0 <= got.dropped_mass <= 1e-13
    assert abs(got.dropped_mass - want.dropped_mass) <= 1e-13


@pytest.mark.parametrize("case", ["classifier", "complex", "overcomplete", "pure"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_structured_overlaps_are_the_dense_ones(rng, case, n):
    # every channel, pure or mixed, keeps its site factors: neither √ω nor
    # ψ is built, so no extension takes the dense storage's identity sites
    q = structured_case(rng, case, n)
    got = purify_channel(q)
    want = dense_purification(symmetrize_channel(q.dense()))
    assert not np.array_equal(got.sites, np.eye(got.site_dim))
    grid = build_grid(want.site_dim, "haar:3:60")
    assert np.abs(_block_overlaps(got, grid) - _block_overlaps(want, grid)).max() <= 1e-12
    assert np.abs(got.marginal - want.marginal).max() <= 1e-13


def unitary_pair_channel(n):
    """Two-outcome measure-and-prepare qubit channel, d_A = 2, whose
    preparations are the unitaries U and XU: tr(U†XU) = tr X = 0, so their
    Choi states P_0, P_1 are orthogonal pure states."""
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m0 = g @ g.conj().T
    m0 /= 1.25 * np.linalg.eigvalsh(m0).max()        # 0 < M_0 < 1, full rank
    x = np.array([[0, 1], [1, 0]])
    chois = [choi_of_kraus([k @ u], 2, 2).omega.matrix for k in (np.eye(2), x)]
    return MeasurePrepareChannel(np.stack([m0, np.eye(2) - m0]), np.stack(chois), 2, 2, n)


@pytest.mark.parametrize("n", [26, 64, 256])
def test_structured_purification_of_orthogonal_pure_preparations_is_closed_form(n):
    # ω = sum_j K_j ⊗ P_j^{⊗n} with orthogonal projectors P_j, so √ω =
    # sum_j √K_j ⊗ P_j^{⊗n} and u_g = sum_j vec √K_j · <g|vec P_j>^n, with
    # vec P_j = c_j ⊗ conj(c_j) the doubled site vector
    q = unitary_pair_channel(n)
    assert abs(np.trace(q.chois[0] @ q.chois[1])) <= 1e-15
    ext = purify_channel(q)
    assert 0.0 <= ext.dropped_mass <= 1e-12
    # grid points from on top of each vec P_j to far from both, so that the
    # overlaps^n span many orders of magnitude instead of all underflowing
    rng = np.random.default_rng(n)
    sites = q.chois.reshape(2, 16)
    noise = rng.standard_normal((40, 16)) + 1j * rng.standard_normal((40, 16))
    scale = np.logspace(-4, 1, 20).repeat(2)[:, None]
    vecs = np.concatenate([sites, sites[np.arange(40) % 2] + scale * noise / 4])
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    grid = MeasureGrid(vecs, np.full(len(vecs), 1 / len(vecs)), 16, "closed-form")
    roots = []
    for k in q.povm.transpose(0, 2, 1) / 2:
        w, v = np.linalg.eigh(k)
        roots.append(((v * np.sqrt(w)) @ v.conj().T).ravel())
    want = (vecs.conj() @ sites.T) ** n @ np.stack(roots)
    got = _block_overlaps(ext, grid)
    assert np.isfinite(got).all()
    assert np.abs(got - want).max() <= 1e-12
    assert np.linalg.norm(got[:2], axis=1).min() > 0.1  # on top of vec P_j: not vanishing
    proto = build_locc_protocol(q, "haar:0:2000")
    assert proto.provenance["dropped_mass"] == ext.dropped_mass


def test_structured_purification_counts_the_mass_its_floors_drop():
    # phi's eigenvalue 1e-17 lies below its rank floor 0.5 · 4 · eps, so the
    # factor b leaves it out: ω = phi^{⊗3} loses 3e-17 of its trace
    phi = np.diag([0.5, 1e-17, 0.5, 0.0])
    q = MeasurePrepareChannel(np.eye(1)[None], phi[None], 2, 2, 3)
    got = purify_channel(q)
    assert got.dropped_mass == pytest.approx(3e-17, rel=1e-9)
    want = dense_purification(q.dense())
    assert np.abs(extension_psi(got) - extension_psi(want)).max() <= 1e-12
