import numpy as np
import pytest

from nslocc.channels import MeasurePrepareChannel, choi_of_kraus, measure_and_prepare_choi
from nslocc.definetti import (
    approx_error,
    branch_extension,
    build_grid,
    definetti_bound,
    extract_measure,
    purify_extension,
    purify_product_mixture,
    subspace_residual,
)
from nslocc.tensor_core import (
    TensorError,
    dense_budget_rows,
    int_power,
    op,
    partial_trace,
    sym_dim,
    symmetric_projector,
    trace_norm,
)

from conftest import (
    extension_psi,
    oracle_purify_extension,
    oracle_resolution_residual,
    random_density,
    random_kraus,
    random_pure,
    unprimed_state,
)


def symmetric_test_state(rng, d_a, d, n):
    """A-correlated mixture of product site states, exactly permutation symmetric."""
    parts = []
    mats = [random_density(rng, d) for _ in range(3)]
    blocks = [random_density(rng, d_a) for _ in range(3)]
    w = rng.dirichlet(np.ones(3))
    m = np.zeros((d_a * d ** n,) * 2, dtype=complex)
    for wi, ka, phi in zip(w, blocks, mats):
        term = wi * ka
        for _ in range(n):
            term = np.kron(term, phi)
        m += term
    labels = [("A", d_a)] + [(f"B{i}", d) for i in range(1, n + 1)]
    return op(m, *labels), list(zip(w, blocks, mats))


def test_design_grid_resolves_symmetric_projector():
    for n in range(1, 7):
        g = build_grid(2, n, "design")
        assert g.resolution_residual is not None
        assert g.resolution_residual <= 1e-12
        assert oracle_resolution_residual(g.vectors, g.weights, n, 2) <= 1e-12


@pytest.mark.parametrize("n, d", [(1, 16), (2, 16), (2, 4), (3, 4)])
def test_dicke_residual_matches_the_dense_oracle(n, d):
    g = build_grid(d, n, f"haar:{n * d}:300")
    want = oracle_resolution_residual(g.vectors, g.weights, n, d)
    assert g.resolution_residual == pytest.approx(want, rel=1e-12)


def test_design_grid_n1_resolves_identity():
    g = build_grid(2, 1, "design")
    acc = np.zeros((2, 2), dtype=complex)
    for v, w in zip(g.vectors, g.weights):
        acc += 2 * w * np.outer(v, v.conj())
    assert np.allclose(acc, np.eye(2), atol=1e-13)


def test_haar_grid_residual_decreases_with_count():
    g1 = build_grid(2, 2, "haar:0:200")
    g2 = build_grid(2, 2, "haar:0:4000")
    assert g2.resolution_residual < g1.resolution_residual


@pytest.mark.parametrize("name, d_eff", [("design", 2), ("haar:7:30", 4),
                                         ("haar:0:1", 4)])
def test_grid_mode_is_the_name_it_was_built_from(name, d_eff):
    assert build_grid(d_eff, 2, name).mode == name


def test_named_haar_grid_matches_build_grid_with_extra_points():
    extra = np.eye(4, dtype=complex)[:2]
    got = build_grid(4, 2, "haar:7:30", include=extra)
    rng = np.random.default_rng(7)
    g = rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
    assert got.count == 32
    assert np.array_equal(got.vectors[:30], g / np.linalg.norm(g, axis=1, keepdims=True))
    assert np.array_equal(got.vectors[30:], extra)


@pytest.mark.parametrize("name", ["auto", "haar", "haar:3", "haar:03:30", "haar:-1:30",
                                  "haar:3:30:x", "haar:3:+30", " design", "haarfoo",
                                  {"mode": "haar", "seed": 0, "count": 30}])
def test_grid_names_outside_the_grammar_are_refused(name):
    with pytest.raises(TensorError, match="design [|] haar:SEED:COUNT"):
        build_grid(4, 2, name)


def test_haar_grid_without_points_is_refused():
    with pytest.raises(TensorError, match="design [|] haar:SEED:COUNT"):
        build_grid(4, 2, "haar:0:0")


def test_design_grid_refuses_extra_points():
    with pytest.raises(TensorError, match="haar"):
        build_grid(2, 2, "design", include=np.eye(2, dtype=complex))


@pytest.mark.parametrize("kind", ["mixed", "pure"])
@pytest.mark.parametrize("d_a", [1, 2, 3])
def test_purify_extension_reduces_back(rng, d_a, kind):
    # the block marginal tells the storage from the block side: d_a for a
    # pure state's vector, d_a² for a purification (also 1 at d_a = 1)
    n, d = 2, 2
    if kind == "mixed":
        omega, _ = symmetric_test_state(rng, d_a, d, n)
    else:
        # two A-correlated product states in superposition: pure and symmetric
        vec = sum(np.kron(random_pure(rng, d_a), np.kron(s, s))
                  for s in (random_pure(rng, d), random_pure(rng, d)))
        vec /= np.linalg.norm(vec)
        omega = op(np.outer(vec, vec.conj()), ("A", d_a), ("B1", d), ("B2", d))
    ext = purify_extension(omega)
    assert ext.site_dim == (d if kind == "pure" else d * d)
    want = partial_trace(omega, ["A"]).matrix
    assert np.abs(ext.marginal - want).max() <= 1e-10


def risk_gap_state(n):
    """The symmetrized Choi state, on (A, B1..Bn), that risk-gap purifies."""
    from nslocc.channels import symmetrize_channel
    from nslocc.cli import _classification_family
    from nslocc.locc import choi_pairs_to_sites
    _, _, povm, preps = _classification_family(0.6)
    return choi_pairs_to_sites(symmetrize_channel(measure_and_prepare_choi(povm, preps, n)))


@pytest.mark.parametrize("n", [2, 3])
def test_real_purification_matches_complex_solve_above_the_floor(n):
    omega = risk_gap_state(n)
    assert not omega.matrix.imag.any()
    ext = purify_extension(omega)
    assert ext.coeffs.dtype == np.float64   # the real solve ran
    want = oracle_purify_extension(omega, floor=True)
    assert np.abs(extension_psi(ext) - extension_psi(want)).max() <= 1e-12
    assert np.abs(ext.marginal - partial_trace(omega, ["A"]).matrix).max() <= 1e-12
    assert 0.0 <= ext.dropped_mass <= 1e-13


def test_complex_symmetric_state_takes_the_complex_solve(rng):
    omega, _ = symmetric_test_state(rng, 2, 2, 2)
    assert np.abs(omega.matrix.imag).max() > 1e-3
    ext = purify_extension(omega)
    assert np.iscomplexobj(ext.coeffs)
    assert np.abs(unprimed_state(ext) - omega.matrix).max() <= 1e-12


def test_purification_keeps_a_small_eigenvalue_above_the_floor(rng):
    # (1 − ε)|00><00| + ε|11><11| in a rotated product basis, ε = 1e-9
    eps = 1e-9
    o, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    rot = np.kron(o, o)
    omega = op(rot @ np.diag([1 - eps, 0.0, 0.0, eps]) @ rot.T, ("B1", 2), ("B2", 2))
    ext = purify_extension(omega)
    assert ext.site_dim != ext.site_keep_dim and ext.dropped_mass <= 1e-15
    back = rot.T @ unprimed_state(ext) @ rot
    assert abs(back[3, 3] - eps) <= 1e-15
    assert np.abs(unprimed_state(ext) - omega.matrix).max() <= 1e-15


@pytest.mark.parametrize("n", [2, 3])
def test_risk_gap_matches_full_spectrum_complex_purification(monkeypatch, n):
    from nslocc import locc
    from nslocc.cli import _classification_family
    from nslocc.risk import classification_task, risk_gap_experiment
    rho0, rho1, povm, preps = _classification_family(0.6)
    q = measure_and_prepare_choi(povm, preps, n)
    task = classification_task([0.5, 0.5], [rho0, rho1], n=n)
    got = risk_gap_experiment(task, q, grid_spec="haar:0:200")
    monkeypatch.setattr(locc, "purify_extension", oracle_purify_extension)
    want = risk_gap_experiment(task, q, grid_spec="haar:0:200")
    for key in ("risk_collective", "risk_locc", "gap", "grid_residual"):
        assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-8), key


def test_purify_extension_names_the_broken_transposition(rng):
    # symmetric under swapping sites 1 and 2, not under swapping 2 and 3
    sigma, tau = random_density(rng, 2), random_density(rng, 2)
    m = np.kron(np.kron(random_density(rng, 2), np.kron(sigma, sigma)), tau)
    omega = op(m, ("A", 2), ("B1", 2), ("B2", 2), ("B3", 2))
    with pytest.raises(TensorError, match=r"transposition 2,3"):
        purify_extension(omega)


def test_pure_antisymmetric_state_is_refused():
    # the singlet: omega is invariant under the swap, its vector changes sign
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    omega = op(np.outer(singlet, singlet), ("B1", 2), ("B2", 2))
    with pytest.raises(TensorError, match=r"not symmetric under sites \(1,2\)"):
        purify_extension(omega)


def test_branch_extension_requires_unit_mass():
    with pytest.raises(TensorError):
        branch_extension(np.eye(2)[None], np.eye(2)[None] / 2, n=2)


def test_branch_extraction_matches_dense(rng):
    # same measure-and-prepare state processed via branch and via dense
    # purification must yield the same extracted measure
    n, d_a = 2, 2
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    povm = [np.outer(v, v.conj()), np.eye(2) - np.outer(v, v.conj())]
    preps = [choi_of_kraus(random_kraus(rng, 2, 2, count=1), 2, 2).omega
             for _ in range(2)]
    q = MeasurePrepareChannel.of([op(m, ("A", 2)) for m in povm], preps, n)
    ext_b = branch_extension(q.povm.transpose(0, 2, 1) / q.d_a, q.chois, n)

    from nslocc.locc import choi_pairs_to_sites
    sites = choi_pairs_to_sites(q.dense())
    ext_d = purify_extension(sites)

    grid = build_grid(ext_b.site_dim, n, "haar:2:300")
    ma = extract_measure(ext_b, grid)
    md = extract_measure(ext_d, grid)
    assert np.allclose(ma.ms, md.ms, atol=1e-8)
    assert np.allclose(ma.phis, md.phis, atol=1e-8)


def per_point_measure(ext, grid):
    """Reference extraction, one grid point at a time, from the dense state:
    (ms, phis) stacks."""
    d_big = sym_dim(ext.n, ext.site_dim)
    psi = extension_psi(ext)
    ms, phis = [], []
    for v, w in zip(grid.vectors, grid.weights):
        u = psi
        for _ in range(ext.n):
            u = u.reshape(-1, ext.site_dim) @ v.conj()
        r = len(u) // ext.d_a
        m = np.einsum("abcb->ac", np.outer(u, u.conj()).reshape(ext.d_a, r, ext.d_a, r))
        ms.append(w * d_big * m)
        g = v.reshape(ext.site_keep_dim, -1)
        rho = g @ g.conj().T
        phis.append(rho / np.trace(rho).real)
    return np.array(ms), np.array(phis)


def test_stacked_extraction_matches_per_point_loop(rng):
    n, d_a = 3, 2
    mixed, _ = symmetric_test_state(rng, d_a, 2, n)
    site = random_pure(rng, 2)
    vec = random_pure(rng, d_a)
    for _ in range(n):
        vec = np.kron(vec, site)
    pure = op(np.outer(vec, vec.conj()), ("A", d_a), *((f"B{i}", 2) for i in range(1, n + 1)))
    parts = [(random_density(rng, d_a) * w, random_density(rng, 2)) for w in (0.3, 0.7)]
    exts = [branch_extension(np.stack([k for k, _ in parts]),
                             np.stack([p for _, p in parts]), n=5),
            purify_extension(mixed),   # doubled sites
            purify_extension(pure)]    # plain sites
    assert [e.site_dim != e.site_keep_dim for e in exts] == [True, True, False]
    for ext in exts:
        grid = build_grid(ext.site_dim, ext.n, "haar:7:150")
        approx = extract_measure(ext, grid)
        ms, phis = per_point_measure(ext, grid)
        assert approx.ms.shape == (grid.count, d_a, d_a)
        assert np.abs(approx.ms - ms).max() <= 1e-12
        assert np.abs(approx.phis - phis).max() <= 1e-12


@pytest.mark.parametrize("n", [64, 256])
def test_branch_extraction_matches_the_closed_form_at_large_n(rng, n):
    # M_g = w_g D sum_j |<v_g|chi_j>|^{2n} K_j with chi_j = vec √phi_j / ‖vec √phi_j‖
    ks = np.stack([random_density(rng, 2) * w for w in (0.4, 0.6)])
    phis = np.stack([random_density(rng, 2) for _ in range(2)])
    chis = []
    for p in phis:
        w, v = np.linalg.eigh(p)
        chi = ((v * np.sqrt(w)) @ v.conj().T).ravel()
        chis.append(chi / np.linalg.norm(chi))
    chis = np.array(chis)
    # the chi_j themselves are on the grid, where M_g is largest
    grid = build_grid(4, n, "haar:5:200", include=chis)
    ms = extract_measure(branch_extension(ks, phis, n), grid).ms
    amp = np.abs(grid.vectors.conj() @ chis.T) ** (2 * n)
    want = np.einsum("g,gj,jab->gab", grid.weights * sym_dim(n, 4), amp, ks)
    assert np.abs(ms - want).max() <= 1e-12 * np.abs(want).max()


def test_extraction_in_several_grid_chunks_matches_per_point_loop(rng, monkeypatch):
    from nslocc import tensor_core
    n, d_a = 3, 2
    mixed, _ = symmetric_test_state(rng, d_a, 2, n)
    blocks = np.stack([random_density(rng, d_a) * w for w in (0.3, 0.7)])
    sites = np.stack([random_density(rng, 2) for _ in range(2)])
    exts = [purify_extension(mixed),                     # dense
            branch_extension(blocks, sites, n),          # branches
            purify_product_mixture(blocks, sites, n)]    # product mixture
    for ext in exts:
        grid = build_grid(ext.site_dim, n, "haar:9:50")
        # a budget that holds 7 grid points of the two (T, chunk) buffers
        terms = ext.index.shape[1]
        monkeypatch.setattr(tensor_core, "DENSE_BYTES_BUDGET", 16 * 2 * terms * 7)
        assert dense_budget_rows(2 * terms) == 7
        approx = extract_measure(ext, grid)
        monkeypatch.undo()
        ms, phis = per_point_measure(ext, grid)
        assert np.abs(approx.ms - ms).max() <= 1e-12
        assert np.abs(approx.phis - phis).max() <= 1e-12


def test_int_power_matches_numpy_power(rng):
    z = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    z /= np.abs(z).max()
    # moduli 0.06 and 0.01 reach subnormal and zero at n=256
    z[0, :3] = [0.06, 0.01j, 0.06 * np.exp(0.3j)]
    for n in (1, 2, 3, 16, 64, 255, 256):
        want = np.power(z, n)
        assert np.allclose(int_power(z, n), want, rtol=1e-12, atol=1e-300), n
    assert np.all(np.abs(int_power(z, 256)[0, :3]) < np.finfo(float).tiny)


def test_approx_error_k2_matches_kron_loop(rng):
    n, d_a = 3, 2
    omega, _ = symmetric_test_state(rng, d_a, 2, n)
    ext = purify_extension(omega)
    approx = extract_measure(ext, build_grid(ext.site_dim, n, "haar:8:200"))
    omega_2 = partial_trace(omega, ["A", "B1", "B2"])
    acc = sum(np.kron(np.kron(m, p), p) for m, p in zip(approx.ms, approx.phis))
    assert abs(approx_error(omega_2, approx, 2)
               - trace_norm(omega_2.matrix - acc)) <= 1e-12


def test_extract_measure_k1_error_within_grid_budget(rng):
    n, d_a, d = 4, 2, 2
    omega, _ = symmetric_test_state(rng, d_a, d, n)
    ext = purify_extension(omega)
    grid = build_grid(ext.site_dim, n, "haar:1:2500")
    approx = extract_measure(ext, grid)
    omega_1 = partial_trace(omega, ["A", "B1"])
    err = approx_error(omega_1, approx, 1)
    assert err <= definetti_bound(d, 1, n) + approx.grid_residual + 1e-8


def test_approx_error_monotone_in_k(rng):
    n, d_a, d = 4, 2, 2
    omega, _ = symmetric_test_state(rng, d_a, d, n)
    ext = purify_extension(omega)
    grid = build_grid(ext.site_dim, n, "haar:3:2000")
    approx = extract_measure(ext, grid)
    errs = [approx_error(partial_trace(
        omega, ["A"] + [f"B{i}" for i in range(1, k + 1)]), approx, k)
        for k in (1, 2, 3)]
    assert errs[0] <= errs[1] + 1e-10 <= errs[2] + 2e-10


def test_povm_deficit_bounded_by_residual(rng):
    n = 6
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    povm = [np.outer(v, v.conj()), np.eye(2) - np.outer(v, v.conj())]
    preps = [choi_of_kraus(random_kraus(rng, 2, 2, count=1), 2, 2).omega
             for _ in range(2)]
    q = MeasurePrepareChannel.of([op(m, ("A", 2)) for m in povm], preps, n)
    ext = branch_extension(q.povm.transpose(0, 2, 1) / q.d_a, q.chois, n)
    grid = build_grid(ext.site_dim, n, "haar:4:1500")
    approx = extract_measure(ext, grid)
    assert approx.povm_deficit <= approx.grid_residual + 1e-8


def test_subspace_residual_nonnegative(rng):
    n = 3
    omega, _ = symmetric_test_state(rng, 2, 2, n)
    ext = purify_extension(omega)
    grid = build_grid(ext.site_dim, n, "haar:6:500")
    r = subspace_residual(ext, grid)
    assert r >= 0.0


def test_definetti_bound_formula():
    assert definetti_bound(2, 1, 8) == 4 * 4 / 8
    assert definetti_bound(4, 2, 32) == 4 * 16 * 2 / 32


def test_symmetric_projector_consistency_with_sym_dim():
    for n, d in [(2, 4), (3, 2)]:
        p = symmetric_projector(n, d)
        assert np.isclose(p.trace().real, sym_dim(n, d))
