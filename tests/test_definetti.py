from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslocc.channels import MeasurePrepareChannel, choi_of_kraus, measure_and_prepare_choi
from nslocc.definetti import (
    DENSE_RESIDUAL_BUDGET,
    GRID_GRAMMAR,
    UNIT_ROW_TOL,
    MeasureGrid,
    _block_overlaps,
    _dense_extension,
    _dense_resolution_residual,
    approx_error,
    branch_extension,
    branch_extensions,
    build_grid,
    definetti_bound,
    extract_measure,
    extract_measures,
    parse_grid_name,
    purify_extension,
    purify_product_mixture,
    subspace_residual,
    subspace_residuals,
)
from nslocc.tensor_core import (
    TensorError,
    dense_budget_rows,
    int_powers,
    op,
    partial_trace,
    permutation_matrix,
    sym_dim,
    symmetric_projector,
    trace_norm,
)

from conftest import (
    extension_psi,
    oracle_design_grid,
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
        g = oracle_design_grid(n)
        assert _dense_resolution_residual(g.vectors, g.weights, n) <= 1e-12
        assert oracle_resolution_residual(g.vectors, g.weights, n) <= 1e-12


@pytest.mark.parametrize("n, d", [(1, 16), (2, 16), (2, 4), (3, 4)])
def test_dicke_residual_matches_the_dense_oracle(n, d):
    g = build_grid(d, f"haar:{n * d}:300")
    want = oracle_resolution_residual(g.vectors, g.weights, n)
    assert _dense_resolution_residual(g.vectors, g.weights, n) == pytest.approx(
        want, rel=1e-12)


def test_design_grid_n1_resolves_identity():
    g = oracle_design_grid(1)
    acc = np.zeros((2, 2), dtype=complex)
    for v, w in zip(g.vectors, g.weights):
        acc += 2 * w * np.outer(v, v.conj())
    assert np.allclose(acc, np.eye(2), atol=1e-13)


def test_haar_grid_residual_decreases_with_count():
    g1 = build_grid(2, "haar:0:200")
    g2 = build_grid(2, "haar:0:4000")
    assert (_dense_resolution_residual(g2.vectors, g2.weights, 2)
            < _dense_resolution_residual(g1.vectors, g1.weights, 2))


@pytest.mark.parametrize("name, d_eff", [("haar:7:30", 4), ("haar:0:1", 4)])
def test_grid_mode_is_the_name_it_was_built_from(name, d_eff):
    assert build_grid(d_eff, name).mode == name


def test_named_haar_grid_matches_build_grid_with_extra_points():
    got = build_grid(4, "haar:7:30")
    rng = np.random.default_rng(7)
    g = rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
    assert got.count == 30
    assert np.array_equal(got.vectors, g / np.linalg.norm(g, axis=1, keepdims=True))
    assert np.array_equal(got.weights, np.full(30, 1.0 / 30))


@pytest.mark.parametrize("name", ["auto", "haar", "haar:3", "haar:03:30", "haar:-1:30",
                                  "haar:3:30:x", "haar:3:+30", " design", "haarfoo",
                                  {"mode": "haar", "seed": 0, "count": 30}, "design"])
def test_grid_names_outside_the_grammar_are_refused(name):
    with pytest.raises(TensorError, match="grid names are haar:SEED:COUNT$"):
        build_grid(4, name)


def test_readme_grid_paragraph_quotes_the_grammar():
    # the paragraph on `--grid` quotes the grammar, the signature and the
    # refusal of a name outside it as the package has them
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [para] = [" ".join(p.split()) for p in readme.split("\n\n") if "takes `--grid`" in p]
    with pytest.raises(TensorError) as refusal:
        parse_grid_name(16, "design")
    assert f"grammar is `{GRID_GRAMMAR}`" in para
    assert "`build_grid(d_eff, name)`" in para
    assert f'"{refusal.value}"' in para


def test_haar_grid_without_points_is_refused():
    with pytest.raises(TensorError, match="grid names are haar:SEED:COUNT$"):
        build_grid(4, "haar:0:0")


def malformed_grid(defect):
    """The arguments of a 3-point grid on C^4 with one defect."""
    g = build_grid(4, "haar:0:3")
    vectors, weights = g.vectors.copy(), g.weights.copy()
    if defect == "vectors-shape":
        vectors = vectors[:, :3]
    elif defect == "weights-shape":
        weights = np.append(weights[:2], [0.0, 1 / 3])
    elif defect == "negative-weight":
        weights = np.array([0.75, 0.5, -0.25])
    elif defect == "nan-weight":
        weights[0] = np.nan
    elif defect == "nan-row":
        vectors[1, 0] = np.nan
    else:
        vectors[1] *= 1 + 10 * UNIT_ROW_TOL
    return vectors, weights, 4, "haar:0:3"


GRID_DEFECTS = {
    "vectors-shape": r"grid vectors have shape \(3, 3\), need \(count, d_eff\) = \(3, 4\)",
    "weights-shape": r"grid weights have shape \(4,\), need \(count,\) = \(3,\)",
    "negative-weight": "grid weight -0.25 is negative",
    "non-unit-row": "grid vector 1 is not a unit vector",
    "nan-row": r"grid vector 1 is not a unit vector \(norm off by nan\)",
    "nan-weight": "grid weights sum to nan, not 1",
}


@pytest.mark.parametrize("defect", list(GRID_DEFECTS))
def test_malformed_grid_is_refused_naming_its_defect(defect):
    with pytest.raises(TensorError, match=GRID_DEFECTS[defect]):
        MeasureGrid(*malformed_grid(defect))


@pytest.mark.parametrize("kind", ["mixed", "pure"])
@pytest.mark.parametrize("d_a", [1, 2, 3])
def test_purify_extension_reduces_back(rng, d_a, kind):
    # pure or mixed, omega purifies to vec √omega on doubled sites
    n, d = 2, 2
    if kind == "mixed":
        omega, _ = symmetric_test_state(rng, d_a, d, n)
    else:
        # two A-correlated product states in superposition: pure and symmetric
        vec = sum(np.kron(random_pure(rng, d_a), np.kron(s, s))
                  for s in (random_pure(rng, d), random_pure(rng, d)))
        vec /= np.linalg.norm(vec)
        omega = op(np.outer(vec, vec.conj()), ("A", d_a), ("B1", d), ("B2", d))
    ext = purify_extension(omega.matrix, d_a, n)
    assert ext.site_dim == d * d
    want = partial_trace(omega, ["A"]).matrix
    assert np.abs(ext.marginal - want).max() <= 1e-10


def test_purify_extension_purifies_an_antisymmetric_pure_state():
    # the singlet's omega is symmetric but its vector is antisymmetric;
    # vec √omega on doubled sites is symmetric, as for the symmetric triplet
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    for vec in (singlet, np.abs(singlet)):
        omega = np.outer(vec, vec)
        ext = purify_extension(omega, 1, 2)
        assert ext.site_dim == 4
        assert np.abs(unprimed_state(ext) - omega).max() <= 1e-12
        psi = extension_psi(ext).reshape(-1, 4, 4)
        assert np.abs(psi - psi.transpose(0, 2, 1)).max() <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31 - 1), st.lists(st.booleans(), min_size=1, max_size=3))
def test_purify_extension_reduces_back_with_antisymmetric_parts(seed, antisymmetric):
    # omega = sum_k p_k |psi_k><psi_k| with each psi_k symmetric or
    # antisymmetric under the swap of two qubits, so omega is symmetric
    rng = np.random.default_rng(seed)
    swap = permutation_matrix([1, 0], 2)
    vecs = [random_pure(rng, 4) for _ in antisymmetric]
    vecs = [v - swap @ v if anti else v + swap @ v for v, anti in zip(vecs, antisymmetric)]
    p = rng.dirichlet(np.ones(len(vecs)))
    omega = sum(pk * np.outer(v, v.conj()) / np.vdot(v, v).real for pk, v in zip(p, vecs))
    ext = purify_extension(omega, 1, 2)
    assert np.abs(unprimed_state(ext) - omega).max() <= 1e-10
    # and the extension itself is symmetric under the swap of its sites
    psi = extension_psi(ext).reshape(-1, ext.site_dim, ext.site_dim)
    assert np.abs(psi - psi.transpose(0, 2, 1)).max() <= 1e-10


def risk_gap_channel(n):
    """The symmetrized channel whose Choi state risk-gap purifies."""
    from nslocc.channels import symmetrize_channel
    from nslocc.cli import _classification_family
    _, _, povm, preps = _classification_family(0.6)
    return symmetrize_channel(measure_and_prepare_choi(povm, preps, n))


@pytest.mark.parametrize("n", [2, 3])
def test_real_purification_matches_complex_solve_above_the_floor(n):
    q = risk_gap_channel(n)
    omega = q.omega.matrix
    assert not omega.imag.any()
    ext = purify_extension(omega, q.d_a, n)
    assert ext.coeffs.dtype == np.float64   # the real solve ran
    want = oracle_purify_extension(omega, q.d_a, n, floor=True)
    assert np.abs(extension_psi(ext) - extension_psi(want)).max() <= 1e-12
    assert np.abs(ext.marginal - partial_trace(q.omega, ["A"]).matrix).max() <= 1e-12
    assert 0.0 <= ext.dropped_mass <= 1e-13


def test_complex_symmetric_state_takes_the_complex_solve(rng):
    omega, _ = symmetric_test_state(rng, 2, 2, 2)
    assert np.abs(omega.matrix.imag).max() > 1e-3
    ext = purify_extension(omega.matrix, 2, 2)
    assert np.iscomplexobj(ext.coeffs)
    assert np.abs(unprimed_state(ext) - omega.matrix).max() <= 1e-12


def test_purification_keeps_a_small_eigenvalue_above_the_floor(rng):
    # (1 − ε)|00><00| + ε|11><11| in a rotated product basis, ε = 1e-9
    eps = 1e-9
    o, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    rot = np.kron(o, o)
    omega = rot @ np.diag([1 - eps, 0.0, 0.0, eps]) @ rot.T
    ext = purify_extension(omega, 1, 2)
    assert ext.site_dim != ext.site_keep_dim and ext.dropped_mass <= 1e-15
    back = rot.T @ unprimed_state(ext) @ rot
    assert abs(back[3, 3] - eps) <= 1e-15
    assert np.abs(unprimed_state(ext) - omega).max() <= 1e-15


@pytest.mark.parametrize("n", [2, 3])
def test_risk_gap_matches_full_spectrum_complex_purification(monkeypatch, n):
    from nslocc import locc
    from nslocc.cli import _classification_family
    from nslocc.risk import classification_task, risk_gap_experiment
    rho0, rho1, povm, preps = _classification_family(0.6)
    q = measure_and_prepare_choi(povm, preps, n)
    task = classification_task([0.5, 0.5], [rho0, rho1], n=n)
    got = risk_gap_experiment(task, q, build_grid(16, "haar:0:200"))
    monkeypatch.setattr(locc, "purify_extension", oracle_purify_extension)
    want = risk_gap_experiment(task, q, build_grid(16, "haar:0:200"))
    for key in ("risk_collective", "risk_locc", "gap", "grid_residual"):
        assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-8), key


def test_purify_extension_names_the_broken_transposition(rng):
    # symmetric under swapping sites 1 and 2, not under swapping 2 and 3
    sigma, tau = random_density(rng, 2), random_density(rng, 2)
    omega = np.kron(np.kron(random_density(rng, 2), np.kron(sigma, sigma)), tau)
    with pytest.raises(TensorError, match=r"transposition 2,3"):
        purify_extension(omega, 2, 3)


@pytest.mark.parametrize("shape, d_a, n", [((12, 12), 2, 2), ((6, 6), 1, 2), ((8, 8), 3, 1),
                                            ((4, 8), 1, 2)],
                         ids=["side-12-at-2-2", "side-6-at-1-2", "side-8-at-3-1", "not-square"])
def test_purify_extension_refuses_a_side_that_is_not_d_a_times_a_power(shape, d_a, n):
    with pytest.raises(TensorError, match=r"not a square of side d_a·d\^n"):
        purify_extension(np.eye(*shape) / shape[0], d_a, n)


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
    ext_d = purify_extension(q.dense().omega.matrix, q.d_a, n)

    grid = build_grid(ext_b.site_dim, "haar:2:300")
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
    pure = np.outer(vec, vec.conj())
    parts = [(random_density(rng, d_a) * w, random_density(rng, 2)) for w in (0.3, 0.7)]
    exts = [branch_extension(np.stack([k for k, _ in parts]),
                             np.stack([p for _, p in parts]), n=5),
            purify_extension(mixed.matrix, d_a, n),
            purify_extension(pure, d_a, n)]
    for ext in exts:
        grid = build_grid(ext.site_dim, "haar:7:150")
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
    points = np.vstack([build_grid(4, "haar:5:200").vectors, chis])
    grid = MeasureGrid(points, np.full(len(points), 1.0 / len(points)), 4, "haar:5:200")
    ms = extract_measure(branch_extension(ks, phis, n), grid).ms
    amp = np.abs(grid.vectors.conj() @ chis.T) ** (2 * n)
    want = np.einsum("g,gj,jab->gab", grid.weights * sym_dim(n, 4), amp, ks)
    assert np.abs(ms - want).max() <= 1e-12 * np.abs(want).max()


def branch_stacks(rng, count):
    """J = count branches: blocks K_j of total trace 1 on a qubit A, qubit sites."""
    weights = rng.dirichlet(np.ones(count))
    return (np.stack([random_density(rng, 2) * w for w in weights]),
            np.stack([random_density(rng, 2) for _ in range(count)]))


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("ns", [[1, 3, 16], [64, 256], [5]])
def test_branch_extensions_are_the_per_n_branch_extensions(rng, count, ns):
    from dataclasses import fields
    blocks, sites = branch_stacks(rng, count)
    sweep = branch_extensions(blocks, sites, ns)
    assert [ext.n for ext in sweep] == ns
    for n, got in zip(ns, sweep):
        want = branch_extension(blocks, sites, n)
        for f in fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), (n, f.name)
            else:
                assert a == b, (n, f.name)
        assert got.index.shape == (n, count)


def test_branch_extensions_share_one_read_only_set_of_arrays(rng):
    blocks, sites = branch_stacks(rng, 2)
    first, *rest = branch_extensions(blocks, sites, [1, 3, 16, 64])
    for name in ("sites", "coeffs", "marginal", "index"):
        assert not getattr(first, name).flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            getattr(first, name)[...] = 0
    for ext in rest:
        assert ext.sites is first.sites
        assert ext.coeffs is first.coeffs
        assert ext.marginal is first.marginal


def test_branch_extensions_eigensolve_each_branch_once(rng, monkeypatch):
    from nslocc import definetti
    calls, eigs = [], definetti._psd_eigs

    def counting(m):
        calls.append(m.shape)
        return eigs(m)

    blocks, sites = branch_stacks(rng, 2)
    monkeypatch.setattr(definetti, "_psd_eigs", counting)
    branch_extensions(blocks, sites, [1, 3, 16, 64, 256])
    assert len(calls) == 2 * 2          # one K_j and one phi_j per branch, not per n


@pytest.mark.parametrize("ns", [[1, 3, 16], [64, 256]])
def test_extraction_is_bitwise_the_same_from_either_construction(rng, ns):
    blocks, sites = branch_stacks(rng, 2)
    grid = build_grid(4, "haar:4:60")
    shared = extract_measures(branch_extensions(blocks, sites, ns), grid)
    single = extract_measures([branch_extension(blocks, sites, n) for n in ns], grid)
    for got, want in zip(shared, single, strict=True):
        assert np.array_equal(got.ms, want.ms) and np.array_equal(got.phis, want.phis)
        assert got.grid_residual == want.grid_residual
        assert got.povm_deficit == want.povm_deficit


def test_grid_over_the_dense_residual_budget_is_refused_before_the_overlaps(monkeypatch):
    # a budget of 64 complex entries holds 3 rows of the 20 Dicke coordinates
    # of Sym^3 on C^4; n = 6 is certified, so its coordinates are never built
    from nslocc import definetti, tensor_core
    monkeypatch.setattr(tensor_core, "DENSE_BYTES_BUDGET", 16 * 64)
    exts = branch_extensions(np.eye(1)[None], np.diag([1.0, 0.0])[None], [3, 6])
    extract_measures(exts, build_grid(4, "haar:0:3"))
    extract_measures(exts[1:], build_grid(4, "haar:0:4"))

    def unreachable(*args):
        raise AssertionError("overlaps computed for a refused grid")

    monkeypatch.setattr(definetti, "_block_overlaps", unreachable)
    with pytest.raises(TensorError, match=r"^the dense grid residual at n = 3 needs a dense "
                                          r"4 x 20 array \(0 MiB\), over the 0 MiB budget$"):
        extract_measures(exts, build_grid(4, "haar:0:4"))


def test_extraction_in_several_grid_chunks_matches_per_point_loop(rng, monkeypatch):
    from nslocc import definetti, tensor_core
    n, d_a = 3, 2
    mixed, _ = symmetric_test_state(rng, d_a, 2, n)
    blocks = np.stack([random_density(rng, d_a) * w for w in (0.3, 0.7)])
    sites = np.stack([random_density(rng, 2) for _ in range(2)])
    exts = [purify_extension(mixed.matrix, d_a, n),      # dense
            branch_extension(blocks, sites, n),          # branches
            purify_product_mixture(blocks, sites, n)]    # product mixture
    for ext in exts:
        grid = build_grid(ext.site_dim, "haar:9:50")
        # a budget that holds 7 grid points of the two (T, chunk) buffers; the
        # 50 x 20 Dicke coordinates of the dense residual would be refused at
        # it, so the residual is certified, in Gram blocks within the budget
        terms = ext.index.shape[1]
        monkeypatch.setattr(tensor_core, "DENSE_BYTES_BUDGET", 16 * 2 * terms * 7)
        monkeypatch.setattr(definetti, "DENSE_RESIDUAL_BUDGET", 0)
        assert dense_budget_rows(2 * terms) == 7
        approx = extract_measure(ext, grid)
        monkeypatch.undo()
        ms, phis = per_point_measure(ext, grid)
        assert np.abs(approx.ms - ms).max() <= 1e-12
        assert np.abs(approx.phis - phis).max() <= 1e-12


def ones_accumulator_power(x, n):
    """Reference binary exponentiation into a ones accumulator, x untouched."""
    base, out = x.copy(), np.ones_like(x)
    while n:
        if n & 1:
            out *= base
        n >>= 1
        if n:
            base *= base
    return out


def kernel_power(x, n):
    """x**n by int_powers, with one scratch slot."""
    [(_, power)] = int_powers(x, [n], np.empty((1,) + x.shape, dtype=x.dtype))
    return power


def test_int_power_matches_numpy_power(rng):
    z = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    z /= np.abs(z).max()
    # moduli 0.06 and 0.01 reach subnormal and zero at n=256
    z[0, :3] = [0.06, 0.01j, 0.06 * np.exp(0.3j)]
    for n in (1, 2, 3, 16, 64, 255, 256):
        want = np.power(z, n)
        assert np.allclose(kernel_power(z.copy(), n), want, rtol=1e-12, atol=1e-300), n
    assert np.all(np.abs(kernel_power(z.copy(), 256)[0, :3]) < np.finfo(float).tiny)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 12, 16, 255, 256])
def test_int_power_raises_its_argument_in_place(rng, n):
    z = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    z[0, 0] = 0.0
    want = ones_accumulator_power(z, n)
    x, scratch = z.copy(), np.empty((1, 6, 9), dtype=complex)
    [(i, power)] = int_powers(x, [n], scratch)
    # a power of two is x squared in place; any other n is its scratch slot
    assert i == 0 and (power is x) == (n & (n - 1) == 0)
    assert power is x or np.shares_memory(power, scratch)
    # the same products in the same order: bitwise the reference
    assert np.array_equal(power, want)
    # a strided view is squared inside the array it views
    y = z.copy()
    power = kernel_power(y[:, 1::2], n)
    assert np.array_equal(power, want[:, 1::2])
    assert np.array_equal(y[:, ::2], z[:, ::2])


def test_int_powers_serves_every_n_from_one_series_of_squarings(rng):
    z = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    z /= np.abs(z).max()
    ns = [3, 5, 8, 12, 256]
    scratch = np.empty((3, 6, 9), dtype=complex)    # one slot per n in 3, 5, 12
    got = []
    for i, power in int_powers(z.copy(), ns, scratch):
        # a power of two is overwritten by the next squaring: copy it now
        got.append((i, power.copy()))
    # each power is handed back at its top bit, in the order of ns within a bit
    assert [i for i, _ in got] == [0, 1, 2, 3, 4]
    for i, power in got:
        assert np.array_equal(power, ones_accumulator_power(z, ns[i])), ns[i]
    with pytest.raises(TensorError, match=r"scratch has 2 slots"):
        list(int_powers(z.copy(), ns, scratch[:2]))
    for bad in ([0], [3, -1]):
        with pytest.raises(TensorError, match=r"at least 1"):
            list(int_powers(z.copy(), bad, scratch))


def test_approx_error_k2_matches_kron_loop(rng):
    n, d_a = 3, 2
    omega, _ = symmetric_test_state(rng, d_a, 2, n)
    ext = purify_extension(omega.matrix, d_a, n)
    approx = extract_measure(ext, build_grid(ext.site_dim, "haar:8:200"))
    omega_2 = partial_trace(omega, ["A", "B1", "B2"]).matrix
    acc = sum(np.kron(np.kron(m, p), p) for m, p in zip(approx.ms, approx.phis))
    assert abs(approx_error(omega_2, approx, 2)
               - trace_norm(omega_2 - acc)) <= 1e-12


def test_extract_measure_k1_error_within_grid_budget(rng):
    n, d_a, d = 4, 2, 2
    omega, _ = symmetric_test_state(rng, d_a, d, n)
    ext = purify_extension(omega.matrix, d_a, n)
    grid = build_grid(ext.site_dim, "haar:1:2500")
    approx = extract_measure(ext, grid)
    omega_1 = partial_trace(omega, ["A", "B1"]).matrix
    err = approx_error(omega_1, approx, 1)
    assert err <= definetti_bound(d, 1, n) + approx.grid_residual + 1e-8


def test_approx_error_monotone_in_k(rng):
    n, d_a, d = 4, 2, 2
    omega, _ = symmetric_test_state(rng, d_a, d, n)
    ext = purify_extension(omega.matrix, d_a, n)
    grid = build_grid(ext.site_dim, "haar:3:2000")
    approx = extract_measure(ext, grid)
    errs = [approx_error(partial_trace(
        omega, ["A"] + [f"B{i}" for i in range(1, k + 1)]).matrix, approx, k)
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
    grid = build_grid(ext.site_dim, "haar:4:1500")
    approx = extract_measure(ext, grid)
    assert approx.povm_deficit <= approx.grid_residual + 1e-8


def test_subspace_residual_nonnegative(rng):
    n = 3
    omega, _ = symmetric_test_state(rng, 2, 2, n)
    ext = purify_extension(omega.matrix, 2, n)
    grid = build_grid(ext.site_dim, "haar:6:500")
    r = subspace_residual(ext, grid)
    assert r >= 0.0


def dense_subspace_residual(ext, grid):
    """Reference sqrt(<psi|(T−P)²|psi>) on the full site_dim**n space: psi
    from extension_psi, T = sum_g w_g D |phi_g^n><phi_g^n| from the n-fold
    products of the grid vectors, P the symmetric projector."""
    n, d = ext.n, ext.site_dim
    stack = grid.vectors
    for _ in range(n - 1):
        stack = np.einsum("gi,gj->gij", stack, grid.vectors).reshape(grid.count, -1)
    t = (grid.weights[:, None] * stack).T @ stack.conj() * sym_dim(n, d)
    defect = t - symmetric_projector(n, d)
    # psi's rows are block entries, its columns the sites: (1 ⊗ A) psi = psi A^T
    return float(np.linalg.norm(extension_psi(ext) @ defect.T))


def residual_extensions(rng, n):
    mixed, _ = symmetric_test_state(rng, 2, 2, n)
    blocks = np.stack([random_density(rng, 2) * w for w in (0.3, 0.7)])
    sites = np.stack([random_density(rng, 2) for _ in range(2)])
    return {"dense": purify_extension(mixed.matrix, 2, n),
            "branches": branch_extension(blocks, sites, n),
            "product mixture": purify_product_mixture(blocks, sites, n)}


@pytest.mark.parametrize("n", [2, 3])
def test_subspace_residual_matches_the_dense_oracle(rng, n):
    for kind, ext in residual_extensions(rng, n).items():
        grid = build_grid(ext.site_dim, "haar:11:120")
        got = subspace_residual(ext, grid)
        assert abs(got - dense_subspace_residual(ext, grid)) <= 1e-10, kind
        assert got > 1e-3, kind    # a 120-point grid leaves a visible defect


def test_subspace_residual_is_the_same_in_partial_gram_blocks(rng, monkeypatch):
    from nslocc import definetti
    for kind, ext in residual_extensions(rng, 3).items():
        grid = build_grid(ext.site_dim, "haar:12:50")
        whole = subspace_residual(ext, grid)
        # blocks of 7, 7, .., 7, 1 rows: the reused buffer's last block is partial
        monkeypatch.setattr(definetti, "RESIDUAL_CHUNK", 7)
        blocked = subspace_residual(ext, grid)
        monkeypatch.undo()
        assert abs(blocked - whole) <= 1e-12, kind


def test_grid_serves_every_n_and_refuses_other_sites():
    # a grid has no n: the n = 16 extension extracts the same alone as in a
    # sweep with n = 64 on the one grid
    ext, ext64 = (branch_extension(np.eye(1)[None], np.diag([1.0, 0.0])[None], n=n)
                 for n in (16, 64))
    grid = build_grid(4, "haar:0:50")
    assert subspace_residual(ext, grid) == subspace_residuals(
        [ext, ext64], grid, [_block_overlaps(e, grid) for e in (ext, ext64)])[0]
    got, want = extract_measures([ext, ext64], grid)[0], extract_measure(ext, grid)
    assert np.array_equal(got.ms, want.ms) and np.array_equal(got.phis, want.phis)
    assert got.grid_residual == want.grid_residual
    qubits = build_grid(2, "haar:0:50")
    with pytest.raises(TensorError, match=r"grid on C\^2 .*does not match extension"):
        subspace_residual(ext, qubits)
    with pytest.raises(TensorError, match="does not match extension"):
        extract_measure(ext, qubits)


def test_subspace_residual_refuses_overlaps_of_another_shape(rng):
    ext = residual_extensions(rng, 2)["branches"]
    grid = build_grid(ext.site_dim, "haar:1:40")
    full = np.zeros((40, ext.coeffs.shape[1]), dtype=complex)
    for bad in (full[:-1], full[:, :-1], full.ravel()):
        with pytest.raises(TensorError, match=r"overlaps have shape"):
            subspace_residuals([ext], grid, [bad])


@pytest.mark.parametrize("n, blocks", [(256, 1.1), (3, 2.1)])
def test_subspace_residual_peak_is_one_gram_block(n, blocks):
    # one RESIDUAL_CHUNK x 400 complex Gram block (the first, widest
    # triangle block), plus one accumulator when n is not a power of two
    import tracemalloc
    ext = branch_extension(np.eye(1)[None], np.diag([1.0, 0.0])[None], n=n)
    grid = build_grid(4, "haar:3:400")
    u = _block_overlaps(ext, grid)
    tracemalloc.start()
    try:
        subspace_residuals([ext], grid, [u])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= blocks * 128 * 400 * 16


def test_block_overlaps_peak_is_two_term_buffers():
    # the risk-gap n = 3 extension has runs of length 1 only, so the kernel's
    # scratch buffer is not allocated: Q and one factor, (T, G) each, plus
    # S and the output, which each chunk's product is written straight into
    import tracemalloc
    from nslocc.channels import symmetrize_channel
    from nslocc.cli import _classification_family
    from nslocc.locc import purify_channel
    _, _, povm, preps = _classification_family(0.6)
    ext = purify_channel(symmetrize_channel(MeasurePrepareChannel.of(povm, preps, 3)))
    grid = build_grid(ext.site_dim, "haar:0:200")
    t, g = ext.index.shape[1], grid.count
    r, block = ext.sites.shape[0], ext.coeffs.shape[1]
    assert ext.coeffs.dtype == complex     # no complex copy of coeffs is taken
    tracemalloc.start()
    try:
        _block_overlaps(ext, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * (2 * t * g + r * g + g * block) + 16 * 1024


def test_purify_product_mixture_refuses_before_it_builds():
    # the risk-gap channel at n = 18 has r = 2·2·2^18 factor columns: the
    # refusal is computed from the factors' column counts, before the index
    # arrays, the repeated factor columns or the product tiles are built
    import tracemalloc
    from nslocc.cli import _classification_family
    _, _, povm, preps = _classification_family(0.6)
    q = MeasurePrepareChannel.of(povm, preps, 18)
    tracemalloc.start()
    try:
        with pytest.raises(TensorError, match="purify_product_mixture"):
            purify_product_mixture(q.povm.transpose(0, 2, 1) / q.d_a, q.chois, q.n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def sweep_extensions(rng, ns):
    blocks = np.stack([random_density(rng, 2) * w for w in (0.4, 0.6)])
    sites = np.stack([random_density(rng, 2) for _ in range(2)])
    return [branch_extension(blocks, sites, n) for n in ns]


def int_power_residual(ext, grid):
    """subspace_residual's sum in one Gram block, raised by the reference
    ones_accumulator_power."""
    u = _block_overlaps(ext, grid)
    scale = grid.weights * float(sym_dim(ext.n, ext.site_dim))
    s1 = float(np.sum(scale * np.linalg.norm(u, axis=1) ** 2))
    b = scale[:, None] * u
    gram = ones_accumulator_power(grid.vectors.conj() @ grid.vectors.T, ext.n)
    return np.sqrt(max(0.0, 1.0 - 2.0 * s1 + float(np.vdot(b, gram @ b).real)))


@pytest.mark.parametrize("chunk", [None, 7])
def test_sweep_extraction_is_bitwise_the_per_n_extraction(rng, monkeypatch, chunk):
    # n = 3, 4 carry a dense residual; 5, 12 take accumulators; 8, 16, 256
    # read the running square
    from nslocc import definetti
    if chunk is not None:
        monkeypatch.setattr(definetti, "RESIDUAL_CHUNK", chunk)
    ns = [3, 4, 5, 8, 12, 16, 256]
    exts = sweep_extensions(rng, ns)
    grid = build_grid(4, "haar:9:50")
    sweep = extract_measures(exts, grid)
    certified = [ext for ext in exts if 4 ** ext.n > DENSE_RESIDUAL_BUDGET]
    for ext, got in zip(exts, sweep):
        want = extract_measure(ext, grid)
        assert np.array_equal(got.ms, want.ms) and np.array_equal(got.phis, want.phis)
        assert got.povm_deficit == want.povm_deficit
        assert got.grid_residual == want.grid_residual
        if 4 ** ext.n > DENSE_RESIDUAL_BUDGET and chunk is None:
            mass = float(np.trace(got.ms.sum(axis=0)).real)
            assert got.grid_residual == min(int_power_residual(ext, grid), mass + 1.0)
    assert subspace_residuals(certified, grid,
                              [_block_overlaps(ext, grid) for ext in certified]) == [
        subspace_residual(ext, grid) for ext in certified]


@pytest.mark.parametrize("chunk", [7, 128])
@pytest.mark.parametrize("n", [3, 5, 16])
def test_triangle_gram_blocks_match_the_full_gram_matrix(rng, monkeypatch, chunk, n):
    # 300 points split into several triangle blocks at either chunk, the last
    # one partial; the reference squares the whole 300 x 300 Gram matrix.
    # Only the branch storage reaches n = 16: the other two hold 4^n products
    from nslocc import definetti
    monkeypatch.setattr(definetti, "RESIDUAL_CHUNK", chunk)
    exts = residual_extensions(rng, n) if n <= 5 else {
        "branches": sweep_extensions(rng, [n])[0]}
    for kind, ext in exts.items():
        grid = build_grid(ext.site_dim, "haar:13:300")
        assert ext.coeffs.shape[1] > 1, kind
        got = subspace_residual(ext, grid)
        assert abs(got - int_power_residual(ext, grid)) <= 1e-12, (kind, ext.n)
        assert got > 1e-3, (kind, ext.n)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31 - 1), st.integers(8, 60), st.sampled_from([2, 3, 5, 16]),
       st.sampled_from([7, 13, 128]))
def test_permuting_the_grid_permutes_the_measure(seed, count, n, chunk):
    # only the summation order changes: the measure's rows follow the points,
    # and the residuals and the POVM deficit stay put.  n = 2, 3 take the
    # dense residual, n = 5, 16 the certified one, in triangle blocks of
    # `chunk` rows, so the points move between diagonal and upper blocks
    from nslocc import definetti
    rng = np.random.default_rng(seed)
    [ext] = sweep_extensions(rng, [n])
    grid = build_grid(ext.site_dim, f"haar:{seed}:{count}")
    perm = rng.permutation(count)
    moved = MeasureGrid(grid.vectors[perm], grid.weights[perm], grid.d_eff, grid.mode)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(definetti, "RESIDUAL_CHUNK", chunk)
        want, got = extract_measure(ext, grid), extract_measure(ext, moved)
        residuals = [subspace_residual(ext, g) for g in (grid, moved)]
    assert np.abs(got.ms - want.ms[perm]).max() <= 1e-12
    assert np.abs(got.phis - want.phis[perm]).max() <= 1e-12
    assert abs(got.grid_residual - want.grid_residual) <= 1e-12
    assert abs(got.povm_deficit - want.povm_deficit) <= 1e-12
    assert abs(residuals[1] - residuals[0]) <= 1e-12


def test_design_grid_extracts_every_smaller_n_exactly(rng):
    # the design built for N = 6 integrates phi^{⊗n} exactly for every n <= 6
    grid = oracle_design_grid(6)
    psi, chi = random_pure(rng, 2), random_pure(rng, 2)
    exts = []
    for n in range(1, 7):
        vec = (np.kron([1.0, 0.0], reduce(np.kron, [psi] * n))
               + np.kron([0.0, 1.0], reduce(np.kron, [chi] * n)))
        vec /= np.linalg.norm(vec)
        # the pure state on its own qubit sites, which no purification keeps
        exts.append(_dense_extension(vec.reshape(2, -1), 2, 2, 2, n, 0.0))
    for ext, ap in zip(exts, extract_measures(exts, grid)):
        assert ap.grid_residual <= 1e-12, ext.n
        assert ap.povm_deficit <= 1e-12, ext.n


def test_subspace_residuals_sweep_peak_is_one_gram_block():
    # powers of two share the running square: no accumulator is allocated,
    # and the buffer is one RESIDUAL_CHUNK x 400 triangle block
    import tracemalloc
    ns = [16, 64, 256]
    exts = [branch_extension(np.eye(1)[None], np.diag([1.0, 0.0])[None], n=n)
            for n in ns]
    grid = build_grid(4, "haar:3:400")
    us = [_block_overlaps(ext, grid) for ext in exts]
    tracemalloc.start()
    try:
        subspace_residuals(exts, grid, us)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 128 * 400 * 16


def test_definetti_bound_formula():
    assert definetti_bound(2, 1, 8) == 4 * 4 / 8
    assert definetti_bound(4, 2, 32) == 4 * 16 * 2 / 32


def test_symmetric_projector_consistency_with_sym_dim():
    for n, d in [(2, 4), (3, 2)]:
        p = symmetric_projector(n, d)
        assert np.isclose(np.trace(p).real, sym_dim(n, d))
