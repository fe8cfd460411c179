"""Finite-grid de Finetti machinery for permutation-symmetric states.

A symmetric mixed state on A ⊗ B^{⊗n} is first purified into a pure state on
(A, A') ⊗ (B, B')^{⊗n} that is symmetric under permutations of the doubled
sites.  Contracting the purification against a grid of product vectors
phi_g^{⊗n} (a finite stand-in for the coherent-state resolution of the
symmetric subspace) yields an operator-valued measure {M_g} on A together
with product states phi_g, whose mixture approximates the k-site marginals.
Every extension is stored one way, as a sum of site products: a dense state
sums its basis products, a branch extension holds one product per branch,
and the purification of a mixture of products one per pair of its site
products, so that nothing of side d^n is built.  One kernel contracts that
sum against the grid.
The measure is stored as the stacked pair (ms, phis) of arrays with one slice
per grid point, and every stage after the grid runs on whole stacks.

A grid is only its weighted points.  The coherent-state resolution it
stands in for holds at every n at once, so one grid serves every n of a
sweep, and each n is read from its extension.  Grids are finite, so every
extracted measure carries a grid residual, which `extract_measures` picks per
extension: the trace-norm gap between sum_g w_g D |phi_g^n><phi_g^n| and the
symmetric projector when site_dim**n is at most DENSE_RESIDUAL_BUDGET
(evaluated in the Dicke basis of Sym^n), and otherwise a certified subspace
surrogate evaluated on the purification itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .tensor_core import (
    TensorError,
    _psd_eigs,
    check_dense_budget,
    dense_budget_rows,
    dicke_coordinates,
    int_powers,
    kron_power,
    permute_sites,
    sym_dim,
    trace_norm,
)

SYMMETRY_TOL = 1e-8
DENSE_RESIDUAL_BUDGET = 512  # largest site_dim**n for dense residual evaluation
RESIDUAL_CHUNK = 128         # grid points per Gram block in subspace_residual
OVERLAP_CACHE_BYTES = 1 << 22  # cap on the overlap kernel's (T, chunk) buffers
GRID_GRAMMAR = "haar:SEED:COUNT"
# decimal SEED and COUNT without leading zeros, so a grid's mode is its name
_HAAR_NAME = re.compile(r"haar:(0|[1-9][0-9]*):(0|[1-9][0-9]*)")


# ---------------------------------------------------------------------------
# symmetric extensions
# ---------------------------------------------------------------------------

UNIT_MASS_TOL = 1e-8  # how far an extension's trace on A may stray from 1


@dataclass(frozen=True)
class SymmetricExtension:
    """Pure state on block ⊗ site^{⊗n}, symmetric under site permutations,
    held as a sum of site products:

        psi = sum_t coeffs[t] ⊗ sites[index[0, t]] ⊗ .. ⊗ sites[index[n-1, t]]

    `sites` (R, site_dim) holds the site vectors, `index` (n, T) names the
    site vector of each site in each term, and `coeffs` (T, block) holds the
    terms' block vectors, the block index (a, rest) with a on A first.
    A dense state takes the identity sites and one term per basis product; a
    branch extension one term per branch; the purification of a mixture of
    products one term per pair of its site products, so that nothing of side
    site_dim**n is built unless the state is dense.

    `marginal` is the state's reduced state on A (d_a x d_a).  `site_dim` is
    the (possibly doubled) site dimension the grid must match;
    `site_keep_dim` is the physical site dimension after discarding the
    purifying halves.  `dropped_mass` is the purification's measured
    residual: the summed eigenvalues of the source state that the stored
    state leaves out (0 for branches, which are exact).
    """

    n: int
    d_a: int
    site_dim: int
    site_keep_dim: int
    sites: np.ndarray = field(repr=False)
    index: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)
    marginal: np.ndarray = field(repr=False)
    dropped_mass: float = 0.0

    def __post_init__(self):
        mass = float(np.trace(self.marginal).real)
        if abs(mass - 1.0) > UNIT_MASS_TOL:
            raise TensorError(f"extension state has trace {mass} on A, need 1")


def purify_extension(omega: np.ndarray, d_a: int, n: int) -> SymmetricExtension:
    """Symmetric purification of a state omega on A ⊗ B1..Bn.

    omega is the matrix on (A, B1..Bn), A of dimension d_a (1 for none) and
    the n sites of one dimension d; a side that is not d_a·d^n is refused.
    Every omega, pure or mixed, gives vec √omega, as `purify_product_mixture`
    does: it pairs each site with its mirror copy, giving doubled sites of
    dimension d² and a block (A, A') of dimension d_a², and it is symmetric
    even where a pure omega's vector is antisymmetric, as for the singlet on
    two sites.

    The eigensolve runs in real arithmetic when omega is real (`eigh_herm`).
    The state is built only from the eigenpairs above the rank floor
    w_max · D · eps of `numpy.linalg.matrix_rank` (D = omega's side), so the
    solver's null-space noise never enters it; the eigenvalue mass left out
    is recorded as the extension's `dropped_mass`.
    """
    side = len(omega)
    d = round((side / d_a) ** (1 / n))
    if np.shape(omega) != (side, side) or d_a * d ** n != side:
        raise TensorError(f"omega of shape {np.shape(omega)} is not a square of side "
                          f"d_a·d^n for d_a = {d_a}, n = {n}")
    check_dense_budget(side, "purify_extension")

    # permutation invariance of omega on the sites (adjacent transpositions)
    t = omega.reshape(2 * ((d_a,) + (d,) * n))
    sites = [range(1, n + 1), range(n + 2, 2 * n + 2)]
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        dev = float(np.abs(permute_sites(t, perm, sites) - t).max())
        if dev > SYMMETRY_TOL:
            raise TensorError(
                f"omega is not permutation symmetric (transposition {i + 1},{i + 2}: "
                f"deviation {dev:.3e})")

    w, v = _psd_eigs(omega)
    keep = w > w[-1] * side * np.finfo(float).eps
    dropped = float(w[~keep].sum())
    v_r = v[:, keep]
    root = (v_r * np.sqrt(w[keep])) @ v_r.conj().T
    # vec √omega, each site paired with its mirror:
    # (a, b1..bn ; a', b1'..bn') -> (a a') (b1 b1') ... (bn bn')
    order = [0, n + 1] + [ax for i in range(n) for ax in (1 + i, n + 2 + i)]
    psi = root.reshape(t.shape).transpose(order).reshape(d_a * d_a, (d * d) ** n)
    return _dense_extension(psi / np.linalg.norm(psi), d_a, d * d, d, n, dropped)


def _site_products(base: int, n: int) -> np.ndarray:
    """The base**n products of n sites, as their (n, base**n) base-`base`
    digits, site 1 slowest: np.indices((base,) * n) flattened, at any n."""
    return np.arange(base ** n) // base ** np.arange(n - 1, -1, -1)[:, None] % base


def _dense_extension(psi: np.ndarray, d_a: int, site_dim: int, site_keep_dim: int,
                     n: int, dropped: float) -> SymmetricExtension:
    """The extension of the unit, site-symmetric state matrix psi
    (block, site_dim**n): identity sites, one term per basis product."""
    rows = psi.reshape(d_a, -1)       # a, then the rest of the block and the sites
    return SymmetricExtension(
        n=n, d_a=d_a, site_dim=site_dim, site_keep_dim=site_keep_dim,
        sites=np.eye(site_dim), index=_site_products(site_dim, n),
        coeffs=psi.T, marginal=rows @ rows.conj().T, dropped_mass=dropped)


def _psd_factor(m: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(F, kept, dropped): F F† is the PSD matrix m without its eigenvalues at
    or below the rank floor w_max · dim · eps; kept and dropped are the
    eigenvalue sums with and without F."""
    w, v = _psd_eigs(m)
    keep = w > w[-1] * len(w) * np.finfo(float).eps
    return v[:, keep] * np.sqrt(w[keep]), float(w[keep].sum()), float(w[~keep].sum())


def purify_product_mixture(blocks: np.ndarray, sites: np.ndarray,
                           n: int) -> SymmetricExtension:
    """purify_extension of omega = sum_j K_j ⊗ phi_j^{⊗n}, without building omega.

    blocks: (J, d_a, d_a) PSD stack of K_j; sites: (J, d, d) stack of
    unit-trace PSD phi_j.  With K_j = a_j a_j† and phi_j = b_j b_j†, the
    columns a_j ⊗ b_j^{⊗n} form a factor L, omega = L L†, of rank r far below
    omega's side D = d_a·d^n.  The r x r Gram matrix L†L = W Λ W† is built
    from the products (a_j†a_j') ⊗ (b_j†b_j')^{⊗n} and shares omega's nonzero
    spectrum, so √omega = L W Λ^{-1/2} W† L†, from the eigenpairs above
    the Gram solve's own rank floor λ_max · r · eps.  `dropped_mass` sums
    the trace that floor and those on a_j and b_j leave out.

    Every omega, pure or mixed, gives vec √omega on doubled sites, with one
    term per pair (e, e') of the E site products of the b_j: its sites are
    the pairs b_r ⊗ conj(b_s) of factor columns, and its coefficients a
    core of E² x d_a² entries, so neither √omega nor the state is built.
    """
    d_a, d = blocks.shape[1], sites.shape[1]
    factors, dropped = [], 0.0
    for k_j, phi_j in zip(blocks, sites):
        a, a_kept, a_drop = _psd_factor(k_j)
        b, b_kept, b_drop = _psd_factor(phi_j)
        # tr K tr(phi)^n − a_kept b_kept^n, without cancellation
        dropped += (a_drop * (b_kept + b_drop) ** n
                    + a_kept * b_kept ** n * np.expm1(n * np.log1p(b_drop / b_kept)))
        factors.append((a, b))
    # the r columns of L and the core's side E·d_a, refused before any is built
    for side in (sum(a.shape[1] * b.shape[1] ** n for a, b in factors),
                 sum(b.shape[1] ** n for _, b in factors) * d_a):
        check_dense_budget(side, "purify_product_mixture")
    a_cols, col_products, b_cols, index = [], [], [], []
    e0, r0 = 0, 0
    for a, b in factors:
        # L's columns a[:, α] ⊗ b[:, β_1] ⊗ .. ⊗ b[:, β_n], α slowest; the
        # site product (β_1..β_n) is column e0 + β of the product index
        count = b.shape[1] ** n
        a_cols.append(np.repeat(a, count, axis=1))
        col_products.append(e0 + np.tile(np.arange(count), a.shape[1]))
        index.append(r0 + _site_products(b.shape[1], n))
        b_cols.append(b)
        e0, r0 = e0 + count, r0 + b.shape[1]
    a_mat, products = np.concatenate(a_cols, axis=1), np.concatenate(col_products)
    b_mat, index = np.concatenate(b_cols, axis=1), np.concatenate(index, axis=1)
    r, e = len(products), index.shape[1]
    site_gram = b_mat.conj().T @ b_mat
    prod_gram = site_gram[index[0][:, None], index[0]]
    for ix in index[1:]:
        prod_gram = prod_gram * site_gram[ix[:, None], ix]
    prod_gram = prod_gram[products[:, None], products]      # (b^{⊗n})†(b'^{⊗n})
    lam, w = _psd_eigs((a_mat.conj().T @ a_mat) * prod_gram)
    keep = lam > lam[-1] * r * np.finfo(float).eps
    w_k, lam_k = w[:, keep], lam[keep]
    mass = float(lam_k.sum())
    root = (w_k * lam_k ** -0.5) @ w_k.conj().T / sqrt(mass)   # N
    # core over (product, a) pairs, regrouped to rows (e, e'), columns (a, a')
    onehot = np.eye(e)[products]                            # column c -> product
    y = (onehot[:, :, None] * a_mat.T[:, None, :]).reshape(r, e * d_a)
    core = np.empty((e, e, d_a, d_a), dtype=complex)
    core[:] = (y.T @ root @ y.conj()).reshape(e, d_a, e, d_a).transpose(0, 2, 1, 3)
    rb = b_mat.shape[1]
    return SymmetricExtension(
        n=n, d_a=d_a, site_dim=d * d, site_keep_dim=d,
        sites=np.einsum("xr,ys->rsxy", b_mat, b_mat.conj()).reshape(rb * rb, d * d),
        index=(index[:, :, None] * rb + index[:, None, :]).reshape(n, e * e),
        coeffs=core.reshape(e * e, d_a * d_a),
        marginal=a_mat @ ((w_k @ w_k.conj().T) * prod_gram.T) @ a_mat.conj().T / mass,
        dropped_mass=dropped + float(lam[~keep].sum()))


ZERO_TRACE_TOL = 1e-12  # the norm below which a preparation's vec √phi is zero


def branch_extension(blocks: np.ndarray, sites: np.ndarray, n: int) -> SymmetricExtension:
    """Structured symmetric extension of sum_j K_j ⊗ phi_j^{⊗n}.

    `blocks` (J, d_a, d_a) holds the K_j, PSD on A, and `sites` (J, d, d)
    the site states phi_j, the stacks `purify_product_mixture` takes.  Each
    pair becomes one term |j> ⊗ vec F_j ⊗ chi_j^{⊗n} in the block
    (a, j, a'), with F_j F_j† = K_j and purified site vector
    chi_j = vec(sqrt(phi_j)); the orthogonal flag j keeps the branches
    incoherent.  Requires
    sum_j tr K_j = 1 so the extension is a unit vector.  Nothing of size
    site_dim**n is ever materialized, so this scales to n in the hundreds.
    """
    count, d_a, d_site = len(blocks), blocks.shape[1], sites.shape[1]
    coeffs = np.zeros((count, d_a, count, d_a), dtype=complex)
    chis = np.empty((count, d_site * d_site), dtype=complex)
    for j, (k_j, p_j) in enumerate(zip(blocks, sites)):
        w, v = _psd_eigs(k_j)
        coeffs[j, :, j] = v * np.sqrt(w)
        w, v = _psd_eigs(p_j)
        chi = ((v * np.sqrt(w)) @ v.conj().T).reshape(-1)  # (b, b') pairing
        nrm = np.linalg.norm(chi)
        if nrm < ZERO_TRACE_TOL:
            raise TensorError("preparation state has zero trace")
        chis[j] = chi / nrm
    return SymmetricExtension(
        n=n, d_a=d_a, site_dim=d_site * d_site, site_keep_dim=d_site, sites=chis,
        index=np.broadcast_to(np.arange(count), (n, count)),
        coeffs=coeffs.reshape(count, -1), marginal=blocks.sum(axis=0))


# ---------------------------------------------------------------------------
# grids over pure site states
# ---------------------------------------------------------------------------

WEIGHT_SUM_TOL = 1e-9  # how far a grid's weights may sum from 1
UNIT_ROW_TOL = 1e-12   # how far a grid vector's norm may stray from 1


@dataclass(frozen=True)
class MeasureGrid:
    """Weighted pure-state grid on C^{d_eff}, a finite stand-in for the
    resolution of Sym^n; `mode` is the name the grid was built from.

    The same points serve every n, so a sweep draws one grid and passes it
    to every n's reduction.  What depends on the grid alone, such as its
    physical-site states, is computed on first use by `derived` and kept
    read-only, once per grid and per split of its sites.
    """

    vectors: np.ndarray = field(repr=False)  # (count, d_eff), unit rows
    weights: np.ndarray = field(repr=False)  # (count,), non-negative, sums to 1
    d_eff: int
    mode: str
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        count = len(self.vectors)
        if np.shape(self.vectors) != (count, self.d_eff):
            raise TensorError(f"grid vectors have shape {np.shape(self.vectors)}, "
                              f"need (count, d_eff) = {(count, self.d_eff)}")
        if np.shape(self.weights) != (count,):
            raise TensorError(f"grid weights have shape {np.shape(self.weights)}, "
                              f"need (count,) = {(count,)}")
        if (self.weights < 0).any():
            raise TensorError(f"grid weight {self.weights.min()} is negative")
        stray = np.abs(np.linalg.norm(self.vectors, axis=1) - 1.0)
        off = ~(stray <= UNIT_ROW_TOL)            # a NaN row is off too
        if off.any():
            g = int(off.argmax())
            raise TensorError(f"grid vector {g} is not a unit vector "
                              f"(norm off by {stray[g]:.3e})")
        if not abs(self.weights.sum() - 1.0) <= WEIGHT_SUM_TOL:
            raise TensorError(f"grid weights sum to {self.weights.sum()}, not 1")

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    def derived(self, key: tuple, compute):
        """The arrays compute() returns for `key`, computed on the first call
        with that key and kept, read-only, for every later one."""
        if key not in self._derived:
            value = compute()
            for arr in value if isinstance(value, tuple) else (value,):
                arr.flags.writeable = False
            self._derived[key] = value
        return self._derived[key]


def site_states(grid: MeasureGrid, site_keep_dim: int) -> np.ndarray:
    """The grid's physical-site states φ_g, shape (count, d, d) with d =
    site_keep_dim: each doubled site vector with its purifying half (its
    column index) traced out, normalized.  Computed once per grid and d."""
    def compute():
        g = grid.vectors.reshape(grid.count, site_keep_dim, -1)
        rho = g @ g.conj().transpose(0, 2, 1)
        return rho / np.einsum("gii->g", rho).real[:, None, None]
    return grid.derived(("site_states", site_keep_dim), compute)


def _dense_resolution_residual(vectors: np.ndarray, weights: np.ndarray,
                               n: int) -> float:
    """‖sum_g w_g D |phi_g^n><phi_g^n| − P_sym‖₁ in the Dicke basis of Sym^n.

    Every phi_g^{⊗n} lies in Sym^n, the range of P_sym, so the difference
    vanishes off Sym^n and its trace norm is that of the sym_dim x sym_dim
    matrix sum_g w_g D c_g c_g† − 1, with c_g = dicke_coordinates(phi_g).
    """
    coords = dicke_coordinates(vectors, n)
    d_big = coords.shape[1]
    t = (weights[:, None] * coords).T @ coords.conj() * d_big
    return float(trace_norm(t - np.eye(d_big)))


def parse_grid_name(d_eff: int, name: str) -> tuple[int, int]:
    """(SEED, COUNT) of the grid name `name` on C^{d_eff}, refused without
    drawing the grid.

    TensorError names the reason: a name outside GRID_GRAMMAR, or a haar grid
    of no points or over the dense budget.
    """
    match = _HAAR_NAME.fullmatch(name) if isinstance(name, str) else None
    if match is None:
        raise TensorError(f"bad grid name {name!r}; grid names are {GRID_GRAMMAR}")
    count = int(match[2])
    if count < 1:
        raise TensorError(f"a haar grid needs at least 1 point, got {count}; "
                          f"grid names are {GRID_GRAMMAR}")
    if count > dense_budget_rows(d_eff):
        raise TensorError(f"a haar grid of {count} points on C^{d_eff} is over the "
                          f"dense budget of {dense_budget_rows(d_eff)} points")
    return int(match[1]), count


def build_grid(d_eff: int, name: str) -> MeasureGrid:
    """The weighted grid of pure states on C^{d_eff} that `name`, of
    GRID_GRAMMAR, picks; the grid's mode is its name.

    `haar:SEED:COUNT`: COUNT unit vectors from the unitarily invariant
    measure (normalized complex Gaussians drawn with seed SEED), equal
    weights; a (COUNT, d_eff) stack over the dense budget is refused before
    it is drawn.  The grid does not depend on n and carries no residual:
    `extract_measures` evaluates it per extension.
    """
    seed, count = parse_grid_name(d_eff, name)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, d_eff)) + 1j * rng.standard_normal((count, d_eff))
    vectors = g / np.linalg.norm(g, axis=1, keepdims=True)
    return MeasureGrid(vectors, np.full(count, 1.0 / count), d_eff, name)


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeFinettiApprox:
    """Finite operator-valued measure with product factor states.

    The measure is the stacked pair (ms, phis), one slice per grid point g:
    ms[g] = M_g, PSD on A, shape (G, d_a, d_a); phis[g] = phi_g, a trace-1
    state on the physical site, shape (G, d, d) with d = site_keep_dim.
    M_g lives on the same side of the duality as the source state's A factor
    (for Choi states that is the transposed-POVM side).  grid_residual is the
    certified resolution defect inherited by every downstream bound;
    povm_deficit is the measured ‖sum_g M_g − omega_A‖₁.
    """

    ms: np.ndarray = field(repr=False)
    phis: np.ndarray = field(repr=False)
    grid_residual: float
    povm_deficit: float
    source_n: int
    d_a: int
    site_keep_dim: int


def _check_sweep(exts: list[SymmetricExtension], grid: MeasureGrid) -> None:
    """Refuse an extension whose sites are not the grid's C^{d_eff}: every
    extension the package builds doubles its physical sites of dimension d,
    so its grid lies on C^{d²}."""
    for ext in exts:
        if ext.site_dim != grid.d_eff:
            raise TensorError(f"grid on C^{grid.d_eff} does not match extension "
                              f"on C^{ext.site_dim}")


def _block_overlaps(ext: SymmetricExtension, grid: MeasureGrid) -> np.ndarray:
    """Matrix U with rows u_g = (1_block ⊗ <phi_g^{⊗n}|) |psi>, shape (G, block).

    u_g = Q_g coeffs with Q_g[t] = prod_i S[index[i, t], g] and S the site
    overlaps <phi_g|sites[r]>.  The grid axis is kept last, so every gather
    moves whole rows of grid points.  A run of equal consecutive index rows
    is gathered once and raised to its length by `int_powers`, so the n
    equal rows of a branch extension cost O(log n) products.  The grid is
    taken in chunks whose Q, the one factor being multiplied into it and,
    when some run length is not a power of two, the kernel's scratch slot
    stay within the dense budget and, where one chunk point fits, within
    OVERLAP_CACHE_BYTES, so that the n passes over them stay in cache; the
    buffers are allocated once and reused across runs and chunks.
    """
    vectors, index = grid.vectors, ext.index
    s = ext.sites @ vectors.conj().T                            # S, (R, G)
    starts = np.flatnonzero(np.r_[True, (index[1:] != index[:-1]).any(axis=1)])
    runs = list(zip(starts.tolist(), np.diff(np.r_[starts, len(index)]).tolist()))
    t = index.shape[1]
    coeffs = ext.coeffs.astype(complex, copy=False)  # once, not once per chunk
    out = np.empty((len(vectors), coeffs.shape[1]), dtype=complex)
    nbuf = 2 + any(length & (length - 1) for _, length in runs)   # Q, factor, scratch
    step = min(len(vectors), dense_budget_rows(nbuf * t),
               max(1, OVERLAP_CACHE_BYTES // (16 * nbuf * t)))
    buf = np.empty((nbuf, t, step), dtype=complex)
    for lo in range(0, len(vectors), step):
        hi = min(lo + step, len(vectors))
        q, term, *scratch = buf[:, :, :hi - lo]
        for k, (i, length) in enumerate(runs):
            cur = term if k else q
            # every index is in range; mode="clip" only lets take write in place
            np.take(s[:, lo:hi], index[i], axis=0, out=cur, mode="clip")
            [(_, power)] = int_powers(cur, [length], scratch)
            if k:
                q *= power
            elif power is not q:
                q[...] = power
        np.matmul(q.T, coeffs, out=out[lo:hi])
    return out


def _gram_rows(vectors: np.ndarray, lo: int, stack: np.ndarray) -> np.ndarray:
    """stack[0] filled with the Gram rows <phi_g|phi_h>, g = lo, lo + 1, ..,
    on the columns h >= lo only."""
    return np.matmul(vectors[lo:lo + stack.shape[1]].conj(), vectors[lo:].T, out=stack[0])


def subspace_residuals(exts: list[SymmetricExtension], grid: MeasureGrid,
                       overlaps: list[np.ndarray]) -> list[float]:
    """sqrt(<psi|(T−P)²|psi>) of each extension on the one grid, with T the
    grid operator at the extension's n and P the symmetric projector.

    Since |psi> and every phi_g^{⊗n} lie inside the symmetric subspace, this
    scalar upper-bounds the trace norm of any state-side defect of the grid,
    in particular ‖sum_g M_g − omega_A‖₁, at the cost of only pairwise grid
    overlaps (never the projector itself).  `overlaps[i]` is the
    (grid.count, block) matrix `_block_overlaps` returns for exts[i].

    <psi|T²|psi> = sum_gh <phi_g|phi_h>^n <b_g, b_h> is summed over Gram
    blocks of at most RESIDUAL_CHUNK rows.  The Gram matrix is Hermitian, so
    the block of rows [lo, hi) covers only the columns h >= lo: its diagonal
    block [lo, hi) x [lo, hi) is counted once, and its strictly upper part
    h >= hi counts twice, by 2·Re, for itself and its mirror image.  Each
    block is raised to every n by one `int_powers` call: a power-of-two n
    reads the running square, any other n its own accumulator.  The square
    and the accumulators share one flat buffer within the budget, viewed
    contiguously at each block's width.
    """
    _check_sweep(exts, grid)
    w, count, ns, bs, s1 = grid.weights, grid.count, [ext.n for ext in exts], [], []
    for ext, u in zip(exts, overlaps, strict=True):
        if u.shape != (count, ext.coeffs.shape[1]):
            raise TensorError(f"overlaps have shape {u.shape}, need (grid.count, block) = "
                              f"{(count, ext.coeffs.shape[1])}")
        scale = w * float(sym_dim(ext.n, grid.d_eff))
        s1.append(float(np.sum(scale * np.linalg.norm(u, axis=1) ** 2)))
        bs.append(scale[:, None] * u)
    slots = 1 + sum(1 for n in ns if n & (n - 1))          # square, accumulators
    rows = min(RESIDUAL_CHUNK, dense_budget_rows(count * slots), count)
    buf = np.empty(slots * rows * count, dtype=complex)
    s2 = [0.0] * len(ns)
    for lo in range(0, count, rows):
        hi = min(lo + rows, count)
        width = hi - lo
        stack = buf[:slots * width * (count - lo)].reshape(slots, width, count - lo)
        for i, power in int_powers(_gram_rows(grid.vectors, lo, stack), ns, stack[1:]):
            b = bs[i]
            s2[i] += (float(np.vdot(b[lo:hi], power[:, :width] @ b[lo:hi]).real)
                      + 2.0 * float(np.vdot(b[lo:hi], power[:, width:] @ b[hi:]).real))
    return [sqrt(max(0.0, 1.0 - 2.0 * a + b)) for a, b in zip(s1, s2)]


def subspace_residual(ext: SymmetricExtension, grid: MeasureGrid) -> float:
    """`subspace_residuals` of the one extension ext."""
    _check_sweep([ext], grid)
    return subspace_residuals([ext], grid, [_block_overlaps(ext, grid)])[0]


def extract_measures(exts: list[SymmetricExtension],
                     grid: MeasureGrid) -> list[DeFinettiApprox]:
    """Contract each extension against the one grid to get its de Finetti
    measure, at the extension's n.

    M_g = w_g * dim Sym^n * tr_{block minus A}[ u_g u_g† ] with
    u_g = (1 ⊗ <phi_g^{⊗n}|)|psi>, evaluated as pure vector contractions.
    The site states are the grid's own (`site_states`), computed once per
    grid, however many sweeps it serves.  Each grid residual is the dense
    `_dense_resolution_residual` when site_dim**n is at most
    DENSE_RESIDUAL_BUDGET, and otherwise certified on the state, one
    `subspace_residuals` pass serving every such n.
    """
    _check_sweep(exts, grid)
    us = [_block_overlaps(ext, grid) for ext in exts]
    todo = [i for i, ext in enumerate(exts) if grid.d_eff ** ext.n > DENSE_RESIDUAL_BUDGET]
    certified = dict(zip(todo, subspace_residuals(
        [exts[i] for i in todo], grid, [us[i] for i in todo]) if todo else []))
    phis = site_states(grid, exts[0].site_keep_dim)
    approxes = []
    for i, (ext, u) in enumerate(zip(exts, us)):
        scale = grid.weights * float(sym_dim(ext.n, ext.site_dim))
        # the block index is (a, rest) with a first; trace out the rest
        r = u.reshape(grid.count, ext.d_a, -1)
        ms = scale[:, None, None] * np.einsum("gar,gbr->gab", r, r.conj())
        total = ms.sum(axis=0)
        if i in certified:
            # both terms upper-bound every state-side defect of the grid; the
            # triangle-inequality fallback mass+1 kicks in when the quadratic
            # surrogate degenerates on heavy-tailed under-resolved grids
            residual = min(certified[i], float(np.trace(total).real) + 1.0)
        else:
            residual = _dense_resolution_residual(grid.vectors, grid.weights, ext.n)
        approxes.append(DeFinettiApprox(
            ms=ms, phis=phis, grid_residual=residual,
            povm_deficit=float(trace_norm(total - ext.marginal)), source_n=ext.n,
            d_a=ext.d_a, site_keep_dim=ext.site_keep_dim))
    return approxes


def extract_measure(ext: SymmetricExtension, grid: MeasureGrid) -> DeFinettiApprox:
    """`extract_measures` of the one extension ext."""
    return extract_measures([ext], grid)[0]


def approx_error(omega_k: np.ndarray, approx: DeFinettiApprox, k: int) -> float:
    """Δ_k = ‖omega_{A B_1..B_k} − sum_g M_g ⊗ phi_g^{⊗k}‖₁, omega_k a matrix.

    The caller compares against 4 d² k / n with d the physical site dimension
    (site_keep_dim) and n the source copy count.
    """
    if k > approx.source_n:
        raise TensorError(f"k={k} exceeds source n={approx.source_n}")
    d_a = approx.d_a
    d = approx.site_keep_dim
    dim = d_a * d ** k
    if np.shape(omega_k) != (dim, dim):
        raise TensorError(f"omega_k shape {np.shape(omega_k)} != expected {(dim, dim)}")
    acc = np.einsum("gab,gij->aibj", approx.ms, kron_power(approx.phis, k))
    return float(trace_norm(omega_k - acc.reshape(dim, dim)))


def definetti_bound(d_site: int, k: int, n: int) -> float:
    """The 4 d² k / n approximation guarantee for k marginals out of n."""
    return 4.0 * d_site ** 2 * k / n
