"""Classical non-signalling learning protocols and their classifier form.

A protocol is a conditional pmf P(y_1..y_n | a, x_1..x_n) stored as a dense
table with axis order (a, x_1..x_n, y_1..y_n).  The central result made
executable here: every non-signalling protocol can be replaced, per training
realization a, by a mixture of deterministic classifying functions X -> Y
with exactly the same expected risk.  The pipeline (symmetrize, take the
single-round marginal, decompose it into a product measure over functions,
rebuild an i.i.d. protocol) preserves the risk identically, not just
approximately.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .tensor_core import SYMMETRIZE_MAX_N, symmetrize_sites

NS_TOL = 1e-10
MAX_FUNCTIONS = 10 ** 6
SAMPLER_MAX_ITER = 3000  # sweeps random_nonsignalling_protocol may take
SAMPLER_TOL = 1e-12      # the largest entry move of a converged sweep


class ClassicalError(ValueError):
    pass


@dataclass(frozen=True)
class ClassicalProtocol:
    """Conditional pmf table P(y_{1:n} | a, x_{1:n})."""

    table: np.ndarray = field(repr=False)  # (na, nx^n..., ny^n...)
    na: int
    nx: int
    ny: int
    n: int

    def __post_init__(self):
        want = (self.na,) + (self.nx,) * self.n + (self.ny,) * self.n
        t = np.asarray(self.table, dtype=float)
        if t.shape != want:
            raise ClassicalError(f"table shape {t.shape} != {want}")
        if t.min() < -1e-12:
            raise ClassicalError(f"negative probability {t.min()}")
        sums = t.reshape(self.na, self.nx ** self.n, self.ny ** self.n).sum(axis=2)
        if np.abs(sums - 1.0).max() > 1e-9:
            raise ClassicalError("conditional slices do not sum to 1")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    @property
    def y_axes(self) -> tuple[int, ...]:
        return tuple(range(1 + self.n, 1 + 2 * self.n))

    @property
    def x_axes(self) -> tuple[int, ...]:
        return tuple(range(1, 1 + self.n))


@dataclass(frozen=True)
class ClassifierMixture:
    """Convex mixture of deterministic maps X -> Y."""

    functions: tuple[tuple[int, ...], ...]  # f as a tuple (f(0), .., f(nx-1))
    weights: np.ndarray
    nx: int
    ny: int

    def __post_init__(self):
        w = np.asarray(self.weights, float)
        if abs(w.sum() - 1.0) > 1e-12:
            raise ClassicalError(f"mixture weights sum to {w.sum()}")
        if w.min() < -1e-12:
            raise ClassicalError("negative mixture weight")
        object.__setattr__(self, "weights", w)


# ---------------------------------------------------------------------------
# predicates and marginals
# ---------------------------------------------------------------------------

def round_marginal(p: ClassicalProtocol, i: int) -> np.ndarray:
    """P_i(y_i | a, x_{1:n}): marginal pmf of round i's output, all contexts."""
    axes = tuple(ax for ax in p.y_axes if ax != p.y_axes[i])
    return p.table.sum(axis=axes)


@dataclass(frozen=True)
class ClassicalNSReport:
    per_round_deviation: tuple[float, ...]

    @property
    def max_deviation(self) -> float:
        return max(self.per_round_deviation)

    @property
    def ok(self) -> bool:
        return self.max_deviation <= NS_TOL


def is_nonsignalling_classical(p: ClassicalProtocol) -> ClassicalNSReport:
    """Check that round i's output marginal ignores the other rounds' inputs."""
    devs = []
    for i in range(p.n):
        m = round_marginal(p, i)  # axes (a, x_1..x_n, y_i)
        # move x_i next to a, flatten the other contexts, compare across them
        m = np.moveaxis(m, 1 + i, 1)
        flat = m.reshape(p.na, p.nx, -1, p.ny)
        devs.append(float((flat.max(axis=2) - flat.min(axis=2)).max()))
    return ClassicalNSReport(tuple(devs))


def symmetrize_classical(p: ClassicalProtocol) -> ClassicalProtocol:
    """Average over simultaneous permutations of the round coordinates."""
    if p.n > SYMMETRIZE_MAX_N:
        raise ClassicalError(f"dense symmetrization supports n <= {SYMMETRIZE_MAX_N}")
    avg = symmetrize_sites(p.table, [p.x_axes, p.y_axes])
    return ClassicalProtocol(avg, p.na, p.nx, p.ny, p.n)


def single_round_map(p: ClassicalProtocol, a: int) -> np.ndarray:
    """q(y|x) of round 1 for training value a; requires non-signalling input.

    For a non-signalling protocol the round-1 output marginal is context
    independent, so any context gives the same stochastic map; the marginal
    is averaged over contexts to spread residual numerical noise.
    """
    m = round_marginal(p, 0)  # (a, x_1..x_n, y_1)
    flat = m[a].reshape(p.nx, -1, p.ny)
    return flat.mean(axis=1).T  # (ny, nx)


# ---------------------------------------------------------------------------
# classifier mixtures
# ---------------------------------------------------------------------------

def decompose_classifier_mixture(q: np.ndarray) -> ClassifierMixture:
    """Exact product-measure decomposition of a stochastic map.

    q is (ny, nx) with columns summing to 1.  The weight of the deterministic
    map f is mu(f) = prod_x q(f(x)|x); summing delta_{y,f(x)} against mu
    reproduces q exactly because the product measure factorizes per column.
    """
    q = np.asarray(q, float)
    ny, nx = q.shape
    if np.abs(q.sum(axis=0) - 1.0).max() > 1e-9:
        raise ClassicalError("map is not column-stochastic")
    if ny ** nx > MAX_FUNCTIONS:
        raise ClassicalError(f"{ny}^{nx} functions exceed the enumeration cap")
    functions, weights = [], []
    for f in itertools.product(range(ny), repeat=nx):
        functions.append(f)
        weights.append(float(np.prod([q[f[x], x] for x in range(nx)])))
    return ClassifierMixture(tuple(functions), np.asarray(weights), nx, ny)


def reconstruct_protocol(mix_per_a: list[ClassifierMixture],
                         n: int) -> ClassicalProtocol:
    """i.i.d. protocol from per-a classifier mixtures.

    P(y_{1:n}|a, x_{1:n}) = sum_f mu_a(f) prod_i delta_{y_i, f(x_i)};
    non-signalling by construction.
    """
    na = len(mix_per_a)
    nx, ny = mix_per_a[0].nx, mix_per_a[0].ny
    table = np.zeros((na,) + (nx,) * n + (ny,) * n)
    for a, mix in enumerate(mix_per_a):
        for f, w in zip(mix.functions, mix.weights):
            if w == 0.0:
                continue
            for xs in itertools.product(range(nx), repeat=n):
                ys = tuple(f[x] for x in xs)
                table[(a,) + xs + ys] += w
    return ClassicalProtocol(table, na, nx, ny, n)


# ---------------------------------------------------------------------------
# risk
# ---------------------------------------------------------------------------

def classical_expected_risk(p: ClassicalProtocol, dist: np.ndarray, a: int) -> float:
    """Average per-round 0-1 loss of protocol outputs against reference labels.

    dist is the joint test pmf over (x, y_ref) of shape (nx, ny).  Evaluated
    by exact enumeration over all round tuples.
    """
    dist = np.asarray(dist, float)
    if abs(dist.sum() - 1.0) > 1e-9:
        raise ClassicalError("test distribution must sum to 1")
    total = 0.0
    for xs in itertools.product(range(p.nx), repeat=p.n):
        for yrefs in itertools.product(range(p.ny), repeat=p.n):
            p_in = float(np.prod([dist[x, yr] for x, yr in zip(xs, yrefs)]))
            if p_in == 0.0:
                continue
            block = p.table[(a,) + xs]
            for ys in itertools.product(range(p.ny), repeat=p.n):
                w = block[ys]
                if w == 0.0:
                    continue
                s = sum(y != yr for y, yr in zip(ys, yrefs)) / p.n
                total += p_in * w * s
    return float(total)


def lemma1_pipeline(p: ClassicalProtocol) -> tuple[ClassicalProtocol,
                                                   list[ClassifierMixture]]:
    """Symmetrize, marginalize per a, decompose, and rebuild an i.i.d. protocol.

    The returned protocol has exactly the same expected risk as the input for
    every training value and every test distribution, provided the input is
    non-signalling.
    """
    rep = is_nonsignalling_classical(p)
    if not rep.max_deviation <= 1e-8:
        raise ClassicalError(
            f"protocol is signalling (deviation {rep.max_deviation:.3e})")
    p_bar = symmetrize_classical(p)
    mixes = [decompose_classifier_mixture(single_round_map(p_bar, a))
             for a in range(p.na)]
    return reconstruct_protocol(mixes, p.n), mixes


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _project_normalized(t: np.ndarray, na: int, nxn: int, nyn: int) -> np.ndarray:
    flat = t.reshape(na, nxn, nyn)
    return (flat + (1.0 - flat.sum(axis=2, keepdims=True)) / nyn).reshape(t.shape)


def _project_ns_round(t: np.ndarray, i: int, ny: int, n: int) -> np.ndarray:
    y_axes = tuple(range(1 + n, 1 + 2 * n))
    other_y = tuple(ax for ax in y_axes if ax != y_axes[i])
    marg = t.sum(axis=other_y, keepdims=True)          # (a, x_1..x_n, 1..y_i..1)
    x_axes_wo_i = tuple(ax for ax in range(1, 1 + n) if ax != 1 + i)
    avg = marg.mean(axis=x_axes_wo_i, keepdims=True)
    return t + (avg - marg) / ny ** (n - 1)


def random_nonsignalling_protocol(na: int, nx: int, ny: int, n: int,
                                  seed: int | None = None) -> ClassicalProtocol:
    """Generic non-signalling table via Dykstra alternating projections.

    Starts from a random positive table and projects onto: normalization,
    the n per-round non-signalling subspaces (all affine), and the
    non-negative orthant (with a Dykstra correction), until no entry moves
    by SAMPLER_TOL or SAMPLER_MAX_ITER sweeps have run.  Generic starting
    points land on protocols that are entangled across rounds, not mere
    mixtures of products.
    """
    rng = np.random.default_rng(seed)
    shape = (na,) + (nx,) * n + (ny,) * n
    t = rng.random(shape)
    t = _project_normalized(t, na, nx ** n, ny ** n)
    corr = np.zeros(shape)
    for _ in range(SAMPLER_MAX_ITER):
        prev = t
        t = _project_normalized(t, na, nx ** n, ny ** n)
        for i in range(n):
            t = _project_ns_round(t, i, ny, n)
        y = t + corr
        clipped = np.clip(y, 0.0, None)
        corr = y - clipped
        t = clipped
        if np.abs(t - prev).max() < SAMPLER_TOL:
            break
    t = np.clip(t, 0.0, None)
    t = _project_normalized(t, na, nx ** n, ny ** n)
    p = ClassicalProtocol(t, na, nx, ny, n)
    rep = is_nonsignalling_classical(p)
    if rep.max_deviation > 1e-9:
        raise ClassicalError(
            f"alternating projections left deviation {rep.max_deviation:.3e}")
    return p
