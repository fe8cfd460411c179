"""Classical non-signalling learning protocols and their classifier form.

A protocol is a conditional pmf P(y_1..y_n | a, x_1..x_n) stored as a dense
table with axis order (a, x_1..x_n, y_1..y_n).  The central result made
executable here: every non-signalling protocol can be replaced, per training
realization a, by a mixture of deterministic classifying functions X -> Y
with exactly the same expected risk.  The pipeline (symmetrize, take the
single-round marginal, decompose it into a product measure over functions)
rebuilds it as a `MeasurePrepareChannel`, the diagonal case of the channel
interface, whose `protocol_risk` on `classical_task` is the original's risk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .channels import MeasurePrepareChannel
from .risk import LearningTask
from .tensor_core import dense_budget_rows, symmetrize_sites

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
# classifier mixtures and risk
# ---------------------------------------------------------------------------

def decompose_classifier_mixture(q: np.ndarray) -> np.ndarray:
    """Exact product-measure decomposition of a stochastic map.

    q is (ny, nx) with columns summing to 1.  Returns mu of shape (ny,)*nx,
    the weight of the deterministic map f being mu[f] = prod_x q(f(x)|x).
    Summing delta_{y,f(x)} against mu reproduces q exactly because the
    product measure factorizes per column.
    """
    q = np.asarray(q, float)
    ny, nx = q.shape
    if np.abs(q.sum(axis=0) - 1.0).max() > 1e-9:
        raise ClassicalError("map is not column-stochastic")
    if q.min() < -1e-12:
        raise ClassicalError(f"negative mixture weight: map entry {q.min():.3e}")
    if ny ** nx > MAX_FUNCTIONS:
        raise ClassicalError(f"{ny}^{nx} functions exceed the enumeration cap")
    return reduce(np.multiply.outer, q.T)


def _test_pmf(dist: np.ndarray, shape: tuple[int, ...], a: int, na: int) -> np.ndarray:
    """dist as a float joint pmf over (x, y_ref) of shape (nx, ny); a in range(na)."""
    dist = np.asarray(dist, float)
    if len(shape) != 2 or dist.shape != shape:
        raise ClassicalError(f"test distribution shape {dist.shape} is not (nx, ny) = {shape}")
    if dist.min() < -1e-12 or abs(dist.sum() - 1.0) > 1e-9:
        raise ClassicalError(f"not a test pmf: min {dist.min():.3e}, sum {dist.sum():.12g}")
    if a not in range(na):
        raise ClassicalError(f"training value {a} not in range({na})")
    return dist


def classical_expected_risk(p: ClassicalProtocol, dist: np.ndarray, a: int) -> float:
    """Average per-round 0-1 loss of protocol outputs against reference labels.

    dist is the joint test pmf over (x, y_ref), of shape (nx, ny).  The loss
    is a mean over rounds, so the risk is one contraction per round, signalling
    or not: round i's output marginal pairs with dist on (x_i, y_ref) and with
    dist's x-marginal on every other x_j.
    """
    dist = _test_pmf(dist, (p.nx, p.ny), a, p.na)
    others = reduce(np.multiply.outer, [dist.sum(axis=1)] * (p.n - 1), np.ones(())).ravel()
    total = 0.0
    for i in range(p.n):  # round i's marginal as (x_i, x_{j≠i}, y_i)
        m = np.moveaxis(round_marginal(p, i)[a], i, 0).reshape(p.nx, -1, p.ny)
        total += np.einsum("xoy,o,xr,yr->", m, others, dist, 1.0 - np.eye(p.ny))
    return float(total / p.n)


def classical_task(dist: np.ndarray, a: int, na: int, n: int) -> LearningTask:
    """The classical scoring as a diagonal `LearningTask`: rho_A = |a><a|,
    rho_XR = diag(dist) and the 0-1 loss S = 1 - sum_y |yy><yy| on (Y1, R1)."""
    dist = _test_pmf(dist, np.shape(dist), a, na)
    nx, ny = dist.shape
    return LearningTask(np.diag(np.eye(na)[a]), np.diag(dist.ravel()).reshape(nx, ny, nx, ny),
                        np.diag(1.0 - np.eye(ny).ravel()).reshape((ny,) * 4), n)


def lemma1_pipeline(p: ClassicalProtocol) -> MeasurePrepareChannel:
    """Symmetrize, marginalize per a, decompose, and rebuild an i.i.d. protocol.

    The rebuilt protocol is a measure-and-prepare channel with one outcome per
    function f, in np.ndindex((ny,)*nx) order: POVM element diag_a mu_a[f],
    preparation sum_x |x f(x)><x f(x)|/nx.  For a non-signalling input it has
    exactly the input's risk, for every training value and test distribution.
    """
    dev = is_nonsignalling_classical(p).max_deviation
    if not dev <= 1e-8:
        raise ClassicalError(f"protocol is signalling (deviation {dev:.3e})")
    p_bar = symmetrize_classical(p)
    mus = np.stack([decompose_classifier_mixture(single_round_map(p_bar, a)).ravel()
                    for a in range(p.na)], axis=1)              # (K, na)
    if len(mus) > dense_budget_rows((p.nx * p.ny) ** 2):
        raise ClassicalError(f"{len(mus)} preparations exceed the dense budget")
    functions = np.indices((p.ny,) * p.nx).reshape(p.nx, -1).T  # row k: f_k(0..nx-1)
    graph = (functions[:, :, None] == np.arange(p.ny)).reshape(len(mus), -1) / p.nx
    return MeasurePrepareChannel(mus[:, :, None] * np.eye(p.na),
                                 graph[:, :, None] * np.eye(p.nx * p.ny), p.nx, p.ny, p.n)


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
    # normalize each context by division: the additive projection would
    # push the entries the clip set to zero below zero
    flat = np.clip(t, 0.0, None).reshape(na, nx ** n, ny ** n)
    t = (flat / flat.sum(axis=2, keepdims=True)).reshape(shape)
    p = ClassicalProtocol(t, na, nx, ny, n)
    rep = is_nonsignalling_classical(p)
    if rep.max_deviation > 1e-9:
        raise ClassicalError(
            f"alternating projections left deviation {rep.max_deviation:.3e}")
    return p
