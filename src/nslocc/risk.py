"""Learning tasks and expected-risk evaluation for multi-round channels.

A task bundles a training state on A, a test-pair state on X ⊗ R (R is the
reference register that scores the channel's output), and a risk observable
S on Y ⊗ R.  The expected risk of a channel is the mean score of its outputs
against the references, evaluated two independent ways: directly from the
n-round Choi state, one contraction per round (as far as the dense budget
admits that state), and through the single-round marginal of the
symmetrized Choi state contracted with a precomputed R-operator (any n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channels import ChoiChannel, MeasurePrepareChannel, marginal_channel, symmetrize_channel
from .locc import build_locc_protocol, theorem1_bound
from .tensor_core import (
    TensorError,
    check_dense_budget,
    check_psd,
    eigh_herm,
    op_norm,
    permutation_matrix,
)

# how far a task state's trace, its lowest eigenvalue and the priors' sum
# may stray from 1, 0 and 1
STATE_TOL = 1e-9


@dataclass(frozen=True)
class LearningTask:
    """Training state, test-pair distribution and risk observable.

    rho_a is (d_a, d_a); rho_xr, on X1 ⊗ R1, is its (d_x, d_r, d_x, d_r)
    view and s, on Y1 ⊗ R1, its (d_y, d_r, d_y, d_r) view; n test rounds.
    Each is held as a read-only complex copy.
    """

    rho_a: np.ndarray = field(repr=False)
    rho_xr: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    n: int

    def __post_init__(self):
        arrays = [np.array(m, dtype=complex) for m in (self.rho_a, self.rho_xr, self.s)]
        shapes, want = [m.shape for m in arrays], None
        if [m.ndim for m in arrays] == [2, 4, 4]:
            (d_a, _), (d_x, d_r, _, _), (d_y, *_) = shapes
            want = [(d_a, d_a), (d_x, d_r) * 2, (d_y, d_r) * 2]
        if shapes != want:
            raise TensorError(
                f"task shapes {', '.join(map(str, shapes))} are not (d_a, d_a), "
                f"(d_x, d_r, d_x, d_r) and (d_y, d_r, d_y, d_r)")
        for name, m in zip(("rho_a", "rho_xr", "s"), arrays):
            m.flags.writeable = False
            object.__setattr__(self, name, m)
        pair, score = self.d_x * self.d_r, self.d_y * self.d_r
        for state in (self.rho_a, self.rho_xr.reshape(pair, pair)):
            if abs(np.trace(state).real - 1.0) > STATE_TOL:
                raise TensorError(f"state trace {np.trace(state).real} != 1")
            check_psd(state, "task state", tol=STATE_TOL)
        eigh_herm(self.s.reshape(score, score), vectors=False, check=True)  # S is Hermitian

    @property
    def d_a(self) -> int:
        return self.rho_a.shape[0]

    @property
    def d_x(self) -> int:
        return self.rho_xr.shape[0]

    @property
    def d_y(self) -> int:
        return self.s.shape[0]

    @property
    def d_r(self) -> int:
        return self.rho_xr.shape[1]

    @cached_property
    def r_kernel(self) -> np.ndarray:
        """The task's single-round risk kernel `r_operator`, built once."""
        return r_operator(self)


def _training_data(priors: list[float], states: list[np.ndarray]) -> tuple[list, np.ndarray]:
    """The states, of one dimension and one prior each (summing to 1), as
    complex arrays, and the training state on A: one copy of each, in order,
    ρ_1 ⊗ … ⊗ ρ_L by iterated outer products."""
    if len(priors) != len(states):
        raise TensorError(f"{len(priors)} priors for {len(states)} states")
    if abs(sum(priors) - 1.0) > STATE_TOL:
        raise TensorError(f"priors sum to {sum(priors)}, not 1")
    mats = [np.asarray(s, complex) for s in states]
    if len({m.shape[0] for m in mats}) > 1:
        raise TensorError("class states must share one dimension")
    check_dense_budget(len(mats[0]) ** len(mats), "training state")
    rho_a = np.ones((1, 1), complex)
    for m in mats:
        # a broadcast product rounds as np.kron does; a complex einsum need not
        side = len(rho_a) * len(m)
        rho_a = (rho_a[:, None, :, None] * m[None, :, None, :]).reshape(side, side)
    return mats, rho_a


def classification_task(priors: list[float], states: list[np.ndarray],
                        n: int) -> LearningTask:
    """State classification with 0-1 loss.

    The test pair is sum_y p_y rho^{(y)} ⊗ |y><y|; the channel must output a
    label on a classical register of dimension len(states).  Training data is
    one copy of every class state in a fixed (label = position) order, the
    programmable-discriminator convention.
    """
    mats, rho_a = _training_data(priors, states)
    d_x, labels = len(mats[0]), len(mats)
    rho_xr = np.zeros((d_x, labels, d_x, labels), complex)
    for y, (p, m) in enumerate(zip(priors, mats)):
        rho_xr[:, y, :, y] = p * m                            # p_y ρ^{(y)} ⊗ |y><y|
    s = np.diag(1.0 - np.eye(labels).ravel())                 # 1 − sum_y |yy><yy|
    return LearningTask(rho_a, rho_xr, s.reshape((labels,) * 4), n)


def swap_matrix(d: int) -> np.ndarray:
    return permutation_matrix((1, 0), d).real


def tomography_task(priors: list[float], states: list[np.ndarray],
                    n: int) -> LearningTask:
    """State preparation scored by overlap: risk = 1 − tr[output · target].

    X is a classical register naming which target to prepare; the observable
    1 − SWAP on Y ⊗ R evaluates the overlap with the reference copy.  Training
    data is one copy of every target state.
    """
    mats, rho_a = _training_data(priors, states)
    d, labels = len(mats[0]), len(mats)
    rho_xr = np.zeros((labels, d, labels, d), complex)
    for x, (p, m) in enumerate(zip(priors, mats)):
        rho_xr[x, :, x, :] = p * m                            # p_x |x><x| ⊗ ρ^{(x)}
    s = np.eye(d * d) - swap_matrix(d)
    return LearningTask(rho_a, rho_xr, s.reshape((d,) * 4), n)


# ---------------------------------------------------------------------------
# risk observables
# ---------------------------------------------------------------------------

def r_operator(task: LearningTask) -> np.ndarray:
    """Single-round risk kernel R on (A, X1, Y1), as a matrix.

    R = tr_R[(rho_A ⊗ rho_XR ⊗ 1_Y)^{T_{AX}} (1_{AX} ⊗ S)]; contracting the
    single-round Choi marginal against R (times d_A·d_X) gives the expected
    risk without ever touching the n-round spaces.  The trace over R
    factorizes it in closed form: R = rho_Aᵀ ⊗ N, with
    N[x y, x' y'] = sum_{r r'} rho_XR[x' r, x r'] S[y r', y' r].  The task's
    inputs are Hermitian, so R is too; (R + R†)/2 only drops rounding.
    """
    n_op = np.einsum("XrxR,yRYr->xyXY", task.rho_xr, task.s)
    side = task.d_a * task.d_x * task.d_y
    r = np.einsum("ba,xyXY->axybXY", task.rho_a, n_op).reshape(side, side)
    return (r + r.conj().T) / 2


# ---------------------------------------------------------------------------
# expected risk
# ---------------------------------------------------------------------------

def _risk_marginal(q: ChoiChannel | MeasurePrepareChannel,
                   task: LearningTask) -> float:
    return protocol_risk(symmetrize_channel(q) if q.n > 1 else q, task)


def _risk_direct(q: ChoiChannel | MeasurePrepareChannel,
                 task: LearningTask) -> float:
    """The risk from q's n-round Choi state ω, one contraction per round.

    The score is the mean over rounds, so the risk is too.  Round i's term
    pairs ω's (dims + dims) view with ρ_A on A, with N = tr_R[(ρ_XR ⊗ 1_Y)
    (1_X ⊗ S)] on (X_i, Y_i) and, on every other round j, with ρ_X = tr_R ρ_XR
    on X_j and a trace on Y_j.  It neither symmetrizes ω nor assumes it
    non-signalling, so it is independent of the marginal path.
    """
    n, d_a, d_x, d_y = q.n, task.d_a, task.d_x, task.d_y
    check_dense_budget(d_a * (d_x * d_y) ** n, "direct risk evaluation")
    omega = (q.dense() if isinstance(q, MeasurePrepareChannel) else q).omega.matrix
    k = 2 * n + 1
    t = omega.reshape(2 * ((d_a,) + (d_x, d_y) * n))
    rho_x = np.einsum("arbr->ab", task.rho_xr)
    n_op = np.einsum("arbs,csdr->acbd", task.rho_xr, task.s)
    total = 0.0
    for i in range(1, n + 1):
        # row axes 0..k-1, column axes k..2k-1; round j's X is 2j-1, its Y 2j
        cols = [a if a % 2 == 0 and 0 < a != 2 * i else k + a for a in range(k)]
        operands = [t, list(range(k)) + cols, task.rho_a, [0, k]]
        for j in range(1, n + 1):
            if j != i:
                operands += [rho_x, [2 * j - 1, k + 2 * j - 1]]
        operands += [n_op, [2 * i - 1, k + 2 * i, k + 2 * i - 1, 2 * i]]
        total += np.einsum(*operands, [])
    return float((d_a * d_x ** n * total / n).real)


RISK_PATHS_TOL = 1e-8  # how far path="both" lets the two risk paths disagree


def expected_risk(q: ChoiChannel | MeasurePrepareChannel, task: LearningTask,
                  path: str) -> float:
    """Expected risk of a channel on a task.

    path: "marginal" (symmetrize + single-round Choi against the R-operator,
    works at any n), "direct" (contract the n-round Choi state with the task
    round by round, as far as the dense budget admits that state), or "both"
    (run both and insist they agree to RISK_PATHS_TOL).
    """
    if q.n != task.n:
        raise TensorError(f"channel n={q.n} != task n={task.n}")
    if q.d_a != task.d_a or q.d_x != task.d_x or q.d_y != task.d_y:
        raise TensorError("channel dimensions do not match the task")
    if path == "marginal":
        return _risk_marginal(q, task)
    if path == "direct":
        return _risk_direct(q, task)
    if path == "both":
        a = _risk_direct(q, task)
        b = _risk_marginal(q, task)
        if abs(a - b) > RISK_PATHS_TOL:
            raise TensorError(
                f"risk evaluation paths disagree: direct {a!r} vs marginal {b!r}")
        return b
    raise TensorError(f"unknown path {path!r}")


def protocol_risk(channel: ChoiChannel | MeasurePrepareChannel,
                  task: LearningTask) -> float:
    """Expected risk of a permutation-invariant channel, such as a
    measure-then-apply protocol: its single-round marginal contracted
    against the task's R-operator."""
    omega_1 = marginal_channel(channel)
    val = np.trace(omega_1.omega.matrix @ task.r_kernel)
    return float((task.d_a * task.d_x * val).real)


# ---------------------------------------------------------------------------
# the gap experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiskReport:
    risk_collective: float
    risk_locc: float
    gap: float
    bound: float
    grid_residual: float
    r_infnorm: float
    n: int


def risk_gap_experiment(task: LearningTask,
                        q: ChoiChannel | MeasurePrepareChannel,
                        grid_spec: str) -> RiskReport:
    """Collective-vs-LOCC gap with the (loose) rate bound, both reported."""
    risk_q = expected_risk(q, task, path="marginal")
    protocol = build_locc_protocol(q, grid_spec=grid_spec)
    risk_p = protocol_risk(protocol, task)
    r_inf = op_norm(task.r_kernel)
    bound = theorem1_bound(task.d_a, task.d_x, task.d_y, task.n, r_inf)
    return RiskReport(
        risk_collective=risk_q, risk_locc=risk_p,
        gap=abs(risk_q - risk_p), bound=bound,
        grid_residual=float(protocol.provenance["grid_residual"]),
        r_infnorm=float(r_inf), n=task.n)
