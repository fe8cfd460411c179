"""From a de Finetti measure to an executable measure-then-apply protocol.

The pipeline: symmetrize a non-signalling channel, purify its Choi state,
resolve it over a grid of product states, repair each extracted factor state
into a trace-preserving channel (one eigensolve of the stack of input
marginals gates the repair and gives every factor (τ^{-1/2} ⊗ 1)/√d_X;
`tp_repair` applies the sandwich), and assemble a POVM on the side register
whose outcomes select which repaired channel to apply to every round.  The
protocol is a `MeasurePrepareChannel` whose provenance records the
reduction's diagnostics (grid residual, repaired and fallback counts, POVM
rescale and slack, purification's dropped mass).  The concentration of the
input marginals is a separate diagnostic, `concentration_report`, which the
reduction does not run.  The loose desk-scale rate bound is always reported
alongside the measured gap, never asserted alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    ChoiChannel,
    MeasurePrepareChannel,
    is_nonsignalling,
    marginal_input,
    symmetrize_channel,
)
from .definetti import (
    DeFinettiApprox,
    MeasureGrid,
    SymmetricExtension,
    extract_measure,
    purify_extension,
    purify_product_mixture,
)
from .tensor_core import (
    PSD_TOL,
    TensorError,
    _psd_eigs,
    eigh_herm,
    kron_power,
    trace_norm,
)

REPAIR_CUTOFF = 1e-8
# ε of the repair gate.  The asymptotic choice δ^{1/3} exceeds 1 for every
# feasible n here, which would make the gate vacuous; a fixed desk-scale ε
# keeps it informative.
EPSILON = 0.2


def purify_channel(q: ChoiChannel | MeasurePrepareChannel) -> SymmetricExtension:
    """vec √omega of a permutation-symmetric channel's Choi state omega, on the
    sites B_i = (X_i, Y_i).  A measure-and-prepare channel is purified from
    its low-rank factor, a dense one by an eigensolve of omega; both give the
    same state."""
    if isinstance(q, MeasurePrepareChannel):
        return purify_product_mixture(q.povm.transpose(0, 2, 1) / q.d_a, q.chois, q.n)
    return purify_extension(q.omega.matrix, q.d_a, q.n)


# ---------------------------------------------------------------------------
# trace-preserving repair
# ---------------------------------------------------------------------------

def tp_repair(phi: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Rescale a state φ on (X, Y) so its input marginal is maximally mixed.

    φ̃ = F φ F with F = (τ^{-1/2} ⊗ 1_Y)/√d_X from `_repair_factors`, τ =
    tr_Y φ, all (d_X·d_Y) x (d_X·d_Y) matrices; that is (1/d_X)(τ^{-1/2} ⊗ 1)
    φ (τ^{-1/2} ⊗ 1).  This is the Choi state of a trace-preserving map
    whenever τ is invertible; callers refuse a nearly singular τ
    (REPAIR_CUTOFF) before they build its factor.
    """
    return factor @ phi @ factor


def _repair_factors(w: np.ndarray, v: np.ndarray, d_y: int) -> np.ndarray:
    """F = (τ^{-1/2} ⊗ 1_Y)/√d_X for the eigenpairs (w, v) of one input
    marginal τ or of each of a stack, the whole stack at once (an empty
    stack gives an empty one)."""
    d_x = w.shape[-1]
    inv_root = (v * (1.0 / np.sqrt(w))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    out = np.einsum("...ab,yz->...aybz", inv_root, np.eye(d_y) / np.sqrt(d_x))
    return out.reshape(w.shape[:-1] + (d_x * d_y, d_x * d_y))


def repair_distance_bound(phi: np.ndarray, d_x: int, d_y: int) -> tuple[float, float]:
    """Trace distance moved by tp_repair against its closed-form guarantee.

    Returns (lhs, rhs) with lhs the normalized trace distance
    (1/2)‖φ − φ̃‖₁ and rhs = sqrt(1 − tr[√τ]²/d_X); one eigensolve of τ
    gives both √τ and τ^{-1/2}.  A τ with an eigenvalue at or below
    REPAIR_CUTOFF raises TensorError.  The guarantee holds for the
    normalized distance; the unnormalized norm saturates 2·rhs on pure
    states (standard fidelity-distance relation), so the 1/2 convention is
    load-bearing here.
    """
    w, v = _psd_eigs(marginal_input(phi, d_x, d_y))
    if w[0] <= REPAIR_CUTOFF:
        raise TensorError(f"input marginal nearly singular (min eig {w[0]:.3e})")
    phi_t = tp_repair(phi, _repair_factors(w, v, d_y))
    root_tr = float(np.trace((v * np.sqrt(w)) @ v.conj().T).real)
    rhs = float(np.sqrt(max(0.0, 1.0 - root_tr ** 2 / d_x)))
    lhs = 0.5 * trace_norm(phi - phi_t)
    return lhs, rhs


# ---------------------------------------------------------------------------
# concentration diagnostics of a de Finetti measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationReport:
    """Measured concentration of the extracted input marginals.

    e1 is the mean input marginal E₁ on X; ek_residuals holds (k,
    ‖E_k − (1/d_X)^{⊗k}‖₁, k·δ + grid_residual) for k = 1, 2;
    complement_mass is the measure of grid points whose input marginal
    strays from E₁ by ≥ ε in operator norm, with its certified bound.  All
    inequalities are reported two-sided; several are vacuous at desk scale
    and that is expected.
    """

    e1: np.ndarray
    ek_residuals: tuple[tuple[int, float, float], ...]
    r_eps_mass: float
    complement_mass: float
    complement_bound: float
    epsilon: float
    delta: float
    grid_residual: float


def _input_marginals(approx: DeFinettiApprox, d_x: int,
                     d_y: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights tr M_g, shape (G,), and input marginals τ_g = tr_Y φ_g on X,
    shape (G, d_X, d_X), of a measure."""
    if approx.site_keep_dim != d_x * d_y:
        raise TensorError(f"site dim {approx.site_keep_dim} != {d_x}*{d_y}")
    return np.einsum("gii->g", approx.ms).real, marginal_input(approx.phis, d_x, d_y)


def _spread(taus: np.ndarray, e1: np.ndarray) -> np.ndarray:
    """‖τ_g − E₁‖∞ for every input marginal of the stack."""
    return np.abs(eigh_herm(taus - e1, vectors=False, check=True)).max(axis=1)


def concentration_report(approx: DeFinettiApprox, epsilon: float, delta: float,
                         d_x: int, d_y: int) -> ConcentrationReport:
    weights, taus = _input_marginals(approx, d_x, d_y)
    e1 = np.tensordot(weights, taus, axes=(0, 0))
    eye = np.eye(d_x)[None] / d_x
    residuals = []
    for k in (1, 2):
        ek = np.tensordot(weights, kron_power(taus, k), axes=(0, 0))
        residuals.append((k, float(trace_norm(ek - kron_power(eye, k)[0])),
                          k * delta + approx.grid_residual))
    r_mass = float(weights[_spread(taus, e1) < epsilon].sum())
    comp_mass = float(weights.sum()) - r_mass
    comp_bound = (d_x ** 2 / epsilon ** 2) * (2 * delta * (1 + 1 / d_x) + delta ** 2) \
        + approx.grid_residual
    return ConcentrationReport(
        e1=e1, ek_residuals=tuple(residuals),
        r_eps_mass=r_mass, complement_mass=comp_mass,
        complement_bound=float(comp_bound), epsilon=epsilon, delta=delta,
        grid_residual=approx.grid_residual)


# ---------------------------------------------------------------------------
# protocol assembly
# ---------------------------------------------------------------------------

def build_locc_protocol(q: ChoiChannel | MeasurePrepareChannel,
                        grid: MeasureGrid) -> MeasurePrepareChannel:
    """Run the full reduction on a non-signalling channel.

    Stages: symmetrize, purify, extract on `grid`, per-point trace-preserving
    repair (points whose input marginal is singular or strays from the mean
    by ≥ ε fall back to the depolarizing channel; the stack of input
    marginals is eigensolved once per grid, and those eigenpairs give the gate's
    lowest eigenvalues and every repaired point's τ^{-1/2}), POVM assembly
    with one explicit slack element.  When the discretized POVM overshoots the
    identity beyond tolerance the whole family is rescaled by the smallest
    factor restoring feasibility; the factor is recorded in provenance
    rather than silently absorbed.  The result is the protocol as a
    measure-and-prepare channel on q's n rounds, which its constructor
    checks to be CPTP.

    `grid` is a `MeasureGrid` on C^{(d_X·d_Y)²}, the purification's doubled
    sites (see `definetti.build_grid`).  One grid serves a whole sweep over
    n: what depends on the grid alone, its site states and the eigensolve of
    their input marginals, is computed on the first call and kept on the
    grid, while each n still extracts, gates and repairs on its own.
    """
    d_a, d_x, d_y, n = q.d_a, q.d_x, q.d_y, q.n
    rep = is_nonsignalling(q)
    if not rep.ok:
        raise TensorError(
            f"channel is signalling (residual {rep.max_residual:.3e}); "
            "the reduction only applies to non-signalling channels")

    extension = purify_channel(symmetrize_channel(q))
    approx = extract_measure(extension, grid)

    delta = 4.0 * (d_x * d_y) ** 2 / n
    weights, taus = _input_marginals(approx, d_x, d_y)
    e1 = np.tensordot(weights, taus, axes=(0, 0))
    # the only eigensolve of the τ stack, kept on the grid for every later n:
    # its lowest eigenvalues gate the repair, and its eigenpairs give every
    # repaired point's τ^{-1/2}
    w, v = grid.derived(("input_marginal_eigs", d_x, d_y),
                        lambda: eigh_herm(taus, check=True))
    repair = (w[:, 0] > REPAIR_CUTOFF) & (_spread(taus, e1) < EPSILON)
    repaired = int(repair.sum())
    fallback = len(repair) - repaired
    # one Choi state per grid point plus the slack outcome's; every outcome
    # not repaired keeps the depolarizing fallback, the Choi state of the
    # channel that outputs 1/d_Y whatever it is fed
    chois = np.empty((len(repair) + 1, d_x * d_y, d_x * d_y), dtype=complex)
    chois[:] = np.eye(d_x * d_y) / (d_x * d_y)
    rows = np.flatnonzero(repair)
    for g, factor in zip(rows, _repair_factors(w[rows], v[rows], d_y)):
        chois[g] = tp_repair(approx.phis[g], factor)

    povm_raw = d_a * approx.ms.transpose(0, 2, 1)  # Choi-side elements -> physical POVM
    rescale = 1.0
    slack = np.eye(d_a) - povm_raw.sum(axis=0)
    slack_eigs = eigh_herm(slack, vectors=False)
    if float(slack_eigs.min()) < -PSD_TOL:
        # grid overshoot: shrink the whole family to restore feasibility
        rescale = 1.0 / float(eigh_herm(povm_raw.sum(axis=0), vectors=False).max())
        povm_raw = rescale * povm_raw
        slack = np.eye(d_a) - povm_raw.sum(axis=0)
        slack_eigs = eigh_herm(slack, vectors=False)
    # the slack element completes the POVM exactly; eigenvalues down to
    # -PSD_TOL are rounding and count for no mass
    slack_mass = float(np.clip(slack_eigs, 0, None).sum()) / d_a
    povm = np.concatenate([povm_raw, slack[None]])

    provenance = {
        "epsilon": EPSILON,
        "delta": delta,
        "repaired_count": repaired,
        "fallback_count": fallback,
        "grid_residual": approx.grid_residual,
        "povm_rescale": rescale,
        "slack_mass": slack_mass,
        "grid_mode": grid.mode,
        "grid_count": grid.count,
        "povm_deficit": approx.povm_deficit,
        "dropped_mass": extension.dropped_mass,
    }
    return MeasurePrepareChannel(povm, chois, d_x, d_y, n, provenance)


def theorem1_bound(d_a: int, d_x: int, d_y: int, n: int,
                   r_infnorm: float) -> float:
    """Leading-order rate bound on the collective-vs-LOCC risk gap.

    4^{1/6} d_A d_X^{11/6} d_Y^{1/3} n^{-1/6} ‖R‖∞: loose by design and
    vacuous for every desk-scale n; always reported next to the measured
    gap, never asserted alone.
    """
    if n < 1:
        raise TensorError("n must be at least 1")
    return float(4.0 ** (1 / 6) * d_a * d_x ** (11 / 6) * d_y ** (1 / 3)
                 * n ** (-1 / 6) * r_infnorm)
