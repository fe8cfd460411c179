"""Choi-state calculus for multi-round channels with a side register.

Conventions used throughout:

* A channel Q maps register A together with n input sites X_1..X_n to n
  output sites Y_1..Y_n.  Its Choi state is the trace-one density operator
  omega on (A, X_1..X_n, Y_1..Y_n) obtained by feeding half of a normalized
  maximally entangled state into each input.
* With that normalization, Q(rho) = d_in * tr_in[ omega^{T_in} (rho ⊗ 1_out) ]
  where d_in = d_A * d_X^n.
* "Non-signalling" means: for every round i, the marginal of omega on
  (X_1..X_n, Y_i) is uncorrelated between Y_i and the other rounds' inputs,
  i.e. tracing out X_{j≠i} from it leaves an identity factor behind.  Such
  channels cannot transmit information from round j's input to round i's
  output for j ≠ i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .tensor_core import (
    PSD_TOL,
    Factorization,
    Operator,
    TensorError,
    check_dense_budget,
    check_psd,
    eigh_herm,
    one_blas_thread,
    op_norm,
    partial_trace,
    symmetrize_sites,
    trace_norm,
)

NS_TOL = 1e-8
TP_TOL = 1e-8
# a constructor's unit trace, POVM completeness, preparation trace and
# preparation input marginal
NORM_TOL = 1e-7
SAMPLER_MAX_ITER = 5000  # sweeps random_nonsignalling_choi may take
SAMPLER_TOL = 1e-9       # the largest entry move of a converged sweep


def _round_labels(n: int) -> list[str]:
    return [f"{reg}{i}" for i in range(1, n + 1) for reg in "XY"]


def choi_factorization(d_a: int, d_x: int, d_y: int, n: int) -> Factorization:
    dim_of = {"X": d_x, "Y": d_y}
    return Factorization.of(("A", d_a), *((lab, dim_of[lab[0]]) for lab in _round_labels(n)))


@dataclass(frozen=True)
class ChoiChannel:
    """A channel (A, X^n) -> Y^n held as its trace-one Choi state.

    The factor order is fixed: A, X1, Y1, X2, Y2, ..., Xn, Yn.  A trivial
    side register is represented by d_a = 1 so every channel has the same
    factor layout.
    """

    omega: Operator
    d_a: int
    d_x: int
    d_y: int
    n: int

    def __post_init__(self):
        want = choi_factorization(self.d_a, self.d_x, self.d_y, self.n)
        if self.omega.shape.factors != want.factors:
            raise TensorError(
                f"Choi factor layout must be {want.factors}, got {self.omega.shape.factors}"
            )
        tr = self.omega.trace().real
        if abs(tr - 1.0) > NORM_TOL:
            raise TensorError(f"Choi state must have unit trace, got {tr}")

    @property
    def d_in(self) -> int:
        return self.d_a * self.d_x ** self.n

    # the channel is immutable, so each report is computed once and kept
    @cached_property
    def cptp_report(self) -> CPTPReport:
        return is_cptp(self)

    @cached_property
    def ns_report(self) -> NonSignallingReport:
        return is_nonsignalling(self)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def choi_of_kraus(kraus: Sequence[np.ndarray], d_x: int, d_y: int) -> ChoiChannel:
    """Single-round Choi state of a channel given by Kraus operators (d_y x d_x)."""
    return choi_of_global_kraus(kraus, d_x, d_y, n=1)


def choi_of_global_kraus(kraus: Sequence[np.ndarray], d_x: int, d_y: int,
                         n: int) -> ChoiChannel:
    """Choi state of an arbitrary joint channel X^n -> Y^n, with a trivial
    side register (d_a = 1).

    Kraus operators map C^{d_x^n} (ordered X1..Xn) to C^{d_y^n} (ordered
    Y1..Yn).
    """
    d_in = d_x ** n
    d_out = d_y ** n
    m = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for k in kraus:
        k = np.asarray(k, dtype=complex)
        if k.shape != (d_out, d_in):
            raise TensorError(f"Kraus shape {k.shape} != ({d_out}, {d_in})")
        vec = k.T.reshape(-1)  # |i>_in |K i>_out stacked as (in, out)
        m += np.outer(vec, vec.conj())
    m /= d_in
    # rows and columns as (X1..Xn, Y1..Yn); one transpose interleaves the rounds
    pairs = [ax for i in range(n) for ax in (i, n + i)]
    t = m.reshape(2 * ((d_x,) * n + (d_y,) * n)).transpose(pairs + [2 * n + ax for ax in pairs])
    fac = choi_factorization(1, d_x, d_y, n)
    return ChoiChannel(Operator(t.reshape(fac.dim, fac.dim), fac), 1, d_x, d_y, n)


def measure_and_prepare_choi(povm: Sequence[Operator], preparations: Sequence[Operator],
                             n: int) -> ChoiChannel:
    """Dense Choi state of the channel that measures A with the POVM, then
    prepares the matching state on every round.

    Each preparation is a single-round Choi state on (X1, Y1); outcome j turns
    every round into that fixed channel.  The resulting Choi state is
    sum_j (M_j^T / d_A) ⊗ phi_j^{⊗ n}, which is non-signalling by construction.
    """
    return MeasurePrepareChannel.of(povm, preparations, n).dense()


def marginal_input(phi: np.ndarray, d_x: int, d_y: int) -> np.ndarray:
    """Input marginal τ = tr_Y φ of a state φ on (X, Y), or of each state of a
    (..., d_X·d_Y, d_X·d_Y) stack."""
    t = phi.reshape(phi.shape[:-2] + (d_x, d_y, d_x, d_y))
    return np.einsum("...xyzy->...xz", t)


@dataclass(frozen=True)
class MeasurePrepareChannel:
    """Structured backend of a measure-and-prepare channel (A, X^n) -> Y^n.

    The channel measures A with the POVM {M_j} and runs channel j on every
    round.  It is held as the stacks `povm` (K, d_A, d_A) and `chois`
    (K, d_X·d_Y, d_X·d_Y) of the channels' single-round Choi states on
    (X1, Y1), never as its Choi state omega = sum_j M_j^T/d_A ⊗ phi_j^{⊗n}, whose side
    d_A·(d_X·d_Y)^n grows with n.  It is non-signalling and invariant under
    round permutations by construction; `dense()` builds omega.  The
    constructor checks that it is CPTP: a complete POVM of PSD elements and
    PSD, unit-trace, trace-preserving preparations.  `provenance` records how
    a channel was built (the reduction's diagnostics); it does not take part
    in comparisons.
    """

    povm: np.ndarray = field(repr=False)
    chois: np.ndarray = field(repr=False)
    d_x: int
    d_y: int
    n: int
    provenance: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        pair = self.d_x * self.d_y
        povm, chois = self.povm, self.chois
        if (povm.ndim != 3 or povm.shape[1] != povm.shape[2]
                or chois.shape != (len(povm), pair, pair)):
            raise TensorError(
                f"need povm (K, d_a, d_a) and single-round chois (K, {pair}, {pair}) "
                f"stacks, got {povm.shape} and {chois.shape}")
        dev = float(np.abs(povm.sum(axis=0) - np.eye(povm.shape[1])).max())
        if dev > NORM_TOL:
            raise TensorError(f"POVM completeness violated by {dev:.3e}")
        trace_dev = float(np.abs(np.einsum("kii->k", chois).real - 1.0).max())
        if trace_dev > NORM_TOL:
            raise TensorError(f"Choi state trace off 1 by {trace_dev:.3e}")
        check_psd(povm, "POVM element")
        check_psd(chois, "preparation")
        # trace preservation, which makes the channel non-signalling
        tp_dev = float(np.abs(marginal_input(chois, self.d_x, self.d_y)
                              - np.eye(self.d_x) / self.d_x).max())
        if tp_dev > NORM_TOL:
            raise TensorError(f"preparation input marginal off 1/d_X by {tp_dev:.3e}")

    @classmethod
    def of(cls, povm: Sequence[Operator], preparations: Sequence[Operator],
           n: int) -> "MeasurePrepareChannel":
        """From POVM elements on A and single-round Choi states on (X1, Y1)."""
        if not povm or len(povm) != len(preparations):
            raise TensorError(f"need at least one POVM element and one preparation per element, "
                              f"got {len(povm)} elements and {len(preparations)} preparations")
        for what, ops in (("POVM elements", povm), ("preparations", preparations)):
            spaces = list(dict.fromkeys(o.shape.factors for o in ops))
            if len(spaces) > 1:
                raise TensorError(f"{what} live on different spaces: {spaces}")
        shape = preparations[0].shape
        return cls(np.stack([m.matrix for m in povm]),
                   np.stack([p.matrix for p in preparations]),
                   shape.dim_of("X1"), shape.dim_of("Y1"), n)

    @property
    def d_a(self) -> int:
        return self.povm.shape[1]

    def dense(self) -> ChoiChannel:
        """The dense Choi state, built one outcome at a time."""
        d_a, n = self.d_a, self.n
        check_dense_budget(d_a * (self.d_x * self.d_y) ** n, "measure_and_prepare_choi")
        total = sum(reduce(np.kron, [m.T / d_a] + [c] * n)
                    for m, c in zip(self.povm, self.chois))
        fac = choi_factorization(d_a, self.d_x, self.d_y, n)
        return ChoiChannel(Operator(total, fac), d_a, self.d_x, self.d_y, n)


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------

def apply_channel(channel: ChoiChannel, rho: Operator) -> Operator:
    """Q(rho) on (Y1..Yn) for rho on the input factors (A, X1..Xn): one
    contraction Q(rho)[y, y'] = d_in sum_{i, j} rho[i, j] omega[(i, y), (j, y')]."""
    factors = channel.omega.shape.factors          # A, X1, Y1, .., Xn, Yn
    inputs = factors[:1] + factors[1::2]
    if rho.shape.factors != inputs:
        raise TensorError(f"input state must live on {inputs}")
    k = len(factors)
    ins, outs = [0] + list(range(1, k, 2)), list(range(2, k, 2))
    t = np.einsum(rho.matrix.reshape(2 * rho.shape.dims), ins + [k + a for a in ins],
                  channel.omega.matrix.reshape(2 * channel.omega.shape.dims), list(range(2 * k)),
                  outs + [k + a for a in outs])
    fac = Factorization(factors[2::2])
    return Operator(channel.d_in * t.reshape(fac.dim, fac.dim), fac)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CPTPReport:
    psd_violation: float
    tp_violation: float

    @property
    def ok(self) -> bool:
        return self.psd_violation <= PSD_TOL and self.tp_violation <= TP_TOL


def is_cptp(channel: ChoiChannel) -> CPTPReport:
    """Check positivity of the Choi state and the trace-preservation marginal."""
    w = eigh_herm(channel.omega.matrix, vectors=False)
    psd_violation = max(0.0, float(-w.min()))
    marg = partial_trace(channel.omega, ["A"] + [f"X{i}" for i in range(1, channel.n + 1)])
    target = np.eye(channel.d_in) / channel.d_in
    tp_violation = float(op_norm(marg.matrix - target))
    return CPTPReport(psd_violation, tp_violation)


@dataclass(frozen=True)
class NonSignallingReport:
    residuals: tuple[float, ...]

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0

    @property
    def ok(self) -> bool:
        return self.max_residual <= NS_TOL


def is_nonsignalling(channel: ChoiChannel | MeasurePrepareChannel) -> NonSignallingReport:
    """Per-round signalling residuals ‖M_i − (tr_{X≠i} M_i) ⊗ 1/d_x^{n−1}‖₁.

    M_i is the Choi marginal on (A, X1..Xn, Y_i).  A zero residual for round i
    means no other round's input can influence Y_i.  Trace norm, so the
    residual measures the total distinguishability bought by signalling.
    A measure-and-prepare channel cannot signal: its residuals are zero.
    """
    if isinstance(channel, MeasurePrepareChannel):
        return NonSignallingReport((0.0,) * channel.n)
    dims = (channel.d_a, channel.d_x, channel.d_y, channel.n)
    # rows and columns share one factor reordering, which keeps the trace norm
    return NonSignallingReport(tuple(
        float(trace_norm(_signalling_part(channel.omega.matrix, dims, i)[0]))
        for i in range(1, channel.n + 1)))


def _signalling_part(m: np.ndarray, dims: tuple[int, int, int, int],
                     i: int) -> tuple[np.ndarray, np.ndarray]:
    """M_i − (tr_{X≠i} M_i) ⊗ 1/d_x^{n−1}, M_i the marginal of m on (A, X1..Xn, Y_i).

    Returns it as a matrix on (A, X_i, Y_i, X_{j≠i}), and the view (writeable
    if m is C-contiguous) of m on the diagonal y_j = y_j' for all j ≠ i, axes
    (A, X_i, Y_i, X_{j≠i}) for the rows, for the columns, then Y_{j≠i}.
    """
    d_a, d_x, d_y, n = dims
    k = 2 * n + 1
    other_y = [2 * j for j in range(1, n + 1) if j != i]
    cols = [a if a in other_y else k + a for a in range(k)]
    axes = [0, 2 * i - 1, 2 * i] + [y - 1 for y in other_y]
    # m's axes: (A, X1, Y1, .., Xn, Yn) for the rows, then for the columns
    t = m.reshape(2 * ((d_a,) + (d_x, d_y) * n))
    subs, out = list(range(k)) + cols, axes + [cols[a] for a in axes]
    p, q = d_a * d_x * d_y, d_x ** (n - 1)
    m_i = np.einsum(t, subs, out).reshape(p, q, p, q)
    small = np.einsum("aqbq->ab", m_i)
    part = m_i - np.einsum("ab,qr->aqbr", small, np.eye(q) / q)
    return part.reshape(p * q, p * q), np.einsum(t, subs, out + other_y)


# ---------------------------------------------------------------------------
# marginals of non-signalling channels
# ---------------------------------------------------------------------------

def marginal_channel(channel: ChoiChannel | MeasurePrepareChannel) -> ChoiChannel:
    """Single-round channel on (A, X1, Y1) of a non-signalling channel.

    For a non-signalling channel, discarding the outputs Y2..Yn leaves round 1
    acting as a bona fide channel on (A, X1); the unused inputs decouple as
    maximally mixed and are traced away.  A dense channel whose round-1
    signalling residual (`is_nonsignalling`'s) exceeds NS_TOL is refused.
    A measure-and-prepare channel's marginal is the closed form
    sum_j M_j^T/d_A ⊗ phi_j.
    """
    d_a, d_x, d_y = channel.d_a, channel.d_x, channel.d_y
    if isinstance(channel, MeasurePrepareChannel):
        # one GEMM (K, d_A²)ᵀ @ (K, (d_X·d_Y)²) over the outcomes, rows (b, a)
        k, pair = len(channel.povm), d_x * d_y
        total = (channel.povm.reshape(k, -1).T @ channel.chois.reshape(k, -1)).reshape(
            d_a, d_a, pair, pair).transpose(1, 2, 0, 3) / d_a
        fac = choi_factorization(d_a, d_x, d_y, 1)
        return ChoiChannel(Operator(total.reshape(fac.dim, fac.dim), fac), d_a, d_x, d_y, 1)
    dims = (d_a, d_x, d_y, channel.n)
    res = float(trace_norm(_signalling_part(channel.omega.matrix, dims, 1)[0]))
    if not res <= NS_TOL:
        raise TensorError(
            f"channel does not reduce to its first round: signalling residual "
            f"{res:.3e} > {NS_TOL:g}")
    omega_1 = partial_trace(channel.omega, ["A", "X1", "Y1"])
    return ChoiChannel(omega_1, d_a, d_x, d_y, 1)


# ---------------------------------------------------------------------------
# symmetrization
# ---------------------------------------------------------------------------

def symmetrize_channel(channel: ChoiChannel | MeasurePrepareChannel
                       ) -> ChoiChannel | MeasurePrepareChannel:
    """Average omega over simultaneous permutations of the (X_i, Y_i) pairs.

    A measure-and-prepare channel prepares phi_j^{⊗n}, which every such
    permutation leaves alone, so it is returned unchanged.
    """
    if isinstance(channel, MeasurePrepareChannel):
        return channel
    n = channel.n
    check_dense_budget(channel.omega.dim, "symmetrize_channel")
    # rows and columns as (A, site_1..site_n) with site_i = (X_i, Y_i)
    t = channel.omega.matrix.reshape(
        2 * ((channel.d_a,) + (channel.d_x * channel.d_y,) * n))
    rows, cols = range(1, n + 1), range(n + 2, 2 * n + 2)
    avg = symmetrize_sites(t, [rows, cols]).reshape(channel.omega.matrix.shape)
    return ChoiChannel(Operator(avg, channel.omega.shape),
                       channel.d_a, channel.d_x, channel.d_y, n)


# ---------------------------------------------------------------------------
# random non-signalling channels
# ---------------------------------------------------------------------------

def _project_tp(m: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Orthogonal projection onto {omega : the marginal on its leading factors
    of total dim d_in is 1/d_in}.  Meant as tr_out omega = 1/d_in, but omega
    interleaves (A, X1, Y1, ..): for n = 3, all dims 2 it pins (A, X1, Y1, X2),
    and for n >= 2 every sampled channel's (A, X1, Y1) marginal is maximally mixed.
    """
    out = m.copy()
    t = out.reshape(d_in, d_out, d_in, d_out)
    delta = np.eye(d_in) / d_in - np.einsum("iaja->ij", t)
    # delta ⊗ 1/d_out touches only the a = b diagonal, a writeable view
    np.einsum("iaja->iaj", t)[...] += delta[:, None, :] * (1.0 / d_out)
    return out


def _project_nonsignalling(m: np.ndarray, dims: tuple[int, int, int, int]) -> np.ndarray:
    """Orthogonal projections onto the round-1..n non-signalling subspaces, in
    turn: round i subtracts its signalling part ⊗ 1_{Y≠i}/d_y^{n−1}."""
    d_y, n = dims[2:]
    m = m.copy()
    for i in range(1, n + 1):
        s, view = _signalling_part(m, dims, i)
        view -= s.reshape(view.shape[:2 * n + 4] + (1,) * (n - 1)) / d_y ** (n - 1)
    return m


def _project_psd_trace(m: np.ndarray) -> np.ndarray:
    """Clip the Hermitian part's negative eigenvalues, rescale to unit trace
    (1/dim if nothing is left).  Not the Euclidean projection onto the unit-trace
    PSD set, which would shift the eigenvalues before clipping them.  eigh is
    ascending, so the negative part is the leading k columns.  numpy divides a
    complex array by a real c as (re, im)·(1/c), so the scalings multiply by
    the reciprocal: the same bits, without the complex division's cost."""
    h = np.conjugate(m.T, order="C")
    h += m
    h *= 0.5
    w, v = np.linalg.eigh(h)
    s = w[w > 0].sum()
    if s <= 0:
        return np.eye(len(m), dtype=complex) / len(m)
    k = np.count_nonzero(w < 0)
    v_neg = v[:, :k]
    # a result allocated after eigh reuses its freed workspace; subtracting in
    # place into h left that workspace to be returned to the OS and faulted
    # back in on every sweep
    out = h - (v_neg * w[:k]) @ v_neg.conj().T
    out *= 1.0 / s
    return out


@one_blas_thread()
def random_nonsignalling_choi(d_a: int, d_x: int, d_y: int, n: int,
                              seed: int | None = None) -> ChoiChannel:
    """Random non-signalling channel by Dykstra-style alternating projections.

    From a Wishart-random density matrix, each sweep projects orthogonally onto
    the affine set of _project_tp and the n non-signalling subspaces (these need
    no Dykstra correction: it would lie in the orthogonal complement of the
    set's direction), then applies _project_psd_trace with one, until no entry
    moves by SAMPLER_TOL and is_cptp and is_nonsignalling pass, for at most
    SAMPLER_MAX_ITER sweeps.  A sweep costs one eigh of the Choi state's side
    d_A·(d_X·d_Y)^n.  The PSD step is not a Euclidean projection, so the result
    is in general not the intersection's point nearest the start.  The channel
    returned keeps the reports that accepted it (`cptp_report`, `ns_report`).
    A Choi state over the dense budget is refused before it is drawn.

    The sampler runs on one BLAS thread (`one_blas_thread`), so under OpenBLAS
    its bytes do not depend on the caller's thread count.  At d_A = 2, n = 3
    (side 128) a sweep's eigh is also faster on one thread than on two; larger
    sides pay for it: one eigh takes 106 -> 175 ms at side 512 and
    0.80 -> 1.34 s at side 1024 (best of 3, 2-vCPU VM, OpenBLAS 0.3.31).
    """
    dims = (d_a, d_x, d_y, n)
    fac = choi_factorization(*dims)
    check_dense_budget(fac.dim, "random_nonsignalling_choi")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((fac.dim,) * 2) + 1j * rng.standard_normal((fac.dim,) * 2)
    m = g @ g.conj().T
    m /= np.trace(m).real
    correction = np.zeros_like(m)
    for _ in range(SAMPLER_MAX_ITER):
        prev = m
        y = _project_nonsignalling(_project_tp(m, d_a * d_x ** n, d_y ** n), dims)
        y += correction
        m = _project_psd_trace(y)
        correction = y - m
        if np.abs(m - prev).max() < SAMPLER_TOL:
            ch = ChoiChannel(Operator(m, fac), *dims)
            if ch.ns_report.ok and ch.cptp_report.ok:
                return ch
    ch = ChoiChannel(Operator(m, fac), *dims)
    rep_c, rep_ns = ch.cptp_report, ch.ns_report
    if rep_c.ok and rep_ns.ok:
        return ch
    raise TensorError(
        f"alternating projections did not converge: tp={rep_c.tp_violation:.2e} "
        f"psd={rep_c.psd_violation:.2e} ns={rep_ns.max_residual:.2e}")
