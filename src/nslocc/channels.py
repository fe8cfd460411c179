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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor_core import (
    Factorization,
    Operator,
    TensorError,
    embed,
    identity,
    op_norm,
    partial_trace,
    partial_transpose,
    permute_factors,
    symmetrize_sites,
    tensor_all,
    trace_norm,
)

NS_TOL = 1e-8
TP_TOL = 1e-8
PSD_TOL = 1e-8


def _round_labels(n: int) -> list[str]:
    out = []
    for i in range(1, n + 1):
        out += [f"X{i}", f"Y{i}"]
    return out


def choi_factorization(d_a: int, d_x: int, d_y: int, n: int) -> Factorization:
    factors = [("A", d_a)]
    for i in range(1, n + 1):
        factors += [(f"X{i}", d_x), (f"Y{i}", d_y)]
    return Factorization.of(*factors)


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
        if abs(tr - 1.0) > 1e-7:
            raise TensorError(f"Choi state must have unit trace, got {tr}")

    @property
    def d_in(self) -> int:
        return self.d_a * self.d_x ** self.n

    @property
    def d_out(self) -> int:
        return self.d_y ** self.n

    @property
    def input_labels(self) -> list[str]:
        return ["A"] + [f"X{i}" for i in range(1, self.n + 1)]

    @property
    def output_labels(self) -> list[str]:
        return [f"Y{i}" for i in range(1, self.n + 1)]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def choi_of_kraus(kraus: Sequence[np.ndarray], d_x: int, d_y: int) -> ChoiChannel:
    """Single-round Choi state of a channel given by Kraus operators (d_y x d_x)."""
    return choi_of_global_kraus(kraus, d_x, d_y, n=1)


def choi_of_global_kraus(kraus: Sequence[np.ndarray], d_x: int, d_y: int,
                         n: int = 1, d_a: int = 1) -> ChoiChannel:
    """Choi state of an arbitrary joint channel (A, X^n) -> Y^n.

    Kraus operators map C^{d_a * d_x^n} (ordered A, X1..Xn) to C^{d_y^n}
    (ordered Y1..Yn).  The identity register 1_A on the output side is kept
    implicitly: the channel is only required to be CPTP on its stated spaces
    and the Choi factors for A pair input with input.
    """
    d_in = d_a * d_x ** n
    d_out = d_y ** n
    m = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for k in kraus:
        k = np.asarray(k, dtype=complex)
        if k.shape != (d_out, d_in):
            raise TensorError(f"Kraus shape {k.shape} != ({d_out}, {d_in})")
        vec = k.T.reshape(-1)  # |i>_in |K i>_out stacked as (in, out)
        m += np.outer(vec, vec.conj())
    m /= d_in
    fac_flat = Factorization.of(("IN", d_in), ("OUT", d_out))
    omega_flat = Operator(m, fac_flat)
    # expand IN -> (A, X1..Xn), OUT -> (Y1..Yn), then interleave rounds
    fac_full = Factorization.of(
        ("A", d_a), *((f"X{i}", d_x) for i in range(1, n + 1)),
        *((f"Y{i}", d_y) for i in range(1, n + 1)))
    omega_block = Operator(omega_flat.matrix, fac_full)
    order = ["A"] + _round_labels(n)
    omega = permute_factors(omega_block, order)
    return ChoiChannel(omega, d_a, d_x, d_y, n)


def product_channel(single: ChoiChannel, n: int) -> ChoiChannel:
    """n-fold tensor power of a single-round channel (trivial A)."""
    if single.n != 1 or single.d_a != 1:
        raise TensorError("product_channel expects a single-round channel with d_a=1")
    parts = [identity(Factorization.of(("A", 1)))]
    for i in range(1, n + 1):
        parts.append(single.omega.relabel({"A": f"_a{i}", "X1": f"X{i}", "Y1": f"Y{i}"}))
    omega = tensor_all(parts)
    omega = partial_trace(omega, set(["A"] + _round_labels(n)))
    return ChoiChannel(omega, 1, single.d_x, single.d_y, n)


def measure_and_prepare_choi(povm: Sequence[Operator], preparations: Sequence[Operator],
                             n: int) -> ChoiChannel:
    """Measure A with the POVM, then prepare the matching state on every round.

    Each preparation is a single-round Choi state on (X1, Y1); outcome j turns
    every round into that fixed channel.  The resulting Choi state is
    sum_j (M_j^T / d_A) ⊗ phi_j^{⊗ n}, which is non-signalling by construction.
    """
    if len(povm) != len(preparations):
        raise TensorError("need one preparation per POVM outcome")
    preparations = [partial_trace(p, ["X1", "Y1"]) if "A" in p.labels else p
                    for p in preparations]
    d_a = povm[0].dim
    d_x = preparations[0].shape.dim_of("X1")
    d_y = preparations[0].shape.dim_of("Y1")
    total = None
    for m_j, phi_j in zip(povm, preparations):
        parts = [Operator(m_j.matrix.T / d_a, Factorization.of(("A", d_a)))]
        for i in range(1, n + 1):
            parts.append(phi_j.relabel({"X1": f"X{i}", "Y1": f"Y{i}"}))
        term = tensor_all(parts)
        total = term if total is None else total + term
    return ChoiChannel(total, d_a, d_x, d_y, n)


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------

def apply_channel(channel: ChoiChannel, rho: Operator) -> Operator:
    """Q(rho): rho lives on the input factors (A, X1..Xn), output on (Y1..Yn)."""
    in_labels = channel.input_labels
    if list(rho.labels) != in_labels or rho.shape.dims != tuple(
            channel.omega.shape.dim_of(l) for l in in_labels):
        raise TensorError(f"input state must live on {in_labels}")
    twisted = partial_transpose(channel.omega, in_labels)
    big = embed(rho, channel.omega.shape)
    prod = Operator(twisted.matrix @ big.matrix, channel.omega.shape)
    out = partial_trace(prod, channel.output_labels)
    return channel.d_in * out


def adjoint_apply(channel: ChoiChannel, obs: Operator) -> Operator:
    """Q*(obs) on the input factors, for obs on the output factors (Y1..Yn)."""
    out_labels = channel.output_labels
    if list(obs.labels) != out_labels:
        raise TensorError(f"observable must live on {out_labels}")
    twisted = partial_transpose(channel.omega, channel.input_labels)
    big = embed(obs, channel.omega.shape)
    prod = Operator(twisted.matrix @ big.matrix, channel.omega.shape)
    out = partial_trace(prod, channel.input_labels)
    return channel.d_in * out


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
    w = np.linalg.eigvalsh(
        (channel.omega.matrix + channel.omega.matrix.conj().T) / 2)
    psd_violation = max(0.0, float(-w.min()))
    marg = partial_trace(channel.omega, channel.input_labels)
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


def is_nonsignalling(channel: ChoiChannel, tol: float = NS_TOL) -> NonSignallingReport:
    """Per-round signalling residuals ‖M_i − (tr_{X≠i} M_i) ⊗ 1/d_x^{n−1}‖₁.

    M_i is the Choi marginal on (A, X1..Xn, Y_i).  A zero residual for round i
    means no other round's input can influence Y_i.  Trace norm, so the
    residual measures the total distinguishability bought by signalling.
    """
    n = channel.n
    residuals = []
    for i in range(1, n + 1):
        keep = ["A"] + [f"X{j}" for j in range(1, n + 1)] + [f"Y{i}"]
        m_i = partial_trace(channel.omega, keep)
        small = partial_trace(m_i, ["A", f"X{i}", f"Y{i}"])
        rebuilt = embed(small * (channel.d_x ** -(n - 1)), m_i.shape)
        residuals.append(float(trace_norm(m_i - rebuilt)))
    return NonSignallingReport(tuple(residuals))


# ---------------------------------------------------------------------------
# marginals of non-signalling channels
# ---------------------------------------------------------------------------

def reduction_residual(channel: ChoiChannel, k: int) -> float:
    """How far tr_{Y_{k+1..n}} omega is from (first-k marginal) ⊗ 1/d_x^{n−k}."""
    n = channel.n
    if not 1 <= k <= n:
        raise TensorError(f"k must be in 1..{n}, got {k}")
    if k == n:
        return 0.0
    keep = ["A"] + _round_labels(n)
    for i in range(k + 1, n + 1):
        keep.remove(f"Y{i}")
    reduced = partial_trace(channel.omega, keep)
    head = ["A"] + _round_labels(k)
    head_marg = partial_trace(reduced, head)
    rebuilt = embed(head_marg * (channel.d_x ** -(n - k)), reduced.shape)
    return float(trace_norm(reduced - rebuilt))


def marginal_channel(channel: ChoiChannel, k: int, tol: float = 1e-6) -> ChoiChannel:
    """First-k-rounds channel of a non-signalling channel.

    For a non-signalling channel, discarding the later outputs leaves the
    earlier rounds acting as a bona fide channel on (A, X1..Xk); the unused
    input factors decouple as maximally mixed and can be traced away.  Errors
    if the decoupling residual exceeds tol.
    """
    n = channel.n
    if not 1 <= k <= n:
        raise TensorError(f"k must be in 1..{n}, got {k}")
    if k == n:
        return channel
    res = reduction_residual(channel, k)
    if res > tol:
        raise TensorError(
            f"channel does not reduce at k={k}: residual {res:.3e} > {tol:g}; "
            "is it non-signalling?")
    head = ["A"] + _round_labels(k)
    omega_k = partial_trace(channel.omega, head)
    # renormalize: tracing Y factors keeps trace 1 but tracing X factors
    # already happened inside partial_trace, so omega_k has trace 1 still
    return ChoiChannel(omega_k, channel.d_a, channel.d_x, channel.d_y, k)


# ---------------------------------------------------------------------------
# symmetrization
# ---------------------------------------------------------------------------

def symmetrize_channel(channel: ChoiChannel, max_n: int = 6) -> ChoiChannel:
    """Average omega over simultaneous permutations of the (X_i, Y_i) pairs."""
    n = channel.n
    if n > max_n:
        raise TensorError(f"dense symmetrization supports n <= {max_n}, got {n}")
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
    """Orthogonal projection onto {omega : tr_out omega = 1/d_in}."""
    t = m.reshape(d_in, d_out, d_in, d_out)
    marg = np.einsum("iaja->ij", t)
    delta = np.eye(d_in) / d_in - marg
    return m + np.kron(delta, np.eye(d_out) / d_out)


def _project_ns_round(omega: Operator, i: int, channel_dims: tuple[int, int, int, int]) -> Operator:
    """Orthogonal projection onto the round-i non-signalling subspace."""
    d_a, d_x, d_y, n = channel_dims
    other_y = [f"Y{j}" for j in range(1, n + 1) if j != i]
    keep = [lab for lab in omega.labels if lab not in other_y]
    m_i = partial_trace(omega, keep)
    small = partial_trace(m_i, ["A", f"X{i}", f"Y{i}"])
    target = embed(small * (d_x ** -(n - 1)), m_i.shape)
    delta = target - m_i
    correction = embed(delta * (d_y ** -(n - 1)), omega.shape)
    return omega + correction


def _project_psd_trace(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    w = np.clip(w, 0, None)
    s = w.sum()
    if s <= 0:
        w = np.ones_like(w)
        s = w.sum()
    w /= s
    return (v * w) @ v.conj().T


def random_nonsignalling_choi(d_a: int, d_x: int, d_y: int, n: int,
                              seed: int | None = None,
                              max_iter: int = 5000,
                              tol: float = 1e-9) -> ChoiChannel:
    """Random non-signalling channel via Dykstra alternating projections.

    Starts from a Wishart-random density matrix and projects onto the
    intersection of: PSD with unit trace, trace-preserving, and the n
    non-signalling affine subspaces.  Dykstra corrections make the affine /
    convex alternation converge to the nearest point of the intersection,
    which for a generic start is a generic (typically signalling-free but
    entangled across rounds) non-signalling Choi state.
    """
    rng = np.random.default_rng(seed)
    fac = choi_factorization(d_a, d_x, d_y, n)
    dim = fac.dim
    d_in = d_a * d_x ** n
    d_out = d_y ** n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    corrections = [np.zeros((dim, dim), dtype=complex) for _ in range(n + 2)]

    for _ in range(max_iter):
        prev = m
        cur = m
        new_corr = []
        # affine projections (corrections are optional for affine sets but
        # harmless); PSD set needs a genuine Dykstra correction
        for j in range(n + 2):
            y = cur + corrections[j]
            if j == 0:
                p = _project_tp(y, d_in, d_out)
            elif j <= n:
                p = _project_ns_round(Operator(y, fac), j, (d_a, d_x, d_y, n)).matrix
            else:
                p = _project_psd_trace(y)
            new_corr.append(y - p)
            cur = p
        corrections = new_corr
        m = cur
        # convergence: every constraint satisfied at the current point
        if np.abs(m - prev).max() < tol:
            ch = ChoiChannel(Operator(_project_psd_trace(m), fac), d_a, d_x, d_y, n)
            if is_cptp(ch).ok and is_nonsignalling(ch).ok:
                return ch
    ch = ChoiChannel(Operator(_project_psd_trace(m), fac), d_a, d_x, d_y, n)
    rep_c, rep_ns = is_cptp(ch), is_nonsignalling(ch)
    if rep_c.ok and rep_ns.ok:
        return ch
    raise TensorError(
        f"alternating projections did not converge: tp={rep_c.tp_violation:.2e} "
        f"psd={rep_c.psd_violation:.2e} ns={rep_ns.max_residual:.2e}")
