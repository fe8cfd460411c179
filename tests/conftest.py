import itertools
from math import comb

import numpy as np
import pytest

from nslocc.channels import (
    ChoiChannel,
    NS_TOL,
    _project_tp,
    _round_labels,
    choi_factorization,
    choi_of_kraus,
    is_cptp,
)
from nslocc.classical import ClassicalProtocol, ClassifierMixture
from nslocc.definetti import SymmetricExtension, _dense_extension
from nslocc.tensor_core import (
    Factorization,
    Operator,
    TensorError,
    eigh_herm,
    embed,
    identity,
    partial_trace,
    partial_transpose,
    permutation_matrix,
    tensor_all,
    trace_norm,
)


def herm_fn(operator: Operator, f, cutoff: float | None = None) -> Operator:
    """Apply f to the eigenvalues of a Hermitian operator.

    With a cutoff, eigenvalues of magnitude <= cutoff are sent to 0 instead of
    through f (pseudo-inverse convention).
    """
    w, v = eigh_herm(operator.matrix, check=True)
    if cutoff is None:
        fw = np.asarray(f(w), dtype=float)
    else:
        live = np.abs(w) > cutoff
        fw = np.zeros_like(w)
        if live.any():
            fw[live] = f(w[live])
    return Operator((v * fw) @ v.conj().T, operator.shape)


def permutation_operator(perm, site_dim: int, prefix: str = "B") -> Operator:
    """permutation_matrix(perm, site_dim) on the factors prefix1..prefixn."""
    fac = Factorization.of(*((f"{prefix}{i + 1}", site_dim) for i in range(len(perm))))
    return Operator(permutation_matrix(perm, site_dim), fac)


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


def product_protocol(maps: list[np.ndarray], n: int) -> ClassicalProtocol:
    """P(y|a,x) = prod_i q_a(y_i|x_i) from per-a stochastic maps (ny, nx)."""
    na = len(maps)
    ny, nx = maps[0].shape
    table = np.zeros((na,) + (nx,) * n + (ny,) * n)
    for a, q in enumerate(maps):
        for xs in itertools.product(range(nx), repeat=n):
            for ys in itertools.product(range(ny), repeat=n):
                table[(a,) + xs + ys] = np.prod([q[y, x] for x, y in zip(xs, ys)])
    return ClassicalProtocol(table, na, nx, ny, n)


def mixture_to_stochastic(mix: ClassifierMixture) -> np.ndarray:
    """q(y|x) of a classifier mixture as an (ny, nx) column-stochastic matrix."""
    q = np.zeros((mix.ny, mix.nx))
    for f, w in zip(mix.functions, mix.weights):
        for x, y in enumerate(f):
            q[y, x] += w
    return q


def random_density(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_kraus(rng, d_in: int, d_out: int, count: int = 4) -> list[np.ndarray]:
    """A random CPTP channel as a normalized Kraus family."""
    ops = rng.standard_normal((count, d_out, d_in)) \
        + 1j * rng.standard_normal((count, d_out, d_in))
    norm = sum(k.conj().T @ k for k in ops)
    w, v = np.linalg.eigh(norm)
    fix = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return [k @ fix for k in ops]


def random_pure(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_measure_prepare(rng, d_a: int, d_x: int, d_y: int,
                           rank: int) -> tuple[list[Operator], list[Operator]]:
    """A complex two-outcome projective POVM on A, each projector of rank
    d_a/2 for even d_a, and two random channels' Choi states on (X1, Y1),
    each of rank at most `rank`."""
    u, _ = np.linalg.qr(rng.standard_normal((d_a, d_a))
                        + 1j * rng.standard_normal((d_a, d_a)))
    half = u[:, :d_a // 2]
    proj = half @ half.conj().T
    povm = [Operator(p, Factorization.of(("A", d_a))) for p in (proj, np.eye(d_a) - proj)]
    preps = [partial_trace(choi_of_kraus(random_kraus(rng, d_x, d_y, count=rank),
                                         d_x, d_y).omega, ["X1", "Y1"])
             for _ in range(2)]
    return povm, preps


def prepare_state_choi(vec: np.ndarray) -> Operator:
    """Single-round Choi state of the channel that always prepares |vec>."""
    d = len(vec)
    kraus = [np.outer(vec, e) for e in np.eye(d)]
    return partial_trace(choi_of_kraus(kraus, d, d).omega, ["X1", "Y1"])


def classifier_choi(basis: np.ndarray) -> Operator:
    """Choi of: measure the input in `basis`, output the outcome label."""
    d = basis.shape[1]
    kraus = [np.outer(np.eye(d)[y], basis[:, y].conj()) for y in range(d)]
    return partial_trace(choi_of_kraus(kraus, d, d).omega, ["X1", "Y1"])


def dense_permutation(perm, d: int) -> np.ndarray:
    """Reference P_perm from basis digits: position k of |i_1..i_n> moves to perm[k]."""
    n = len(perm)
    digits = np.array(np.unravel_index(np.arange(d ** n), (d,) * n))
    moved = np.empty_like(digits)
    moved[list(perm)] = digits
    p = np.zeros((d ** n, d ** n))
    p[np.ravel_multi_index(tuple(moved), (d,) * n), np.arange(d ** n)] = 1.0
    return p


def dense_symmetrize(omega: np.ndarray, d_a: int, d_site: int, n: int) -> np.ndarray:
    """Reference S_n average of kron(1_A, P) omega P† over dense permutation matrices."""
    total = np.zeros_like(omega)
    perms = list(itertools.permutations(range(n)))
    for perm in perms:
        p = np.kron(np.eye(d_a), dense_permutation(perm, d_site))
        total += p @ omega @ p.conj().T
    return total / len(perms)


def oracle_resolution_residual(vectors: np.ndarray, weights: np.ndarray,
                               n: int, d: int) -> float:
    """Reference grid residual ‖sum_g w_g D |phi_g^n><phi_g^n| − P_sym‖₁ on the
    full d^n space: phi_g^{⊗n} by repeated outer products, P_sym as the
    average of dense permutation matrices."""
    stack = vectors
    for _ in range(n - 1):
        stack = np.einsum("gi,gj->gij", stack, vectors).reshape(len(vectors), -1)
    perms = list(itertools.permutations(range(n)))
    proj = sum(dense_permutation(perm, d) for perm in perms) / len(perms)
    t = (weights[:, None] * stack).T @ stack.conj() * comb(n + d - 1, n)
    return float(trace_norm(t - proj))


def loop_marginal_choi(protocol) -> np.ndarray:
    """Reference single-round protocol marginal: sum_k kron(M_k^T / d_A, φ_k)."""
    return sum(np.kron(m.T / protocol.d_a, c)
               for m, c in zip(protocol.povm, protocol.chois))


def oracle_signalling_residuals(channel) -> list[float]:
    """Reference per-round ‖M_i − (tr_{X≠i} M_i) ⊗ 1/d_x^{n−1}‖₁ through
    labelled partial traces, M_i kept in the Choi factor order."""
    n = channel.n
    out = []
    for i in range(1, n + 1):
        keep = ["A"] + [f"X{j}" for j in range(1, n + 1)] + [f"Y{i}"]
        m_i = partial_trace(channel.omega, keep)
        small = partial_trace(m_i, ["A", f"X{i}", f"Y{i}"])
        out.append(trace_norm(m_i - embed(small * channel.d_x ** -(n - 1), m_i.shape)))
    return out


def oracle_project_ns_round(m: np.ndarray, dims, i: int) -> np.ndarray:
    """Reference round-i non-signalling projection through Operators: subtract
    the round-i marginal's signalling part, embedded with 1_{Y≠i}/d_y^{n−1}."""
    d_a, d_x, d_y, n = dims
    omega = Operator(m, choi_factorization(*dims))
    other_y = [f"Y{j}" for j in range(1, n + 1) if j != i]
    m_i = partial_trace(omega, [lab for lab in omega.labels if lab not in other_y])
    small = partial_trace(m_i, ["A", f"X{i}", f"Y{i}"])
    target = embed(small * (d_x ** -(n - 1)), m_i.shape)
    return (omega + embed((target - m_i) * (d_y ** -(n - 1)), omega.shape)).matrix


def _oracle_psd_trace(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    w = np.clip(w, 0, None)
    if w.sum() <= 0:
        w = np.ones_like(w)
    return (v * (w / w.sum())) @ v.conj().T


def oracle_random_nonsignalling_choi(d_a, d_x, d_y, n, seed, max_iter=5000,
                                     tol=1e-9) -> np.ndarray:
    """Reference sampler: a Dykstra correction on every one of the n + 2 steps,
    the PSD step rebuilt from all eigenpairs, one more PSD step at the end."""
    dims = (d_a, d_x, d_y, n)
    fac = choi_factorization(*dims)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((fac.dim, fac.dim)) + 1j * rng.standard_normal((fac.dim, fac.dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    corrections = [np.zeros_like(m) for _ in range(n + 2)]
    for _ in range(max_iter):
        prev = cur = m
        for j in range(n + 2):
            y = cur + corrections[j]
            if j == 0:
                cur = _project_tp(y, d_a * d_x ** n, d_y ** n)
            elif j <= n:
                cur = oracle_project_ns_round(y, dims, j)
            else:
                cur = _oracle_psd_trace(y)
            corrections[j] = y - cur
        m = cur
        if np.abs(m - prev).max() < tol:
            ch = ChoiChannel(Operator(_oracle_psd_trace(m), fac), *dims)
            if is_cptp(ch).ok and max(oracle_signalling_residuals(ch)) <= NS_TOL:
                return ch.omega.matrix
    raise AssertionError("oracle sampler did not converge")


def oracle_tp_repair(phi: Operator) -> Operator:
    """Reference repair through labelled Operators: τ = tr_Y φ by partial_trace,
    then the dense sandwich kron(τ^{-1/2}, 1) φ kron(τ^{-1/2}, 1) / d_X."""
    tau = partial_trace(phi, [phi.labels[0]])
    w, v = np.linalg.eigh(tau.hermitize().matrix)
    d_x = tau.dim
    big = np.kron((v * (1.0 / np.sqrt(w))) @ v.conj().T, np.eye(phi.dim // d_x))
    return Operator(big @ phi.matrix @ big / d_x, phi.shape)


def oracle_purify_extension(omega: Operator, floor: bool = False) -> SymmetricExtension:
    """Reference purification vec √omega from a complex128 eigensolve: every
    eigenpair (the full spectrum), or with `floor` only those above the
    w_max · D · eps rank floor.  A missing A factor means d_a = 1."""
    dims = omega.shape.dims
    d_a, sites = (dims[0], dims[1:]) if omega.labels[0] == "A" else (1, dims)
    d, n = sites[0], len(sites)
    w, v = np.linalg.eigh(np.asarray(omega.hermitize().matrix, complex))
    w = np.clip(w, 0, None)
    keep = w > w[-1] * len(w) * np.finfo(float).eps if floor else w >= 0
    root = (v[:, keep] * np.sqrt(w[keep])) @ v[:, keep].conj().T
    order = [0, n + 1] + [ax for i in range(n) for ax in (1 + i, n + 2 + i)]
    psi = root.reshape((d_a,) + (d,) * n + (d_a,) + (d,) * n).transpose(order)
    psi = psi.reshape(d_a * d_a, (d * d) ** n)
    return _dense_extension(psi / np.linalg.norm(psi), d_a, d * d, d, n, 0.0)


def extension_psi(ext: SymmetricExtension) -> np.ndarray:
    """The dense state matrix (block, site_dim**n) of an extension, the sum
    over its terms t of coeffs[t] ⊗ sites[index[0, t]] ⊗ .. ⊗ sites[index[n−1, t]].

    Identity sites put each term on one basis product, so the terms are
    scattered there.  Other sites are multiplied in left to right, and the
    terms that agree on every site still to come are summed before the next
    one, so no array holds all T x site_dim**n products."""
    d, n = ext.site_dim, ext.n
    if ext.sites.shape == (d, d) and np.array_equal(ext.sites, np.eye(d)):
        psi = np.zeros((ext.coeffs.shape[1], d ** n), dtype=ext.coeffs.dtype)
        np.add.at(psi.T, np.ravel_multi_index(tuple(ext.index), (d,) * n), ext.coeffs)
        return psi
    z, rest = ext.coeffs[:, :, None], ext.index      # z: (terms, block, d^i)
    for _ in range(n):
        z = (z[..., None] * ext.sites[rest[0]][:, None, None, :]).reshape(
            len(z), z.shape[1], -1)
        rest = rest[1:]
        if not len(rest):
            return z.sum(axis=0)
        rest, group = np.unique(rest, axis=1, return_inverse=True)
        order = np.argsort(group.ravel(), kind="stable")
        starts = np.flatnonzero(np.r_[True, np.diff(group.ravel()[order])])
        z = np.add.reduceat(z[order], starts, axis=0)


def unprimed_state(ext: SymmetricExtension) -> np.ndarray:
    """The state a purified extension leaves on the unprimed (A, B1..Bn)
    when the mirror copies are traced out."""
    n, d_a, d = ext.n, ext.d_a, ext.site_keep_dim
    t = extension_psi(ext).reshape((d_a, d_a) + (d, d) * n)
    r = t.transpose([0] + [2 + 2 * i for i in range(n)]
                    + [1] + [3 + 2 * i for i in range(n)])
    r = r.reshape(d_a * d ** n, -1)
    return r @ r.conj().T


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
