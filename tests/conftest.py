import itertools
from functools import reduce
from math import comb, factorial, pi, prod, sqrt

import numpy as np
import pytest

from nslocc.channels import (
    ChoiChannel,
    MeasurePrepareChannel,
    NS_TOL,
    SAMPLER_MAX_ITER,
    SAMPLER_TOL,
    _project_nonsignalling,
    _round_labels,
    choi_factorization,
    choi_of_kraus,
    is_cptp,
    is_nonsignalling,
    marginal_input,
)
from nslocc.classical import ClassicalProtocol
from nslocc.definetti import MeasureGrid, SymmetricExtension, _dense_extension
from nslocc.locc import _repair_factors, tp_repair
from nslocc.tensor_core import (
    Factorization,
    Operator,
    TensorError,
    eigh_herm,
    op,
    permutation_matrix,
    trace_norm,
)


def oracle_partial_trace(operator: Operator, keep) -> Operator:
    """Reference partial trace: one factor at a time, right to left, each as
    the middle index of a (pre, d, post) split of rows and columns."""
    m, factors = operator.matrix, list(operator.shape.factors)
    for i in reversed(range(len(factors))):
        if factors[i][0] not in keep:
            dims = [d for _, d in factors]
            pre, d, post = int(np.prod(dims[:i])), dims[i], int(np.prod(dims[i + 1:]))
            t = m.reshape(pre, d, post, pre, d, post)
            m = np.einsum("aibcid->abcd", t).reshape(pre * post, pre * post)
            factors.pop(i)
    return Operator(m, Factorization(tuple(factors)))


def oracle_embed(operator: Operator, full: Factorization) -> Operator:
    """Reference embed: np.kron with an identity for each factor of `full`
    the operator lacks, one at a time, then one transpose of the
    (dims + dims) view into full's factor order."""
    m, factors = operator.matrix, list(operator.shape.factors)
    for lab, d in full.factors:
        if lab not in operator.labels:
            m = np.kron(m, np.eye(d))
            factors.append((lab, d))
    order = [lab for lab, _ in factors]
    perm = [order.index(lab) for lab in full.labels]
    t = m.reshape([d for _, d in factors] * 2)
    return Operator(t.transpose(perm + [len(perm) + p for p in perm]).reshape(
        full.dim, full.dim), full)


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product of labelled operators; the factorizations are
    concatenated, and a label on both sides is refused."""
    return Operator(np.kron(a.matrix, b.matrix), Factorization(a.shape.factors + b.shape.factors))


def input_labels(n: int) -> list[str]:
    """The input factors A, X1..Xn of an n-round Choi state."""
    return ["A"] + [f"X{i}" for i in range(1, n + 1)]


def oracle_partial_transpose(operator: Operator, subset) -> Operator:
    """Reference partial transpose: one factor at a time, swapping the middle
    index of a (pre, d, post) split between rows and columns."""
    dims, m = operator.shape.dims, operator.matrix
    for i, lab in enumerate(operator.labels):
        if lab in subset:
            pre, d, post = int(np.prod(dims[:i])), dims[i], int(np.prod(dims[i + 1:]))
            t = m.reshape(pre, d, post, pre, d, post)
            m = t.transpose(0, 4, 2, 3, 1, 5).reshape(operator.dim, operator.dim)
    return Operator(m, operator.shape)


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


def relabel(operator: Operator, mapping: dict[str, str]) -> Operator:
    """The operator with its factors renamed by mapping, same matrix."""
    return Operator(operator.matrix, Factorization(
        tuple((mapping.get(lab, lab), d) for lab, d in operator.shape.factors)))


def task_operators(task) -> tuple[Operator, Operator, Operator]:
    """A task's arrays as labelled operators: ρ_A on A, ρ_XR on (X1, R1)
    and S on (Y1, R1)."""
    pair, score = task.d_x * task.d_r, task.d_y * task.d_r
    return (op(task.rho_a, ("A", task.d_a)),
            op(task.rho_xr.reshape(pair, pair), ("X1", task.d_x), ("R1", task.d_r)),
            op(task.s.reshape(score, score), ("Y1", task.d_y), ("R1", task.d_r)))


def permutation_operator(perm, site_dim: int, prefix: str = "B") -> Operator:
    """permutation_matrix(perm, site_dim) on the factors prefix1..prefixn."""
    fac = Factorization.of(*((f"{prefix}{i + 1}", site_dim) for i in range(len(perm))))
    return Operator(permutation_matrix(perm, site_dim), fac)


def product_channel(single: ChoiChannel, n: int) -> ChoiChannel:
    """n-fold tensor power of a single-round channel (trivial A)."""
    if single.n != 1 or single.d_a != 1:
        raise TensorError("product_channel expects a single-round channel with d_a=1")
    parts = [op(np.eye(1), ("A", 1))]
    for i in range(1, n + 1):
        parts.append(relabel(single.omega, {"A": f"_a{i}", "X1": f"X{i}", "Y1": f"Y{i}"}))
    omega = reduce(tensor, parts)
    omega = oracle_partial_trace(omega, set(["A"] + _round_labels(n)))
    return ChoiChannel(omega, 1, single.d_x, single.d_y, n)


def adjoint_apply(channel: ChoiChannel, obs: Operator) -> Operator:
    """Q*(obs) on the input factors, for obs on the output factors (Y1..Yn)."""
    out_labels = [f"Y{i}" for i in range(1, channel.n + 1)]
    if list(obs.labels) != out_labels:
        raise TensorError(f"observable must live on {out_labels}")
    twisted = oracle_partial_transpose(channel.omega, input_labels(channel.n))
    big = oracle_embed(obs, channel.omega.shape)
    prod = Operator(twisted.matrix @ big.matrix, channel.omega.shape)
    out = oracle_partial_trace(prod, input_labels(channel.n))
    return Operator(out.matrix * channel.d_in, out.shape)


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


def mixed_product_protocol(na: int, nx: int, ny: int, n: int, seed: int,
                           count: int = 3) -> ClassicalProtocol:
    """A non-signalling table that no round permutation fixes, built without
    a sampler: P(y|a,x) = sum_l w_l prod_i q_{l,i,a}(y_i|x_i), a mixture of
    products of random per-round, per-a stochastic maps, one outer product
    per round."""
    rng = np.random.default_rng(seed)
    maps = rng.random((count, n, na, nx, ny))
    maps /= maps.sum(axis=4, keepdims=True)
    table = 0.0
    for w, rounds in zip(rng.dirichlet(np.ones(count)), maps):
        term = np.full(na, w)                           # axes (a, x1, y1, .., xi, yi)
        for i, q in enumerate(rounds):
            term = term[..., None, None] * q.reshape((na,) + (1,) * (2 * i) + (nx, ny))
        table = table + term
    axes = [0] + [1 + 2 * i for i in range(n)] + [2 + 2 * i for i in range(n)]
    return ClassicalProtocol(table.transpose(axes), na, nx, ny, n)


def mixture_to_stochastic(mu: np.ndarray) -> np.ndarray:
    """q(y|x) of a classifier mixture mu, of shape (ny,)*nx and weight mu[f] on
    the function f, as an (ny, nx) column-stochastic matrix."""
    nx, ny = mu.ndim, mu.shape[0]
    q = np.zeros((ny, nx))
    for f in np.ndindex(mu.shape):
        for x, y in enumerate(f):
            q[y, x] += mu[f]
    return q


def oracle_reconstruct_table(mus: list[np.ndarray], n: int) -> np.ndarray:
    """Reference i.i.d. table P(y_{1:n}|a, x_{1:n}) = sum_f mu_a[f] prod_i
    delta_{y_i, f(x_i)} of per-a classifier mixtures, one (a, f, x^n) at a time."""
    nx, ny = mus[0].ndim, mus[0].shape[0]
    table = np.zeros((len(mus),) + (nx,) * n + (ny,) * n)
    for a, mu in enumerate(mus):
        for f in np.ndindex(mu.shape):
            for xs in itertools.product(range(nx), repeat=n):
                table[(a,) + xs + tuple(f[x] for x in xs)] += mu[f]
    return table


def oracle_classical_risk(p: ClassicalProtocol, dist: np.ndarray, a: int) -> float:
    """Reference classical risk: the mean 0-1 loss over rounds, by exact
    enumeration of every (x^n, y_ref^n, y^n) tuple."""
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


def random_unitary(rng, d: int) -> np.ndarray:
    """A Haar-random d x d unitary: QR of a complex Gaussian, phases fixed."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


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
    preps = [oracle_partial_trace(choi_of_kraus(random_kraus(rng, d_x, d_y, count=rank),
                                                d_x, d_y).omega, ["X1", "Y1"])
             for _ in range(2)]
    return povm, preps


def prepare_state_choi(vec: np.ndarray) -> Operator:
    """Single-round Choi state of the channel that always prepares |vec>."""
    d = len(vec)
    kraus = [np.outer(vec, e) for e in np.eye(d)]
    return oracle_partial_trace(choi_of_kraus(kraus, d, d).omega, ["X1", "Y1"])


def classifier_choi(basis: np.ndarray) -> Operator:
    """Choi of: measure the input in `basis`, output the outcome label."""
    d = basis.shape[1]
    kraus = [np.outer(np.eye(d)[y], basis[:, y].conj()) for y in range(d)]
    return oracle_partial_trace(choi_of_kraus(kraus, d, d).omega, ["X1", "Y1"])


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


def oracle_symmetric_projector(n: int, d: int) -> np.ndarray:
    """Reference symmetric projector: the average of all n! dense permutation matrices."""
    perms = list(itertools.permutations(range(n)))
    return sum(dense_permutation(perm, d) for perm in perms) / len(perms)


def oracle_resolution_residual(vectors: np.ndarray, weights: np.ndarray,
                               n: int) -> float:
    """Reference grid residual ‖sum_g w_g D |phi_g^n><phi_g^n| − P_sym‖₁ on the
    full d^n space, d the vectors' dimension: phi_g^{⊗n} by repeated outer
    products, P_sym as the average of dense permutation matrices."""
    d = vectors.shape[1]
    stack = vectors
    for _ in range(n - 1):
        stack = np.einsum("gi,gj->gij", stack, vectors).reshape(len(vectors), -1)
    proj = oracle_symmetric_projector(n, d)
    t = (weights[:, None] * stack).T @ stack.conj() * comb(n + d - 1, n)
    return float(trace_norm(t - proj))


def loop_marginal_choi(protocol) -> np.ndarray:
    """Reference single-round protocol marginal: sum_k kron(M_k^T / d_A, φ_k)."""
    return sum(np.kron(m.T / protocol.d_a, c)
               for m, c in zip(protocol.povm, protocol.chois))


def symmetrized_risk_observable(s: Operator, n: int) -> Operator:
    """S̄ on (Y1, R1, ..., Yn, Rn): the per-round score averaged over rounds."""
    d_y = s.shape.dim_of("Y1")
    d_r = s.shape.dim_of("R1")
    factors = []
    for i in range(1, n + 1):
        factors += [(f"Y{i}", d_y), (f"R{i}", d_r)]
    full = Factorization.of(*factors)
    total = sum(oracle_embed(relabel(s, {"Y1": f"Y{i}", "R1": f"R{i}"}), full).matrix
                for i in range(1, n + 1))
    return Operator(total * (1.0 / n), full)


def oracle_risk_direct(q, task) -> float:
    """Reference direct risk: the input state ρ_A ⊗ ρ_XR^{⊗n}, the Choi state
    and S̄ embedded into the full (A, X, Y, R)^n space, and
    d_A·d_X^n·tr[ω^{T_in} ρ_in S̄] there."""
    n = q.n
    factors = [("A", task.d_a)]
    for i in range(1, n + 1):
        factors += [(f"X{i}", task.d_x), (f"Y{i}", task.d_y), (f"R{i}", task.d_r)]
    full = Factorization.of(*factors)
    rho_a, rho_xr, s = task_operators(task)
    parts = [rho_a] + [relabel(rho_xr, {"X1": f"X{i}", "R1": f"R{i}"})
                       for i in range(1, n + 1)]
    rho_in = oracle_embed(reduce(tensor, parts), full)
    omega = q.dense().omega if isinstance(q, MeasurePrepareChannel) else q.omega
    twisted = oracle_partial_transpose(oracle_embed(omega, full), input_labels(n))
    s_bar = oracle_embed(symmetrized_risk_observable(s, n), full)
    # tr(A B) as the elementwise sum of A * B^T: one matrix product, not two
    val = task.d_a * task.d_x ** n * np.sum((twisted.matrix @ rho_in.matrix) * s_bar.matrix.T)
    return float(val.real)


def oracle_signalling_residuals(channel) -> list[float]:
    """Reference per-round ‖M_i − (tr_{X≠i} M_i) ⊗ 1/d_x^{n−1}‖₁ through
    labelled partial traces, M_i kept in the Choi factor order."""
    n = channel.n
    out = []
    for i in range(1, n + 1):
        keep = ["A"] + [f"X{j}" for j in range(1, n + 1)] + [f"Y{i}"]
        m_i = oracle_partial_trace(channel.omega, keep)
        small = oracle_partial_trace(m_i, ["A", f"X{i}", f"Y{i}"])
        spread = oracle_embed(Operator(small.matrix * channel.d_x ** -(n - 1), small.shape),
                              m_i.shape)
        out.append(trace_norm(m_i.matrix - spread.matrix))
    return out


def oracle_project_ns_round(m: np.ndarray, dims, i: int) -> np.ndarray:
    """Reference round-i non-signalling projection through Operators: subtract
    the round-i marginal's signalling part, embedded with 1_{Y≠i}/d_y^{n−1}."""
    d_a, d_x, d_y, n = dims
    omega = Operator(m, choi_factorization(*dims))
    other_y = [f"Y{j}" for j in range(1, n + 1) if j != i]
    m_i = oracle_partial_trace(omega, [lab for lab in omega.labels if lab not in other_y])
    small = oracle_partial_trace(m_i, ["A", f"X{i}", f"Y{i}"])
    target = oracle_embed(Operator(small.matrix * (d_x ** -(n - 1)), small.shape), m_i.shape)
    fix = Operator((target.matrix - m_i.matrix) * (d_y ** -(n - 1)), m_i.shape)
    return omega.matrix + oracle_embed(fix, omega.shape).matrix


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bit patterns: unlike np.array_equal, 0.0 and -0.0
    differ, as they do in a JSON output."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def oracle_project_tp_kron(m: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """channels._project_tp as a dense sum: m + (1/d_in − marginal) ⊗ 1/d_out."""
    marg = np.einsum("iaja->ij", m.reshape(d_in, d_out, d_in, d_out))
    delta = np.eye(d_in) / d_in - marg
    return m + np.kron(delta, np.eye(d_out) / d_out)


def oracle_project_psd_trace_mask(m: np.ndarray) -> np.ndarray:
    """channels._project_psd_trace with the negative eigenpairs gathered by a
    boolean mask and every step in a fresh array."""
    h = (m + m.conj().T) / 2
    w, v = np.linalg.eigh(h)
    s = w[w > 0].sum()
    if s <= 0:
        return np.eye(len(m), dtype=complex) / len(m)
    v_neg = v[:, w < 0]
    return (h - (v_neg * w[w < 0]) @ v_neg.conj().T) / s


def oracle_sampler_loop(d_a, d_x, d_y, n, seed) -> np.ndarray:
    """random_nonsignalling_choi's sweep built from the oracle projections
    above, each sweep's arrays fresh; the same arithmetic in the same order,
    so its Choi state should match the sampler's bit for bit."""
    dims = (d_a, d_x, d_y, n)
    fac = choi_factorization(*dims)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((fac.dim,) * 2) + 1j * rng.standard_normal((fac.dim,) * 2)
    m = g @ g.conj().T
    m /= np.trace(m).real
    correction = np.zeros_like(m)
    for _ in range(SAMPLER_MAX_ITER):
        prev = m
        y = _project_nonsignalling(oracle_project_tp_kron(m, d_a * d_x ** n, d_y ** n),
                                   dims) + correction
        m = oracle_project_psd_trace_mask(y)
        correction = y - m
        if np.abs(m - prev).max() < SAMPLER_TOL:
            ch = ChoiChannel(Operator(m, fac), *dims)
            if is_nonsignalling(ch).ok and is_cptp(ch).ok:
                return m
    raise AssertionError("oracle sweep did not converge")


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
                cur = oracle_project_tp_kron(y, d_a * d_x ** n, d_y ** n)
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
    """Reference repair through labelled Operators: τ = tr_Y φ by
    oracle_partial_trace, then the dense sandwich
    kron(τ^{-1/2}, 1) φ kron(τ^{-1/2}, 1) / d_X."""
    tau = oracle_partial_trace(phi, [phi.labels[0]]).matrix
    w, v = np.linalg.eigh((tau + tau.conj().T) / 2)
    d_x = len(tau)
    big = np.kron((v * (1.0 / np.sqrt(w))) @ v.conj().T, np.eye(phi.dim // d_x))
    return Operator(big @ phi.matrix @ big / d_x, phi.shape)


def repair_one(phi: np.ndarray, d_x: int, d_y: int) -> np.ndarray:
    """locc.tp_repair of one state on (X, Y), with its factor from an
    eigensolve of its own input marginal."""
    w, v = eigh_herm(marginal_input(phi, d_x, d_y), check=True)
    return tp_repair(phi, _repair_factors(w, v, d_y))


def oracle_einsum_repair(phi: np.ndarray, inv_root: np.ndarray, d_x: int) -> np.ndarray:
    """Reference sandwich (1/d_X)(τ^{-1/2} ⊗ 1) φ (τ^{-1/2} ⊗ 1) as one
    einsum over the (X, Y, X, Y) view of φ, given inv_root = τ^{-1/2}."""
    d_y = phi.shape[-1] // d_x
    t = phi.reshape(d_x, d_y, d_x, d_y)
    out = np.einsum("xa,aybw,bz->xyzw", inv_root, t, inv_root) / d_x
    return out.reshape(phi.shape)


def oracle_r_operator(task) -> np.ndarray:
    """Reference risk kernel tr_R[(ρ_A ⊗ ρ_XR ⊗ 1_Y)^{T_{AX}} (1_{AX} ⊗ S)]
    through labelled embeds, a partial transpose and a partial trace over
    (A, X1, Y1, R1), then made Hermitian as (R + R†)/2."""
    rho_a, rho_xr, s = task_operators(task)
    full = Factorization.of(("A", task.d_a), ("X1", task.d_x),
                            ("Y1", task.d_y), ("R1", task.d_r))
    twisted = oracle_partial_transpose(oracle_embed(tensor(rho_a, rho_xr), full), ["A", "X1"])
    product = Operator(twisted.matrix @ oracle_embed(s, full).matrix, full)
    r = oracle_partial_trace(product, ["A", "X1", "Y1"]).matrix
    return (r + r.conj().T) / 2


def oracle_task_matrices(kind: str, priors, states) -> tuple[np.ndarray, ...]:
    """Reference (ρ_A, ρ_XR, S) of a classification or tomography task as
    sums of np.kron products: ρ_A = ρ_1 ⊗ … ⊗ ρ_L, ρ_XR = sum_y p_y ρ_y ⊗
    |y><y| (classification) or sum_x p_x |x><x| ⊗ ρ_x (tomography), and S =
    1 − sum_y |yy><yy| or 1 − SWAP."""
    mats = [np.asarray(m, complex) for m in states]
    d, labels = len(mats[0]), len(mats)
    units = [np.diag(row) for row in np.eye(labels)]
    rho_a = reduce(np.kron, mats)
    if kind == "classification":
        rho_xr = sum(p * np.kron(m, e) for p, m, e in zip(priors, mats, units))
        s = np.eye(labels * labels) - sum(np.kron(e, e) for e in units)
    else:
        rho_xr = sum(p * np.kron(e, m) for p, m, e in zip(priors, mats, units))
        s = np.eye(d * d) - permutation_matrix((1, 0), d).real
    return rho_a, rho_xr, s


def oracle_design_grid(n: int) -> MeasureGrid:
    """The exact resolution of Sym^n on qubit sites: a product quadrature,
    Gauss-Legendre in the polar coordinate times a uniform azimuth, which
    integrates every matrix element of phi^{⊗n}(phi^{⊗n})† exactly, so the
    grid reproduces the symmetric projector to machine precision at n and at
    every smaller n."""
    nodes_u, w_u = np.polynomial.legendre.leggauss(n + 1)
    k_az = 2 * n + 1
    vecs, ws = [], []
    for u, wu in zip(nodes_u, w_u):
        c = sqrt((1.0 + u) / 2.0)
        s = sqrt((1.0 - u) / 2.0)
        for b in range(k_az):
            phase = np.exp(2j * pi * b / k_az)
            vecs.append([c, s * phase])
            ws.append(wu / 2.0 / k_az)
    weights = np.asarray(ws, float)
    return MeasureGrid(np.asarray(vecs, complex), weights / weights.sum(), 2, "design")


def oracle_dicke_coordinates(vectors: np.ndarray, n: int) -> np.ndarray:
    """Reference Dicke coordinates, one sorted index tuple at a time, with
    the multinomial from Python's exact factorials."""
    d = vectors.shape[1]
    tuples = list(itertools.combinations_with_replacement(range(d), n))
    scale = np.array([sqrt(factorial(n) // prod(factorial(t.count(i)) for i in set(t)))
                      for t in tuples])
    idx = np.array(tuples, dtype=int).reshape(len(tuples), n)
    return scale * vectors[:, idx].prod(axis=2)


def oracle_purify_extension(omega: np.ndarray, d_a: int, n: int,
                            floor: bool = False) -> SymmetricExtension:
    """Reference purification vec √omega of a state on (A, B1..Bn), A of
    dimension d_a, from a complex128 eigensolve: every eigenpair (the full
    spectrum), or with `floor` only those above the w_max · D · eps rank floor."""
    d = round((len(omega) // d_a) ** (1 / n))
    w, v = np.linalg.eigh((omega + omega.conj().T) / 2)
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
    """The state an extension leaves on the unprimed (A, B1..Bn): its own
    when it keeps the physical sites, and otherwise what is left when the
    mirror copies are traced out."""
    n, d_a, d = ext.n, ext.d_a, ext.site_keep_dim
    if ext.site_dim == d:
        r = extension_psi(ext).reshape(-1, 1)
    else:
        t = extension_psi(ext).reshape((d_a, d_a) + (d, d) * n)
        r = t.transpose([0] + [2 + 2 * i for i in range(n)]
                        + [1] + [3 + 2 * i for i in range(n)])
        r = r.reshape(d_a * d ** n, -1)
    return r @ r.conj().T


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
