"""Dense complex linear algebra on tensor-product spaces.

The pipeline computes on plain arrays and their (dims + dims) views, factor
i of k being axes i and k + i; `permute_sites` and `symmetrize_sites` are its
one site-permutation kernel.  Labels stay at the boundary: an `Operator`
carries the ordered (label, dim) factors of the space it acts on, so an
operator handed in or written out names its registers, and `partial_trace`
and `embed` take them by name.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import comb, prod
from typing import Iterable, Sequence

import numpy as np

HERM_TOL = 1e-9
PSD_TOL = 1e-8
# Bytes of the largest dense complex operator a dense constructor may build:
# side 4096, 256 MiB.  A risk-gap run peaks near six operator-sized arrays, so
# this caps it near 1.5 GiB.
DENSE_BYTES_BUDGET = 1 << 28


class TensorError(ValueError):
    """Shape, label or contract violation in a tensor_core operation."""


def check_dense_budget(side: int, what: str, cols: int | None = None) -> None:
    """Refuse, before it is allocated, a dense complex side x side operator,
    or side x cols array, whose size exceeds DENSE_BYTES_BUDGET."""
    nbytes = 16 * side * (side if cols is None else cols)
    if nbytes > DENSE_BYTES_BUDGET:
        shape = f"{side} x {side} operator" if cols is None else f"{side} x {cols} array"
        raise TensorError(
            f"{what} needs a dense {shape} ({nbytes / 2 ** 20:.0f} MiB), "
            f"over the {DENSE_BYTES_BUDGET / 2 ** 20:.0f} MiB budget")


def dense_budget_rows(row_items: int) -> int:
    """How many rows of row_items complex entries fit in DENSE_BYTES_BUDGET
    (at least one): the chunk size for work done a block of rows at a time."""
    return max(1, DENSE_BYTES_BUDGET // (16 * row_items))


@dataclass(frozen=True)
class Operator:
    """Square complex matrix on the tensor product of its ordered (label, dim)
    factors. Immutable after creation."""

    matrix: np.ndarray = field(repr=False)
    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        factors = tuple((str(lab), int(d)) for lab, d in self.factors)
        labels = [lab for lab, _ in factors]
        if len(set(labels)) != len(labels):
            raise TensorError(f"duplicate factor labels: {labels}")
        for lab, d in factors:
            if d < 1:
                raise TensorError(f"factor {lab!r} has non-positive dim {d}")
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise TensorError(f"operator matrix must be square, got {m.shape}")
        side = prod(d for _, d in factors)
        if m.shape[0] != side:
            raise TensorError(f"matrix side {m.shape[0]} != product of factor dims {side}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "factors", factors)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)


def op(matrix: np.ndarray, *factors: tuple[str, int]) -> Operator:
    return Operator(matrix, factors)


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

def partial_trace(operator: Operator, keep: Iterable[str]) -> Operator:
    """Trace out every factor not in `keep`; factor order is preserved."""
    keep = set(keep)
    unknown = keep - set(operator.labels)
    if unknown:
        raise TensorError(f"unknown labels in keep set: {sorted(unknown)}")
    k = len(operator.labels)
    kept = [i for i, lab in enumerate(operator.labels) if lab in keep]
    # a traced factor's column axis takes its row axis's subscript (52 at most)
    cols = [k + i if lab in keep else i for i, lab in enumerate(operator.labels)]
    t = np.einsum(operator.matrix.reshape(operator.dims * 2),
                  list(range(k)) + cols, kept + [k + i for i in kept])
    factors = tuple(operator.factors[i] for i in kept)
    return Operator(t.reshape(prod(d for _, d in factors), -1), factors)


def kron_power(stack: np.ndarray, k: int) -> np.ndarray:
    """Batched Kronecker power: out[g] = stack[g]^{⊗k} for a (G, a, b) stack.
    A result over DENSE_BYTES_BUDGET is refused before it is built."""
    count, a, b = stack.shape
    if 16 * count * (a * b) ** k > DENSE_BYTES_BUDGET:
        raise TensorError(f"kron_power needs {count} dense {a ** k} x {b ** k} matrices, "
                          f"over the {DENSE_BYTES_BUDGET / 2 ** 20:.0f} MiB budget")
    out = np.ones((count, 1, 1), dtype=stack.dtype)
    for _ in range(k):
        out = np.einsum("gij,gkl->gikjl", out, stack).reshape(
            count, out.shape[1] * stack.shape[1], out.shape[2] * stack.shape[2])
    return out


def embed(operator: Operator, full: Sequence[tuple[str, int]]) -> Operator:
    """Tensor with identity on the (label, dim) factors of `full` it lacks, in
    full's order: one np.kron, then one transpose of the (dims + dims) view."""
    missing = tuple(f for f in full if f[0] not in operator.labels)
    have = operator.factors + missing
    if len(dict(full)) != len(full) or sorted(have) != sorted(full):
        raise TensorError(f"cannot embed {operator.factors} in {tuple(full)}")
    perm = [have.index(f) for f in full]
    k = np.kron(operator.matrix, np.eye(prod(d for _, d in missing)))
    t = k.reshape([d for _, d in have] * 2).transpose(perm + [len(perm) + p for p in perm])
    return Operator(t.reshape(k.shape), full)


# ---------------------------------------------------------------------------
# spectral quantities
# ---------------------------------------------------------------------------

def eigh_herm(m: np.ndarray, vectors: bool = True, check: bool = False):
    """Ascending eigenvalues, and eigenvectors unless `vectors` is False, of the
    Hermitian part of a matrix or of each matrix of a stack (`_hermitian_part`,
    so LAPACK solves in real arithmetic, a fraction of the complex solve's
    cost, when that part has no imaginary part)."""
    h = _hermitian_part(m, check)
    return np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)


@functools.cache
def _openblas_threads():
    """(setter, getter) of the thread count of the OpenBLAS that numpy's linalg
    calls, or None under another BLAS.  dlsym on the extension's handle also
    searches the libraries it links, so this finds the BLAS wherever it lies."""
    import ctypes
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
        setter = getattr(lib, name.format("set"), None)
        getter = getattr(lib, name.format("get"), None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


@contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread and restore the caller's count
    after it, also when it raises: its floating-point results then do not
    depend on the thread count.  Under another BLAS this does nothing."""
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    setter, getter = calls
    before = getter()
    setter(1)
    try:
        yield
    finally:
        setter(before)


def _hermitian_part(m: np.ndarray, check: bool) -> np.ndarray:
    """(M + M†)/2 of a matrix or stack, float64 if it has no imaginary part;
    with `check`, an anti-Hermitian part over HERM_TOL raises TensorError."""
    adj = m.conj().swapaxes(-1, -2)
    if check:
        anti = float(np.abs(m - adj).max(initial=0.0))
        if anti > HERM_TOL:
            raise TensorError(
                f"operator is not Hermitian (anti part {anti:.3e} > {HERM_TOL:g})")
    h = (m + adj) / 2
    return h.real if np.iscomplexobj(h) and not h.imag.any() else h


def check_psd(m: np.ndarray, what: str, tol: float = PSD_TOL) -> None:
    """Refuse a matrix, or a stack, that is not Hermitian to HERM_TOL or whose
    Hermitian part H has an eigenvalue below -tol.  One batched Cholesky
    factorization of H + tol·1 certifies the whole stack; only a stack it
    refuses is eigensolved, for the smallest eigenvalue the message reports."""
    h = _hermitian_part(m, check=True)
    try:
        np.linalg.cholesky(h + tol * np.eye(h.shape[-1]))
    except np.linalg.LinAlgError:
        low = float(eigh_herm(h, vectors=False).min())
        if low < -tol:
            raise TensorError(f"{what} is not PSD (min eigenvalue {low:.3e})") from None


def _singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of a matrix, as |eigenvalues| when it is Hermitian to HERM_TOL."""
    if np.ndim(m) != 2:
        raise TensorError(f"a norm takes one matrix, got an array of shape {np.shape(m)}")
    if np.abs(m - m.conj().T).max() <= HERM_TOL:
        return np.abs(eigh_herm(m, vectors=False))
    return np.linalg.svd(m, compute_uv=False)


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    return float(_singular_values(m).sum())


def op_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    return float(_singular_values(m).max())


def _psd_eigs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = eigh_herm(m)
    if w.min() < -PSD_TOL:
        raise TensorError(f"matrix is not PSD (min eigenvalue {w.min():.3e})")
    return np.clip(w, 0, None), v


# ---------------------------------------------------------------------------
# permutations and the symmetric subspace
# ---------------------------------------------------------------------------

def permute_sites(t: np.ndarray, perm: Sequence[int],
                  groups: Sequence[Sequence[int]]) -> np.ndarray:
    """Move site k of every axis group to site position perm[k], as a view.

    Each group lists the n site axes of t; all groups move together, so with
    an operator's row and column sites as the groups this is P ω P† with
    P = permutation_matrix(perm, d), without a single multiplication.
    """
    axes = list(range(t.ndim))
    for group in groups:
        for k, ax in enumerate(group):
            axes[group[perm[k]]] = ax
    return t.transpose(axes)


def symmetrize_sites(t: np.ndarray, groups: Sequence[Sequence[int]]) -> np.ndarray:
    """S_n average of permute_sites over every permutation of the n sites, by
    the coset cascade sum_{S_n} = (1 + X_2)..(1 + X_n), X_k = sum_{i<k} (i k):
    each permutation once, in n(n + 1)/2 − 1 views rather than n!."""
    n = len(groups[0])
    for k in range(1, n):
        acc = t.copy()
        for i in range(k):
            acc += permute_sites(t, [k if j == i else i if j == k else j for j in range(n)],
                                 groups)
        t = acc / (k + 1)
    return t


def _site_identity(n: int, d: int) -> np.ndarray:
    """The identity on d^n, with its row index split into n site axes."""
    return np.eye(d ** n, dtype=complex).reshape((d,) * n + (d ** n,))


def permutation_matrix(perm: Sequence[int], site_dim: int) -> np.ndarray:
    """Unitary sending |i_1..i_n> to |i_{perm^{-1}(1)}..>, so P_s P_t = P_{s∘t}.

    `perm` is 0-indexed: perm[k] is the image of position k.
    """
    n = len(perm)
    return permute_sites(_site_identity(n, site_dim), perm, [range(n)]).reshape(
        site_dim ** n, -1)


def sym_dim(n: int, d: int) -> int:
    """Dimension of the symmetric subspace of n d-level systems."""
    return comb(n + d - 1, n)


def dicke_coordinates(vectors: np.ndarray, n: int) -> np.ndarray:
    """Coordinates <D_m|phi^{⊗n}> = sqrt(n!/prod_i m_i!) prod_i phi_i^{m_i} of
    every row phi of a (G, d) stack in the orthonormal Dicke basis of Sym^n,
    shape (G, sym_dim(n, d)).

    The basis state D_m is the normalized symmetrization of |i_1..i_n> for a
    sorted index tuple i_1 <= .. <= i_n with occupation numbers m; the
    columns follow the lexicographic order of those tuples.
    """
    d = vectors.shape[1]
    # the sorted tuples in lexicographic order: each tuple of n − 1 indices
    # ending in i spawns the tuples that append i, .., d − 1, in order
    idx = np.zeros((1, 0), dtype=np.intp)
    last = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        reps = d - last
        offsets = np.repeat(np.cumsum(reps) - reps - last, reps)
        last = np.arange(offsets.size) - offsets
        idx = np.column_stack([np.repeat(idx, reps, axis=0), last])
    # the multinomial n!/prod_i m_i! of the occupations m, exactly: int64
    # holds every factorial up to 20!, Python integers the larger ones
    occupations = (idx[:, :, None] == np.arange(d)).sum(axis=1)
    factorials = np.cumprod(np.arange(n + 1, dtype=np.int64 if n <= 20 else object).clip(1))
    scale = np.sqrt((factorials[n] // factorials[occupations].prod(axis=1)).astype(float))
    # the product over the n gathered columns, one (G, sym_dim) column set at a time
    coords = vectors[:, idx[:, 0]]
    for i in range(1, n):
        coords *= vectors[:, idx[:, i]]
    coords *= scale
    return coords


def int_powers(x: np.ndarray, ns: Sequence[int], scratch: np.ndarray):
    """Raise x elementwise to every integer n >= 1 of ns by one series of
    in-place squarings of x, yielding (i, x**ns[i]) as each power completes.

    Overlaps <phi|chi>^n of product states need large n, where numpy's
    complex power leaves its repeated-multiplication fast path for a much
    slower general one; squaring costs O(log n) array products instead.
    A power-of-two n is yielded as x itself, which the next squaring
    overwrites, so a power must be used before the generator resumes.  Every
    other n takes its own slot of scratch, one per such n in the order of ns:
    the square at its lowest set bit, times the squares of its higher bits,
    lowest first.  These are the products of binary exponentiation into a
    ones accumulator, in the same order, so each power is bitwise the same.
    """
    if min(ns) < 1:
        raise TensorError(f"exponents must be at least 1, got {list(ns)}")
    mixed = [i for i, n in enumerate(ns) if n & (n - 1)]      # not powers of two
    if len(scratch) < len(mixed):
        raise TensorError(f"{len(mixed)} exponents of {list(ns)} are not powers of two, "
                          f"but scratch has {len(scratch)} slots")
    acc = dict(zip(mixed, scratch))
    for t in range(max(ns).bit_length()):
        if t:
            x *= x                                              # x**(2**t)
        for i, n in enumerate(ns):
            if i in acc and n >> t & 1:
                if n & ((1 << t) - 1):
                    acc[i] *= x
                else:
                    acc[i][...] = x                             # n's lowest bit
            if n >> t == 1:                                     # n's top bit
                yield i, acc.get(i, x)


def symmetric_projector(n: int, d: int) -> np.ndarray:
    """Projector onto the symmetric subspace of n d-level sites, as the S_n
    average of permutations."""
    check_dense_budget(d ** n, "symmetric_projector")
    return symmetrize_sites(_site_identity(n, d), [range(n)]).reshape(d ** n, d ** n)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def operator_to_json(operator: Operator) -> dict:
    """The operator's JSON fields; its real and imaginary parts stay array
    views, for a writer to encode a block of rows at a time (`nslocc.cli`)."""
    return {
        "labels": list(operator.labels),
        "dims": list(operator.dims),
        "re": operator.matrix.real,
        "im": operator.matrix.imag,
    }


def operator_from_json(data: dict) -> Operator:
    labels, dims = data["labels"], data["dims"]
    if len(labels) != len(dims):
        raise TensorError(f"operator JSON pairs {len(labels)} labels with {len(dims)} dims")
    m = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
    return Operator(m, tuple(zip(labels, dims)))
