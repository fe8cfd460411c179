import itertools

import numpy as np
import pytest

from nslocc.channels import choi_of_kraus
from nslocc.tensor_core import Factorization, Operator, partial_trace


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


def loop_marginal_choi(protocol) -> np.ndarray:
    """Reference single-round protocol marginal: sum_g kron(M_g^T / d_A, φ_g)."""
    return sum(np.kron(m.matrix.T / protocol.d_a,
                       partial_trace(ch.omega, ["X1", "Y1"]).matrix)
               for m, ch in zip(protocol.povm, protocol.channels))


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
