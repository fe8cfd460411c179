import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslocc import tensor_core
from nslocc.tensor_core import (
    Operator,
    PSD_TOL,
    TensorError,
    check_dense_budget,
    check_psd,
    dicke_coordinates,
    eigh_herm,
    embed,
    op,
    op_norm,
    operator_from_json,
    operator_to_json,
    partial_trace,
    sym_dim,
    symmetric_projector,
    trace_norm,
)

from conftest import (
    herm_fn,
    oracle_dicke_coordinates,
    oracle_partial_trace,
    oracle_symmetric_projector,
    permutation_operator,
    random_pure,
    random_unitary,
    tensor,
)


def complex_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_operator_rejects_duplicate_labels():
    with pytest.raises(TensorError, match="duplicate factor labels"):
        op(np.eye(6), ("X", 2), ("X", 3))


def test_operator_rejects_a_non_positive_dim():
    with pytest.raises(TensorError, match="'Y' has non-positive dim 0"):
        Operator(np.eye(1), (("X", 1), ("Y", 0)))


def test_operator_shape_mismatch():
    with pytest.raises(TensorError, match="side 3 != product of factor dims 2"):
        op(np.eye(3), ("X", 2))


def test_tensor_and_partial_trace_inverse(rng):
    a = op(complex_matrix(rng, 2), ("A", 2))
    b = op(complex_matrix(rng, 3), ("B", 3))
    ab = tensor(a, b)
    got = partial_trace(ab, ["A"])
    assert np.allclose(got.matrix, a.matrix * np.trace(b.matrix))


def test_partial_trace_preserves_total_trace(rng):
    m = op(complex_matrix(rng, 12), ("A", 2), ("B", 3), ("C", 2))
    for keep in (["A"], ["B"], ["A", "C"], ["A", "B", "C"]):
        assert np.isclose(np.trace(partial_trace(m, keep).matrix), np.trace(m.matrix))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_axis_view_matches_the_per_factor_oracles(data):
    # dim-1 factors included, as a trivial side register A has
    dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    labels = [f"F{i}" for i in range(len(dims))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    m = op(complex_matrix(rng, int(np.prod(dims))), *zip(labels, dims))
    # the example's cost, bounded by its size rather than by a wall-clock
    # deadline that machine load can break: at most five factors of dim 3
    assert len(m.matrix) <= 3 ** 5
    drawn = data.draw(st.sets(st.sampled_from(labels)))
    for pick in (drawn, set(), set(labels)):
        got, want = partial_trace(m, pick), oracle_partial_trace(m, pick)
        assert got.factors == want.factors
        assert np.abs(got.matrix - want.matrix).max() <= 1e-13


def test_permute_factors_roundtrip(rng):
    # embed into the same factors in another order permutes them
    m = op(complex_matrix(rng, 12), ("A", 2), ("B", 3), ("C", 2))
    p = embed(m, (("C", 2), ("A", 2), ("B", 3)))
    assert p.labels == ("C", "A", "B")
    back = embed(p, m.factors)
    assert np.array_equal(back.matrix, m.matrix)


def test_permute_matches_kron_swap(rng):
    a, b = complex_matrix(rng, 2), complex_matrix(rng, 3)
    m = op(np.kron(a, b), ("A", 2), ("B", 3))
    swapped = embed(m, (("B", 3), ("A", 2)))
    assert np.allclose(swapped.matrix, np.kron(b, a))


def test_embed_inserts_identity(rng):
    a = op(complex_matrix(rng, 2), ("A", 2))
    big = embed(a, (("B", 3), ("A", 2)))
    assert np.allclose(big.matrix, np.kron(np.eye(3), a.matrix))
    # full lacks A, sizes A differently, or names B twice
    for bad in ((("B", 3),), (("A", 3), ("B", 3)), (("A", 2), ("B", 3), ("B", 3))):
        with pytest.raises(TensorError, match="cannot embed"):
            embed(a, bad)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_embed_is_a_kron_with_the_identity_then_a_factor_permutation(data):
    # dim-1 factors included; the operator's factors and full's come in drawn orders
    dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    order = data.draw(st.permutations(range(len(dims))))
    kept = data.draw(st.lists(st.sampled_from(range(len(dims))), min_size=1, unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    a = op(complex_matrix(rng, int(np.prod([dims[f] for f in kept]))),
           *((f"F{f}", dims[f]) for f in kept))
    full = tuple((f"F{f}", dims[f]) for f in order)
    # np.kron on the factors (kept, then the missing ones in full's order), then
    # the permutation matrix that sends each basis product to full's order
    src = kept + [f for f in order if f not in kept]
    missing = int(np.prod([dims[f] for f in src[len(kept):]]))
    digits = np.indices([dims[f] for f in order]).reshape(len(order), -1)
    cols = np.ravel_multi_index(tuple(digits[order.index(f)] for f in src),
                                [dims[f] for f in src])
    p = np.eye(len(cols))[cols]
    want = p @ np.kron(a.matrix, np.eye(missing)) @ p.T
    got = embed(a, full)
    # the example's cost, bounded by its size rather than by a wall-clock
    # deadline: at most four factors of dim 3
    assert len(got.matrix) <= 3 ** 4
    assert got.factors == full
    assert np.array_equal(got.matrix, want)


def test_trace_norm_and_op_norm_known_values():
    m = np.diag([3.0, -4.0])
    assert np.isclose(trace_norm(m), 7.0)
    assert np.isclose(op_norm(m), 4.0)


def test_norms_refuse_an_array_that_is_not_one_matrix():
    # a task's S is held as its (Y, R, Y, R) view; read as a stack of 2 x 2
    # matrices its operator norm would be 0.5 instead of 1
    s = np.diag([0.0, 1.0, 1.0, 0.0]).reshape(2, 2, 2, 2)
    for norm in (trace_norm, op_norm):
        with pytest.raises(TensorError, match=r"one matrix, got an array of shape \(2, 2, 2, 2\)"):
            norm(s)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_trace_norm_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a, b = complex_matrix(rng, 4), complex_matrix(rng, 4)
    assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_op_norm_submultiplicative(seed):
    rng = np.random.default_rng(seed)
    a, b = complex_matrix(rng, 3), complex_matrix(rng, 3)
    assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-9


def test_herm_fn_square_matches_matmul(rng):
    h = complex_matrix(rng, 4)
    h = op(h + h.conj().T, ("X", 4))
    sq = herm_fn(h, lambda w: w ** 2)
    assert np.allclose(sq.matrix, h.matrix @ h.matrix)


def test_herm_fn_cutoff_pseudo_inverse():
    h = op(np.diag([2.0, 1e-14, 0.5]), ("X", 3))
    inv = herm_fn(h, lambda w: 1.0 / w, cutoff=1e-10)
    assert np.allclose(np.diag(inv.matrix).real, [0.5, 0.0, 2.0])


def test_herm_fn_rejects_non_hermitian(rng):
    with pytest.raises(TensorError):
        herm_fn(op(complex_matrix(rng, 3), ("X", 3)), np.abs)


def test_eigh_herm_solves_a_real_hermitian_part_in_real_arithmetic(rng):
    m = rng.standard_normal((6, 6)).astype(complex)   # real, not symmetric
    h = (m + m.conj().T) / 2
    w, v = eigh_herm(m)
    assert v.dtype == np.float64
    assert np.abs((v * w) @ v.T - h).max() <= 1e-12
    assert np.abs(w - np.linalg.eigvalsh(h)).max() <= 1e-12
    assert np.abs(eigh_herm(m, vectors=False) - w).max() <= 1e-12


def test_eigh_herm_keeps_a_complex_hermitian_part_complex(rng):
    g = complex_matrix(rng, 5)
    h = g + g.conj().T
    w, v = eigh_herm(h)
    assert np.iscomplexobj(v)
    assert np.abs((v * w) @ v.conj().T - h).max() <= 1e-12
    # a stack is solved complex as soon as one slice has an imaginary part
    stack = np.stack([h.real.astype(complex), h])
    assert np.abs(eigh_herm(stack, vectors=False)
                  - np.linalg.eigvalsh(np.stack([h.real, h]))).max() <= 1e-12


def test_eigh_herm_check_rejects_non_hermitian(rng):
    m = complex_matrix(rng, 3)
    with pytest.raises(TensorError, match="not Hermitian"):
        eigh_herm(m, check=True)
    eigh_herm(m + m.conj().T, check=True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2 ** 31 - 1), st.booleans())
def test_check_psd_certifies_a_stack_to_psd_tol(d, count, seed, real):
    # a stack of Hermitian matrices with eigenvalues in [0, 1], except that one
    # of them has its smallest eigenvalue set to `low`
    rng = np.random.default_rng(seed)
    us = [np.linalg.qr(rng.standard_normal((d, d)))[0] if real else random_unitary(rng, d)
          for _ in range(count)]
    spectra = rng.uniform(0, 1, (count, d))
    worst = int(rng.integers(count))

    def stack(low):
        w = spectra.copy()
        w[worst, 0] = low
        return np.stack([(u * wk) @ u.conj().T for u, wk in zip(us, w)])

    check_psd(stack(-PSD_TOL / 2), "element")
    bad = stack(-2 * PSD_TOL)
    low = float(eigh_herm(bad, vectors=False).min())
    with pytest.raises(TensorError, match=f"element is not PSD \\(min eigenvalue {low:.3e}\\)"):
        check_psd(bad, "element")


def test_check_psd_refuses_a_non_hermitian_stack(rng):
    m = complex_matrix(rng, 3)
    with pytest.raises(TensorError, match="not Hermitian"):
        check_psd(np.stack([m @ m.conj().T, m]), "element")


def test_permutation_operator_composition():
    # P_s P_t = P_{s o t} for the action |i_1..i_n> -> positions permuted
    s, t = (1, 2, 0), (2, 0, 1)
    ps = permutation_operator(s, 2).matrix
    pt = permutation_operator(t, 2).matrix
    comp = tuple(s[t[i]] for i in range(3))
    assert np.allclose(ps @ pt, permutation_operator(comp, 2).matrix)


def test_permutation_operator_action_on_basis():
    # swap of two qutrits
    p = permutation_operator((1, 0), 3).matrix
    for i in range(3):
        for j in range(3):
            v = np.zeros(9)
            v[i * 3 + j] = 1
            w = np.zeros(9)
            w[j * 3 + i] = 1
            assert np.allclose(p @ v, w)


def test_symmetric_projector_properties():
    for n, d in [(2, 2), (3, 2), (2, 3), (6, 2)]:
        p = symmetric_projector(n, d)
        assert np.abs(p - oracle_symmetric_projector(n, d)).max() <= 1e-13
        assert np.allclose(p @ p, p)
        assert np.isclose(np.trace(p).real, sym_dim(n, d))
        pm = permutation_operator((1, 0) + tuple(range(2, n)), d).matrix
        assert np.allclose(pm @ p, p)


def test_symmetric_projector_refuses_a_side_over_the_dense_budget(monkeypatch):
    # the budget admits side 64 and refuses side 128 before the identity is built
    monkeypatch.setattr(tensor_core, "DENSE_BYTES_BUDGET", 16 * 64 * 64)
    assert symmetric_projector(6, 2).shape == (64, 64)
    tracemalloc.start()
    try:
        with pytest.raises(TensorError, match="symmetric_projector"):
            symmetric_projector(7, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 128 * 128 // 16


@pytest.mark.parametrize("n, d", [(1, 3), (2, 2), (3, 2), (2, 4)])
def test_dicke_coordinates_preserve_product_state_overlaps(rng, n, d):
    vecs = np.stack([random_pure(rng, d) for _ in range(5)])
    c = dicke_coordinates(vecs, n)
    assert c.shape == (5, sym_dim(n, d))
    # <phi^n|chi^n> = <phi|chi>^n, so the coordinates are an isometric image
    assert np.abs(c.conj() @ c.T - (vecs.conj() @ vecs.T) ** n).max() <= 1e-14


@pytest.mark.parametrize("n, d", [(n, d) for n in (1, 2, 3) for d in (2, 3, 16)]
                         + [(20, 2), (21, 2)])
def test_dicke_coordinates_match_the_per_tuple_loop_bit_for_bit(rng, n, d):
    # n = 20 is the last multinomial in int64, n = 21 the first in Python integers
    vecs = np.stack([random_pure(rng, d) for _ in range(4)])
    assert np.array_equal(dicke_coordinates(vecs, n), oracle_dicke_coordinates(vecs, n))


def test_dicke_coordinates_of_a_qubit_pair():
    a, b = 0.6, 0.8j
    # Dicke basis |00>, (|01> + |10>)/sqrt2, |11>
    assert np.allclose(dicke_coordinates(np.array([[a, b]]), 2),
                       [[a * a, np.sqrt(2) * a * b, b * b]], atol=1e-15)


def test_dense_budget_refuses_only_above_the_budget(monkeypatch):
    monkeypatch.setattr(tensor_core, "DENSE_BYTES_BUDGET", 16 * 8 * 8)
    check_dense_budget(8, "eight")
    with pytest.raises(TensorError, match="nine needs a dense 9 x 9 operator"):
        check_dense_budget(9, "nine")


def test_sym_dim_ratio_bound():
    # dim Sym(n-k)/dim Sym(n) >= 1 - d k / n over the whole small-range grid
    for d in range(2, 5):
        for n in range(1, 13):
            for k in range(0, n + 1):
                ratio = sym_dim(n - k, d) / sym_dim(n, d)
                assert ratio >= 1 - d * k / n - 1e-12


def test_operator_json_roundtrip(rng):
    m = op(complex_matrix(rng, 6), ("A", 2), ("B", 3))
    back = operator_from_json(operator_to_json(m))
    assert back.labels == m.labels
    assert np.allclose(back.matrix, m.matrix)


@pytest.mark.parametrize("labels, dims", [(["A", "X1", "Y1", "Z"], [2, 2, 2]),
                                          (["A", "X1", "Y1"], [2, 2, 2, 1])],
                         ids=["more-labels", "more-dims"])
def test_operator_json_refuses_labels_and_dims_of_different_lengths(labels, dims):
    data = {"labels": labels, "dims": dims, "re": np.eye(8) / 8, "im": np.zeros((8, 8))}
    with pytest.raises(TensorError, match=rf"pairs {len(labels)} labels with "
                                          rf"{len(dims)} dims"):
        operator_from_json(data)
