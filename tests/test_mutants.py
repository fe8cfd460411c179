"""Oracles that bite (ROADMAP item 8): each mutant below breaks one line of
the package, and the oracle comparison it names must then fail.

A mutant is a one-snippet edit of a function's source, compiled in a copy of
its module's namespace and patched over the module attribute, so every call
through the module runs it.  The original snippet must occur exactly once,
so that a rewrite of the function shows here instead of leaving a mutant
that no longer mutates anything.
"""

import __future__
import inspect
import json
import textwrap
from functools import reduce

import numpy as np
import pytest

from nslocc import channels, cli, definetti, locc, risk, tensor_core
from nslocc.channels import marginal_input, random_nonsignalling_choi
from nslocc.risk import classification_task

from conftest import (
    extension_psi,
    oracle_einsum_repair,
    oracle_risk_direct,
    oracle_symmetric_projector,
    random_density,
    random_kraus,
)


def overlaps_match_the_per_point_contraction():
    # u_g = psi (conj phi_g)^{⊗n} on a complex branch extension
    rng = np.random.default_rng(11)
    blocks = np.stack([random_density(rng, 2) * w for w in (0.3, 0.7)])
    ext = definetti.branch_extension(blocks, np.stack([random_density(rng, 2)] * 2), n=3)
    grid = definetti.build_grid(ext.site_dim, "haar:9:40")
    psi = extension_psi(ext)
    want = np.stack([psi @ reduce(np.kron, [v.conj()] * 3) for v in grid.vectors])
    assert np.abs(definetti._block_overlaps(ext, grid) - want).max() <= 1e-12


def product_marginal_is_the_sum_of_blocks():
    # tr_B ω = sum_j K_j for ω = sum_j K_j ⊗ phi_j, on a factor with more
    # columns (3·2·4) than ω's side 8, so its Gram matrix is singular
    rng = np.random.default_rng(12)
    blocks = np.stack([random_density(rng, 2) / 3 for _ in range(3)])
    sites = np.stack([random_density(rng, 4) for _ in range(3)])
    ext = definetti.purify_product_mixture(blocks, sites, 1)
    assert np.abs(ext.marginal - blocks.sum(axis=0)).max() <= 1e-12


def repair_matches_the_einsum_sandwich():
    rng = np.random.default_rng(13)
    phi = random_density(rng, 4)
    w, v = np.linalg.eigh(marginal_input(phi, 2, 2))
    got = locc.tp_repair(phi, locc._repair_factors(w, v, 2))
    want = oracle_einsum_repair(phi, (v / np.sqrt(w)) @ v.conj().T, 2)
    assert np.abs(got - want).max() <= 1e-15


def channel_output_is_the_kraus_sum():
    # Q(ρ) = sum_K K ρ K† for a global Kraus family on two rounds, d_X != d_Y
    rng = np.random.default_rng(14)
    kraus = random_kraus(rng, 4, 9, count=3)
    rho = random_density(rng, 4)
    q = channels.choi_of_global_kraus(kraus, 2, 3, n=2)
    got = channels.apply_channel(q, tensor_core.op(rho, ("A", 1), ("X1", 2), ("X2", 2)))
    assert np.abs(got.matrix - sum(k @ rho @ k.conj().T for k in kraus)).max() <= 1e-14


def choi_state_is_the_kraus_outer_products():
    # ω[(x1, y1, x2, y2), (x1', ..)] = sum_K K[y, x] conj(K[y', x']) / d_X^n, each
    # K's entries moved to round order by one transpose of its (y1, y2, x1, x2) view
    rng = np.random.default_rng(15)
    kraus = random_kraus(rng, 4, 9, count=3)
    vecs = [k.reshape(3, 3, 2, 2).transpose(2, 0, 3, 1).reshape(-1) for k in kraus]
    want = sum(np.outer(v, v.conj()) for v in vecs) / 4
    got = channels.choi_of_global_kraus(kraus, 2, 3, n=2).omega.matrix
    assert np.abs(got - want).max() <= 1e-15


def embed_is_the_kron_with_the_identity():
    # the operator's factor is full's last one, so its embedding is 1_AB ⊗ M;
    # the factor order it is built in, (C, A, B), is a 3-cycle of full's
    m = np.random.default_rng(16).standard_normal((2, 2))
    full = (("A", 2), ("B", 3), ("C", 2))
    got = tensor_core.embed(tensor_core.op(m, ("C", 2)), full).matrix
    assert np.abs(got - np.kron(np.eye(6), m)).max() == 0


def direct_risk_matches_the_embedding_oracle():
    # two rounds, so ρ_X pairs with the round whose score is not taken, and
    # complex class states, so that ρ_X is not its own transpose
    rng = np.random.default_rng(17)
    task = classification_task([0.3, 0.7], [random_density(rng, 2) for _ in range(2)], n=2)
    q = random_nonsignalling_choi(4, 2, 2, 2, seed=17)
    assert abs(risk._risk_direct(q, task) - oracle_risk_direct(q, task)) <= 1e-14


def site_average_is_the_symmetric_projection():
    # the S_3 average of a state on three qubit sites against the mean of all
    # six dense permutation matrices
    v = np.random.default_rng(18).standard_normal(8)
    got = tensor_core.symmetrize_sites(v.reshape(2, 2, 2), [range(3)]).reshape(-1)
    assert np.abs(got - oracle_symmetric_projector(3, 2) @ v).max() <= 1e-15


def float_text_is_json_dumps():
    # the float encoder's rows against json.dumps on the classes that find
    # its faults: neighbours of 10^-k and 2^-k, ties k·2^-j and random values
    rng = np.random.default_rng(19)
    k = np.arange(1, 8.0)
    edges = [float(f"1e-{int(e)}") for e in k] + list(2.0 ** -k)
    values = np.concatenate([np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                             rng.integers(1, 2 ** 20, 200) * 2.0 ** -rng.integers(18, 30, 200),
                             rng.standard_normal(200) * 1e-3])
    block = np.resize(values, (8, 64))
    assert cli._float_rows(block) == ", ".join(json.dumps(row.tolist()) for row in block)


MUTANTS = {
    "overlap-kernel-drops-conj": (definetti, "_block_overlaps", "ext.sites @ vectors.conj().T",
                                  "ext.sites @ vectors.T", overlaps_match_the_per_point_contraction),
    "product-marginal-takes-G_b": (definetti, "purify_product_mixture", "* prod_gram.T) @",
                                   "* prod_gram) @", product_marginal_is_the_sum_of_blocks),
    "repair-sandwich-transposed": (locc, "tp_repair", "factor @ phi @ factor",
                                   "factor.T @ phi @ factor.T", repair_matches_the_einsum_sandwich),
    "apply-channel-reverses-Y": (channels, "apply_channel", "list(range(2, k, 2))",
                                 "list(range(2, k, 2))[::-1]", channel_output_is_the_kraus_sum),
    "round-interleave-reversed": (channels, "choi_of_global_kraus", "for i in range(n) for",
                                  "for i in reversed(range(n)) for",
                                  choi_state_is_the_kraus_outer_products),
    "embed-inverse-permutation": (tensor_core, "embed",
                                  "[have.index(f) for f in full]",
                                  "[full.index(f) for f in have]",
                                  embed_is_the_kron_with_the_identity),
    "risk-rho_X-transposed": (risk, "_risk_direct", '"arbr->ab"', '"arbr->ba"',
                              direct_risk_matches_the_embedding_oracle),
    "cascade-drops-last-transposition": (tensor_core, "symmetrize_sites", "for i in range(k):",
                                         "for i in range(k - (k == n - 1)):",
                                         site_average_is_the_symmetric_projection),
    # the float encoder: the decimal exponent from log10 alone, which puts the
    # neighbours just below 10^-k a decade high; ties rounded down instead of
    # sent to the fallback; the rounding interval twice its width
    "encoder-exponent-uncorrected": (cli, "_shortest",
                                     'np.searchsorted(lower, ax, side="right") - 8',
                                     "np.floor(np.log10(ax)).astype(np.intp)",
                                     float_text_is_json_dumps),
    "encoder-ties-kept": (cli, "_shortest", "& ~tie ", "", float_text_is_json_dumps),
    "encoder-interval-doubled": (cli, "_shortest", "f >>= np.uint64(1)", "f >>= np.uint64(0)",
                                 float_text_is_json_dumps),
}


def mutate(monkeypatch, module, name, original, mutant):
    """Patch module.name with its source's one `original` snippet replaced."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(original) == 1, f"{name} no longer reads {original!r}"
    namespace = dict(vars(module))
    exec(compile(source.replace(original, mutant), module.__file__, "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    monkeypatch.setattr(module, name, namespace[name])


@pytest.mark.parametrize("mutant", MUTANTS)
def test_oracle_comparison_fails_on_the_mutant(monkeypatch, mutant):
    module, name, original, replacement, comparison = MUTANTS[mutant]
    comparison()
    # an extension's own unit-mass check refuses the G_b mutant first; only
    # the oracle is under test here
    monkeypatch.setattr(definetti, "UNIT_MASS_TOL", np.inf)
    mutate(monkeypatch, module, name, original, replacement)
    with pytest.raises(AssertionError):
        comparison()
