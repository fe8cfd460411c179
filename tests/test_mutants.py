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
import textwrap
from functools import reduce

import numpy as np
import pytest

from nslocc import definetti, locc
from nslocc.channels import marginal_input

from conftest import extension_psi, oracle_einsum_repair, random_density


def overlaps_match_the_per_point_contraction():
    # u_g = psi (conj phi_g)^{⊗n} on a complex branch extension
    rng = np.random.default_rng(11)
    blocks = np.stack([random_density(rng, 2) * w for w in (0.3, 0.7)])
    ext = definetti.branch_extension(blocks, np.stack([random_density(rng, 2)] * 2), n=3)
    grid = definetti.build_grid(ext.site_dim, 3, "haar:9:40")
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


MUTANTS = {
    "overlap-kernel-drops-conj": (definetti, "_block_overlaps", "ext.sites @ vectors.conj().T",
                                  "ext.sites @ vectors.T", overlaps_match_the_per_point_contraction),
    "product-marginal-takes-G_b": (definetti, "purify_product_mixture", "* prod_gram.T) @",
                                   "* prod_gram) @", product_marginal_is_the_sum_of_blocks),
    "repair-sandwich-transposed": (locc, "tp_repair", "factor @ phi @ factor",
                                   "factor.T @ phi @ factor.T", repair_matches_the_einsum_sandwich),
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
