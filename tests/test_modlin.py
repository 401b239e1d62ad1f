"""Module actions, endomorphism fields, derivations, first cohomology."""

import json

import numpy as np
import pytest

from invgen import (
    InputError,
    ModuleAction,
    load_group,
    module_from_descriptor,
    modules_isomorphic,
)
from invgen.harness import shipped_corpus_path

# (corpus name, p, dim over GF(p), e, n, m, absolutely irreducible)
# n and m are dimensions over the endomorphism field F = End(V).
GOLDEN = {
    "mod_c2_gf3": (3, 1, 1, 1, 0, True),
    "mod_c4_gf5": (5, 1, 1, 1, 0, True),
    "mod_c3_gf4": (2, 2, 2, 1, 0, False),
    "mod_s3_gl22": (2, 2, 1, 2, 0, True),
    "mod_d4_gf3": (3, 2, 1, 2, 0, True),
    "mod_s3_gf7": (7, 2, 1, 2, 0, True),
    "mod_sl24_nat": (2, 4, 2, 2, 1, False),
}


def _corpus_modules():
    with open(shipped_corpus_path()) as fh:
        for line in fh:
            d = json.loads(line)
            if "module" in d:
                yield d["name"], module_from_descriptor(d["module"])


def test_corpus_golden_dimensions():
    seen = set()
    for name, act in _corpus_modules():
        p, dim, e, n, m, absirr = GOLDEN[name]
        ef = act.end_field()
        assert act.p == p
        assert act.dim == dim
        assert ef.degree == e
        assert dim // e == n
        assert act.h1_dim() == m
        assert act.h1_dim_gf() == m * e
        assert act.is_absolutely_irreducible() == absirr
        assert act.is_irreducible()
        assert act.is_faithful()
        seen.add(name)
    assert seen == set(GOLDEN)


def test_cohomology_vanishes_in_coprime_characteristic():
    # |D4| = 8 and p = 3 are coprime, so every derivation is inner
    act = module_from_descriptor(
        {
            "group": {"family": "dihedral", "n": 4},
            "p": 3,
            "matrices": [[[0, 1], [2, 0]], [[1, 0], [0, 2]]],
        }
    )
    assert act.h1_dim() == 0
    ds = act.derivation_space()
    assert ds.dim_gf == ds.dim_inner_gf == 2


def test_sl24_h1_is_one_dimensional_over_end_field():
    act = next(a for n, a in _corpus_modules() if n == "mod_sl24_nat")
    assert act.group.order == 60
    assert act.h1_dim() == 1
    ds = act.derivation_space()
    # dim_F Der = n + m = 3, over GF(2) that is e * 3 = 6
    assert ds.dim_gf == 6
    assert ds.dim_inner_gf == 4


def test_cocycle_identity_on_random_products():
    act = next(a for n, a in _corpus_modules() if n == "mod_sl24_nat")
    ds = act.derivation_space()
    G = act.group
    rng = np.random.default_rng(3)
    for _ in range(25):
        coeffs = rng.integers(0, act.p, size=ds.x_basis.shape[0])
        x = (coeffs @ ds.x_basis) % act.p
        g = int(rng.integers(0, G.order))
        h = int(rng.integers(0, G.order))
        gh = int(G.table[g, h])
        lhs = ds.evaluate(x, gh)
        rhs = (ds.evaluate(x, g) @ act.matrix(h) + ds.evaluate(x, h)) % act.p
        assert np.array_equal(lhs, rhs)


def test_inner_derivations_take_commutator_form():
    act = next(a for n, a in _corpus_modules() if n == "mod_s3_gl22")
    ds = act.derivation_space()
    G = act.group
    for v_bits in range(1, 4):
        v = np.array([v_bits & 1, v_bits >> 1], dtype=np.int64)
        # x lists the values at the generators: here d_v(s) = v M_s - v
        x = np.concatenate([(v @ M - v) % act.p for M in act.gen_matrices])
        for g in range(G.order):
            want = (v @ act.matrix(g) - v) % act.p
            assert np.array_equal(ds.evaluate(x, g), want)


def test_fixed_space_trivial_versus_full(s3):
    act = next(a for n, a in _corpus_modules() if n == "mod_s3_gl22")
    assert act.fixed_space().shape[0] == 0
    # restricting to the identity fixes everything
    assert act.fixed_space(elems=[0]).shape[0] == act.dim


def test_matrix_is_a_homomorphism():
    act = next(a for n, a in _corpus_modules() if n == "mod_d4_gf3")
    G = act.group
    rng = np.random.default_rng(1)
    for _ in range(30):
        g = int(rng.integers(0, G.order))
        h = int(rng.integers(0, G.order))
        prod = (act.matrix(g) @ act.matrix(h)) % act.p
        assert np.array_equal(prod, act.matrix(int(G.table[g, h])))


def test_modules_isomorphic_reflexive_and_discriminating():
    acts = dict(_corpus_modules())
    a = acts["mod_s3_gl22"]
    assert modules_isomorphic(a, a)
    # same group, different characteristic: never isomorphic
    b = acts["mod_s3_gf7"]
    assert not modules_isomorphic(a, b)
    # different groups are a usage error
    with pytest.raises(InputError):
        modules_isomorphic(a, acts["mod_c2_gf3"])


def test_module_descriptor_validation():
    base = {
        "group": {"family": "cyclic", "n": 2},
        "p": 3,
        "matrices": [[[2]]],
    }
    assert module_from_descriptor(base).dim == 1
    bad_count = dict(base, matrices=[])
    with pytest.raises(InputError):
        module_from_descriptor(bad_count)
    not_invertible = dict(base, matrices=[[[0]]])
    with pytest.raises(InputError):
        module_from_descriptor(not_invertible)
    bad_p = dict(base, p=6)
    with pytest.raises(InputError):
        module_from_descriptor(bad_p)


def test_non_homomorphic_matrices_rejected():
    # 2 has multiplicative order 4 mod 5, which does not divide |C3|
    with pytest.raises(InputError):
        module_from_descriptor(
            {
                "group": {"family": "cyclic", "n": 3},
                "p": 5,
                "matrices": [[[2]]],
            }
        )
