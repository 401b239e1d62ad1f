"""Module actions, endomorphism fields, derivations, first cohomology."""

import itertools
import json

import numpy as np
import pytest

from invgen import (
    InputError,
    InvgenError,
    ModuleAction,
    PreconditionError,
    load_group,
    module_from_descriptor,
    modules_isomorphic,
)
from invgen.gf import rank, rref, row_space_basis
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
    # A5 is perfect, so on the trivial module over GF(2) (p divides 60)
    # even Hom(A5, GF(2)) is 0: no derivations, inner or not, at all
    a5 = load_group({"family": "alt", "n": 5})
    ds = ModuleAction(a5, 2, [[[1]]] * len(a5.generators)).derivation_space()
    assert ds.x_basis.shape == ds.inner_basis.shape == (0, len(a5.generators))


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
    # the permutation module of S6 over GF(3): the Cayley walk covers many
    # levels and two generators, and every matrix is the permutation
    # matrix of its element, read off the element's images alone
    s6 = load_group({"family": "sym", "n": 6})
    act = ModuleAction(s6, 3, _perm_matrices(s6))
    assert act.matrices.shape == (720, 6, 6)
    for i in range(s6.order):
        want = np.eye(6, dtype=np.int64)[list(s6.element(i).images)]
        assert np.array_equal(act.matrix(i), want), i


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
    # the constructor reads its matrices like a descriptor: no truncation
    c2 = load_group(base["group"])
    for mats in ([[[2.7]]], [[[True]]], [5]):
        with pytest.raises(InputError):
            ModuleAction(c2, 3, mats)
    assert ModuleAction(c2, 3, [[[2.0]]]).gen_matrices[0].tolist() == [[2]]


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


# -- the brute-force twin of the irreducibility and field tests ----------------


def _twin_spin_dim(act, v) -> int:
    """Dimension of the smallest submodule containing v: a vector joins the
    spanning rows when it raises their rank."""
    rows = np.zeros((0, act.dim), dtype=np.int64)
    queue = [np.asarray(v, dtype=np.int64) % act.p]
    while queue:
        w = queue.pop()
        grown = np.vstack([rows, w])
        if rank(grown, act.p) > len(rows):
            rows = grown
            queue += [(w @ M) % act.p for M in act.gen_matrices]
    return len(rows)


def _twin_is_irreducible(act) -> bool:
    """Every nonzero vector spins to the whole space."""
    return all(
        _twin_spin_dim(act, v) == act.dim
        for v in itertools.product(range(act.p), repeat=act.dim)
        if any(v)
    )


def _twin_is_field(act) -> bool:
    """The commutant is a commutative algebra whose nonzero elements are
    all invertible, checked element by element."""
    p, d = act.p, act.dim
    basis = act.commutant_basis()
    flat = basis.reshape(len(basis), -1)

    def in_span(X):
        return rank(np.vstack([flat, X.reshape(1, -1)]), p) == len(basis)

    if not in_span(np.eye(d, dtype=np.int64)):
        return False
    for a, b in itertools.combinations_with_replacement(basis, 2):
        ab = (a @ b) % p
        if not np.array_equal(ab, (b @ a) % p) or not in_span(ab):
            return False
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        if any(coeffs):
            X = np.tensordot(np.array(coeffs), basis, axes=1) % p
            if rank(X, p) != d:
                return False
    return True


def _perm_matrices(G):
    """Generator matrices of the permutation module."""
    return [np.eye(G.degree, dtype=np.int64)[list(g.images)] for g in G.generators]


def _deleted_matrices(G, p):
    """Generator matrices on the sum-zero vectors of GF(p)^n, in the basis
    e_i - e_{n-1}: a sum-zero vector's coordinates are its first n - 1 entries."""
    n = G.degree
    mats = []
    for g in G.generators:
        rows = np.eye(n, dtype=np.int64)[list(g.images)]
        mats.append((rows[:-1, :-1] - rows[-1, :-1]) % p)
    return mats


def _direct_sum(act):
    return [np.kron(np.eye(2, dtype=np.int64), M) for M in act.gen_matrices]


def _agreement_family():
    corpus = dict(_corpus_modules())
    yield from corpus.items()
    s3 = load_group({"family": "sym", "n": 3})
    a5 = load_group({"family": "alt", "n": 5})
    # reducible with End = GF(3): only the span dimension test sees it
    yield "s3_sum_zero_gf3", ModuleAction(s3, 3, _deleted_matrices(s3, 3))
    yield "a5_deleted_gf7", ModuleAction(a5, 7, _deleted_matrices(a5, 7))
    # Jordan blocks of C_p: the commutant GF(p)[x]/(x^k) has nilpotents
    for p, k in ((2, 2), (3, 2), (3, 3), (5, 2), (5, 4)):
        J = np.eye(k, dtype=np.int64) + np.eye(k, k=1, dtype=np.int64)
        cp = load_group({"family": "cyclic", "n": p})
        yield f"jordan_c{p}_{k}", ModuleAction(cp, p, [J])
    # M + M: the commutant is a 2 x 2 matrix ring over End(M)
    for name, act in corpus.items():
        yield f"{name}+{name}", ModuleAction(act.group, act.p, _direct_sum(act))
    # permutation and regular modules: products of fields when p is prime
    # to the order, otherwise with nilpotents
    for desc, p in (
        ({"family": "sym", "n": 3}, 2),
        ({"family": "sym", "n": 3}, 3),
        ({"family": "sym", "n": 3}, 5),
        ({"family": "cyclic", "n": 3}, 2),
        ({"family": "cyclic", "n": 4}, 5),
        ({"family": "cyclic", "n": 5}, 5),
    ):
        G = load_group(desc)
        yield f"perm_{G.name}_gf{p}", ModuleAction(G, p, _perm_matrices(G))
    # tensor squares
    for name in ("mod_s3_gl22", "mod_c3_gf4", "mod_d4_gf3"):
        act = corpus[name]
        mats = [np.kron(M, M) % act.p for M in act.gen_matrices]
        yield f"{name}^2", ModuleAction(act.group, act.p, mats)


def test_rank_criteria_agree_with_the_brute_force_twin():
    reasons = set()
    cases = 0
    for name, act in _agreement_family():
        assert act.p**act.dim <= 4096, name  # within the twin's reach
        try:
            act.end_field()
            is_field = True
        except PreconditionError as exc:
            is_field = False
            reasons.add(str(exc).split(";")[0])
        assert is_field == _twin_is_field(act), name
        assert act.is_irreducible() == _twin_is_irreducible(act), name
        if is_field and not act.is_irreducible():
            reasons.add("reducible with a field commutant")
        cases += 1
    assert cases == 30
    # every way of failing is exercised
    assert reasons == {
        "commutant is not commutative",
        "commutant has a nonzero nilpotent element",
        "commutant is a product of several fields",
        "reducible with a field commutant",
    }


def test_commutant_consistency_breaches_are_not_read_as_reducible(monkeypatch):
    # a commutant without the identity, or not closed under products, is an
    # internal fault: is_irreducible raises it rather than answering False
    eye = np.eye(3, dtype=np.int64)
    A = np.diag([0, 1, 2])  # A^2 = diag(0, 1, 1) mod 3 is not in span(1, A)
    for basis, msg in (([A], "identity"), ([eye, A], "closed under products")):
        act = ModuleAction(load_group({"family": "cyclic", "n": 2}), 3, [eye])
        monkeypatch.setattr(act, "commutant_basis", lambda b=basis: np.array(b))
        with pytest.raises(InvgenError, match=msg) as info:
            act.is_irreducible()
        assert not isinstance(info.value, PreconditionError)


def _twin_rref(A, p):
    """Textbook elimination on Python ints: the first nonzero entry of a
    column below the pivots is the pivot, rows are swapped and scaled,
    and the column is cleared from every other row."""
    R = [[int(x) % p for x in row] for row in np.atleast_2d(A).tolist()]
    pivots, r = [], 0
    for c in range(len(R[0]) if R else 0):
        pr = next((i for i in range(r, len(R)) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = pow(R[r][c], p - 2, p)
        R[r] = [x * inv % p for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [(x - f * y) % p for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def test_rref_matches_the_textbook_elimination():
    # the reduced form is unique, so the pivot rref picks must not matter;
    # sparse, tall and wide matrices, zero rows and the largest prime
    rng = np.random.default_rng(11)
    cases = 0
    for p in (2, 3, 5, 7, 65521):
        for rows, cols in ((1, 1), (3, 5), (5, 3), (6, 6), (40, 4), (4, 9)):
            for density in (0.1, 0.5, 1.0):
                A = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < density)
                R, pivots = rref(A, p)
                want, want_pivots = _twin_rref(A, p)
                assert R.tolist() == want and pivots == want_pivots, (p, A.tolist())
                assert np.array_equal(row_space_basis(A, p), R[: len(pivots)])
                cases += 1
    assert cases == 90
    assert rref(np.zeros((0, 3), dtype=np.int64), 5)[1] == []
