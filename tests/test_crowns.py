"""Chief series, crowns, coronas, and crown-based powers."""

import dataclasses
import itertools

import numpy as np
import pytest

from invgen import (
    Group,
    InputError,
    Perm,
    PreconditionError,
    abelian_crown_power_with_embedding,
    build_crown_power_general,
    chief_series,
    corona_decomposition,
    crown_of_factor,
    factors_equivalent,
    load_group,
    module_from_descriptor,
    read_corpus,
    realize_descriptor,
    shipped_corpus_path,
    verify_sotto,
)
from invgen.crowns import _affine_image_rows, _make_factor, modules_isomorphic
from invgen.group import ORDER_CAP, prime_power
from invgen.modlin import ModuleAction
from invgen.subgroups import (
    _lattice,
    frattini,
    minimal_normal_subgroups,
    quotient_with_map,
    subgroup_lattice,
)

S3_GL22 = {
    "group": {"family": "sym", "n": 3},
    "p": 2,
    "matrices": [[[1, 0], [1, 1]], [[0, 1], [1, 1]]],
}


def test_chief_series_s4(s4):
    series = chief_series(s4)
    assert [f.order for f in series] == [4, 3, 2]
    assert all(f.is_abelian and not f.is_frattini for f in series)
    # consecutive sections share their boundary subgroups
    assert series[0].lower.order == 1
    for a, b in zip(series, series[1:]):
        assert a.upper.bits == b.lower.bits
    assert series[-1].upper.order == 24


def test_chief_series_order_product(s4):
    for desc in (
        {"family": "sym", "n": 4},
        {"family": "cyclic", "n": 12},
        {"family": "dihedral", "n": 6},
        {"family": "alt", "n": 5},
    ):
        G = load_group(desc)
        prod = 1
        for f in chief_series(G):
            prod *= f.order
        assert prod == G.order


def test_s4_crowns(s4):
    series = chief_series(s4)
    expected = {4: (1, 1, 4), 3: (1, 4, 12), 2: (1, 12, 24)}
    for f in series:
        cr = crown_of_factor(s4, f)
        delta, r, i = expected[f.order]
        assert cr.delta == delta
        assert cr.R.order == r
        assert cr.I.order == i


def test_c6_crowns():
    c6 = load_group({"family": "cyclic", "n": 6})
    for f in chief_series(c6):
        cr = crown_of_factor(c6, f)
        assert cr.delta == 1
        assert cr.I.order == 6
        assert cr.R.order == 6 // f.order


def test_elementary_abelian_crown_counts_all_factors():
    e16 = load_group({"family": "elemab", "p": 2, "k": 4})
    series = chief_series(e16)
    assert len(series) == 4
    cr = crown_of_factor(e16, series[0])
    assert cr.delta == 4
    assert cr.R.order == 1
    assert cr.I.order == 16
    # every pair of factors is equivalent here
    for f in series[1:]:
        assert factors_equivalent(e16, series[0], f)


def test_factors_inequivalent_across_orders(s4):
    series = chief_series(s4)
    assert not factors_equivalent(s4, series[0], series[1])


def test_nonabelian_factor_crown():
    a5 = load_group({"family": "alt", "n": 5})
    (f,) = chief_series(a5)
    assert not f.is_abelian and f.module is None
    cr = crown_of_factor(a5, f)
    assert cr.delta == 1
    assert cr.R.order == 1
    assert cr.I.order == 60


def test_frattini_factor_has_no_crown():
    c4 = load_group({"family": "cyclic", "n": 4})
    bottom = chief_series(c4)[0]
    assert bottom.is_frattini
    with pytest.raises(PreconditionError):
        crown_of_factor(c4, bottom)


def _crown_by_definition(G, A) -> int:
    """Bits of R_G(A), read off the subgroup lattice.

    R_G(A) is the intersection of the normal N for which G/N is
    monolithic (one minimal normal subgroup strictly above N), primitive
    (some maximal subgroup has core N) and has socle equivalent to A.
    """
    classes = _lattice(G)
    normals = [rep for rep, orbit in classes if len(orbit) == 1]
    cores = []
    for rep, orbit in classes:
        if rep.is_maximal:
            core = rep.bits
            for conj in orbit:
                core &= conj.bits
            cores.append(core)

    def inside(small, big):
        return small.bits != big.bits and small.bits & big.bits == small.bits

    bits = (1 << G.order) - 1
    for N in normals:
        above = [M for M in normals if inside(N, M)]
        minimal = [M for M in above if not any(inside(K, M) for K in above)]
        if len(minimal) != 1 or N.bits not in cores:
            continue
        if factors_equivalent(G, A, _make_factor(G, minimal[0], N)):
            bits &= N.bits
    return bits


# S3 x S3: each C3 has a monolithic quotient S3 of the right order whose
# socle is the other, inequivalent C3
S3_X_S3 = {
    "degree": 6,
    "generators": [[2, 3, 1, 4, 5, 6], [2, 1, 3, 4, 5, 6], [1, 2, 3, 5, 6, 4], [1, 2, 3, 5, 4, 6]],
}


# PGL(2, 7) on GF(7) and infinity (point 8): x + 1, 3x and -1/x, as in
# test_maximal.py.  Its socle PSL(2, 7) is nonabelian, so some of its
# maximal classes are normalizers of subgroups of the socle.
PGL27 = {
    "name": "PGL(2,7)",
    "degree": 8,
    "generators": [[2, 3, 4, 5, 6, 7, 1, 8], [1, 4, 7, 3, 6, 2, 5, 8], [8, 7, 4, 3, 6, 5, 2, 1]],
}


def _reference_groups():
    for desc in read_corpus(shipped_corpus_path()):
        G = realize_descriptor(desc)[0]
        if G.order <= 200:
            yield G
    yield load_group(S3_X_S3)
    yield load_group(PGL27)


def test_crowns_match_their_definition():
    checked = 0
    for G in _reference_groups():
        for A in chief_series(G):
            if not A.is_frattini:
                assert crown_of_factor(G, A).R.bits == _crown_by_definition(G, A), G.name
                checked += 1
    assert checked >= 100


def _section_module_by_brute_force(G, A) -> ModuleAction:
    """A's module on another basis, in Perm arithmetic alone: the basis is
    picked greedily from upper's members in descending order, and each
    element's coordinates come from enumerating the p^f basis products
    over lower."""
    p, f = prime_power(A.order)
    lower = [G.element(int(i)) for i in A.lower.member_indices()]

    def coordinates(basis) -> dict:
        out = {}
        for c in itertools.product(range(p), repeat=len(basis)):
            e = Perm.identity(G.degree)
            for b, k in zip(basis, c):
                for _ in range(k):
                    e = e * b
            for x in lower:
                out[x * e] = c
        return out

    basis, coords = [], coordinates([])
    for i in A.upper.member_indices()[::-1]:
        if G.element(int(i)) not in coords:
            basis.append(G.element(int(i)))
            coords = coordinates(basis)
    assert len(basis) == f and len(coords) == A.upper.order
    mats = [[coords[g.inverse() * b * g] for b in basis] for g in G.generators]
    return ModuleAction(G, p, mats)


def test_section_modules_match_a_brute_force_basis():
    checked = 0
    for G in _reference_groups():
        for reverse in (False, True):
            for A in chief_series(G, reverse_ties=reverse):
                if A.is_abelian:
                    brute = _section_module_by_brute_force(G, A)
                    assert modules_isomorphic(A.module, brute), (G.name, A)
                    checked += 1
    assert checked >= 200


def test_corona_s4(s4):
    cor = corona_decomposition(s4)
    assert (cor.factor.order, cor.delta) == (4, 1)
    assert (cor.R.order, cor.I.order, cor.U.order) == (1, 4, 4)
    assert cor.U.order * cor.R.order == cor.I.order
    assert cor.U.bits & cor.R.bits == 1  # intersect in the identity


def test_corona_requires_trivial_frattini():
    with pytest.raises(PreconditionError):
        corona_decomposition(load_group({"family": "cyclic", "n": 4}))
    with pytest.raises(PreconditionError):
        corona_decomposition(load_group({"family": "cyclic", "n": 1}))


def test_sotto_on_all_s4_subgroup_classes(s4):
    cor = corona_decomposition(s4)
    for rep in subgroup_lattice(s4):
        assert verify_sotto(s4, cor, rep)


def test_sotto_needs_a_complement(s4):
    series = chief_series(s4)
    cr = crown_of_factor(s4, series[1])  # no U attached
    whole = max(subgroup_lattice(s4), key=lambda rec: rec.order)
    with pytest.raises(PreconditionError):
        verify_sotto(s4, cr, whole)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_crown_power_order_law_s3(k):
    s3 = load_group({"family": "sym", "n": 3})
    (a3,) = minimal_normal_subgroups(s3)
    Lk = build_crown_power_general(s3, k)
    assert Lk.order == a3.order ** (k - 1) * s3.order
    if k == 1:
        assert Lk is s3


def test_crown_power_coordinate_copies_not_alone():
    # with an abelian socle the k coordinate copies are minimal normal
    # subgroups but never the only ones: diagonals join them
    s4 = load_group({"family": "sym", "n": 4})
    (v4,) = minimal_normal_subgroups(s4)
    L2 = build_crown_power_general(s4, 2)
    assert L2.order == 96
    mins = minimal_normal_subgroups(L2)
    assert sorted(m.order for m in mins) == [4, 4, 4]


def test_crown_power_rejects_bad_socle():
    c6 = load_group({"family": "cyclic", "n": 6})
    mins = minimal_normal_subgroups(c6)
    assert len(mins) == 2  # C2 and C3: not monolithic
    with pytest.raises(InputError, match="no unique minimal normal subgroup"):
        build_crown_power_general(c6, 2)
    with pytest.raises(InputError, match="socle is Frattini"):
        build_crown_power_general(load_group({"family": "cyclic", "n": 4}), 2)
    with pytest.raises(InputError, match="k must be at least 1"):
        build_crown_power_general(load_group({"family": "sym", "n": 3}), 0)


def test_crown_power_descriptors():
    g, family, act = realize_descriptor({"crownpower": {"module": S3_GL22, "u": 2}})
    assert (g.order, family, act.group.order) == (4**2 * 6, "crownpower", 6)
    h, family, act = realize_descriptor(
        {"crownpower_general": {"group": {"family": "sym", "n": 3}, "k": 2}}
    )
    assert (h.order, family, act) == (18, "crownpower_general", None)
    for bad in (
        {"something_else": {}},
        {"crownpower_general": {"group": {"family": "sym", "n": 3}, "k": 2, "socle": [1]}},
        {"crownpower_general": {"group": {"family": "cyclic", "n": 6}, "k": 2}},
        {"crownpower_general": {"group": {"family": "sym", "n": 3}}},
    ):
        with pytest.raises(InputError):
            realize_descriptor(bad)


@pytest.mark.parametrize(
    "desc, attr",
    [
        ({"crownpower": {"module": S3_GL22, "u": 2}}, "abelian_crown_power_with_embedding"),
        ({"module": S3_GL22}, "abelian_crown_power_with_embedding"),
        ({"crownpower_general": {"group": {"family": "sym", "n": 3}, "k": 2}},
         "build_crown_power_general"),
    ],
    ids=["crownpower", "module", "crownpower_general"],
)
def test_realize_descriptor_calls_the_crowns_module(monkeypatch, desc, attr):
    # a wrapper set on the crowns module (as a tracer sets one) sees every
    # crown power that realize_descriptor builds
    import invgen.crowns as crowns

    calls = []
    build = getattr(crowns, attr)
    monkeypatch.setattr(crowns, attr, lambda *a: calls.append(a) or build(*a))
    realize_descriptor(desc)
    assert len(calls) == 1


def test_embedding_is_a_homomorphism():
    act = module_from_descriptor(S3_GL22)
    GA, emb = abelian_crown_power_with_embedding(act, 2)
    assert GA.order == 96
    H = act.group
    rng = np.random.default_rng(7)
    for _ in range(20):
        v1 = rng.integers(0, 2, size=4)
        v2 = rng.integers(0, 2, size=4)
        h1 = int(rng.integers(0, H.order))
        h2 = int(rng.integers(0, H.order))
        m2 = np.kron(np.eye(2, dtype=np.int64), act.matrix(h2))
        lhs = GA.mult_index(emb(v1, h1), emb(v2, h2))
        rhs = emb((v1 @ m2 + v2) % 2, H.mult_index(h1, h2))
        assert isinstance(lhs, int) and lhs == rhs
        assert GA.element(lhs) == GA.element(emb(v1, h1)) * GA.element(emb(v2, h2))


@pytest.mark.parametrize("name, u", [("mod_s3_gl22", 2), ("mod_d4_gf3", 1), ("mod_c2_gf3", 6)])
def test_embed_matches_the_affine_map(name, u):
    desc = next(d for d in read_corpus(shipped_corpus_path()) if d.get("name") == name)
    act = module_from_descriptor(desc["module"])
    H, p, K = act.group, act.p, act.dim * u
    GA, emb = abelian_crown_power_with_embedding(act, u)
    image_rows = _affine_image_rows(act, u)
    powers = p ** np.arange(K, dtype=np.int64)
    allpts = (np.arange(p**K, dtype=np.int64)[:, None] // powers) % p
    rng = np.random.default_rng(20261018)
    for _ in range(60):
        h = int(rng.integers(0, H.order))
        v = rng.integers(0, p, size=K)
        B = np.kron(np.eye(u, dtype=np.int64), act.matrices[h])
        want = tuple((((allpts @ B + v) % p) @ powers).tolist())
        i = emb(v, h)
        assert isinstance(i, int) and GA.element(i).images == want
        assert emb(v, H.element(h)) == i
        rows = image_rows(v, [h])  # in the ambient's row dtype, ready for _lookup
        assert rows.dtype == GA._E.dtype and tuple(rows[0].tolist()) == want


def _lift_ambient_cases():
    """(module row name, u) for every corpus module and every u with
    |V|^u |H| within the order cap."""
    cases = []
    for d in read_corpus(shipped_corpus_path()):
        if "module" in d:
            act = module_from_descriptor(d["module"])
            u = 1
            while act.p ** (act.dim * u) * act.group.order <= ORDER_CAP:
                cases.append((d["name"], u))
                u += 1
    return cases


LIFT_AMBIENT_CASES = _lift_ambient_cases()


def test_lift_ambient_cases_are_the_benchmark_set():
    assert len(LIFT_AMBIENT_CASES) == 21


@pytest.mark.parametrize("name, u", LIFT_AMBIENT_CASES)
def test_closed_form_matches_the_enumerated_group(name, u):
    # the same generators, enumerated as an unknown permutation group from
    # the rows of the independent affine route
    act = module_from_descriptor(_row(name)["module"])
    H, p, K = act.group, act.p, act.dim * u
    GA, emb = abelian_crown_power_with_embedding(act, u)
    image_rows = _affine_image_rows(act, u)
    hs = list(H.gen_indices)
    vs = np.vstack([np.zeros((len(hs), K), dtype=np.int64), np.eye(K, dtype=np.int64)])
    gens = [Perm(row) for row in image_rows(vs, hs + [0] * K).tolist()]
    ref = Group(gens, degree=p**K)
    assert GA._E.dtype == ref._E.dtype and np.array_equal(GA._E, ref._E)
    assert GA.generators == ref.generators
    assert GA.gen_indices == ref.gen_indices
    assert GA.table.dtype == ref.table.dtype and np.array_equal(GA.table, ref.table)
    assert np.array_equal(GA.inverses(), ref.inverses())
    assert GA.conjugacy_classes() == ref.conjugacy_classes()
    rng = np.random.default_rng([20261020, u])
    for _ in range(40):
        v = rng.integers(-p, 2 * p, size=K)
        h = int(rng.integers(0, H.order))
        assert emb(v, h) == int(ref._lookup(image_rows(v, [h]))[0])


def test_crown_power_of_an_unfaithful_module_is_refused():
    # C2 acting trivially on F_3: the pairs close to F_3 alone
    act = module_from_descriptor(
        {"group": {"family": "cyclic", "n": 2}, "p": 3, "matrices": [[[1]]]}
    )
    with pytest.raises(PreconditionError, match=r"^crown power closed to order 3, wanted 6$"):
        abelian_crown_power_with_embedding(act, 1)


def test_crown_power_and_its_table_search_no_rows(monkeypatch):
    # the closed form must not fall back to enumeration or row lookups
    import invgen.group as group

    act = module_from_descriptor(S3_GL22)
    calls = []
    for owner, attr in ((group, "_enumerate_rows"), (Group, "_lookup_all")):
        real = getattr(owner, attr)
        monkeypatch.setattr(
            owner, attr, lambda *a, real=real, attr=attr: calls.append(attr) or real(*a)
        )
    for u in (1, 2, 3):
        GA, _ = abelian_crown_power_with_embedding(act, u)
        assert GA.table.shape == (GA.order, GA.order)
    assert calls == []
    Group([Perm((1, 0, 2))], degree=3).table  # the counters do count
    assert calls == ["_enumerate_rows", "_lookup_all"]


def test_embed_rejects_a_vector_part_of_the_wrong_length():
    act = module_from_descriptor(S3_GL22)
    _, emb = abelian_crown_power_with_embedding(act, 1)
    assert emb([1, 1], 0) == emb([[1, 1]], 0)
    for v in ([1], [1, 0, 1], []):
        with pytest.raises(InputError, match="vector part has"):
            emb(v, 0)


def test_chief_series_is_built_once_per_tie_order(monkeypatch):
    import invgen.crowns as crowns

    G = load_group({"family": "sym", "n": 4})
    builds = []
    build = crowns._build_chief_series
    monkeypatch.setattr(
        crowns, "_build_chief_series", lambda H, rev: builds.append(rev) or build(H, rev)
    )
    first = chief_series(G)
    first.pop()
    again = chief_series(G)
    assert len(again) == len(first) + 1
    assert all(a is b for a, b in zip(first, again))
    for A in again:
        if not A.is_frattini:
            crown_of_factor(G, A)  # counts delta along both tie orders
    assert builds == [False, True]
    with pytest.raises(dataclasses.FrozenInstanceError):
        again[0].is_frattini = True


def test_frattini_values():
    assert frattini(load_group({"family": "cyclic", "n": 4})).order == 2
    assert frattini(load_group({"family": "sym", "n": 4})).order == 1
    assert frattini(load_group({"family": "cyclic", "n": 12})).order == 2


def _lattice_frattini_bits(G) -> int:
    """Phi(G) as the AND of the maximal subgroups in the whole lattice."""
    bits = (1 << G.order) - 1
    for rec in subgroup_lattice(G):
        if rec.is_maximal:
            bits &= rec.bits
    return bits


def test_frattini_matches_the_lattice():
    checked = 0
    for G in _reference_groups():
        assert frattini(G).bits == _lattice_frattini_bits(G), G.name
        checked += 1
    assert checked >= 40


def test_frattini_flags_match_the_quotient_lattice():
    # the definition read before maximal classes: upper/lower is Frattini
    # when its image lies in Phi(G/lower), from the quotient's lattice
    checked = 0
    for G in _reference_groups():
        quotients = {}
        for reverse in (False, True):
            for A in chief_series(G, reverse_ties=reverse):
                if A.lower.bits not in quotients:
                    Q, index_map = quotient_with_map(G, A.lower)
                    quotients[A.lower.bits] = (index_map, _lattice_frattini_bits(Q))
                index_map, phi = quotients[A.lower.bits]
                image = {int(i) for i in index_map[A.upper.member_indices()]}
                assert A.is_frattini == all(phi >> i & 1 for i in image), (G.name, A)
                checked += 1
    assert checked >= 200


def _row(name):
    return next(d for d in read_corpus(shipped_corpus_path()) if d.get("name") == name)


@pytest.mark.parametrize(
    "desc",
    [{"family": "sym", "n": 4}, {"family": "agl1", "q": 7}, _row("cp_gl22_u2"), _row("cpg_s4_k2")],
    ids=["S4", "agl1(7)", "cp_gl22_u2", "cpg_s4_k2"],
)
def test_crowns_build_no_lattice_over_an_abelian_minimal_normal(monkeypatch, desc):
    import invgen.subgroups as sg

    def no_lattice(G):
        raise AssertionError(f"the lattice of {G.name} was built")

    monkeypatch.setattr(sg, "_lattice", no_lattice)
    G = realize_descriptor(desc)[0]
    assert frattini(G).order == 1
    for reverse in (False, True):
        for A in chief_series(G, reverse_ties=reverse):
            if not A.is_frattini:
                crown_of_factor(G, A)
    assert corona_decomposition(G).U is not None
