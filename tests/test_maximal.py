"""Maximal-subgroup classes through a minimal normal subgroup, against
the subgroup lattice and against closed forms."""

import random

import numpy as np
import pytest

from invgen import (
    Group,
    Perm,
    load_group,
    module_from_descriptor,
    read_corpus,
    realize_descriptor,
    shipped_corpus_path,
)
from invgen.coverage import coverage_table
from invgen.crowns import abelian_crown_power_with_embedding, chief_series, corona_decomposition
from invgen.modlin import ModuleAction
from invgen.subgroups import (
    _lattice,
    _minimal_normal,
    _normalizer_orbits,
    closure_indices,
    frattini,
    maximal_classes,
    maximal_subgroups_up_to_conjugacy,
    minimal_normal_subgroups,
    quotient_with_map,
    subgroup_conjugates,
)


def _covers(G, reps):
    class_of = G.class_of()
    return tuple(
        int(sum(1 << int(c) for c in np.unique(class_of[members]))) for members in reps
    )


def lattice_route(G):
    """(maximal_orders, maximal_counts, covers) from the whole lattice."""
    reps = maximal_subgroups_up_to_conjugacy(G)
    return (
        tuple(rep.order for rep in reps),
        tuple(len(subgroup_conjugates(G, rep)) for rep in reps),
        _covers(G, [rep.member_indices() for rep in reps]),
    )


def new_route(G):
    table = coverage_table(G)
    return table.maximal_orders, table.maximal_counts, table.covers


def _check_classes(G):
    """Each returned class holds distinct conjugates, rows in bitset order."""
    for masks in maximal_classes(G):
        bits = [int.from_bytes(np.packbits(r, bitorder="little").tobytes(), "little") for r in masks]
        assert bits == sorted(set(bits))
        members = np.flatnonzero(masks[0])
        assert len(closure_indices(G, members)) == len(members)


def test_routes_agree_on_corpus():
    checked = 0
    for desc in read_corpus(shipped_corpus_path()):
        G = realize_descriptor(desc)[0]
        assert new_route(G) == lattice_route(G), G.name
        checked += 1
    assert checked == 56


MC_GROUPS = (
    {"family": "agl1", "q": 11},
    {"family": "agl1", "q": 13},
    {"name": "cpg_agl15_k2",
     "crownpower_general": {"group": {"family": "agl1", "q": 5}, "socle": "auto", "k": 2}},
    {"family": "elemab", "p": 2, "k": 5},
    {"family": "elemab", "p": 5, "k": 3},
    {"family": "elemab", "p": 11, "k": 3},
)


@pytest.mark.parametrize(
    "desc", MC_GROUPS, ids=["agl1_11", "agl1_13", "cpg_agl15_k2", "2^5", "5^3", "11^3"]
)
def test_routes_agree_on_monte_carlo_groups(desc):
    G = realize_descriptor(desc)[0]
    assert new_route(G) == lattice_route(G)


def _lift_ambients(max_order):
    for d in read_corpus(shipped_corpus_path()):
        if "module" not in d:
            continue
        act = module_from_descriptor(d["module"])
        u = 1
        while act.p ** (act.dim * u) * act.group.order <= max_order:
            yield d["name"], u, abelian_crown_power_with_embedding(act, u)
            u += 1


def test_routes_agree_on_lift_ambients():
    # mod_c2_gf3 at u = 5 (order 486) is left to the closed form below:
    # its lattice alone takes half a minute
    checked = []
    for name, u, (G, _) in _lift_ambients(600):
        if name == "mod_c2_gf3" and u == 5:
            continue
        assert new_route(G) == lattice_route(G), (name, u)
        _check_classes(G)
        checked.append((name, u))
    assert len(checked) == 15


@pytest.mark.parametrize("u", range(1, 7))
def test_sign_module_powers_match_closed_form(u):
    # G = GF(3)^u x| <t>, t acting as -1.  The maximal subgroups are V
    # and, for each hyperplane W, the three conjugates W<vt> (v ranging
    # over V/W).  Classes: the identity, the pairs {v, -v}, and one
    # class of all 3^u involutions vt.
    mods = {d["name"]: d["module"] for d in read_corpus(shipped_corpus_path()) if "module" in d}
    G, embed = abelian_crown_power_with_embedding(module_from_descriptor(mods["mod_c2_gf3"]), u)
    class_of = G.class_of()
    vectors = (np.arange(3**u)[:, None] // 3 ** np.arange(u)) % 3
    cls = [int(class_of[G.element_index(embed(v, 0))]) for v in vectors]
    involution = 1 << int(class_of[G.element_index(embed(vectors[0], 1))])
    V = sum(1 << c for c in set(cls))
    hyperplanes = []
    for f in vectors[1:]:
        if f[np.flatnonzero(f)[0]] != 1:
            continue  # f and -f have one kernel
        inside = (vectors @ f) % 3 == 0
        hyperplanes.append(sum(1 << c for c in {cls[i] for i in np.flatnonzero(inside)}) | involution)
    assert len(hyperplanes) == (3**u - 1) // 2
    orders, counts, covers = new_route(G)
    r = len(hyperplanes)
    assert orders == (2 * 3 ** (u - 1),) * r + (3**u,)
    assert counts == (3,) * r + (1,)
    assert sorted(covers[:-1]) == sorted(hyperplanes)
    assert covers[-1] == V


@pytest.mark.parametrize("p, k", [(2, 7), (3, 5)])
def test_elementary_abelian_closed_form(p, k):
    # the maximal subgroups of GF(p)^k are its (p^k - 1)/(p - 1)
    # hyperplanes, each normal, of order p^(k-1)
    G = load_group({"family": "elemab", "p": p, "k": k})
    table = coverage_table(G)
    r = (p**k - 1) // (p - 1)
    assert table.maximal_orders == (p ** (k - 1),) * r
    assert table.maximal_counts == (1,) * r
    assert len(set(table.covers)) == r
    classes = G.conjugacy_classes()
    for cover in table.covers:
        members = [classes[c].rep for c in range(table.num_classes) if cover >> c & 1]
        assert len(members) == p ** (k - 1)
        assert len(closure_indices(G, members)) == p ** (k - 1)


def test_complement_search_extends_only_joins_that_avoid_n(monkeypatch):
    # A join that meets N in more than the identity spans no complement;
    # the search must drop it, not extend it (Q8: the lift i of a
    # generator of Q8/Z spans <i>, which holds -1).  The search avoids N
    # less the identity, so every join it extends must miss that mask.
    import invgen.subgroups as sg

    real = sg.closure_indices
    extended = []

    def closure(G, gens, start=None, avoid=None):
        if avoid is not None:
            extended.append((G.name, not avoid[start].any()))
        return real(G, gens, start=start, avoid=avoid)

    monkeypatch.setattr(sg, "closure_indices", closure)
    for desc in read_corpus(shipped_corpus_path()):
        maximal_classes(realize_descriptor(desc)[0])
    assert len(extended) > 1000
    assert [name for name, avoids in extended if not avoids] == []


def _lattice_builds(monkeypatch) -> list:
    """The groups whose lattice the package builds from here on."""
    import invgen.subgroups as sg

    built = []
    real = sg._lattice
    monkeypatch.setattr(sg, "_lattice", lambda H: built.append(H) or real(H))
    return built


def test_proper_nonabelian_socle_takes_the_lattice_of_the_socle(monkeypatch):
    for desc in ({"family": "sym", "n": 5}, {"family": "sym", "n": 6}):
        G = load_group(desc)
        members, abelian = _minimal_normal(G)
        assert not abelian and 2 * len(members) == G.order
        built = _lattice_builds(monkeypatch)
        route = new_route(G)
        assert [H.order for H in built] == [G.order // 2]  # the socle's own group
        assert route == lattice_route(load_group(desc))


def _has_abelian_minimal_normal(H: Group) -> bool:
    for N in minimal_normal_subgroups(H):
        members = N.member_indices()
        block = H.table[np.ix_(members, members)]
        if (block == block.T).all():
            return True
    return False


def test_corpus_groups_build_a_lattice_only_without_an_abelian_minimal_normal(monkeypatch):
    # maximal_classes on fresh copies of the corpus groups hands _lattice,
    # also in its recursion through quotients, only groups none of whose
    # minimal normal subgroups is abelian; and some corpus groups have one,
    # so they took the abelian route without a lattice
    built = _lattice_builds(monkeypatch)
    abelian_route = 0
    for desc in read_corpus(shipped_corpus_path()):
        G = realize_descriptor(desc)[0]
        maximal_classes(G)
        abelian_route += G.order > 1 and _has_abelian_minimal_normal(G)
    assert built and not any(_has_abelian_minimal_normal(H) for H in built)
    assert abelian_route


def _pgl27() -> Group:
    """PGL(2, 7) on GF(7) and infinity (point 7): x + 1, 3x and -1/x."""
    inf = 7
    images = [
        [(x + 1) % 7 for x in range(7)] + [inf],
        [3 * x % 7 for x in range(7)] + [inf],
        [inf] + [-pow(x, -1, 7) % 7 for x in range(1, 7)] + [0],
    ]
    return Group([Perm(i) for i in images], name="PGL(2,7)", degree=8)


def test_pgl27_matches_the_lattice():
    # socle PSL(2, 7); its two classes of S4 are self-normalizing in G, so
    # their normalizers are candidates of order 24 that lie in PSL(2, 7)
    G = _pgl27()
    assert G.order == 336
    members, abelian = _minimal_normal(G)
    assert not abelian and len(members) == 168
    assert 24 in {len(np.flatnonzero(masks[0])) for masks in _normalizer_orbits(G, members)}
    orders, counts, covers = new_route(G)
    assert (orders, counts) == ((12, 16, 42, 168), (28, 21, 8, 1))
    assert (orders, counts, covers) == lattice_route(_pgl27())


def _normalizer_search_builds(monkeypatch) -> list:
    """The groups _normalizer_orbits builds from here on."""
    import invgen.subgroups as sg

    built, inside = [], []
    real_rows, real_orbits = Group._from_rows.__func__, sg._normalizer_orbits

    def from_rows(cls, *args):
        out = real_rows(cls, *args)
        if inside:
            built.append(out[0])
        return out

    def orbits(G, members):
        inside.append(G)
        try:
            return real_orbits(G, members)
        finally:
            inside.pop()

    monkeypatch.setattr(Group, "_from_rows", classmethod(from_rows))
    monkeypatch.setattr(sg, "_normalizer_orbits", orbits)
    return built


@pytest.mark.parametrize(
    "make",
    [
        lambda: load_group({"family": "alt", "n": 5}),
        lambda: load_group({"family": "alt", "n": 6}),
        lambda: load_group({"family": "sym", "n": 5}),
        lambda: load_group({"family": "sym", "n": 6}),
        _pgl27,
    ],
    ids=["A5", "A6", "S5", "S6", "PGL(2,7)"],
)
def test_only_the_normalizer_search_builds_a_lattice(monkeypatch, make):
    # simple or not, the maximal classes come from one recursion: the
    # lattice is built only for the socle, as a group of its own that the
    # normalizer search made from G's rows, never for G itself
    G = make()
    searched = _normalizer_search_builds(monkeypatch)
    built = _lattice_builds(monkeypatch)
    coverage_table(G)
    assert frattini(G).order == 1
    chief_series(G)
    assert corona_decomposition(G).U is not None
    assert built and not any(H is G for H in built)
    assert all(any(H is S for S in searched) for H in built)


def test_abelian_minimal_normal_over_a_nonabelian_socle():
    # mod_sl24_nat is GF(2)^4 x| SL(2,4): the module is the abelian
    # minimal normal subgroup, and the quotient SL(2,4) = A5 is simple
    desc = next(d for d in read_corpus(shipped_corpus_path()) if d.get("name") == "mod_sl24_nat")
    G = realize_descriptor(desc)[0]
    members, abelian = _minimal_normal(G)
    assert abelian and len(members) == 16
    (N,) = minimal_normal_subgroups(G)
    assert N.order == 16
    Q, _ = quotient_with_map(G, N.member_indices())
    members, abelian = _minimal_normal(Q)
    assert not abelian and len(members) == Q.order == 60
    assert new_route(G) == lattice_route(realize_descriptor(desc)[0])


def _sym_subgroup_classes():
    """One group per nontrivial subgroup class of S_n, n <= 6, generated
    by the class representative's generators."""
    out = []
    for n in range(2, 7):
        S = load_group({"family": "sym", "n": n})
        out += [Group([S.element(g) for g in rep.gens], degree=n) for rep, _ in _lattice(S)[1:]]
    return out


def _commutes(G, members):
    block = G.table[np.ix_(members, members)]
    return bool((block == block.T).all())


def test_minimal_normal_is_one_of_the_minimal_normal_subgroups(lift_ambients):
    # the smallest closure of a prime-order class, or the smallest abelian
    # one, against the list of every minimal normal subgroup
    groups = _sym_subgroup_classes()
    assert len(groups) == 87
    groups += [realize_descriptor(d)[0] for d in read_corpus(shipped_corpus_path())]
    assert len(lift_ambients) == 21
    for G in groups + lift_ambients:
        members, abelian = _minimal_normal(G)
        minimal = minimal_normal_subgroups(G)
        assert any(np.array_equal(members, N.member_indices()) for N in minimal), G.name
        assert abelian == _commutes(G, members), G.name
        assert abelian == any(_commutes(G, N.member_indices()) for N in minimal), G.name


def _random_module(rng):
    """A faithful module: random invertible matrices over GF(p), with the
    group they generate realized on the p^d vectors."""
    while True:
        p = rng.choice([2, 3, 5, 7])
        d = rng.choice([1, 2])
        mats = []
        for _ in range(rng.choice([1, 2])):
            M = np.array([[rng.randrange(p) for _ in range(d)] for _ in range(d)])
            if round(np.linalg.det(M)) % p and not np.array_equal(M % p, np.eye(d)):
                mats.append(M)
        if not mats:
            continue
        vectors = (np.arange(p**d)[:, None] // p ** np.arange(d)) % p
        codes = p ** np.arange(d)
        gens = [Perm((((vectors @ M) % p) @ codes).tolist()) for M in mats]
        H = Group(gens, degree=p**d)
        if len(H.generators) != len(mats) or H.order * p**d > 500:
            continue
        return ModuleAction(H, p, mats)


def test_routes_agree_on_random_semidirect_products():
    # |V^u| <= 125 keeps each lattice within a few seconds; GF(3)^5 x| C2
    # (order 486) alone takes half a minute
    rng = random.Random(20_261_018)
    orders = []
    while len(orders) < 12:
        act = _random_module(rng)
        base = act.p**act.dim
        u_max = 1
        while base ** (u_max + 1) <= 125 and base ** (u_max + 1) * act.group.order <= 500:
            u_max += 1
        G, _ = abelian_crown_power_with_embedding(act, rng.randint(1, u_max))
        assert new_route(G) == lattice_route(G), (act.p, [m.tolist() for m in act.gen_matrices])
        orders.append(G.order)
    assert max(orders) > 100


def test_maximal_classes_are_built_once_per_group(monkeypatch):
    import invgen.subgroups as sg

    builds = []
    real = sg._maximal_orbits
    monkeypatch.setattr(sg, "_maximal_orbits", lambda H: builds.append(H) or real(H))
    G = load_group({"family": "sym", "n": 4})
    first = maximal_classes(G)
    frattini(G)
    chief_series(G)
    corona_decomposition(G)
    coverage_table(G)
    assert maximal_classes(G) is first
    assert sum(H is G for H in builds) == 1
