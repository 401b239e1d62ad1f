"""Subgroup lattice against values known independently of the code."""

from collections import Counter

import numpy as np
import pytest

import invgen.subgroups as subgroups
from invgen import Group, load_group, read_corpus, realize_descriptor, shipped_corpus_path
from invgen.coverage import CACHE_ENV, _compute_table, coverage_table
from invgen.errors import PreconditionError
from invgen.group import prime_power
from invgen.subgroups import (
    _cyclic_subgroups_prime_power,
    _lattice,
    closure_indices,
    minimal_normal_subgroups,
    normal_subgroups,
    quotient_with_map,
    small_generating_set,
    subgroup_lattice,
)


def lattice_counts(G):
    classes = _lattice(G)
    return sum(len(orbit) for _, orbit in classes), len(classes)


@pytest.mark.parametrize(
    "desc, subgroups, classes",
    [
        # OEIS A005432 (subgroups of S_n) and A000638 (classes)
        ({"family": "sym", "n": 4}, 30, 11),
        ({"family": "sym", "n": 5}, 156, 19),
        ({"family": "sym", "n": 6}, 1455, 56),
        ({"family": "alt", "n": 5}, 59, 9),
        ({"family": "alt", "n": 6}, 501, 22),
        # sums of Gaussian binomials; every class is a single subgroup
        ({"family": "elemab", "p": 2, "k": 5}, 374, 374),
        ({"family": "elemab", "p": 3, "k": 3}, 28, 28),
    ],
    ids=["S4", "S5", "S6", "A5", "A6", "C2^5", "C3^3"],
)
def test_lattice_counts_match_known_values(desc, subgroups, classes):
    assert lattice_counts(load_group(desc)) == (subgroups, classes)


def _tau_plus_sigma(n):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return len(divisors) + sum(divisors)


@pytest.mark.parametrize("n", range(3, 11))
def test_dihedral_subgroup_count(n):
    # D_n of order 2n: for each divisor d of n, the cyclic <r^(n/d)> and
    # the n/d dihedral subgroups <r^(n/d), s r^i> with 0 <= i < n/d
    total, _ = lattice_counts(load_group({"family": "dihedral", "n": n}))
    assert total == _tau_plus_sigma(n)


def test_quaternion_subgroup_count():
    Q8 = load_group(
        {"degree": 8, "generators": [[3, 4, 2, 1, 8, 7, 5, 6], [5, 6, 7, 8, 2, 1, 4, 3]]}
    )
    assert Q8.order == 8
    assert lattice_counts(Q8) == (6, 6)


def _brute_force_subgroups(G):
    """Every subgroup, by joining each one found with every element."""
    t = G.table

    def closure(gens):
        members = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = int(t[a, g])
                    if b not in members:
                        members.add(b)
                        nxt.append(b)
            frontier = nxt
        return frozenset(members)

    trivial = frozenset({0})
    found = {trivial: ()}
    queue = [trivial]
    while queue:
        S = queue.pop()
        for x in range(G.order):
            if x in S:
                continue
            gens = found[S] + (x,)
            T = closure(gens)
            if T not in found:
                found[T] = gens
                queue.append(T)
    return set(found)


def test_lattice_equals_brute_force_on_small_corpus_groups():
    checked = []
    for desc in read_corpus(shipped_corpus_path()):
        G, _, _ = realize_descriptor(desc)
        if G.order > 32:
            continue
        lattice = {frozenset(int(i) for i in r.member_indices()) for r in subgroup_lattice(G)}
        assert lattice == _brute_force_subgroups(G), G.name
        checked.append(G.name)
    assert len(checked) >= 40


def _minimal_normals_from_all_normals(G):
    """The minimal normal subgroups read off the list of all normal ones."""
    normals = [r for r in normal_subgroups(G) if r.order > 1]
    return [
        r
        for r in normals
        if (r.order < G.order or len(normals) == 1)
        and not any(1 < s.order < r.order and (r.bits & s.bits) == s.bits for s in normals)
    ]


def test_minimal_normal_subgroups_match_all_normal_subgroups():
    for desc in read_corpus(shipped_corpus_path()):
        G = realize_descriptor(desc)[0]
        got = [(r.order, r.bits, r.gens) for r in minimal_normal_subgroups(G)]
        want = [(r.order, r.bits, r.gens) for r in _minimal_normals_from_all_normals(G)]
        assert got == want, G.name


def _small_corpus_groups(max_order):
    for desc in read_corpus(shipped_corpus_path()):
        G = realize_descriptor(desc)[0]
        if G.order <= max_order:
            yield G


def test_normal_subgroups_match_the_lattice():
    checked = 0
    for G in _small_corpus_groups(120):
        want = sorted((rep.order, rep.bits) for rep, orbit in _lattice(G) if len(orbit) == 1)
        assert [(r.order, r.bits) for r in normal_subgroups(G)] == want, G.name
        checked += 1
    assert checked == 51


def test_cyclic_positions_match_a_power_walk():
    # each element's position is that of the cyclic subgroup its powers
    # make as Perms, and -1 exactly when its order (1 included) is not a
    # prime power
    checked = 0
    for G in _small_corpus_groups(120):
        cyclics, cyc_of = _cyclic_subgroups_prime_power(G)
        position = {c.bits: k for k, c in enumerate(cyclics)}
        want = []
        for i in range(G.order):
            g = G.element(i)
            power, bits = g, 1
            while not power.is_identity():
                bits |= 1 << G.element_index(power)
                power = power * g
            want.append(position[bits] if prime_power(bits.bit_count()) else -1)
        assert cyc_of.tolist() == want, G.name
        assert set(want) == {-1, *range(len(cyclics))}, G.name
        checked += 1
    assert checked == 51


def test_quotients_are_regular_with_kernel_n():
    checked = 0
    for G in _small_corpus_groups(200):
        for N in normal_subgroups(G):
            Q, phi = quotient_with_map(G, N.member_indices())
            if N.order == 1:
                assert Q is G
            else:
                assert Q.degree == Q.order == G.order // N.order, (G.name, N)
            # phi(a b) = phi(a) phi(b) for every pair at once
            assert (phi[G.table] == Q.table[np.ix_(phi, phi)]).all(), (G.name, N)
            assert np.array_equal(np.flatnonzero(phi == 0), N.member_indices()), (G.name, N)
            checked += 1
    assert checked == 721


def test_quotient_by_a_non_normal_subgroup_is_refused(s4):
    conjugates = [r for _, orbit in _lattice(s4) if len(orbit) > 1 for r in orbit]
    assert len(conjugates) == 30 - 4  # all but 1, V4, A4 and S4
    for rec in conjugates:
        with pytest.raises(PreconditionError, match="non-normal"):
            quotient_with_map(s4, rec.member_indices())


def test_quotients_equal_the_enumeration_of_their_generators():
    # a second route to each quotient: enumerate it from its generators
    checked = 0
    for G in _small_corpus_groups(200):
        for N in normal_subgroups(G)[1:]:
            Q, _ = quotient_with_map(G, N.member_indices())
            ref = Group(Q.generators, degree=Q.degree)
            assert Q._E.dtype == ref._E.dtype and np.array_equal(Q._E, ref._E), (G.name, N)
            assert Q.gen_indices == ref.gen_indices, (G.name, N)
            assert np.array_equal(Q.table, ref.table), (G.name, N)
            checked += 1
    assert checked == 669  # the 721 quotients above, less the 52 by N = 1


def test_quotients_and_normal_subgroups_search_no_rows(monkeypatch):
    # both are built from rows already held, with no enumeration and no
    # row lookup; the lattice of N is stubbed, so only N is built
    import invgen.group as group
    import invgen.subgroups as sg

    groups = [load_group({"family": "sym", "n": n}) for n in (4, 5, 6)]
    normals = [normal_subgroups(G) for G in groups]  # G's table and classes too
    minimal = [sg._minimal_normal(G)[0] for G in groups]

    def refuse(*args):
        raise AssertionError("a row was searched for")

    built = []
    monkeypatch.setattr(group, "_enumerate_rows", refuse)
    monkeypatch.setattr(Group, "_lookup", refuse)
    monkeypatch.setattr(sg, "subgroup_lattice", lambda N: built.append(N) or [])
    for G, Ns, members in zip(groups, normals, minimal):
        for N in Ns[1:]:
            Q, phi = quotient_with_map(G, N.member_indices())
            assert (phi[G.table] == Q.table[np.ix_(phi, phi)]).all(), (G.name, N)
        assert sg._normalizer_orbits(G, members) == []
        N = built[-1]
        assert np.array_equal(N._E, G._E[members])
        assert np.array_equal(N.table, np.searchsorted(members, G.table[np.ix_(members, members)]))
    assert len(built) == len(groups)


def test_quotient_tables_reach_the_disk_cache(tmp_path, monkeypatch):
    # quotient generators carry Python ints, so the cache key serializes
    monkeypatch.setenv("INVGEN_CACHE_DIR", str(tmp_path))
    s4 = load_group({"family": "sym", "n": 4})
    (v4,) = minimal_normal_subgroups(s4)
    Q, _ = quotient_with_map(s4, v4.member_indices())
    assert coverage_table(Q) == _compute_table(load_group({"family": "sym", "n": 3}))
    # quotients keep the regular realization, whatever their order
    desc = next(d for d in read_corpus(shipped_corpus_path()) if d.get("name") == "mod_sl24_nat")
    G = realize_descriptor(desc)[0]
    (V,) = minimal_normal_subgroups(G)
    A5, _ = quotient_with_map(G, V.member_indices())
    assert A5.degree == A5.order == 60
    assert coverage_table(A5).maximal_orders == (6, 10, 12)  # S3, D10, A4
    assert all(type(x) is int for H in (Q, A5) for g in H.generators for x in g.images)
    assert len(list(tmp_path.iterdir())) == 2


def _closure_by_unique(G, gen_idxs, start=None, avoid=None, stops=None):
    """Reference closure: BFS by right multiplication over whole table
    rows, deduplicated by np.unique, from start, the members of a
    subgroup inside <gens> (by default the identity alone).  As
    documented for ``closure_indices``: with avoid, None once a new
    element meets the mask; once more than |G|/2 elements are found, G,
    or None with avoid.  stops, a Counter if given, counts the stop that
    ended the search."""
    t = G.table
    n = G.order
    gen_idxs = [int(g) for g in gen_idxs if g != 0]
    frontier = np.array([0] if start is None else start, dtype=np.int64)
    if not gen_idxs:
        return np.sort(frontier)
    seen = np.zeros(n, dtype=bool)
    seen[frontier] = True
    count = frontier.size
    while frontier.size:
        prods = t[frontier][:, gen_idxs].ravel()
        prods = prods[~seen[prods]]
        if prods.size == 0:
            break
        new = np.unique(prods)
        if avoid is not None and avoid[new].any():
            if stops is not None:
                stops["avoid"] += 1
            return None
        seen[new] = True
        count += new.size
        if 2 * count > n:
            if stops is not None:
                stops["whole" if avoid is None else "half"] += 1
            return np.arange(n, dtype=np.int64) if avoid is None else None
        frontier = new
    return np.flatnonzero(seen).astype(np.int64)


def _assert_closure_matches(G, gens):
    got, want = closure_indices(G, gens), _closure_by_unique(G, gens)
    assert got.dtype == want.dtype, (G.name, gens)
    assert np.array_equal(got, want), (G.name, gens)


def test_closure_matches_the_unique_bfs_on_class_generated_subgroups():
    checked = 0
    for G in _small_corpus_groups(200):
        classes = G.conjugacy_classes()
        for i, c in enumerate(classes):
            # a class, its representative, and its representative joined
            # with every later class's
            pairs = [[c.rep, d.rep] for d in classes[i + 1 :]]
            for gens in ([c.rep], c.member_indices(), *pairs):
                _assert_closure_matches(G, gens)
                checked += 1
    assert checked == 3189


def test_closure_matches_the_unique_bfs_on_lift_ambients(lift_ambients):
    rng = np.random.default_rng(20261018)
    for G in lift_ambients:
        for k in (1, 2, 3):
            for _ in range(40):
                _assert_closure_matches(G, rng.integers(0, G.order, size=k).tolist())


def test_closure_from_a_subgroup_matches_the_closure_from_the_identity():
    # for each partner c of a lattice representative H, the join <H, c>
    # grown from H's members equals <H, c> grown from the identity;
    # with a mask to avoid, None exactly when that closure meets the mask
    # or is G.  The masks miss H, whose members the search does not test.
    rng = np.random.default_rng(20261019)
    checked = met = whole = 0
    for G in _small_corpus_groups(120):
        n = G.order
        cyclics, _ = _cyclic_subgroups_prime_power(G)
        for H, _ in _lattice(G):
            inside = np.zeros(n, dtype=bool)
            inside[H.member_indices()] = True
            for c in cyclics:
                if (H.bits & c.bits) == c.bits:
                    continue  # not a partner: the join is H
                gens = H.gens + c.gens
                want = closure_indices(G, gens)
                got = closure_indices(G, gens, start=H.member_indices())
                assert np.array_equal(got, want), (G.name, H, c)
                avoid = (rng.random(n) < 4 / n) & ~inside
                hits = bool(avoid[want].any())
                got = closure_indices(G, gens, start=H.member_indices(), avoid=avoid)
                assert (got is None) == (hits or len(want) == n), (G.name, H, c)
                if got is not None:
                    assert np.array_equal(got, want), (G.name, H, c)
                checked += 1
                met += hits
                whole += len(want) == n
    assert checked > 10_000 and met > 1000 and whole > 1000, (checked, met, whole)


def test_closure_replays_the_coverage_tables_of_the_corpus(monkeypatch):
    # every closure made while the corpus's coverage tables are built
    # uncached, the complement search's joins grown from a start and
    # stopped by a mask to avoid among them, against the reference
    monkeypatch.delenv(CACHE_ENV, raising=False)
    real = subgroups.closure_indices
    calls = []

    def record(G, gens, start=None, avoid=None):
        got = real(G, gens, start=start, avoid=avoid)
        copy = [None if a is None else np.array(a) for a in (start, avoid)]
        calls.append((G, list(gens), *copy, got))
        return got

    monkeypatch.setattr(subgroups, "closure_indices", record)
    for desc in read_corpus(shipped_corpus_path()):
        _compute_table(realize_descriptor(desc)[0])
    stops = Counter()
    for G, gens, start, avoid, got in calls:
        want = _closure_by_unique(G, gens, start=start, avoid=avoid, stops=stops)
        if want is None:
            assert got is None, (G.name, gens)
        else:
            assert got is not None and got.dtype == want.dtype, (G.name, gens)
            assert np.array_equal(got, want), (G.name, gens)
    started = sum(start is not None for _, _, start, _, _ in calls)
    avoided = sum(avoid is not None for _, _, _, avoid, _ in calls)
    assert len(calls) > 2500 and started > 1000 and avoided > 1000, (len(calls), started, avoided)
    # a join that avoids N meets it before it passes |G|/2, so the None
    # of the |G|/2 stop is left to the regime-boundary cases
    assert stops["avoid"] > 0 and stops["whole"] > 0, stops


def _bfs_levels(G, gens):
    """Levels of the breadth-first search from the identity by right
    multiplication with gens, read entry by entry off the table."""
    t = G.table
    seen, levels = {0}, [[0]]
    while True:
        nxt = sorted({int(t[a, g]) for a in levels[-1] for g in gens} - seen)
        if not nxt:
            return levels
        seen.update(nxt)
        levels.append(nxt)


def _mask(n, members):
    mask = np.zeros(n, dtype=bool)
    mask[members] = True
    return mask


@pytest.fixture(scope="module")
def closure_boundary_cases(lift_ambients):
    """(G, gens, start, avoid, want) closures on both sides of the switch
    from scalar to vectorised levels in ``closure_indices``, want read
    off ``_closure_by_unique``; and the number of cases of each kind."""
    small = subgroups._SCALAR_FRONTIER
    rng = np.random.default_rng(20261020)
    cases, kinds = [], dict.fromkeys(("single", "start", "avoid early", "avoid late", "lagrange"), 0)
    for G in lift_ambients:
        n = G.order
        # involutions: the frontier never grows past one element
        for x in np.flatnonzero(np.diagonal(G.table) == 0)[1:].tolist():
            cases.append((G, [x], None, None, np.array([0, x], dtype=np.int64)))
            kinds["single"] += 1
        tails = [list(G.gen_indices[-k:]) for k in range(1, len(G.gen_indices) + 1)]
        pairs = [rng.integers(1, n, size=2).tolist() for _ in range(8)]
        for gens in tails + pairs:
            want = _closure_by_unique(G, gens)
            # a search from any subset of the closure reaches the closure
            for size in (1, small, small + 1, 16, 17, len(want)):
                if size <= len(want):
                    cases.append((G, gens, want[:size], None, want))
                    kinds["start"] += 1
            if len(want) == n:
                continue
            cases.append((G, gens, None, ~_mask(n, want), want))
            levels = _bfs_levels(G, gens)
            # a hit on the first level, whose frontier is the identity alone,
            # and on the first level after a frontier past the scalar regime
            cases.append((G, gens, None, _mask(n, levels[1][:1]), None))
            kinds["avoid early"] += 1
            late = [i for i in range(1, len(levels)) if len(levels[i - 1]) > small]
            if late:
                cases.append((G, gens, None, _mask(n, levels[late[0]][-1:]), None))
                kinds["avoid late"] += 1
    # the Lagrange stop on a level grown from a frontier in the scalar regime
    for G in _small_corpus_groups(32):
        n = G.order
        for a, b in rng.integers(0, n, size=(24, 2)).tolist():
            levels = _bfs_levels(G, [a, b])
            counts = np.cumsum([len(level) for level in levels])
            past = np.flatnonzero(2 * counts > n)
            if past.size and max(len(level) for level in levels[: past[0]]) <= small:
                cases.append((G, [a, b], None, None, np.arange(n, dtype=np.int64)))
                cases.append((G, [a, b], None, np.zeros(n, dtype=bool), None))
                kinds["lagrange"] += 1
    return cases, kinds


def _assert_closures(cases):
    for G, gens, start, avoid, want in cases:
        got = closure_indices(G, gens, start=start, avoid=avoid)
        if want is None:
            assert got is None, (G.name, gens)
        else:
            assert got is not None and got.dtype == want.dtype, (G.name, gens)
            assert np.array_equal(got, want), (G.name, gens)


def test_closure_at_the_regime_boundary_on_lift_ambients(closure_boundary_cases):
    cases, kinds = closure_boundary_cases
    _assert_closures(cases)
    assert kinds["single"] > 1000 and kinds["start"] > 500, kinds
    assert kinds["avoid early"] > 50 and kinds["avoid late"] > 20 and kinds["lagrange"] > 50, kinds


def test_each_closure_regime_alone_matches_the_default(closure_boundary_cases, monkeypatch):
    # threshold 0 always takes the vectorised levels, one above every
    # order always the scalar walk; both must agree with the default
    def tables():
        return [_compute_table(realize_descriptor(d)[0]) for d in read_corpus(shipped_corpus_path())]

    want = tables()
    for small in (0, 1 + max(G.order for G, *_ in closure_boundary_cases[0])):
        monkeypatch.setattr(subgroups, "_SCALAR_FRONTIER", small)
        _assert_closures(closure_boundary_cases[0])
        assert tables() == want, small


def _greedy_generators(G, members) -> tuple:
    """Each member outside the closure of the generators so far joins
    them, every closure taken from the identity."""
    gens, current = [], {0}
    for i in sorted(int(i) for i in members):
        if len(current) == len(members):
            break
        if i not in current:
            gens.append(i)
            current = set(_closure_by_unique(G, gens).tolist())
    return tuple(gens)


def test_small_generating_sets_match_the_greedy_reference():
    checked = 0
    for desc in read_corpus(shipped_corpus_path()):
        G = realize_descriptor(desc)[0]
        for N in normal_subgroups(G):
            members = N.member_indices()
            assert small_generating_set(G, members) == _greedy_generators(G, members), (G.name, N)
            checked += 1
    assert checked > 700
