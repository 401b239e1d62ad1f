"""Permutations, multiplication tables, classes, descriptors."""

import os
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import invgen
from invgen import (
    CapExceeded,
    Group,
    InputError,
    LiftProblem,
    Perm,
    abelian_crown_power_with_embedding,
    build_crown_power_general,
    build_dw,
    load_group,
    module_from_descriptor,
    read_corpus,
    realize_descriptor,
    shipped_corpus_path,
)
from invgen.cheb import inclusion_exclusion_profile
from invgen.coverage import _compute_table, coverage_table, invariably_generates
from invgen.crowns import chief_series
from invgen.group import ORDER_CAP, is_prime, prime_power
from invgen.subgroups import (
    _prime_order_classes,
    _row_bits,
    closure_indices,
    generated_subgroup,
    maximal_classes,
)


def _perm_bfs_elements(generators, degree):
    """Reference enumeration: BFS by Perm products, then a sort."""
    ident = Perm.identity(degree)
    seen = {ident.images: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in generators:
                b = a * g
                if b.images not in seen:
                    seen[b.images] = b
                    nxt.append(b)
        frontier = nxt
    return tuple(sorted(seen.values()))


def _reference(G):
    """The reference enumeration of G and its own images -> index dict,
    independent of the rows and lookups under test."""
    ref = _perm_bfs_elements(G.generators, G.degree)
    return ref, {p.images: i for i, p in enumerate(ref)}


def _elements(G):
    return tuple(G.element(i) for i in range(G.order))


def _perm_classes(G, ref, index):
    """Reference classes: orbits under conjugation by two Perm products per
    element and generator.  Returns ([(rep, size, members bitset)] sorted by
    (size, rep), class index of each element)."""
    gen_perms = [(g, g.inverse()) for g in G.generators]
    assigned = [False] * G.order
    orbits = []
    for start in range(G.order):
        if assigned[start]:
            continue
        assigned[start] = True
        orbit = [start]
        k = 0
        while k < len(orbit):
            x = ref[orbit[k]]
            k += 1
            for g, ginv in gen_perms:
                yi = index[(ginv * x * g).images]
                if not assigned[yi]:
                    assigned[yi] = True
                    orbit.append(yi)
        orbits.append(orbit)
    orbits.sort(key=lambda o: (len(o), min(o)))
    class_of = [0] * G.order
    for ci, orbit in enumerate(orbits):
        for i in orbit:
            class_of[i] = ci
    return [(min(o), len(o), sum(1 << i for i in o)) for o in orbits], class_of


def _perm_inverses(ref, index):
    """Reference inverse of every element, by inverting its Perm."""
    return [index[p.inverse().images] for p in ref]


@pytest.fixture(scope="module")
def corpus_groups():
    return [realize_descriptor(d)[0] for d in read_corpus(shipped_corpus_path())]


def test_perm_composition_is_left_to_right():
    a = Perm((1, 0, 2))  # swap first two points
    b = Perm((0, 2, 1))  # swap last two
    ab = a * b
    # (a*b)(x) = b(a(x)): point 0 goes 0->1->2
    assert ab(0) == 2
    assert (b * a)(0) == 1


def test_perm_inverse_and_order():
    c = Perm((1, 2, 3, 0))
    assert c * c.inverse() == Perm.identity(4)
    assert c.order() == 4
    assert Perm.identity(4).order() == 1


def test_perm_one_based_round_trip():
    p = Perm.from_one_based([2, 3, 1])
    assert p.images == (1, 2, 0)
    assert p.one_based() == [2, 3, 1]


def test_perm_conjugation_operator():
    g = Perm((1, 0, 2))
    x = Perm((2, 0, 1))
    assert g**x == x.inverse() * g * x


def test_perm_from_cycles():
    p = Perm.from_cycles([(0, 1, 2)], 4)
    assert p.images == (1, 2, 0, 3)
    with pytest.raises(InputError):
        Perm.from_cycles([(0, 1), (1, 2)], 3)  # overlapping support


def test_one_based_parser_rejects_non_bijections():
    with pytest.raises(InputError):
        Perm.from_one_based([1, 1, 2])
    with pytest.raises(InputError):
        Perm.from_one_based([1, 6, 2])


def test_group_rejects_generators_that_are_not_bijections():
    with pytest.raises(InputError, match="not a permutation"):
        Group([Perm([1, 1, 2])])
    with pytest.raises(InputError, match="not a permutation"):
        Group([Perm([1, 0, 3])])


def test_cycles_of_a_non_bijection_raise_instead_of_looping():
    # in a child process, so a walk that never closes fails the test
    # at the timeout instead of hanging the run
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(invgen.__file__).parent.parent), os.environ.get("PYTHONPATH")) if p
    ))
    probe = (
        "from invgen import InputError, Perm\n"
        "for images in ([1, 1], [1, 0, 0], [2, 2, 1]):\n"
        "    try:\n"
        "        Perm(images).order()\n"
        "    except InputError:\n"
        "        print('raised')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.split() == ["raised"] * 3


def test_s3_table_consistency(s3):
    assert s3.order == 6
    t = s3.table
    e = 0
    assert all(t[e, g] == g for g in range(6))
    for g in range(6):
        assert t[g, s3.inv_index(g)] == e
        assert s3.mult_index(g, s3.inv_index(g)) == e
    # associativity on a sample of triples
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b, c = rng.integers(0, 6, size=3)
        assert t[t[a, b], c] == t[a, t[b, c]]


def test_conjugacy_classes_partition(s4):
    classes = s4.conjugacy_classes()
    sizes = sorted(c.size for c in classes)
    assert sizes == [1, 3, 6, 6, 8]
    union = 0
    for c in classes:
        assert union & c.members == 0
        union |= c.members
    assert union == (1 << s4.order) - 1
    class_of = s4.class_of()
    for ci, c in enumerate(classes):
        assert all(class_of[i] == ci for i in c.member_indices())


def test_class_of_constant_under_conjugation(s3):
    class_of = s3.class_of()
    t = s3.table
    for g in range(s3.order):
        for x in range(s3.order):
            gx = t[t[s3.inv_index(x), g], x]
            assert class_of[gx] == class_of[g]


@pytest.mark.parametrize(
    "desc,order",
    [
        ({"family": "sym", "n": 4}, 24),
        ({"family": "alt", "n": 5}, 60),
        ({"family": "cyclic", "n": 12}, 12),
        ({"family": "dihedral", "n": 6}, 12),
        ({"family": "elemab", "p": 2, "k": 3}, 8),
        ({"family": "agl1", "q": 8}, 56),
        ({"family": "agl1", "q": 9}, 72),
        ({"family": "agl1", "q": 16}, 240),
        ({"family": "agl1", "q": 32}, 992),
    ],
)
def test_family_orders(desc, order):
    assert load_group(desc).order == order


# images of x -> x * a on GF(q), point i the polynomial whose base-p digits
# are i; for q not prime the field's modulus decides them
AGL1_PRODUCT_IMAGES = {
    4: (0, 2, 3, 1),
    8: (0, 2, 4, 6, 3, 1, 7, 5),
    9: (0, 4, 8, 5, 6, 1, 7, 2, 3),
    25: (0, 6, 12, 18, 24, 8, 14, 15, 21, 2, 11, 17, 23, 4, 5, 19, 20, 1, 7, 13, 22, 3, 9,
         10, 16),
    27: (0, 3, 6, 9, 12, 15, 18, 21, 24, 5, 8, 2, 14, 17, 11, 23, 26, 20, 7, 1, 4, 16, 10, 13,
         25, 19, 22),
}


@pytest.mark.parametrize("q", sorted(AGL1_PRODUCT_IMAGES))
def test_agl1_generator_images(q):
    G = load_group({"family": "agl1", "q": q})
    p, _ = prime_power(q)
    trans, product = G.generators
    # x + 1 steps the low digit
    assert trans.images == tuple(i // p * p + (i + 1) % p for i in range(q))
    assert product.images == AGL1_PRODUCT_IMAGES[q]
    assert product.order() == q - 1


def test_explicit_generator_descriptor():
    # quaternion group on its regular representation, 1-based images
    q8 = load_group(
        {
            "name": "Q8",
            "degree": 8,
            "generators": [[3, 4, 2, 1, 8, 7, 5, 6], [5, 6, 7, 8, 2, 1, 4, 3]],
        }
    )
    assert q8.order == 8
    assert q8.name == "Q8"
    orders = sorted(g.order() for g in _elements(q8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_descriptor_validation():
    with pytest.raises(InputError):
        load_group({"family": "nope", "n": 3})
    with pytest.raises(InputError):
        load_group({"family": "sym"})
    with pytest.raises(InputError):
        load_group({"family": "elemab", "p": 4, "k": 1})
    with pytest.raises(InputError):
        load_group({"family": "agl1", "q": 6})
    with pytest.raises(InputError):
        load_group([])
    for desc in (
        {"family": "sym", "n": "x"},
        {"family": "dihedral", "n": None},
        {"family": "elemab", "p": 2, "k": "two"},
        {"family": "agl1", "q": [5]},
        {"family": "sym", "n": 3.9},
        {"family": "cyclic", "n": True},
        {"family": "elemab", "p": 2, "k": False},
        {"family": "alt", "n": float("nan")},
        {"generators": [[2, 1]], "degree": 2.5},
    ):
        with pytest.raises(InputError, match="must be an integer"):
            load_group(desc)
    # integral values are read, not rejected
    for n in (3, 3.0, "3"):
        assert load_group({"family": "sym", "n": n}).order == 6
    assert load_group({"generators": [[2, 1]], "degree": 2.0}).order == 2
    for desc in (
        {"generators": [[2, 1]], "degree": "x"},
        {"generators": [[2, 1]], "degree": None},
        {"generators": [["a", "b"]], "degree": 2},
        {"generators": 5, "degree": 2},
    ):
        with pytest.raises(InputError):
            load_group(desc)


def test_degree_cap_enforced(monkeypatch):
    with pytest.raises(CapExceeded, match="^degree 99 exceeds degree cap 64$"):
        load_group({"family": "sym", "n": 99})
    # a loosened cap admits larger degrees
    monkeypatch.setattr("invgen.group.DEGREE_CAP", 128)
    g = load_group({"family": "cyclic", "n": 70})
    assert g.order == 70


@pytest.mark.parametrize(
    "desc,error",
    [
        ({"family": "agl1", "q": 1000003}, CapExceeded),
        ({"family": "cyclic", "n": 2_000_000}, CapExceeded),
        ({"family": "sym", "n": 2_000_000}, CapExceeded),
        ({"family": "elemab", "p": 10**18 + 9, "k": 1}, CapExceeded),
        ({"family": "elemab", "p": 10**18 + 9, "k": 0}, InputError),
    ],
    ids=["agl1_prime_q", "cyclic_huge_n", "sym_huge_n", "elemab_huge_p", "elemab_huge_p_k0"],
)
def test_huge_parameters_fail_fast(desc, error):
    # the degree cap and k >= 1 are checked before any generator, field
    # or primality test is built from a huge parameter
    start = time.perf_counter()
    with pytest.raises(error):
        load_group(desc)
    assert time.perf_counter() - start < 0.1


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(0, 9), max_size=2),
)
_PARAM = st.one_of(st.integers(-4, 70), st.integers(), _JUNK)


@settings(
    max_examples=300,
    deadline=timedelta(seconds=1),
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.fixed_dictionaries(
        {
            "family": st.one_of(
                st.sampled_from(["sym", "alt", "cyclic", "dihedral", "elemab", "agl1"]),
                _JUNK,
            )
        },
        optional={"n": _PARAM, "p": _PARAM, "k": _PARAM, "q": _PARAM},
    )
)
def test_load_group_fuzz(desc):
    # every draw loads within the order cap or fails with one of the two
    # reported errors; the cap keeps each draw fast
    try:
        G = load_group(desc)
    except (InputError, CapExceeded):
        return
    assert isinstance(G, Group)
    assert G.order <= ORDER_CAP


def test_canonical_key_is_representation_stable():
    a = load_group({"family": "sym", "n": 3})
    b = load_group({"family": "sym", "n": 3})
    assert a.canonical_key() == b.canonical_key()
    assert a.canonical_key() != load_group({"family": "cyclic", "n": 6}).canonical_key()


def test_element_index_round_trip(corpus_groups, lift_ambients):
    big = list(range(70_000))
    big[0], big[-1] = big[-1], big[0]
    edge_cases = (
        Group([Perm.identity(1)], degree=1),
        Group([], degree=5),  # generator-free, explicit degree
        Group([Perm(big)]),  # 32-bit rows
    )
    assert max(G.degree for G in lift_ambients) == 729
    for G in (*corpus_groups, *lift_ambients, *edge_cases):
        for i in range(G.order):
            g = G.element(i)
            assert G.element_index(g) == i, G.name
            assert g in G, G.name
    a4 = load_group({"family": "alt", "n": 4})
    for p in (Perm((1, 0, 2, 3)), Perm((1, 0, 2))):  # odd; wrong degree
        assert p not in a4
        with pytest.raises(InputError, match="not an element"):
            a4.element_index(p)
    assert 0 not in a4  # an index is not an element


def test_class_orders_match_perm_order(corpus_groups, lift_ambients):
    # the orders come from the representatives' rows; the oracle is Perm.order
    regular = Group([Perm(tuple(range(1, 300)) + (0,))])  # 300 classes of 300 points: two chunks
    for G in (*corpus_groups, *lift_ambients, regular):
        want = tuple(G.element(c.rep).order() for c in G.conjugacy_classes())
        assert G.class_orders() == want, G.name


def _prime_order_classes_by_table(G):
    """Reference: each representative's order by walking its powers in the table."""
    t = G.table
    out = []
    for c in G.conjugacy_classes():
        order, x = 1, c.rep
        while x != 0:
            x = int(t[x, c.rep])
            order += 1
        if is_prime(order):
            out.append(c)
    return out


def test_prime_order_classes_match_the_table_walk(corpus_groups, lift_ambients):
    for G in (*corpus_groups, *lift_ambients):
        assert _prime_order_classes(G) == _prime_order_classes_by_table(G), G.name


_S3_GL22 = {
    "group": {"family": "sym", "n": 3},
    "p": 2,
    "matrices": [[[1, 0], [1, 1]], [[0, 1], [1, 1]]],
}


def _index_entry_points():
    """name -> (group order, a call taking one element index)."""
    s4 = load_group({"family": "sym", "n": 4})
    act = module_from_descriptor(_S3_GL22)
    _, embed = abelian_crown_power_with_embedding(act, 1)
    zero = np.zeros((1, 1, 2), dtype=np.int64)
    return {
        "element_index": (24, s4.element_index),
        "element": (24, s4.element),
        "generated_subgroup": (24, lambda i: generated_subgroup(s4, [i])),
        "invariably_generates": (24, lambda i: invariably_generates(s4, [i])),
        "matrix": (6, act.matrix),
        "embed": (6, lambda i: embed(zero.ravel(), i)),
        "lift_problem": (6, lambda i: LiftProblem(act, 1, [i], zero)),
        "build_dw": (6, lambda i: build_dw(act, [i])),
    }


@pytest.mark.parametrize("past", [False, True], ids=["minus_one", "order"])
@pytest.mark.parametrize(
    "entry",
    [
        "build_dw",
        "element",
        "element_index",
        "embed",
        "generated_subgroup",
        "invariably_generates",
        "lift_problem",
        "matrix",
    ],
)
def test_element_index_out_of_range_is_an_input_error(entry, past):
    # -1 used to wrap to the last element, and order raised a bare IndexError
    order, call = _index_entry_points()[entry]
    with pytest.raises(InputError, match="out of range"):
        call(order if past else -1)


def _assert_matches_reference(G):
    ref, index = _reference(G)
    assert _elements(G) == ref, G.name
    assert G.gen_indices == tuple(index[g.images] for g in G.generators), G.name


def test_enumeration_matches_perm_bfs_on_corpus(corpus_groups):
    assert len(corpus_groups) == 56
    for G in corpus_groups:
        _assert_matches_reference(G)


def test_enumeration_matches_perm_bfs_on_lift_ambients(lift_ambients):
    assert len(lift_ambients) == 21
    assert max(G.degree for G in lift_ambients) == 729
    for G in lift_ambients:
        _assert_matches_reference(G)


def test_table_matches_products_on_corpus(corpus_groups):
    checked = 0
    for G in corpus_groups:
        if G.order > 200:
            continue
        t = G.table
        ref, index = _reference(G)
        for i, a in enumerate(ref):
            want = [index[(a * b).images] for b in ref]
            assert t[i].tolist() == want, G.name
        checked += 1
    assert checked >= 40


def _table_by_rows(G):
    """Reference table: the per-row BFS, one gather per (element, generator).

    Row c = row a permuted by the left map of g whenever e_c = e_a * g.
    """
    n = G.order
    left = {}
    for gi in G.gen_indices:
        cols = G._E[gi].astype(np.intp)
        left[gi] = G._lookup_all(lambda rows: rows[:, cols])
    dtype = np.min_scalar_type(n - 1)
    table = np.empty((n, n), dtype=dtype)
    table[0] = np.arange(n, dtype=dtype)
    visited = np.zeros(n, dtype=bool)
    visited[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for gi in G.gen_indices:
                c = int(table[a, gi])
                if not visited[c]:
                    visited[c] = True
                    table[c] = table[a][left[gi]]
                    nxt.append(c)
        frontier = nxt
    return table


def test_table_matches_the_per_row_bfs(corpus_groups, lift_ambients):
    for G in (*corpus_groups, *lift_ambients):
        want = _table_by_rows(G)
        assert G.table.dtype == want.dtype, G.name
        assert np.array_equal(G.table, want), G.name


def test_enumerated_rows_are_in_lexsort_order(corpus_groups, lift_ambients):
    # the rows are distinct, so one sorted order exists: lexsort's, one
    # key per point, last point least significant
    for G in (*corpus_groups, *lift_ambients):
        assert np.array_equal(G._E, G._E[np.lexsort(G._E.T[::-1])]), G.name


def test_tables_take_at_most_two_bytes_per_entry(corpus_groups, lift_ambients):
    for G in (*corpus_groups, *lift_ambients):
        assert G.table.itemsize <= 2, G.name


def _swap_table(H, G):
    """H, a fresh copy of G, with its table swapped for G's widened to int32."""
    assert H.order == G.order and H.table.dtype != np.int32
    H._table = G.table.astype(np.int32)
    H._inv = None
    return H


def _maximal_class_bits(G):
    return [_row_bits(masks) for masks in maximal_classes(G)]


@pytest.mark.parametrize(
    "desc,order,dtype",
    [
        ({"family": "elemab", "p": 2, "k": 8}, 256, np.uint8),
        ({"family": "agl1", "q": 17}, 272, np.uint16),
    ],
    ids=["elemab(2,8)", "agl1(17)"],
)
def test_narrow_table_at_the_uint8_boundary(desc, order, dtype):
    G = load_group(desc)
    assert G.order == order
    assert G.table.dtype == dtype
    assert int(G.table.max()) == order - 1
    assert np.array_equal(G.table, _table_by_rows(G))
    inv = G.inverses()
    assert (G.table[np.arange(order), inv] == 0).all()
    assert closure_indices(G, G.gen_indices).tolist() == list(range(order))
    wide = _swap_table(load_group(desc), G)
    assert _maximal_class_bits(wide) == _maximal_class_bits(G)


def _row_desc(name):
    return next(d for d in read_corpus(shipped_corpus_path()) if d.get("name") == name)


@pytest.mark.parametrize(
    "desc",
    [
        {"family": "sym", "n": 5},
        {"family": "dihedral", "n": 8},
        _row_desc("mod_s3_gl22"),
        _row_desc("cp_c2gf3_u2"),
    ],
    ids=["sym(5)", "dihedral(8)", "mod_s3_gl22", "cp_c2gf3_u2"],
)
def test_table_dtype_does_not_change_results(desc):
    G = realize_descriptor(desc)[0]
    wide = _swap_table(realize_descriptor(desc)[0], G)

    def series(X):
        return [
            (f.upper.bits, f.lower.bits, f.centralizer.bits, f.is_abelian, f.is_frattini,
             None if f.module is None else [M.tolist() for M in f.module.gen_matrices])
            for f in chief_series(X)
        ]

    assert _compute_table(wide).covers == _compute_table(G).covers
    assert series(wide) == series(G)
    assert inclusion_exclusion_profile(wide) == inclusion_exclusion_profile(G)


def test_enumeration_cap_boundary(monkeypatch):
    monkeypatch.setattr("invgen.group.ORDER_CAP", 24)
    assert load_group({"family": "sym", "n": 4}).order == 24
    monkeypatch.setattr("invgen.group.ORDER_CAP", 23)
    # the enumeration stops at a partial count, so it names no order
    with pytest.raises(CapExceeded, match=r"^group order exceeds cap 23 \(order\)$"):
        load_group({"family": "sym", "n": 4})


def test_one_order_cap(monkeypatch):
    assert [name for name in vars(invgen.group) if name.endswith("_CAP")] == [
        "ORDER_CAP", "DEGREE_CAP"
    ]
    # A7 (order 2520) is past the one order cap, so it never loads
    with pytest.raises(CapExceeded, match=rf"^group order exceeds cap {ORDER_CAP} \(order\)$"):
        load_group({"family": "alt", "n": 7})
    # the enumeration and both crown-power pre-checks read that one cap
    s3 = load_group({"family": "sym", "n": 3})
    act = module_from_descriptor(_row_desc("mod_s3_gl22")["module"])  # order 24 at u = 1
    monkeypatch.setattr("invgen.group.ORDER_CAP", 23)
    for build, what in (
        (lambda: load_group({"family": "sym", "n": 4}), "group order"),
        (lambda: abelian_crown_power_with_embedding(act, 1), "order 24"),
        (lambda: build_crown_power_general(s3, 3), "order 54"),
    ):
        with pytest.raises(CapExceeded, match=rf"^{what} exceeds cap 23 \(order\)$"):
            build()


def _assert_classes_match_reference(G):
    ref, index = _reference(G)
    classes, class_of = _perm_classes(G, ref, index)
    got = [(c.rep, c.size, c.members) for c in G.conjugacy_classes()]
    assert got == classes, G.name
    assert G.class_of().tolist() == class_of, G.name
    inverses = _perm_inverses(ref, index)
    assert G.inverses().tolist() == inverses, G.name
    assert [G.inv_index(i) for i in range(G.order)] == inverses, G.name


def test_classes_and_inverses_match_perm_products_on_corpus(corpus_groups):
    for G in corpus_groups:
        _assert_classes_match_reference(G)


def test_classes_and_inverses_match_perm_products_on_lift_ambients(lift_ambients):
    for G in lift_ambients:
        _assert_classes_match_reference(G)


def test_trivial_and_identity_only_generators():
    for gens in ([], [Perm.identity(5)], [Perm.identity(5), Perm.identity(5)]):
        G = Group(gens, degree=5)
        assert G.order == 1
        assert _elements(G) == (Perm.identity(5),)
        assert G.generators == ()
        assert G.gen_indices == ()
        assert G.table.tolist() == [[0]]
        assert G.conjugacy_classes()[0].size == 1
    G = Group([Perm.identity(1)], degree=1)
    assert _elements(G) == (Perm.identity(1),)
    # a degree-1 family and a nontrivial group with fixed points
    assert load_group({"family": "sym", "n": 1}).order == 1
    G = Group([Perm((1, 0, 2, 3))])
    assert _elements(G) == (Perm.identity(4), Perm((1, 0, 2, 3)))
    assert G.table.tolist() == [[0, 1], [1, 0]]


def test_enumeration_above_uint16_degree():
    # 70000 points: the rows switch to 32-bit images
    n = 70_000
    imgs = list(range(n))
    imgs[0], imgs[n - 1] = n - 1, 0
    G = Group([Perm(imgs)])
    assert G.order == 2
    assert G.element(1).images[0] == n - 1
    assert G.gen_indices == (1,)
    assert G.table.tolist() == [[0, 1], [1, 0]]
