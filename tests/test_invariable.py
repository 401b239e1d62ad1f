"""Class coverage tables and invariable generation."""

import io
from fractions import Fraction

import pytest

from invgen import (
    InputError,
    coverage_table,
    coverage_to_csv,
    fpf_proportion,
    invariably_generates,
    load_group,
    maximal_subgroups_up_to_conjugacy,
)


def test_s3_coverage_shape(s3):
    t = coverage_table(s3)
    assert t.order == 6
    # one class of point stabilizers (order 2, three conjugates) and A3
    assert t.maximal_orders == (2, 3)
    assert t.maximal_counts == (3, 1)
    assert t.num_classes == 3
    # identity class is covered by every maximal
    assert all(mask & 1 for mask in t.covers)


def test_s3_fixed_point_free_values(s3):
    t = coverage_table(s3)
    # order-2 class: transpositions cover {e, transpositions}, missing 2 of 6
    assert t.fixed_point_free(0) == Fraction(1, 3)
    # A3 is normal: complement is the 3 transpositions
    assert t.fixed_point_free(1) == Fraction(1, 2)
    assert t.covered_elements(0) == 4
    assert t.covered_elements(1) == 3


def test_fpf_proportion_matches_table(s3):
    reps = maximal_subgroups_up_to_conjugacy(s3)
    t = coverage_table(s3)
    # reps and table columns share the (order, bits) sort
    for m, rep in enumerate(reps):
        assert fpf_proportion(s3, rep) == t.fixed_point_free(m)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fpf_proportion_regular_action(p):
    G = load_group({"family": "cyclic", "n": p})
    lat_bottom = maximal_subgroups_up_to_conjugacy(G)
    (triv,) = lat_bottom  # the only maximal subgroup of C_p is trivial
    assert triv.order == 1
    assert fpf_proportion(G, triv) == Fraction(p - 1, p)


def test_fpf_proportion_rejects_whole_group(s3):
    from invgen.subgroups import generated_subgroup

    whole = generated_subgroup(s3, list(range(6)))
    with pytest.raises(InputError):
        fpf_proportion(s3, whole)


def test_invariable_generation_s3(s3):
    transposition = next(i for i in range(6) if s3.element(i).order() == 2)
    rotation = next(i for i in range(6) if s3.element(i).order() == 3)
    assert invariably_generates(s3, [transposition, rotation])
    assert not invariably_generates(s3, [rotation])
    assert not invariably_generates(s3, [transposition])
    assert not invariably_generates(s3, [])


def test_invariable_generation_trivial_group():
    triv = load_group({"family": "cyclic", "n": 1})
    assert invariably_generates(triv, [])
    assert invariably_generates(triv, [0])


def test_exhaustive_mode_agrees(s4):
    # class-based test vs direct enumeration over conjugate tuples
    by_order = {}
    for i in range(s4.order):
        by_order.setdefault(s4.element(i).order(), i)
    for pair in [(2, 3), (2, 4), (3, 4), (4, 4)]:
        elems = [by_order[o] for o in pair]
        fast = invariably_generates(s4, elems)
        slow = invariably_generates(s4, elems, exhaustive=True)
        assert fast == slow


def test_invariable_generation_is_class_function(s3):
    # replacing an element by any conjugate cannot change the answer
    transposition = next(i for i in range(6) if s3.element(i).order() == 2)
    rotation = next(i for i in range(6) if s3.element(i).order() == 3)
    base = invariably_generates(s3, [transposition, rotation])
    t = s3.table
    for x in range(6):
        conj = t[t[s3.inv_index(x), transposition], x]
        assert invariably_generates(s3, [conj, rotation]) == base


def test_coverage_csv_has_one_row_per_maximal_class(s4):
    t = coverage_table(s4)
    buf = io.StringIO()
    coverage_to_csv(t, buf)
    lines = [l for l in buf.getvalue().splitlines() if l.strip()]
    assert len(lines) == t.num_maximal_classes + 1  # header included
    assert "\r" not in buf.getvalue()


def test_coverage_table_cached_on_group(s4):
    assert coverage_table(s4) is coverage_table(s4)
