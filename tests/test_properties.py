"""Every registered property check must hold on the shipped corpus.

The battery itself runs once per session (see the prop_report fixture);
each test here reads off one outcome so failures name the exact check.
A check must also be able to fail: the planted-defect tests break what
a check reads and require it to report a violation.
"""

import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from invgen import MODE_GENERATE, MODE_INVARIABLE, max_lift_rank, read_corpus, shipped_corpus_path
from invgen import Group, properties
from invgen.modlin import ModuleAction
from invgen.properties import (
    _WS_BLOCK,
    PROPERTY_CHECKS,
    _check_criterion_soundness,
    _check_delta_series_count,
    _check_rank_formula,
    _Corpus,
    _lift_instances,
    _ws_samples,
    verify_props,
)
from invgen.rng import Stream

ALL_CHECKS = [(suite, name) for suite, name, _fn in PROPERTY_CHECKS]


def test_registry_covers_every_suite():
    suites = {suite for suite, _, _ in PROPERTY_CHECKS}
    assert suites == {
        "group_core",
        "invariable",
        "chebotarev",
        "modlin",
        "genlift",
        "crowns",
        "harness",
    }
    assert len(PROPERTY_CHECKS) == len(set(ALL_CHECKS))


@pytest.mark.parametrize("suite,name", ALL_CHECKS)
def test_property(prop_report, suite, name):
    outcome = next(
        o for o in prop_report.outcomes if (o.suite, o.name) == (suite, name)
    )
    assert outcome.checked > 0
    assert outcome.passed, outcome.violations[:5]


def test_report_is_serializable(prop_report):
    data = json.loads(prop_report.to_json())
    assert data["passed"] is True
    assert len(data["checks"]) == len(PROPERTY_CHECKS)


def _decode_ws_by_digits(idx, p, d, u, dim):
    """Reference: the base-p digits of idx, least significant first, one at a time."""
    digits = []
    for _ in range(d * u * dim):
        digits.append(idx % p)
        idx //= p
    return np.array(digits, dtype=np.int64).reshape(d, u, dim)


@pytest.mark.parametrize("p,d,u,dim", [(2, 2, 1, 1), (3, 2, 1, 2), (5, 2, 1, 1), (2, 2, 2, 2), (2, 1, 13, 1)])
def test_exhaustive_ws_match_the_digit_loop(p, d, u, dim):
    # (2, 1, 13, 1) has 8192 ws, so the decoding crosses a block boundary
    blocks = list(_ws_samples(p, d, u, dim, st=None))
    assert all(1 <= len(b) <= _WS_BLOCK and b.shape[1:] == (d, u, dim) for b in blocks)
    got = np.concatenate(blocks)
    assert len(got) == p ** (d * u * dim)
    for idx, ws in enumerate(got):
        want = _decode_ws_by_digits(idx, p, d, u, dim)
        assert ws.dtype == want.dtype and ws.shape == want.shape
        assert (ws == want).all(), idx


def test_sampled_ws_draw_from_the_stream_in_order():
    (got,) = _ws_samples(3, 2, 2, 1, Stream(5, 1), count=4)
    st = Stream(5, 1)
    want = [np.array([st.randbelow(3) for _ in range(4)]).reshape(2, 2, 1) for _ in range(4)]
    assert all((a == b).all() for a, b in zip(got, want)) and len(got) == 4


def test_battery_counts_stop_at_the_same_ws(prop_report):
    counts = {(o.suite, o.name): o.checked for o in prop_report.outcomes}
    assert counts["genlift", "criterion_soundness"] == 151_483
    assert counts["genlift", "rank_formula"] == 83_841


@pytest.fixture(scope="module")
def s3_gf7_corpus(tmp_path_factory):
    """mod_s3_gf7 alone: 2401 ws checked by brute force, and 1000 sampled
    ws past u_max in each mode."""
    row = next(d for d in read_corpus(shipped_corpus_path()) if d.get("name") == "mod_s3_gf7")
    path = tmp_path_factory.mktemp("corpus") / "s3_gf7.jsonl"
    path.write_text(json.dumps(row) + "\n")
    return _Corpus(str(path))


def _patch_verdicts(monkeypatch, change):
    real = properties.criterion_verdicts

    def patched(act, hs, ws, mode):
        return change(real(act, hs, ws, mode).copy())

    monkeypatch.setattr(properties, "criterion_verdicts", patched)


@pytest.mark.parametrize("check", [_check_criterion_soundness, _check_rank_formula])
def test_genlift_checks_catch_wrong_verdicts(monkeypatch, s3_gf7_corpus, check):
    checked, bad = check(s3_gf7_corpus, Stream(1, 0))
    assert checked > 0 and bad == []
    flipped = []

    def flip_first(v):
        if not flipped:
            flipped.append(True)
            v[0] = not v[0]
        return v

    for change in (flip_first, lambda v: np.ones_like(v)):
        _patch_verdicts(monkeypatch, change)
        assert check(s3_gf7_corpus, Stream(1, 0))[1], change


def test_delta_series_count_sees_a_wrong_series_count(monkeypatch, tmp_path):
    # S4 x C2: its two C2 factors form one class (delta 2).  The top one
    # dropped from the reversed series makes the tie orders disagree; the
    # bottom factor V4 counted twice in both makes 4^2 differ from |I/R|
    import invgen.crowns as crowns

    path = tmp_path / "s4xc2.jsonl"
    path.write_text(json.dumps({"degree": 6, "generators": [
        [2, 3, 4, 1, 5, 6], [2, 1, 3, 4, 5, 6], [1, 2, 3, 4, 6, 5],
    ]}) + "\n")
    assert _check_delta_series_count(_Corpus(str(path)), Stream(1, 0)) == (3, [])
    real = crowns.chief_series
    reasons = []
    for plant in (
        lambda series, reverse: series[:-1] if reverse else series,
        lambda series, reverse: series[:1] + series,
    ):
        monkeypatch.setattr(
            crowns, "chief_series",
            lambda G, reverse_ties=False, plant=plant: plant(real(G, reverse_ties), reverse_ties),
        )
        checked, bad = _check_delta_series_count(_Corpus(str(path)), Stream(1, 0))
        assert len(bad) == 1 and "abelian crown failed" in bad[0], bad
        reasons.append(bad[0].split(": ", 2)[2])
    assert reasons[0].endswith("counts [2, 1] factors in the two tie orders and 3 cores")
    assert reasons[1] == "|I/R| = 4 is not 4^2"


def test_rank_formula_stops_at_the_first_hit_and_gives_back_later_draws(monkeypatch, s3_gf7_corpus):
    # every mode samples 1000 ws past u_max, n draws each; a hit at the
    # sixth ws of each block must count five and leave st after six
    st = Stream(1, 0)
    checked, bad = _check_rank_formula(s3_gf7_corpus, st)
    ((act, hs),) = _lift_instances(s3_gf7_corpus)
    draws = [
        len(hs) * (max_lift_rank(act, hs, mode).u_max + 1) * act.dim
        for mode in (MODE_GENERATE, MODE_INVARIABLE)
    ]
    assert (checked, bad, st.j) == (2000, [], 1000 * sum(draws))

    def hit_sixth(v):
        if len(v) > 1:
            v[5] = True
        return v

    _patch_verdicts(monkeypatch, hit_sixth)
    st = Stream(1, 0)
    checked, bad = _check_rank_formula(s3_gf7_corpus, st)
    assert (checked, len(bad), st.j) == (10, 2, 6 * sum(draws))


def _drop_a_class(monkeypatch):
    real = Group.conjugacy_classes
    monkeypatch.setattr(Group, "conjugacy_classes", lambda G: real(G)[:-1])


def _raise_h1_dim(by):
    def plant(monkeypatch):
        real = ModuleAction.h1_dim
        monkeypatch.setattr(ModuleAction, "h1_dim", lambda act: real(act) + by(act))

    return plant


def _scale_agl_ratios(monkeypatch):
    real = properties.agl_trend
    monkeypatch.setattr(
        properties, "agl_trend",
        lambda qs: [dict(row, c_over_q=10 * row["c_over_q"]) for row in real(qs)],
    )


def _shift_exact_value(monkeypatch):
    real = properties.chebotarev_exact

    def shifted(G):
        exact = real(G)
        return replace(exact, value=exact.value + Fraction(1, G.order))

    monkeypatch.setattr(properties, "chebotarev_exact", shifted)


def _misorder_a_subgroup(monkeypatch):
    real = properties.subgroup_lattice

    def patched(G):
        out = list(real(G))
        out[-1] = replace(out[-1], order=out[-1].order + 1)  # G itself, as |G| + 1
        return out

    monkeypatch.setattr(properties, "subgroup_lattice", patched)


def _frattini_of_one_class(monkeypatch):
    from invgen.subgroups import _record, maximal_classes

    monkeypatch.setattr(
        properties, "frattini",
        lambda G: _record(G, np.flatnonzero(maximal_classes(G)[-1].all(axis=0))),
    )


# one planted defect per check, each a check no other test sees fail
PLANTED = {
    ("group_core", "class_partition"): _drop_a_class,
    ("group_core", "lagrange"): _misorder_a_subgroup,
    ("group_core", "frattini_nongenerators"): _frattini_of_one_class,
    ("modlin", "cohomology_bound"): _raise_h1_dim(lambda act: act.dim),
    ("modlin", "coprime_vanishing"): _raise_h1_dim(lambda act: 1),
    ("harness", "agl_band"): _scale_agl_ratios,
    ("chebotarev", "waiting_time_identity"): _shift_exact_value,
}


@pytest.fixture(scope="module")
def planted_path(tmp_path_factory):
    """mod_s3_gf7: S3, and a faithful, absolutely irreducible module of
    order prime to |S3|, which every planted check reaches; then C4, whose
    Frattini subgroup C2 gives the Frattini check elements to sample."""
    row = next(d for d in read_corpus(shipped_corpus_path()) if d.get("name") == "mod_s3_gf7")
    path = tmp_path_factory.mktemp("corpus") / "planted.jsonl"
    path.write_text(json.dumps(row) + "\n" + json.dumps({"family": "cyclic", "n": 4}) + "\n")
    return str(path)


@pytest.mark.parametrize("check", PLANTED, ids=[".".join(c) for c in PLANTED])
def test_planted_defect_is_reported(monkeypatch, planted_path, check):
    (clean,) = verify_props(corpus_path=planted_path, only=(check,)).outcomes
    assert clean.checked > 0 and clean.passed, clean.violations
    PLANTED[check](monkeypatch)
    (outcome,) = verify_props(corpus_path=planted_path, only=(check,)).outcomes
    assert (outcome.suite, outcome.name) == check and outcome.violations


def test_fpf_identity_sees_a_wrong_lattice_of_a_simple_group(monkeypatch, tmp_path):
    # the table's maximal classes of alt(5) come from the lattice of its
    # socle, built as a group of its own; a lattice of alt(5) itself that
    # lost its class of A4 misleads the lattice side alone, which then
    # takes the Klein four-groups for maximal
    import invgen.subgroups as sg

    path = tmp_path / "a5.jsonl"
    path.write_text(json.dumps({"family": "alt", "n": 5}) + "\n")
    real = sg._lattice

    def without_a4(G):
        classes = real(G)
        if G.name != "alt(5)":
            return classes
        return [(rep, orbit) for rep, orbit in classes if rep.order != 12]

    monkeypatch.setattr(sg, "_lattice", without_a4)
    report = verify_props(corpus_path=str(path), only=(("invariable", "fixed_point_free_identity"),))
    (outcome,) = report.outcomes
    assert outcome.violations == ["alt(5): maximal classes differ between the table and the lattice"]
