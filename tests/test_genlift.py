"""Linear criteria for generation of V^u semidirect H by lifted tuples."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from invgen import (
    MODE_GENERATE,
    MODE_INVARIABLE,
    InputError,
    LiftProblem,
    PreconditionError,
    build_dw,
    dimen_bound_check,
    gen_criterion,
    invgen_criterion,
    lift_problem_from_descriptor,
    max_lift_rank,
    module_from_descriptor,
    resolve_word,
)
from invgen import genlift
from invgen.coverage import invariably_generates
from invgen.genlift import ResidueMap, _build_dw, criterion_verdicts
from invgen.gf import rank, row_space_basis
from invgen.harness import read_corpus, shipped_corpus_path

S3_GL22 = {
    "group": {"family": "sym", "n": 3},
    "p": 2,
    "matrices": [[[1, 0], [1, 1]], [[0, 1], [1, 1]]],
}


def _act(name):
    with open(shipped_corpus_path()) as fh:
        for line in fh:
            d = json.loads(line)
            if d.get("name") == name:
                return module_from_descriptor(d["module"])
    raise KeyError(name)


def _gen_indices(act):
    return list(act.group.gen_indices)


def test_dw_dimensions_s3():
    act = module_from_descriptor(S3_GL22)
    hs = _gen_indices(act)
    dw = build_dw(act, hs)
    assert (dw.n, dw.m, dw.e) == (2, 0, 1)
    assert dw.dim_d_f == dw.n + dw.m == 2
    # the involution fixes a line (contributes 1), the 3-element none (2)
    assert dw.dim_w_f == 3
    assert dw.D.shape[1] == dw.ambient == len(hs) * act.dim
    assert dw.sum.shape[0] == dw.dim_dw_f * dw.e


def test_build_dw_requires_generating_tuple():
    act = module_from_descriptor(S3_GL22)
    # a single involution generates only C2 < S3
    invol = next(i for i in _gen_indices(act) if act.group.element(i).order() == 2)
    with pytest.raises(PreconditionError):
        build_dw(act, [invol])


def test_build_dw_rejects_trivial_action():
    act = module_from_descriptor(
        {"group": {"family": "cyclic", "n": 2}, "p": 3, "matrices": [[[1]]]}
    )
    with pytest.raises(PreconditionError):
        build_dw(act, _gen_indices(act))


@pytest.mark.parametrize(
    "name,u_gen,u_inv",
    [
        ("mod_s3_gl22", 2, 1),
        ("mod_d4_gf3", 2, 1),
        ("mod_s3_gf7", 2, 1),
        ("mod_c2_gf3", 0, 0),
        ("mod_c4_gf5", 0, 0),
    ],
)
def test_max_lift_rank_goldens(name, u_gen, u_inv):
    act = _act(name)
    hs = _gen_indices(act)
    gen = max_lift_rank(act, hs, MODE_GENERATE)
    inv = max_lift_rank(act, hs, MODE_INVARIABLE)
    assert gen.u_max == u_gen
    assert inv.u_max == u_inv
    assert inv.u_max <= gen.u_max


def test_max_lift_rank_grows_with_repeats():
    # one generator can never lift (u_max = 0); repeats add W summands
    act = _act("mod_c2_gf3")
    (h,) = _gen_indices(act)
    single = max_lift_rank(act, [h], MODE_GENERATE)
    assert single.u_max == 0
    assert single.ws.shape == (1, 0, act.dim)
    assert max_lift_rank(act, [h, h], MODE_GENERATE).u_max == 1
    assert max_lift_rank(act, [h, h, h], MODE_GENERATE).u_max == 2
    # every lift of an involution here is an involution, so no tuple of
    # them can invariably generate the ambient S3 at any u >= 1
    assert max_lift_rank(act, [h, h, h], MODE_INVARIABLE).u_max == 0


def test_invariable_mode_requires_invariably_generating_tuple():
    act = _act("mod_sl24_nat")
    G = act.group
    # the stored generators have orders 2 and 5; both classes meet a
    # dihedral subgroup, so they do not invariably generate
    with pytest.raises(PreconditionError):
        max_lift_rank(act, list(G.gen_indices), MODE_INVARIABLE)
    o3 = next(i for i in range(G.order) if G.element(i).order() == 3)
    o5 = next(i for i in range(G.order) if G.element(i).order() == 5)
    assert max_lift_rank(act, [o3, o5], MODE_GENERATE).u_max == 1
    assert max_lift_rank(act, [o3, o5], MODE_INVARIABLE).u_max == 0


def test_witness_tuple_passes_criterion():
    act = module_from_descriptor(S3_GL22)
    hs = _gen_indices(act)
    res = max_lift_rank(act, hs, MODE_GENERATE)
    assert res.u_max == 2
    prob = LiftProblem(act=act, u=res.u_max, hs=hs, ws=res.ws)
    assert gen_criterion(prob)


def test_gen_criterion_known_instance():
    act = module_from_descriptor(S3_GL22)
    hs = _gen_indices(act)
    good = LiftProblem(
        act=act, u=1, hs=hs, ws=np.array([[[1, 0]], [[0, 0]]], dtype=np.int64)
    )
    assert gen_criterion(good)
    assert not invgen_criterion(good)
    zero = LiftProblem(
        act=act, u=1, hs=hs, ws=np.zeros((2, 1, 2), dtype=np.int64)
    )
    # zero translation parts leave the complement H intact
    assert not gen_criterion(zero)


def test_dimension_bound_holds_on_corpus_modules():
    for name in ("mod_s3_gl22", "mod_d4_gf3", "mod_s3_gf7", "mod_sl24_nat"):
        act = _act(name)
        lhs, rhs, holds = dimen_bound_check(act, _gen_indices(act))
        assert holds
        assert lhs >= rhs


def test_resolve_word_signed_generators():
    act = module_from_descriptor(S3_GL22)
    G = act.group
    g1, g2 = G.gen_indices
    assert resolve_word(act, [1]) == g1
    assert resolve_word(act, [2]) == g2
    assert resolve_word(act, [1, -1]) == 0
    prod = G.table[g1, g2]
    assert resolve_word(act, [1, 2]) == prod
    with pytest.raises(InputError):
        resolve_word(act, [3])
    with pytest.raises(InputError):
        resolve_word(act, [0])


def test_lift_problem_descriptor_round_trip():
    desc = {
        "module": S3_GL22,
        "u": 1,
        "hs": [[1], [2]],
        "ws": [[[1, 0]], [[0, 0]]],
    }
    prob = lift_problem_from_descriptor(desc)
    assert prob.u == 1
    assert gen_criterion(prob)
    bad = dict(desc, ws=[[[1, 0]]])  # wrong tuple length
    with pytest.raises(InputError):
        lift_problem_from_descriptor(bad)


def test_lift_problem_rejects_fractional_and_boolean_ws():
    # these used to be truncated: [0.7, 1.2] read as [0, 1], True as 1
    act = module_from_descriptor(S3_GL22)
    hs = _gen_indices(act)
    for ws in (
        [[[0.7, 1.2]], [[1.0, 0.0]]],
        [[[True, False]], [[False, True]]],
        [[[True, 0]], [[1, 0]]],  # mixed with integers: numpy reads it as int64
        [[[1.0, 0.0]], [[0.0, True]]],
    ):
        with pytest.raises(InputError, match="ws must be nested integers"):
            LiftProblem(act, 1, hs, ws)
        desc = {"module": S3_GL22, "u": 1, "hs": [[1], [2]], "ws": ws}
        with pytest.raises(InputError, match="ws must be nested integers"):
            lift_problem_from_descriptor(desc)
    # integral floats are read; an int64 array is read without a copy
    prob = LiftProblem(act, 1, hs, [[[1.0, 0.0]], [[0.0, 3.0]]])
    assert prob.ws.dtype == np.int64 and prob.ws.tolist() == [[[1, 0]], [[0, 1]]]
    assert gen_criterion(prob) == gen_criterion(LiftProblem(act, 1, hs, [[[1, 0]], [[0, 1]]]))
    ws = np.zeros((2, 1, 2), dtype=np.int64)
    assert genlift._int_array(ws, "ws") is ws


def test_build_dw_is_cached_per_tuple():
    act = module_from_descriptor(S3_GL22)
    hs = tuple(_gen_indices(act))
    dw = build_dw(act, hs)
    assert build_dw(act, list(hs)) is dw
    assert build_dw(act, [act.group.element(i) for i in hs]) is dw
    assert build_dw(act, hs[::-1]) is not dw
    fresh = _build_dw(act, hs)
    assert fresh is not dw
    for f in dataclasses.fields(dw):
        a, b = getattr(dw, f.name), getattr(fresh, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b), f.name
        elif isinstance(a, ResidueMap):
            for g in dataclasses.fields(a):
                assert np.array_equal(getattr(a, g.name), getattr(b, g.name)), (f.name, g.name)
        else:
            assert a == b, f.name


def test_build_dw_failure_is_not_cached():
    act = module_from_descriptor(S3_GL22)
    invol = next(i for i in _gen_indices(act) if act.group.element(i).order() == 2)
    prob = LiftProblem(act, 1, [invol], np.zeros((1, 1, act.dim), dtype=np.int64))
    for _ in range(2):
        with pytest.raises(PreconditionError, match="do not generate"):
            build_dw(act, [invol])
        for crit in (gen_criterion, invgen_criterion):
            with pytest.raises(PreconditionError, match="do not generate"):
                crit(prob)
    assert (invol,) not in act._dw


def test_shared_dw_spaces_are_not_mutated_by_callers():
    act = module_from_descriptor(S3_GL22)
    hs = _gen_indices(act)
    r = max_lift_rank(act, hs, MODE_GENERATE)
    assert r.spaces is build_dw(act, hs)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.spaces.D = r.spaces.W
    for space in (r.spaces.D, r.spaces.W, r.spaces.sum):
        with pytest.raises(ValueError, match="read-only"):
            space[0, 0] = 1 - space[0, 0]
    ws = np.array([[[1, 0]], [[0, 0]]], dtype=np.int64)
    prob = LiftProblem(act=act, u=1, hs=hs, ws=ws)
    before = gen_criterion(prob)
    assert before
    # filling a copy of D to the whole of V^d would make every lift fail
    grown = np.vstack([r.spaces.D, np.eye(r.spaces.ambient, dtype=np.int64)])
    assert rank(grown, act.p) == r.spaces.ambient
    assert r.spaces.D.shape[0] == r.spaces.dim_d_f * r.spaces.e
    assert gen_criterion(prob) == before


def _f_lines(rows, end):
    """The F-lines through the rows, e each: a row times each basis
    element of F, applied blockwise to the copies of the module."""
    blocks = np.asarray(rows, dtype=np.int64).reshape(len(rows), 1, -1, end.dim)
    return (blocks @ end.basis % end.p).reshape(len(rows) * len(end.basis), -1)


def _in_span(basis, v, p):
    """Whether the row v lies in the row space of basis, by rank."""
    return rank(np.vstack([basis, v]), p) == rank(basis, p)


def _rows_of(ws):
    """The u vectors r_j in V^d of ws (d, u, dim), one per copy coordinate."""
    d, u, dim = ws.shape
    return ws.transpose(1, 0, 2).reshape(u, d * dim)


def _twin_independent(act, ws, base):
    """Scalar twin of the criteria: the u rows are F-independent modulo
    the F-closed base exactly when stacking their F-lines under it adds
    u*e to its rank."""
    lines = _f_lines(_rows_of(ws), act.end_field())
    return rank(np.vstack([base, lines]), act.p) == base.shape[0] + len(lines)


def _twin_witness(act, hs, mode):
    """Scalar twin of max_lift_rank's witness: greedy over the standard
    basis of V^d, modulo D or D + W grown by F-lines."""
    dw = build_dw(act, hs)
    if mode == MODE_GENERATE:
        u_max, space = dw.n * (dw.d - 1) - dw.m, dw.D
    else:
        u_max, space = dw.n * dw.d - dw.dim_dw_f, dw.sum
    rows = []
    for t in range(dw.ambient):
        if len(rows) == max(0, u_max):
            break
        e_t = np.zeros(dw.ambient, dtype=np.int64)
        e_t[t] = 1
        if not _in_span(space, e_t, act.p):
            rows.append(e_t)
            space = row_space_basis(np.vstack([space, _f_lines([e_t], act.end_field())]), act.p)
    r = np.array(rows, dtype=np.int64).reshape(len(rows), dw.ambient)
    return r.reshape(len(rows), dw.d, act.dim).transpose(1, 0, 2)


def _criterion_problems(act, hs, rng):
    """Seeded lifts at u >= 2: random parts at u = 2..u_max + 2, and each
    mode's witness at u_max with a copy of its first row appended, so
    that only the last row is dependent."""
    d, p, dim = len(hs), act.p, act.dim
    u_top = max_lift_rank(act, hs, MODE_GENERATE).u_max + 2
    for u in range(2, u_top + 1):
        for ws in rng.integers(0, p, size=(60, d, u, dim)):
            yield LiftProblem(act, u, hs, ws)
    for mode in (MODE_GENERATE, MODE_INVARIABLE):
        if mode == MODE_INVARIABLE and not invariably_generates(act.group, hs):
            continue
        ws = max_lift_rank(act, hs, mode).ws
        u = ws.shape[1]
        if u >= 2:
            yield LiftProblem(act, u, hs, ws)
        if u >= 1:
            yield LiftProblem(act, u + 1, hs, np.concatenate([ws, ws[:, :1]], axis=1))


def test_criteria_match_the_copying_kernel():
    rng = np.random.default_rng(20261018)
    verdicts = {True: 0, False: 0}
    for desc in read_corpus(shipped_corpus_path()):
        if "module" not in desc:
            continue
        act = module_from_descriptor(desc["module"])
        gens = _gen_indices(act)
        for hs in (gens, gens + gens[:1]):
            dw = build_dw(act, hs)
            before = dw.D.copy(), dw.sum.copy()
            inv = invariably_generates(act.group, hs)
            for prob in _criterion_problems(act, hs, rng):
                want = _twin_independent(act, prob.ws, dw.D)
                assert gen_criterion(prob) == want, (desc["name"], prob.ws.tolist())
                verdicts[want] += 1
                if inv:
                    want = _twin_independent(act, prob.ws, dw.sum)
                    assert invgen_criterion(prob) == want, (desc["name"], prob.ws.tolist())
                    verdicts[want] += 1
            after = build_dw(act, hs)
            assert after is dw
            assert np.array_equal(after.D, before[0]), desc["name"]
            assert np.array_equal(after.sum, before[1]), desc["name"]
    assert verdicts == {True: 700, False: 3669}


def _lift_cases():
    """The lift benchmark's (module, u) cases: every corpus module with
    its stored generators, at every u with |V|^u |H| <= 2000."""
    for desc in read_corpus(shipped_corpus_path()):
        if "module" not in desc:
            continue
        act = module_from_descriptor(desc["module"])
        u = 1
        while act.p ** (act.dim * u) * act.group.order <= 2000:
            yield desc["name"], act, _gen_indices(act), u
            u += 1


def test_block_verdicts_match_one_at_a_time_and_the_twin_on_every_ws():
    cases = exhaustive = 0
    for name, act, hs, u in _lift_cases():
        cases += 1
        d, p, dim = len(hs), act.p, act.dim
        if p ** (d * u * dim) > 2**16:
            continue
        exhaustive += 1
        block = np.array(list(itertools.product(range(p), repeat=d * u * dim)))
        block = block.reshape(-1, d, u, dim)
        dw = build_dw(act, hs)
        modes = [(MODE_GENERATE, gen_criterion, dw.D)]
        if invariably_generates(act.group, hs):
            modes.append((MODE_INVARIABLE, invgen_criterion, dw.sum))
        for mode, crit, base in modes:
            got = criterion_verdicts(act, hs, block, mode).tolist()
            one = [crit(LiftProblem(act, u, hs, ws)) for ws in block]
            twin = [_twin_independent(act, ws, base) for ws in block]
            assert got == one == twin, (name, u, mode)
    assert (cases, exhaustive) == (21, 21)


def test_residue_map_matches_row_space_residues():
    # a vector zero at the pivots of a reduced echelon basis lies in its
    # span only if it is zero, so res is the residue of r exactly when res
    # (placed on the free columns) differs from r by a member of the space
    rng = np.random.default_rng(7)
    for desc in read_corpus(shipped_corpus_path()):
        if "module" not in desc:
            continue
        act = module_from_descriptor(desc["module"])
        dw = build_dw(act, _gen_indices(act))
        for space, rmap in ((dw.D, dw.D_map), (dw.sum, dw.sum_map)):
            assert np.array_equal(row_space_basis(space, act.p), space)
            pivots = np.argmax(space != 0, axis=1)
            free = np.setdiff1d(np.arange(dw.ambient), pivots)
            block = space[:, free]
            assert pivots.size + rmap.q == dw.ambient == rmap.f_rows.shape[0]
            assert free.size == rmap.q

            def is_residue(r, res):
                placed = np.zeros(dw.ambient, dtype=np.int64)
                placed[free] = res
                return _in_span(space, (r - placed) % act.p, act.p)

            for r in rng.integers(0, act.p, size=(40, dw.ambient)):
                want = (r[free] - r[pivots] @ block) % act.p
                assert is_residue(r, want), desc["name"]
                # the k-th block of r @ f_rows is the residue of r times
                # the k-th basis element of F, applied to each copy of V
                got = (r @ rmap.f_rows % act.p).reshape(dw.e, rmap.q)
                for k, eb in enumerate(act.end_field().basis):
                    line = (r.reshape(dw.d, act.dim) @ eb % act.p).reshape(-1)
                    assert is_residue(line, got[k]), desc["name"]


def test_witnesses_match_the_twin_greedy():
    for desc in read_corpus(shipped_corpus_path()):
        if "module" not in desc:
            continue
        act = module_from_descriptor(desc["module"])
        gens = _gen_indices(act)
        for hs in (gens, gens + gens[:1], gens + gens):
            modes = [MODE_GENERATE]
            if invariably_generates(act.group, hs):
                modes.append(MODE_INVARIABLE)
            for mode in modes:
                ws = max_lift_rank(act, hs, mode).ws
                want = _twin_witness(act, hs, mode)
                assert ws.shape == want.shape and np.array_equal(ws, want), (desc["name"], mode)


def test_invariable_precondition_is_decided_once_and_raised_every_call(monkeypatch):
    act = _act("mod_sl24_nat")
    hs = _gen_indices(act)  # generate A5, but not invariably (orders 2 and 5)
    decided = []
    real = genlift.invariably_generates
    monkeypatch.setattr(
        genlift, "invariably_generates", lambda G, xs: decided.append(xs) or real(G, xs)
    )
    prob = LiftProblem(act, 1, hs, np.zeros((len(hs), 1, act.dim), dtype=np.int64))
    block = np.zeros((5, len(hs), 1, act.dim), dtype=np.int64)
    for _ in range(3):
        with pytest.raises(PreconditionError, match="invariably"):
            invgen_criterion(prob)
        with pytest.raises(PreconditionError, match="invariably"):
            criterion_verdicts(act, hs, block, MODE_INVARIABLE)
        with pytest.raises(PreconditionError, match="invariably"):
            max_lift_rank(act, hs, MODE_INVARIABLE)
    assert not gen_criterion(prob)
    assert criterion_verdicts(act, hs, block, MODE_GENERATE).tolist() == [False] * 5
    assert len(decided) == 1


def test_criterion_verdicts_rejects_bad_blocks():
    act = module_from_descriptor(S3_GL22)
    hs = _gen_indices(act)
    with pytest.raises(InputError):
        criterion_verdicts(act, hs, np.zeros((3, 1, 1, act.dim), dtype=np.int64), MODE_GENERATE)
    with pytest.raises(InputError):
        criterion_verdicts(act, hs, np.zeros((3, 2, 1, act.dim), dtype=np.int64), "bogus")
