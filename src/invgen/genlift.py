"""Generation criteria for semidirect products V^u x| H from lifted tuples.

Fix a generating tuple hs = (h_1, ..., h_d) of H and an irreducible
nontrivial H-module V over GF(p) with endomorphism field F of degree e,
n = dim_F V, m = dim_F of the first cohomology.  Lift each h_i to
h_i w_i with w_i in V^u.  Whether the lifted tuple generates (or
invariably generates) V^u x| H is a linear-algebra question about the
vectors r_j = (w_{1,j}, ..., w_{d,j}) in V^d:

    generation           <=> r_1..r_u F-independent modulo D
    invariable generation <=> r_1..r_u F-independent modulo D + W

where D is the image of the derivation space under evaluation at hs
and W is the block product of the commutator images [h_i, V].  The
ambient group never gets built here; tests construct it elsewhere and
cross-validate by brute force.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coverage import invariably_generates
from .errors import InputError, PreconditionError
from .gf import RowSpace, row_space_basis
from .group import _int_param
from .modlin import ModuleAction, f_closed_add, module_from_descriptor
from .subgroups import closure_indices

MODE_GENERATE = "generate"
MODE_INVARIABLE = "invariably_generate"


@dataclass
class LiftProblem:
    """A tuple of lifted generators h_i w_i of V^u x| H.

    ws has shape (d, u, dim_p): ws[i][j] is the j-th copy coordinate of
    the vector attached to h_i.
    """

    act: ModuleAction
    u: int
    hs: tuple
    ws: np.ndarray

    def __post_init__(self):
        self.hs = tuple(self.act.group.element_index(h) for h in self.hs)
        if len(self.hs) < 1:
            raise InputError("need at least one lifted generator")
        if self.u < 0:
            raise InputError(f"u must be nonnegative, got {self.u}")
        d = len(self.hs)
        ws = np.asarray(self.ws, dtype=np.int64)
        if self.u == 0:
            ws = np.zeros((d, 0, self.act.dim), dtype=np.int64)
        if ws.shape != (d, self.u, self.act.dim):
            raise InputError(
                f"ws shape {ws.shape} != (d={d}, u={self.u}, dim={self.act.dim})"
            )
        self.ws = ws % self.act.p


@dataclass(frozen=True)
class DWSpaces:
    """D, W and their sum for a fixed generating tuple, with F-dimensions.

    build_dw hands out one shared instance per (module, hs); copy a
    RowSpace before adding to it.
    """

    act: ModuleAction
    hs: tuple
    n: int  # dim_F V
    m: int  # dim_F H^1
    e: int
    D: RowSpace
    W: RowSpace
    sum: RowSpace
    dim_d_f: int
    dim_w_f: int
    dim_dw_f: int

    @property
    def d(self) -> int:
        return len(self.hs)

    @property
    def ambient(self) -> int:
        return self.d * self.act.dim


def _f_dim(space: RowSpace, e: int, what: str) -> int:
    if space.dim % e:
        raise PreconditionError(f"{what} has GF-dimension {space.dim} not divisible by e={e}")
    return space.dim // e


def build_dw(act: ModuleAction, hs) -> DWSpaces:
    """The spaces D and W in V^d for a generating tuple hs.

    Requires the module to be irreducible and nontrivial (otherwise F
    is not a field or the dimension bookkeeping below loses meaning)
    and hs to generate H, which makes the evaluation of derivations at
    hs injective, so dim_F D = n + m exactly.

    The result is cached on act per tuple of element indices, so every
    caller with the same hs shares one DWSpaces: call .copy() on its
    RowSpaces before adding to them.  Failures are not cached; a
    PreconditionError is raised again on every call.
    """
    hs = tuple(act.group.element_index(h) for h in hs)
    if hs not in act._dw:
        act._dw[hs] = _build_dw(act, hs)
    return act._dw[hs]


def _build_dw(act: ModuleAction, hs: tuple) -> DWSpaces:
    if not hs:
        raise InputError("need at least one element in hs")
    G = act.group
    if len(closure_indices(G, hs)) != G.order:
        raise PreconditionError("hs do not generate H")
    eye = np.eye(act.dim, dtype=np.int64)
    if all(np.array_equal(M, eye) for M in act.gen_matrices):
        raise PreconditionError("module action is trivial; criteria do not apply")
    if not act.is_irreducible():
        raise PreconditionError("module is not irreducible")
    e = act.end_field().degree
    if act.dim % e:
        raise PreconditionError("module dimension not divisible by e")
    n = act.dim // e
    m = act.h1_dim()
    d = len(hs)
    ambient = d * act.dim
    p = act.p

    der = act.derivation_space()
    D = RowSpace(p, ambient)
    for x in der.x_basis:
        D.add(der.values_at(x, hs))
    W = RowSpace(p, ambient)
    for i, h in enumerate(hs):
        img = row_space_basis((act.matrices[h] - eye) % p, p)
        for row in img:
            vec = np.zeros(ambient, dtype=np.int64)
            vec[i * act.dim : (i + 1) * act.dim] = row
            W.add(vec)
    total = D.copy()
    for row in W.basis_matrix():
        total.add(row)

    dim_d_f = _f_dim(D, e, "D")
    dim_w_f = _f_dim(W, e, "W")
    dim_dw_f = _f_dim(total, e, "D+W")
    if dim_d_f != n + m:
        raise PreconditionError(
            f"dim_F D = {dim_d_f} but n + m = {n + m}; evaluation broke"
        )
    want_w = 0
    for h in hs:
        fix = act.fixed_space([h]).shape[0]
        if fix % e:
            raise PreconditionError("C_V(h) has GF-dimension not divisible by e")
        want_w += n - fix // e
    if dim_w_f != want_w:
        raise PreconditionError(
            f"dim_F W = {dim_w_f} but sum of commutator ranks = {want_w}"
        )
    return DWSpaces(
        act=act, hs=hs, n=n, m=m, e=e, D=D, W=W, sum=total,
        dim_d_f=dim_d_f, dim_w_f=dim_w_f, dim_dw_f=dim_dw_f,
    )


def _rows_of(problem: LiftProblem) -> np.ndarray:
    """The u vectors r_j in V^d, one per copy coordinate."""
    d, u, dim = problem.ws.shape
    return problem.ws.transpose(1, 0, 2).reshape(u, d * dim)


def _independent_mod(problem: LiftProblem, base: RowSpace) -> bool:
    """True iff the u >= 1 rows r_j are F-independent modulo base.

    Each row but the last is tested, then its F-line is added to a copy
    of base, made at the first add; the last row needs only the test.
    base is one of build_dw's shared spaces and is never added to.
    """
    end = problem.act.end_field()
    *head, last = _rows_of(problem)
    space = base
    for r in head:
        if space.contains(r):
            return False
        if space is base:
            space = base.copy()
        f_closed_add(space, r, end)
    return not space.contains(last)


def gen_criterion(problem: LiftProblem) -> bool:
    """True iff the lifted tuple generates V^u x| H."""
    dw = build_dw(problem.act, problem.hs)
    if problem.u == 0:
        return True
    return _independent_mod(problem, dw.D)


def invgen_criterion(problem: LiftProblem) -> bool:
    """True iff the lifted tuple invariably generates V^u x| H."""
    act = problem.act
    if not invariably_generates(act.group, list(problem.hs)):
        raise PreconditionError("hs do not invariably generate H")
    dw = build_dw(act, problem.hs)
    if problem.u == 0:
        return True
    return _independent_mod(problem, dw.sum)


@dataclass(frozen=True)
class MaxLiftRank:
    mode: str
    u_max: int
    ws: np.ndarray  # (d, u_max, dim_p) witness
    spaces: DWSpaces


def max_lift_rank(act: ModuleAction, hs, mode: str) -> MaxLiftRank:
    """Largest u with a witness ws, plus one explicit witness.

    generate mode: u_max = n(d-1) - m.  invariably_generate mode:
    u_max = nd - dim_F(D+W).  Negative values clip to 0 (no u >= 1
    works).  The witness extends a basis modulo D (resp. D+W) greedily
    over the standard basis of V^d, so reruns give identical output.
    """
    if mode not in (MODE_GENERATE, MODE_INVARIABLE):
        raise InputError(f"unknown mode {mode!r}")
    dw = build_dw(act, hs)
    if mode == MODE_INVARIABLE and not invariably_generates(act.group, list(dw.hs)):
        raise PreconditionError("hs do not invariably generate H")
    d = dw.d
    if mode == MODE_GENERATE:
        u_max = dw.n * (d - 1) - dw.m
        base = dw.D
    else:
        u_max = dw.n * d - dw.dim_dw_f
        base = dw.sum
    u_max = max(0, u_max)
    end = act.end_field()
    space = base.copy()
    rows = []
    ambient = dw.ambient
    for t in range(ambient):
        if len(rows) == u_max:
            break
        e_t = np.zeros(ambient, dtype=np.int64)
        e_t[t] = 1
        if not space.contains(e_t):
            rows.append(e_t)
            f_closed_add(space, e_t, end)
    if len(rows) != u_max:
        raise PreconditionError("witness completion failed; rank bookkeeping is off")
    if rows:
        r = np.vstack(rows)  # (u_max, d*dim)
        ws = r.reshape(u_max, d, act.dim).transpose(1, 0, 2)
    else:
        ws = np.zeros((d, 0, act.dim), dtype=np.int64)
    return MaxLiftRank(mode=mode, u_max=u_max, ws=ws, spaces=dw)


def dimen_bound_check(act: ModuleAction, hs):
    """(lhs, rhs, holds) for nd - dim_F(D+W) >= sum_i dim_F C_V(h_i) - m."""
    dw = build_dw(act, hs)
    e = dw.e
    lhs = dw.n * dw.d - dw.dim_dw_f
    fix_sum = 0
    for h in dw.hs:
        fix_sum += act.fixed_space([h]).shape[0] // e
    rhs = fix_sum - dw.m
    return lhs, rhs, lhs >= rhs


def resolve_word(act: ModuleAction, word) -> int:
    """Element index of a signed generator word like [1, -2, 1].

    Positive entries are 1-based generator numbers, negative their
    inverses; the empty word is the identity.
    """
    if not isinstance(word, (list, tuple)):
        raise InputError(f"a word must be a list of generator numbers, got {word!r}")
    G = act.group
    k = len(G.gen_indices)
    idx = 0
    for i in range(len(word)):
        s = _int_param(word, i)
        if s == 0 or abs(s) > k:
            raise InputError(f"word letter {s} out of range 1..{k}")
        gi = G.gen_indices[abs(s) - 1]
        if s < 0:
            gi = G.inv_index(gi)
        idx = G.mult_index(idx, gi)
    return idx


def lift_problem_from_descriptor(desc: dict) -> LiftProblem:
    """Parse {"module": ..., "u": int, "hs": [words], "ws": nested ints}."""
    try:
        act = module_from_descriptor(desc["module"])
        u = _int_param(desc, "u")
        hs_words = desc["hs"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"lift descriptor missing field: {exc}") from exc
    if not isinstance(hs_words, list):
        raise InputError(f'"hs" must be a list of words, got {hs_words!r}')
    hs = [resolve_word(act, w) for w in hs_words]
    ws = desc.get("ws")
    if ws is None:
        # LiftProblem rejects u < 0 before it reads ws
        ws = np.zeros((len(hs), max(u, 0), act.dim), dtype=np.int64)
    try:
        given = np.asarray(ws)
        ws = given.astype(np.int64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"ws must be nested integers: {exc}") from None
    if given.dtype.kind == "f" and not np.array_equal(given, ws):
        raise InputError(f"ws must be nested integers, got {desc['ws']!r}")
    return LiftProblem(act=act, u=u, hs=tuple(hs), ws=ws)
