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
and W is the block product of the commutator images [h_i, V].  Each
space is the reduced echelon basis of its stacked spanning rows
(gf.row_space_basis), unique for the space: D of the values x @
expr[h_i] over the derivation basis, W of the blocks M(h_i) - 1, and
D + W of both.  The ambient group never gets built here; tests
construct it elsewhere and cross-validate by brute force.

Both tests run through one residue map per (module, hs) and base
space.  The base's basis is in reduced echelon form, so a row r of V^d
has residue coordinates (r[free] - r[pivots] @ block) mod p on the q
non-pivot columns, and r lies in the base exactly when they vanish.
Folding the e basis elements of F into that map gives the coordinates
of the whole F-line of r in one product; the u rows are F-independent
modulo the base exactly when their u*e residues have GF(p)-rank u*e.
criterion_verdicts judges a block of many ws that way at once, and
gen_criterion and invgen_criterion are blocks of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coverage import invariably_generates
from .errors import InputError, PreconditionError
from .gf import row_space_basis
from .group import _int_array, _int_param
from .modlin import ModuleAction, module_from_descriptor
from .subgroups import closure_indices

MODE_GENERATE = "generate"
MODE_INVARIABLE = "invariably_generate"


@dataclass
class LiftProblem:
    """A tuple of lifted generators h_i w_i of V^u x| H.

    ws has shape (d, u, dim_p): ws[i][j] is the j-th copy coordinate of
    the vector attached to h_i.  Its entries are read as by
    ``_int_array``: booleans and fractional numbers raise InputError.
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
        ws = _int_array(self.ws, "ws")
        if self.u == 0:
            ws = np.zeros((d, 0, self.act.dim), dtype=np.int64)
        if ws.shape != (d, self.u, self.act.dim):
            raise InputError(
                f"ws shape {ws.shape} != (d={d}, u={self.u}, dim={self.act.dim})"
            )
        self.ws = ws % self.act.p


@dataclass(frozen=True, eq=False)
class ResidueMap:
    """Coordinates of V^d modulo an F-closed space in reduced echelon form.

    A row r has residue coordinates (r[free] - r[pivots] @ block) mod p,
    block being the basis restricted to the q free (non-pivot) columns;
    r lies in the space iff they all vanish.  f_rows[t] holds, k-major,
    the coordinates of e_t times each of the e basis elements of F, so
    rows @ f_rows gives the residues of their F-lines in one product.
    """

    f_rows: np.ndarray  # (d*dim, e*q)
    q: int


def _residue_map(basis: np.ndarray, p: int, end_basis: np.ndarray, d: int) -> ResidueMap:
    ambient = basis.shape[1]
    pivots = np.argmax(basis != 0, axis=1)
    free = np.setdiff1d(np.arange(ambient), pivots)
    # residue of every row r is r @ to_res
    to_res = np.zeros((ambient, free.size), dtype=np.int64)
    to_res[free, np.arange(free.size)] = 1
    to_res[pivots] = -basis[:, free] % p
    eye_d = np.eye(d, dtype=np.int64)
    f_rows = np.hstack([np.kron(eye_d, eb) @ to_res % p for eb in end_basis])
    return ResidueMap(f_rows=f_rows, q=free.size)


@dataclass(frozen=True)
class DWSpaces:
    """D, W and their sum for a fixed generating tuple, with F-dimensions
    and the residue maps modulo D and modulo D + W.

    D, W and sum are reduced echelon bases, one row per GF(p) dimension.
    build_dw hands out one shared instance per (module, hs), so they are
    read-only arrays.
    """

    act: ModuleAction
    hs: tuple
    n: int  # dim_F V
    m: int  # dim_F H^1
    e: int
    D: np.ndarray  # (dim_gf D, ambient)
    W: np.ndarray
    sum: np.ndarray
    dim_d_f: int
    dim_w_f: int
    dim_dw_f: int
    D_map: ResidueMap
    sum_map: ResidueMap

    @property
    def d(self) -> int:
        return len(self.hs)

    @property
    def ambient(self) -> int:
        return self.d * self.act.dim

    @cached_property
    def invariable(self) -> bool:
        """Whether hs invariably generate H, decided on first use."""
        return invariably_generates(self.act.group, list(self.hs))

    def base_map(self, mode: str) -> ResidueMap:
        """The residue map of D (generate) or D + W (invariably_generate).

        Raises PreconditionError in invariable mode unless hs invariably
        generate H.
        """
        if mode == MODE_GENERATE:
            return self.D_map
        if mode != MODE_INVARIABLE:
            raise InputError(f"unknown mode {mode!r}")
        if not self.invariable:
            raise PreconditionError("hs do not invariably generate H")
        return self.sum_map


def _f_dim(basis: np.ndarray, e: int, what: str) -> int:
    dim = basis.shape[0]
    if dim % e:
        raise PreconditionError(f"{what} has GF-dimension {dim} not divisible by e={e}")
    return dim // e


def build_dw(act: ModuleAction, hs) -> DWSpaces:
    """The spaces D and W in V^d for a generating tuple hs.

    Requires the module to be irreducible and nontrivial (otherwise F
    is not a field or the dimension bookkeeping below loses meaning)
    and hs to generate H, which makes the evaluation of derivations at
    hs injective, so dim_F D = n + m exactly.

    The result is cached on act per tuple of element indices, so every
    caller with the same hs shares one DWSpaces, whose bases are
    read-only.  Failures are not cached; a PreconditionError is raised
    again on every call.
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
    end = act.end_field()
    e = end.degree
    if act.dim % e:
        raise PreconditionError("module dimension not divisible by e")
    n = act.dim // e
    m = act.h1_dim()
    d = len(hs)
    ambient = d * act.dim
    p = act.p

    der = act.derivation_space()
    # row x of x_basis @ [expr[h_1] | ... | expr[h_d]] is (d(h_1), ..., d(h_d))
    D = row_space_basis(der.x_basis @ np.hstack(der.expr[list(hs)]) % p, p)
    comm = np.zeros((d, act.dim, d, act.dim), dtype=np.int64)
    comm[np.arange(d), :, np.arange(d)] = (act.matrices[list(hs)] - eye) % p
    W = row_space_basis(comm.reshape(ambient, ambient), p)
    total = row_space_basis(np.vstack([D, W]), p)
    for basis in (D, W, total):
        basis.setflags(write=False)

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
        D_map=_residue_map(D, p, end.basis, d), sum_map=_residue_map(total, p, end.basis, d),
    )


def _extend(basis: list, rows, p: int) -> bool:
    """Reduce each row against the echelon basis and append it; False at
    the first row that reduces to zero, which is not appended.

    basis holds (pivot, row) pairs of Python ints with row[pivot] == 1,
    each row zero at the pivots before it.
    """
    for w in rows:
        for c, b in basis:
            f = w[c]
            if f:
                w = [(x - f * y) % p for x, y in zip(w, b)]
        c = next((i for i, x in enumerate(w) if x), None)
        if c is None:
            return False
        inv = pow(w[c], p - 2, p)
        basis.append((c, [x * inv % p for x in w]))
    return True


def criterion_verdicts(act: ModuleAction, hs, ws: np.ndarray, mode: str) -> np.ndarray:
    """Criterion verdicts, one bool per ws of a block of shape (B, d, u, dim).

    mode is MODE_GENERATE or MODE_INVARIABLE; the invariable mode raises
    PreconditionError unless hs invariably generate H.  The residues of
    the u F-lines of every ws come from one product with the base's
    residue map; u*e rows beyond its q coordinates are always dependent,
    a single row is independent when nonzero, and any other block of
    rows is eliminated mod p per ws.
    """
    dw = build_dw(act, hs)
    rmap = dw.base_map(mode)
    B, d, u, dim = ws.shape
    if (d, dim) != (dw.d, act.dim):
        raise InputError(f"ws block shape {ws.shape} does not fit d={dw.d}, dim={act.dim}")
    rows = u * dw.e
    if rows > rmap.q:
        return np.zeros(B, dtype=bool)
    p = act.p
    res = ws.transpose(0, 2, 1, 3).reshape(B, u, d * dim) @ rmap.f_rows % p
    if rows == 1:
        return res.reshape(B, rmap.q).any(axis=1)
    res = res.reshape(B, rows, rmap.q).tolist()
    return np.fromiter((_extend([], m, p) for m in res), dtype=bool, count=B)


def gen_criterion(problem: LiftProblem) -> bool:
    """True iff the lifted tuple generates V^u x| H."""
    return bool(criterion_verdicts(problem.act, problem.hs, problem.ws[None], MODE_GENERATE)[0])


def invgen_criterion(problem: LiftProblem) -> bool:
    """True iff the lifted tuple invariably generates V^u x| H."""
    return bool(criterion_verdicts(problem.act, problem.hs, problem.ws[None], MODE_INVARIABLE)[0])


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
    over the standard basis e_t of V^d, in residue coordinates: e_t is
    taken when the residues of its F-line are independent of those
    taken before, so reruns give identical output.
    """
    dw = build_dw(act, hs)
    rmap = dw.base_map(mode)
    d = dw.d
    if mode == MODE_GENERATE:
        u_max = dw.n * (d - 1) - dw.m
    else:
        u_max = dw.n * d - dw.dim_dw_f
    u_max = max(0, u_max)
    lines = rmap.f_rows.reshape(dw.ambient, dw.e, rmap.q).tolist()
    basis: list = []
    picked = []
    for t, line in enumerate(lines):
        if len(picked) == u_max:
            break
        # basis spans an F-closed space, so the F-line of e_t is either
        # independent of it or lies in it, and then so does its first row
        if _extend(basis, line, act.p):
            picked.append(t)
    if len(picked) != u_max:
        raise PreconditionError("witness completion failed; rank bookkeeping is off")
    r = np.zeros((u_max, dw.ambient), dtype=np.int64)
    r[np.arange(u_max), picked] = 1
    ws = r.reshape(u_max, d, act.dim).transpose(1, 0, 2)
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
    return LiftProblem(act=act, u=u, hs=tuple(hs), ws=ws)
