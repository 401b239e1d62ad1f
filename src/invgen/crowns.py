"""Chief series, crowns, crown-based powers, and their verification hooks.

A chief series is refined from the normal-subgroup lattice by walking
down through largest proper normal subgroups (deterministic
tie-breaking, with an optional reversed order used by tests to confirm
series-independence of the derived counts).  Each abelian factor
carries its conjugation module; each factor carries the centralizer of
its section, which is what equivalence of factors is measured against:
abelian factors are equivalent when their modules are isomorphic,
nonabelian factors when their section centralizers coincide.

G-equivalence is decided once per group: the non-Frattini factors of
both tie orders' chief series and the socle factor M/N of every
monolithic primitive quotient G/N are split into classes, cached on the
group.  G/N is primitive exactly when N is the core of a maximal
subgroup.  A crown is a lookup in A's class: R_G(A) is the intersection
of the class's cores N, I_G(A) the preimage of the socle of G/R_G(A),
and delta the class's count of non-Frattini factors in a chief series,
the same for both tie orders, with |A|^delta = |I/R|.  No quotient group
is built: the minimal normal subgroups of G/N are the normal subgroups
of G minimal over N.  A Frattini-trivial group always has a crown whose
R is complemented in I by a normal subgroup; corona_decomposition finds
one and treats absence as an internal defect, not a soft failure.  Both
crown-based power constructors check their known order against the one
order cap of ``group`` before they build anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, InvgenError, PreconditionError
from .group import Group, _check_order, _int_array, _row_dtype, prime_power
from .gf import rank
from .modlin import ModuleAction, intertwiners
from .perm import Perm
from .subgroups import (
    SubgroupRecord,
    _record,
    closure_indices,
    frattini,
    maximal_classes,
    minimal_normal_subgroups,
    normal_subgroups,
)

# ---------------------------------------------------------------------------
# chief factors


@dataclass(frozen=True)
class ChiefFactor:
    """One section upper/lower of a chief series of G.

    Frozen: chief_series hands the same factors to every caller.
    """

    group: Group
    upper: SubgroupRecord
    lower: SubgroupRecord
    order: int  # |upper| / |lower|
    is_abelian: bool
    is_frattini: bool
    centralizer: SubgroupRecord
    module: ModuleAction | None  # conjugation action, abelian factors only

    def __repr__(self):
        kind = "abelian" if self.is_abelian else "nonabelian"
        fr = ", frattini" if self.is_frattini else ""
        return f"ChiefFactor(order={self.order}, {kind}{fr})"


def section_centralizer(G: Group, upper: SubgroupRecord, lower: SubgroupRecord) -> SubgroupRecord:
    """Elements g with [g, upper] inside lower.

    Checking generators of the section suffices: commutators against a
    product fold into conjugates of commutators, and lower is normal.
    """
    t = G.table
    n = G.order
    invs = G.inverses()
    in_lower = np.zeros(n, dtype=bool)
    in_lower[lower.member_indices()] = True
    ok = np.ones(n, dtype=bool)
    allg = np.arange(n)
    for s in upper.gens:
        sinv = G.inv_index(int(s))
        # [g, s] = g^-1 s^-1 g s, per g
        x = t[t[t[invs, sinv], allg], int(s)]
        ok &= in_lower[x]
    return _record(G, np.nonzero(ok)[0])


def _section_module(G: Group, upper: SubgroupRecord, lower: SubgroupRecord) -> ModuleAction:
    """The conjugation module of an abelian chief factor.

    The basis is chosen greedily: each time, the least member of upper
    outside the span of the basis so far.  coords holds the GF(p)
    coordinates of each element of the span, a union of cosets of
    lower; adding b as the k-th basis element fills one coset block
    per power, coords[span * b^c] = coords[span] + c * e_k for
    c = 1..p-1.  Row k of a generator g's matrix is the coordinates of
    g^-1 b_k g, so the whole matrix is one gather.
    """
    size = upper.order // lower.order
    pf = prime_power(size)
    if pf is None:
        raise PreconditionError(f"abelian chief factor size {size} is not a prime power")
    p, f = pf
    t = G.table
    members = upper.member_indices()
    span = lower.member_indices()
    known = np.zeros(G.order, dtype=bool)
    known[span] = True
    coords = np.zeros((G.order, f), dtype=np.int64)
    basis = []
    for k in range(f):
        b = int(members[np.argmin(known[members])])
        basis.append(b)
        blocks = [span]
        bc = 0
        for c in range(1, p):
            bc = int(t[bc, b])
            block = t[span, bc]
            coords[block] = coords[span]
            coords[block, k] = c
            blocks.append(block)
        span = np.concatenate(blocks)
        known[span] = True
    if not known[members].all():
        raise PreconditionError("section is not elementary abelian of the expected rank")
    inv = G.inverses()
    mats = [coords[t[t[inv[g], basis], g]] for g in G.gen_indices]
    return ModuleAction(G, p, mats, name=f"section({upper.order}/{lower.order} of {G.name})")


def _make_factor(G: Group, upper: SubgroupRecord, lower: SubgroupRecord) -> ChiefFactor:
    order = upper.order // lower.order
    cent = section_centralizer(G, upper, lower)
    abelian = (upper.bits & cent.bits) == upper.bits  # upper inside C_G(upper/lower)
    module = None
    frattini_flag = False
    if abelian:
        module = _section_module(G, upper, lower)
        # the maximal subgroups of G/lower are those of G over lower, so
        # upper/lower is Frattini when each of them contains upper
        frattini_flag = all(
            masks[masks[:, list(lower.gens)].all(axis=1)][:, list(upper.gens)].all()
            for masks in maximal_classes(G)
        )
    return ChiefFactor(
        group=G, upper=upper, lower=lower, order=order, is_abelian=abelian,
        is_frattini=frattini_flag, centralizer=cent, module=module,
    )


def chief_series(G: Group, reverse_ties: bool = False) -> list[ChiefFactor]:
    """Chief factors from bottom to top.

    Deterministic: each step descends to the largest proper normal
    subgroup of G inside the current term, ties broken by bitset value
    (reverse_ties flips the tie order; the counts derived downstream
    must not care, and tests check that).  Each tie order's series is
    built once per group and cached on it; callers get a fresh list.
    """
    if reverse_ties not in G._chief_series:
        G._chief_series[reverse_ties] = _build_chief_series(G, reverse_ties)
    return list(G._chief_series[reverse_ties])


def _build_chief_series(G: Group, reverse_ties: bool) -> list[ChiefFactor]:
    normals = normal_subgroups(G)
    chain = []
    cur = normals[-1]  # G itself
    chain.append(cur)
    while cur.order > 1:
        inside = [
            N for N in normals
            if N.order < cur.order and (N.bits & cur.bits) == N.bits
        ]
        key = (lambda r: (r.order, -r.bits)) if reverse_ties else (lambda r: (r.order, r.bits))
        cur = max(inside, key=key)
        chain.append(cur)
    factors = []
    for lower, upper in zip(chain[::-1][:-1], chain[::-1][1:]):
        factors.append(_make_factor(G, upper, lower))
    return factors


# ---------------------------------------------------------------------------
# equivalence of factors


def modules_isomorphic(ma: ModuleAction, mb: ModuleAction) -> bool:
    """Existence of a module isomorphism between actions of one group.

    Both must be modules for the same group over the same prime with
    equal dimensions.  Irreducibility makes any nonzero intertwiner
    invertible, so a nonzero solution of M_a T = T M_b settles it.
    """
    if ma.group is not mb.group and ma.group.canonical_key() != mb.group.canonical_key():
        raise InputError("module isomorphism needs actions of the same group")
    if ma.p != mb.p or ma.dim != mb.dim:
        return False
    sols = intertwiners(ma.gen_matrices, mb.gen_matrices, ma.p)
    return any(rank(T, ma.p) == ma.dim for T in sols)


def factors_equivalent(G: Group, A: ChiefFactor, B: ChiefFactor) -> bool:
    """G-equivalence of chief factors.

    Abelian factors: isomorphism of the conjugation modules.
    Nonabelian factors: equality of section centralizers.
    """
    if A.is_abelian != B.is_abelian or A.order != B.order:
        return False
    if A.is_abelian:
        return modules_isomorphic(A.module, B.module)
    return A.centralizer.bits == B.centralizer.bits


# ---------------------------------------------------------------------------
# crowns


@dataclass
class CrownData:
    factor: ChiefFactor
    delta: int
    R: SubgroupRecord
    I: SubgroupRecord
    U: SubgroupRecord | None = None


@dataclass(eq=False)
class _FactorClass:
    """One G-equivalence class of the factors crowns read: rep, its first
    member; keys, the (upper, lower) bits of its members; deltas, its
    non-Frattini factors in the default and the reversed series; cores,
    the member rows of each N with G/N monolithic primitive and socle in
    the class; R, their intersection; I, the preimage of the socle of G/R."""

    rep: ChiefFactor
    keys: set = field(default_factory=set)
    deltas: list = field(default_factory=lambda: [0, 0])
    cores: list = field(default_factory=list)
    R: SubgroupRecord | None = None
    I: SubgroupRecord | None = None


def _minimal_over(G: Group, N: SubgroupRecord) -> list[SubgroupRecord]:
    """Normal subgroups of G minimal over N (the minimal normal subgroups
    of G/N): in ascending order, those over N containing none found before."""
    mins: list[SubgroupRecord] = []
    for M in normal_subgroups(G):
        if M.order > N.order and (M.bits & N.bits) == N.bits:
            if not any((K.bits & M.bits) == K.bits for K in mins):
                mins.append(M)
    return mins


def _factor_classes(G: Group) -> list[_FactorClass]:
    """The classes of the factors crowns read, built once per group and cached.

    A factor whose section is a member is found by its bits, another by
    factors_equivalent with each class's rep; the N are the cores of the
    maximal classes, each the AND of its class's rows.
    """
    if G._factor_classes is None:
        classes: list[_FactorClass] = []

        def member(upper: SubgroupRecord, lower: SubgroupRecord, A=None) -> _FactorClass:
            key = (upper.bits, lower.bits)
            cls = next((c for c in classes if key in c.keys), None)
            if cls is None:
                A = A if A is not None else _make_factor(G, upper, lower)
                cls = next((c for c in classes if factors_equivalent(G, A, c.rep)), None)
                if cls is None:
                    cls = _FactorClass(A)
                    classes.append(cls)
            cls.keys.add(key)
            return cls

        for reverse in (False, True):
            for A in chief_series(G, reverse_ties=reverse):
                if not A.is_frattini:
                    member(A.upper, A.lower, A).deltas[reverse] += 1
        cores = {c.tobytes(): c for c in (masks.all(axis=0) for masks in maximal_classes(G))}
        for core in cores.values():
            N = _record(G, np.flatnonzero(core))
            mins = _minimal_over(G, N)
            if len(mins) == 1:
                member(mins[0], N).cores.append(core)
        for cls in classes:
            # delta is the same in every chief series, and every crown has a core
            if cls.deltas[0] != cls.deltas[1] or 0 in (cls.deltas[0], len(cls.cores)):
                raise InvgenError(f"the class of {cls.rep!r} counts {cls.deltas} factors"
                                  f" in the two tie orders and {len(cls.cores)} cores")
            cls.R = _record(G, np.flatnonzero(np.logical_and.reduce(cls.cores)))
            # I/R is the socle of G/R: the product of the normal subgroups minimal over R
            gens = [g for M in _minimal_over(G, cls.R) for g in M.gens]
            cls.I = _record(G, closure_indices(G, [*cls.R.gens, *gens]))
        G._factor_classes = classes
    return G._factor_classes


def crown_of_factor(G: Group, A: ChiefFactor) -> CrownData:
    """R_G(A), I_G(A) and delta for a non-Frattini factor of either tie
    order's chief series, read off A's class."""
    if A.is_frattini:
        raise PreconditionError("Frattini factors have no crown")
    key = (A.upper.bits, A.lower.bits)
    cls = next((c for c in _factor_classes(G) if key in c.keys), None)
    if cls is None:
        raise PreconditionError("the factor is in neither tie order's chief series of G")
    delta = cls.deltas[0]
    if A.order**delta != cls.I.order // cls.R.order:
        raise InvgenError(f"|I/R| = {cls.I.order // cls.R.order} is not {A.order}^{delta}")
    return CrownData(factor=A, delta=delta, R=cls.R, I=cls.I)


def corona_decomposition(G: Group) -> CrownData:
    """A crown with a normal complement U: I = R x U.

    Requires a trivial Frattini subgroup; by the underlying lemma a
    complemented crown always exists then, so exhausting all crowns
    without finding one raises (bug indicator, never a soft error).
    The crowns are tried one per class, in the default series' order.
    """
    if G.order == 1:
        raise PreconditionError("the trivial group has no chief factors")
    if frattini(G).order != 1:
        raise PreconditionError("Frattini subgroup is nontrivial")
    normals = normal_subgroups(G)
    for cls in _factor_classes(G):
        crown = crown_of_factor(G, cls.rep)
        want_order = crown.I.order // crown.R.order
        crown.U = next((
            U for U in normals
            if U.order == want_order > 1
            and (U.bits & crown.I.bits) == U.bits and (U.bits & crown.R.bits) == 1
        ), None)
        if crown.U is not None:
            return crown
    raise InvgenError(
        "no crown of a Frattini-trivial group admitted a normal complement"
    )


def verify_sotto(G: Group, crown: CrownData, K: SubgroupRecord) -> bool:
    """Literal check of: KU = KR = G implies K = G."""
    if crown.U is None:
        raise PreconditionError("crown carries no complement U")
    t = G.table
    k_idx = K.member_indices()

    def product_is_group(other: SubgroupRecord) -> bool:
        prods = t[np.ix_(k_idx, other.member_indices())]
        return len(np.unique(prods)) == G.order

    if product_is_group(crown.U) and product_is_group(crown.R):
        return K.order == G.order
    return True


# ---------------------------------------------------------------------------
# crown-based power constructors


def _affine_image_rows(act: ModuleAction, u: int):
    """image_rows(vs, his): row i is the images of the p^(dim u) points of
    V^u under x -> x @ diag-block(M_h) + vs[i], h the element of index
    his[i]: the encoded linear map, built once per h, gathered through the
    encoded translation, built once per v.  Rows are in the group's row
    dtype, so they need no conversion before ``Group._lookup``."""
    p, K = act.p, act.dim * u
    dtype = _row_dtype(p**K)
    powers = p ** np.arange(K, dtype=np.int64)
    allpts = (np.arange(p**K, dtype=np.int64)[:, None] // powers) % p
    linear = {}  # hi -> the code of x @ diag-block(M_h), per point x
    shift = {}  # code of v -> the code of x + v, per point x, in dtype

    def image_rows(vs, his) -> np.ndarray:
        vs = np.asarray(vs, dtype=np.int64).reshape(len(his), K) % p
        rows = []
        for v, code, hi in zip(vs, (vs @ powers).tolist(), his):
            if hi not in linear:
                B = np.kron(np.eye(u, dtype=np.int64), act.matrices[hi])
                linear[hi] = (allpts @ B % p) @ powers
            if code not in shift:
                shift[code] = (((allpts + v) % p) @ powers).astype(dtype)
            rows.append(shift[code][linear[hi]])
        return np.array(rows, dtype=dtype)

    return image_rows


def _addition_table(p: int, K: int) -> np.ndarray:
    """add[x, y] = the code of x + y, for the little-endian base-p codes
    x, y of points of F_p^K, as int32.

    Built over the growing p^k x p^k block, one broadcast per digit: with
    P = p^k, the table over k + 1 digits at [t P + x, s P + y] is the
    table over k digits at [x, y] plus P ((t + s) mod p).
    """
    digit = np.arange(p, dtype=np.int32)
    top = (digit[:, None] + digit) % p  # (t + s) mod p
    add = np.zeros((1, 1), dtype=np.int32)
    P = 1
    for _ in range(K):
        add = (add[None, :, None, :] + top[:, None, :, None] * P).reshape(p * P, p * P)
        P *= p
    return add


def abelian_crown_power_with_embedding(act: ModuleAction, u: int):
    """V^u x| H as a permutation group on the points of V^u, plus an embed map.

    embed(v, h) is the element index of the permutation
    x -> x @ diag-block(M_h) + v; the group multiplication realized is
    (v1, h1)(v2, h2) = (v1 M_{h2} + v2, h1 h2), matching left-to-right
    composition.  The generators are H's generators with v = 0, then
    the unit translations.

    Every element is such a pair, so the group is built from its rows by
    ``Group._from_rows``, with no enumeration and no row search.  A
    point is its little-endian base-p code, as in ``_affine_image_rows``,
    and (v, h) has the raw index code(v) * |H| + h.  With add the
    addition table of codes (``_addition_table``, one broadcast per
    digit) and lin[h] the code map of x -> x @ diag-block(M_h), the row
    of (v, h) is add[code(v), lin[h]], and pos maps a raw index to its
    element index.  The left map of a generator (v_g, h_g) sends (v, h)
    to (v_g M_h + v, h_g h), one gather through add, lin and H's table,
    so ``Group.table`` looks up no row either.  A repeated row means the
    module is not faithful: the pairs then close to a smaller group, and
    PreconditionError says so.

    embed reads v as nested integers by the rules of ``_int_array``
    (booleans and fractional entries raise InputError) and works out
    code(v) and pos in plain Python, as it is called once per lifted
    element.
    """
    if u < 0:
        raise InputError(f"u must be nonnegative, got {u}")
    H = act.group
    if u == 0:
        def embed0(v, h) -> int:
            if np.asarray(v).size:
                raise InputError("u = 0 admits no vector part")
            return H.element_index(h)
        return H, embed0
    p, dim, nh = act.p, act.dim, H.order
    K = dim * u
    npoints = p**K
    n = npoints * nh
    _check_order(n)
    powers = p ** np.arange(K, dtype=np.int64)
    digits = np.arange(npoints, dtype=np.int64)[:, None] // powers % p
    add = _addition_table(p, K)
    images = np.einsum("xud,hde->hxue", digits.reshape(npoints, u, dim), act.matrices)
    lin = (images % p).reshape(nh, npoints, K) @ powers
    rows = add.astype(_row_dtype(npoints))[:, lin].reshape(n, npoints)
    raw_gens = [*H.gen_indices, *(int(c) * nh for c in powers)]
    codes = np.arange(npoints)[:, None]
    left = []
    for r in raw_gens:
        c, h = divmod(r, nh)
        # [code(v), h] -> raw index of (v_g M_h + v, h_g h)
        image = add[lin[:, c], codes].astype(np.intp) * nh + H.table[h].astype(np.intp)
        left.append(image.ravel())
    name = f"crownpower({act.name}, u={u})"
    G, pos = Group._from_rows(rows, raw_gens, name, left)
    if G.order != n:
        raise PreconditionError(f"crown power closed to order {G.order}, wanted {n}")

    weights = powers.tolist()
    index = pos.tolist()

    def embed(v, h) -> int:
        hi = H.element_index(h)
        v = _int_array(v, "vector part").ravel().tolist()
        if len(v) != K:
            raise InputError(f"vector part has {len(v)} entries, wanted {K}")
        return index[sum(x % p * w for x, w in zip(v, weights)) * nh + hi]

    return G, embed


def build_crown_power_general(L: Group, k: int) -> Group:
    """Tuples in L^k congruent modulo the unique minimal normal subgroup A
    of L, on k disjoint copies of L's domain."""
    mins = minimal_normal_subgroups(L)
    if len(mins) != 1:
        raise InputError("group has no unique minimal normal subgroup")
    (A,) = mins
    if k < 1:
        raise InputError(f"k must be at least 1, got {k}")
    if prime_power(A.order) is not None:  # A is abelian
        if (frattini(L).bits & A.bits) != 1:
            raise InputError("socle is Frattini; L is not monolithic primitive")
    if k == 1:
        return L
    target = A.order ** (k - 1) * L.order
    _check_order(target)
    deg = L.degree * k
    gens = []
    for g in L.generators:
        imgs = []
        for c in range(k):
            imgs.extend(c * L.degree + i for i in g.images)
        gens.append(Perm(imgs))
    for c in range(k):
        for ai in A.gens:
            imgs = list(range(deg))
            for i, img in enumerate(L.element(int(ai)).images):
                imgs[c * L.degree + i] = c * L.degree + img
            gens.append(Perm(imgs))
    G = Group(gens, name=f"crownpower_general({L.name}, k={k})", degree=deg)
    if G.order != target:
        raise PreconditionError(
            f"congruence power closed to order {G.order}, wanted {target}"
        )
    return G
