"""Subgroup enumeration and quotients, all at multiplication-table scale.

Subgroups are identified by membership bitsets (Python ints over element
indices).  The coverage table, ``frattini``, the Frattini test of a
chief factor and the crown candidates need only the conjugacy classes of
maximal subgroups, and ``maximal_classes`` finds them, for every group,
through a minimal normal subgroup N without the lattice of G: preimages
of the maximal subgroups of G/N, complements of N and, when N is
nonabelian, normalizers of subgroups of N, read off the lattice of N
alone, built as a group of its own even when N = G.  N is the smallest
abelian normal closure of a prime-order class, or else the smallest
such closure; it is minimal normal, as any minimal normal subgroup
inside a closure is itself such a closure.  The lattice of G is left for
what needs every subgroup (``subgroup_lattice`` and
``maximal_subgroups_up_to_conjugacy``, which decides maximality by
containment itself), so the property battery checks two independent
routes against each other on every group.

The lattice is built bottom-up: seed with the prime-power
cyclic subgroups, then repeatedly join class representatives with cyclic
subgroups until no new conjugacy class of subgroups appears.  Every
subgroup is generated by its prime-power cyclic subgroups, so joining
each class representative H with every cyclic partner would find a
conjugate of every subgroup.  Most of those joins are redundant: for n
in the normalizer N_G(H), <H, c^n> = <H, c>^n, so H is joined with only
one cyclic from each N_G(H)-orbit and the closure stays complete.

Every closure in the package is ``closure_indices``, a breadth-first
search by left multiplication with the generators, so it reads only
the generators' rows of the multiplication table: one entry at a time
while its frontier is small and by vectorised levels after.  A join <H, c>
starts from H's known members rather than from the identity, so only
the elements outside H are searched for, and it stops once more than
|G|/2 elements are found, since then the join is G.  The complement
search passes the same closure a mask to avoid, and drops a join as
soon as it meets N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .group import Group, _index_orbits, bits_to_indices, is_prime, prime_power

# ---------------------------------------------------------------------------
# bitset helpers


def indices_to_bits(indices, n: int) -> int:
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(indices, dtype=np.int64)] = True
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


# ---------------------------------------------------------------------------


@dataclass
class SubgroupRecord:
    group: Group
    bits: int
    order: int
    gens: tuple  # element indices generating the subgroup
    _members: np.ndarray | None = field(default=None, repr=False)

    def member_indices(self) -> np.ndarray:
        if self._members is None:
            self._members = bits_to_indices(self.bits, self.group.order)
        return self._members

    def __eq__(self, other):
        return isinstance(other, SubgroupRecord) and self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.group.name})"


def _record(G: Group, member_idx, gens=None) -> SubgroupRecord:
    """The record of the subgroup with the given members, generated by
    gens, or by ``small_generating_set`` when gens is None."""
    member_idx = np.asarray(member_idx, dtype=np.int64)
    if gens is None:
        gens = small_generating_set(G, member_idx)
    return SubgroupRecord(
        group=G,
        bits=indices_to_bits(member_idx, G.order),
        order=len(member_idx),
        gens=tuple(int(g) for g in gens),
        _members=np.sort(member_idx),
    )


# ---------------------------------------------------------------------------
# closures over the index table


# Largest frontier closure_indices walks one product at a time; above it
# the vectorised levels win.  Replayed with thresholds 4, 8, 16 and 32
# (medians of 15 on a 2-core host), the 4 832 closures of a lift pass took
# 63.9, 59.9, 61.9 and 68.1 ms, the corpus's 2 917 uncached coverage
# closures 36.4, 35.9, 36.7 and 43.5 ms, and every fourth of the property
# battery's criterion_soundness closures (38 550) 1.54, 1.56, 1.55 and
# 1.71 s.  No other value is no slower on the first two and faster on the
# third, so it stays 8.
_SCALAR_FRONTIER = 8


def closure_indices(G: Group, gen_idxs, start=None, avoid=None) -> np.ndarray | None:
    """Member indices of <H, gens>, ascending, by breadth-first search from
    start, the members of a subgroup H (by default the identity alone),
    where gens includes generators of H.

    Each level is every generator times the frontier, g * a, so the
    search reaches <gens> H, which is <gens> as H lies in it.  Products
    are read from the generators' rows table[gens], each contiguous, in
    one of two regimes.  Most closures stay small (a cyclic subgroup has
    a handful of elements) or soon pass |G|/2, so while the frontier
    holds at most _SCALAR_FRONTIER elements, each product is one table
    entry read by ``item`` and kept in a set: the search costs the
    entries it reaches, not |G|.  Once a level outgrows that, the rest
    is vectorised: each level is one gather from the d x n block of
    generator rows, and its new elements are the bits the gather set in
    a bool mask over G.

    A count above |G|/2 forces the whole group (Lagrange), so the search
    stops there and returns G.  With avoid, a boolean mask over G, the
    result is None once a new element meets the mask, or once the count
    passes |G|/2, since the closure is then G.  Both regimes reach the
    same elements and stop in the same cases.
    """
    n = G.order
    gen_idxs = [int(g) for g in gen_idxs if g != 0]
    frontier = np.zeros(1, dtype=np.int64) if start is None else np.asarray(start, dtype=np.int64)
    if not gen_idxs:
        return np.sort(frontier)
    table = G.table
    count = len(frontier)
    reached = frontier
    if count <= _SCALAR_FRONTIER:
        item = table.item
        level = frontier.tolist()
        found = set(level)
        while len(level) <= _SCALAR_FRONTIER:
            new = []
            for a in level:
                for g in gen_idxs:
                    c = item(g, a)
                    if c not in found:
                        if avoid is not None and avoid[c]:
                            return None
                        count += 1
                        if 2 * count > n:
                            return np.arange(n, dtype=np.int64) if avoid is None else None
                        found.add(c)
                        new.append(c)
            if not new:
                return np.array(sorted(found), dtype=np.int64)
            level = new
        frontier = np.array(level, dtype=np.int64)
        reached = list(found)
    left = table[gen_idxs]
    seen = np.zeros(n, dtype=bool)
    seen[reached] = True
    while True:
        before = seen.copy()
        seen.put(left[:, frontier], True)
        before ^= seen
        new = before.nonzero()[0]
        if new.size == 0:
            break
        if avoid is not None and avoid[new].any():
            return None
        count += new.size
        if 2 * count > n:
            return np.arange(n, dtype=np.int64) if avoid is None else None
        frontier = new
    return np.flatnonzero(seen).astype(np.int64)


def generated_subgroup(G: Group, elems) -> SubgroupRecord:
    """Subgroup generated by elements (Perms or element indices)."""
    idxs = [G.element_index(e) for e in elems]
    members = closure_indices(G, idxs)
    return _record(G, members, [i for i in idxs if i != 0])


def small_generating_set(G: Group, member_idx) -> tuple:
    """Greedy generating set for the subgroup with the given members: each
    member outside the closure so far joins the generators, and the
    closure grows from the one before."""
    members = np.sort(np.asarray(member_idx, dtype=np.int64))
    gens: list[int] = []
    current = np.zeros(1, dtype=np.int64)
    inside = np.zeros(G.order, dtype=bool)
    inside[0] = True
    for i in members:
        if len(current) == len(members):
            break
        if not inside[i]:
            gens.append(int(i))
            current = closure_indices(G, gens, start=current)
            inside[current] = True
    return tuple(gens)


# ---------------------------------------------------------------------------
# subgroup lattice


def _conjugate_orbit(G: Group, rec: SubgroupRecord, conj_maps):
    """All conjugates of rec, as records with conjugated generators."""
    orbit = {rec.bits: rec}
    frontier = [rec]
    while frontier:
        nxt = []
        for r in frontier:
            for cm in conj_maps:
                members = cm[r.member_indices()]
                bits = indices_to_bits(members, G.order)
                if bits not in orbit:
                    conj = _record(G, members, [int(cm[g]) for g in r.gens])
                    orbit[bits] = conj
                    nxt.append(conj)
        frontier = nxt
    return [orbit[b] for b in sorted(orbit)]


def _cyclic_subgroups_prime_power(G: Group):
    """Distinct prime-power cyclic subgroups, each with one generator, and
    for each element the position in that list of the cyclic subgroup it
    generates: -1 for the identity and for elements whose order is not a
    prime power."""
    t = G.table
    seen = {}
    bits_of = [None] * G.order
    for i in range(1, G.order):
        members = [0]
        x = i
        while x != 0:
            members.append(x)
            x = int(t[x, i])
        # keep only prime-power orders; they generate everything by joins
        if prime_power(len(members)) is None:
            continue
        bits_of[i] = bits = indices_to_bits(members, G.order)
        if bits not in seen:
            seen[bits] = _record(G, members, (i,))
    position = {b: k for k, b in enumerate(sorted(seen))}
    cyc_of = np.array([-1 if b is None else position[b] for b in bits_of], dtype=np.int64)
    return [seen[b] for b in position], cyc_of


def _normalizers(G: Group, masks: np.ndarray, gens) -> np.ndarray:
    """Membership rows of N_G(H), one for each subgroup H given by a row
    of the boolean array masks and by its generators, an index sequence
    in gens: g normalizes H when g^-1 s g lies in H for each generator
    s of H.  The j-th generators of all rows are conjugated together.
    """
    t = G.table
    inv = G.inverses()
    everything = np.arange(G.order)
    out = np.ones(masks.shape, dtype=bool)
    for j in range(max(map(len, gens), default=0)):
        rows = np.array([i for i, g in enumerate(gens) if len(g) > j], dtype=np.int64)
        s = np.array([gens[i][j] for i in rows], dtype=np.int64)
        conj = t[t[inv[:, None], s], everything[:, None]]  # conj[g, k] = g^-1 s_k g
        out[rows] &= masks[rows[:, None], conj.T]
    return out


def _partner_reps(G: Group, H: SubgroupRecord, inv, cyc_of, cyc_gens) -> np.ndarray:
    """Positions of the first cyclic in each N_G(H)-orbit of the cyclics.

    For n in N_G(H), <H, c^n> = <H, c>^n, so joining H with one cyclic
    per orbit finds a conjugate of every join.
    """
    t = G.table
    inside = np.zeros((1, G.order), dtype=bool)
    inside[0, H.member_indices()] = True
    N = np.flatnonzero(_normalizers(G, inside, [H.gens])[0])
    images = cyc_of[t[t[inv[N][:, None], cyc_gens], N[:, None]]]
    first = images.min(axis=0)
    return np.flatnonzero(first == np.arange(len(cyc_gens)))


def subgroup_lattice(G: Group) -> list[SubgroupRecord]:
    """Every subgroup of G, each exactly once, sorted by (order, bitset)."""
    out = [r for _, orbit in _lattice(G) for r in orbit]
    out.sort(key=lambda r: (r.order, r.bits))
    return out


def _lattice(G: Group) -> list[tuple[SubgroupRecord, list[SubgroupRecord]]]:
    """The conjugacy classes of subgroups of G, each a pair (representative,
    every conjugate), sorted by the representative's (order, bitset);
    built once per group and cached on it."""
    if G._lattice is not None:
        return G._lattice
    n = G.order
    trivial = _record(G, [0], ())
    if n == 1:
        G._lattice = [(trivial, [trivial])]
        return G._lattice
    conj_maps = G.conj_maps()
    cyclics, cyc_of = _cyclic_subgroups_prime_power(G)
    whole = _record(G, np.arange(n), tuple(G.gen_indices))

    seen_bits = {trivial.bits, whole.bits}
    classes = [(trivial, [trivial]), (whole, [whole])]
    work: list[SubgroupRecord] = []

    def admit(rec: SubgroupRecord):
        if rec.bits in seen_bits:
            return
        orbit = _conjugate_orbit(G, rec, conj_maps)
        rep = orbit[0]
        for r in orbit:
            seen_bits.add(r.bits)
        classes.append((rep, orbit))
        work.append(rep)

    for c in cyclics:
        admit(c)

    inv = G.inverses()
    cyc_gens = np.array([c.gens[0] for c in cyclics], dtype=np.int64)

    wi = 0
    while wi < len(work):
        H = work[wi]
        wi += 1
        for ci in _partner_reps(G, H, inv, cyc_of, cyc_gens):
            c = cyclics[ci]
            if (H.bits & c.bits) == c.bits:
                continue
            # order lower bound |H||c| / |H ∩ c|: skip straight to G
            inter = (H.bits & c.bits).bit_count()
            bound = H.order * c.order // inter
            if 2 * bound > n:
                continue  # join is G, already admitted
            members = closure_indices(G, H.gens + c.gens, start=H.member_indices())
            if len(members) == n:
                continue  # join is G, already admitted
            if indices_to_bits(members, n) not in seen_bits:  # a record only for a new subgroup
                admit(_record(G, members, H.gens + c.gens))

    classes.sort(key=lambda pair: (pair[0].order, pair[0].bits))
    G._lattice = classes
    return classes


def maximal_subgroups_up_to_conjugacy(G: Group) -> list[SubgroupRecord]:
    """One representative per conjugacy class of maximal subgroups, sorted
    by (order, bitset): the proper subgroups of the lattice that no
    proper subgroup of a larger order, a multiple of theirs, contains."""
    classes = _lattice(G)
    by_order: dict[int, list[int]] = {}
    for rep, orbit in classes:
        if rep.order < G.order:
            by_order.setdefault(rep.order, []).extend(r.bits for r in orbit)
    return [
        rep for rep, _ in classes
        if rep.order < G.order and not any(
            (rep.bits & b) == rep.bits
            for d, bits in by_order.items() if d > rep.order and d % rep.order == 0
            for b in bits
        )
    ]


def subgroup_conjugates(G: Group, rec: SubgroupRecord) -> list[SubgroupRecord]:
    if G._lattice is not None:
        for _, orbit in G._lattice:
            if any(r.bits == rec.bits for r in orbit):
                return orbit
    return _conjugate_orbit(G, rec, G.conj_maps())


def frattini(G: Group) -> SubgroupRecord:
    """Intersection of all maximal subgroups: the AND of every row of
    ``maximal_classes(G)``."""
    mask = np.ones(G.order, dtype=bool)
    for masks in maximal_classes(G):
        mask &= masks.all(axis=0)
    return _record(G, np.flatnonzero(mask))


# ---------------------------------------------------------------------------
# normal subgroups (cheaper than the full lattice); the normal closure of
# an element is the subgroup generated by its conjugacy class


def normal_subgroups(G: Group) -> list[SubgroupRecord]:
    """All normal subgroups, via joins with conjugacy classes.

    A subgroup generated by a conjugation-closed set is normal, so the
    join of a normal N with the normal closure of c is generated by N's
    generators and the class of c.
    """
    if G._normals is not None:
        return G._normals
    trivial = _record(G, [0], ())
    found = {trivial.bits: trivial}
    classes = G.conjugacy_classes()
    queue = [trivial]
    while queue:
        N = queue.pop()
        for c in classes[1:]:
            if (N.bits & c.members) == c.members:
                continue
            members = closure_indices(G, N.gens + tuple(c.member_indices()))
            bits = indices_to_bits(members, G.order)
            if bits in found:
                continue
            # the class only gives the join; records must carry a small set
            # generating the subgroup itself
            found[bits] = rec = _record(G, members)
            if rec.order < G.order:
                queue.append(rec)
    out = sorted(found.values(), key=lambda r: (r.order, r.bits))
    G._normals = out
    return out


def _prime_order_classes(G: Group):
    """Conjugacy classes of elements of prime order, in class order."""
    return [c for c, o in zip(G.conjugacy_classes(), G.class_orders()) if is_prime(o)]


def minimal_normal_subgroups(G: Group) -> list[SubgroupRecord]:
    """Minimal normal subgroups, sorted by (order, bitset).

    A minimal normal subgroup is the normal closure of any of its
    elements of prime order, and a nontrivial normal subgroup inside a
    closure contains the closure of one of its own prime-order elements.
    So the minimal ones are the normal closures of the prime-order class
    representatives that contain no other such closure.
    """
    closures = {}
    for c in _prime_order_classes(G):
        members = closure_indices(G, c.member_indices())
        closures.setdefault(indices_to_bits(members, G.order), members)
    out = []
    for bits, members in closures.items():
        if any(b != bits and (b & bits) == b for b in closures):
            continue
        out.append(_record(G, members))
    out.sort(key=lambda r: (r.order, r.bits))
    return out


# ---------------------------------------------------------------------------
# quotients


def quotient_with_map(G: Group, members) -> tuple[Group, np.ndarray]:
    """Quotient by the normal subgroup N with the given member indices, in
    its regular realization: G acting on the right cosets of N, so Q has
    degree and order |G|/|N|.  Returns Q and the index map sending G's
    element indices to Q's.  Q's generators are the images of G's, less
    those inside N, in G's order.

    N = 1 returns G itself, with its tables and lattice already built.
    N normal makes Nr x = N r r_x for the representative r_x of Nx, so
    every element acts as its coset's representative does, and the
    representatives' rows, distinct as row x sends N to Nr_x, are Q:
    ``Group._from_rows`` builds Q from them and the left maps
    x -> coset of g r_x of its generators g, read from G's table.
    """
    n = G.order
    Nidx = np.asarray(members, dtype=np.int64)
    inside = np.zeros(n, dtype=bool)
    inside[Nidx] = True
    if not all(inside[cm[Nidx]].all() for cm in G.conj_maps()):
        raise PreconditionError("quotient by a non-normal subgroup")
    if len(Nidx) == 1:
        return G, np.arange(n, dtype=np.int64)
    t = G.table
    cos_id = np.full(n, -1, dtype=np.int64)
    reps = []
    for i in range(n):
        if cos_id[i] < 0:
            cos_id[t[Nidx, i]] = len(reps)
            reps.append(i)
    reps = np.asarray(reps, dtype=np.int64)
    gens = [g for g in G.gen_indices if cos_id[g]]  # less those inside N
    # row x: the permutation of the cosets by the representative x
    rows, left = cos_id[t[np.ix_(reps, reps)]].T, [cos_id[t[g, reps]] for g in gens]
    Q, index = Group._from_rows(rows, cos_id[gens], f"{G.name}/N{len(Nidx)}", left)
    return Q, index[cos_id]


# ---------------------------------------------------------------------------
# maximal subgroups through a minimal normal subgroup


def _minimal_normal(G: Group) -> tuple[np.ndarray, bool]:
    """Members of one minimal normal subgroup of the nontrivial group G,
    abelian when G has an abelian one, and whether it is abelian.

    It is the smallest abelian normal closure of a prime-order class, or
    else the smallest closure, each closure taken once: any minimal
    normal subgroup inside a closure is itself such a closure.  A closure
    of prime order is returned at once, and only closures of prime-power
    order, as abelian minimal normal subgroups are, are tested for
    commutativity.
    """
    smallest = abelian = None
    for c in _prime_order_classes(G):
        members = closure_indices(G, c.member_indices())
        if is_prime(len(members)):
            return members, True
        if smallest is None or len(members) < len(smallest):
            smallest = members
        if (abelian is None or len(members) < len(abelian)) and prime_power(len(members)):
            block = G.table[np.ix_(members, members)]
            if (block == block.T).all():
                abelian = members
    return (abelian, True) if abelian is not None else (smallest, False)


def _row_bits(masks: np.ndarray) -> list[int]:
    """The bitset of each row of a 2-d boolean membership array."""
    packed = np.packbits(masks, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _conjugacy_orbits(G: Group, masks: np.ndarray) -> list[np.ndarray]:
    """The rows of a conjugation-closed set of subgroup masks, grouped
    into G-orbits.

    Conjugating by a generator sends member i to conj_map[i], so the
    image of every row at once is the column gather by the inverse map.
    """
    where = {b: i for i, b in enumerate(_row_bits(masks))}
    images = [
        [where[b] for b in _row_bits(masks[:, np.argsort(cm)])] for cm in G.conj_maps()
    ]
    return [masks[orbit] for orbit in _index_orbits(images, len(masks))]


def _complement_orbits(G: Group, members, Q: Group, index_map) -> list[np.ndarray]:
    """Conjugacy classes of complements of the normal subgroup N with the
    given members, for the quotient map index_map: G -> Q = G/N.

    A complement meets each coset of N in exactly one element, so it is
    generated by one lift of each generator of Q, and each complement
    arises from exactly one tuple of lifts.  The lifts are chosen depth
    first, each join grown from the members of the last; a branch ends
    once its join meets N in more than the identity.  A full tuple whose
    join avoids N has order |Q|, so it spans a complement.
    """
    avoid = np.zeros(G.order, dtype=bool)
    avoid[members] = True
    avoid[0] = False
    fibres = np.argsort(index_map, kind="stable").reshape(Q.order, -1)
    qgens = []  # Q's generators, less any inside the span of earlier ones
    span = np.zeros(Q.order, dtype=bool)
    span[0] = True
    for g in Q.gen_indices:
        if not span[g]:
            qgens.append(g)
            span[closure_indices(Q, qgens)] = True
    found = []

    def extend(joined, gens):
        if len(gens) == len(qgens):
            found.append(joined)
            return
        for x in fibres[qgens[len(gens)]]:
            lifts = gens + (int(x),)
            grown = closure_indices(G, lifts, start=joined, avoid=avoid)
            if grown is not None:
                extend(grown, lifts)

    extend(np.zeros(1, dtype=np.int64), ())
    masks = np.zeros((len(found), G.order), dtype=bool)
    for row, joined in zip(masks, found):
        row[joined] = True
    return _conjugacy_orbits(G, masks)


def _normalizer_orbits(G: Group, members: np.ndarray) -> list[np.ndarray]:
    """Conjugacy classes of the normalizers N_G(K), one row per conjugate
    of K, for the subgroups 1 < K < N of the normal subgroup N with the
    given members, ascending, whose G-class holds |N : K| subgroups.

    The subgroups of N come from the lattice of N, built from G's rows
    and table as a group on G's points whose element i is members[i],
    a group of its own also when N = G, so the lattice of G itself is
    never read; N normal makes the set of them closed under conjugation
    by G.  A maximal M = N_G(K) not containing N has MN = G, so
    |G : M| = |N : M ∩ N|, which is |N : K| only for K = M ∩ N: M
    comes from one class of K, with distinct rows.  Any other normalizer
    may repeat a row or a class, and is left to the maximality filter.
    """
    sgs = small_generating_set(G, members)
    N = Group._from_rows(  # G's index x is N's searchsorted(members, x)
        G._E[members], np.searchsorted(members, sgs), f"{G.name}:N{len(members)}",
        [np.searchsorted(members, G.table[g, members]) for g in sgs],
    )[0]
    subgroups = subgroup_lattice(N)[1:-1]  # all but 1 and N
    masks = np.zeros((len(subgroups), G.order), dtype=bool)
    for row, K in zip(masks, subgroups):
        row[members[K.member_indices()]] = True
    record = dict(zip(_row_bits(masks), subgroups))
    out = []
    for orbit in _conjugacy_orbits(G, masks):
        if len(orbit) * int(orbit[0].sum()) == N.order:
            gens = [members[list(record[bits].gens)] for bits in _row_bits(orbit)]
            out.append(_normalizers(G, orbit, gens))
    return out


def _maximal_orbits(G: Group) -> list[np.ndarray]:
    """Conjugacy classes of maximal subgroups, one membership row per
    conjugate, in no particular order."""
    if G.order == 1:
        return []
    members, abelian = _minimal_normal(G)
    Q, index_map = quotient_with_map(G, members)
    above = [masks[:, index_map] for masks in _maximal_orbits(Q)]
    complements = _complement_orbits(G, members, Q, index_map)
    if abelian:
        return above + complements
    # a candidate is maximal when no candidate row strictly contains it;
    # each maximal class is one candidate, and the rest are dropped
    candidates = above + complements + _normalizer_orbits(G, members)
    rows = np.concatenate(candidates)
    sizes = rows.sum(axis=1)
    return [
        masks for masks in candidates
        if not (rows[sizes > masks[0].sum()] >= masks[0]).all(axis=1).any()
    ]


def maximal_classes(G: Group) -> list[np.ndarray]:
    """Conjugacy classes of maximal subgroups of G, through a minimal
    normal subgroup N of G, taken abelian when G has an abelian one.

    A maximal subgroup M either contains N, and is then the preimage of
    a maximal subgroup of G/N, found by the same recursion on G/N with
    conjugacy classes and their sizes unchanged, or it does not, and
    then MN = G and K = M ∩ N is normal in M, as N is normal in G.

    - Abelian N: K is also normalized by the abelian N, so by MN = G;
      it is 1 or N, hence 1, and M is a complement of N.  Conversely
      every complement of an abelian minimal normal N is maximal, so
      these are the candidates.
    - Nonabelian N ≤ G: if K ≠ 1, K is not normal in G, since N is
      minimal normal and K ≠ N, so M ≤ N_G(K) < G and M = N_G(K);
      if K = 1, M is a complement of N.  So every maximal subgroup is a
      preimage, a complement, or the normalizer of a subgroup 1 < K < N,
      read off the lattice of N; as |G : M| = |N : K|, only the K whose
      G-class holds |N : K| subgroups are normalized.  Each candidate is
      proper, so the maximal ones are the candidates no other candidate
      strictly contains.  A simple G is the case N = G: G/N is trivial,
      its one complement 1 is dropped, and each maximal M is the
      self-normalizing K = M, whose class holds |G : M| subgroups.

    Each class is a boolean array with one membership row per conjugate.
    Rows ascend by bitset and classes by (order, least bitset), the key
    of the lattice's class representatives, so both routes list the
    classes in one order.  The list is built once per group and cached
    on it.
    """
    if G._maximal_classes is not None:
        return G._maximal_classes
    keyed = []
    for masks in _maximal_orbits(G):
        bits = _row_bits(masks)
        rows = sorted(range(len(bits)), key=bits.__getitem__)
        keyed.append(((int(masks[0].sum()), bits[rows[0]]), masks[rows]))
    keyed.sort(key=lambda pair: pair[0])
    G._maximal_classes = [masks for _, masks in keyed]
    return G._maximal_classes
