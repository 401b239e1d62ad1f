"""Finite permutation groups enumerated explicitly.

A group's elements are one array of image rows ``_E``, sorted
lexicographically and big-endian (uint16 up to degree 65536, uint32
above), so that a row's bytes compare exactly as its image tuple does;
element i is row i, so indices, class representatives and every report
are deterministic.  The rows are the only element representation: a Perm
is built from a row only when asked (``Group.element``).  The rows come
from enumeration, which applies a generator to a whole BFS frontier of
rows with one gather, or from ``Group._from_rows`` for a group whose
rows are already known, in any order: a crown-based power V^u x| H, a
quotient G/N in its regular action, a normal subgroup as a group.  Only
this module views rows as void keys, to sort them and to look one up by
``np.searchsorted``.
The multiplication table stores each entry, an element index below the
order, in the smallest unsigned type that holds order - 1
(``np.min_scalar_type``): uint8 up to order 256 and uint16 up to 65 536,
so at the order cap a table takes 2 bytes per entry, 8 MB.  Entries are
read only as indices or through ``int()``, since arithmetic on an
unsigned numpy scalar wraps.

Sizes are desk scale and guarded by two constants, each raising
``CapExceeded`` when passed:

    ORDER_CAP  = 2_000  checked by ``_check_order`` while enumerating and
                        before a crown-based power is built, so every
                        group can build its multiplication table, the one
                        primitive behind products, inverses and closures
    DEGREE_CAP = 64     for groups loaded from descriptors, checked
                        before any generator is built

Internally constructed groups (quotients, semidirect products acting on
module points) may exceed the degree cap; they still respect the order
cap.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, InputError, InvgenError
from .perm import Perm

# ---------------------------------------------------------------------------
# caps

ORDER_CAP = 2_000
DEGREE_CAP = 64


def _check_order(order: int, exact: bool = True) -> None:
    """The one order check: CapExceeded once order passes ORDER_CAP.  A
    partial count (exact=False) is a lower bound, so it is not named."""
    if order > ORDER_CAP:
        what = f"order {order}" if exact else "group order"
        raise CapExceeded(f"{what} exceeds cap {ORDER_CAP} (order)")


# ---------------------------------------------------------------------------
# small number theory for the families


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(q: int):
    """Return (p, k) with q = p**k, or None."""
    if q < 2:
        return None
    p = next(d for d in range(2, q + 1) if q % d == 0)  # least divisor, a prime
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


# ---------------------------------------------------------------------------
# conjugacy classes


@dataclass
class ConjClass:
    rep: int  # element index of the minimal member
    size: int
    members: int  # bitset over element indices

    def member_indices(self) -> np.ndarray:
        return bits_to_indices(self.members, self.members.bit_length())


def bits_to_indices(bits: int, n: int) -> np.ndarray:
    """Indices of the set bits of a bitset over n indices, ascending."""
    raw = bits.to_bytes((n + 7) // 8, "little")
    mask = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n, bitorder="little")
    return np.flatnonzero(mask)


def _index_orbits(maps, n: int) -> list[list[int]]:
    """Orbits on 0..n-1 of the group generated by the index maps (lists,
    map[i] the image of i).

    Starts are scanned in ascending order, so each orbit's start is its
    least point; an orbit lists its points in breadth-first order.
    """
    assigned = [False] * n
    orbits = []
    for start in range(n):
        if assigned[start]:
            continue
        assigned[start] = True
        orbit = [start]
        for x in orbit:  # the list grows while it is read
            for m in maps:
                y = m[x]
                if not assigned[y]:
                    assigned[y] = True
                    orbit.append(y)
        orbits.append(orbit)
    return orbits


# ---------------------------------------------------------------------------
# image rows

_LOOKUP_CHUNK = 256  # rows per searchsorted batch in Group._lookup_all
_TABLE_CHUNK = 1 << 16  # entries per gather in Group.table and Group.class_orders


def _row_dtype(degree: int) -> np.dtype:
    """Big-endian, so a row's bytes sort like its image tuple."""
    return np.dtype(">u2" if degree <= 1 << 16 else ">u4")


def _big_endian(rows, dtype) -> np.ndarray:
    """rows as a C-contiguous array of the big-endian row dtype."""
    return np.ascontiguousarray(rows, dtype=dtype)


def _void_view(rows: np.ndarray) -> np.ndarray:
    """One opaque item per row of a C-contiguous 2-d array."""
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def _enumerate_rows(generators, degree: int) -> np.ndarray:
    """Image rows of every element of <generators>, sorted lexicographically.

    Breadth-first from the identity: a generator g moves the whole
    frontier at once, since (a * g)(x) = g(a(x)) makes the rows of
    a * g the gather g[frontier].  Right multiplication by g is
    injective, so one generator's products are distinct and only need
    checking against the rows seen before.
    """
    dtype = _row_dtype(degree)
    frontier = np.arange(degree, dtype=dtype)[None, :]
    gens = [np.asarray(g.images, dtype=dtype) for g in generators]
    seen = set(_void_view(frontier).tolist())
    found = [frontier]
    while len(frontier):
        nxt = []
        for g in gens:
            prod = g[frontier]
            keys = _void_view(prod).tolist()  # the bytes of each row
            fresh = [i for i, key in enumerate(keys) if key not in seen]
            if not fresh:
                continue
            seen.update(keys[i] for i in fresh)
            _check_order(len(seen), exact=False)
            nxt.append(prod[fresh])
        frontier = _big_endian(np.concatenate(nxt) if nxt else frontier[:0], dtype)
        found.extend(nxt)
    del seen
    rows = _big_endian(np.concatenate(found), dtype)
    del found
    # big-endian, so sorting the rows' bytes sorts them lexicographically
    return rows[np.argsort(_void_view(rows), kind="stable")]


def _cayley_steps(table, gen_indices):
    """Breadth-first walk of the Cayley graph from the identity, index 0.

    Yields (j, kids, parents) per level and generator g_j: kids =
    parents * g_j are the elements not reached before, distinct since
    right multiplication by g_j is injective.  Every element but the
    identity is a kid exactly once, after its parent, so a map given on
    the generators spreads over the group in one vectorised step per
    yield.  The walk is lazy: it reads the table rows of a level only
    after the steps that reached them were consumed, so Group.table can
    fill those rows from the walk itself.
    """
    visited = np.zeros(table.shape[0], dtype=bool)
    visited[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        nxt = []
        for j, gi in enumerate(gen_indices):
            kids = table[frontier, gi]
            fresh = ~visited[kids]
            kids, parents = kids[fresh], frontier[fresh]
            visited[kids] = True
            yield j, kids, parents
            nxt.append(kids)
        frontier = np.concatenate(nxt) if nxt else frontier[:0]


# ---------------------------------------------------------------------------


class Group:
    """A finite permutation group; element i is row i of the sorted image rows."""

    def __init__(self, generators, name="G", degree=None):
        gens = [g for g in generators if not g.is_identity()]
        if degree is None:
            if not gens:
                raise InputError("generator-free group needs an explicit degree")
            degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise InputError("generators act on different point sets")
        gen_rows = np.reshape([g.images for g in gens], (len(gens), degree))
        if (np.sort(gen_rows, axis=1) != np.arange(degree)).any():
            raise InputError(f"a generator is not a permutation of 0..{degree - 1}")
        self._setup(name, gens, _enumerate_rows(gens, degree))
        self.gen_indices = tuple(self._lookup(gen_rows).tolist())

    @classmethod
    def _from_rows(cls, rows, gens, name, left) -> tuple["Group", np.ndarray]:
        """The group of the image rows ``rows``, in any order and closed
        under products, generated by the rows of raw indices gens, with
        the element index of each raw row.  Equal rows are one element,
        so a repeated row shows as an order below len(rows).  left holds
        each generator's left multiplication as a map of raw indices,
        read by ``table`` in place of row lookups."""
        rows = _big_endian(rows, _row_dtype(np.shape(rows)[1]))
        order = np.argsort(_void_view(rows), kind="stable")
        rows = rows[order]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        index = np.empty(len(order), dtype=np.intp)
        index[order] = np.cumsum(new) - 1
        first = order[new]  # the raw index of each element's first row
        if len(first) < len(order):
            rows = rows[new]
        gen_indices = index[gens].tolist()
        G = cls.__new__(cls)
        G._setup(name, [Perm(rows[i].tolist()) for i in gen_indices], rows,
                 [index[m[first]] for m in left])
        G.gen_indices = tuple(gen_indices)
        return G, index

    def _setup(self, name, gens, rows, left=None):
        self.name = name
        self.degree = rows.shape[1]
        self.generators = tuple(gens)
        self._E = rows
        self._keys = _void_view(rows)
        self.order = len(rows)
        self._left = left
        # lazy caches
        self._table = None
        self._inv = None
        self._conj_maps = None
        self._classes = None
        self._class_of = None
        self._class_orders = None
        self._lattice = None
        self._maximal_classes = None
        self._coverage = None
        self._normals = None
        self._chief_series = {}  # reverse_ties -> chief factors
        self._factor_classes = None  # G-equivalence classes of the factors crowns read
        self._profile = None

    # -- rows ------------------------------------------------------------------

    def _lookup(self, rows) -> np.ndarray:
        """Element indices of image rows, by binary search in the sorted rows."""
        keys = _big_endian(rows, self._E.dtype).view(self._keys.dtype).ravel()
        at = self._keys.searchsorted(keys)
        if self._keys.take(at, mode="clip").tobytes() != keys.tobytes():
            raise KeyError(f"image row is not an element of {self.name}")
        return at

    def _lookup_all(self, rows_of) -> np.ndarray:
        """Element index of rows_of(E) row by row, for the sorted image rows E
        taken in chunks."""
        E = self._E
        chunks = range(0, self.order, _LOOKUP_CHUNK)
        return np.concatenate(
            [self._lookup(rows_of(E[s : s + _LOOKUP_CHUNK])) for s in chunks]
        ).astype(np.int32)

    # -- basics --------------------------------------------------------------

    def element(self, i) -> Perm:
        """Element i as a Perm, built from its image row."""
        return Perm(self._E[self.element_index(i)].tolist())

    def element_index(self, p) -> int:
        """Index of p, a Perm of this group or an element index.

        An index is checked against 0..order-1, never wrapped; a Perm is
        found by ``_lookup``'s binary search for its row among the sorted
        rows.
        """
        if not isinstance(p, Perm):
            i = operator.index(p)
            if not 0 <= i < self.order:
                raise InputError(f"element index {i} out of range for order {self.order}")
            return i
        if p.degree == self.degree:
            try:
                return int(self._lookup([p.images])[0])
            except KeyError:
                pass
        raise InputError(f"{p.cycle_string()} is not an element of {self.name}")

    def __contains__(self, p):
        """Whether p is a Perm of this group (an index is not an element)."""
        if isinstance(p, Perm):
            try:
                self.element_index(p)
                return True
            except InputError:
                pass
        return False

    def mult_index(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv_index(self, i: int) -> int:
        return int(self.inverses()[i])

    # -- multiplication table -----------------------------------------------

    @property
    def table(self) -> np.ndarray:
        """Full index multiplication table, table[i, j] = index(e_i * e_j).

        Entries are in np.min_scalar_type(order - 1): uint8 up to order
        256, uint16 up to 65 536, so every group under the order cap takes
        at most 2 bytes per entry.  They are unsigned, the narrowest type
        that holds every index, so read them as indices or through
        ``int()``: numpy arithmetic on a uint8 or uint16 entry wraps, and
        so does a write of -1 into an array of the table's type.

        The left-multiplication map of a generator g sends e to g * e,
        whose images are e(g(x)): the rows E[:, E[g]] of the sorted
        image-row array, looked up by ``searchsorted`` in chunks, unless
        the group was built with its left maps (``_from_rows``).  The
        table is then filled along ``_cayley_steps``: if e_c = e_a * g
        for a generator g, then row c is row a permuted by the left map
        of g.  Each step fills its new rows in chunks of about
        _TABLE_CHUNK entries, to keep the temporary small: one copy of the
        parents' rows, each contiguous in the table, then one ``np.take``
        of the left map's columns from that copy.  The two run about twice
        as fast as one 2-d fancy index table[parents[:, None], left].
        """
        if self._table is None:
            n = self.order
            left = self._left
            if left is None:
                left = []
                for gi in self.gen_indices:
                    cols = self._E[gi].astype(np.intp)
                    left.append(self._lookup_all(lambda rows: rows[:, cols]))
            self._left = None
            dtype = np.min_scalar_type(n - 1)
            table = np.empty((n, n), dtype=dtype)
            table[0] = np.arange(n, dtype=dtype)
            step = max(1, _TABLE_CHUNK // n)
            for j, kids, parents in _cayley_steps(table, self.gen_indices):
                for s in range(0, kids.size, step):
                    rows = table[parents[s : s + step]]
                    table[kids[s : s + step]] = np.take(rows, left[j], axis=1)
            self._table = table
        return self._table

    def inverses(self) -> np.ndarray:
        """inverses()[i] = index(e_i^-1): the column of the identity, index 0,
        in row i of the table, which is also the row's smallest entry."""
        if self._inv is None:
            self._inv = np.argmin(self.table, axis=1)
        return self._inv

    def conj_maps(self) -> tuple:
        """Index maps i -> index(g^-1 * e_i * g), one per generator g.

        g^-1 * e * g sends x to g(e(g^-1(x))), so its rows are the gather
        g[E[:, g^-1]], looked up like the table's left maps: classes need
        no n x n table.
        """
        if self._conj_maps is None:
            maps = []
            for gi in self.gen_indices:
                g = self._E[gi].astype(np.intp)
                ginv = np.argsort(g)
                maps.append(self._lookup_all(lambda rows: g[rows[:, ginv]]))
            self._conj_maps = tuple(maps)
        return self._conj_maps

    # -- conjugacy classes ----------------------------------------------------

    def conjugacy_classes(self):
        """Classes sorted by (size, representative index); identity first.

        A class is an orbit of the conjugation maps, listed from its
        smallest member.
        """
        if self._classes is None:
            n = self.order
            orbits = _index_orbits([m.tolist() for m in self.conj_maps()], n)
            orbits.sort(key=lambda o: (len(o), o[0]))
            classes = []
            class_of = np.empty(n, dtype=np.int32)
            for ci, orbit in enumerate(orbits):
                bits = 0
                for i in orbit:
                    bits |= 1 << i
                classes.append(ConjClass(rep=orbit[0], size=len(orbit), members=bits))
                class_of[orbit] = ci
            self._classes = classes
            self._class_of = class_of
        return self._classes

    def class_of(self) -> np.ndarray:
        self.conjugacy_classes()
        return self._class_of

    def class_orders(self) -> tuple[int, ...]:
        """Element order of each conjugacy class, in class-index order.

        A representative's order is the lcm of its cycle lengths, read
        from its image row alone, so neither the coverage cache check nor
        the search for prime-order classes needs the table.  The rows are
        squared together, r -> r^2, while each point keeps the least of
        its first 2^j images; once 2^j reaches the degree that is the
        least point of its cycle, and the points sharing it make up the
        cycle.  Representatives go through in chunks of about
        _TABLE_CHUNK points, so a regular quotient's d x d rows stay small.
        """
        if self._class_orders is None:
            d = self.degree
            reps = self._E[[c.rep for c in self.conjugacy_classes()]]
            step = max(1, _TABLE_CHUNK // d)
            orders = []
            for s in range(0, len(reps), step):
                rows = reps[s : s + step]
                k = len(rows)
                # point x of the r-th row is r * d + x, so one flat gather
                # applies every row at once
                power = (rows + d * np.arange(k)[:, None]).ravel()
                least = np.arange(k * d)
                for _ in range((d - 1).bit_length()):  # until 2^j >= d
                    least = np.minimum(least, least[power])
                    power = power[power]
                lengths = np.bincount(least, minlength=k * d)[least].reshape(k, d)
                orders += np.lcm.reduce(lengths, axis=1).tolist()
            self._class_orders = tuple(orders)
        return self._class_orders

    # -- serialization ---------------------------------------------------------

    def canonical_key(self) -> str:
        """Bit-exact serialization: degree plus sorted 1-based image lists."""
        gens = sorted(g.one_based() for g in self.generators)
        return json.dumps({"degree": self.degree, "generators": gens}, separators=(",", ":"))

    def __repr__(self):
        return f"Group({self.name}, order={self.order}, degree={self.degree})"


# ---------------------------------------------------------------------------
# descriptor loading and named families


def _int_param(desc, key) -> int:
    """desc[key] as an int; a missing key raises KeyError for the caller.

    Integers, integral floats (3.0) and integer strings ("3") are read;
    booleans and fractional or non-finite numbers are rejected, not
    truncated.
    """
    val = desc[key]
    if isinstance(val, float) and val.is_integer():
        val = int(val)
    try:
        if not isinstance(val, bool):
            return int(val) if isinstance(val, str) else operator.index(val)
    except (TypeError, ValueError):
        pass
    raise InputError(f"parameter {key!r} must be an integer, got {desc[key]!r}")


def _holds_bool(val) -> bool:
    """Whether val is a boolean or nested lists or tuples hold one."""
    if isinstance(val, (list, tuple)):
        return any(_holds_bool(v) for v in val)
    return isinstance(val, (bool, np.bool_))


def _int_array(val, what: str) -> np.ndarray:
    """Nested numbers as an int64 array, under the rules of _int_param:
    integers, integral floats and integer strings are read; booleans,
    also mixed with integers, and fractional or non-finite entries are
    rejected, not truncated.  An int64 array is returned as it is, not
    copied."""
    if isinstance(val, np.ndarray) and val.dtype.kind in "iu":
        return val.astype(np.int64, copy=False)
    try:
        given = np.asarray(val)
        with np.errstate(invalid="ignore"):
            out = given.astype(np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be nested integers: {exc}") from None
    if (
        given.dtype.kind == "b"
        or _holds_bool(val)
        or (given.dtype.kind == "f" and not np.array_equal(given, out))
    ):
        raise InputError(f"{what} must be nested integers, got {val!r}")
    return out


def perms_from_images(images, degree=None) -> list[Perm]:
    """Perms from a descriptor's "generators", a list of 1-based image lists."""
    if not isinstance(images, list):
        raise InputError(f"generators must be a list of image lists, got {images!r}")
    return [Perm.from_one_based(imgs, degree) for imgs in images]


def _family_generators(family, desc):
    """0-based cycle data for sym, alt, cyclic and dihedral; ``_family_degree``
    has already rejected any other family."""
    if family == "sym":
        n = _int_param(desc, "n")
        if n < 1:
            raise InputError("sym needs n >= 1")
        if n == 1:
            return [], 1
        if n == 2:
            return [[(0, 1)]], 2
        return [[(0, 1)], [tuple(range(n))]], n
    if family == "alt":
        n = _int_param(desc, "n")
        if n < 1:
            raise InputError("alt needs n >= 1")
        if n <= 2:
            return [], n
        if n == 3:
            return [[(0, 1, 2)]], 3
        if n % 2 == 1:
            return [[(0, 1, 2)], [tuple(range(n))]], n
        return [[(0, 1, 2)], [tuple(range(1, n))]], n
    if family == "cyclic":
        n = _int_param(desc, "n")
        if n < 1:
            raise InputError("cyclic needs n >= 1")
        if n == 1:
            return [], 1
        return [[tuple(range(n))]], n
    n = _int_param(desc, "n")  # dihedral
    if n < 1:
        raise InputError("dihedral needs n >= 1")
    if n == 1:
        return [[(0, 1)]], 2
    if n == 2:
        return [[(0, 1)], [(2, 3)]], 4
    rot = [tuple(range(n))]
    refl = [tuple((i, n - i)) for i in range(1, (n + 1) // 2) if i != n - i]
    return [rot, refl], n


def _family_degree(family, desc) -> int:
    """The degree a family descriptor implies, read from its parameters
    alone, so that the degree cap is checked before any generator is
    built."""
    if family == "elemab":
        return _int_param(desc, "p") * _int_param(desc, "k")
    if family == "agl1":
        return _int_param(desc, "q")
    if family not in ("sym", "alt", "cyclic", "dihedral"):
        raise InputError(f"unknown family {family!r}")
    n = _int_param(desc, "n")
    return 2 * n if family == "dihedral" and n in (1, 2) else n


def _family_name(desc: dict, read=dict.get) -> str:
    """The name of a family descriptor's group, from the parameters that
    fix it: elemab(p,k), agl1(q), or family(n) for the other families.
    read(desc, key) gets a parameter; ``load_group`` reads them as ints,
    and a survey names a row that failed from its raw values."""
    fam = desc["family"]
    keys = ("p", "k") if fam == "elemab" else ("q",) if fam == "agl1" else ("n",)
    return f"{fam}({','.join(str(read(desc, key)) for key in keys)})"


def _check_degree(degree: int) -> None:
    if degree > DEGREE_CAP:
        raise CapExceeded(f"degree {degree} exceeds degree cap {DEGREE_CAP}")


def _elemab_group(p, k):
    # k first: with k >= 1 the degree cap on p * k also bounds p, and so
    # the cost of the primality test
    if k < 1:
        raise InputError("elemab needs k >= 1")
    if not is_prime(p):
        raise InputError(f"elemab characteristic {p} is not prime")
    degree = p * k
    gens = [
        Perm.from_cycles([tuple(range(i * p, (i + 1) * p))], degree) for i in range(k)
    ]
    return Group(gens, degree=degree)


def _agl1_group(q):
    """AGL(1, q), generated by x -> x + 1 and x -> x * a on GF(p)[X]/(f).

    Point i is the polynomial whose base-p digits are i, low digit first.
    x -> x * a is the map digits @ M_a % p, where row i of M_a is X^i * a,
    each row the one before it times the companion matrix of f.  f is the
    first monic polynomial of degree k in digit order, and a the first
    element, such that x -> x * a is a bijection of order q - 1: exactly
    when f is irreducible and a is primitive, since a reducible f leaves
    fewer than q - 1 units.  The search starts at a = 1, the identity,
    which is primitive only for q = 2.
    """
    pk = prime_power(q)
    if pk is None:
        raise InputError(f"agl1 needs a prime power, got {q}")
    p, k = pk
    place = p ** np.arange(k)
    digits = np.arange(q)[:, None] // place % p
    trans = Perm([i - i % p + (i + 1) % p for i in range(q)])  # steps the low digit
    for f in digits:  # the monic X^k + sum f_i X^i
        companion = np.eye(k, k, 1, dtype=int)
        companion[-1] = -f % p
        for a in digits[1:]:
            rows = [a]
            for _ in range(k - 1):
                rows.append(rows[-1] @ companion % p)
            images = (digits @ np.array(rows) % p @ place).tolist()
            # bijection first: Perm.cycles does not end on any other map
            if len(set(images)) == q and Perm(images).order() == q - 1:
                return Group([trans, Perm(images)], degree=q)
    raise InvgenError(f"no primitive element found for GF({q})")


def load_group(desc: dict) -> Group:
    """Build a Group from a JSON-style descriptor.

    Either explicit generators:
        {"name": str, "degree": int, "generators": [[int 1-based image list], ...]}
    or a named family:
        {"family": "sym"|"alt"|"cyclic"|"dihedral", "n": int}
        {"family": "elemab", "p": int, "k": int}
        {"family": "agl1", "q": int}
    """
    if not isinstance(desc, dict):
        raise InputError("group descriptor must be a JSON object")
    if "family" in desc:
        fam = desc["family"]
        try:
            _check_degree(_family_degree(fam, desc))
            if fam == "elemab":
                grp = _elemab_group(_int_param(desc, "p"), _int_param(desc, "k"))
            elif fam == "agl1":
                grp = _agl1_group(_int_param(desc, "q"))
            else:
                cyc, degree = _family_generators(fam, desc)
                grp = Group([Perm.from_cycles(c, degree) for c in cyc], degree=degree)
        except KeyError as e:
            raise InputError(f"family {fam!r} is missing parameter {e}")
        grp.name = desc["name"] if "name" in desc else _family_name(desc, _int_param)
        return grp
    if "generators" in desc:
        try:
            degree = _int_param(desc, "degree")
        except KeyError:
            raise InputError("explicit descriptor needs a degree")
        if degree < 1:
            raise InputError("degree must be positive")
        _check_degree(degree)
        gens = perms_from_images(desc["generators"], degree)
        return Group(gens, name=desc.get("name", "G"), degree=degree)
    raise InputError("group descriptor needs 'family' or 'generators'")
