"""Conjugacy-class coverage by maximal subgroups.

The union of all conjugates of a subgroup M of G is a union of conjugacy
classes, namely the classes that meet M.  A tuple of elements invariably
generates G exactly when no maximal subgroup covers the class of every
entry, so everything downstream (exact Chebotarev values, Monte Carlo
runs, the survey) only needs one table per group: for each conjugacy
class of maximal subgroups, the set of element classes covered.

The maximal classes come without the lattice of G through a minimal
normal subgroup N.  A maximal subgroup either contains N, and is the
preimage of a maximal subgroup of G/N, found by the same recursion on
G/N, or it is a complement of N, found by lifting generators of G/N
with joins that stop as soon as they meet N, or (N nonabelian only) the
normalizer of a subgroup of N, read off the lattice of N alone.  Only a
nonabelian simple group reads its maximal classes off its own lattice.

The covers are the rows of one boolean (maximal classes x element
classes) array, each packed into an int bitmask with ``np.packbits``;
the class element orders come from ``Group.class_orders``, which needs
no multiplication table.

Tables can be cached on disk; point INVGEN_CACHE_DIR at a directory to
enable it.  The cache key is a hash of the cache format version and the
group's canonical descriptor, so two differently-constructed copies of
the same permutation group share an entry, and entries written in an
older format are never read.  An entry lists each cover's class indices
in ascending order, converted to and from the bitmask by unpacking and
packing bits; an entry whose covers are not strictly ascending lists of
in-range ints, or whose covers lack the identity class or list every
class, is treated as corrupt.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapExceeded, InputError
from .group import Group, bits_to_indices
from .subgroups import (
    SubgroupRecord,
    _row_bits,
    closure_indices,
    maximal_classes,
    subgroup_conjugates,
)

CACHE_ENV = "INVGEN_CACHE_DIR"
# part of every cache key: entries written in another format are never read
CACHE_FORMAT = 1

# exhaustive mode enumerates |class(g_2)| * ... * |class(g_k)| tuples
EXHAUSTIVE_TUPLE_CAP = 200_000


@dataclass(frozen=True)
class ClassCoverageTable:
    """Coverage of element classes by maximal-subgroup classes.

    covers[m] is an int bitmask over element-class indices: bit c is set
    when class c meets the m-th maximal subgroup (equivalently, lies in
    the union of its conjugates).  Class indices follow
    Group.conjugacy_classes() order, so the identity class is bit 0.
    """

    order: int
    class_sizes: tuple[int, ...]
    class_orders: tuple[int, ...]
    maximal_orders: tuple[int, ...]
    maximal_counts: tuple[int, ...]
    covers: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(self.class_sizes)

    @property
    def num_maximal_classes(self) -> int:
        return len(self.covers)

    def covered_elements(self, m: int) -> int:
        """Number of group elements lying in some conjugate of maximal m."""
        total = 0
        mask = self.covers[m]
        while mask:
            low = mask & -mask
            total += self.class_sizes[low.bit_length() - 1]
            mask ^= low
        return total

    def fixed_point_free(self, m: int) -> Fraction:
        """Proportion of G avoiding every conjugate of the m-th maximal.

        This is the fixed-point-free proportion for the action of G on
        the cosets of that subgroup.
        """
        return Fraction(self.order - self.covered_elements(m), self.order)

    # the on-disk cache format: bump CACHE_FORMAT whenever this changes
    def to_json(self) -> dict:
        nc = self.num_classes
        return {
            "order": self.order,
            "class_sizes": list(self.class_sizes),
            "class_orders": list(self.class_orders),
            "maximal_orders": list(self.maximal_orders),
            "maximal_counts": list(self.maximal_counts),
            "covers": [bits_to_indices(mask, nc).tolist() for mask in self.covers],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ClassCoverageTable":
        """The table of a cache entry; ValueError, TypeError or
        OverflowError if a cover is not a strictly ascending list of
        class indices."""
        class_sizes = tuple(int(s) for s in data["class_sizes"])
        return cls(
            order=int(data["order"]),
            class_sizes=class_sizes,
            class_orders=tuple(int(s) for s in data["class_orders"]),
            maximal_orders=tuple(int(s) for s in data["maximal_orders"]),
            maximal_counts=tuple(int(s) for s in data["maximal_counts"]),
            covers=_cover_masks(data["covers"], len(class_sizes)),
        )


def _cover_masks(covers, num_classes: int) -> tuple[int, ...]:
    """The bitmasks of a cache entry's covers, each of which must list
    class indices below num_classes as non-bool ints in strictly
    ascending order; a repeated index would otherwise carry into another
    bit.  Each cover must hold the identity class 0, which every
    subgroup meets, and miss some class, as no proper subgroup meets
    every class (Jordan).  All covers are checked and packed together,
    as the rows of one boolean array."""
    if not (isinstance(covers, list) and all(isinstance(c, list) for c in covers)):
        raise TypeError("covers must be lists of class indices")
    if not set(map(type, itertools.chain.from_iterable(covers))) <= {int}:
        raise TypeError("a class index must be an int")
    lengths = [len(c) for c in covers]
    flat = np.fromiter(itertools.chain.from_iterable(covers), dtype=np.int64, count=sum(lengths))
    row = np.repeat(np.arange(len(covers)), lengths)
    if flat.size and (flat.min() < 0 or flat.max() >= num_classes):
        raise ValueError("cover index out of range")
    if ((flat[1:] <= flat[:-1]) & (row[1:] == row[:-1])).any():
        raise ValueError("cover indices not strictly ascending")
    hit = np.zeros((len(covers), num_classes), dtype=bool)
    hit[row, flat] = True
    if num_classes and not hit[:, 0].all():
        raise ValueError("a cover lacks the identity class")
    if hit.all(axis=1).any():
        raise ValueError("a cover lists every class")
    return tuple(_row_bits(hit))


def _cache_path(G: Group):
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    key = f"{CACHE_FORMAT}:{G.canonical_key()}"
    digest = hashlib.sha256(key.encode()).hexdigest()
    return os.path.join(root, digest + ".json")


def _class_data(G: Group) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(class sizes, element order of each class), in class-index order:
    what the cache check compares, read without the table."""
    return tuple(c.size for c in G.conjugacy_classes()), G.class_orders()


def _compute_table(G: Group) -> ClassCoverageTable:
    """The table from the classes of maximal subgroups of G, as
    ``subgroups.maximal_classes`` finds them."""
    class_sizes, class_orders = _class_data(G)
    class_of = G.class_of()
    maximal = maximal_classes(G)
    # hit[m, c]: class c meets the m-th maximal class's first conjugate
    hit = np.zeros((len(maximal), len(class_sizes)), dtype=bool)
    for m, masks in enumerate(maximal):
        hit[m, class_of[masks[0]]] = True
    return ClassCoverageTable(
        order=G.order,
        class_sizes=class_sizes,
        class_orders=class_orders,
        maximal_orders=tuple(int(masks[0].sum()) for masks in maximal),
        maximal_counts=tuple(len(masks) for masks in maximal),
        covers=tuple(_row_bits(hit)),
    )


def coverage_table(G: Group, use_cache: bool = True) -> ClassCoverageTable:
    """Coverage table for G, from the in-memory or on-disk cache if possible.

    A disk entry is served only if its order and class sizes and orders
    are G's and every cover lists G's class indices in strictly ascending
    order, holds the identity class and misses some class; anything else
    (corrupt, stale or another group's table) is recomputed and
    rewritten.
    """
    if G._coverage is not None:
        return G._coverage
    path = _cache_path(G) if use_cache else None
    if path and os.path.exists(path):
        try:
            with open(path) as fh:
                table = ClassCoverageTable.from_json(json.load(fh))
        except (ValueError, KeyError, TypeError, OverflowError, OSError):
            table = None  # corrupt entry: recompute
        if table is not None and (
            (table.order, table.class_sizes, table.class_orders) == (G.order, *_class_data(G))
        ):
            G._coverage = table
            return table
    table = _compute_table(G)
    if path:
        _write_entry(path, table)
    G._coverage = table
    return table


def _write_entry(path: str, table: ClassCoverageTable) -> None:
    """Write a cache entry atomically.  Each writer goes through its own
    temp file, so concurrent writers of one key never share a name."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            # the C encoder; json.dump writes the same text in pure Python
            fh.write(json.dumps(table.to_json()))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def invariably_generates(G: Group, elements, exhaustive: bool = False) -> bool:
    """Whether the tuple invariably generates G.

    A tuple (g_1, ..., g_k) invariably generates when every choice of
    conjugates (g_1^{x_1}, ..., g_k^{x_k}) generates G.  The default
    test is the class-coverage criterion: the tuple fails exactly when
    some maximal subgroup covers the class of every entry.  With
    exhaustive=True the definition is checked literally, fixing the
    first entry (conjugating the whole tuple changes nothing) and
    running over all conjugates of the rest.
    """
    idxs = [G.element_index(e) for e in elements]
    if G.order == 1:
        return True
    if not idxs:
        return False
    if exhaustive:
        return _invariably_generates_exhaustive(G, idxs)
    class_of = G.class_of()
    need = 0
    for i in idxs:
        need |= 1 << int(class_of[i])
    table = coverage_table(G)
    return not any((cover & need) == need for cover in table.covers)


def _invariably_generates_exhaustive(G: Group, idxs) -> bool:
    classes = G.conjugacy_classes()
    class_of = G.class_of()
    member_lists = []
    total = 1
    for i in idxs[1:]:
        members = classes[int(class_of[i])].member_indices().tolist()
        total *= len(members)
        if total > EXHAUSTIVE_TUPLE_CAP:
            raise CapExceeded(
                f"exhaustive check needs {total}+ tuples, cap is"
                f" {EXHAUSTIVE_TUPLE_CAP} (exhaustive)"
            )
        member_lists.append(members)
    first = idxs[0]
    n = G.order
    for rest in itertools.product(*member_lists):
        if len(closure_indices(G, (first,) + rest)) != n:
            return False
    return True


def fpf_proportion(G: Group, M: SubgroupRecord) -> Fraction:
    """Proportion of G acting without fixed points on the cosets of M.

    g fixes the coset Mx exactly when g lies in M^x, so this equals
    1 - |union of all conjugates of M| / |G|.  The union is taken over
    the actual conjugate member sets, not read off the class table, so
    the two routes can be checked against each other.
    """
    if M.order >= G.order:
        raise InputError("fpf proportion needs a proper subgroup")
    union = 0
    for rec in subgroup_conjugates(G, M):
        union |= rec.bits
    return Fraction(G.order - union.bit_count(), G.order)


def coverage_to_csv(table: ClassCoverageTable, fh) -> None:
    """Write one row per maximal-subgroup class.

    Columns: subgroup order, number of conjugates, count of covered
    element classes, count of covered elements, fixed-point-free
    proportion, and the covered class indices joined with spaces.
    """
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(
        [
            "maximal_order",
            "conjugates",
            "covered_classes",
            "covered_elements",
            "fixed_point_free",
            "class_indices",
        ]
    )
    for m, mask in enumerate(table.covers):
        idxs = bits_to_indices(mask, table.num_classes).tolist()
        writer.writerow(
            [
                table.maximal_orders[m],
                table.maximal_counts[m],
                len(idxs),
                table.covered_elements(m),
                str(table.fixed_point_free(m)),
                " ".join(str(c) for c in idxs),
            ]
        )
