"""Isomorphism testing for small permutation groups.

Backtracking over generator images with invariant screening.  Groups
here are tiny (order-cap scale), so the emphasis is on pruning that
keeps the search honest rather than on asymptotics: element orders and
conjugacy class shapes must match, the first generator's image only
ranges over class representatives (composing with an inner automorphism
of the target costs nothing), and a candidate map is accepted only
after every Cayley edge of the source checks out.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .group import Group
from .subgroups import small_generating_set


def _order_profile(G: Group) -> Counter:
    return Counter(g.order() for g in G.elements)


def _class_shape(G: Group) -> Counter:
    return Counter(
        (c.size, G.elements[c.rep].order()) for c in G.conjugacy_classes()
    )


def _extend_hom(G: Group, H: Group, gen_idxs, img_idxs):
    """Map determined by gens -> images, or None if inconsistent.

    Builds phi along a BFS tree and then re-checks every edge, which
    forces phi(ab) = phi(a)phi(b) for all products.
    """
    tG, tH = G.table, H.table
    n = G.order
    phi = np.full(n, -1, dtype=np.int64)
    phi[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            fa = phi[a]
            for g, h in zip(gen_idxs, img_idxs):
                b = int(tG[a, g])
                fb = int(tH[fa, h])
                if phi[b] == -1:
                    phi[b] = fb
                    nxt.append(b)
                elif phi[b] != fb:
                    return None
        frontier = nxt
    if (phi == -1).any():
        return None  # gens failed to generate G; caller passed a bad set
    if len(np.unique(phi)) != n:
        return None  # collapsed onto a proper subgroup of H
    for g, h in zip(gen_idxs, img_idxs):
        if not np.array_equal(phi[tG[:, g]], tH[phi, h]):
            return None
    return phi


def find_isomorphism(G: Group, H: Group):
    """An isomorphism G -> H as an index array, or None.

    The array maps element indices of G to element indices of H.
    """
    if G.order != H.order:
        return None
    if G.order == 1:
        return np.zeros(1, dtype=np.int64)
    if _order_profile(G) != _order_profile(H):
        return None
    if _class_shape(G) != _class_shape(H):
        return None
    gens = list(small_generating_set(G, np.arange(G.order)))
    ordH = np.array([h.order() for h in H.elements])
    clsH = H.conjugacy_classes()
    class_of_H = H.class_of()
    size_of_H = np.array([clsH[class_of_H[i]].size for i in range(H.order)])
    clsG = G.conjugacy_classes()
    class_of_G = G.class_of()

    def candidates(gi: int, first: bool):
        g = G.elements[gi]
        want_order = g.order()
        want_size = clsG[class_of_G[gi]].size
        pool = [
            hi
            for hi in range(H.order)
            if ordH[hi] == want_order and size_of_H[hi] == want_size
        ]
        if first:
            # inner automorphisms of H are free: class reps suffice
            pool = [hi for hi in pool if clsH[class_of_H[hi]].rep == hi]
        # when G and H share elements, the identity-like guess goes first
        pool.sort(key=lambda hi: (hi != gi, hi))
        return pool

    imgs: list[int] = []

    def back(depth: int):
        if depth == len(gens):
            return _extend_hom(G, H, gens, imgs)
        for hi in candidates(gens[depth], depth == 0):
            imgs.append(hi)
            phi = back(depth + 1)
            if phi is not None:
                return phi
            imgs.pop()
        return None

    return back(0)
