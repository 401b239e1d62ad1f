"""Permutations of {0, ..., n-1} stored as image tuples.

Composition is left to right: (a * b)(x) = b(a(x)).  Conjugation follows
g ** x = x^-1 * g * x.  Points are 0-based internally; file formats and
the CLI use 1-based points.
"""

from __future__ import annotations

import math

from .errors import InputError


class Perm:
    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)

    @staticmethod
    def identity(degree: int) -> "Perm":
        return Perm(range(degree))

    @staticmethod
    def from_one_based(images, degree=None) -> "Perm":
        """Validate a 1-based image list (the external format)."""
        if not isinstance(images, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in images
        ):
            raise InputError(f"an image list must be a list of integers, got {images!r}")
        imgs = [i - 1 for i in images]
        d = degree if degree is not None else len(imgs)
        if len(imgs) != d or sorted(imgs) != list(range(d)):
            raise InputError(f"not a bijection on 1..{d}: {list(images)}")
        return Perm(imgs)

    @staticmethod
    def from_cycles(cycles, degree: int) -> "Perm":
        """Build from 0-based cycles, e.g. [(0,1,2)]."""
        imgs = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
                imgs[a] = b
        p = Perm(imgs)
        if sorted(imgs) != list(range(degree)):
            raise InputError(f"overlapping or out-of-range cycles: {cycles}")
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Perm") -> "Perm":
        b = other.images
        return Perm(b[x] for x in self.images)

    def inverse(self) -> "Perm":
        imgs = [0] * len(self.images)
        for x, y in enumerate(self.images):
            imgs[y] = x
        return Perm(imgs)

    def __pow__(self, x: "Perm") -> "Perm":
        """Conjugate: x^-1 * self * x."""
        return x.inverse() * self * x

    def __call__(self, point: int) -> int:
        return self.images[point]

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images))

    def order(self) -> int:
        """Least common multiple of the cycle lengths."""
        return math.lcm(*map(len, self.cycles()))

    def cycles(self):
        """Nontrivial cycles as 0-based tuples, shortest point first;
        InputError when a walk revisits a point (not a bijection)."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                if seen[x]:
                    raise InputError(f"not a permutation: {list(self.images)} revisits {x}")
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycs)

    def one_based(self) -> list[int]:
        return [x + 1 for x in self.images]

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __le__(self, other):
        return self.images <= other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm{self.images}"
