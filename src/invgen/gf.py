"""Dense linear algebra over prime fields GF(p).

Matrices are numpy int64 arrays with entries reduced mod p; vectors are
rows and maps act on the right (v -> v @ M), matching the module-action
convention used across the package.  Primes here are tiny, so plain
Gaussian elimination with Fermat inverses is plenty.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def as_mat(A, p: int) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=np.int64)) % p
    return A


def rref(A, p: int):
    """Reduced row echelon form mod p; returns (R, pivot_columns)."""
    R = as_mat(A, p).copy()
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if R[i, c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        R[r] = (R[r] * pow(int(R[r, c]), p - 2, p)) % p
        col = R[:, c].copy()
        col[r] = 0
        R = (R - np.outer(col, R[r])) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def rank(A, p: int) -> int:
    return len(rref(A, p)[1])


def nullspace_right(A, p: int) -> np.ndarray:
    """Rows spanning {x : A @ x == 0 mod p}; shape (nullity, cols)."""
    A = as_mat(A, p)
    R, pivots = rref(A, p)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for bi, f in enumerate(free):
        basis[bi, f] = 1
        for ri, c in enumerate(pivots):
            basis[bi, c] = (-R[ri, f]) % p
    return basis


def left_kernel(A, p: int) -> np.ndarray:
    """Rows spanning {v : v @ A == 0 mod p}."""
    return nullspace_right(as_mat(A, p).T, p)


def row_space_basis(A, p: int) -> np.ndarray:
    R, pivots = rref(A, p)
    return R[: len(pivots)]


class RowSpace:
    """A subspace of GF(p)^m grown one row vector at a time.

    The basis is kept in reduced echelon form, so membership tests are
    a single elimination pass.  add() reports whether the vector was
    new, which is what greedy independent-set loops want.
    """

    def __init__(self, p: int, ambient: int, rows=None):
        self.p = p
        self.ambient = ambient
        self._rows: list[np.ndarray] = []  # sorted by pivot column
        self._pivots: list[int] = []
        if rows is not None:
            for v in np.atleast_2d(np.asarray(rows, dtype=np.int64)):
                self.add(v)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def residue(self, v) -> np.ndarray:
        """v reduced against the current basis."""
        w = np.asarray(v, dtype=np.int64).copy() % self.p
        if w.shape != (self.ambient,):
            raise InputError(
                f"vector length {w.shape} does not match ambient {self.ambient}"
            )
        for row, c in zip(self._rows, self._pivots):
            if w[c]:
                w = (w - w[c] * row) % self.p
        return w

    def contains(self, v) -> bool:
        return not self.residue(v).any()

    def add(self, v) -> bool:
        """Insert v; True if the dimension grew."""
        w = self.residue(v)
        if not w.any():
            return False
        c = int(np.nonzero(w)[0][0])
        w = (w * pow(int(w[c]), self.p - 2, self.p)) % self.p
        # keep reduced form: clear column c from the existing rows
        for i, row in enumerate(self._rows):
            if row[c]:
                self._rows[i] = (row - row[c] * w) % self.p
        at = len([x for x in self._pivots if x < c])
        self._rows.insert(at, w)
        self._pivots.insert(at, c)
        return True

    def basis_matrix(self) -> np.ndarray:
        if not self._rows:
            return np.zeros((0, self.ambient), dtype=np.int64)
        return np.vstack(self._rows)

    def copy(self) -> "RowSpace":
        dup = RowSpace(self.p, self.ambient)
        dup._rows = [r.copy() for r in self._rows]
        dup._pivots = list(self._pivots)
        return dup
