"""Dense linear algebra over prime fields GF(p).

Matrices are numpy int64 arrays with entries reduced mod p; vectors are
rows and maps act on the right (v -> v @ M), matching the module-action
convention used across the package.  Primes here are tiny, so plain
Gaussian elimination with Fermat inverses is plenty.

rref is the one elimination: a subspace is the reduced echelon basis of
its stacked spanning rows (row_space_basis), unique for its row space,
and membership or independence is a rank of stacked rows.
"""

from __future__ import annotations

import numpy as np


def as_mat(A, p: int) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=np.int64)) % p
    return A


def rref(A, p: int):
    """Reduced row echelon form mod p; returns (R, pivot_columns)."""
    R = as_mat(A, p)  # a fresh array
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        # any nonzero pivot will do: the reduced form is unique
        pr = r + int(R[r:, c].argmax())
        lead = int(R[pr, c])
        if not lead:
            continue
        row = R[pr] * pow(lead, p - 2, p) % p
        R[pr] = R[r]  # row r moves out; the pivot row takes its place
        R -= R[:, c, None] * row
        R %= p
        R[r] = row
        pivots.append(c)
        r += 1
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
    """The reduced echelon basis of the row space of A, rows by pivot."""
    R, pivots = rref(A, p)
    return R[: len(pivots)]
