"""Deterministic 64-bit RNG with index-derived per-trial streams.

Every random draw in this package is a pure function of (seed, stream
index, draw index), so results are identical no matter how work is
split across threads or processes.

Scheme (all arithmetic mod 2**64):

    stream_state(seed, t) = mix64(seed + PHI64 * t)
    draw(state, j)        = mix64(state + PHI64 * (j + 1))
    uniform index in [0, n) = (draw * n) >> 64

mix64 is the splitmix64 finalizer; PHI64 is the usual odd Weyl
increment 2**64 / golden ratio.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

MASK64 = (1 << 64) - 1
PHI64 = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def check_seed(seed: int) -> None:
    """Raise InputError for a seed outside [0, 2**64).

    Every stream reduces its seed mod 2**64, so two seeds that differ by
    a multiple of 2**64 would alias and give the same draws.
    """
    if not 0 <= seed <= MASK64:
        raise InputError(f"seed must lie in [0, 2**64), got {seed}")


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def stream_state(seed: int, stream: int) -> int:
    """Base state of an indexed substream."""
    return mix64(seed + PHI64 * stream)


def draw64(state: int, j: int) -> int:
    """j-th 64-bit output of the stream with the given base state (j >= 0)."""
    return mix64(state + PHI64 * (j + 1))


def randbelow(state: int, j: int, n: int) -> int:
    """j-th uniform draw in [0, n) by 64-bit fixed point scaling."""
    return (draw64(state, j) * n) >> 64


class Stream:
    """Sequential view of one substream; hands out successive draws."""

    def __init__(self, seed: int, stream: int = 0):
        self.state = stream_state(seed, stream)
        self.j = 0

    def next64(self) -> int:
        u = draw64(self.state, self.j)
        self.j += 1
        return u

    def randbelow(self, n: int) -> int:
        return (self.next64() * n) >> 64

    def choice(self, seq):
        return seq[self.randbelow(len(seq))]


# vectorized counterparts (numpy uint64, silent wraparound is intended).
# draws_vec and randbelow_vec write into out= and use scratch= when given,
# so a hot loop can reuse two buffers; out may be the input array itself,
# scratch may not

_NP_PHI = np.uint64(PHI64)
_NP_M1 = np.uint64(_M1)
_NP_M2 = np.uint64(_M2)
_NP_LO32 = np.uint64(0xFFFFFFFF)


def _mix64_inplace(z: np.ndarray, scratch: np.ndarray | None) -> np.ndarray:
    """splitmix64 finalizer, overwriting z; scratch is an array like z or None."""
    t = np.empty_like(z) if scratch is None else scratch
    for shift, mult in ((30, _NP_M1), (27, _NP_M2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= mult
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def stream_states_vec(seed: int, streams: np.ndarray) -> np.ndarray:
    z = np.uint64(seed & MASK64) + _NP_PHI * streams.astype(np.uint64)
    return _mix64_inplace(z, None)


def draws_vec(
    states: np.ndarray,
    js: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Row k holds draw js[k] of each stream: shape (len(js), len(states))."""
    # array products wrap mod 2**64; numpy would warn on a scalar product
    step = js.astype(np.uint64)
    step += np.uint64(1)
    step *= _NP_PHI
    z = np.add(step[:, None], states, out=out)
    return _mix64_inplace(z, scratch)


def randbelow_vec(
    u: np.ndarray, n: int, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """(u * n) >> 64 done in uint64 pieces; n must fit in 31 bits."""
    nn = np.uint64(n)
    lo = np.bitwise_and(u, _NP_LO32, out=scratch)
    lo *= nn
    lo >>= np.uint64(32)
    z = np.right_shift(u, np.uint64(32), out=out)
    z *= nn
    z += lo
    z >>= np.uint64(32)
    return z
