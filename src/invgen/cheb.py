"""Chebotarev invariant and invariable-generation probabilities.

Draw elements of G uniformly and independently; C(G) is the expected
number of draws before the drawn elements invariably generate G.  Both
quantities here reduce to the class-coverage table.  Writing s_T for
the number of elements whose class is covered by every maximal class in
a set T, inclusion-exclusion over the maximal classes gives

    P(k draws do not suffice) = sum over nonempty T of
        (-1)^(|T|+1) (s_T / n)^k

so P_I(G, k) is one minus that sum, and summing the failure
probabilities over k >= 0 gives C(G) as a finite sum of fractions
n / (n - s_T).  s_T depends only on the meet X of the covers in T, so
the sum is grouped by X: the signed count of subsets meeting in X is
mu(X, top) on the intersection semilattice of the covers (the crosscut
theorem; P. Hall, "The Eulerian functions of a group", 1936; Rota
1964).  One pass per cover updates a map from meet to signed count, so
the work is r times the number of distinct meets rather than 2^r, and
subsets whose terms cancel drop out as soon as they do.

Monte Carlo estimation replays the same event with the splitmix-style
counter RNG from invgen.rng: every draw is a pure function of
(seed, trial, draw index), so runs are reproducible across processes
and the vectorised path is bit-identical to a scalar per-trial loop.  One
kernel simulates each trial's waiting time n, capped at a draw limit,
and serves both estimators: C(G) is the mean of n and P_I(G, k) is the
share of trials with n <= k, on the same draws.  Each call splits its
trials into contiguous parts, one per usable CPU but none smaller than
MC_MIN_PART_TRIALS; the calling thread runs the first part and a thread
started and joined within the call runs each other one.  numpy releases
the GIL inside its array operations, so the parts run side by side.  A
trial's draws do not depend on the part that simulates it and each part
writes only its own slice of the counts, so the counts are the same for
any split; a part that raises re-raises in the caller once every part
has ended, and no thread outlives the call (a later fork inherits no
held lock).  Within a part, the kernel keeps the reduced covers each
trial has not yet ruled out as packed words, one bit per cover and
ceil(r/64) little-endian uint64 words per trial.  Each element's words
are gathered once per call, so a drawn element index picks its words
directly.  Draws are made in place in two part-length buffers sliced to
the live count, the first draw's words become the live words and later
ones are ANDed into them, and the live arrays are compacted only at a
step where some trial ended.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coverage import coverage_table
from .errors import CapExceeded, InputError
from .group import Group
from .rng import draws_vec, randbelow_vec, stream_states_vec

MAX_DRAWS_PER_TRIAL = 1_000_000
# fewest trials a Monte Carlo part may hold: each part pays the per-step
# numpy call overhead and the GIL hand-offs again.  Over the survey
# corpus on 2 cores, with malloc's thresholds pinned so that page faults
# do not count, two parts against one ran 12% slower at 32 768 trials a
# part, 4% slower at 40 000, 4% faster at 50 000 and 40% faster at 131 072
MC_MIN_PART_TRIALS = 50_000


def _reduced_covers(covers) -> list[int]:
    """Drop covers contained in another; the union event is unchanged."""
    uniq = sorted(set(int(c) for c in covers), key=lambda c: -c.bit_count())
    kept: list[int] = []
    for c in uniq:
        if not any((c & k) == c for k in kept):
            kept.append(c)
    return kept


def inclusion_exclusion_profile(G: Group) -> dict[int, int]:
    """Map s -> signed count of subsets T of maximal classes with s_T = s.

    s_T counts group elements whose class is covered by every member of
    T, and T is counted with sign (-1)^(|T|+1).  The empty subset is
    excluded and zero counts are dropped, so values s >= 1 and the
    counts can be summed directly against n/(n-s) or (s/n)^k.  The
    profile is built once per group and cached on it, next to its
    coverage table; every call returns a fresh dict.
    """
    if G._profile is None:
        G._profile = _build_profile(G)
    return dict(G._profile)


def _build_profile(G: Group) -> dict[int, int]:
    table = coverage_table(G)
    sizes = table.class_sizes
    full = (1 << len(sizes)) - 1
    signed = {full: 1}  # meet -> sum of (-1)^|T|; full is the empty T
    for c in _reduced_covers(table.covers):
        step = dict(signed)
        for x, v in signed.items():
            step[x & c] = step.get(x & c, 0) - v
        signed = {x: v for x, v in step.items() if v}
    signed.pop(full, None)
    profile: dict[int, int] = {}
    for x, v in signed.items():
        s = sum(sizes[i] for i in range(len(sizes)) if x >> i & 1)
        profile[s] = profile.get(s, 0) - v
    return {s: c for s, c in profile.items() if c}


@dataclass(frozen=True)
class ExactChebotarev:
    value: Fraction
    profile: dict
    order: int


def chebotarev_exact(G: Group) -> ExactChebotarev:
    """C(G) as an exact fraction."""
    profile = inclusion_exclusion_profile(G)
    n = G.order
    value = Fraction(0)
    for s, cnt in profile.items():
        value += cnt * Fraction(n, n - s)
    return ExactChebotarev(value=value, profile=profile, order=n)


def p_invariable_exact(G: Group, k: int) -> Fraction:
    """Probability that k independent uniform draws invariably generate G."""
    if k < 0:
        raise InputError(f"draw count must be >= 0, got {k}")
    profile = inclusion_exclusion_profile(G)
    n = G.order
    miss = sum(cnt * s**k for s, cnt in profile.items())
    return Fraction(n**k - miss, n**k)


def min_k_for_probability(G: Group, threshold: Fraction) -> int:
    """Least k with P_I(G, k) >= threshold.

    threshold 0 always answers 0 (P_I(G, 0) is 0 or 1, either way >= 0);
    threshold 1 and beyond is rejected since P_I < 1 for nontrivial G.
    """
    threshold = Fraction(threshold)
    if not 0 <= threshold < 1:
        raise InputError(f"threshold must lie in [0, 1), got {threshold}")
    if threshold == 0:
        return 0
    profile = inclusion_exclusion_profile(G)
    n = G.order
    for k in range(MAX_DRAWS_PER_TRIAL):
        miss = sum(cnt * s**k for s, cnt in profile.items())
        if Fraction(n**k - miss, n**k) >= threshold:
            return k
    raise CapExceeded("probability threshold not reached within the draw cap (draws)")


def truncated_expectation(G: Group, cutoff: int) -> tuple[Fraction, Fraction]:
    """Split C(G) as head + tail at the given draw cutoff.

    head sums the failure probabilities for k < cutoff; tail is the
    exact remainder sum over subsets, (s/n)^cutoff * n/(n-s) per term.
    head + tail == C(G) identically, which makes this a useful internal
    consistency probe.
    """
    if cutoff < 0:
        raise InputError(f"cutoff must be >= 0, got {cutoff}")
    profile = inclusion_exclusion_profile(G)
    n = G.order
    head = Fraction(0)
    for k in range(cutoff):
        head += sum(
            (cnt * Fraction(s, n) ** k for s, cnt in profile.items()),
            start=Fraction(0),
        )
    tail = Fraction(0)
    for s, cnt in profile.items():
        tail += cnt * Fraction(s, n) ** cutoff * Fraction(n, n - s)
    return head, tail


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass(frozen=True)
class MonteCarloReport:
    mean: float
    stderr: float
    trials: int
    seed: int


@dataclass(frozen=True)
class ProbabilityReport:
    p_hat: float
    stderr: float
    trials: int
    seed: int
    draws: int


def _class_cover_words(G: Group) -> np.ndarray:
    """Per-class membership in the reduced covers, packed little-endian.

    Row c holds ceil(r/64) uint64 words; bit m of the row (bit m % 64 of
    word m // 64) is set when reduced cover m contains class c.  Bits
    past r are clear.
    """
    table = coverage_table(G)
    covers = _reduced_covers(table.covers)
    r, nc = len(covers), table.num_classes
    nbytes = (nc + 7) // 8
    raw = b"".join(c.to_bytes(nbytes, "little") for c in covers)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(r, nbytes)
    bits = np.zeros((nc, -(-r // 64) * 64), dtype=np.uint8)
    bits[:, :r] = np.unpackbits(rows, axis=1, count=nc, bitorder="little").T
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _mc_draw_counts(
    G: Group, trials: int, seed: int, limit: int = MAX_DRAWS_PER_TRIAL
) -> np.ndarray:
    """Number of draws each trial needed before invariable generation.

    A trial still short of it after `limit` draws reads limit + 1.  The
    trials run in contiguous parts, as the module docstring describes.
    """
    words = np.take(_class_cover_words(G), G.class_of(), axis=0)  # per element
    counts = np.zeros(trials, dtype=np.int64)
    if not words.shape[1]:  # the trivial group has no covers: no draw needed
        return counts
    parts = max(1, min(_usable_cpus(), trials // MC_MIN_PART_TRIALS))
    cuts = [trials * i // parts for i in range(parts + 1)]
    errors: list[BaseException] = []

    def run(i: int) -> None:
        try:
            _mc_part(words, G.order, seed, limit, cuts[i], counts[cuts[i]:cuts[i + 1]])
        except BaseException as exc:  # re-raised by the caller once all parts end
            errors.append(exc)

    workers = [threading.Thread(target=run, args=(i,)) for i in range(1, parts)]
    for w in workers:
        w.start()
    try:
        _mc_part(words, G.order, seed, limit, 0, counts[:cuts[1]])
    finally:
        for w in workers:
            w.join()
    if errors:
        raise errors[0]
    return counts


def _mc_part(
    words: np.ndarray, n: int, seed: int, limit: int, first: int, out: np.ndarray
) -> None:
    """Fill out[i] with the draw count of trial first + i.

    words holds each element's packed cover words; a trial is live while
    some cover contains every element drawn so far.
    """
    W = words.shape[1]
    live = np.arange(out.size)
    states = stream_states_vec(seed, live + first)
    draw, scratch = np.empty(live.size, np.uint64), np.empty(live.size, np.uint64)
    alive = None
    j = 0
    while live.size and j < limit:
        m = live.size
        u = draws_vec(states, j, out=draw[:m], scratch=scratch[:m])
        # indices are < n, so an int64 view indexes without a cast copy
        idx = randbelow_vec(u, n, out=u, scratch=scratch[:m]).view(np.int64)
        if alive is None:  # the first draw's words; padding bits are clear
            alive = np.take(words, idx, axis=0)  # take: far faster than words[idx] on 2-D
        else:
            alive &= np.take(words, idx, axis=0)
        j += 1
        keep = alive[:, 0] != 0
        for w in range(1, W):
            keep |= alive[:, w] != 0
        if not keep.all():
            rows = np.flatnonzero(keep)
            out[live] = j  # the survivors are overwritten when they end
            live, states, alive = live[rows], states[rows], np.take(alive, rows, axis=0)
    out[live] = limit + 1


def chebotarev_montecarlo(G: Group, trials: int, seed: int) -> MonteCarloReport:
    """Estimate C(G) by simulating the draw process to completion."""
    if trials < 1:
        raise InputError(f"need at least one trial, got {trials}")
    counts = _mc_draw_counts(G, trials, seed)
    if counts.max() > MAX_DRAWS_PER_TRIAL:
        raise CapExceeded(f"a trial exceeded {MAX_DRAWS_PER_TRIAL} draws (draws)")
    mean = float(counts.mean())
    stderr = (
        float(counts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    )
    return MonteCarloReport(mean=mean, stderr=stderr, trials=trials, seed=seed)


def p_invariable_montecarlo(
    G: Group, k: int, trials: int, seed: int
) -> ProbabilityReport:
    """Estimate P_I(G, k): the share of trials done within k draws."""
    if trials < 1:
        raise InputError(f"need at least one trial, got {trials}")
    if k < 0:
        raise InputError(f"draw count must be >= 0, got {k}")
    p_hat = float((_mc_draw_counts(G, trials, seed, limit=k) <= k).mean())
    stderr = (
        math.sqrt(p_hat * (1.0 - p_hat) / (trials - 1)) if trials > 1 else 0.0
    )
    return ProbabilityReport(p_hat, stderr, trials, seed, k)
