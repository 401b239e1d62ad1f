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
counter RNG from invgen.rng: every draw is a pure function of (seed,
trial, draw index), so runs are reproducible across processes and the
vectorised path is bit-identical to a scalar per-trial loop.  One kernel
simulates each trial's waiting time n, capped at a draw limit, and
serves both estimators: C(G) is the mean of n and P_I(G, k) is the share
of trials with n <= k, on the same draws.  Every kernel call is a job
of one driver, _mc_run.  A job holds the cover words of every element,
the group order, the trials, the seed and the draw limit; _mc_job builds
it and is the one place where Monte Carlo inputs are checked.  The
driver takes a list of jobs and cuts each job's trials into contiguous
parts, one per usable CPU but none smaller than MC_MIN_PART_TRIALS.
The parts run in job order on one worker per usable CPU, never more
workers than parts: the calling thread starts on the first part and a
thread started and joined within the call on each next one, and a
worker that ends a part takes the next part not yet taken.  numpy
releases the GIL inside its array operations, so the parts run side by
side.  A lone chebotarev_montecarlo or p_invariable_montecarlo call is a
list of one job, so it splits its own trials; a survey hands the jobs of
all its rows to one call after the rows' exact work, so the kernels of
different rows run side by side too.  Every estimate of C(G) is made
from its job's counts by _mc_report, so the draw cap has one check.  A
trial's draws depend only on (seed, trial) and each part writes only
its own slice of its job's counts, so the counts are the same for any
split or schedule; a part that raises fails its job once every part of
the job has ended, and no thread outlives the call (a later fork
inherits no held lock).  Within a part, the kernel keeps the reduced
covers each trial has not yet ruled out as packed words, one bit per
cover and ceil(r/64) little-endian uint64 words per trial.  Each
element's words are gathered once per job, so a drawn element index
picks its words directly.  A part draws in blocks: with m trials live at
draw index j, it takes K = budget // m steps of every live trial at
once, at least one and no more than the draws left before the limit,
where the budget is MC_BLOCK_DRAWS times the number of parts of its job.
So the steps with many trials live go one at a time, and the long tail
of a slow group's waits costs a few numpy calls per block rather than
about twenty per step.  The (K, m) draws are made in place in two
buffers allocated once per part, their words are gathered into the
second, the words carried from the earlier blocks are ANDed into the
first step and, for K >= 2, the words are ANDed cumulatively along the
steps.  A trial whose words reach zero stays ended, so its zero steps
form a suffix of the block and its count is j + 1 plus its number of
nonzero steps.  The survivors' last-step words are copied to a third
buffer, which the part also allocates once, and the live arrays are
compacted only after a block where some trial ended.  The counts are
those of one step at a time for any budget.
"""

from __future__ import annotations

import math
import os
import threading
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coverage import coverage_table
from .errors import CapExceeded, InputError
from .group import Group
from .rng import check_int, check_seed, draws_vec, randbelow_vec, stream_states_vec

MAX_DRAWS_PER_TRIAL = 1_000_000
# fewest trials a Monte Carlo part may hold: each part pays the per-step
# numpy call overhead and the GIL hand-offs again.  Over the survey
# corpus on 2 cores, with malloc's thresholds pinned so that page faults
# do not count and the tail drawn in blocks, two parts against one ran
# 17-18% slower at 32 768 trials a part, 4-6% slower at 40 000 and 5-9%
# faster at 50 000
MC_MIN_PART_TRIALS = 50_000
# draws a Monte Carlo block may hold, per part of the call: the parts take
# turns on the GIL for each step's numpy calls, while the draws a block
# makes past a trial's end run in parallel.  Over the survey corpus on 2
# cores, malloc pinned, one part of 65 536 trials took 0.137-0.148 s at
# 2^12, 0.137-0.142 s at 2^13 and 0.141-0.147 s at 2^14 (one step at a
# time: 0.143-0.154 s); the 100 000-trial survey calls, in two parts,
# took 0.195-0.204 s at 2^12 per part, 0.186-0.192 s at 2^13, 0.184-0.187 s
# at 2^14 and 0.217-0.222 s one step at a time
MC_BLOCK_DRAWS = 1 << 12


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
    k = check_int(k, "draw count")
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
    cutoff = check_int(cutoff, "cutoff")
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


@dataclass(frozen=True)
class _McJob:
    """The inputs of one Monte Carlo kernel call.

    words holds each element's packed cover words, one row of
    ceil(r/64) uint64 per element; a trial still short of invariable
    generation after limit draws reads limit + 1.
    """

    words: np.ndarray
    order: int
    trials: int
    seed: int
    limit: int


def _mc_job(G: Group, trials: int, seed: int, limit: int = MAX_DRAWS_PER_TRIAL) -> _McJob:
    """The job of a Monte Carlo call, its inputs checked in this order:
    trials, the draw limit (an estimator's k), then the seed."""
    if check_int(trials, "trials") < 1:
        raise InputError(f"need at least one trial, got {trials}")
    if check_int(limit, "draw count") < 0:
        raise InputError(f"draw count must be >= 0, got {limit}")
    seed = check_seed(seed)
    words = np.take(_class_cover_words(G), G.class_of(), axis=0)  # per element
    return _McJob(words, G.order, int(trials), seed, int(limit))


def _mc_run(jobs: list[_McJob], finish) -> list:
    """finish(job, counts) for each job, or the Exception the job raised.

    counts holds the draw count of each of the job's trials.  The jobs'
    parts run in job order on the workers the module docstring
    describes.  A job's counts are allocated when its first part starts
    and handed to finish by the worker that ends its last part, so at
    most one counts array per worker, plus one, is alive at a time.  An
    Exception raised by a part or by finish becomes the job's entry once
    all its parts have ended; any other exception stops the workers from
    taking parts and is re-raised once they have ended.
    """
    cpus = _usable_cpus()
    results: list = [None] * len(jobs)
    items = []  # (job index, first trial, end trial, block budget)
    for j, job in enumerate(jobs):
        if not job.words.shape[1]:  # the trivial group has no covers: no draw needed
            results[j] = _settle(finish, job, np.zeros(job.trials, dtype=np.int64))
            continue
        parts = max(1, min(cpus, job.trials // MC_MIN_PART_TRIALS))
        cuts = [job.trials * i // parts for i in range(parts + 1)]
        items += [(j, cuts[i], cuts[i + 1], MC_BLOCK_DRAWS * parts) for i in range(parts)]
    left = Counter(j for j, *_ in items)  # parts of each job not yet ended
    counts: dict[int, np.ndarray] = {}
    errors: dict[int, Exception] = {}
    fatal: list[BaseException] = []
    lock = threading.Lock()
    pending = iter(range(len(items)))  # the items not yet taken, in job order

    def work(i: int) -> None:
        try:
            while i is not None:
                j, first, end, budget = items[i]
                job = jobs[j]
                with lock:
                    if j not in counts:
                        counts[j] = np.empty(job.trials, dtype=np.int64)
                    out = counts[j][first:end]
                try:
                    _mc_part(job.words, job.order, job.seed, job.limit, budget, first, out)
                except Exception as exc:
                    with lock:
                        errors.setdefault(j, exc)
                del out  # so a finished job's counts are freed with done
                with lock:
                    left[j] -= 1
                    done = None if left[j] else counts.pop(j)
                    i = None if fatal else next(pending, None)
                if done is not None:
                    results[j] = errors[j] if j in errors else _settle(finish, job, done)
                    del done
        except BaseException as exc:  # re-raised by the caller once every worker ends
            fatal.append(exc)

    # the calling thread starts on the first item, one thread on each next
    mine = next(pending, None)
    threads = [
        threading.Thread(target=work, args=(next(pending),))
        for _ in range(1, min(cpus, len(items)))
    ]
    for t in threads:
        t.start()
    try:
        if mine is not None:
            work(mine)
    finally:
        for t in threads:
            t.join()
    if fatal:
        raise fatal[0]
    return results


def _settle(fn, *args):
    """fn(*args), or the Exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _mc_counts(job: _McJob) -> np.ndarray:
    """The draw count of each of the job's trials, the job run alone by
    the driver `_mc_run`; raises what the job raised."""
    out = _mc_run([job], lambda job, counts: counts)[0]
    if isinstance(out, Exception):
        raise out
    return out


def _mc_part(
    words: np.ndarray, n: int, seed: int, limit: int, budget: int, first: int, out: np.ndarray
) -> None:
    """Fill out[i] with the draw count of trial first + i.

    words holds each element's packed cover words; a trial is live while
    some cover contains every element drawn so far.  A block draws the
    next budget // live steps of every live trial, at least one.
    """
    W = words.shape[1]
    live = np.arange(out.size)
    states = stream_states_vec(seed, live + first)
    size = max(out.size, budget)
    draw, scratch = np.empty(size, np.uint64), np.empty(size * W, np.uint64)
    alive = np.empty((out.size, W), np.uint64)  # rows [:live.size] are carried
    j = 0
    while live.size and j < limit:
        m = live.size
        K = max(1, min(budget // m, limit - j))
        # the next K draws of every live trial as one (K, m) block
        u, tmp = draw[:K * m].reshape(K, m), scratch[:K * m].reshape(K, m)
        draws_vec(states, np.arange(j, j + K), out=u, scratch=tmp)
        randbelow_vec(u, n, out=u, scratch=tmp)
        block = scratch[:K * m * W].reshape(K, m, W)
        # indices are < n, so an int64 view indexes without a cast copy;
        # take is far faster than words[idx] on 2-D, and mode "raise"
        # would gather through a temporary
        np.take(words, u.view(np.int64), axis=0, out=block, mode="clip")
        if j:  # the words carried from the draws before j
            block[0] &= alive[:m]
        if K > 1:  # on one step it changes nothing yet costs 0.2 ms at 65 536 live
            np.bitwise_and.accumulate(block, axis=0, out=block)
        steps = block[..., 0] != 0
        for w in range(1, W):
            steps |= block[..., w] != 0
        keep = steps[-1]
        if keep.all():
            alive[:m] = block[-1]  # the next block overwrites scratch
        else:
            # a trial's words stay zero once they are, so the steps where it
            # is still live come first and their number gives its count; on
            # one step that number is 0 for every trial that ended
            nonzero = np.count_nonzero(steps, axis=0) if K > 1 else 0
            out[live] = j + 1 + nonzero  # the survivors are overwritten
            rows = np.flatnonzero(keep)
            live, states = live[rows], states[rows]
            np.take(block[-1], rows, axis=0, out=alive[:rows.size], mode="clip")
        j += K
    out[live] = limit + 1


def _mc_report(job: _McJob, counts: np.ndarray) -> MonteCarloReport:
    """The estimate of C(G) from a job's draw counts.  Every Monte Carlo
    estimate of C(G), alone or in a survey, is made here, so the draw cap
    has one check."""
    if counts.max() > MAX_DRAWS_PER_TRIAL:
        raise CapExceeded(f"a trial exceeded {MAX_DRAWS_PER_TRIAL} draws (draws)")
    mean = float(counts.mean())
    stderr = (
        float(counts.std(ddof=1) / math.sqrt(job.trials)) if job.trials > 1 else 0.0
    )
    return MonteCarloReport(mean=mean, stderr=stderr, trials=job.trials, seed=job.seed)


def chebotarev_montecarlo(G: Group, trials: int, seed: int) -> MonteCarloReport:
    """Estimate C(G) by simulating the draw process to completion."""
    job = _mc_job(G, trials, seed)
    return _mc_report(job, _mc_counts(job))


def p_invariable_montecarlo(
    G: Group, k: int, trials: int, seed: int
) -> ProbabilityReport:
    """Estimate P_I(G, k): the share of trials done within k draws."""
    job = _mc_job(G, trials, seed, limit=k)
    p_hat = float((_mc_counts(job) <= job.limit).mean())
    stderr = (
        math.sqrt(p_hat * (1.0 - p_hat) / (job.trials - 1)) if job.trials > 1 else 0.0
    )
    return ProbabilityReport(p_hat, stderr, job.trials, job.seed, job.limit)
