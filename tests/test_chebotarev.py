"""Exact values, truncation identity, and Monte Carlo agreement for C(G)."""

import json
import os
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from invgen import (
    CapExceeded,
    InputError,
    chebotarev_exact,
    chebotarev_montecarlo,
    coverage_table,
    inclusion_exclusion_profile,
    load_group,
    min_k_for_probability,
    p_invariable_exact,
    p_invariable_montecarlo,
    truncated_expectation,
)
from invgen import cheb
from invgen.cheb import MAX_DRAWS_PER_TRIAL, _reduced_covers
from invgen.harness import read_corpus, realize_descriptor, shipped_corpus_path
from invgen.rng import randbelow, stream_state


def chebotarev_montecarlo_reference(G, trials: int, seed: int) -> np.ndarray:
    """Scalar-loop twin of _mc_draw_counts; must agree draw for draw."""
    n = G.order
    class_of = G.class_of()
    table = coverage_table(G)
    covers = _reduced_covers(table.covers)
    counts = np.zeros(trials, dtype=np.int64)
    if not covers:
        return counts
    for t in range(trials):
        state = stream_state(seed, t)
        alive = list(covers)
        j = 0
        while alive:
            if j >= MAX_DRAWS_PER_TRIAL:
                raise CapExceeded(
                    f"a trial exceeded {MAX_DRAWS_PER_TRIAL} draws (draws)"
                )
            idx = randbelow(state, j, n)
            bit = 1 << int(class_of[idx])
            alive = [c for c in alive if c & bit]
            j += 1
        counts[t] = j
    return counts


def brute_force_profile(G) -> dict:
    """inclusion_exclusion_profile summed literally over all 2^r subsets
    of the table's covers, unreduced; the meet of T is built from the
    meet of T minus its lowest member."""
    table = coverage_table(G)
    covers = table.covers
    full = (1 << table.num_classes) - 1
    meets = [full]
    profile = {}
    for t in range(1, 1 << len(covers)):
        low = t & -t
        meet = meets[t ^ low] & covers[low.bit_length() - 1]
        meets.append(meet)
        s = sum(table.class_sizes[c] for c in range(table.num_classes) if meet >> c & 1)
        profile[s] = profile.get(s, 0) + (1 if t.bit_count() % 2 else -1)
    return {s: c for s, c in profile.items() if c}


# Exact rationals frozen from independent hand/bitmask computations.
EXACT_VALUES = [
    ({"family": "cyclic", "n": 2}, Fraction(2)),
    ({"family": "cyclic", "n": 3}, Fraction(3, 2)),
    ({"family": "cyclic", "n": 4}, Fraction(2)),
    ({"family": "sym", "n": 3}, Fraction(19, 5)),
    ({"family": "elemab", "p": 2, "k": 2}, Fraction(10, 3)),
    ({"family": "alt", "n": 5}, Fraction(91, 22)),
    ({"family": "sym", "n": 5}, Fraction(14438407, 3333330)),
    ({"family": "alt", "n": 6}, Fraction(42206933, 9506978)),
    ({"family": "agl1", "q": 5}, Fraction(39, 7)),
]


@pytest.mark.parametrize("desc,value", EXACT_VALUES)
def test_exact_values(desc, value):
    G = load_group(desc)
    res = chebotarev_exact(G)
    assert res.value == value
    assert res.order == G.order


def test_exact_value_q8():
    q8 = load_group(
        {
            "name": "Q8",
            "degree": 8,
            "generators": [[3, 4, 2, 1, 8, 7, 5, 6], [5, 6, 7, 8, 2, 1, 4, 3]],
        }
    )
    assert chebotarev_exact(q8).value == Fraction(10, 3)


def test_profile_signs_and_range(s4):
    profile = inclusion_exclusion_profile(s4)
    assert profile  # S4 has proper maximals
    for s, cnt in profile.items():
        assert 1 <= s < s4.order
        assert cnt != 0


def test_profile_is_built_once_and_handed_out_as_copies(monkeypatch):
    import invgen.cheb as cheb

    G = load_group({"family": "sym", "n": 4})
    build = cheb._build_profile
    want = build(G)
    builds = []
    monkeypatch.setattr(cheb, "_build_profile", lambda H: builds.append(H) or build(H))
    chebotarev_exact(G).profile.clear()
    inclusion_exclusion_profile(G)[G.order - 1] = 7
    assert inclusion_exclusion_profile(G) == want
    assert chebotarev_exact(G).profile == want
    p_invariable_exact(G, 3)
    min_k_for_probability(G, Fraction(2, 9))
    assert builds == [G]


def test_p_invariable_s3(s3):
    assert p_invariable_exact(s3, 1) == 0
    assert p_invariable_exact(s3, 2) == Fraction(1, 3)
    # monotone nondecreasing in the number of draws
    vals = [p_invariable_exact(s3, k) for k in range(8)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    with pytest.raises(InputError):
        p_invariable_exact(s3, -1)


def test_p_invariable_draw_zero_conventions(s3):
    triv = load_group({"family": "cyclic", "n": 1})
    assert p_invariable_exact(triv, 0) == 1
    assert p_invariable_exact(s3, 0) == 0


def test_truncation_identity(s4):
    c = chebotarev_exact(s4).value
    for cutoff in (0, 1, 3, 10, 50):
        head, tail = truncated_expectation(s4, cutoff)
        assert head + tail == c
    head0, _ = truncated_expectation(s4, 0)
    assert head0 == 0
    with pytest.raises(InputError):
        truncated_expectation(s4, -1)


def test_min_k_thresholds(s3):
    assert min_k_for_probability(s3, Fraction(0)) == 0
    assert min_k_for_probability(s3, Fraction(2, 9)) == 2
    s5 = load_group({"family": "sym", "n": 5})
    assert min_k_for_probability(s5, Fraction(2, 9)) == 3
    for bad in (Fraction(1), Fraction(3, 2), Fraction(-1, 4)):
        with pytest.raises(InputError):
            min_k_for_probability(s3, bad)


def test_exact_on_many_covers():
    # 2^5 has 31 independent maximal covers, whose 2^31 subsets meet in
    # only the 374 subspaces of F_2^5
    G = load_group({"family": "elemab", "p": 2, "k": 5})
    assert chebotarev_exact(G).value == Fraction(7134, 1085)


def cheb_elemab(p, k):
    """C(C_p^k) = sum over i < k of 1/(1 - p^(i-k))."""
    return sum((1 / (1 - Fraction(p) ** (i - k)) for i in range(k)), start=Fraction(0))


def pinv_elemab(p, k, j):
    """P_I(C_p^k, j): j uniform vectors span F_p^k, prod over i < k of 1 - p^(i-j)."""
    out = Fraction(1)
    for i in range(k):
        out *= 1 - Fraction(p) ** (i - j)
    return out


def _prime_divisors(n):
    return [q for q in range(2, n + 1) if n % q == 0 and all(q % d for d in range(2, q))]


def pinv_cyclic(n, j):
    """P_I(C_n, j): for each prime q | n, not every draw lies in the index-q subgroup."""
    out = Fraction(1)
    for q in _prime_divisors(n):
        out *= 1 - Fraction(1, q**j)
    return out


def cheb_cyclic(n):
    """C(C_n) = sum over nonempty sets S of primes of n of (-1)^(|S|+1) d/(d-1), d = prod S."""
    primes = _prime_divisors(n)
    total = Fraction(0)
    for t in range(1, 1 << len(primes)):
        d = 1
        for i, q in enumerate(primes):
            if t >> i & 1:
                d *= q
        total += (1 if t.bit_count() % 2 else -1) * Fraction(d, d - 1)
    return total


def cheb_agl1(q):
    """C(AGL(1, q)) = C(C_{q-1}) + sum over sets R of primes of q - 1 of
    (-1)^|R| n/(n - 1 - q((q - 1)/prod R - 1)), n = q(q - 1)."""
    primes = _prime_divisors(q - 1)
    n = q * (q - 1)
    total = cheb_cyclic(q - 1)
    for t in range(1 << len(primes)):
        d = 1
        for i, r in enumerate(primes):
            if t >> i & 1:
                d *= r
        total += (-1) ** t.bit_count() * Fraction(n, n - 1 - q * ((q - 1) // d - 1))
    return total


AGL1_CLOSED_FORM = [2, 3, 4, 5, 8, 9, 16, 25, 27, 32]


@pytest.mark.parametrize("q", AGL1_CLOSED_FORM)
def test_exact_matches_agl1_closed_form(q):
    assert chebotarev_exact(load_group({"family": "agl1", "q": q})).value == cheb_agl1(q)


ELEMAB_CLOSED_FORM = [(2, k) for k in range(2, 7)] + [(3, 2), (3, 3), (3, 4), (5, 3), (11, 3)]


@pytest.mark.parametrize("p,k", ELEMAB_CLOSED_FORM, ids=[f"{p}^{k}" for p, k in ELEMAB_CLOSED_FORM])
def test_exact_matches_elemab_closed_form(load, p, k):
    G = load({"family": "elemab", "p": p, "k": k})
    assert chebotarev_exact(G).value == cheb_elemab(p, k)
    for j in range(k + 3):
        assert p_invariable_exact(G, j) == pinv_elemab(p, k, j)


def test_exact_matches_cyclic_closed_form():
    for n in range(2, 31):
        G = load_group({"family": "cyclic", "n": n})
        assert chebotarev_exact(G).value == cheb_cyclic(n), n
        for j in range(4):
            assert p_invariable_exact(G, j) == pinv_cyclic(n, j), (n, j)


BRUTE_FORCE_MAX_COVERS = 15


def test_profile_matches_brute_force_on_corpus():
    checked = 0
    for desc in read_corpus(shipped_corpus_path()):
        G = realize_descriptor(desc)[0]
        if len(coverage_table(G).covers) > BRUTE_FORCE_MAX_COVERS:
            continue
        assert inclusion_exclusion_profile(G) == brute_force_profile(G), G.name
        checked += 1
    assert checked >= 50


def test_mc_deterministic_for_fixed_seed(s3):
    a = chebotarev_montecarlo(s3, trials=5000, seed=42)
    b = chebotarev_montecarlo(s3, trials=5000, seed=42)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    c = chebotarev_montecarlo(s3, trials=5000, seed=43)
    assert (a.mean, a.stderr) != (c.mean, c.stderr)


def test_mc_matches_exact_within_4_sigma(s3):
    exact = float(chebotarev_exact(s3).value)
    mc = chebotarev_montecarlo(s3, trials=50_000, seed=20_260_814)
    assert abs(mc.mean - exact) < 4 * mc.stderr


# the MC kernel packs r reduced covers into ceil(r/64) words per trial:
# the trivial group has r = 0 (no words), S3 has r = 2, 2^6 has r = 63
# (one word), 2^7 has r = 127 (two words, one padding bit), 11^3 has
# r = 133 (three words, the last partly padding).  AGL(1, 13) waits
# long, so most of its draw steps end no trial.
MC_GROUPS = {
    "C1": {"family": "cyclic", "n": 1},
    "S3": {"family": "sym", "n": 3},
    "elemab_2_6": {"family": "elemab", "p": 2, "k": 6},
    "elemab_2_7": {"family": "elemab", "p": 2, "k": 7},
    "elemab_11_3": {"family": "elemab", "p": 11, "k": 3},
    "agl1_13": {"family": "agl1", "q": 13},
}


@pytest.fixture(scope="module")
def load():
    """load_group, built once per descriptor across this module's tests."""
    groups = {}

    def get(desc):
        key = json.dumps(desc, sort_keys=True)
        if key not in groups:
            groups[key] = load_group(desc)
        return groups[key]

    return get


@pytest.fixture(scope="module", params=list(MC_GROUPS), ids=list(MC_GROUPS))
def mc_group(request, load):
    return load(MC_GROUPS[request.param])


# block budgets for the kernel: 1 draws one step at a time, 64 switches a
# 300-trial call to blocks of two or more steps once at most 32 trials are
# live, and the default draws every step of a 300-trial call in such blocks
BLOCK_BUDGETS = (1, 64, cheb.MC_BLOCK_DRAWS)


def test_mc_reference_twin_agrees(mc_group, monkeypatch):
    slow = chebotarev_montecarlo_reference(mc_group, 300, seed=9)
    for budget in BLOCK_BUDGETS:
        monkeypatch.setattr(cheb, "MC_BLOCK_DRAWS", budget)
        fast = cheb._mc_draw_counts(mc_group, 300, seed=9)
        assert np.array_equal(fast, slow), budget


def test_mc_draw_limit_truncates_the_twin(mc_group, monkeypatch):
    # limits past 3 end inside the blocks of the smaller budgets
    slow = chebotarev_montecarlo_reference(mc_group, 300, seed=6)
    for budget in BLOCK_BUDGETS:
        monkeypatch.setattr(cheb, "MC_BLOCK_DRAWS", budget)
        for k in (0, 1, 2, 3, 7, 20):
            fast = cheb._mc_draw_counts(mc_group, 300, seed=6, limit=k)
            assert np.array_equal(fast, np.minimum(slow, k + 1)), (budget, k)


def test_p_invariable_mc_is_the_draw_count_share(mc_group):
    # P_I(G, k) and C(G) come from the same draws: success within k
    # draws is exactly a waiting time of at most k
    counts = chebotarev_montecarlo_reference(mc_group, 300, seed=4)
    for k in range(4):
        rep = p_invariable_montecarlo(mc_group, k, trials=300, seed=4)
        assert rep.p_hat == (counts <= k).mean()


# a kernel call splits its trials into contiguous parts, one per usable
# CPU but none under MC_MIN_PART_TRIALS; this many trials split unevenly
# into two or three parts
PART_TRIALS = 3 * cheb.MC_MIN_PART_TRIALS + 7


def _force_parts(monkeypatch, parts: int, fail: bool = False) -> list:
    """Make the kernel see `parts` usable CPUs and record each part it
    runs as (first trial, size, ran in the calling thread); with fail,
    every part but the first raises instead."""
    ran = []
    real = cheb._mc_part
    caller = threading.current_thread()

    def spy(words, n, seed, limit, budget, first, out):
        ran.append((first, out.size, threading.current_thread() is caller))
        if fail and first:
            raise RuntimeError(f"part at trial {first} failed")
        real(words, n, seed, limit, budget, first, out)

    monkeypatch.setattr(cheb, "_usable_cpus", lambda: parts)
    monkeypatch.setattr(cheb, "_mc_part", spy)
    return ran


def _check_split(ran: list, parts: int, G) -> None:
    if G.order == 1:  # no covers: the kernel draws nothing and runs no part
        assert ran == []
        return
    ran.sort()
    assert len(ran) == parts
    assert [first for first, _, _ in ran] == [
        sum(size for _, size, _ in ran[:i]) for i in range(parts)
    ]
    assert sum(size for _, size, _ in ran) == PART_TRIALS
    assert min(size for _, size, _ in ran) >= cheb.MC_MIN_PART_TRIALS
    assert [in_caller for _, _, in_caller in ran] == [True] + [False] * (parts - 1)


@pytest.mark.parametrize("limit", [MAX_DRAWS_PER_TRIAL, 0, 1, 2, 3])
def test_mc_parts_give_identical_counts(mc_group, monkeypatch, limit):
    threads = threading.active_count()
    counts = []
    for parts in (1, 2, 3):
        ran = _force_parts(monkeypatch, parts)
        counts.append(cheb._mc_draw_counts(mc_group, PART_TRIALS, seed=13, limit=limit))
        _check_split(ran, parts, mc_group)
        assert threading.active_count() == threads  # no thread outlives the call
    assert np.array_equal(counts[0], counts[1])
    assert np.array_equal(counts[0], counts[2])


def test_mc_parts_outnumbering_cores_under_frequent_switches(load, monkeypatch):
    # more parts than this host has cores, and the interpreter switching
    # threads every microsecond: the parts still fill disjoint slices
    G = load(MC_GROUPS["elemab_2_7"])
    trials = 4 * cheb.MC_MIN_PART_TRIALS
    monkeypatch.setattr(cheb, "_usable_cpus", lambda: 1)
    serial = cheb._mc_draw_counts(G, trials, seed=21)
    monkeypatch.setattr(cheb, "_usable_cpus", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split = cheb._mc_draw_counts(G, trials, seed=21)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(serial, split)


def test_mc_small_calls_stay_in_the_calling_thread(s3, monkeypatch):
    # the tests' 300 trials, pinv's 4096, and anything short of two
    # minimum parts run as one part even with CPUs to spare
    for trials in (300, 4096, 2 * cheb.MC_MIN_PART_TRIALS - 1):
        ran = _force_parts(monkeypatch, 8)
        cheb._mc_draw_counts(s3, trials, seed=2)
        assert ran == [(0, trials, True)]


def test_mc_part_error_reaches_the_caller(s3, monkeypatch):
    before = threading.active_count()
    ran = _force_parts(monkeypatch, 3, fail=True)
    with pytest.raises(RuntimeError, match="failed"):
        cheb._mc_draw_counts(s3, PART_TRIALS, seed=1)
    assert len(ran) == 3
    assert threading.active_count() == before


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    assert cheb._usable_cpus() >= 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert cheb._usable_cpus() == (os.cpu_count() or 1)


def test_mc_trivial_group_needs_no_draws():
    triv = load_group({"family": "cyclic", "n": 1})
    mc = chebotarev_montecarlo(triv, trials=100, seed=1)
    assert mc.mean == 0.0
    assert mc.stderr == 0.0


def test_mc_input_validation(s3):
    with pytest.raises(InputError):
        chebotarev_montecarlo(s3, trials=0, seed=1)
    with pytest.raises(InputError):
        p_invariable_montecarlo(s3, 2, trials=0, seed=1)
    with pytest.raises(InputError):
        p_invariable_montecarlo(s3, -1, trials=10, seed=1)
    for seed in (-1, 2**64):
        with pytest.raises(InputError, match="seed"):
            chebotarev_montecarlo(s3, trials=10, seed=seed)
        with pytest.raises(InputError, match="seed"):
            p_invariable_montecarlo(s3, 2, trials=10, seed=seed)


def test_p_invariable_mc_agrees(s3):
    exact = float(p_invariable_exact(s3, 2))
    rep = p_invariable_montecarlo(s3, 2, trials=40_000, seed=5)
    assert rep.draws == 2
    assert abs(rep.p_hat - exact) < 4 * max(rep.stderr, 1e-9)
