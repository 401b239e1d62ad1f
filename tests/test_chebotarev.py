"""Exact values, truncation identity, and Monte Carlo agreement for C(G)."""

from fractions import Fraction

import numpy as np
import pytest

from invgen import (
    CapExceeded,
    InputError,
    chebotarev_exact,
    chebotarev_montecarlo,
    chebotarev_montecarlo_reference,
    inclusion_exclusion_profile,
    load_group,
    min_k_for_probability,
    p_invariable_exact,
    p_invariable_montecarlo,
    truncated_expectation,
)

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
    assert res.as_float == pytest.approx(float(value))


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


def test_exact_cap_on_many_covers():
    # 2^5 has 31 independent maximal covers, past the exact cutoff
    G = load_group({"family": "elemab", "p": 2, "k": 5})
    with pytest.raises(CapExceeded):
        chebotarev_exact(G)


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
# (one word), 11^3 has r = 133 (three words, the last partly padding).
# 2^7 (r = 127) would take a minute to build its subgroup lattice.
MC_GROUPS = {
    "C1": {"family": "cyclic", "n": 1},
    "S3": {"family": "sym", "n": 3},
    "elemab_2_6": {"family": "elemab", "p": 2, "k": 6},
    "elemab_11_3": {"family": "elemab", "p": 11, "k": 3},
}


@pytest.fixture(scope="module", params=list(MC_GROUPS), ids=list(MC_GROUPS))
def mc_group(request):
    return load_group(MC_GROUPS[request.param])


def test_mc_reference_twin_agrees(mc_group):
    from invgen.cheb import _mc_draw_counts

    fast = _mc_draw_counts(mc_group, 300, seed=9)
    slow = chebotarev_montecarlo_reference(mc_group, 300, seed=9)
    assert np.array_equal(fast, slow)


def test_p_invariable_mc_is_the_draw_count_share(mc_group):
    # P_I(G, k) and C(G) come from the same draws: success within k
    # draws is exactly a waiting time of at most k
    counts = chebotarev_montecarlo_reference(mc_group, 300, seed=4)
    for k in range(4):
        rep = p_invariable_montecarlo(mc_group, k, trials=300, seed=4)
        assert rep.p_hat == (counts <= k).mean()


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


def test_p_invariable_mc_agrees(s3):
    exact = float(p_invariable_exact(s3, 2))
    rep = p_invariable_montecarlo(s3, 2, trials=40_000, seed=5)
    assert rep.draws == 2
    assert abs(rep.p_hat - exact) < 4 * max(rep.stderr, 1e-9)
