"""Every registered property check must hold on the shipped corpus.

The battery itself runs once per session (see the prop_report fixture);
each test here reads off one outcome so failures name the exact check.
"""

import numpy as np
import pytest

from invgen.properties import PROPERTY_CHECKS, _ws_samples
from invgen.rng import Stream

ALL_CHECKS = [(suite, name) for suite, name, _fn in PROPERTY_CHECKS]


def test_registry_covers_every_suite():
    suites = {suite for suite, _, _ in PROPERTY_CHECKS}
    assert suites == {
        "group_core",
        "invariable",
        "chebotarev",
        "modlin",
        "genlift",
        "crowns",
        "harness",
    }
    assert len(PROPERTY_CHECKS) == len(set(ALL_CHECKS))


@pytest.mark.parametrize("suite,name", ALL_CHECKS)
def test_property(prop_report, suite, name):
    outcome = next(
        o for o in prop_report.outcomes if (o.suite, o.name) == (suite, name)
    )
    assert outcome.checked > 0
    assert outcome.passed, outcome.violations[:5]


def test_report_is_serializable(prop_report):
    import json

    data = json.loads(prop_report.to_json())
    assert data["passed"] is True
    assert len(data["checks"]) == len(PROPERTY_CHECKS)


def _decode_ws_by_digits(idx, p, d, u, dim):
    """Reference: the base-p digits of idx, least significant first, one at a time."""
    digits = []
    for _ in range(d * u * dim):
        digits.append(idx % p)
        idx //= p
    return np.array(digits, dtype=np.int64).reshape(d, u, dim)


@pytest.mark.parametrize("p,d,u,dim", [(2, 2, 1, 1), (3, 2, 1, 2), (5, 2, 1, 1), (2, 2, 2, 2), (2, 1, 13, 1)])
def test_exhaustive_ws_match_the_digit_loop(p, d, u, dim):
    # (2, 1, 13, 1) has 8192 ws, so the decoding crosses a block boundary
    got = list(_ws_samples(p, d, u, dim, st=None))
    assert len(got) == p ** (d * u * dim)
    for idx, ws in enumerate(got):
        want = _decode_ws_by_digits(idx, p, d, u, dim)
        assert ws.dtype == want.dtype and ws.shape == want.shape
        assert (ws == want).all(), idx


def test_sampled_ws_draw_from_the_stream_in_order():
    got = list(_ws_samples(3, 2, 2, 1, Stream(5, 1), count=4))
    st = Stream(5, 1)
    want = [np.array([st.randbelow(3) for _ in range(4)]).reshape(2, 2, 1) for _ in range(4)]
    assert all((a == b).all() for a, b in zip(got, want)) and len(got) == 4
