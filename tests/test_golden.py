"""Every deterministic output against tests/data/golden.json (made by
tests/make_golden.py): survey JSONL and CSV, the default verify report,
and `invgen crowns` and `invgen h1` over the corpus."""

import json

import numpy as np
from make_golden import GOLDEN_PATH, golden


def test_outputs_match_the_golden_file(prop_report):
    want = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    got = golden(prop_report)
    hint = (
        f"the golden file was made with numpy {want['numpy']} and this run has"
        f" numpy {np.__version__}; regenerate it with tests/make_golden.py only"
        " for a change meant to alter outputs"
    )
    assert len(got["rows"]) == 56
    assert got["rows"] == want["rows"], hint
    for key in want:
        if key != "numpy":
            assert got[key] == want[key], f"{key} differs: {hint}"
