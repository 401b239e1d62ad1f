"""Write tests/data/golden.json: digests of every deterministic output.

    PYTHONPATH=src python tests/make_golden.py

The file holds the sha256 of the survey JSONL and CSV (shipped corpus,
100k trials, the default seed), of the default ``verify`` report, and of
the concatenated stdout, stderr and exit codes of ``invgen crowns`` over
the corpus rows and ``invgen h1`` over its module rows.  Beside the
digests, each survey row's exact C(G), r and min_k_29 sit on one line,
so a changed value shows as a one-line diff.  The Monte Carlo columns
depend on numpy's float summation, so the numpy version is recorded
too.  ``tests/test_golden.py`` recomputes everything and compares; a
change that means to alter an output regenerates the file with this
script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from invgen import read_corpus, run_survey, shipped_corpus_path
from invgen.cli import main as cli_main
from invgen.properties import verify_props

GOLDEN_PATH = Path(__file__).parent / "data" / "golden.json"
SURVEY_TRIALS = 100_000
SURVEY_SEED = 20_260_814  # the default seed of `invgen survey`


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def _cli_transcript(command: str, descriptors) -> str:
    """stdout, stderr and the exit code of `invgen COMMAND DESC`, per descriptor."""
    parts = []
    for desc in descriptors:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main([command, json.dumps(desc)])
        parts.append(f"{out.getvalue()}{err.getvalue()}exit {code}\n")
    return "".join(parts)


def _row_line(row) -> str:
    if row.error is not None:
        return f"error: {row.error}"
    c = row.c_exact
    return f"c_exact={c.numerator}/{c.denominator} r={row.r} min_k_29={row.min_k_29}"


def golden(report) -> dict:
    """The golden record, with the verify report passed in (it takes the
    longest, and the tests already hold one)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "survey.jsonl")
        rows = run_survey(
            shipped_corpus_path(), trials=SURVEY_TRIALS, seed=SURVEY_SEED,
            out_path=path, echo=lambda msg: None,
        )
        survey_jsonl = Path(path).read_bytes()
        survey_csv = Path(tmp, "survey.csv").read_bytes()
    corpus = read_corpus(shipped_corpus_path())
    return {
        "numpy": np.__version__,
        "survey_jsonl_sha256": _sha256(survey_jsonl),
        "survey_csv_sha256": _sha256(survey_csv),
        "verify_report_sha256": _sha256(report.to_json()),
        "crowns_sha256": _sha256(_cli_transcript("crowns", corpus)),
        "h1_sha256": _sha256(_cli_transcript("h1", [d for d in corpus if "module" in d])),
        "rows": {row.name: _row_line(row) for row in rows},
    }


def main() -> int:
    record = golden(verify_props())
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
