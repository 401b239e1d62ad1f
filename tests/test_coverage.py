"""Coverage tables and their cache entries: bitmask helpers, JSON round
trips and the exact bytes written."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import invgen
from invgen import load_group, read_corpus, realize_descriptor, shipped_corpus_path
from invgen.coverage import ClassCoverageTable, _cover_masks, _write_entry, coverage_table
from invgen.group import bits_to_indices
from invgen.subgroups import indices_to_bits

SRC = Path(invgen.__file__).resolve().parents[1]


@st.composite
def _width_and_indices(draw):
    n = draw(st.integers(0, 2000))
    if n == 0:
        return 0, []
    picked = draw(st.sets(st.integers(0, n - 1), max_size=64))
    if draw(st.booleans()):
        picked.add(n - 1)  # the top bit
    return n, sorted(picked)


@settings(max_examples=200, deadline=None)
@given(_width_and_indices())
@example((0, []))
@example((1, []))
@example((1, [0]))
@example((2000, []))
@example((2000, [1999]))
@example((2000, list(range(2000))))
def test_mask_index_round_trip(case):
    n, indices = case
    mask = sum(1 << c for c in indices)
    assert indices_to_bits(indices, n) == mask
    assert bits_to_indices(mask, n).tolist() == indices
    if n:
        # a cache entry's covers hold the identity class 0 and miss some class
        cover = sorted({0, *indices})
        if len(cover) < n:
            assert _cover_masks([cover, [0], cover], n) == (mask | 1, 1, mask | 1)
        else:
            with pytest.raises(ValueError, match="a cover lists every class"):
                _cover_masks([cover], n)


@pytest.fixture(scope="module")
def tables():
    groups = [realize_descriptor(d)[0] for d in read_corpus(shipped_corpus_path())]
    groups += [load_group({"family": "elemab", "p": p, "k": k}) for p, k in ((11, 3), (2, 10))]
    return [(G.name, coverage_table(G)) for G in groups]


def test_json_round_trip(tables):
    assert {"elemab(11,3)", "elemab(2,10)"} <= {name for name, _ in tables}
    for name, table in tables:
        assert ClassCoverageTable.from_json(table.to_json()) == table, name


def _per_bit_json(table) -> dict:
    """The cache entry of a table, each cover decoded one bit at a time."""
    nc = table.num_classes
    return {
        "order": table.order,
        "class_sizes": list(table.class_sizes),
        "class_orders": list(table.class_orders),
        "maximal_orders": list(table.maximal_orders),
        "maximal_counts": list(table.maximal_counts),
        "covers": [[c for c in range(nc) if (mask >> c) & 1] for mask in table.covers],
    }


def test_cache_entry_bytes(tables, tmp_path):
    for name, table in tables:
        path = tmp_path / "entry.json"
        _write_entry(str(path), table)
        oracle = _per_bit_json(table)
        fh = io.StringIO()
        json.dump(oracle, fh)  # the pure-Python encoder writes the same text
        assert path.read_bytes() == json.dumps(oracle).encode() == fh.getvalue().encode(), name


def _python(code: str) -> str:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return proc.stdout.strip()


def test_coverage_table_leaves_numpy_ma_unimported():
    # numpy.ma costs a fresh process 10-12 ms, and np.unique imports it
    if _python("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("importing numpy alone loads numpy.ma")
    code = (
        "import sys\n"
        "from invgen import coverage_table, load_group\n"
        "coverage_table(load_group({'family': 'sym', 'n': 4}))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _python(code) == "False"
