import json

import pytest

from invgen import (
    abelian_crown_power_with_embedding,
    module_from_descriptor,
    read_corpus,
    shipped_corpus_path,
)
from invgen.group import ORDER_CAP, load_group
from invgen.properties import verify_props


@pytest.fixture(scope="session")
def prop_report():
    """One full property-battery run, shared by every test that needs it."""
    return verify_props()


@pytest.fixture(scope="session")
def s3():
    return load_group({"family": "sym", "n": 3})


@pytest.fixture(scope="session")
def s4():
    return load_group({"family": "sym", "n": 4})


@pytest.fixture()
def mini_corpus(tmp_path):
    """A three-row corpus file; cheap enough for survey round trips."""
    path = tmp_path / "mini.jsonl"
    rows = [
        {"family": "cyclic", "n": 2},
        {"family": "cyclic", "n": 3},
        {"family": "sym", "n": 3},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return str(path)


@pytest.fixture(scope="module")
def lift_ambients():
    """V^u x| H for every corpus module and every u with order within the cap."""
    out = []
    for d in read_corpus(shipped_corpus_path()):
        if "module" not in d:
            continue
        act = module_from_descriptor(d["module"])
        u = 1
        while act.p ** (act.dim * u) * act.group.order <= ORDER_CAP:
            out.append(abelian_crown_power_with_embedding(act, u)[0])
            u += 1
    return out
