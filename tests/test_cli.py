"""Command line entry points and exit codes."""

import csv
import io
import json
import warnings

import pytest

from invgen.cli import main

S3 = '{"family": "sym", "n": 3}'

# explicit-generator descriptors that are valid JSON but not a group
MALFORMED_EXPLICIT = {
    "explicit_non_integer_degree": {"generators": [[2, 1]], "degree": "x"},
    "explicit_non_integer_images": {"generators": [["a", "b"]], "degree": 2},
    "explicit_generators_not_a_list": {"generators": 5, "degree": 2},
    "explicit_fractional_degree": {"generators": [[2, 1]], "degree": 2.5},
    "explicit_boolean_image": {"generators": [[2, True]], "degree": 2},
}
NON_INTEGRAL_PARAMS = {
    "sym_fractional_n": {"family": "sym", "n": 3.9},
    "cyclic_boolean_n": {"family": "cyclic", "n": True},
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines() if l.strip()]
    return lines


def test_cheb_exact(capsys):
    (row,) = out_json(capsys, "cheb", "exact", S3)
    assert row["c_num"] == 19 and row["c_den"] == 5
    assert row["order"] == 6
    assert row["r"] == 2


def test_cheb_mc_reproducible(capsys):
    (a,) = out_json(capsys, "cheb", "mc", S3, "--trials", "4000", "--seed", "9")
    (b,) = out_json(capsys, "cheb", "mc", S3, "--trials", "4000", "--seed", "9")
    assert a == b
    assert a["trials"] == 4000
    assert abs(a["c_mc"] - 19 / 5) < 4 * a["mc_stderr"]


def test_pinv(capsys):
    (row,) = out_json(capsys, "pinv", S3, "-k", "2")
    assert row["p_num"] == 1 and row["p_den"] == 3


def test_mink_threshold(capsys):
    (row,) = out_json(capsys, "mink", '{"family": "sym", "n": 5}')
    assert row["min_k"] == 3
    (row,) = out_json(capsys, "mink", S3, "--threshold", "1/3")
    assert row["min_k"] == 2


def test_h1_report(capsys):
    desc = json.dumps(
        {
            "group": {"family": "sym", "n": 3},
            "p": 2,
            "matrices": [[[1, 0], [1, 1]], [[0, 1], [1, 1]]],
        }
    )
    (row,) = out_json(capsys, "h1", desc)
    assert row["m"] == 0
    assert row["n"] == 2
    assert row["e"] == 1
    assert row["dim_p_der"] == 2
    assert row["faithful"] is True


def test_h1_on_a_module_with_more_than_4096_vectors(capsys):
    # A5 on the sum-zero vectors of GF(11)^5, in the basis e_i - e_5: row i
    # of a generator g is e_g(i) - e_g(5) cut to its first four entries
    mats = []
    for g in ([2, 3, 1, 4, 5], [2, 3, 4, 5, 1]):  # (1 2 3) and (1 2 3 4 5)
        mats.append([
            [(int(g[i] == j + 1) - int(g[4] == j + 1)) % 11 for j in range(4)]
            for i in range(4)
        ])
    desc = {"group": {"family": "alt", "n": 5}, "p": 11, "matrices": mats}
    (row,) = out_json(capsys, "h1", json.dumps(desc))
    assert (row["group_order"], row["dim_p"]) == (60, 4)  # 11^4 = 14641 vectors
    assert row["irreducible"] is True and row["absolutely_irreducible"] is True
    assert (row["e"], row["m"]) == (1, 0)  # 60 is prime to 11


def test_h1_on_a_module_whose_commutant_is_not_a_field_exits_2(capsys):
    # elemab(2,2) = <(1 2), (3 4)> permuting 4 points over GF(5): the trivial
    # summand occurs twice, so the commutant holds a 2 x 2 matrix ring
    swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    swap2 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    desc = {"group": {"family": "elemab", "p": 2, "k": 2}, "p": 5, "matrices": [swap, swap2]}
    code, out, err = run(capsys, "h1", json.dumps(desc))
    assert (code, out) == (2, "")
    assert err.startswith("precondition violated: ") and "not a field" in err


def test_h1_refuses_a_prime_too_large_for_int64_arithmetic(capsys):
    # C2 by the swap over GF(4294967311): (p-1)^2 wraps int64, so the rref
    # pivot scaling would turn 1 into p - 224 and the answer into garbage
    desc = {
        "group": {"family": "cyclic", "n": 2},
        "p": 4294967311,
        "matrices": [[[0, 1], [1, 0]]],
    }
    code, out, err = run(capsys, "h1", json.dumps(desc))
    assert (code, out) == (2, "")
    assert err == "input error: module characteristic 4294967311 is not below 2^16\n"
    desc.update(p=65537, matrices=[[[65536]]])
    assert run(capsys, "h1", json.dumps(desc))[0] == 2
    # a Mersenne prime: the bound is checked before any primality test,
    # whose trial division would not finish
    desc.update(p=2**61 - 1, matrices=[[[1]]])
    code, out, err = run(capsys, "h1", json.dumps(desc))
    assert (code, out) == (2, "")
    assert err == f"input error: module characteristic {2**61 - 1} is not below 2^16\n"
    # the largest prime below the bound is answered: C2 by -1 over GF(65521)
    desc.update(p=65521, matrices=[[[65520]]])
    (row,) = out_json(capsys, "h1", json.dumps(desc))
    assert row["irreducible"] is True and (row["e"], row["m"]) == (1, 0)


def test_crowns_corona(capsys):
    (row,) = out_json(capsys, "crowns", '{"family": "sym", "n": 4}')
    assert row["factor_order"] == 4
    assert row["delta"] == 1
    assert (row["r_order"], row["i_order"], row["u_order"]) == (1, 4, 4)


def test_lift_verdicts(capsys):
    desc = json.dumps(
        {
            "module": {
                "group": {"family": "sym", "n": 3},
                "p": 2,
                "matrices": [[[1, 0], [1, 1]], [[0, 1], [1, 1]]],
            },
            "u": 1,
            "hs": [[1], [2]],
            "ws": [[[1, 0]], [[0, 0]]],
        }
    )
    (row,) = out_json(capsys, "lift", desc)
    assert row["generates"] is True
    assert row["invariably_generates"] is False
    assert row["u_max_generate"] == 2
    assert row["u_max_invariable"] == 1


LIFT = {
    "module": {
        "group": {"family": "sym", "n": 3},
        "p": 2,
        "matrices": [[[1, 0], [1, 1]], [[0, 1], [1, 1]]],
    },
    "u": 1,
    "hs": [[1], [2]],
    "ws": [[[1, 0]], [[0, 0]]],
}
MALFORMED_LIFT = {
    "non_integer_u": {"u": "x"},
    "fractional_u": {"u": 1.5},  # 1 would be valid
    "word_letter_not_a_number": {"hs": [["a"], [2]]},
    "word_not_a_list": {"hs": [1]},
    "ws_entry_not_a_number": {"ws": [[["z", 0]], [[0, 0]]]},
    "fractional_ws_entry": {"ws": [[[0.5, 0]], [[0, 0]]]},
    "hs_not_a_list_without_ws": {"hs": 5, "ws": None},
    "word_not_a_list_without_ws": {"hs": [1], "ws": None},
}


@pytest.mark.parametrize("change", MALFORMED_LIFT.values(), ids=MALFORMED_LIFT)
def test_lift_rejects_malformed_descriptor(capsys, change):
    desc = {k: v for k, v in {**LIFT, **change}.items() if v is not None}
    code, out, err = run(capsys, "lift", json.dumps(desc))
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and "Traceback" not in err


def test_lift_rejects_fractional_module_prime(capsys):
    module = dict(LIFT["module"], p=2.5)  # 2 would be valid
    for desc in (dict(LIFT, module=module), {"module": module, "hs": [[1]]}):
        code, _, err = run(capsys, "lift", json.dumps(desc))
        assert code == 2 and err.startswith("input error: "), desc


@pytest.mark.parametrize("entry", [2.7, 1.5])
def test_fractional_module_matrix_entries_exit_2(capsys, entry):
    # 2 and 1 would be valid: the entries are rejected, not truncated
    c2 = {"group": {"family": "cyclic", "n": 2}, "p": 3, "matrices": [[[entry]]]}
    s3 = json.loads(json.dumps(LIFT["module"]))
    s3["matrices"][0][1][0] = entry
    for cmd, desc in (
        ("h1", c2),
        ("h1", s3),
        ("lift", dict(LIFT, module=s3)),
        ("lift", {"module": s3, "hs": [[1], [2]]}),
    ):
        code, out, err = run(capsys, cmd, json.dumps(desc))
        assert (code, out) == (2, ""), (cmd, desc)
        assert err.startswith("input error: ") and "Traceback" not in err


def test_module_prime_is_checked_before_any_matrix_is_reduced(capsys):
    # an identity generator's matrix used to be reduced mod p = 0 first:
    # numpy warned of a division by zero, then the error blamed the matrix
    desc = {
        "group": {"degree": 2, "generators": [[1, 2], [2, 1]]},
        "p": 0,
        "matrices": [[[1]], [[1]]],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "h1", json.dumps(desc))
    assert (code, out) == (2, "")
    assert err == "input error: module characteristic 0 is not prime\n"


def test_module_matrices_that_are_not_matrices_exit_2(capsys):
    c2 = {"family": "cyclic", "n": 2}
    # the identity generator [1, 2] is dropped with its entry, 1, which is
    # still read and checked first
    with_identity = {"degree": 2, "generators": [[1, 2], [2, 1]]}
    for group, p, mats in (
        (c2, 3, [5]), (c2, 3, [[1, 0]]), (c2, 3, [[[True]]]), (with_identity, 2, [1, [[1]]]),
        (c2, 3, [[[True, 0], [0, 2]]]),  # [[1, 0], [0, 2]] would be valid
    ):
        desc = {"group": group, "p": p, "matrices": mats}
        code, out, err = run(capsys, "h1", json.dumps(desc))
        assert (code, out) == (2, ""), mats
        assert err.startswith("input error: ")


def test_lift_builds_the_module_once(capsys, monkeypatch):
    import invgen.cli as cli
    import invgen.genlift as genlift

    built = []
    for owner in (cli, genlift):
        build = owner.module_from_descriptor
        monkeypatch.setattr(
            owner, "module_from_descriptor", lambda d, b=build: built.append(d) or b(d)
        )
    for desc in (LIFT, {k: v for k, v in LIFT.items() if k != "ws"}):
        built.clear()
        (row,) = out_json(capsys, "lift", json.dumps(desc))
        assert row["u_max_generate"] == 2
        assert len(built) == 1


C2_GF3 = {"group": {"family": "cyclic", "n": 2}, "p": 3, "matrices": [[[2]]]}


@pytest.mark.parametrize(
    "desc, order",
    [
        ({"crownpower": {"module": C2_GF3, "u": 7}}, 4374),  # 3^7 * 2
        ({"crownpower_general": {"group": {"family": "alt", "n": 5}, "k": 2}}, 3600),  # 60^2
    ],
    ids=["crownpower", "crownpower_general"],
)
def test_crown_powers_past_the_order_cap_exit_3(capsys, monkeypatch, desc, order):
    from invgen import Group
    from invgen.harness import survey_row

    def refuse(*args, **kwargs):
        raise AssertionError("rows were built past the order cap")

    # each constructor knows its order first, so nothing is built past the cap
    monkeypatch.setattr(Group, "_from_rows", refuse)
    message = f"order {order} exceeds cap 2000 (order)"
    code, out, err = run(capsys, "cheb", "exact", json.dumps(desc))
    assert (code, out, err) == (3, "", f"cap exceeded: {message}\n")
    (kind,) = desc
    row = survey_row(desc, 100, 1)
    assert row.as_dict() == {"name": kind, "family": kind, "error": message}


def test_descriptor_from_file(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(S3)
    (row,) = out_json(capsys, "cheb", "exact", str(path))
    assert row["c_num"] == 19


def test_csv_format(capsys):
    code, out, _ = run(capsys, "cheb", "exact", S3, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["c_num"] == "19"
    assert rows[0]["c_den"] == "5"


def test_csv_lines_end_in_newline_only(capsys, tmp_path):
    code, out, _ = run(capsys, "cheb", "exact", S3, "--format", "csv")
    assert code == 0 and out.count("\n") == 2 and "\r" not in out
    path = tmp_path / "trend.csv"
    code, _, _ = run(capsys, "agl-trend", "--q", "2,3", "--format", "csv", "--out", str(path))
    assert code == 0
    data = path.read_bytes()
    assert data.count(b"\n") == 3 and b"\r" not in data


def test_out_file(capsys, tmp_path):
    path = tmp_path / "row.jsonl"
    code, out, _ = run(capsys, "cheb", "exact", S3, "--out", str(path))
    assert code == 0
    row = json.loads(path.read_text())
    assert row["c_num"] == 19


def test_survey_over_corpus(capsys, tmp_path, mini_corpus):
    out_path = tmp_path / "survey.jsonl"
    code, _, err = run(
        capsys,
        "survey",
        mini_corpus,
        "--trials",
        "800",
        "--seed",
        "5",
        "--out",
        str(out_path),
    )
    assert code == 0
    rows = [json.loads(l) for l in out_path.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["cyclic(2)", "cyclic(3)", "sym(3)"]
    assert rows[2]["c_exact_num"] == 19


def test_survey_csv_format(capsys, tmp_path, mini_corpus):
    args = ("survey", mini_corpus, "--trials", "300", "--seed", "5")
    assert run(capsys, *args, "--out", str(tmp_path / "rows.jsonl"))[0] == 0
    want = (tmp_path / "rows.csv").read_text()
    assert want.startswith("name,family,order,r,c_exact_num,")
    csv_path = tmp_path / "table.csv"
    code, out, _ = run(capsys, *args, "--format", "csv", "--out", str(csv_path))
    assert code == 0 and out == ""
    assert csv_path.read_text() == want
    assert not (tmp_path / "table.csv.csv").exists()
    code, out, _ = run(capsys, *args, "--format", "csv")
    assert code == 0 and out == want


def test_agl_trend_cli(capsys):
    rows = out_json(capsys, "agl-trend", "--q", "2,3")
    assert [r["q"] for r in rows] == [2, 3]
    assert rows[1]["c_num"] == 19
    rows = out_json(capsys, "agl-trend")
    assert [r["q"] for r in rows] == [2, 3, 4, 5, 7, 8, 9, 11, 13]
    rows = out_json(capsys, "agl-trend", "--q", "16,32")
    assert [r["order"] for r in rows] == [240, 992]
    for q, code in (("6", 2), ("x", 2), ("", 2), ("64", 3)):
        assert run(capsys, "agl-trend", "--q", q)[0] == code, q


def test_binom_check_cli(capsys):
    rows = out_json(
        capsys, "binom-check", "--epsilons", "1/2", "--ps", "0.5", "--ls", "1,2"
    )
    assert len(rows) == 2
    assert all(r["holds"] for r in rows)


def test_verify_cli_single_suite(capsys, mini_corpus):
    code, out, err = run(
        capsys, "verify", "--suite", "invariable", "--corpus", mini_corpus
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert all(c["suite"] == "invariable" for c in report["checks"])


def test_verify_cli_rejects_unknown_selectors(capsys, mini_corpus):
    for sel in ("bogus", "genlift.bogus", "invariable,crowns.nope"):
        code, out, err = run(capsys, "verify", "--suite", sel, "--corpus", mini_corpus)
        assert code == 2, sel
        assert out == ""
        assert "input error" in err
        assert "group_core, invariable, chebotarev, modlin, genlift, crowns, harness" in err


def test_verify_cli_single_check(capsys, mini_corpus):
    sel = "invariable.conjugation_invariance"
    code, out, _ = run(capsys, "verify", "--suite", sel, "--corpus", mini_corpus)
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert (check["suite"], check["name"]) == ("invariable", "conjugation_invariance")
    # the same outcome as inside its whole suite
    _, out, _ = run(capsys, "verify", "--suite", "invariable", "--corpus", mini_corpus)
    assert check in json.loads(out)["checks"]


def test_exit_code_input_error(capsys):
    code, _, err = run(capsys, "cheb", "exact", "definitely not json")
    assert code == 2
    assert "input error" in err
    for desc in (*MALFORMED_EXPLICIT.values(), *NON_INTEGRAL_PARAMS.values()):
        code, _, err = run(capsys, "cheb", "exact", json.dumps(desc))
        assert code == 2, desc
        assert "input error" in err


def test_seed_outside_64_bits_exits_2(capsys, mini_corpus):
    # seeds are reduced mod 2**64, so -1 or 2**64 would alias another seed
    for seed in (-1, 2**64):
        for argv in (
            ("cheb", "mc", S3, "--trials", "100"),
            ("survey", mini_corpus, "--trials", "100"),
            ("verify", "--corpus", mini_corpus),
        ):
            code, _, err = run(capsys, *argv, "--seed", str(seed))
            assert code == 2, (argv, seed)
            assert "seed must lie in [0, 2**64)" in err
    (row,) = out_json(capsys, "cheb", "mc", S3, "--trials", "100", "--seed", str(2**64 - 1))
    assert row["seed"] == 2**64 - 1


def test_survey_needs_a_worker(capsys, mini_corpus):
    for threads in ("0", "-3"):
        code, _, err = run(capsys, "survey", mini_corpus, "--threads", threads)
        assert code == 2
        assert "threads must be >= 1" in err


def test_exit_code_cap_exceeded(capsys):
    code, _, err = run(capsys, "cheb", "exact", '{"family": "sym", "n": 99}')
    assert code == 3
    assert "cap exceeded" in err
    # A7, of order 2520, is past the order cap and fails to load
    code, _, err = run(capsys, "cheb", "exact", '{"family": "alt", "n": 7}')
    assert code == 3
    assert "cap exceeded" in err
    # 2^5 has 31 independent maximal covers, and its exact value anyway
    code, out, _ = run(
        capsys, "cheb", "exact", '{"family": "elemab", "p": 2, "k": 5}'
    )
    assert code == 0
    (row,) = [json.loads(line) for line in out.splitlines()]
    assert (row["c_num"], row["c_den"]) == (7134, 1085)


def test_exit_code_precondition(capsys):
    # corona of a group with nontrivial Frattini subgroup
    code, _, err = run(capsys, "crowns", '{"family": "cyclic", "n": 4}')
    assert code == 2
    assert "precondition" in err


def test_exit_code_verify_violation(capsys, tmp_path, monkeypatch, mini_corpus):
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("INVGEN_CACHE_DIR", str(cache))
    from invgen import coverage_table, load_group
    from invgen.coverage import _cache_path

    G = load_group({"family": "sym", "n": 3})
    coverage_table(G)
    path = _cache_path(G)
    data = json.loads(open(path).read())
    data["covers"][1] = [0, 2]  # wrong, but passes every structural check
    with open(path, "w") as fh:
        json.dump(data, fh)

    code, out, _ = run(
        capsys, "verify", "--suite", "invariable", "--corpus", mini_corpus
    )
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False


@pytest.mark.parametrize(
    "row",
    [
        {"crownpower": {"module": {"group": {"family": "cyclic", "n": 2}, "p": 3, "matrices": [[[2]]]}}},
        {"family": "sym", "n": "x"},
        {"crownpower": {"module": {"group": {"family": "cyclic", "n": 2}, "p": 3, "matrices": [[[2]]]}, "u": 1.5}},
        *NON_INTEGRAL_PARAMS.values(),
        *MALFORMED_EXPLICIT.values(),
        {"module": {"group": {"family": "cyclic", "n": 2}, "p": "x", "matrices": [[[2]]]}},
    ],
    ids=[
        "crownpower_without_u", "sym_non_integer_n", "crownpower_fractional_u",
        *NON_INTEGRAL_PARAMS, *MALFORMED_EXPLICIT, "module_non_integer_p",
    ],
)
def test_survey_records_malformed_row(capsys, tmp_path, row):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text(json.dumps(row) + "\n")
    out_path = tmp_path / "survey.jsonl"
    code, _, err = run(capsys, "survey", str(corpus), "--trials", "100", "--out", str(out_path))
    assert code == 0, err
    (rec,) = [json.loads(l) for l in out_path.read_text().splitlines()]
    assert rec["error"]
