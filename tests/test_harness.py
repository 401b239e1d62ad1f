"""Survey runner, AGL trend, binomial tails, and cache integrity."""

import json
import os
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

import invgen
from invgen import (
    CapExceeded,
    InputError,
    agl_trend,
    binomial_check,
    binomial_tail,
    coverage_table,
    load_group,
    read_corpus,
    realize_descriptor,
    run_survey,
    shipped_corpus_path,
    verify_props,
)

QUIET = {"echo": lambda *_: None}


def test_shipped_corpus_loads():
    path = shipped_corpus_path()
    assert os.path.exists(path)
    rows = read_corpus(path)
    assert len(rows) >= 50
    for desc in rows:
        assert "family" in desc or "module" in desc or "crownpower" in desc \
            or "crownpower_general" in desc or "generators" in desc


def test_realize_descriptor_kinds():
    G, family, act = realize_descriptor({"family": "alt", "n": 4})
    assert (G.order, family, act) == (12, "alt", None)
    G, family, act = realize_descriptor(
        {
            "name": "mod",
            "module": {
                "group": {"family": "cyclic", "n": 2},
                "p": 3,
                "matrices": [[[2]]],
            },
        }
    )
    assert family == "module"
    assert G.order == 6  # 3 : 2 split extension
    assert act is not None and act.p == 3


def test_survey_exact_values(mini_corpus, tmp_path):
    out = tmp_path / "rows.jsonl"
    rows = run_survey(mini_corpus, trials=2000, seed=7, out_path=str(out), **QUIET)
    assert [r.name for r in rows] == ["cyclic(2)", "cyclic(3)", "sym(3)"]
    assert [r.c_exact for r in rows] == [
        Fraction(2),
        Fraction(3, 2),
        Fraction(19, 5),
    ]
    for r in rows:
        assert r.error is None
        assert abs(r.c_mc - float(r.c_exact)) < 4 * max(r.mc_stderr, 1e-9)
        assert r.ratio_sqrt == pytest.approx(float(r.c_exact) / r.order**0.5)
    # JSONL plus a CSV sibling appear on disk
    assert out.exists()
    assert (tmp_path / "rows.csv").exists()
    assert len(out.read_text().splitlines()) == 3


def test_survey_bytes_identical_across_threads(mini_corpus, tmp_path):
    outs = []
    for threads in (1, 2, 4):
        path = tmp_path / f"t{threads}.jsonl"
        run_survey(
            mini_corpus, trials=1500, seed=11, out_path=str(path),
            threads=threads, **QUIET,
        )
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_survey_pool_never_outnumbers_rows(mini_corpus, monkeypatch):
    import concurrent.futures

    asked = []

    class SpyPool:
        """Records max_workers and maps in this process: no fork."""

        def __init__(self, max_workers=None, **kwargs):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    serial = run_survey(mini_corpus, trials=300, seed=3, **QUIET)
    assert asked == []
    for threads in (2, 3, 4, 5000):
        rows = run_survey(mini_corpus, trials=300, seed=3, threads=threads, **QUIET)
        assert rows == serial
    assert asked == [2, 3, 3, 3]  # the mini corpus has three rows


def test_forked_survey_workers_run_threaded_kernels(mini_corpus, tmp_path):
    # each pool worker's Monte Carlo calls start and join their own
    # threads, and the parent ran one such call before forking: a lock
    # held across the fork would hang the pool until the timeout
    from invgen.cheb import MC_MIN_PART_TRIALS

    trials = 2 * MC_MIN_PART_TRIALS + 7
    serial = tmp_path / "t1.jsonl"
    run_survey(mini_corpus, trials=trials, seed=5, out_path=str(serial), **QUIET)
    pooled = tmp_path / "t2.jsonl"
    script = (
        "import sys\n"
        "from invgen import chebotarev_montecarlo, load_group, run_survey\n"
        "corpus, trials, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]\n"
        "chebotarev_montecarlo(load_group({'family': 'sym', 'n': 3}), trials, seed=1)\n"
        "run_survey(corpus, trials=trials, seed=5, out_path=out, threads=2,"
        " echo=lambda *_: None)\n"
    )
    src = os.path.dirname(os.path.dirname(invgen.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    subprocess.run(
        [sys.executable, "-c", script, mini_corpus, str(trials), str(pooled)],
        env=env, check=True, timeout=120,
    )
    assert pooled.read_bytes() == serial.read_bytes()


def test_survey_seed_changes_mc_only(mini_corpus):
    a = run_survey(mini_corpus, trials=1000, seed=1, **QUIET)
    b = run_survey(mini_corpus, trials=1000, seed=2, **QUIET)
    for ra, rb in zip(a, b):
        assert ra.c_exact == rb.c_exact
        assert ra.c_mc != rb.c_mc


def test_survey_error_rows_do_not_abort(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text(
        json.dumps({"family": "cyclic", "n": 3}) + "\n"
        + json.dumps({"family": "nope", "n": 3}) + "\n"
        + json.dumps({"family": "sym", "n": 3}) + "\n"
    )
    rows = run_survey(str(path), trials=500, seed=3, **QUIET)
    assert len(rows) == 3
    assert rows[0].error is None and rows[2].error is None
    assert rows[1].error is not None
    assert rows[1].c_exact is None


C2_GF3 = {"group": {"family": "cyclic", "n": 2}, "p": 3, "matrices": [[[2]]]}


@pytest.mark.parametrize(
    "good, bad, family",
    [
        ({"module": C2_GF3}, {"module": {**C2_GF3, "matrices": [[[2.5]]]}}, "module"),
        (
            {"crownpower": {"module": C2_GF3, "u": 1}},
            {"crownpower": {"module": C2_GF3, "u": 7}},  # order 4374
            "crownpower",
        ),
        (
            {"crownpower_general": {"group": {"family": "sym", "n": 3}, "k": 2}},
            {"crownpower_general": {"group": {"family": "alt", "n": 5}, "k": 2}},  # order 3600
            "crownpower_general",
        ),
        ({"generators": [[2, 1]], "degree": 2}, {"generators": [[2, 1]], "degree": 99}, "explicit"),
        ({"family": "sym", "n": 3}, {"family": "sym", "n": 99}, "sym"),
    ],
    ids=["module", "crownpower", "crownpower_general", "explicit", "family"],
)
def test_survey_rows_keep_their_family_tag_on_error(good, bad, family):
    from invgen.harness import survey_row

    ok, failed = survey_row(good, 200, 1), survey_row(bad, 200, 1)
    assert ok.error is None and failed.error is not None, failed.error
    assert (ok.family, failed.family) == (family, family)


def test_survey_names_a_failed_elemab_row_as_load_group_would(tmp_path):
    # elemab(2,11) has order 2048, over the order cap
    path = tmp_path / "elemab.jsonl"
    rows = [{"family": "elemab", "p": 2, "k": 3}, {"family": "elemab", "p": 2, "k": 11}]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    ok, failed = run_survey(str(path), trials=100, seed=1, **QUIET)
    assert ok.error is None and "exceeds" in failed.error, failed.error
    assert (ok.name, failed.name) == ("elemab(2,3)", "elemab(2,11)")
    assert ok.name == load_group(rows[0]).name


@pytest.mark.parametrize(
    "given, error",
    [
        ({"trials": True}, "trials must be an integer, got True"),
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"trials": 0}, "trials must be >= 1, got 0"),
        ({"threads": True}, "threads must be an integer, got True"),
        ({"threads": 2.0}, "threads must be an integer, got 2.0"),
        ({"threads": 0}, "threads must be >= 1, got 0"),
        ({"seed": False}, "seed must be an integer, got False"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": -1}, "seed must lie in [0, 2**64), got -1"),
    ],
    ids=[
        "trials-bool", "trials-fraction", "trials-0", "threads-bool", "threads-float",
        "threads-0", "seed-bool", "seed-fraction", "seed-negative",
    ],
)
def test_survey_refuses_bad_counts_up_front(mini_corpus, tmp_path, given, error):
    # refused before any row runs: no TypeError escapes the survey and no
    # output file is written
    out = tmp_path / "rows.jsonl"
    with pytest.raises(InputError) as info:
        run_survey(mini_corpus, **{"trials": 10, **given}, out_path=str(out), **QUIET)
    assert str(info.value) == error
    assert not out.exists()


def test_survey_empty_corpus(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert run_survey(str(path), trials=100, seed=1, **QUIET) == []


def test_agl_trend_small_values():
    rows = agl_trend([2, 3])
    assert rows[0]["order"] == 2
    assert (rows[0]["c_num"], rows[0]["c_den"]) == (2, 1)
    assert rows[0]["c_over_q"] == pytest.approx(1.0)
    # AGL(1, 3) is S3
    assert (rows[1]["c_num"], rows[1]["c_den"]) == (19, 5)
    with pytest.raises(InputError):
        agl_trend([6])


def test_agl_trend_takes_any_prime_power_under_the_caps():
    rows = agl_trend([16, 32])
    assert [(r["q"], r["order"]) for r in rows] == [(16, 240), (32, 992)]
    assert (rows[0]["c_num"], rows[0]["c_den"]) == (37290553, 2308740)
    assert (rows[1]["c_num"], rows[1]["c_den"]) == (952321, 29730)
    with pytest.raises(CapExceeded):
        agl_trend([64])  # order 4 032, past the order cap


def test_binomial_tail_exact():
    assert binomial_tail(2, Fraction(1, 2), 1) == Fraction(3, 4)
    assert binomial_tail(3, Fraction(1, 2), 3) == Fraction(1, 8)
    assert binomial_tail(4, Fraction(1, 3), 0) == 1


def test_binomial_check_rows():
    rows = binomial_check(
        [Fraction(1, 2), Fraction(6, 7)], [Fraction(1, 20)], [1, 4]
    )
    assert len(rows) == 4
    for row in rows:
        assert row.holds
        assert row.tail >= row.epsilon
        assert row.mm >= row.l
        d = row.as_dict()
        assert {"epsilon_num", "p_num", "l", "gamma", "mm", "holds"} <= set(d)
    # the 6/7 target needs a larger draw multiplier than 1/2
    g_half = rows[0].gamma
    g_strict = rows[2].gamma
    assert g_strict > g_half


def test_corrupted_coverage_cache_is_caught(tmp_path, monkeypatch, mini_corpus):
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("INVGEN_CACHE_DIR", str(cache))

    from invgen.coverage import _cache_path

    G = load_group({"family": "sym", "n": 3})
    coverage_table(G)  # primes the on-disk entry
    path = _cache_path(G)
    data = json.loads(open(path).read())
    # claim the A3 column covers the transposition class, not the
    # 3-cycles: a wrong cover that no structural check can detect
    data["covers"][1] = [0, 2]
    with open(path, "w") as fh:
        json.dump(data, fh)

    report = verify_props(
        corpus_path=mini_corpus,
        only=(("invariable", "fixed_point_free_identity"),),
    )
    assert not report.passed
    (outcome,) = report.outcomes
    assert outcome.violations


def test_fpf_identity_compares_maximal_classes_with_the_lattice(tmp_path, monkeypatch, mini_corpus):
    # the cache check reads class data and cover ranges, not counts, so a
    # wrong conjugate count is served and only the lattice side sees it
    monkeypatch.setenv("INVGEN_CACHE_DIR", str(tmp_path))
    from invgen.coverage import _cache_path

    G = load_group({"family": "sym", "n": 3})
    coverage_table(G)
    path = _cache_path(G)
    data = json.loads(open(path).read())
    assert data["maximal_counts"] == [3, 1]
    data["maximal_counts"] = [1, 1]
    with open(path, "w") as fh:
        json.dump(data, fh)

    report = verify_props(
        corpus_path=mini_corpus,
        only=(("invariable", "fixed_point_free_identity"),),
    )
    (outcome,) = report.outcomes
    assert outcome.violations == [
        "sym(3): maximal classes differ between the table and the lattice"
    ]


def test_foreign_coverage_cache_entry_is_recomputed(tmp_path, monkeypatch):
    # C6 and S3 share an order, so an order check alone serves C6's
    # table for S3 and gives C(S3) = 23/10
    import shutil

    from invgen import chebotarev_exact
    from invgen.coverage import _cache_path, _compute_table

    monkeypatch.setenv("INVGEN_CACHE_DIR", str(tmp_path))
    c6 = load_group({"family": "cyclic", "n": 6})
    coverage_table(c6)
    s3 = load_group({"family": "sym", "n": 3})
    shutil.copyfile(_cache_path(c6), _cache_path(s3))
    assert chebotarev_exact(s3).value == Fraction(19, 5)
    expected = _compute_table(load_group({"family": "sym", "n": 3}))
    assert json.loads(open(_cache_path(s3)).read()) == expected.to_json()  # rewritten

    # right class data, but a cover naming a class S3 does not have
    data = expected.to_json()
    data["covers"][0] = [0, 3]
    with open(_cache_path(s3), "w") as fh:
        json.dump(data, fh)
    s3 = load_group({"family": "sym", "n": 3})
    assert coverage_table(s3) == expected

    # valid JSON that is not a table at all
    with open(_cache_path(s3), "w") as fh:
        json.dump([], fh)
    s3 = load_group({"family": "sym", "n": 3})
    assert coverage_table(s3) == expected

    # covers that are not strictly ascending lists of class indices: a
    # repeated index would carry into another bit, true would read as 1
    assert expected.to_json()["covers"] == [[0, 2], [0, 1]]
    for bad in ([0, 0, 2], [2, 0], [0, True], [-1, 2], [0, 2.0], [0, 10**30, 2]):
        data = expected.to_json()
        data["covers"][0] = bad
        with open(_cache_path(s3), "w") as fh:
            json.dump(data, fh)
        s3 = load_group({"family": "sym", "n": 3})
        assert coverage_table(s3) == expected, bad
        assert json.loads(open(_cache_path(s3)).read()) == expected.to_json(), bad


def _serve_s3_entry_with_cover(tmp_path, monkeypatch, m, cover):
    """A fresh S3 after its cache entry's m-th cover is replaced."""
    from invgen.coverage import _cache_path

    monkeypatch.setenv("INVGEN_CACHE_DIR", str(tmp_path))
    s3 = load_group({"family": "sym", "n": 3})
    expected = coverage_table(s3)
    data = expected.to_json()
    assert data["covers"] == [[0, 2], [0, 1]]
    data["covers"][m] = cover
    with open(_cache_path(s3), "w") as fh:
        json.dump(data, fh)
    return load_group({"family": "sym", "n": 3}), expected


def test_coverage_cache_cover_of_every_class_is_recomputed(tmp_path, monkeypatch):
    # no proper subgroup meets every class (Jordan); served, this cover
    # gives C(S3) = 0 and min_k = 0 with no error
    from invgen import chebotarev_exact, min_k_for_probability
    from invgen.coverage import _cache_path, _cover_masks

    with pytest.raises(ValueError, match="a cover lists every class"):
        _cover_masks([[0, 2], [0, 1, 2]], 3)
    s3, expected = _serve_s3_entry_with_cover(tmp_path, monkeypatch, 1, [0, 1, 2])
    assert chebotarev_exact(s3).value == Fraction(19, 5)
    assert min_k_for_probability(s3, Fraction(2, 9)) == 2
    assert coverage_table(s3) == expected
    assert json.loads(open(_cache_path(s3)).read()) == expected.to_json()  # rewritten


def test_coverage_cache_cover_without_the_identity_is_recomputed(tmp_path, monkeypatch):
    # every subgroup meets the identity class 0
    from invgen.coverage import _cache_path, _cover_masks

    with pytest.raises(ValueError, match="a cover lacks the identity class"):
        _cover_masks([[2], [0, 1]], 3)
    s3, expected = _serve_s3_entry_with_cover(tmp_path, monkeypatch, 0, [2])
    assert coverage_table(s3) == expected
    assert json.loads(open(_cache_path(s3)).read()) == expected.to_json()  # rewritten


def test_unversioned_coverage_cache_entry_is_not_served(tmp_path, monkeypatch):
    # an entry under the key without the format version, with a cover
    # that passes the metadata checks but is wrong
    import hashlib

    from invgen.coverage import _cache_path

    monkeypatch.setenv("INVGEN_CACHE_DIR", str(tmp_path))
    s3 = load_group({"family": "sym", "n": 3})
    expected = coverage_table(s3)
    data = expected.to_json()
    data["covers"][1] = [0, 2]
    digest = hashlib.sha256(s3.canonical_key().encode()).hexdigest()
    unversioned = tmp_path / f"{digest}.json"
    assert str(unversioned) != _cache_path(s3)
    unversioned.write_text(json.dumps(data))
    os.remove(_cache_path(s3))
    assert coverage_table(load_group({"family": "sym", "n": 3})) == expected
    assert json.loads(open(_cache_path(s3)).read()) == expected.to_json()


CACHE_RACE_ROUNDS = 150


def _write_cyclic2_each_round(root, barrier):
    """Compute cyclic(2) into root/<round>, in step with the other writer."""
    G = load_group({"family": "cyclic", "n": 2})
    for k in range(CACHE_RACE_ROUNDS):
        os.environ["INVGEN_CACHE_DIR"] = os.path.join(root, str(k))
        barrier.wait(timeout=30)
        G._coverage = None
        coverage_table(G)


def test_concurrent_cache_writers_of_one_key(tmp_path):
    import multiprocessing

    from invgen.coverage import ClassCoverageTable, _compute_table

    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    procs = [
        ctx.Process(target=_write_cyclic2_each_round, args=(str(tmp_path), barrier))
        for _ in range(2)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=240)
    stuck = [proc for proc in procs if proc.is_alive()]
    for proc in stuck:
        proc.terminate()
    assert not stuck
    assert [proc.exitcode for proc in procs] == [0, 0]
    expected = _compute_table(load_group({"family": "cyclic", "n": 2}))
    for k in range(CACHE_RACE_ROUNDS):
        (entry,) = os.listdir(tmp_path / str(k))  # no temp file left behind
        data = json.loads((tmp_path / str(k) / entry).read_text())
        assert ClassCoverageTable.from_json(data) == expected


def test_verify_props_passes_on_clean_mini_corpus(mini_corpus):
    report = verify_props(
        corpus_path=mini_corpus,
        only=(
            ("invariable", "fixed_point_free_identity"),
            ("chebotarev", "waiting_time_identity"),
        ),
    )
    assert report.passed
    assert len(report.outcomes) == 2
    text = report.to_json()
    parsed = json.loads(text)
    assert parsed["passed"] is True
    assert {c["name"] for c in parsed["checks"]} == {
        "fixed_point_free_identity",
        "waiting_time_identity",
    }


def test_internal_defect_in_one_row_is_recorded(monkeypatch, mini_corpus):
    import invgen.harness as harness

    clean = run_survey(mini_corpus, trials=500, seed=3, **QUIET)
    real = harness.coverage_table

    def broken_on_s3(G, *args, **kwargs):
        if G.name == "sym(3)":
            raise RuntimeError("injected defect")
        return real(G, *args, **kwargs)

    monkeypatch.setattr(harness, "coverage_table", broken_on_s3)
    rows = run_survey(mini_corpus, trials=500, seed=3, **QUIET)
    assert [r.error for r in rows] == [None, None, "RuntimeError: injected defect"]
    assert [r.as_dict() for r in rows[:2]] == [r.as_dict() for r in clean[:2]]
    # the battery's survey check still counts the defect as a violation
    report = verify_props(corpus_path=mini_corpus, only=(("harness", "survey_bounds"),))
    (outcome,) = report.outcomes
    assert outcome.violations == ["sym(3): corpus row errored: RuntimeError: injected defect"]


# ---------------------------------------------------------------------------
# the serial survey draws every row's Monte Carlo trials in one kernel call


TWIN_CORPUS = [
    {"family": "cyclic", "n": 2},
    {"module": C2_GF3},  # a row with diagnostics
    {"family": "sym", "n": 3},
]


def _write_corpus(tmp_path, rows) -> str:
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return str(path)


def _fail_kernel(monkeypatch, exc, seed=None, order=None):
    """Make every kernel part of the calls with this seed (or group
    order) raise exc."""
    from invgen import cheb

    real = cheb._mc_part

    def part(words, n, part_seed, limit, budget, first, out):
        if part_seed == seed or n == order:
            raise exc
        real(words, n, part_seed, limit, budget, first, out)

    monkeypatch.setattr(cheb, "_mc_part", part)


def _row_seed(seed: int, i: int) -> int:
    from invgen.rng import stream_state

    return int(stream_state(seed, i))


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_survey_rows_equal_rows_surveyed_one_at_a_time(tmp_path, monkeypatch, cpus):
    # the serial survey's batched kernel call against survey_row's own
    # call per row and a lone chebotarev_montecarlo call, with every row
    # split into parts and the interpreter switching threads every
    # microsecond
    from invgen import cheb
    from invgen.harness import survey_row

    corpus = _write_corpus(tmp_path, TWIN_CORPUS)
    trials = 2 * cheb.MC_MIN_PART_TRIALS + 7
    monkeypatch.setattr(cheb, "_usable_cpus", lambda: cpus)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rows = run_survey(corpus, trials=trials, seed=5, **QUIET)
        single = [survey_row(desc, trials, _row_seed(5, i)) for i, desc in enumerate(TWIN_CORPUS)]
        lone = cheb.chebotarev_montecarlo(load_group(TWIN_CORPUS[2]), trials, _row_seed(5, 2))
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert [r.error for r in rows] == [None, None, None]
    assert rows[1].diag_m is not None
    assert rows == single
    assert (rows[2].c_mc, rows[2].mc_stderr) == (lone.mean, lone.stderr)


def test_a_one_row_survey_splits_its_kernel_across_threads(tmp_path, monkeypatch):
    from invgen import cheb

    corpus = _write_corpus(tmp_path, [{"family": "sym", "n": 3}])
    ran = []
    real = cheb._mc_part

    def spy(words, n, seed, limit, budget, first, out):
        ran.append(threading.current_thread())
        real(words, n, seed, limit, budget, first, out)

    monkeypatch.setattr(cheb, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cheb, "_mc_part", spy)
    run_survey(corpus, trials=2 * cheb.MC_MIN_PART_TRIALS + 7, seed=1, **QUIET)
    assert len(ran) == 2 and ran[0] is not ran[1]


@pytest.mark.parametrize(
    "exc, error",
    [
        (CapExceeded("a trial exceeded 1000000 draws (draws)"), "a trial exceeded 1000000 draws (draws)"),
        (RuntimeError("kernel defect"), "RuntimeError: kernel defect"),
    ],
    ids=["cap", "defect"],
)
def test_a_kernel_error_stays_in_its_row(tmp_path, monkeypatch, capfd, exc, error):
    from invgen import cheb

    corpus = _write_corpus(tmp_path, TWIN_CORPUS)
    trials = 2 * cheb.MC_MIN_PART_TRIALS + 7
    monkeypatch.setattr(cheb, "_usable_cpus", lambda: 2)
    clean = run_survey(corpus, trials=trials, seed=3, **QUIET)
    capfd.readouterr()
    threads = threading.active_count()
    _fail_kernel(monkeypatch, exc, seed=_row_seed(3, 1))
    rows = run_survey(corpus, trials=trials, seed=3, **QUIET)
    assert threading.active_count() == threads  # no thread outlives the survey
    assert [r.error for r in rows] == [None, error, None]
    assert rows[1].as_dict() == {"name": "module", "family": "module", "error": error}
    assert [rows[0], rows[2]] == [clean[0], clean[2]]
    stderr = capfd.readouterr().err
    assert ("Traceback" in stderr) == isinstance(exc, RuntimeError)


def test_a_kernel_error_outranks_a_diagnostics_error(tmp_path, monkeypatch):
    # a row's order: the Monte Carlo estimate comes before the
    # diagnostics, so its error is the one the row reports
    import invgen.harness as harness

    corpus = _write_corpus(tmp_path, TWIN_CORPUS)

    def broken(act):
        raise RuntimeError("diagnostics defect")

    monkeypatch.setattr(harness, "_module_diagnostics", broken)
    rows = run_survey(corpus, trials=300, seed=3, **QUIET)
    assert [r.error for r in rows] == [None, "RuntimeError: diagnostics defect", None]
    _fail_kernel(monkeypatch, CapExceeded("kernel capped"), seed=_row_seed(3, 1))
    rows = run_survey(corpus, trials=300, seed=3, **QUIET)
    assert [r.error for r in rows] == [None, "kernel capped", None]
    assert harness.survey_row(TWIN_CORPUS[1], 300, _row_seed(3, 1)).error == "kernel capped"


def test_the_draw_cap_reads_the_same_through_every_entry(tmp_path, monkeypatch):
    # a survey, a lone row and a lone chebotarev_montecarlo call all report
    # their draws through _mc_report, so the one draw-cap check guards them
    from invgen import cheb
    from invgen.harness import survey_row

    corpus = _write_corpus(tmp_path, TWIN_CORPUS)
    monkeypatch.setattr(cheb, "MAX_DRAWS_PER_TRIAL", 3)  # the kernel still draws to 10^6
    rows = run_survey(corpus, trials=300, seed=3, **QUIET)
    assert rows[2].error == "a trial exceeded 3 draws (draws)"
    assert rows == [survey_row(desc, 300, _row_seed(3, i)) for i, desc in enumerate(TWIN_CORPUS)]
    with pytest.raises(CapExceeded, match=r"^a trial exceeded 3 draws \(draws\)$"):
        cheb.chebotarev_montecarlo(load_group(TWIN_CORPUS[2]), 300, _row_seed(3, 2))


def test_survey_check_counts_a_kernel_error_as_a_violation(monkeypatch, mini_corpus):
    _fail_kernel(monkeypatch, RuntimeError("kernel defect"), order=6)
    report = verify_props(corpus_path=mini_corpus, only=(("harness", "survey_bounds"),))
    (outcome,) = report.outcomes
    assert outcome.violations == ["sym(3): corpus row errored: RuntimeError: kernel defect"]


def test_survey_determinism_check_catches_a_batch_dependent_row(monkeypatch, mini_corpus):
    # the battery compares a survey with its rows surveyed one at a time,
    # so an estimate that depends on the batch its row ran in is caught
    import dataclasses

    import invgen.harness as harness

    real = harness._mc_run

    def batch_dependent(jobs, finish):
        return [dataclasses.replace(r, mean=r.mean + (len(jobs) > 1)) for r in real(jobs, finish)]

    monkeypatch.setattr(harness, "_mc_run", batch_dependent)
    report = verify_props(corpus_path=mini_corpus, only=(("harness", "survey_determinism"),))
    (outcome,) = report.outcomes
    assert outcome.violations == ["a survey and its rows surveyed one at a time differ at the byte level"]
