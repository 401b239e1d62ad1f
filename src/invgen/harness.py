"""Survey experiments over a corpus of groups, plus numeric side checks.

The survey runs one row per corpus line: the exact Chebotarev
invariant and a Monte Carlo estimate of it, the bound ratios
C/sqrt(|G|) and C/sqrt(|G| log |G|), and the least k with
P_I(G, k) >= 2/9.  Lines describing modules or crown powers get first
cohomology diagnostics attached.  Per-row failures (caps, bad input)
are recorded in the row and never kill the run; so is any other
exception, as "<Type>: <message>" with its traceback on stderr, and
the property battery's survey check counts every errored row as a
violation.

Every row is computed by _survey_rows, in two phases: each row's exact
work in task order, keeping of its Monte Carlo step only the kernel's
job, then every row's job in one call of the Monte Carlo driver (see
invgen.cheb), which runs the kernels side by side.  A serial survey
hands it every row at once; with threads > 1 a pool of `threads`
worker processes (never more than there are rows) runs it one row per
task, each row's kernel splitting its own trials across the usable
CPUs.  Rows are written in corpus order either way.  Every row's Monte
Carlo seed derives from (base seed, line index), so output bytes depend
only on (corpus, trials, seed).
"""

from __future__ import annotations

import csv
import json
import math
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from importlib.resources import files as _pkg_files

from . import cheb, crowns
from .cheb import _mc_job, _mc_report, _mc_run, chebotarev_exact, min_k_for_probability
from .coverage import coverage_table
from .errors import InputError, InvgenError
from .group import Group, _family_name, _int_param, load_group
from .modlin import ModuleAction, module_from_descriptor
from .rng import check_int, check_seed, stream_state

INVK_THRESHOLD = Fraction(2, 9)
# perfbench/tracer.py wraps this name for its cheb.mc span; no survey row
# calls it, as every row draws through _survey_rows
chebotarev_montecarlo = cheb.chebotarev_montecarlo

SURVEY_CSV_COLUMNS = (
    "name", "family", "order", "r",
    "c_exact_num", "c_exact_den", "c_mc", "mc_stderr",
    "trials", "seed", "ratio_sqrt", "sqrt_order", "klz_ratio", "min_k_29",
    "diag_m", "diag_fix_count", "diag_m_sq", "error",
)


@dataclass
class SurveyRow:
    name: str
    family: str
    order: int | None = None
    r: int | None = None
    c_exact: Fraction | None = None
    c_mc: float | None = None
    mc_stderr: float | None = None
    trials: int | None = None
    seed: int | None = None
    ratio_sqrt: float | None = None
    sqrt_order: float | None = None
    klz_ratio: float | None = None
    min_k_29: int | None = None
    diag_m: int | None = None
    diag_fix_count: int | None = None
    diag_m_sq: int | None = None
    error: str | None = None

    def as_dict(self) -> dict:
        out: dict = {"name": self.name, "family": self.family}
        if self.order is not None:
            out["order"] = self.order
        if self.r is not None:
            out["r"] = self.r
        if self.c_exact is not None:
            out["c_exact_num"] = self.c_exact.numerator
            out["c_exact_den"] = self.c_exact.denominator
        for key in ("c_mc", "mc_stderr", "trials", "seed", "ratio_sqrt",
                    "sqrt_order", "klz_ratio", "min_k_29",
                    "diag_m", "diag_fix_count", "diag_m_sq", "error"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out

    def json_line(self) -> str:
        return json.dumps(self.as_dict())

    def csv_record(self) -> list:
        d = self.as_dict()
        d.setdefault("c_exact_num", None)
        d.setdefault("c_exact_den", None)
        return ["" if d.get(col) is None else d.get(col) for col in SURVEY_CSV_COLUMNS]


def shipped_corpus_path() -> str:
    return str(_pkg_files("invgen").joinpath("data/corpus.jsonl"))


def read_corpus(path: str) -> list[dict]:
    """Parse a JSONL corpus; blank lines and #-comments are skipped."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                desc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}:{lineno}: bad JSON ({exc})") from exc
            if not isinstance(desc, dict):
                raise InputError(f"{path}:{lineno}: descriptor must be an object")
            out.append(desc)
    return out


def realize_descriptor(desc: dict) -> tuple[Group, str, ModuleAction | None]:
    """(group, family tag, attached module if any) for one corpus line.

    The only reader of crown-power descriptors: {"crownpower": {"module",
    "u"}} and {"crownpower_general": {"group", "k", "socle": "auto"}}.
    Both constructors are called through the crowns module, so a wrapper
    set on it sees every crown power built here.
    """
    family = _family_tag(desc)
    if family in ("module", "crownpower"):
        # a module row is the crown power V^1 x| H; either way the module
        # is built once, so the attached module's group is the H inside G
        if family == "module":
            module, u = desc["module"], 1
        else:
            module, u = _crown_fields(desc["crownpower"], "module", "u")
        act = module_from_descriptor(module)
        G = crowns.abelian_crown_power_with_embedding(act, u)[0]
    elif family == "crownpower_general":
        act = None
        inner = desc["crownpower_general"]
        group, k = _crown_fields(inner, "group", "k")
        L = load_group(group)
        if inner.get("socle", "auto") != "auto":
            raise InputError("only socle='auto' is supported")
        G = crowns.build_crown_power_general(L, k)
    else:
        return load_group(desc), family, None
    if "name" in desc:
        G.name = desc["name"]
    return G, family, act


def _family_tag(desc: dict) -> str:
    """A line's family tag, for its row with or without an error."""
    for key in ("module", "crownpower", "crownpower_general"):
        if key in desc:
            return key
    return desc.get("family", "explicit")


def _crown_fields(inner, spec: str, count: str):
    """(inner[spec], inner[count] as an int), or InputError naming what is wrong."""
    try:
        return inner[spec], _int_param(inner, count)
    except (KeyError, TypeError) as exc:
        raise InputError(
            f"crown power descriptor needs {spec!r} and an integer {count!r}: {exc!r}"
        ) from None


def _module_diagnostics(act: ModuleAction) -> tuple[int, int, int]:
    """(m, #elements of H with nonzero fixed space, m^2)."""
    m = act.h1_dim()
    fix_count = 0
    for h in range(act.group.order):
        if act.fixed_space([h]).shape[0]:
            fix_count += 1
    return m, fix_count, m * m


def _descriptor_label(desc: dict) -> str:
    if "name" in desc:
        return str(desc["name"])
    if "family" in desc:
        return _family_name(desc)
    tag = _family_tag(desc)
    return "?" if tag == "explicit" else tag


@dataclass(frozen=True)
class _Failed:
    """A row step that raised: the row's error field and, for an internal
    defect, the traceback to print if this is the error the row reports."""

    error: str
    trace: str | None = None


def _failed(exc: Exception) -> _Failed:
    if isinstance(exc, InvgenError):
        return _Failed(str(exc))
    # an internal defect: record it, keep surveying
    return _Failed(f"{type(exc).__name__}: {exc}", "".join(traceback.format_exception(exc)))


def _row_head(desc: dict, trials: int, row_seed: int) -> list:
    """A row's steps up to its diagnostics, in the order they run.

    Returns [row, job, diag]: row holds every field but c_mc and
    mc_stderr, job is the row's Monte Carlo kernel job and diag the
    module diagnostics, a _Failed if they raised, or None for a row
    without a module.  A failure up to the job ends the row there, as
    [failure].  The group itself is not kept.
    """
    try:
        G, family, act = realize_descriptor(desc)
        row = SurveyRow(name=G.name, family=family, order=G.order)
        row.r = len(coverage_table(G).maximal_orders)
        row.trials = trials
        row.seed = row_seed
        row.c_exact = chebotarev_exact(G).value
        row.min_k_29 = min_k_for_probability(G, INVK_THRESHOLD)
        c = float(row.c_exact)
        row.sqrt_order = math.sqrt(G.order)
        row.ratio_sqrt = c / row.sqrt_order
        if G.order > 1:
            row.klz_ratio = c / math.sqrt(G.order * math.log(G.order))
        job = _mc_job(G, trials, row_seed)
    except Exception as exc:
        return [_failed(exc)]
    try:
        diag = None if act is None else _module_diagnostics(act)
    except Exception as exc:
        diag = _failed(exc)
    return [row, job, diag]


def _row_tail(desc: dict, steps: list) -> SurveyRow:
    """The row of _row_head's steps, mc now a MonteCarloReport, or an
    error row for the first step that failed."""
    for step in steps:
        if isinstance(step, _Failed):
            if step.trace is not None:
                sys.stderr.write(step.trace)
            return SurveyRow(name=_descriptor_label(desc), family=_family_tag(desc), error=step.error)
    row, mc, diag = steps
    row.c_mc = mc.mean
    row.mc_stderr = mc.stderr
    if diag is not None:
        row.diag_m, row.diag_fix_count, row.diag_m_sq = diag
    return row


def survey_row(desc: dict, trials: int, row_seed: int) -> SurveyRow:
    """One corpus row, its Monte Carlo trials split across the usable CPUs."""
    return _survey_rows([(desc, trials, row_seed)])[0]


def _survey_rows(tasks: list[tuple]) -> list[SurveyRow]:
    """The row of each (desc, trials, row seed) task, in two phases: the
    rows' exact work in task order, keeping of each row's Monte Carlo
    step only its kernel job, then every row's job in one _mc_run call,
    which runs the kernels side by side."""
    heads = [_row_head(*task) for task in tasks]
    drawn = [h for h in heads if len(h) > 1]
    for h, report in zip(drawn, _mc_run([h[1] for h in drawn], _mc_report)):
        h[1] = _failed(report) if isinstance(report, Exception) else report
    return [_row_tail(task[0], h) for task, h in zip(tasks, heads)]


def run_survey(
    corpus_path: str,
    trials: int = 100_000,
    seed: int = 20_260_814,
    out_path: str | None = None,
    threads: int = 1,
    echo=print,
) -> list[SurveyRow]:
    """One SurveyRow per corpus line, in corpus order.

    Writes JSONL to out_path and a CSV sibling (same stem) when
    out_path is given.  threads counts worker processes, capped at the
    number of rows.  Row i's Monte Carlo stream is seeded from (seed, i),
    so any thread count produces identical output.
    """
    trials, threads = check_int(trials, "trials"), check_int(threads, "threads")
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    seed = check_seed(seed)
    corpus = read_corpus(corpus_path)
    tasks = [
        (desc, trials, int(stream_state(seed, i)))
        for i, desc in enumerate(corpus)
    ]
    if threads > 1 and len(tasks) > 1:
        # imported here: the process pool pulls in multiprocessing and logging
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its workers up front and takes one row per task
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            rows = [row for (row,) in pool.map(_survey_rows, [[task] for task in tasks])]
    else:
        rows = _survey_rows(tasks)

    if out_path is not None:
        write_rows_jsonl(rows, out_path)
        stem = out_path[:-6] if out_path.endswith(".jsonl") else out_path
        with open(stem + ".csv", "w", encoding="utf-8", newline="") as fh:
            write_rows_csv(rows, fh)

    clean = [r for r in rows if r.error is None]
    if clean:
        top = max(clean, key=lambda r: r.ratio_sqrt)
        echo(
            f"observed max C(G)/sqrt(|G|) = {top.ratio_sqrt:.6f} ({top.name})"
        )
    for r in rows:
        if r.error is not None:
            echo(f"row {r.name}: error: {r.error}")
    return rows


def write_rows_jsonl(rows: list[SurveyRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(row.json_line())
            fh.write("\n")


def write_rows_csv(rows: list[SurveyRow], fh) -> None:
    """The SURVEY_CSV_COLUMNS table of rows, to an open text stream."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(SURVEY_CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.csv_record())


# ---------------------------------------------------------------------------
# AGL(1, q) trend


def agl_trend(qs) -> list[dict]:
    """Exact C(AGL(1, q)) and the ratio C/q for each listed prime power.

    A q that is not a prime power raises InputError; one whose group is
    past a cap raises CapExceeded.
    """
    rows = []
    for q in qs:
        q = check_int(q, "q")
        G = load_group({"family": "agl1", "q": q})
        value = chebotarev_exact(G).value
        rows.append(
            {
                "q": q,
                "order": G.order,
                "c_num": value.numerator,
                "c_den": value.denominator,
                "c_over_q": float(value) / q,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# binomial tail check


ALPHA = 1 - 1 / math.e


@dataclass(frozen=True)
class BinomialCheckRow:
    epsilon: Fraction
    p: Fraction
    l: int
    gamma: float
    mm: int
    tail: Fraction

    @property
    def holds(self) -> bool:
        return self.tail >= self.epsilon

    def as_dict(self) -> dict:
        return {
            "epsilon_num": self.epsilon.numerator,
            "epsilon_den": self.epsilon.denominator,
            "p_num": self.p.numerator,
            "p_den": self.p.denominator,
            "l": self.l,
            "gamma": self.gamma,
            "mm": self.mm,
            "tail_num": self.tail.numerator,
            "tail_den": self.tail.denominator,
            "holds": self.holds,
        }


def binomial_tail(mm: int, p: Fraction, l: int) -> Fraction:
    """P(B(mm, p) >= l), exact.  Sums whichever side has fewer terms."""
    p = Fraction(p)
    if l <= 0:
        return Fraction(1)
    if l > mm:
        return Fraction(0)
    direct = mm - l + 1 <= l
    lo, hi = (l, mm + 1) if direct else (0, l)
    total = Fraction(0)
    for j in range(lo, hi):
        total += math.comb(mm, j) * p**j * (1 - p) ** (mm - j)
    return total if direct else 1 - total


def binomial_check_row(epsilon, p, l: int) -> BinomialCheckRow:
    epsilon = Fraction(epsilon)
    p = Fraction(p)
    l = check_int(l, "l")
    if not 0 < epsilon < 1:
        raise InputError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0 < p < 1:
        raise InputError(f"p must lie in (0, 1), got {p}")
    if l < 1:
        raise InputError(f"l must be >= 1, got {l}")
    gamma = (1 - math.log(1 - float(epsilon))) / ALPHA
    # ceil of the exact product with the binary-float gamma, immune to
    # float rounding at integer boundaries
    mm = math.ceil(Fraction(gamma) * l / p)
    tail = binomial_tail(mm, p, l)
    return BinomialCheckRow(epsilon=epsilon, p=p, l=l, gamma=gamma, mm=mm, tail=tail)


def binomial_check(epsilons, ps, ls) -> list[BinomialCheckRow]:
    rows = []
    for eps in epsilons:
        for p in ps:
            for l in ls:
                rows.append(binomial_check_row(eps, p, l))
    return rows
