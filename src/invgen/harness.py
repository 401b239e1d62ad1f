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

Rows are computed by a pool of `threads` worker processes (never more
than there are rows) when threads > 1, and written in corpus order
either way; each row's Monte Carlo kernel already runs on every usable
CPU.  Every row's Monte Carlo seed derives from (base seed, line
index), so output bytes depend only on (corpus, trials, seed).
"""

from __future__ import annotations

import csv
import json
import math
import traceback
from dataclasses import dataclass
from fractions import Fraction
from importlib.resources import files as _pkg_files

from .cheb import chebotarev_exact, chebotarev_montecarlo, min_k_for_probability
from .coverage import coverage_table
from . import crowns
from .errors import InputError, InvgenError
from .group import Group, _family_name, _int_param, load_group
from .modlin import ModuleAction, module_from_descriptor
from .rng import check_seed, stream_state

INVK_THRESHOLD = Fraction(2, 9)

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


def survey_row(desc: dict, trials: int, row_seed: int) -> SurveyRow:
    name = _descriptor_label(desc)
    try:
        G, family, act = realize_descriptor(desc)
        row = SurveyRow(name=G.name, family=family, order=G.order)
        row.r = len(coverage_table(G).maximal_orders)
        row.trials = trials
        row.seed = row_seed
        row.c_exact = chebotarev_exact(G).value
        row.min_k_29 = min_k_for_probability(G, INVK_THRESHOLD)
        mc = chebotarev_montecarlo(G, trials=trials, seed=row_seed)
        row.c_mc = mc.mean
        row.mc_stderr = mc.stderr
        c = float(row.c_exact)
        row.sqrt_order = math.sqrt(G.order)
        row.ratio_sqrt = c / row.sqrt_order
        if G.order > 1:
            row.klz_ratio = c / math.sqrt(G.order * math.log(G.order))
        if act is not None:
            row.diag_m, row.diag_fix_count, row.diag_m_sq = _module_diagnostics(act)
        return row
    except InvgenError as exc:
        return SurveyRow(name=name, family=_family_tag(desc), error=str(exc))
    except Exception as exc:  # an internal defect: record it, keep surveying
        traceback.print_exc()
        return SurveyRow(
            name=name, family=_family_tag(desc), error=f"{type(exc).__name__}: {exc}"
        )


def _survey_task(args: tuple) -> SurveyRow:
    desc, trials, row_seed = args
    return survey_row(desc, trials, row_seed)


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
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    check_seed(seed)
    corpus = read_corpus(corpus_path)
    tasks = [
        (desc, trials, int(stream_state(seed, i)))
        for i, desc in enumerate(corpus)
    ]
    if threads > 1 and len(tasks) > 1:
        # imported here: the process pool pulls in multiprocessing and logging
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its workers up front
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            rows = list(pool.map(_survey_task, tasks))
    else:
        rows = [_survey_task(t) for t in tasks]

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
        q = int(q)
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
    l = int(l)
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
