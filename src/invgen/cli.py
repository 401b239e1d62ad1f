"""Command-line interface.

Descriptor arguments accept either literal JSON or a path to a file
holding the JSON.  Results go to stdout as JSON (one object per line
for streaming commands) or CSV with --format csv; progress and
diagnostics go to stderr.

Exit codes: 0 success, 1 property violation, 2 input error, 3 cap
exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .cheb import (
    chebotarev_exact,
    chebotarev_montecarlo,
    min_k_for_probability,
    p_invariable_exact,
)
from .coverage import coverage_table
from .crowns import corona_decomposition
from .errors import CapExceeded, InputError, InvgenError, PreconditionError
from .genlift import (
    MODE_GENERATE,
    MODE_INVARIABLE,
    gen_criterion,
    invgen_criterion,
    lift_problem_from_descriptor,
    max_lift_rank,
    resolve_word,
)
from .modlin import module_from_descriptor
from .harness import (
    agl_trend,
    binomial_check,
    realize_descriptor,
    run_survey,
    shipped_corpus_path,
    write_rows_csv,
)
from .properties import DEFAULT_SEED, verify_props

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _load_descriptor(text: str) -> dict:
    s = text.strip()
    if not s.startswith("{"):
        try:
            with open(text, encoding="utf-8") as fh:
                s = fh.read()
        except OSError as exc:
            raise InputError(f"descriptor is neither JSON nor a readable file: {exc}")
    try:
        desc = json.loads(s)
    except ValueError as exc:
        raise InputError(f"descriptor is not valid JSON: {exc}")
    if not isinstance(desc, dict):
        raise InputError("descriptor must be a JSON object")
    return desc


def _load_group_arg(text: str):
    G, _family, _act = realize_descriptor(_load_descriptor(text))
    return G


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {text!r} ({exc})")


def _emit(rows: list[dict], fmt: str, out_path: str | None) -> None:
    """JSON objects one per line, or CSV over the union of keys."""
    if fmt == "csv":
        keys: list[str] = []
        for row in rows:
            for k in row:
                if k not in keys:
                    keys.append(k)
        fh = open(out_path, "w", encoding="utf-8", newline="") if out_path else sys.stdout
        try:
            writer = csv.DictWriter(fh, fieldnames=keys, restval="", lineterminator="\n")
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _csv_cell(v) for k, v in row.items()})
        finally:
            if out_path:
                fh.close()
        return
    fh = open(out_path, "w", encoding="utf-8", newline="\n") if out_path else sys.stdout
    try:
        for row in rows:
            fh.write(json.dumps(row))
            fh.write("\n")
    finally:
        if out_path:
            fh.close()


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    return v


def _fraction_fields(prefix: str, value: Fraction) -> dict:
    return {
        f"{prefix}_num": value.numerator,
        f"{prefix}_den": value.denominator,
        f"{prefix}_float": float(value),
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_cheb(args) -> int:
    G = _load_group_arg(args.descriptor)
    if args.mode == "exact":
        rep = chebotarev_exact(G)
        row = {"name": G.name, "order": G.order,
               "r": len(coverage_table(G).maximal_orders)}
        row.update(_fraction_fields("c", rep.value))
    else:
        rep = chebotarev_montecarlo(G, trials=args.trials, seed=args.seed)
        row = {
            "name": G.name,
            "order": G.order,
            "c_mc": rep.mean,
            "mc_stderr": rep.stderr,
            "trials": rep.trials,
            "seed": rep.seed,
        }
    _emit([row], args.format, args.out)
    return EXIT_OK


def _cmd_pinv(args) -> int:
    G = _load_group_arg(args.descriptor)
    value = p_invariable_exact(G, args.k)
    row = {"name": G.name, "order": G.order, "k": args.k}
    row.update(_fraction_fields("p", value))
    _emit([row], args.format, args.out)
    return EXIT_OK


def _cmd_mink(args) -> int:
    G = _load_group_arg(args.descriptor)
    threshold = _parse_fraction(args.threshold)
    k = min_k_for_probability(G, threshold)
    row = {
        "name": G.name,
        "order": G.order,
        "threshold_num": threshold.numerator,
        "threshold_den": threshold.denominator,
        "min_k": k,
    }
    _emit([row], args.format, args.out)
    return EXIT_OK


def _cmd_h1(args) -> int:
    desc = _load_descriptor(args.descriptor)
    act = module_from_descriptor(desc.get("module", desc))
    end = act.end_field()
    der = act.derivation_space()
    row = {
        "name": act.name,
        "group_order": act.group.order,
        "p": act.p,
        "dim_p": act.dim,
        "e": end.degree,
        "n": act.dim // end.degree,
        "m": act.h1_dim(),
        "dim_p_der": der.dim_gf,
        "dim_p_ider": der.dim_inner_gf,
        "faithful": act.is_faithful(),
        "irreducible": act.is_irreducible(),
        "absolutely_irreducible": act.is_absolutely_irreducible(),
    }
    _emit([row], args.format, args.out)
    return EXIT_OK


def _cmd_crowns(args) -> int:
    G = _load_group_arg(args.descriptor)
    crown = corona_decomposition(G)
    A = crown.factor
    row = {
        "name": G.name,
        "order": G.order,
        "factor_order": A.order,
        "factor_abelian": A.is_abelian,
        "delta": crown.delta,
        "r_order": crown.R.order,
        "i_order": crown.I.order,
        "u_order": crown.U.order if crown.U is not None else None,
    }
    _emit([row], args.format, args.out)
    return EXIT_OK


def _cmd_lift(args) -> int:
    desc = _load_descriptor(args.descriptor)
    if "module" not in desc:
        raise InputError('lift descriptor needs a "module" field')
    if "ws" in desc:
        problem = lift_problem_from_descriptor(desc)
        act, hs = problem.act, list(problem.hs)
        row: dict = {"name": act.name, "u": problem.u, "generates": gen_criterion(problem)}
        try:
            row["invariably_generates"] = invgen_criterion(problem)
        except PreconditionError:
            row["invariably_generates"] = None
    else:
        act = module_from_descriptor(desc["module"])
        row = {"name": act.name}
        words = desc.get("hs", [])
        if not isinstance(words, list) or not words:
            raise InputError('lift descriptor needs "hs" (and optionally "u"/"ws")')
        hs = [resolve_word(act, w) for w in words]
    gen_rank = max_lift_rank(act, hs, MODE_GENERATE)
    row["u_max_generate"] = gen_rank.u_max
    try:
        row["u_max_invariable"] = max_lift_rank(act, hs, MODE_INVARIABLE).u_max
    except PreconditionError:
        row["u_max_invariable"] = None
    _emit([row], args.format, args.out)
    return EXIT_OK


def _cmd_survey(args) -> int:
    """JSON: JSONL to stdout, or JSONL and its CSV sibling through
    run_survey.  CSV: the survey's CSV columns to --out or stdout."""
    path = args.corpus or shipped_corpus_path()
    as_csv = args.format == "csv"
    rows = run_survey(
        path,
        trials=args.trials,
        seed=args.seed,
        out_path=None if as_csv else args.out,
        threads=args.threads,
        echo=lambda msg: print(msg, file=sys.stderr),
    )
    if as_csv and args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_rows_csv(rows, fh)
    elif as_csv:
        write_rows_csv(rows, sys.stdout)
    elif args.out is None:
        _emit([r.as_dict() for r in rows], "json", None)
    return EXIT_OK


def _cmd_agl_trend(args) -> int:
    rows = agl_trend(_parse_grid(args.q, int, "q"))
    _emit(rows, args.format, args.out)
    return EXIT_OK


def _parse_grid(text: str, parse, what: str):
    vals = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            vals.append(parse(part))
        except ValueError as exc:
            raise InputError(f"bad {what} entry {part!r}: {exc}")
    if not vals:
        raise InputError(f"empty {what} grid")
    return vals


def _cmd_binom_check(args) -> int:
    epsilons = _parse_grid(args.epsilons, Fraction, "epsilon")
    ps = _parse_grid(args.ps, Fraction, "p")
    ls = _parse_grid(args.ls, int, "l")
    rows = binomial_check(epsilons, ps, ls)
    _emit([r.as_dict() for r in rows], args.format, args.out)
    failures = [r for r in rows if not r.holds]
    if failures:
        print(f"{len(failures)} rows fall below epsilon", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_verify(args) -> int:
    only = None
    if args.suite:
        # "suite" selects a suite, "suite.name" one check of it
        only = tuple(
            tuple(sel.split(".", 1)) if "." in sel else sel for sel in args.suite.split(",")
        )
    report = verify_props(
        seed=args.seed,
        corpus_path=args.corpus,
        echo=lambda msg: print(msg, file=sys.stderr),
        only=only,
    )
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)
    return EXIT_OK if report.passed else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser


def _add_common(sp, seed_default=None):
    sp.add_argument("--out", default=None, help="write results to this path")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    if seed_default is not None:
        sp.add_argument(
            "--seed", type=int, default=seed_default, help="an integer in [0, 2**64)"
        )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="invgen",
        description="Invariable generation toolkit: exact and Monte Carlo "
        "Chebotarev invariants, cohomology dimensions, crowns, and the "
        "survey harness.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cheb", help="Chebotarev invariant C(G)")
    p.add_argument("mode", choices=("exact", "mc"))
    p.add_argument("descriptor", help="group/module/crown-power descriptor (JSON or path)")
    p.add_argument("--trials", type=int, default=100_000)
    _add_common(p, seed_default=DEFAULT_SEED)
    p.set_defaults(fn=_cmd_cheb)

    p = sub.add_parser("pinv", help="exact P_I(G, k)")
    p.add_argument("descriptor")
    p.add_argument("-k", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_pinv)

    p = sub.add_parser("mink", help="smallest k with P_I(G, k) >= threshold")
    p.add_argument("descriptor")
    p.add_argument("--threshold", default="2/9", help="rational like 2/9")
    _add_common(p)
    p.set_defaults(fn=_cmd_mink)

    p = sub.add_parser("h1", help="module diagnostics: e, n, m = dim_F H^1")
    p.add_argument("descriptor", help="module descriptor (JSON or path)")
    _add_common(p)
    p.set_defaults(fn=_cmd_h1)

    p = sub.add_parser("crowns", help="corona decomposition of a Frattini-trivial group")
    p.add_argument("descriptor")
    _add_common(p)
    p.set_defaults(fn=_cmd_crowns)

    p = sub.add_parser("lift", help="generation criteria for lifted tuples")
    p.add_argument("descriptor", help='{"module":..., "hs":[words], "u":..., "ws":...}')
    _add_common(p)
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("survey", help="C(G) survey over a JSONL corpus")
    p.add_argument("corpus", nargs="?", default=None,
                   help="corpus path (default: shipped corpus)")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes (default 1); a serial survey runs all"
                        " rows' Monte Carlo kernels side by side on the usable CPUs"
                        " after the rows' exact work, a pool worker splits each"
                        " row's own trials")
    _add_common(p, seed_default=20_260_814)
    p.set_defaults(fn=_cmd_survey)

    p = sub.add_parser("agl-trend", help="C(AGL(1,q)) and C/q per prime power")
    p.add_argument("--q", default="2,3,4,5,7,8,9,11,13",
                   help="comma list of prime powers q, each within the degree and order caps")
    _add_common(p)
    p.set_defaults(fn=_cmd_agl_trend)

    p = sub.add_parser("binom-check", help="exact binomial tail bound check")
    p.add_argument("--epsilons", default="1/2,6/7")
    p.add_argument("--ps", default="0.01,0.05,0.1,0.25,0.5")
    p.add_argument("--ls", default="1,2,3,4,5,6,7,8,9,10")
    _add_common(p)
    p.set_defaults(fn=_cmd_binom_check)

    p = sub.add_parser("verify", help="run every property suite")
    p.add_argument("--corpus", default=None)
    p.add_argument("--suite", default=None, help="comma list of suites, or suite.name checks, to run")
    _add_common(p, seed_default=DEFAULT_SEED)
    p.set_defaults(fn=_cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvgenError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
