"""Benchmark entry point for invgen.

    python3 perfbench/run.py --workload survey|mc|lift --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` the run measures
the end-to-end metrics; with ``--trace 1`` it replays the workload with
spans around every layer call and reports the per-layer metrics.  Either
way it checks the program's outputs, and its last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Details of the run, and in trace mode the spans and the layer
report, go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "invgen"
OUT = HERE / "out"

MIN_PROBES = 2
MAX_PROBES = 9
PROBE_SHARE = 1 / 3  # set-up probes run for this share of --seconds
PROBE_TIMEOUT_S = 170


def probe_setup(workload: str, seed: int, cache_dir: str) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to the end of set-up,
    raw and scaled by the host speed the probe read around its set-up."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed), cache_dir]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    end, ref_before, ref_after = (float(x) for x in proc.stdout.split()[-3:])
    raw = end - start - ref_before
    return raw, hostspeed.scale(raw, [ref_before, ref_after])


def measure_setup(workload: str, seed: int, seconds: float, tmp: str):
    """Set-up samples from fresh processes, each with an empty cache.

    Probes repeat until they have used `seconds` (at least MIN_PROBES,
    at most MAX_PROBES).  Returns the raw samples, the scaled samples
    and the cache directory the last probe filled.
    """
    raw: list[float] = []
    scaled: list[float] = []
    while len(raw) < MAX_PROBES and (len(raw) < MIN_PROBES or sum(raw) < seconds):
        cache = tempfile.mkdtemp(prefix="probe-", dir=tmp)
        r, sc = probe_setup(workload, seed, cache)
        raw.append(r)
        scaled.append(sc)
    return raw, scaled, cache


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def run_rounds(w, seconds: float, cold, warm):
    """Rounds of one cold pass then w.WARM_PER_ROUND warm passes, until
    `seconds` have passed and at least w.ROUNDS rounds have run.

    Alternating spreads each phase's passes over the whole run.  cold
    and warm take the pass number; returns the pass times and results
    of each phase.
    """
    cold_times, cold_passes, warm_times, warm_passes = [], [], [], []
    start = time.perf_counter()
    while len(cold_times) < w.ROUNDS or time.perf_counter() - start < seconds:
        dt, res = timed(cold, len(cold_times))
        cold_times.append(dt)
        cold_passes.append(res)
        for _ in range(w.WARM_PER_ROUND):
            dt, res = timed(warm, len(warm_times))
            warm_times.append(dt)
            warm_passes.append(res)
    return cold_times, cold_passes, warm_times, warm_passes


def pass_s(passes, scaled: bool = True) -> float:
    """Median over passes of the pass's unit times, summed: scaled by the
    host's speed, or raw."""
    return statistics.median(sum(p.clock.scaled if scaled else p.clock.raw) for p in passes)


def run_measured(args, tmp: str):
    """Set-up probes, then rounds of cold and warm passes.

    Every cold pass starts from an empty coverage disk cache; the warm
    passes reuse the cache the last cold pass filled.
    """
    setups, scaled_setups, setup_cache = measure_setup(args.workload, args.seed, args.seconds * PROBE_SHARE, tmp)
    import workloads
    from tracer import NullTracer

    null = NullTracer()
    w = workloads.WORKLOADS[args.workload](args.seed)
    w.setup(null, setup_cache)
    caches = []

    with hostspeed.SpeedSampler() as sampler:

        def cold(i):
            caches.append(tempfile.mkdtemp(prefix="cold-", dir=tmp))
            return w.cold(null, hostspeed.UnitClock(sampler), caches[-1], tmp, f"cold{i}")

        def warm(i):
            return w.warm(null, hostspeed.UnitClock(sampler), caches[-1], tmp, f"warm{i}")

        cold_times, cold_passes, warm_times, warm_passes = run_rounds(w, args.seconds, cold, warm)
    passes = cold_passes + warm_passes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "wall_s": (pass_s(cold_passes), "s"),
        "warm_wall_s": (pass_s(warm_passes), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = {
        "raw": {"setup_s": statistics.median(setups), "wall_s": pass_s(cold_passes, False),
                "warm_wall_s": pass_s(warm_passes, False)},
        "setup_samples_s": setups, "setup_scaled_s": scaled_setups,
        "cold_pass_s": cold_times, "warm_pass_s": warm_times,
        "cold_units": [{"raw": p.clock.raw, "scaled": p.clock.scaled} for p in cold_passes],
        "warm_units": [{"raw": p.clock.raw, "scaled": p.clock.scaled} for p in warm_passes],
    }
    return w, passes, metrics, details


def run_traced(args, tmp: str):
    """Traced set-up, an untraced and a traced cold pass, a traced warm pass.

    A workload with a parallel mode (the survey) also runs it once,
    untimed, so its output is checked against the serial passes.
    """
    import workloads
    from tracer import NullTracer, Tracer, install, layer_metrics

    tracer = Tracer()
    w = workloads.WORKLOADS[args.workload](args.seed)

    def traced(phase, fn, *fn_args):
        undo = install(tracer)
        tracer.phase = phase
        try:
            with tracer.span(f"bench.{phase}"):
                return timed(fn, *fn_args)
        finally:
            undo()

    traced("setup", w.setup, tracer, tempfile.mkdtemp(prefix="setup-", dir=tmp))
    untraced_s, base = timed(w.cold, NullTracer(), hostspeed.UnitClock(), tempfile.mkdtemp(prefix="cold-", dir=tmp), tmp, "untraced")
    cold_cache = tempfile.mkdtemp(prefix="cold-", dir=tmp)
    traced_s, cold = traced("cold", w.cold, tracer, hostspeed.UnitClock(), cold_cache, tmp, "traced")
    _, warm = traced("warm", w.warm, tracer, hostspeed.UnitClock(), cold_cache, tmp, "warm")
    passes = [base, cold, warm]
    if hasattr(w, "par"):
        passes.append(w.par(tempfile.mkdtemp(prefix="par-", dir=tmp), tmp, "par"))
    stem = OUT / f"{args.workload}-seed{args.seed}"
    tracer.dump(f"{stem}.trace.jsonl")
    metrics = layer_metrics(tracer.spans, traced_s - untraced_s)
    with open(f"{stem}.layers.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics}, fh, indent=2)
    details = {"untraced_cold_s": untraced_s, "traced_cold_s": traced_s, "spans": len(tracer.spans)}
    return w, passes, {k: (v["value"], v["unit"]) for k, v in metrics.items()}, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="invgen benchmark")
    ap.add_argument("--workload", required=True, choices=("survey", "mc", "lift"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"run.py: no program sources at {PACKAGE}", file=sys.stderr)
        return 2
    import checks

    failures = checks.self_test()
    if failures:
        print("run.py: check self-test failed: " + "; ".join(failures), file=sys.stderr)
        return 1
    for code in (PACKAGE, HERE):  # keep byte-compiling out of set-up
        compileall.compile_dir(str(code), quiet=1)
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        runner = run_traced if args.trace else run_measured
        w, passes, metrics, details = runner(args, tmp)
        checker = checks.Checker()
        w.check(passes, checker)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    errors = [e for p in passes for e in p.errors]
    result = {
        "correct": checker.ok,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"args": vars(args), **details, "check_failures": checker.failures,
              "errors": errors, "result": result}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.run.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for line in checker.failures[:20] + errors[:5]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
