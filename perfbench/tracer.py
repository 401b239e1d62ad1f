"""Spans around calls into invgen's layers, recorded from the benchmark.

A traced run wraps the program's public entry points where one layer
calls another (module attribute bindings and two lazily cached Group
members), records one span per call with its parent, keeps every span
in memory, and derives per-layer self times when the run ends.  Untraced
runs use ``NullTracer`` and install no wrapper at all, so their timings
carry no tracing cost.

Only calls made outside ``invgen.subgroups`` are wrapped: the closures
the subgroup lattice runs internally stay inside ``coverage.compute``.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter

import invgen.cheb as cheb
import invgen.coverage as coverage
import invgen.crowns as crowns
import invgen.genlift as genlift
import invgen.harness as harness
import invgen.modlin as modlin
from invgen.group import Group

NARROW_MASK_MAX_COVERS = 63  # the MC kernel packs up to 63 covers into a uint64


class NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = NullSpan()


class NullTracer:
    enabled = False

    def span(self, name: str):
        return _NULL_SPAN


class Span:
    """One span record; a context manager that opens and closes it."""

    __slots__ = ("_tracer", "id", "parent", "name", "phase", "start", "end", "attrs")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self.name = name
        self.attrs = None

    def __enter__(self):
        tracer = self._tracer
        stack = tracer.stack
        self.id = len(tracer.spans)
        self.parent = stack[-1] if stack else None
        self.phase = tracer.phase
        tracer.spans.append(self)
        stack.append(self.id)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = perf_counter()
        self._tracer.stack.pop()
        return False

    def __setitem__(self, key, value):
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value

    def get(self, key, default=0):
        """An attribute, or default when the call raised before setting it."""
        return (self.attrs or {}).get(key, default)

    def as_dict(self) -> dict:
        out = {"id": self.id, "parent": self.parent, "name": self.name,
               "phase": self.phase, "start": self.start, "end": self.end}
        out.update(self.attrs or {})
        return out


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.phase: str | None = None

    def span(self, name: str) -> Span:
        return Span(self, name)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict()))
                fh.write("\n")


# ---------------------------------------------------------------------------
# attributes computed from the benchmark's side


def reduced_cover_count(covers) -> int:
    """Covers left after dropping any contained in another (the MC's r)."""
    uniq = sorted(set(covers), key=lambda c: -c.bit_count())
    kept: list[int] = []
    for c in uniq:
        if not any((c & k) == c for k in kept):
            kept.append(c)
    return len(kept)


def mc_attrs(span, G, trials: int, mean: float) -> None:
    """Draw count, mask path and computed mask bytes of one MC call.

    Mask bytes are computed from the array shapes the kernel allocates
    (per-trial alive state plus per-class masks), not measured.
    """
    table = G._coverage
    r = reduced_cover_count(table.covers)
    wide = r > NARROW_MASK_MAX_COVERS
    width = r if wide else 8  # bool row per trial, or one uint64
    span["draws"] = round(mean * trials)
    span["wide"] = wide
    span["mask_bytes"] = (trials + len(table.class_sizes)) * width


# ---------------------------------------------------------------------------
# wrappers installed for a traced run


def _timed(tracer: Tracer, fn, name: str, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as s:
            out = fn(*args, **kwargs)
        if after is not None:
            after(s, args, kwargs, out)
        return out

    return wrapper


def install(tracer: Tracer):
    """Wrap invgen's layer boundaries; returns a function that undoes it."""
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    # group: the two lazily cached members, timed only when they compute
    table_prop = vars(Group)["table"]
    classes_fn = vars(Group)["conjugacy_classes"]

    def table_get(self):
        if self._table is not None:
            return self._table
        with tracer.span("group.table"):
            return table_prop.fget(self)

    def conjugacy_classes(self):
        if self._classes is not None:
            return self._classes
        with tracer.span("group.classes"):
            return classes_fn(self)

    patch(Group, "table", property(table_get, doc=table_prop.__doc__))
    patch(Group, "conjugacy_classes", conjugacy_classes)
    patch(harness, "realize_descriptor", _timed(tracer, harness.realize_descriptor, "group.build"))
    patch(modlin, "load_group", _timed(tracer, modlin.load_group, "group.build"))

    # subgroups: closures requested from outside the lattice
    for owner in (genlift, coverage):
        patch(owner, "closure_indices", _timed(tracer, owner.closure_indices, "subgroups.closure"))

    # coverage: lookups split into disk reads and computes
    lookup = coverage.coverage_table

    def coverage_table(G, use_cache=True):
        if G._coverage is not None:
            return lookup(G, use_cache)
        path = coverage._cache_path(G) if use_cache else None
        with tracer.span("coverage.lookup") as s:
            s["cache"] = bool(path)
            s["existed"] = bool(path) and os.path.exists(path)
            s["computed"] = False
            return lookup(G, use_cache)

    def computed(s, args, kwargs, out):
        parent = tracer.spans[s.parent] if s.parent is not None else None
        if parent is not None and parent.name == "coverage.lookup":
            parent["computed"] = True
        s["r"] = len(out.covers)

    patch(coverage, "_compute_table", _timed(tracer, coverage._compute_table, "coverage.compute", computed))
    for owner in (coverage, cheb, harness):
        patch(owner, "coverage_table", coverage_table)

    # cheb, modlin diagnostics and the survey row, as the harness calls them
    def exact_terms(s, args, kwargs, out):
        s["terms"] = len(out.profile)

    def mc_done(s, args, kwargs, out):
        mc_attrs(s, args[0], out.trials, out.mean)

    patch(harness, "chebotarev_exact", _timed(tracer, harness.chebotarev_exact, "cheb.exact", exact_terms))
    patch(harness, "min_k_for_probability", _timed(tracer, harness.min_k_for_probability, "cheb.mink"))
    patch(harness, "chebotarev_montecarlo", _timed(tracer, harness.chebotarev_montecarlo, "cheb.mc", mc_done))
    patch(harness, "_module_diagnostics", _timed(tracer, harness._module_diagnostics, "modlin.diag"))
    patch(harness, "survey_row", _timed(tracer, harness.survey_row, "harness.row"))

    # crowns: crown-based power construction, however it is reached
    patch(crowns, "abelian_crown_power_with_embedding",
          _timed(tracer, crowns.abelian_crown_power_with_embedding, "crowns.power"))
    patch(crowns, "build_crown_power_general",
          _timed(tracer, crowns.build_crown_power_general, "crowns.power"))

    def undo():
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)

    return undo


# ---------------------------------------------------------------------------
# per-layer report


PER_LAYER_UNITS = {
    "group.build_s": "s",
    "group.table_s": "s",
    "group.classes_s": "s",
    "subgroups.closure_s": "s",
    "subgroups.closure_calls": "count",
    "coverage.compute_s": "s",
    "coverage.maximal_classes": "count",
    "coverage.cache_read_s": "s",
    "coverage.cache_writes": "count",
    "coverage.cache_rewrites": "count",
    "coverage.invgen_brute_s": "s",
    "coverage.invgen_brute_calls": "count",
    "cheb.exact_s": "s",
    "cheb.exact_terms": "count",
    "cheb.mink_s": "s",
    "cheb.mc_s": "s",
    "cheb.mc_draws": "count",
    "cheb.mc_draws_per_s": "1/s",
    "cheb.mc_wide_s": "s",
    "cheb.mc_mask_bytes": "bytes_computed",
    "cheb.pinv_mc_s": "s",
    "modlin.diag_s": "s",
    "crowns.power_s": "s",
    "crowns.power_calls": "count",
    "genlift.criterion_s": "s",
    "genlift.criterion_calls": "count",
    "genlift.criterion_us": "us",
    "genlift.max_lift_rank_s": "s",
    "harness.row_max_s": "s",
    "harness.row_sum_s": "s",
    "trace.overhead_s": "s",
}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans, overhead_s: float) -> dict:
    """Per-layer totals over every span; times are self times except the
    harness row figures, which are whole-row (inclusive) durations."""
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, t in zip(spans, own):
        total[s.name] = total.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1

    def named(name):
        return [(s, t) for s, t in zip(spans, own) if s.name == name]

    lookups = named("coverage.lookup")
    writes = [s for s, _ in lookups if s.get("computed") and s.get("cache")]
    mcs = named("cheb.mc")
    rows = [s.end - s.start for s, _ in named("harness.row")]
    mc_s = total.get("cheb.mc", 0.0)
    draws = sum(s.get("draws") for s, _ in mcs)
    crit_calls = calls.get("genlift.criterion", 0)
    crit_s = total.get("genlift.criterion", 0.0)
    values = {
        "group.build_s": total.get("group.build", 0.0),
        "group.table_s": total.get("group.table", 0.0),
        "group.classes_s": total.get("group.classes", 0.0),
        "subgroups.closure_s": total.get("subgroups.closure", 0.0),
        "subgroups.closure_calls": calls.get("subgroups.closure", 0),
        "coverage.compute_s": total.get("coverage.compute", 0.0),
        "coverage.maximal_classes": sum(s.get("r") for s, _ in named("coverage.compute")),
        "coverage.cache_read_s": sum(t for s, t in lookups if not s.get("computed")),
        "coverage.cache_writes": len(writes),
        "coverage.cache_rewrites": sum(1 for s in writes if s.get("existed")),
        "coverage.invgen_brute_s": total.get("coverage.invgen_brute", 0.0),
        "coverage.invgen_brute_calls": calls.get("coverage.invgen_brute", 0),
        "cheb.exact_s": total.get("cheb.exact", 0.0),
        "cheb.exact_terms": sum(s.get("terms") for s, _ in named("cheb.exact")),
        "cheb.mink_s": total.get("cheb.mink", 0.0),
        "cheb.mc_s": mc_s,
        "cheb.mc_draws": draws,
        "cheb.mc_draws_per_s": draws / mc_s if mc_s > 0 else 0.0,
        "cheb.mc_wide_s": sum(t for s, t in mcs if s.get("wide")),
        "cheb.mc_mask_bytes": max((s.get("mask_bytes") for s, _ in mcs), default=0),
        "cheb.pinv_mc_s": total.get("cheb.pinv_mc", 0.0),
        "modlin.diag_s": total.get("modlin.diag", 0.0),
        "crowns.power_s": total.get("crowns.power", 0.0),
        "crowns.power_calls": calls.get("crowns.power", 0),
        "genlift.criterion_s": crit_s,
        "genlift.criterion_calls": crit_calls,
        "genlift.criterion_us": 1e6 * crit_s / crit_calls if crit_calls else 0.0,
        "genlift.max_lift_rank_s": total.get("genlift.max_lift_rank", 0.0),
        "harness.row_max_s": max(rows, default=0.0),
        "harness.row_sum_s": sum(rows),
        "trace.overhead_s": overhead_s,
    }
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
