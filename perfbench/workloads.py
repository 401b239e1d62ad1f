"""The three benchmark workloads, driven through invgen's public functions.

Each workload has a set-up (what its timed part assumes exists), one
pass over its operations that runs cold (empty coverage disk cache) or
warm (the cache a cold pass filled), and a check of the outputs against
``checks``.  The caller gives each pass a ``UnitClock``, which times
each of its units (a survey row, an estimator call, a lift case), raw
and scaled by the host's speed around it; the pass returns it in its
``PassResult``.

The program is imported from ``src/`` of the checkout that holds this
directory, never from an installed copy.
"""

from __future__ import annotations

import os
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "invgen" / "__init__.py").is_file():
    raise ImportError(f"no invgen sources under {SRC}")
sys.path.insert(0, str(SRC))

import invgen  # noqa: E402
from invgen import (  # noqa: E402
    MODE_GENERATE,
    MODE_INVARIABLE,
    LiftProblem,
    abelian_crown_power_with_embedding,
    chebotarev_exact,
    chebotarev_montecarlo,
    closure_indices,
    gen_criterion,
    invariably_generates,
    invgen_criterion,
    max_lift_rank,
    module_from_descriptor,
    p_invariable_exact,
    p_invariable_montecarlo,
    read_corpus,
    realize_descriptor,
    run_survey,
    shipped_corpus_path,
)
import invgen.coverage as coverage  # noqa: E402  (called through the module, so traced runs see it)
import invgen.harness as harness  # noqa: E402

import checks  # noqa: E402
from hostspeed import UnitClock  # noqa: E402
from tracer import NullTracer, mc_attrs  # noqa: E402

if Path(invgen.__file__).resolve().parent != SRC / "invgen":
    raise ImportError(f"invgen was imported from {invgen.__file__}, not {SRC}")

WORKERS = 2
INVK_THRESHOLD = Fraction(2, 9)


def sub_seed(seed: int, *keys: int) -> int:
    """A 63-bit seed derived from the run seed and an operation's keys."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(2, dtype=np.uint32)
    return (int(state[0]) << 31) ^ int(state[1])


def use_cache(cache_dir: str) -> None:
    os.environ[coverage.CACHE_ENV] = cache_dir


@dataclass
class PassResult:
    outputs: list
    attempted: int
    failed: int
    errors: list
    clock: UnitClock


def _collect(outputs, clock) -> PassResult:
    """Count operations; an output that is an error string failed."""
    errors = [o for o in outputs if isinstance(o, str)]
    return PassResult(outputs, len(outputs), len(errors), errors, clock)


@contextmanager
def _row_clock(clock: UnitClock):
    """Time every survey row run_survey makes, by one timer around the
    module attribute through which it calls survey_row."""
    row = harness.survey_row

    def timed_row(*args):
        return clock.run(row, *args)

    harness.survey_row = timed_row
    try:
        yield
    finally:
        harness.survey_row = row


def _guarded(fn, *args):
    """Run one operation; a raised error becomes its traceback text."""
    try:
        return fn(*args)
    except Exception:  # one failed operation must not end the run
        return traceback.format_exc()


# ---------------------------------------------------------------------------
# survey: the shipped corpus through run_survey


class Survey:
    """run_survey over the shipped corpus at the CLI default trials."""

    TRIALS = 100_000
    ROUNDS = 1  # a cold pass alone takes ~20 s
    WARM_PER_ROUND = 4

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tracer, cache_dir: str) -> None:
        use_cache(cache_dir)
        self.corpus_path = shipped_corpus_path()
        self.corpus = read_corpus(self.corpus_path)

    def run_pass(self, tracer, clock, cache_dir: str, out_dir: str, tag: str, threads: int = 1) -> PassResult:
        """One run_survey call.  Its units are the rows, then the rest of
        the call (reading the corpus, writing JSONL and CSV)."""
        use_cache(cache_dir)
        out = os.path.join(out_dir, f"survey-{tag}.jsonl")
        start = perf_counter()
        with _row_clock(clock):
            rows = run_survey(
                self.corpus_path, trials=self.TRIALS, seed=self.seed,
                out_path=out, threads=threads, echo=lambda msg: None,
            )
        clock.add(perf_counter() - start - sum(clock.raw) - clock.reference_total_s)
        with open(out, "rb") as fh:
            data = fh.read()
        errors = [f"{r.name}: {r.error}" for r in rows if r.error is not None]
        return PassResult([rows, data], len(rows), len(errors), errors, clock)

    cold = warm = run_pass

    def par(self, cache_dir, out_dir, tag):
        """The cold pass on WORKERS processes; run once, for its output."""
        return self.run_pass(None, UnitClock(), cache_dir, out_dir, tag, threads=WORKERS)

    def check(self, passes: list[PassResult], c: checks.Checker) -> None:
        rows, data = passes[0].outputs
        for other in passes[1:]:
            c.expect(other.outputs[1] == data, "survey outputs are byte-identical across passes")
        for desc, row in zip(self.corpus, rows):
            if row.error is not None:
                continue
            label = row.name
            want = checks.family_order(desc)  # every shipped row has a rule
            c.expect(row.order == want, f"{label}: order {row.order} != {want}")
            closed, pinv = _closed_forms(desc)
            if closed is not None and row.c_exact is not None:
                c.expect(row.c_exact == closed, f"{label}: C = {row.c_exact}, closed form {closed}")
            reference = row.c_exact if row.c_exact is not None else closed
            if reference is not None:
                c.expect(
                    checks.within_sigmas(row.c_mc, reference, row.mc_stderr),
                    f"{label}: c_mc {row.c_mc} not within 5 stderr of {float(reference)}",
                )
            c.expect((row.min_k_29 is None) == (row.c_exact is None), f"{label}: min_k_29 without exact C")
            if row.min_k_29 is not None:
                if pinv is None:
                    G = realize_descriptor(desc)[0]  # table comes from the warm disk cache
                    pinv = lambda k, G=G: p_invariable_exact(G, k)  # noqa: E731
                c.expect(
                    checks.is_least_k(row.min_k_29, pinv, INVK_THRESHOLD),
                    f"{label}: min_k_29 = {row.min_k_29} is not the least k with P_I >= 2/9",
                )


def _closed_forms(desc: dict):
    """(C, k -> P_I) from closed forms for cyclic and elementary abelian rows."""
    fam = desc.get("family")
    if fam == "cyclic":
        n = int(desc["n"])
        return checks.cheb_cyclic(n), lambda j: checks.pinv_cyclic(n, j)
    if fam == "elemab":
        p, k = int(desc["p"]), int(desc["k"])
        return checks.cheb_elemab(p, k), lambda j: checks.pinv_elemab(p, k, j)
    return None, None


# ---------------------------------------------------------------------------
# mc: the Monte Carlo kernel on groups whose tables are built in set-up


MC_GROUPS = (
    # (descriptor, draw counts j for P_I)
    ({"family": "agl1", "q": 11}, (2, 4)),
    ({"family": "agl1", "q": 13}, (2, 4)),
    ({"name": "cpg_agl15_k2",
      "crownpower_general": {"group": {"family": "agl1", "q": 5}, "socle": "auto", "k": 2}}, (2, 4)),
    ({"family": "elemab", "p": 2, "k": 5}, (5, 6)),
    ({"family": "elemab", "p": 5, "k": 3}, (3, 4)),
    ({"family": "elemab", "p": 11, "k": 3}, (3, 4)),
)


def _mc_op(G, op, tracer=NullTracer()):
    kind, trials, seed, j = op
    if kind == "cheb":
        with tracer.span("cheb.mc") as s:
            rep = chebotarev_montecarlo(G, trials=trials, seed=seed)
        if tracer.enabled:
            mc_attrs(s, G, trials, rep.mean)
        return (rep.mean, rep.stderr)
    with tracer.span("cheb.pinv_mc"):
        rep = p_invariable_montecarlo(G, j, trials=trials, seed=seed)
    return (rep.p_hat, rep.stderr)


class MonteCarlo:
    """chebotarev_montecarlo and p_invariable_montecarlo, tables prebuilt."""

    CHEB_TRIALS = 1 << 18
    PINV_TRIALS = 4096
    ROUNDS = 4
    WARM_PER_ROUND = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = []  # (group index, (kind, trials, seed, j))
        for gi, (_desc, js) in enumerate(MC_GROUPS):
            self.ops.append((gi, ("cheb", self.CHEB_TRIALS, sub_seed(seed, gi), None)))
            for j in js:
                self.ops.append((gi, ("pinv", self.PINV_TRIALS, sub_seed(seed, gi, j), j)))

    @staticmethod
    def _build_one(tracer, desc):
        with tracer.span("group.build"):
            G = realize_descriptor(desc)[0]
        coverage.coverage_table(G)
        return G

    def setup(self, tracer, cache_dir: str) -> None:
        use_cache(cache_dir)
        self.cache_dir = cache_dir
        self.groups = [self._build_one(tracer, desc) for desc, _js in MC_GROUPS]

    # Both passes assume the tables set-up built: the cold pass uses the
    # in-memory ones, the warm pass rebuilds the groups and reads them
    # back from set-up's disk cache.

    def _run_ops(self, tracer, groups, clock):
        outputs = [clock.run(_guarded, _mc_op, groups[gi], op, tracer) for gi, op in self.ops]
        return _collect(outputs, clock)

    def cold(self, tracer, clock, cache_dir, out_dir, tag):
        return self._run_ops(tracer, self.groups, clock)

    def warm(self, tracer, clock, cache_dir, out_dir, tag):
        use_cache(self.cache_dir)
        groups = [clock.run(self._build_one, tracer, desc) for desc, _js in MC_GROUPS]
        return self._run_ops(tracer, groups, clock)

    def check(self, passes: list[PassResult], c: checks.Checker) -> None:
        first = passes[0].outputs
        for other in passes[1:]:
            c.expect(other.outputs == first, "mc estimates are identical across passes")
        for (gi, (kind, trials, _seed, j)), out in zip(self.ops, first):
            if isinstance(out, str):
                continue
            desc = MC_GROUPS[gi][0]
            G = self.groups[gi]
            closed_c, closed_p = _closed_forms(desc)
            label = f"{G.name} {kind}{'' if j is None else f'({j})'}"
            if kind == "cheb":
                want = closed_c if closed_c is not None else chebotarev_exact(G).value
                c.expect(checks.within_sigmas(out[0], want, out[1]),
                         f"{label}: {out[0]} +- {out[1]} vs {float(want)}")
            else:
                want = closed_p(j) if closed_p is not None else p_invariable_exact(G, j)
                c.expect(checks.binomial_within(out[0], want, trials),
                         f"{label}: {out[0]} vs {float(want)}")


# ---------------------------------------------------------------------------
# lift: lifting criteria against brute force in V^u x| H


AMBIENT_MAX_ORDER = 2000  # |V|^u |H| bound of the cases
INVGEN_BRUTE_MAX_ORDER = 100  # ambients whose subgroup lattice stays cheap
LIFT_SAMPLES = 200
OVERSHOOT_SAMPLES = 64


def _lift_modules():
    """The module rows of the shipped corpus, in corpus order."""
    return [d for d in read_corpus(shipped_corpus_path()) if "module" in d]


def _module(desc):
    act = module_from_descriptor(desc["module"])
    act.name = desc["name"]
    hs = list(act.group.gen_indices)
    return act, hs, invariably_generates(act.group, hs)


def _samples(seed: int, keys, count: int, shape, p: int) -> np.ndarray:
    rng = np.random.default_rng([seed, *keys])
    return rng.integers(0, p, size=(count, *shape), dtype=np.int64)


def _ambient(tracer, act, u):
    with tracer.span("crowns.power"):
        return abelian_crown_power_with_embedding(act, u)


def _lift_case(tracer, act, hs, can_invgen, u, samples):
    """Criteria vs brute force for every sampled translation part at one u.

    Returns one (gen criterion, gen brute, invgen criterion, invgen
    brute) tuple per sample; the invgen pair is None where the ambient
    is too large for its lattice.
    """
    GA, emb = _ambient(tracer, act, u)
    brute_inv = can_invgen and GA.order <= INVGEN_BRUTE_MAX_ORDER
    d = len(hs)
    out = []
    for ws in samples:
        prob = LiftProblem(act, u, hs, ws)
        with tracer.span("genlift.criterion"):
            gen = gen_criterion(prob)
        idxs = [GA.element_index(emb(ws[i].reshape(-1), hs[i])) for i in range(d)]
        with tracer.span("subgroups.closure"):
            gen_brute = len(closure_indices(GA, idxs)) == GA.order
        inv = inv_brute = None
        if brute_inv:
            with tracer.span("genlift.criterion"):
                inv = invgen_criterion(prob)
            with tracer.span("coverage.invgen_brute"):
                inv_brute = invariably_generates(GA, idxs)
        out.append((gen, gen_brute, inv, inv_brute))
    return out


def _lift_rank(tracer, act, hs, mode, over_seed):
    """(u_max, witness verdict, witness brute verdict or None, #overshoots).

    The overshoot samples at u_max + 1 are drawn from over_seed once
    u_max is known.
    """
    crit = gen_criterion if mode == MODE_GENERATE else invgen_criterion
    with tracer.span("genlift.max_lift_rank"):
        r = max_lift_rank(act, hs, mode)
    witness = brute = True
    if r.u_max > 0:
        with tracer.span("genlift.criterion"):
            witness = crit(LiftProblem(act, r.u_max, hs, r.ws))
        order = act.p ** (act.dim * r.u_max) * act.group.order
        limit = AMBIENT_MAX_ORDER if mode == MODE_GENERATE else INVGEN_BRUTE_MAX_ORDER
        if order <= limit:
            GA, emb = _ambient(tracer, act, r.u_max)
            idxs = [GA.element_index(emb(r.ws[i].reshape(-1), hs[i])) for i in range(len(hs))]
            if mode == MODE_GENERATE:
                with tracer.span("subgroups.closure"):
                    brute = len(closure_indices(GA, idxs)) == GA.order
            else:
                with tracer.span("coverage.invgen_brute"):
                    brute = invariably_generates(GA, idxs)
        else:
            brute = None
    over = _samples(over_seed, (), OVERSHOOT_SAMPLES, (len(hs), r.u_max + 1, act.dim), act.p)
    overshoots = 0
    for ws in over:
        with tracer.span("genlift.criterion"):
            overshoots += crit(LiftProblem(act, r.u_max + 1, hs, ws))
    return (r.u_max, witness, brute, overshoots)


class Lift:
    """gen/invgen criteria and max_lift_rank, checked in V^u x| H."""

    ROUNDS = 2
    WARM_PER_ROUND = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tracer, cache_dir: str) -> None:
        use_cache(cache_dir)
        self.descs = _lift_modules()
        self.modules = [_module(desc) for desc in self.descs]
        # (module index, "case", u, samples) or (module index, "rank", mode, seed)
        self.tasks = []
        for mi, (act, hs, can_invgen) in enumerate(self.modules):
            d, p, dim, h = len(hs), act.p, act.dim, act.group.order
            u = 1
            while p ** (dim * u) * h <= AMBIENT_MAX_ORDER:
                smp = _samples(self.seed, (mi, u), LIFT_SAMPLES, (d, u, dim), p)
                self.tasks.append((mi, "case", u, smp))
                u += 1
            modes = [MODE_GENERATE] + ([MODE_INVARIABLE] if can_invgen else [])
            for k, mode in enumerate(modes):
                self.tasks.append((mi, "rank", mode, sub_seed(self.seed, mi, 1000 + k)))

    def run_pass(self, tracer, clock, cache_dir, out_dir, tag):
        use_cache(cache_dir)
        outputs = []
        for mi, kind, arg, data in self.tasks:
            act, hs, can_invgen = self.modules[mi]
            if kind == "case":
                res = clock.run(_guarded, _lift_case, tracer, act, hs, can_invgen, arg, data)
                outputs.extend(res if isinstance(res, list) else [res])
            else:
                outputs.append(clock.run(_guarded, _lift_rank, tracer, act, hs, arg, data))
        return _collect(outputs, clock)

    cold = warm = run_pass

    def check(self, passes: list[PassResult], c: checks.Checker) -> None:
        first = passes[0].outputs
        for other in passes[1:]:
            c.expect(other.outputs == first, "lift verdicts are identical across passes")
        it = iter(first)
        for mi, kind, arg, smp in self.tasks:
            act, hs, _ = self.modules[mi]
            name = self.descs[mi]["name"]
            if kind == "case":
                for k in range(len(smp)):
                    out = next(it)
                    if isinstance(out, str):
                        continue
                    gen, gen_brute, inv, inv_brute = out
                    c.expect(gen == gen_brute, f"{name} u={arg} sample {k}: gen criterion {gen}, brute {gen_brute}")
                    c.expect(inv == inv_brute, f"{name} u={arg} sample {k}: invgen criterion {inv}, brute {inv_brute}")
                continue
            out = next(it)
            if isinstance(out, str):
                continue
            u_max, witness, brute, overshoots = out
            if arg == MODE_GENERATE:
                gens = [g.images for g in act.group.generators]
                _e, n, m = checks.module_invariants(act.p, gens, act.gen_matrices)
                want = checks.generate_rank_bound(n, m, len(hs))
                c.expect(u_max == want, f"{name}: generate u_max {u_max} != max(0, n(d-1) - m) = {want}")
            c.expect(witness, f"{name} {arg}: witness at u_max = {u_max} fails its criterion")
            c.expect(brute is not False, f"{name} {arg}: witness at u_max = {u_max} fails brute force")
            c.expect(overshoots == 0, f"{name} {arg}: {overshoots} sampled parts pass at u_max + 1")


WORKLOADS = {"survey": Survey, "mc": MonteCarlo, "lift": Lift}
