"""Seeded property suites over the shipped corpus.

verify_props(seed) drives every invariant the package promises:
group-theory bookkeeping (class equation, Lagrange, Frattini
non-generators, quotient laws, determinism), coverage semantics
(exhaustive agreement, monotonicity, conjugation invariance, the
fixed-point-free identity), exact/Monte Carlo consistency and the
restart bounds, cohomology dimension laws, generation-criterion
soundness against brute force, crown laws, and the survey-level bound
checks.  Each check reports how much it looked at and every violation
it found; the report is deterministic for a fixed seed.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cheb import (
    chebotarev_exact,
    chebotarev_montecarlo,
    p_invariable_exact,
    truncated_expectation,
)
from .coverage import coverage_table, fpf_proportion, invariably_generates
from .crowns import (
    _affine_image_rows,
    _make_factor,
    abelian_crown_power_with_embedding,
    build_crown_power_general,
    chief_series,
    corona_decomposition,
    crown_of_factor,
    factors_equivalent,
    verify_sotto,
)
from .errors import CapExceeded, InputError, InvgenError
from .genlift import (
    MODE_GENERATE,
    MODE_INVARIABLE,
    LiftProblem,
    build_dw,
    criterion_verdicts,
    dimen_bound_check,
    invgen_criterion,
    max_lift_rank,
)
from .group import ORDER_CAP, Group, bits_to_indices, load_group
from .harness import agl_trend, read_corpus, realize_descriptor, run_survey, shipped_corpus_path
from .rng import Stream, check_seed
from .subgroups import (
    _record,
    closure_indices,
    frattini,
    maximal_subgroups_up_to_conjugacy,
    minimal_normal_subgroups,
    normal_subgroups,
    quotient_with_map,
    subgroup_conjugates,
    subgroup_lattice,
)

DEFAULT_SEED = 20_260_814


@dataclass
class CheckOutcome:
    suite: str
    name: str
    checked: int
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "checked": self.checked,
            "passed": self.passed,
            "violations": list(self.violations),
        }


@dataclass
class PropertyReport:
    seed: int
    outcomes: list

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "checks": [o.as_dict() for o in self.outcomes],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


class _Corpus:
    """Realized corpus rows shared by the suites; built once per run."""

    def __init__(self, path: str | None = None):
        self.path = path or shipped_corpus_path()
        self.rows = []  # (label, group-or-None, module-or-None, error)
        for desc in read_corpus(self.path):
            label = json.dumps(desc, sort_keys=True)
            try:
                G, family, act = realize_descriptor(desc)
                self.rows.append((G.name, G, act, None))
            except (CapExceeded, InputError, InvgenError) as exc:
                self.rows.append((label, None, None, str(exc)))
        self._quotients = {}

    def groups(self, max_order: int | None = None):
        for name, G, _act, err in self.rows:
            if err is not None or G is None:
                continue
            if max_order is not None and G.order > max_order:
                continue
            yield G

    def modules(self):
        for _name, _G, act, err in self.rows:
            if err is None and act is not None:
                yield act

    def quotient_cached(self, G: Group, N):
        key = (id(G), N.bits)
        if key not in self._quotients:
            self._quotients[key] = quotient_with_map(G, N)
        return self._quotients[key]


def _random_elements(st: Stream, G: Group, k: int) -> list[int]:
    return [st.randbelow(G.order) for _ in range(k)]


# ---------------------------------------------------------------------------
# group-core suite


def _check_class_partition(corpus: _Corpus, st: Stream):
    checked = 0
    bad = []
    for G in corpus.groups():
        classes = G.conjugacy_classes()
        total = sum(c.size for c in classes)
        if total != G.order:
            bad.append(f"{G.name}: class sizes sum to {total}, order {G.order}")
        if classes[0].size != 1 or classes[0].rep != 0:
            bad.append(f"{G.name}: identity class malformed")
        checked += 1
    return checked, bad


def _check_lagrange(corpus: _Corpus, st: Stream):
    checked = 0
    bad = []
    for G in corpus.groups():
        for rec in subgroup_lattice(G):
            if G.order % rec.order:
                bad.append(f"{G.name}: subgroup order {rec.order} does not divide {G.order}")
            checked += 1
    return checked, bad


def _check_frattini_nongenerators(corpus: _Corpus, st: Stream):
    # samples count only when the premise <S u {x}> = G actually holds;
    # Phi(G) is the AND of the lattice's maximal subgroups, a route apart
    # from frattini's maximal classes, and frattini(G) must agree with it
    bad = []
    phis = {}
    for G in corpus.groups():
        bits = (1 << G.order) - 1
        for rec in subgroup_lattice(G):
            if rec.is_maximal:
                bits &= rec.bits
        if frattini(G).bits != bits:
            bad.append(f"{G.name}: frattini(G) differs from the lattice's Phi(G)")
        if bits != 1:
            phis[G] = bits_to_indices(bits, G.order)
    eligible = list(phis)
    checked = 0
    if not eligible:
        return 0, bad
    attempts = 0
    while checked < 200 and attempts < 20_000:
        attempts += 1
        G = st.choice(eligible)
        phi = phis[G]
        x = int(phi[st.randbelow(len(phi))])
        S = _random_elements(st, G, 1 + st.randbelow(3))
        if len(closure_indices(G, S + [x])) != G.order:
            continue
        if len(closure_indices(G, S)) != G.order:
            bad.append(f"{G.name}: {x} is a Frattini element but was needed with {S}")
        checked += 1
    if checked < 200:
        bad.append(f"only {checked} generating samples found in {attempts} attempts")
    return checked, bad


def _check_quotient_homomorphism(corpus: _Corpus, st: Stream):
    groups = [G for G in corpus.groups(max_order=500)]
    checked = 0
    bad = []
    while checked < 1000:
        G = st.choice(groups)
        normals = normal_subgroups(G)
        N = st.choice(normals)
        Q, phi = corpus.quotient_cached(G, N)
        if Q.order * N.order != G.order:
            bad.append(f"{G.name}: |G/N| * |N| != |G| for |N|={N.order}")
            checked += 1
            continue
        a = st.randbelow(G.order)
        b = st.randbelow(G.order)
        left = int(phi[G.mult_index(a, b)])
        right = Q.mult_index(int(phi[a]), int(phi[b]))
        if left != right:
            bad.append(f"{G.name}/{N.order}: map not multiplicative at ({a},{b})")
        checked += 1
    return checked, bad


def _check_descriptor_determinism(corpus: _Corpus, st: Stream):
    descs = [
        {"family": "sym", "n": 4},
        {"family": "dihedral", "n": 6},
        {"family": "agl1", "q": 9},
        {"family": "elemab", "p": 3, "k": 2},
        {"name": "Q8", "degree": 8,
         "generators": [[3, 4, 2, 1, 8, 7, 5, 6], [5, 6, 7, 8, 2, 1, 4, 3]]},
    ]
    checked = 0
    bad = []
    for desc in descs:
        A = load_group(desc)
        B = load_group(desc)
        if not np.array_equal(A._E, B._E):
            bad.append(f"{A.name}: element order differs between runs")
        ca = [(c.rep, c.size) for c in A.conjugacy_classes()]
        cb = [(c.rep, c.size) for c in B.conjugacy_classes()]
        if ca != cb:
            bad.append(f"{A.name}: class ordering differs between runs")
        checked += 1
    return checked, bad


# ---------------------------------------------------------------------------
# invariable-generation suite


def _check_exhaustive_equivalence(corpus: _Corpus, st: Stream):
    checked = 0
    bad = []
    for G in corpus.groups(max_order=120):
        for _ in range(500):
            if G.order <= 60 and st.randbelow(4) == 0:
                k = 1 + st.randbelow(3)
            else:
                k = 1 + st.randbelow(2)
            tup = _random_elements(st, G, k)
            fast = invariably_generates(G, tup)
            slow = invariably_generates(G, tup, exhaustive=True)
            if fast != slow:
                bad.append(f"{G.name}: class-based {fast} vs exhaustive {slow} on {tup}")
            checked += 1
    return checked, bad


def _check_supersequence_monotonicity(corpus: _Corpus, st: Stream):
    groups = list(corpus.groups())
    checked = 0
    bad = []
    while checked < 200:
        G = st.choice(groups)
        tup = _random_elements(st, G, 1 + st.randbelow(3))
        if invariably_generates(G, tup):
            ext = tup + _random_elements(st, G, 1 + st.randbelow(2))
            if not invariably_generates(G, ext):
                bad.append(f"{G.name}: supersequence {ext} of generating {tup} fails")
        checked += 1
    return checked, bad


def _check_conjugation_invariance(corpus: _Corpus, st: Stream):
    groups = list(corpus.groups())
    checked = 0
    bad = []
    while checked < 200:
        G = st.choice(groups)
        tup = _random_elements(st, G, 1 + st.randbelow(3))
        conj = [
            G.mult_index(G.mult_index(G.inv_index(x), g), x)
            for g, x in zip(tup, _random_elements(st, G, len(tup)))
        ]
        if invariably_generates(G, tup) != invariably_generates(G, conj):
            bad.append(f"{G.name}: verdict changed under conjugation of {tup}")
        checked += 1
    return checked, bad


def _check_fpf_identity(corpus: _Corpus, st: Stream):
    # The table's maximal classes come through a minimal normal subgroup,
    # maximal_subgroups_up_to_conjugacy's from the lattice.  Both sort by
    # (order, least bitset in the class), so index m lines up on both
    # sides and each column is checked against the lattice's conjugates.
    checked = 0
    bad = []
    for G in corpus.groups():
        table = coverage_table(G)
        reps = maximal_subgroups_up_to_conjugacy(G)
        lattice_side = [(rep.order, len(subgroup_conjugates(G, rep))) for rep in reps]
        if lattice_side != list(zip(table.maximal_orders, table.maximal_counts)):
            bad.append(f"{G.name}: maximal classes differ between the table and the lattice")
            continue
        n = table.order
        for m, rep in enumerate(reps):
            covered = sum(
                Fraction(table.class_sizes[c], n)
                for c in range(table.num_classes)
                if table.covers[m] >> c & 1
            )
            if fpf_proportion(G, rep) != 1 - covered:
                bad.append(f"{G.name}: fpf identity fails on maximal class {m}")
            checked += 1
    return checked, bad


# ---------------------------------------------------------------------------
# chebotarev suite


def _check_p_invariable_monotone(corpus: _Corpus, st: Stream):
    checked = 0
    bad = []
    for G in corpus.groups():
        prev = p_invariable_exact(G, 0)
        for k in range(1, 51):
            cur = p_invariable_exact(G, k)
            if cur < prev:
                bad.append(f"{G.name}: P_I({k}) < P_I({k - 1})")
                break
            prev = cur
        checked += 1
    return checked, bad


def _check_waiting_identity(corpus: _Corpus, st: Stream):
    checked = 0
    bad = []
    for G in corpus.groups():
        exact = chebotarev_exact(G)
        head, tail = truncated_expectation(G, 400)
        if head + tail != exact.value:
            bad.append(f"{G.name}: head + tail != C(G) exactly")
        n = G.order
        bound = sum(
            (abs(cnt) * Fraction(s, n) ** 400 * Fraction(n, n - s)
             for s, cnt in exact.profile.items()),
            start=Fraction(0),
        )
        if abs(exact.value - head) > bound:
            bad.append(f"{G.name}: truncation at 400 misses the certified tail bound")
        checked += 1
    return checked, bad


def _check_restart_bound(corpus: _Corpus, st: Stream):
    checked = 0
    bad = []
    for G in corpus.groups():
        c = chebotarev_exact(G).value
        for k in range(1, 51):
            pk = p_invariable_exact(G, k)
            if pk > 0 and c > Fraction(k) / pk:
                bad.append(f"{G.name}: C > {k}/P_I({k})")
        checked += 1
    return checked, bad


def _check_mc_consistency(corpus: _Corpus, st: Stream):
    checked = 0
    bad = []
    for G in corpus.groups():
        exact = float(chebotarev_exact(G).value)
        seed = st.randbelow(1 << 62)
        for attempt in range(2):
            mc = chebotarev_montecarlo(G, trials=100_000, seed=seed + attempt)
            if mc.stderr == 0:
                ok = mc.mean == exact
            else:
                ok = abs(mc.mean - exact) < 4 * mc.stderr
            if ok:
                break
        else:
            bad.append(
                f"{G.name}: |{mc.mean} - {exact}| >= 4 * {mc.stderr} twice"
            )
        checked += 1
    return checked, bad


def _check_quotient_monotonicity(corpus: _Corpus, st: Stream):
    checked = 0
    bad = []
    for G in corpus.groups(max_order=500):
        c_g = chebotarev_exact(G).value
        for N in normal_subgroups(G):
            Q, _ = corpus.quotient_cached(G, N)
            if chebotarev_exact(Q).value > c_g:
                bad.append(f"{G.name}: C(G/N) > C(G) at |N| = {N.order}")
            checked += 1
    return checked, bad


# ---------------------------------------------------------------------------
# modlin suite


def _check_cohomology_bound(corpus: _Corpus, st: Stream):
    checked = 0
    bad = []
    for act in corpus.modules():
        if not (act.is_faithful() and act.is_absolutely_irreducible()):
            continue
        n = act.dim // act.end_field().degree
        m = act.h1_dim()
        if 2 * m > n:
            bad.append(f"{act.name}: 2m = {2 * m} > n = {n}")
        checked += 1
    return checked, bad


def _check_coprime_vanishing(corpus: _Corpus, st: Stream):
    checked = 0
    bad = []
    for act in corpus.modules():
        if math.gcd(act.group.order, act.p) == 1:
            if act.h1_dim() != 0:
                bad.append(f"{act.name}: coprime orders but m = {act.h1_dim()}")
            checked += 1
    return checked, bad


def _check_ider_dimension(corpus: _Corpus, st: Stream):
    checked = 0
    bad = []
    for act in corpus.modules():
        der = act.derivation_space()
        fix = act.fixed_space().shape[0]
        ider_dim = der.inner_basis.shape[0]
        if ider_dim != act.dim - fix:
            bad.append(f"{act.name}: dim Ider = {ider_dim} != e*n - dim C_V(H)")
        if act.is_faithful() and act.is_irreducible() and act.group.order > 1:
            # irreducible + faithful forces C_V(H) = 0, so dim_F Ider = n
            if fix != 0 or ider_dim != act.dim:
                bad.append(f"{act.name}: dim_F Ider != n for faithful irreducible")
        checked += 1
    return checked, bad


def _check_cocycle_identity(corpus: _Corpus, st: Stream):
    checked = 0
    bad = []
    for act in corpus.modules():
        G = act.group
        t = G.table
        der = act.derivation_space()
        for x in der.x_basis:
            values = np.vstack([der.evaluate(x, g) for g in range(G.order)])
            ok = True
            for h in range(G.order):
                lhs = values[t[:, h]]
                rhs = (values @ act.matrices[h] + values[h]) % act.p
                if not np.array_equal(lhs, rhs):
                    ok = False
                    break
            if not ok:
                bad.append(f"{act.name}: cocycle identity fails for a basis derivation")
            checked += 1
    return checked, bad


def _check_f_dimension(corpus: _Corpus, st: Stream):
    checked = 0
    bad = []
    for act in corpus.modules():
        e = act.end_field().degree
        der = act.derivation_space()
        for dim in (der.x_basis.shape[0], der.inner_basis.shape[0], act.fixed_space().shape[0]):
            if dim % e:
                bad.append(f"{act.name}: F-closed space has GF-dim {dim}, e = {e}")
            checked += 1
    return checked, bad


# ---------------------------------------------------------------------------
# genlift suite


def _lift_instances(corpus: _Corpus):
    """(act, hs, ambient builder) for every faithful corpus module."""
    out = []
    for act in corpus.modules():
        if not act.is_faithful():
            continue
        H = act.group
        hs = list(H.gen_indices)
        if len(closure_indices(H, hs)) != H.order:
            continue
        out.append((act, hs))
    return out


_WS_BLOCK = 4096  # most ws in one block of _ws_samples


def _ws_samples(p: int, d: int, u: int, dim: int, st: Stream | None, count: int | None = None):
    """Blocks of translation parts ws over GF(p), each of shape
    (B, d, u, dim) with B <= _WS_BLOCK.

    With no count, all p^(d*u*dim) of them in index order: the idx-th
    holds the base-p digits of idx, least significant first, decoded a
    block of indices at a time against the precomputed powers of p.
    With a count, that many, each drawn from st one entry at a time.
    """
    n = d * u * dim
    if count is not None:
        for s in range(0, count, _WS_BLOCK):
            b = min(_WS_BLOCK, count - s)
            draws = [st.randbelow(p) for _ in range(b * n)]
            yield np.array(draws, dtype=np.int64).reshape(b, d, u, dim)
        return
    powers = p ** np.arange(n, dtype=np.int64)
    total = p**n
    for s in range(0, total, _WS_BLOCK):
        idx = np.arange(s, min(s + _WS_BLOCK, total), dtype=np.int64)[:, None]
        yield (idx // powers % p).reshape(len(idx), d, u, dim)


def _check_criterion_soundness(corpus: _Corpus, st: Stream):
    """Criteria vs the explicitly built group V^u x| H.

    Generation is brute-forced by subgroup closure on every instance
    with ambient order <= ORDER_CAP: all ws when |V|^u <= 256, else 500
    random ws.  Invariable generation is brute-forced through the
    ambient's class-coverage test.  Its maximal classes come through a
    minimal normal subgroup, so no ambient builds its own lattice (only
    a simple quotient does, such as A5 under mod_sl24_nat's ambient);
    the |V|^u <= 128 gate on that half is a cost bound, not a need.
    The criteria judge each block of ws in one call, and the block's
    lifted elements are found by one search among the ambient's rows.
    """
    checked = 0
    bad = []
    for act, hs in _lift_instances(corpus):
        d = len(hs)
        p, dim = act.p, act.dim
        can_invgen = invariably_generates(act.group, hs)
        u = 0
        while True:
            u += 1
            npts = p ** (dim * u)
            if npts * act.group.order > ORDER_CAP:
                break
            GA = abelian_crown_power_with_embedding(act, u)[0]
            image_rows = _affine_image_rows(act, u)  # the rows behind embed's indices
            brute_invgen = can_invgen and npts <= 128
            exhaustive = npts <= 256
            for block in _ws_samples(p, d, u, dim, st, None if exhaustive else 500):
                gen = criterion_verdicts(act, hs, block, MODE_GENERATE)
                inv = criterion_verdicts(act, hs, block, MODE_INVARIABLE) if brute_invgen else None
                B = len(block)
                block_idxs = GA._lookup(image_rows(block.reshape(B * d, -1), hs * B)).reshape(B, d)
                for b, ws in enumerate(block):
                    idxs = block_idxs[b].tolist()
                    if gen[b] != (len(closure_indices(GA, idxs)) == GA.order):
                        bad.append(
                            f"{act.name} u={u}: gen criterion disagrees at {ws.tolist()}"
                        )
                    if brute_invgen and inv[b] != invariably_generates(GA, idxs):
                        bad.append(
                            f"{act.name} u={u}: invgen criterion disagrees at {ws.tolist()}"
                        )
                    checked += 1
    return checked, bad


def _check_rank_formula(corpus: _Corpus, st: Stream):
    """The witness at u_max passes its criterion, and no ws at u_max + 1
    does: all of them when there are at most 2^16, else 1000 random.

    Counts the ws checked before the first violation of each mode.
    """
    checked = 0
    bad = []
    for act, hs in _lift_instances(corpus):
        d = len(hs)
        p, dim = act.p, act.dim
        modes = [MODE_GENERATE]
        if invariably_generates(act.group, hs):
            modes.append(MODE_INVARIABLE)
        for mode in modes:
            r = max_lift_rank(act, hs, mode)
            if r.u_max > 0 and not criterion_verdicts(act, hs, r.ws[None], mode)[0]:
                bad.append(f"{act.name} {mode}: witness at u_max = {r.u_max} fails")
            u_over = r.u_max + 1
            n_assign = p ** (dim * d * u_over)
            exhaustive = n_assign <= 2**16
            for block in _ws_samples(p, d, u_over, dim, st, None if exhaustive else 1000):
                hits = criterion_verdicts(act, hs, block, mode)
                if hits.any():
                    k = int(hits.argmax())
                    checked += k
                    bad.append(f"{act.name} {mode}: witness exists past u_max at u = {u_over}")
                    if not exhaustive:
                        # give back the draws of the samples after the hit,
                        # which a loop stopping there would not have made
                        st.j -= (len(block) - k - 1) * d * u_over * dim
                    break
                checked += len(block)
    return checked, bad


def _random_generating_tuple(st: Stream, H, d_lo: int, d_hi: int, guard: int = 4000):
    for _ in range(guard):
        d = d_lo + st.randbelow(d_hi - d_lo + 1)
        hs = [st.randbelow(H.order) for _ in range(d)]
        if len(closure_indices(H, hs)) == H.order:
            return hs
    return None


def _check_dimen_bound(corpus: _Corpus, st: Stream):
    acts = [act for act in corpus.modules() if act.is_faithful()]
    checked = 0
    bad = []
    while checked < 1000 and acts:
        act = acts[st.randbelow(len(acts))]
        hs = _random_generating_tuple(st, act.group, 1, 4)
        if hs is None:
            bad.append(f"{act.name}: could not sample a generating tuple")
            break
        lhs, rhs, holds = dimen_bound_check(act, hs)
        if not holds:
            bad.append(f"{act.name}: nd - dim(D+W) = {lhs} < {rhs} at {hs}")
        checked += 1
    return checked, bad


def _check_der_dimension(corpus: _Corpus, st: Stream):
    # evaluation at any generating tuple is an F-isomorphism Der -> D
    checked = 0
    bad = []
    for act, _gens in _lift_instances(corpus):
        for _ in range(20):
            hs = _random_generating_tuple(st, act.group, 1, 3)
            if hs is None:
                bad.append(f"{act.name}: could not sample a generating tuple")
                break
            dw = build_dw(act, hs)
            if dw.dim_d_f != dw.n + dw.m:
                bad.append(f"{act.name}: dim_F D = {dw.dim_d_f} != n + m at {hs}")
            checked += 1
    return checked, bad


def _conjugate_lift(act, h, w, x, v):
    """(h, w)^(x, v) in V^u x| H: (h^x, w M_x + v (I - M_{h^x}))."""
    p = act.p
    H = act.group
    hx = H.mult_index(H.mult_index(H.inv_index(x), h), x)
    eye = np.eye(act.dim, dtype=np.int64)
    w2 = (w @ act.matrices[x] + v @ ((eye - act.matrices[hx]) % p)) % p
    return hx, w2


def _check_conjugation_robustness(corpus: _Corpus, st: Stream):
    checked = 0
    bad = []
    for act, hs in _lift_instances(corpus):
        if not invariably_generates(act.group, hs):
            continue
        d = len(hs)
        p, dim = act.p, act.dim
        H = act.group
        for u in (1, 2):
            for _ in range(25):
                ws = np.array(
                    [st.randbelow(p) for _ in range(d * u * dim)],
                    dtype=np.int64,
                ).reshape(d, u, dim)
                base = invgen_criterion(LiftProblem(act, u, hs, ws))
                hs2 = []
                ws2 = np.zeros_like(ws)
                for i in range(d):
                    x = st.randbelow(H.order)
                    v = np.array(
                        [st.randbelow(p) for _ in range(u * dim)], dtype=np.int64
                    ).reshape(u, dim)
                    hx, w2 = _conjugate_lift(act, hs[i], ws[i], x, v)
                    hs2.append(hx)
                    ws2[i] = w2
                conj = invgen_criterion(LiftProblem(act, u, hs2, ws2))
                if base != conj:
                    bad.append(f"{act.name} u={u}: verdict changed under conjugation")
                checked += 1
    return checked, bad


# ---------------------------------------------------------------------------
# crowns suite


def _general_crown_instances():
    # nonabelian socles need |A|^(k-1)|L| > ORDER_CAP already at
    # the smallest candidate (A5 twice), so the k >= 2 instances here are
    # all abelian
    specs = [
        ({"family": "sym", "n": 3}, (2, 3)),
        ({"family": "sym", "n": 4}, (2,)),
        ({"family": "agl1", "q": 5}, (2,)),
        ({"family": "agl1", "q": 7}, (2,)),
    ]
    for desc, ks in specs:
        L = load_group(desc)
        A = minimal_normal_subgroups(L)[0]
        for k in ks:
            yield L, A, k


def _check_crown_order_law(corpus: _Corpus, st: Stream):
    checked = 0
    bad = []
    for L, A, k in _general_crown_instances():
        Lk = build_crown_power_general(L, k)
        if Lk.order != A.order ** (k - 1) * L.order:
            bad.append(f"{L.name} k={k}: order law fails")
        checked += 1
    for act in corpus.modules():
        for u in (1, 2):
            if act.p ** (act.dim * u) * act.group.order > ORDER_CAP:
                continue
            G, _ = abelian_crown_power_with_embedding(act, u)
            if G.order != act.p ** (act.dim * u) * act.group.order:
                bad.append(f"{act.name} u={u}: order law fails")
            checked += 1
    return checked, bad


def _check_coordinate_copies(corpus: _Corpus, st: Stream):
    checked = 0
    bad = []
    for L, A, k in _general_crown_instances():
        if k < 2 or A.order ** (k - 1) * L.order > ORDER_CAP:
            continue
        Lk = build_crown_power_general(L, k)
        trivial = _record(Lk, [0], ())
        copies = []
        a_rows = L._E[A.member_indices()].astype(np.intp)
        for c in range(k):
            # a in copy c: a on points c * deg(L) + x, the other copies fixed
            rows = np.tile(np.arange(Lk.degree), (len(a_rows), 1))
            rows[:, c * L.degree : (c + 1) * L.degree] = a_rows + c * L.degree
            members = Lk._lookup(rows)
            copies.append(_record(Lk, members))
        mins = {m.bits for m in minimal_normal_subgroups(Lk)}
        factors = []
        for rec in copies:
            if rec.bits not in mins:
                bad.append(f"{L.name} k={k}: a coordinate copy is not minimal normal")
            factors.append(_make_factor(Lk, rec, trivial))
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                if not factors_equivalent(Lk, factors[i], factors[j]):
                    bad.append(f"{L.name} k={k}: copies {i} and {j} not equivalent")
        abelian = factors[0].is_abelian
        if not abelian and mins != {rec.bits for rec in copies}:
            bad.append(f"{L.name} k={k}: extra minimal normals beside the copies")
        checked += 1
    return checked, bad


def _frattini_trivial_groups(corpus: _Corpus):
    for G in corpus.groups():
        if G.order > 1 and frattini(G).order == 1:
            yield G


def _corona_map(corpus: _Corpus):
    """(G, crown) pairs plus failures over Frattini-trivial groups; built once."""
    if not hasattr(corpus, "_coronas"):
        pairs = []
        errors = []
        for G in _frattini_trivial_groups(corpus):
            try:
                pairs.append((G, corona_decomposition(G)))
            except (InvgenError, CapExceeded) as exc:
                errors.append(f"{G.name}: corona decomposition failed: {exc}")
        corpus._coronas = (pairs, errors)
    return corpus._coronas


def _check_corona_exists(corpus: _Corpus, st: Stream):
    pairs, errors = _corona_map(corpus)
    bad = list(errors)
    for G, crown in pairs:
        if crown.U is None:
            bad.append(f"{G.name}: crown carries no complement")
        elif crown.U.order * crown.R.order != crown.I.order:
            bad.append(f"{G.name}: |U| |R| != |I|")
        elif (crown.U.bits & crown.R.bits) != 1:
            bad.append(f"{G.name}: U meets R beyond the identity")
    return len(pairs) + len(errors), bad


def _check_relativo(corpus: _Corpus, st: Stream):
    checked = 0
    bad = []
    pairs, _ = _corona_map(corpus)
    while checked < 200 and pairs:
        G, crown = pairs[st.randbelow(len(pairs))]
        tup = _random_elements(st, G, 2 + st.randbelow(2))
        QU, phi_u = corpus.quotient_cached(G, crown.U)
        QR, phi_r = corpus.quotient_cached(G, crown.R)
        inv_u = invariably_generates(QU, [int(phi_u[g]) for g in tup])
        inv_r = invariably_generates(QR, [int(phi_r[g]) for g in tup])
        if inv_u and inv_r and not invariably_generates(G, tup):
            bad.append(f"{G.name}: invariably generates G/U and G/R but not G: {tup}")
        checked += 1
    return checked, bad


def _check_delta_series_count(corpus: _Corpus, st: Stream):
    # one crown per equivalence class of non-Frattini abelian factors;
    # crown_of_factor checks its delta against the class count in both
    # tie-break series, and raises InvgenError when they disagree
    checked = 0
    bad = []
    for G in corpus.groups():
        seen = []
        for A in chief_series(G):
            if A.is_frattini or not A.is_abelian:
                continue
            if any(factors_equivalent(G, A, B) for B in seen):
                continue
            seen.append(A)
            try:
                crown_of_factor(G, A)
            except InvgenError as exc:
                bad.append(f"{G.name}: abelian crown failed: {exc}")
                continue
            checked += 1
    return checked, bad


def _check_sotto_random(corpus: _Corpus, st: Stream):
    checked = 0
    bad = []
    pairs, _ = _corona_map(corpus)
    for G, crown in pairs:
        subgroups = subgroup_lattice(G)  # every subgroup, once
        for _ in range(1000):
            K = subgroups[st.randbelow(len(subgroups))]
            if verify_sotto(G, crown, K) is not True:
                bad.append(f"{G.name}: K of order {K.order} breaks the U/R lemma")
            checked += 1
    return checked, bad


# ---------------------------------------------------------------------------
# harness suite


def _check_survey_determinism(corpus: _Corpus, st: Stream):
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        out1 = os.path.join(tmp, "a.jsonl")
        out2 = os.path.join(tmp, "b.jsonl")
        run_survey(corpus.path, trials=2000, seed=7, out_path=out1, echo=lambda *_: None)
        run_survey(corpus.path, trials=2000, seed=7, out_path=out2, echo=lambda *_: None)
        with open(out1, "rb") as fh:
            b1 = fh.read()
        with open(out2, "rb") as fh:
            b2 = fh.read()
    if b1 != b2:
        bad.append("two identical survey invocations differ at the byte level")
    return 2, bad


def _check_survey_bounds(corpus: _Corpus, st: Stream):
    checked = 0
    bad = []
    rows = run_survey(corpus.path, trials=20_000, seed=st.randbelow(1 << 62),
                      out_path=None, echo=lambda *_: None)
    by_name = {}
    for _name, G, _act, err in corpus.rows:
        if err is None:
            by_name[G.name] = G
    for row in rows:
        if row.error is not None:
            bad.append(f"{row.name}: corpus row errored: {row.error}")
            continue
        if row.order > ORDER_CAP:
            bad.append(
                f"{row.name}: corpus group exceeds the order-{ORDER_CAP} survey band"
            )
        ratio = row.ratio_sqrt
        if not (ratio > 0 and math.isfinite(ratio)):
            bad.append(f"{row.name}: ratio_sqrt not finite-positive")
        if ratio > 5.0:
            bad.append(f"{row.name}: C/sqrt(|G|) = {ratio} > 5.0")
        if row.c_exact is not None:
            G = by_name[row.name]
            k = row.min_k_29
            pk = p_invariable_exact(G, k)
            if pk < Fraction(2, 9):
                bad.append(f"{row.name}: P_I(min_k_29) < 2/9")
            if pk > 0 and row.c_exact > Fraction(k) / pk:
                bad.append(f"{row.name}: C > min_k_29 / P_I")
        checked += 1
    return checked, bad


def _check_agl_band(corpus: _Corpus, st: Stream):
    checked = 0
    bad = []
    rows = agl_trend([5, 7, 11, 13])
    for row in rows:
        if not 0.5 <= row["c_over_q"] <= 2.5:
            bad.append(f"AGL(1,{row['q']}): C/q = {row['c_over_q']} outside [0.5, 2.5]")
        checked += 1
    return checked, bad


# ---------------------------------------------------------------------------
# registry and driver


PROPERTY_CHECKS = (
    ("group_core", "class_partition", _check_class_partition),
    ("group_core", "lagrange", _check_lagrange),
    ("group_core", "frattini_nongenerators", _check_frattini_nongenerators),
    ("group_core", "quotient_homomorphism", _check_quotient_homomorphism),
    ("group_core", "descriptor_determinism", _check_descriptor_determinism),
    ("invariable", "exhaustive_equivalence", _check_exhaustive_equivalence),
    ("invariable", "supersequence_monotonicity", _check_supersequence_monotonicity),
    ("invariable", "conjugation_invariance", _check_conjugation_invariance),
    ("invariable", "fixed_point_free_identity", _check_fpf_identity),
    ("chebotarev", "p_invariable_monotone", _check_p_invariable_monotone),
    ("chebotarev", "waiting_time_identity", _check_waiting_identity),
    ("chebotarev", "restart_bound", _check_restart_bound),
    ("chebotarev", "mc_consistency", _check_mc_consistency),
    ("chebotarev", "quotient_monotonicity", _check_quotient_monotonicity),
    ("modlin", "cohomology_bound", _check_cohomology_bound),
    ("modlin", "coprime_vanishing", _check_coprime_vanishing),
    ("modlin", "ider_dimension", _check_ider_dimension),
    ("modlin", "cocycle_identity", _check_cocycle_identity),
    ("modlin", "f_dimension_mod_e", _check_f_dimension),
    ("genlift", "criterion_soundness", _check_criterion_soundness),
    ("genlift", "rank_formula", _check_rank_formula),
    ("genlift", "dimen_inequality", _check_dimen_bound),
    ("genlift", "der_evaluation_dimension", _check_der_dimension),
    ("genlift", "conjugation_robustness", _check_conjugation_robustness),
    ("crowns", "order_law", _check_crown_order_law),
    ("crowns", "coordinate_copies", _check_coordinate_copies),
    ("crowns", "corona_exists", _check_corona_exists),
    ("crowns", "quotient_lifting", _check_relativo),
    ("crowns", "delta_series_count", _check_delta_series_count),
    ("crowns", "sotto_random_subgroups", _check_sotto_random),
    ("harness", "survey_determinism", _check_survey_determinism),
    ("harness", "survey_bounds", _check_survey_bounds),
    ("harness", "agl_band", _check_agl_band),
)


def _check_selectors(only) -> None:
    suites = list(dict.fromkeys(suite for suite, _, _ in PROPERTY_CHECKS))
    checks = {(suite, name) for suite, name, _ in PROPERTY_CHECKS}
    unknown = [
        ".".join(sel) if isinstance(sel, tuple) else str(sel)
        for sel in only
        if sel not in suites and sel not in checks
    ]
    if unknown:
        raise InputError(
            f"no property check matches {', '.join(unknown)}; valid suites:"
            f" {', '.join(suites)} (suite.name selects one check)"
        )


def verify_props(
    seed: int = DEFAULT_SEED,
    corpus_path: str | None = None,
    echo=None,
    only: tuple | None = None,
) -> PropertyReport:
    """Run the property suites; deterministic for a fixed seed.

    only, when given, restricts to (suite, name) pairs or suite names;
    a selector that names no check raises InputError listing the suites.
    """
    check_seed(seed)
    if only is not None:
        _check_selectors(only)
    corpus = _Corpus(corpus_path)
    outcomes = []
    for i, (suite, name, fn) in enumerate(PROPERTY_CHECKS):
        if only is not None and suite not in only and (suite, name) not in only:
            continue
        st = Stream(seed, i)
        checked, violations = fn(corpus, st)
        outcome = CheckOutcome(suite=suite, name=name, checked=checked,
                               violations=violations)
        outcomes.append(outcome)
        if echo is not None:
            flag = "ok" if outcome.passed else "FAIL"
            echo(f"[{flag}] {suite}.{name}: {checked} checked"
                 + ("" if outcome.passed else f", {len(violations)} violations"))
            for v in violations:
                echo(f"      {v}")
    return PropertyReport(seed=seed, outcomes=outcomes)
