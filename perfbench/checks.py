"""Independent oracles for the benchmark's output checks.

Nothing here imports invgen.  Every expected value is derived from a
closed form, a brute-force count over the inputs, or a property the
method must have, so a check never compares the program with a stored
copy of its own output.

Run ``python3 perfbench/checks.py`` to execute the self-test, which
shows that every check accepts a true value and rejects a perturbed one.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction

import numpy as np

MC_SIGMAS = 5


# ---------------------------------------------------------------------------
# closed forms


def prime_divisors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _prime_subsets(n: int):
    """(sign, product) for every nonempty set S of primes dividing n."""
    ps = prime_divisors(n)
    for size in range(1, len(ps) + 1):
        for sub in itertools.combinations(ps, size):
            yield (-1) ** (size + 1), math.prod(sub)


def cheb_cyclic(n: int) -> Fraction:
    """C(C_n) by inclusion-exclusion over the index-p subgroups, p | n.

    k draws fail to generate with probability sum_S (-1)^(|S|+1) d_S^-k,
    d_S the product of the primes in S; summing over k >= 0 gives
    d_S / (d_S - 1) per term.
    """
    return sum((sign * Fraction(d, d - 1) for sign, d in _prime_subsets(n)), Fraction(0))


def pinv_cyclic(n: int, j: int) -> Fraction:
    """P_I(C_n, j) = 1 - sum_S (-1)^(|S|+1) d_S^-j."""
    return 1 - sum((sign * Fraction(1, d**j) for sign, d in _prime_subsets(n)), Fraction(0))


def cheb_elemab(p: int, k: int) -> Fraction:
    """C(C_p^k) = sum_{i<k} 1 / (1 - p^(i-k))."""
    return sum((1 / (1 - Fraction(p) ** (i - k)) for i in range(k)), Fraction(0))


def pinv_elemab(p: int, k: int, j: int) -> Fraction:
    """P_I(C_p^k, j) = prod_{i<k} (1 - p^(i-j)); zero when j < k."""
    return math.prod((1 - Fraction(p) ** (i - j) for i in range(k)), start=Fraction(1))


def least_k(pinv, threshold: Fraction, cap: int = 10_000) -> int:
    """Least k with pinv(k) >= threshold, scanning upward from 0."""
    for k in range(cap):
        if pinv(k) >= threshold:
            return k
    raise ValueError("threshold not reached")


# ---------------------------------------------------------------------------
# group orders


def perm_group_order(gens) -> int:
    """Order of the group generated by 0-based image tuples, by BFS."""
    gens = [tuple(g) for g in gens]
    if not gens:
        return 1
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = tuple(g[x] for x in a)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return len(seen)


def _socle_order(desc: dict) -> int | None:
    """Order of the unique minimal normal subgroup, for the families used."""
    fam = desc.get("family")
    if fam == "agl1":
        return int(desc["q"])  # the translation subgroup
    if fam == "sym" and int(desc["n"]) in (3, 4):
        return int(desc["n"])  # A_3 has order 3, the Klein four-group 4
    return None


def family_order(desc: dict) -> int | None:
    """Expected |G| of one corpus descriptor, or None when no rule applies."""
    if "module" in desc:
        return _module_order(desc["module"], 1)
    if "crownpower" in desc:
        inner = desc["crownpower"]
        return _module_order(inner["module"], int(inner["u"]))
    if "crownpower_general" in desc:
        inner = desc["crownpower_general"]
        base, a = family_order(inner["group"]), _socle_order(inner["group"])
        if base is None or a is None:
            return None
        return a ** (int(inner["k"]) - 1) * base
    if "generators" in desc:
        return perm_group_order([[i - 1 for i in g] for g in desc["generators"]])
    fam = desc.get("family")
    if fam == "cyclic":
        return int(desc["n"])
    if fam == "dihedral":
        return 2 * int(desc["n"])
    if fam == "sym":
        return math.factorial(int(desc["n"]))
    if fam == "alt":
        n = int(desc["n"])
        return math.factorial(n) // 2 if n >= 2 else 1
    if fam == "elemab":
        return int(desc["p"]) ** int(desc["k"])
    if fam == "agl1":
        q = int(desc["q"])
        return q * (q - 1)
    return None


def _module_order(mod: dict, u: int) -> int | None:
    """p^(dim*u) * |H| for V^u x| H."""
    h = family_order(mod["group"])
    if h is None:
        return None
    dim = len(mod["matrices"][0])
    return int(mod["p"]) ** (dim * u) * h


# ---------------------------------------------------------------------------
# module invariants by brute force


def _all_vectors(p: int, dim: int) -> np.ndarray:
    """Every vector of GF(p)^dim, one per row."""
    return np.array(list(itertools.product(range(p), repeat=dim)), dtype=np.int64).reshape(-1, dim)


def module_invariants(p: int, gen_perms, gen_mats) -> tuple[int, int, int]:
    """(e, n, m) of an irreducible right module by counting.

    e: |End_H(V)| = p^e, counted over all dim x dim matrices.
    n: dim / e.
    m: dim_F H^1 = log_p(|Z^1| / |B^1|) / e, where Z^1 is counted by
       trying every assignment of generator values and propagating
       delta(xg) = delta(x) M_g + delta(g) over the Cayley graph, and
       |B^1| = |V| / |C_V(H)|.
    """
    mats = [np.asarray(M, dtype=np.int64) % p for M in gen_mats]
    dim = mats[0].shape[0]
    # End_H(V)
    cands = _all_vectors(p, dim * dim).reshape(-1, dim, dim)
    ok = np.ones(len(cands), dtype=bool)
    for M in mats:
        ok &= np.all((cands @ M) % p == (M @ cands) % p, axis=(1, 2))
    e = round(math.log(int(ok.sum()), p))
    # elements of H with their matrices, by BFS over the generators
    gens = [tuple(g) for g in gen_perms]
    ident = tuple(range(len(gens[0])))
    index = {ident: 0}
    elems = [ident]
    elem_mats = [np.eye(dim, dtype=np.int64)]
    tree = []  # (parent, generator) that first reached each element
    k = 0
    while k < len(elems):
        a = elems[k]
        for gi, g in enumerate(gens):
            b = tuple(g[x] for x in a)
            if b not in index:
                index[b] = len(elems)
                elems.append(b)
                elem_mats.append((elem_mats[k] @ mats[gi]) % p)
                tree.append((k, gi))
        k += 1
    edges = [(index[a], gi, index[tuple(g[x] for x in a)]) for a in elems for gi, g in enumerate(gens)]
    for a, gi, b in edges:
        if not np.array_equal((elem_mats[a] @ mats[gi]) % p, elem_mats[b]):
            raise ValueError("matrices do not define a right action of the generators")
    # Z^1: one candidate per assignment of generator values
    d = len(gens)
    assign = _all_vectors(p, dim * d).reshape(-1, d, dim)
    delta = np.zeros((len(assign), len(elems), dim), dtype=np.int64)
    for child, (parent, gi) in enumerate(tree, start=1):
        delta[:, child] = (delta[:, parent] @ mats[gi] + assign[:, gi]) % p
    good = np.ones(len(assign), dtype=bool)
    for a, gi, b in edges:
        good &= np.all((delta[:, a] @ mats[gi] + assign[:, gi]) % p == delta[:, b], axis=1)
    z1 = int(good.sum())
    vecs = _all_vectors(p, dim)
    fixed = np.ones(len(vecs), dtype=bool)
    for M in mats:
        fixed &= np.all((vecs @ M) % p == vecs, axis=1)
    b1 = len(vecs) // int(fixed.sum())
    h1_gf = round(math.log(z1 // b1, p)) if z1 > b1 else 0
    return e, dim // e, h1_gf // e


def generate_rank_bound(n: int, m: int, d: int) -> int:
    """u_max in generate mode: max(0, n(d-1) - m)."""
    return max(0, n * (d - 1) - m)


# ---------------------------------------------------------------------------
# checks


class Checker:
    """Collects failed checks; ``ok`` is true while none has failed."""

    def __init__(self):
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, cond: bool, what: str) -> None:
        if not cond:
            self.failures.append(what)


def within_sigmas(estimate: float, exact, stderr: float, sigmas: float = MC_SIGMAS) -> bool:
    """|estimate - exact| <= sigmas * stderr."""
    return abs(float(estimate) - float(exact)) <= sigmas * float(stderr)


def binomial_within(p_hat: float, p: Fraction, trials: int, sigmas: float = MC_SIGMAS) -> bool:
    """A success rate lies within sigmas binomial standard errors of p.

    The error is taken from the exact p, so a run that hits p_hat = 0
    or 1 (program stderr 0) is still judged fairly.
    """
    sd = math.sqrt(float(p) * (1 - float(p)) / trials)
    return abs(p_hat - float(p)) <= sigmas * sd + 1e-12


def is_least_k(k: int, pinv, threshold: Fraction) -> bool:
    """pinv(k) >= threshold and pinv(k - 1) < threshold."""
    if k < 0 or pinv(k) < threshold:
        return False
    return k == 0 or pinv(k - 1) < threshold


def self_test() -> list[str]:
    """Failures of the oracles' and checks' own sanity; empty when sound."""
    c = Checker()
    # oracles against hand values and against each other
    c.expect(cheb_cyclic(2) == 2, "C(C_2) = 2")
    c.expect(cheb_cyclic(6) == Fraction(23, 10), "C(C_6) = 2 + 3/2 - 6/5")
    c.expect(cheb_cyclic(8) == 2, "C(C_8) = C(C_2)")
    for p in (2, 3, 5, 7):
        c.expect(cheb_elemab(p, 1) == cheb_cyclic(p), f"C(C_{p}^1) = C(C_{p})")
        c.expect(pinv_elemab(p, 1, 3) == pinv_cyclic(p, 3), f"P_I(C_{p}^1, 3) = P_I(C_{p}, 3)")
    for p, k in ((2, 3), (3, 2), (5, 2)):
        series = sum((1 - float(pinv_elemab(p, k, j)) for j in range(400)))
        c.expect(abs(series - float(cheb_elemab(p, k))) < 1e-9, f"C = sum(1 - P_I) on C_{p}^{k}")
        c.expect(pinv_elemab(p, k, k - 1) == 0, f"P_I(C_{p}^{k}, k-1) = 0")
    series = sum((1 - float(pinv_cyclic(12, j)) for j in range(400)))
    c.expect(abs(series - float(cheb_cyclic(12))) < 1e-9, "C = sum(1 - P_I) on C_12")
    c.expect(family_order({"family": "sym", "n": 4}) == 24, "|S4| = 24")
    c.expect(family_order({"generators": [[2, 3, 1]], "degree": 3}) == 3, "|<(1 2 3)>| = 3")
    c.expect(
        family_order({"crownpower_general": {"group": {"family": "sym", "n": 3}, "k": 3}}) == 54,
        "|S3 crown power k=3| = 3^2 * 6",
    )
    # S3 on GF(2)^2: absolutely irreducible, H^1 = 0, so (e, n, m) = (1, 2, 0)
    s3_gens = [(1, 0, 2), (1, 2, 0)]
    s3_mats = [[[1, 0], [1, 1]], [[0, 1], [1, 1]]]
    c.expect(module_invariants(2, s3_gens, s3_mats) == (1, 2, 0), "S3 on GF(2)^2 invariants")
    # C3 on GF(4) = GF(2)^2: End is GF(4), so e = 2 and n = 1
    c.expect(module_invariants(2, [(1, 2, 0)], [[[0, 1], [1, 1]]]) == (2, 1, 0), "C3 on GF(4) invariants")
    # every check accepts the truth and rejects a perturbed value
    c.expect(within_sigmas(3.81, Fraction(19, 5), 0.01), "sigma check accepts")
    c.expect(not within_sigmas(3.8 + 0.06, Fraction(19, 5), 0.01), "sigma check rejects 6 sigma")
    c.expect(not within_sigmas(3.8001, Fraction(19, 5), 0.0), "sigma check rejects with stderr 0")
    pi = Fraction(3, 10)
    c.expect(binomial_within(0.3, pi, 4096), "binomial check accepts")
    c.expect(not binomial_within(0.3 + 6 * math.sqrt(0.21 / 4096), pi, 4096), "binomial check rejects")
    pinv = lambda j: pinv_elemab(2, 3, j)  # noqa: E731
    k29 = least_k(pinv, Fraction(2, 9))
    c.expect(is_least_k(k29, pinv, Fraction(2, 9)), "least-k check accepts")
    c.expect(not is_least_k(k29 + 1, pinv, Fraction(2, 9)), "least-k check rejects k + 1")
    c.expect(not is_least_k(k29 - 1, pinv, Fraction(2, 9)), "least-k check rejects k - 1")
    c.expect(generate_rank_bound(2, 0, 2) == 2, "rank bound n(d-1) - m")
    c.expect(generate_rank_bound(1, 3, 2) == 0, "rank bound clips at 0")
    return c.failures


if __name__ == "__main__":
    failures = self_test()
    for f in failures:
        print("self-test failed:", f, file=sys.stderr)
    print("self-test:", "ok" if not failures else f"{len(failures)} failed")
    sys.exit(1 if failures else 0)
