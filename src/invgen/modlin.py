"""Group modules over prime fields, endomorphism fields, cohomology.

A ModuleAction pairs a permutation group H with one matrix over GF(p)
per generator, acting on row vectors from the right, so that the map
extends to a homomorphism H -> GL(dim, p) with M(ab) = M(a) M(b).  The
constructor builds the matrix of every element along the Cayley graph
(group._cayley_steps, one product per level and generator) and then
checks every edge; consistency of all edges forces the homomorphism
property for arbitrary products (induction on word length), so a bad
assignment cannot slip through, and the matrices do not depend on the
spanning tree that built them.

For irreducible V the commutant E = End_H(V) is a finite field
F = GF(p^e); derivations (maps d: H -> V with d(ab) = d(a) M(b) + d(b))
modulo the inner ones d_v(h) = v (M(h) - 1) give the first cohomology,
whose F-dimension is the quantity m that the lifting and crown
machinery consume.

Both facts are decided by ranks over GF(p), not by enumerating vectors
or field elements.  The one bound on a module is p < 2^16, which keeps
int64 arithmetic mod p exact; it is checked before p is tested for
primality, so a huge p is refused at once.  Let b_1..b_e span the
commutant E over GF(p).

- E is a field exactly when it is a commutative algebra in which the
  rows vec(b_i^p) have rank e and the rows vec(b_i^p - b_i) have rank
  e - 1.  The Frobenius map x -> x^p is GF(p)-linear on a commutative
  E; it is injective exactly when E has no nilpotents, that is when E
  is a product of finite fields, and then its fixed space has one
  dimension per factor.
- V is irreducible exactly when E is a field and the matrices of all
  of H span a GF(p)-space of dimension dim^2 / e.  If V is irreducible,
  the density theorem makes that span all of End_E(V), whose dimension
  this is.  Conversely the span lies in End_E(V), so it is all of it,
  and End_E(V) moves any nonzero vector onto any other.  When E is not
  a field, V is reducible by Schur's lemma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvgenError, PreconditionError
from .gf import left_kernel, nullspace_right, rank, row_space_basis
from .group import (
    Group, _cayley_steps, _int_array, _int_param, is_prime, load_group, perms_from_images,
)


def _matrix_power_mod(M: np.ndarray, k: int, p: int) -> np.ndarray:
    """M^k mod p by square-and-multiply, reducing after every product."""
    result = np.eye(M.shape[0], dtype=np.int64)
    while k:
        if k & 1:
            result = result @ M % p
        M = M @ M % p
        k >>= 1
    return result


def intertwiners(mats_a, mats_b, p: int) -> np.ndarray:
    """Basis of the T with A T = T B for every pair (A, B), as (e, d, d).

    The pairs are the generator matrices of two d-dimensional modules of
    one group; the T are the module maps from the first to the second.
    """
    d = mats_a[0].shape[0]
    eye = np.eye(d, dtype=np.int64)
    # row-major vec: vec(A X B) = (A kron B^T) vec(X)
    system = np.vstack([
        (np.kron(A, eye) - np.kron(eye, B.T)) % p for A, B in zip(mats_a, mats_b)
    ])
    return nullspace_right(system, p).reshape(-1, d, d)


@dataclass(frozen=True)
class EndField:
    """The endomorphism field F = GF(p^e) of an irreducible module.

    basis holds e commuting matrices spanning E over GF(p); the span
    contains the identity.  All checks that earn the name "field" are
    done in end_field(), not here.
    """

    p: int
    degree: int
    basis: np.ndarray  # (e, dim, dim)

    @property
    def size(self) -> int:
        return self.p**self.degree

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _check_characteristic(p: int) -> None:
    """A module's p must be a prime below 2^16, bound first: trial
    division of a huge p would not finish."""
    if p >= 2**16:
        # (p-1)^2 < 2^32 keeps every int64 matrix product mod p exact
        raise InputError(f"module characteristic {p} is not below 2^16")
    if not is_prime(p):
        raise InputError(f"module characteristic {p} is not prime")


class ModuleAction:
    """A finite group acting linearly on GF(p)^dim by row-vector matrices."""

    def __init__(self, group: Group, p: int, gen_matrices, name: str | None = None):
        _check_characteristic(p)
        self.group = group
        self.p = p
        self.name = name or f"module(p={p}, over {group.name})"
        mats = [_int_array(m, "module matrices") % p for m in gen_matrices]
        if len(mats) != len(group.generators):
            raise InputError(
                f"{len(mats)} matrices for {len(group.generators)} generators"
            )
        if not mats:
            # trivial group: the module is a bare vector space; dim unknown
            raise InputError("module needs at least one generator matrix")
        if any(m.ndim != 2 for m in mats):
            raise InputError("each module matrix must be a list of rows")
        dim = mats[0].shape[0]
        for m in mats:
            if m.shape != (dim, dim):
                raise InputError(f"matrix shapes disagree: {m.shape} vs ({dim}, {dim})")
        if dim < 1:
            raise InputError("module dimension must be at least 1")
        self.dim = dim
        self.gen_matrices = mats
        self.matrices = self._build_and_verify()
        self._end: EndField | None = None
        self._der = None
        self._dw = {}  # genlift.build_dw results by hs index tuple
        self._irr: bool | None = None

    def _build_and_verify(self) -> np.ndarray:
        G = self.group
        p = self.p
        t = G.table
        mats = np.zeros((G.order, self.dim, self.dim), dtype=np.int64)
        mats[0] = np.eye(self.dim, dtype=np.int64)
        for j, kids, parents in _cayley_steps(t, G.gen_indices):
            mats[kids] = mats[parents] @ self.gen_matrices[j] % p
        # every Cayley edge must agree, which pins down all products
        for gi, M in zip(G.gen_indices, self.gen_matrices):
            lhs = mats[t[:, gi]]
            rhs = (mats @ M) % p
            if not np.array_equal(lhs, rhs):
                raise InputError(
                    "generator matrices do not satisfy the group's relations"
                )
        return mats

    def matrix(self, elem) -> np.ndarray:
        return self.matrices[self.group.element_index(elem)]

    def is_faithful(self) -> bool:
        keys = {m.tobytes() for m in self.matrices}
        return len(keys) == self.group.order

    # -- irreducibility and the endomorphism field ----------------------------

    def is_irreducible(self) -> bool:
        """E is a field of degree e and H's matrices span dim^2 / e dimensions."""
        if self._irr is None:
            try:
                e = self.end_field().degree
            except PreconditionError:
                self._irr = False  # E is not a field (Schur's lemma)
            else:
                flat = self.matrices.reshape(-1, self.dim**2)
                self._irr = rank(flat, self.p) * e == self.dim**2
        return self._irr

    def commutant_basis(self) -> np.ndarray:
        """Matrices commuting with the action, as (e, dim, dim)."""
        return intertwiners(self.gen_matrices, self.gen_matrices, self.p)

    def end_field(self) -> EndField:
        """Commutant verified to be a field by the Frobenius rank test.

        The identity and the products b_a b_b lie in the span of the e
        basis matrices exactly when stacking them under it keeps rank e.
        """
        if self._end is not None:
            return self._end
        p, d = self.p, self.dim
        basis = self.commutant_basis()
        e = basis.shape[0]
        flat = basis.reshape(e, d * d)
        if rank(np.vstack([flat, np.eye(d, dtype=np.int64).reshape(1, -1)]), p) != e:
            raise InvgenError("commutant does not contain the identity")
        prods = np.einsum("aij,bjk->abik", basis, basis) % p  # b_a b_b
        if not np.array_equal(prods, prods.transpose(1, 0, 2, 3)):
            raise PreconditionError("commutant is not commutative; not a field")
        if rank(np.vstack([flat, prods.reshape(e * e, d * d)]), p) != e:
            raise InvgenError("commutant is not closed under products")
        frob = np.array([_matrix_power_mod(b, p, p).reshape(-1) for b in basis])
        if rank(frob, p) != e:
            raise PreconditionError(
                "commutant has a nonzero nilpotent element; not a field"
                " (module is reducible?)"
            )
        if rank(frob - basis.reshape(e, -1), p) != e - 1:
            raise PreconditionError(
                "commutant is a product of several fields; not a field"
                " (module is reducible?)"
            )
        self._end = EndField(p=p, degree=e, basis=basis)
        return self._end

    def is_absolutely_irreducible(self) -> bool:
        return self.is_irreducible() and self.end_field().degree == 1

    # -- fixed points and derivations -----------------------------------------

    def fixed_space(self, elems=None) -> np.ndarray:
        """Basis (rows) of the joint fixed space of the given elements.

        With elems=None the whole group is used (its generators pin the
        fixed space down).
        """
        eye = np.eye(self.dim, dtype=np.int64)
        if elems is None:
            mats = self.gen_matrices
        else:
            mats = [self.matrix(e) for e in elems]
        if not mats:
            return eye.copy()
        stacked = np.hstack([(M - eye) % self.p for M in mats])
        return left_kernel(stacked, self.p)

    def derivation_space(self) -> "DerivationSpace":
        if self._der is None:
            self._der = _compute_derivations(self)
        return self._der

    def h1_dim_gf(self) -> int:
        """dim over GF(p) of Der/Ider."""
        der = self.derivation_space()
        return der.dim_gf - der.dim_inner_gf

    def h1_dim(self) -> int:
        """m = dim over F = End_H(V) of the first cohomology."""
        e = self.end_field().degree
        gf = self.h1_dim_gf()
        if gf % e:
            raise PreconditionError(
                f"GF dimension {gf} of the cohomology is not divisible by e={e}"
            )
        return gf // e

    def __repr__(self):
        return f"ModuleAction({self.name}, dim={self.dim}, p={self.p})"


@dataclass
class DerivationSpace:
    """All derivations H -> V, coordinatised by their generator values.

    A derivation is pinned by x = (d(g_1), ..., d(g_k)) stitched into
    one row of length k*dim; expr[h] is the matrix with d(h) = x @
    expr[h].  x_basis rows span the legal x; inner_basis rows span the
    inner derivations' coordinates.
    """

    action: ModuleAction
    x_basis: np.ndarray  # (dim_der, k*dim)
    inner_basis: np.ndarray  # (dim_ider, k*dim)
    expr: np.ndarray  # (|H|, k*dim, dim)

    @property
    def dim_gf(self) -> int:
        return self.x_basis.shape[0]

    @property
    def dim_inner_gf(self) -> int:
        return self.inner_basis.shape[0]

    def evaluate(self, x, elem_idx: int) -> np.ndarray:
        """Value of the derivation with coordinates x at one element."""
        return (np.asarray(x, dtype=np.int64) @ self.expr[int(elem_idx)]) % self.action.p


def _compute_derivations(act: ModuleAction) -> DerivationSpace:
    """Derivations from the Cayley walk: expr[h] follows the spanning tree
    of the walk, d(a g_j) = d(a) M_j + d(g_j), and every Cayley edge then
    constrains x by its defect.  The legal x are the null space of all
    defect columns stacked.  That space, and so its echelon basis
    x_basis, does not depend on the tree; expr[h] may, but x @ expr[h]
    does not for a legal x.
    """
    G = act.group
    p, d = act.p, act.dim
    k = len(act.gen_matrices)
    K = k * d
    t = G.table
    expr = np.zeros((G.order, K, d), dtype=np.int64)
    # unit[j] picks the j-th block d(g_j) out of x
    unit = np.eye(K, dtype=np.int64).reshape(K, k, d).transpose(1, 0, 2)
    for j, kids, parents in _cayley_steps(t, G.gen_indices):
        expr[kids] = (expr[parents] @ act.gen_matrices[j] + unit[j]) % p
    # each column of an edge's defect is one linear constraint on x
    defects = [
        ((expr @ M + unit[j] - expr[t[:, gi]]) % p).transpose(0, 2, 1).reshape(-1, K)
        for j, (gi, M) in enumerate(zip(G.gen_indices, act.gen_matrices))
    ]
    x_basis = nullspace_right(np.vstack(defects), p)
    eye = np.eye(d, dtype=np.int64)
    inner_raw = np.hstack([(M - eye) % p for M in act.gen_matrices])
    inner_basis = row_space_basis(inner_raw, p)
    # inner derivations are derivations; catching drift here is cheap
    if rank(np.vstack([x_basis, inner_basis]), p) != x_basis.shape[0]:
        raise PreconditionError("inner derivation escaped the derivation space")
    return DerivationSpace(
        action=act, x_basis=x_basis, inner_basis=inner_basis, expr=expr
    )


def module_from_descriptor(desc: dict) -> ModuleAction:
    """Build a ModuleAction from a JSON-style descriptor.

    Expected keys: "p", "matrices" (one per listed generator), and
    "group" (any group descriptor).  When the group is given by
    explicit generators, identity generators are dropped together with
    their matrices, which must be identity matrices.
    """
    try:
        p = _int_param(desc, "p")
        mats = list(desc["matrices"])
        gspec = dict(desc["group"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"module descriptor missing or malformed field: {exc}") from exc
    _check_characteristic(p)  # before any matrix is reduced mod p
    name = desc.get("name")
    if "generators" in gspec:
        perms = perms_from_images(gspec["generators"])
        if len(perms) != len(mats):
            raise InputError(
                f"{len(mats)} matrices for {len(perms)} listed generators"
            )
        keep_perms, keep_mats = [], []
        for perm, M in zip(perms, mats):
            if perm.is_identity():
                M = _int_array(M, "module matrices")
                if M.ndim != 2 or not np.array_equal(M % p, np.eye(len(M), dtype=np.int64)):
                    raise InputError("identity generator paired with a non-identity matrix")
                continue
            keep_perms.append(perm)
            keep_mats.append(M)
        gspec["generators"] = [perm.one_based() for perm in keep_perms]
        mats = keep_mats
    group = load_group(gspec)
    return ModuleAction(group, p, mats, name=name)
