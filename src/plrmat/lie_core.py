"""Structure-constant Lie algebras and the tensor algebra on g⊗g and g⊗g⊗g.

A Lie algebra is stored as a dense array c with [e_i, e_j] = Σ_k c[i,j,k] e_k.
Everything downstream (doubles, constraint matrices, Yang-Baxter residuals)
is computed from c by contraction, so this module also provides the
three-slot bracket operations entering the classical Yang-Baxter equation

    [R12, R13] + [R12, R23] + [R13, R23]

for antisymmetric R, and the invariance test for 3-tensors.  An element of
g⊗g or g⊗g⊗g is a plain float array of shape (dim, dim) or (dim, dim, dim)
over the basis.  Each of these contractions is a few matrix products over
reshaped views of c and of the tensors, O(dim⁴) work that holds no array
larger than dim³.

The Jacobi check is the one dim⁵ contraction: the Jacobiator has dim⁴
entries, each a sum over dim terms.  It is cyclic in its three indices, so
only one index triple per cyclic orbit is evaluated, which computes each
product of two structure constants once (dim⁵ multiply-adds, not 3·dim⁵),
again holding no array larger than dim³.  A table in a basis of root
vectors is mostly zeros (sl5: 272 of 13824 entries, 3080 nonzero products
against dim⁵ ≈ 8·10⁶ multiply-adds), so when the nonzero products are few
enough to pay for their fixed overhead they are formed one by one and summed
by Jacobiator entry instead (see _sparse_pays); the cocycle check of
bialgebra_double does the same.

All values are immutable after construction: every array an object holds
is read-only.  All operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import bounds
from .errors import InputShapeError, StructureConstantError, SubspaceError

# Costs of the two certificate paths in dense multiply-adds, measured with
# numpy 2.4 on one core: a step of a dense per-index loop costs about as much
# as 2·10⁵ of them in call overhead, one nonzero product about 1.2·10³
# (index bookkeeping and the sort by key), and the nonzero path a fixed
# 5·10⁵ plus 4·10⁵ per contraction it forms.  Tiny tables (dim 3 for the
# Jacobiator, dim 8 for the three contractions of the cocycle) stay dense.
DENSE_STEP_COST = 2e5
PRODUCT_COST = 1.2e3
SPARSE_FIXED_COST = 5e5
SPARSE_TERM_COST = 4e5


def exceeds(r, bound):
    """Whether a residual fails its bound, elementwise: r > bound, and also
    wherever r is NaN or bound is not finite, so a residual or a scale that
    overflowed fails its check instead of passing it."""
    if isinstance(r, np.ndarray) or isinstance(bound, np.ndarray):
        return ~((r <= bound) & (bound < np.inf))  # NaN compares false
    return not (r <= bound and bound < np.inf)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.setflags(write=False)
    return a


def _mostly_zero(t: np.ndarray) -> bool:
    """At most dim² nonzeros: a table in a generic basis has dim³, and then
    has too many nonzero products to count them one by one."""
    return np.count_nonzero(t) <= t.shape[0] ** 2


def _nonzeros(t: np.ndarray) -> tuple:
    """(indices, values) of the nonzero entries of a 3-tensor; indices is (3, nnz)."""
    idx = np.nonzero(t)
    return np.array(idx), t[idx]


def _product_count(s: tuple, a: int, t: tuple, b: int, n: int) -> int:
    """How many pairs of nonzeros of s and t agree in index a of s and index b of t."""
    return int(np.bincount(s[0][a], minlength=n) @ np.bincount(t[0][b], minlength=n))


def _sparse_pays(products: int, terms: int, n: int) -> bool:
    """Whether forming the nonzero products of `terms` contractions one by one
    beats a dense loop of about n steps and n⁵ multiply-adds.  At most n³
    products are formed, so this path too holds only arrays of a few times
    dim³ entries."""
    sparse = SPARSE_FIXED_COST + SPARSE_TERM_COST * terms + PRODUCT_COST * products
    return products <= n**3 and sparse < DENSE_STEP_COST * n + n**5


def _products(s: tuple, a: int, t: tuple, b: int, n: int) -> tuple:
    """Every product of a nonzero of s with a nonzero of t whose index a of s
    equals index b of t: (index rows of the s factors, of the t factors,
    products).  The nonzeros of t are grouped by index b, and each nonzero of
    s is repeated once per member of its group."""
    (si, sv), (ti, tv) = s, t
    order = np.argsort(ti[b], kind="stable")
    counts = np.bincount(ti[b], minlength=n)
    reps = counts[si[a]]
    p = np.repeat(np.arange(sv.size), reps)
    starts = np.cumsum(counts) - counts  # of each group in order
    q = order[np.arange(p.size) + np.repeat(starts[si[a]] - (np.cumsum(reps) - reps), reps)]
    return si[:, p], ti[:, q], sv[p] * tv[q]


def _max_abs_by_key(keys: np.ndarray, values: np.ndarray) -> float:
    """max |Σ values| over each group of equal keys; 0.0 when there are none."""
    if keys.size == 0:
        return 0.0
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return float(np.abs(np.add.reduceat(values[order], starts)).max())


def _jacobi_dense(c: np.ndarray) -> float:
    """The Jacobiator's max-norm by the per-index loop that
    LieAlgebra.jacobi_residual describes."""
    n = c.shape[0]
    buf = np.empty((2, n**3))
    worst = np.empty(n)  # max |J| per first index
    for i in range(n):
        r = n - i
        jac = buf[0, : r * r * n].reshape(r, r, n)  # [j, k, l]
        tmp = buf[1, : r * r * n].reshape(r, r, n)
        c_tail = c[:, i:, :].reshape(n, r * n)  # [m, (z, l)] for z ≥ i, a view
        np.matmul(c[i, i:, :], c_tail, out=jac.reshape(r, r * n))  # A(i,j,k)
        np.matmul(c[i:, i:, :], c[:, i, :], out=tmp)  # A(j,k,i)
        jac += tmp
        np.matmul(c[i:, i, :], c_tail, out=tmp.reshape(r, r * n))  # A(k,i,j) as [k, j, l]
        jac += tmp.transpose(1, 0, 2)
        worst[i] = np.abs(jac, out=tmp).max()
    # an array's max keeps a NaN, which the builtin max would drop
    return float(worst.max())


def _jacobi_sparse(nz: tuple, n: int) -> float:
    """The Jacobiator's max-norm from the nonzeros nz of the table.

    Each product c[x,y,m]·c[m,z,l] is a term of A(x,y,z)_l, and J at an index
    triple is the sum of A over its three rotations.  So each product is
    keyed by the least rotation of (x, y, z) and by l, and the sums by key are
    J on one triple per orbit.  The orbit of (i, i, i) is that triple alone,
    whose J is 3·A: its products count three times.
    """
    (x, y, _), (_, z, l), prod = _products(nz, 2, nz, 0, n)
    xy, yz = x * n + y, y * n + z
    first, second = xy * n + z, yz * n + x
    least = np.minimum(np.minimum(first, second), z * n * n + xy)
    prod[first == second] *= 3.0
    return _max_abs_by_key(least * n + l, prod)


@dataclass(frozen=True, eq=False)
class LieAlgebra:
    """A finite-dimensional real Lie algebra given by structure constants.

    c[i,j,k] is the coefficient of e_k in [e_i, e_j]. Antisymmetry in (i,j)
    and the Jacobi identity are checked at construction; the measured
    residuals are available afterwards through the *_residual methods, and
    the Jacobi residual measured at construction as checked_jacobi.
    jacobi_tol=inf waives the Jacobi check and skips computing the dim⁵
    Jacobiator, for tables whose Jacobi identity is certified elsewhere;
    checked_jacobi is then None.  antisym_tol=inf likewise waives the
    antisymmetry check.  A table with a NaN or an infinity is refused.
    """

    c: np.ndarray
    basis_labels: tuple = ()
    antisym_tol: float = bounds.ANTISYM_TOL
    jacobi_tol: float = bounds.JACOBI
    checked_jacobi: float | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise InputShapeError(
                f"structure constants must be a cubic 3-index array, got shape {c.shape}"
            )
        object.__setattr__(self, "c", _freeze(c))
        n = c.shape[0]
        if not self.basis_labels:
            object.__setattr__(self, "basis_labels", tuple(f"e{i}" for i in range(n)))
        elif len(self.basis_labels) != n:
            raise InputShapeError(
                f"{len(self.basis_labels)} basis labels for dimension {n}"
            )
        if not np.isfinite(c).all():
            raise StructureConstantError("structure constants must be finite numbers")
        if self.antisym_tol < np.inf:  # as for jacobi_tol below
            r = self.antisymmetry_residual()
            if exceeds(r, self.antisym_tol):
                raise StructureConstantError(
                    f"structure constants not antisymmetric: residual {r:.3e} > {self.antisym_tol:.1e}"
                )
        if self.jacobi_tol < np.inf:  # an infinite bound cannot fail
            r = self.jacobi_residual()
            object.__setattr__(self, "checked_jacobi", r)
            if exceeds(r, self.jacobi_tol):
                raise StructureConstantError(
                    f"Jacobi identity fails: residual {r:.3e} > {self.jacobi_tol:.1e}"
                )

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    @staticmethod
    def abelian(dim: int) -> "LieAlgebra":
        return LieAlgebra(np.zeros((dim, dim, dim)))

    def antisymmetry_residual(self) -> float:
        if self.c.size == 0:
            return 0.0
        return float(np.max(np.abs(self.c + np.swapaxes(self.c, 0, 1))))

    def jacobi_residual(self) -> float:
        """Max-norm of J(i,j,k)_l = A(i,j,k) + A(j,k,i) + A(k,i,j), where
        A(x,y,z)_l = Σ_m c^m_xy c^l_mz.

        J is cyclic in (i, j, k) by its definition, whether or not c is
        antisymmetric, so every orbit has a member whose first index is its
        smallest: for each i only j ≥ i, k ≥ i are evaluated, as three matrix
        products, and each A is computed exactly once, about dim⁵
        multiply-adds in all.  Two dim³ buffers are reused for every i.  A
        table with few nonzero products (_sparse_pays) forms those products
        alone and sums them by orbit instead (_jacobi_sparse).
        """
        c = self.c
        n = self.dim
        if c.size == 0:
            return 0.0
        if _sparse_pays(0, 1, n) and _mostly_zero(c):  # else no count can pay
            nz = _nonzeros(c)
            if _sparse_pays(_product_count(nz, 2, nz, 0, n), 1, n):
                return _jacobi_sparse(nz, n)
        return _jacobi_dense(c)

    def _check_vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise InputShapeError(f"expected vector of length {self.dim}, got shape {x.shape}")
        return x

    def bracket(self, x, y) -> np.ndarray:
        """[x, y] in coordinates, bilinear and antisymmetric."""
        x = self._check_vector(x)
        y = self._check_vector(y)
        return np.einsum("i,j,ijk->k", x, y, self.c)

    def ad_matrix(self, x) -> np.ndarray:
        """Matrix M of ad_x, i.e. M @ y == bracket(x, y) for every y."""
        x = self._check_vector(x)
        return np.einsum("i,ijk->kj", x, self.c)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of an ambient coordinate space, spanned by the rows of basis."""

    ambient_dim: int
    basis: np.ndarray  # shape (k, ambient_dim)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[1] != self.ambient_dim:
            raise InputShapeError(
                f"subspace basis must have shape (k, {self.ambient_dim}), got {b.shape}"
            )
        if not np.isfinite(b).all():
            raise SubspaceError("basis entries must be finite numbers")
        object.__setattr__(self, "basis", _freeze(b))
        if b.shape[0] > 0:
            s = np.linalg.svd(b, compute_uv=False)
            if b.shape[0] > b.shape[1] or s[-1] <= bounds.RANK_TOL * s[0]:
                raise SubspaceError(
                    f"basis vectors not linearly independent "
                    f"(smallest/largest singular value {s[-1]:.3e}/{s[0]:.3e})"
                )

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def pinv(self) -> np.ndarray:
        """(dim, ambient_dim): the pseudo-inverse of basisᵀ, computed once.

        v @ pinvᵀ is the least-squares coordinates of an ambient vector v
        over the basis, exact for v in the span.
        """
        return _freeze(np.linalg.pinv(self.basis.T))

    def embed(self, coords) -> np.ndarray:
        """Ambient coordinates of the element with the given basis coordinates."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.dim,):
            raise InputShapeError(f"expected {self.dim} coordinates, got shape {coords.shape}")
        if self.dim == 0:
            return np.zeros(self.ambient_dim)
        return coords @ self.basis


def _bracket_into_first_slot(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """U[..., a, (x, z)] = Σ_b c[a, b, x] t[..., b, z]: e_a bracketed into slot 1 of t.

    One product [(a, x), b] @ t[..., b, z] per tensor of the stack t; each
    mixed bracket term is one more product of U with the other tensor.
    """
    n = c.shape[0]
    return (c.transpose(0, 2, 1).reshape(n * n, n) @ t).reshape(t.shape[:-2] + (n, n * n))


def cybe_lhs(A: LieAlgebra, R) -> np.ndarray:
    """[R12, R13] + [R12, R23] + [R13, R23] as a 3-tensor over the basis of A,
    one (..., dim, dim, dim) tensor per R of a (..., dim, dim) stack.

    For an antisymmetric R this is the modified-Yang-Baxter anomaly; its
    ad-invariance is measured separately by invariance_residual3.  Each
    mixed bracket term is two matrix products over reshaped views, O(dim⁴)
    work on dim³ arrays per R, and the first two share the product U_R.
    """
    r = np.asarray(R, dtype=float)
    n = A.dim
    if r.shape[-2:] != (n, n):
        raise InputShapeError(f"tensor must be {n}x{n}, got {r.shape}")
    cube, rt = r.shape[:-2] + (n, n, n), np.swapaxes(r, -1, -2)
    u = _bracket_into_first_slot(A.c, r)
    # [R12, R23]: Σ_b r[x, b] U_R[b, y, z];  [R12, R13]: Σ_a r[a, y] U_R[a, x, z]
    total = (r @ u).reshape(cube)
    total += (rt @ u).reshape(cube).swapaxes(-3, -2)
    del u  # one stack of dim³ arrays fewer held at once
    # [R13, R23]: Σ_b r[x, b] U_Rᵀ[b, z, y], slot 2 of R the bracketed one
    total += (r @ _bracket_into_first_slot(A.c, rt)).reshape(cube).swapaxes(-2, -1)
    return _freeze(total)


# doubles in one block of invariance_residual3's stacked products: 256 kB, all
# of a dim-8 algebra on 8 tensors at once, small beside the dim⁴ of the largest
INVARIANCE_BLOCK = 1 << 15


def invariance_residual3(A: LieAlgebra, T):
    """Max-norm of (ad_x⊗1⊗1 + 1⊗ad_x⊗1 + 1⊗1⊗ad_x)T over all basis x, one
    per tensor of T (..., dim, dim, dim): a float for one tensor.

    ad_{e_i} acts on each slot as one matrix product against a reshaping of
    T.  A block, all basis vectors of a few tensors or a few of one, holds at
    most INVARIANCE_BLOCK doubles in its dim³ arrays and is one stacked
    product per slot: every slice is one basis vector on one tensor alone.
    """
    t = np.asarray(T, dtype=float)
    n = A.dim
    lead = t.shape[:-3]
    t = t.reshape(math.prod(lead), 1, n, n, n)  # an axis for the basis vectors
    cubes = max(1, INVARIANCE_BLOCK // max(1, n**3))
    block, step = max(1, min(n, cubes)), max(1, cubes // max(1, n))  # basis vectors, tensors
    worst = np.zeros((len(t), n))  # at each block's first index
    for k in range(0, len(t), step):
        at = t[k:k + step]
        slot1 = at.reshape(len(at), 1, n, n * n)  # [a, (y, z)]
        slot2 = at.transpose(0, 1, 3, 2, 4).reshape(len(at), 1, n, n * n)  # [a, (x, z)]
        slot3 = at.reshape(len(at), 1, n * n, n)  # [(x, y), a]
        for i in range(0, n, block):
            ads = A.c[i:i + block]  # ads[b, a, x] = c[i + b, a, x], ad_{e_(i+b)} transposed
            cube = (len(at), len(ads), n, n, n)
            acted = (np.swapaxes(ads, 1, 2) @ slot1).reshape(cube)
            acted += (np.swapaxes(ads, 1, 2) @ slot2).reshape(cube).transpose(0, 1, 3, 2, 4)
            acted += (slot3 @ ads).reshape(cube)
            worst[k:k + step, i] = np.abs(acted, out=acted).max(axis=(1, 2, 3, 4))
    out = worst.max(axis=1, initial=0.0)  # keeps a NaN
    return out.reshape(lead) if lead else float(out[0])
