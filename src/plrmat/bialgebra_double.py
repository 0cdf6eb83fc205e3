"""Coboundary Lie bialgebras, the Drinfeld double, and validated reduction setups.

Given an antisymmetric R on the ambient algebra g and a subalgebra K that is
closed under the induced cobracket

    delta(X) = (ad_X ⊗ 1 + 1 ⊗ ad_X) R,

this module derives the dual bracket on K*, assembles the double algebra
D(K, K*) = K ⊕ K* with its canonical pairing, and validates the full set of
hypotheses needed by the constraint reduction:

  * H ⊆ K a subalgebra, M a complement with [H, M] ⊆ M,
  * H* = ann(M) a subalgebra of K*, M* = ann(H) an ideal of K*,
  * H + H* closed in the double (and itself a valid double of (H, H*)).

Each identity is computed once.  By the Manin-triple theorem the double is
a Lie algebra exactly when K and K* are and delta is a 1-cocycle, which
derive_cobracket certifies, so build_double checks nothing more: the
ad-invariance of its pairing and the antisymmetry of its table reduce
exactly to the antisymmetry of K and K*, checked with them.  The sub-double
is read off the double and inherits all of it.  The Jacobi identity of K*
and the cocycle condition are contractions of structure constants; on the
mostly-zero tables of a root basis they are summed over the nonzero
products alone (see lie_core).

Sign conventions.  The canonical pairing <<X, a>> = <a, X> with K and K*
isotropic forces the mixed brackets of the double:

    [X, a] = ad*_X a - ad*_a X,
    <ad*_X a, Y> = -<a, [X, Y]_K>,   <b, ad*_a X> = -<[a, b]_K*, X>.

The only remaining freedom is the overall sign used to read the K* bracket
off the cobracket; both signs yield a double passing Jacobi and pairing
invariance, so that test cannot fix it.  We use

    <[a, b]_K*, X> = -<a ⊗ b, delta(X)>,

which is the choice under which the reduced r-matrices produced downstream
solve the dynamical Yang-Baxter equation (checked in closed form for the
split rank-one algebra, and numerically everywhere).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bounds
from .errors import (
    DecompositionError,
    DualSubalgebraError,
    IdealError,
    InputShapeError,
    NotSubBialgebraError,
    ReductivityError,
    SubalgebraError,
)
from .lie_core import (
    LieAlgebra,
    Subspace,
    _freeze,
    _max_abs_by_key,
    _mostly_zero,
    _nonzeros,
    _product_count,
    _products,
    _sparse_pays,
    cybe_lhs,
    exceeds,
)

DUAL_BRACKET_SIGN = -1.0


def _brackets(A: LieAlgebra, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Bracket table: out[a, b] = [X[a], Y[b]] for the rows of X and Y."""
    return Y @ np.tensordot(X, A.c, axes=1)


@dataclass(frozen=True, eq=False)
class Bialgebra:
    """A Lie bialgebra (K, delta) together with the dual algebra K*.

    Kstar carries the bracket dual to the cobracket, with the global sign
    DUAL_BRACKET_SIGN discussed in the module docstring, and is the one table
    kept: cobracket[k], delta(e_k) as a dim x dim antisymmetric matrix over
    the K basis, is read off it, so that
    Kstar.c[i,j,k] == DUAL_BRACKET_SIGN * cobracket[k,i,j].
    """

    K: LieAlgebra
    Kstar: LieAlgebra
    cocycle_tol: float = bounds.JACOBI

    def __post_init__(self):
        if self.Kstar.dim != self.K.dim:
            raise InputShapeError("K and Kstar must have equal dimension")
        r = self.cocycle_residual()
        if exceeds(r, self.cocycle_tol):
            raise NotSubBialgebraError(
                f"cobracket is not a cocycle for the bracket: residual {r:.3e}"
            )

    @cached_property
    def cobracket(self) -> np.ndarray:
        """delta(e_k) for each K basis vector e_k, read off Kstar's table."""
        return _freeze(DUAL_BRACKET_SIGN * np.transpose(self.Kstar.c, (2, 0, 1)))

    def cocycle_residual(self) -> float:
        """Max-norm of delta([x,y]) - ad_x.delta(y) + ad_y.delta(x) over basis pairs.

        The cocycle defect of (e_i, e_j) is antisymmetric in (i, j), as the
        structure constants are: swapping i and j negates the bracket and
        exchanges the two ad terms.  So only the pairs j > i are evaluated.
        Tables with few nonzero products (lie_core._sparse_pays) form those
        alone (_cocycle_sparse); others are evaluated one first index i at a
        time over all its j at once, holding only dim³ arrays.
        """
        c, cb = self.K.c, self.cobracket
        n = self.K.dim
        if _sparse_pays(0, 3, n) and _mostly_zero(c) and _mostly_zero(cb):
            cn, bn = _nonzeros(c), _nonzeros(cb)
            count = (_product_count(cn, 2, bn, 0, n) + _product_count(cn, 1, bn, 1, n)
                     + _product_count(bn, 2, cn, 1, n))
            if _sparse_pays(count, 3, n):
                return _cocycle_sparse(cn, bn, n)
        return _cocycle_dense(c, cb)


def _cocycle_dense(c: np.ndarray, cb: np.ndarray) -> float:
    """Bialgebra.cocycle_residual by a loop over the first index i."""
    n = c.shape[0]
    ads = np.swapaxes(c, 1, 2)  # ads[i] is the matrix of ad_{e_i}
    cb_rows = cb.reshape(n, n * n)
    worst = np.zeros(n)  # max defect per first index
    for i in range(n - 1):
        j = slice(i + 1, None)
        lhs = (c[i, j] @ cb_rows).reshape(-1, n, n)  # delta([e_i, e_j]) for every j > i
        rhs = (ads[i] @ cb[j] + cb[j] @ c[i]) - (ads[j] @ cb[i] + cb[i] @ c[j])
        worst[i] = np.abs(lhs - rhs).max()
    return float(worst.max(initial=0.0))  # keeps a NaN


def _cocycle_sparse(cn: tuple, bn: tuple, n: int) -> float:
    """Bialgebra.cocycle_residual from the nonzeros cn of the bracket and bn
    of the cobracket.

    The defect of (e_i, e_j) at entry (a, b) is

        Σ_m c[i,j,m] cb[m,a,b] − T(i,j) + T(j,i),
        T(i,j) = Σ_m c[i,m,a] cb[j,m,b] + cb[j,a,m] c[i,m,b].

    A product of T's sums, with i the first index of its bracket factor and
    j that of its cobracket factor, enters the pair (i, j) with a minus sign
    if i < j, the pair (j, i) with a plus sign if i > j, and no pair j > i if
    i = j.  Every product is keyed by its pair and (a, b), and summed by key.
    """
    (i1, j1, _), (_, a1, b1), p1 = _products(cn, 2, bn, 0, n)
    (i2, _, a2), (j2, _, b2), p2 = _products(cn, 1, bn, 1, n)
    (j3, a3, _), (i3, _, b3), p3 = _products(bn, 2, cn, 1, n)
    i, j = np.concatenate((i2, i3)), np.concatenate((j2, j3))
    a, b = np.concatenate((a2, a3)), np.concatenate((b2, b3))
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    upper, mixed = i1 < j1, i != j
    keys = np.concatenate((
        (((i1 * n + j1) * n + a1) * n + b1)[upper],
        (((lo * n + hi) * n + a) * n + b)[mixed],
    ))
    values = np.concatenate((p1[upper], (np.sign(i - j) * np.concatenate((p2, p3)))[mixed]))
    return _max_abs_by_key(keys, values)


def derive_cobracket(
    G: LieAlgebra,
    R,
    K_embed: Subspace,
    tol: float = bounds.JACOBI,
) -> Bialgebra:
    """Restrict the coboundary cobracket of (G, R) to the subalgebra K.

    The cobracket of each K-basis element is computed in G⊗G and re-expressed
    over the K basis; the K* structure constants are then read off by duality.
    Raises SubalgebraError if K is not closed under the G-bracket and
    NotSubBialgebraError if some delta(X) leaks outside K∧K, if K* fails the
    Jacobi identity or if delta is no cocycle.  tol bounds all four checks.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (G.dim, G.dim):
        raise InputShapeError(f"R must be {G.dim}x{G.dim}, got {R.shape}")
    if exceeds(np.max(np.abs(R + R.T), initial=0.0), bounds.ANTISYM_TOL):
        raise InputShapeError("R must be antisymmetric")
    if K_embed.ambient_dim != G.dim:
        raise InputShapeError("K must live in the ambient algebra")
    P = K_embed.basis  # (n, N)
    n = K_embed.dim
    pinv = K_embed.pinv  # maps G coordinates to K coordinates
    ad_rows = np.tensordot(P, G.c, axes=1)  # ad_rows[k, j] = [P[k], e_j]

    # closure of K and its structure constants
    brackets = (P @ ad_rows).reshape(n * n, G.dim)  # [P[a], P[b]]
    coords = brackets @ pinv.T
    resid = float(np.max(np.abs(coords @ P - brackets), initial=0.0))
    scale = 1.0 + float(np.max(np.abs(brackets), initial=0.0))
    if exceeds(resid, tol * scale):
        raise SubalgebraError(
            f"K is not closed under the ambient bracket: residual {resid:.3e}"
        )
    # Jacobi of K is that of G restricted to a closed subspace
    K = LieAlgebra(coords.reshape(n, n, n), jacobi_tol=np.inf)

    # delta(X) = (ad_X ⊗ 1 + 1 ⊗ ad_X) R for each K basis vector, over the K basis
    ads = np.swapaxes(ad_rows, 1, 2)  # ads[k]: ad of P[k] on G
    d_g = ads @ R + R @ ad_rows
    cobracket = pinv @ d_g @ pinv.T
    leak = np.max(np.abs(P.T @ cobracket @ P - d_g), axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(exceeds(leak, tol * (1.0 + np.max(np.abs(d_g), axis=(1, 2), initial=0.0))))
    if bad.size:
        k = bad[0]
        raise NotSubBialgebraError(
            f"cobracket of K basis vector {k} leaks outside K∧K: residual {leak[k]:.3e}"
        )

    c_star = DUAL_BRACKET_SIGN * np.transpose(cobracket, (1, 2, 0))
    try:
        Kstar = LieAlgebra(c_star, jacobi_tol=tol)
    except Exception as exc:
        raise NotSubBialgebraError(f"dual bracket is not a Lie bracket: {exc}") from exc
    return Bialgebra(K=K, Kstar=Kstar, cocycle_tol=tol)


@dataclass(frozen=True, eq=False)
class DoubleAlgebra:
    """The double D(K, K*) with its canonical pairing.

    Basis order is the K basis followed by the K* basis; this ordering is part
    of the file-format contract.  The pairing matrix couples the two halves by
    the identity and both halves are isotropic.
    """

    D: LieAlgebra
    pairing: np.ndarray
    n: int

    def __post_init__(self):
        if self.D.dim != 2 * self.n:
            raise InputShapeError("double must have dimension 2n")
        object.__setattr__(self, "pairing", _freeze(self.pairing))

    @property
    def dim(self) -> int:
        return 2 * self.n

    def embed_K(self, v) -> np.ndarray:
        out = np.zeros(self.dim)
        out[: self.n] = v
        return out

    def embed_Kstar(self, a) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.n :] = a
        return out

    def comp_Kstar(self, w) -> np.ndarray:
        return np.asarray(w)[self.n :]

    def pair(self, u, v) -> float:
        return float(np.asarray(u) @ self.pairing @ np.asarray(v))

    def invariance_residual(self) -> float:
        """Max-norm of <<[Z,A],B>> + <<A,[Z,B]>> over all basis triples.

        Two products of c[(z, a), k] with the pairing: the second term is the
        first taken against pairingᵀ with its last two axes swapped.
        """
        c, p = self.D.c, self.pairing
        d = self.dim
        c_pairs = c.reshape(d * d, d)  # [(z, a), k]
        t = (c_pairs @ p).reshape(d, d, d)  # Σ_k c[z,a,k] p[k,b]
        t += (c_pairs @ p.T).reshape(d, d, d).transpose(0, 2, 1)  # Σ_k p[a,k] c[z,b,k]
        return float(np.max(np.abs(t)))


def build_double(B: Bialgebra) -> DoubleAlgebra:
    """Assemble the double of a bialgebra; it needs no check of its own.

    The mixed brackets are the unique ones making the canonical pairing
    ad-invariant.  Jacobi then holds because B is a bialgebra (the
    Manin-triple theorem), so no Jacobiator is computed.  Neither is the
    ad-invariance of the pairing nor the antisymmetry of the table: of the
    eight blocks of (K|K*)³, six cancel exactly by construction, and the
    other two are the antisymmetry defects of the K and K* tables, which
    derive_cobracket has checked at bounds.ANTISYM_TOL.  So both residuals equal
    the larger of those two defects, bit for bit.
    """
    n = B.K.dim
    cK, cS = B.K.c, B.Kstar.c
    c = np.zeros((2 * n, 2 * n, 2 * n))
    c[:n, :n, :n] = cK
    c[n:, n:, n:] = cS
    # [e_i, eps^j]: K*-part -c_K[i,k,j] on eps^k, K-part c_S[j,l,i] on e_l
    c[:n, n:, n:] = -np.transpose(cK, (0, 2, 1))
    c[:n, n:, :n] = np.transpose(cS, (2, 0, 1))
    c[n:, :n, :] = -np.swapaxes(c[:n, n:, :], 0, 1)

    pairing = np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(n))  # K and K* isotropic, dual
    return DoubleAlgebra(LieAlgebra(c, antisym_tol=np.inf, jacobi_tol=np.inf), pairing, n)


@dataclass(frozen=True, eq=False)
class ReductionSetup:
    """Validated bundle consumed by the reduction pipeline.

    Coordinates: vectors over K use the rows of K_embed as basis; elements of
    K* use the dual basis of that same K basis.  H_in_K / M_in_K express the
    chosen decomposition in K coordinates, Hdual / Mdual are the dual-basis
    rows spanning ann(M) and ann(H).  ``double`` is D(K, K*) and
    ``sub_double`` the double of (H, H*) realized on the subspace H + H*.

    The rows of [Hdual; Mdual] = inv(w)ᵀ with w = [H_in_K; M_in_K] are the
    dual basis of the rows of w, so the four matrices are also the splitting
    maps: Mdual takes a K vector to its M coordinates, and H_in_K / M_in_K
    take a K* vector to its H* / M* coordinates.  validate_setup inverts w
    once and reads the components of its own checks through these same
    products; every component below is one such product, never a solve.
    """

    G: LieAlgebra
    R: np.ndarray  # (dim G, dim G), antisymmetric
    K_embed: Subspace
    H_embed: Subspace
    M_embed: Subspace
    bialgebra: Bialgebra
    double: DoubleAlgebra
    H_in_K: np.ndarray
    M_in_K: np.ndarray
    Hdual: np.ndarray
    Mdual: np.ndarray
    sub_double: DoubleAlgebra
    sub_embed: np.ndarray  # (2p, 2n): rows embed the sub-double basis into D
    cond_threshold: float  # bound on cond C(λ) at a second-class point of the dual of H

    def __post_init__(self):
        object.__setattr__(self, "R", _freeze(self.R))
        # read-only in place, no copy: every point reads these maps
        for a in (self.H_in_K, self.M_in_K, self.Hdual, self.Mdual, self.sub_embed):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return self.K_embed.dim

    @property
    def dim_H(self) -> int:
        return self.H_embed.dim

    @property
    def dim_M(self) -> int:
        return self.M_embed.dim

    @cached_property
    def sub_restrict(self) -> np.ndarray:
        """(2p, 2n): rows read the sub-double coordinates of a vector of H + H*.

        sub_restrict @ sub_embedᵀ = I.  For λ in the dual of H, Ad_λ keeps
        H + H*, so sub_restrict @ Ad_λ @ sub_embedᵀ is Ad_λ on the double of
        (H, H*).
        """
        restrict = self.sub_double.pairing @ self.sub_embed @ self.double.pairing
        restrict.setflags(write=False)
        return restrict

    @cached_property
    def hstar_ads(self) -> np.ndarray:
        """(p, 2n, 2n): ad on D(K, K*) of each H* basis vector H^a (row a of Hdual).

        These generate the translations of a point of the dual of H along the
        H* basis: along exp(t·H^a)·λ its Ad moves with velocity
        hstar_ads[a] @ Ad, along λ·exp(t·H^a) with Ad @ hstar_ads[a].
        """
        n = self.n
        emb = np.zeros((self.dim_H, 2 * n))
        emb[:, n:] = self.Hdual
        ads = np.einsum("ai,ijk->akj", emb, self.double.D.c)
        ads.setflags(write=False)
        return ads

    @cached_property
    def H_in_G(self) -> np.ndarray:
        """(p, dim G): row a is the H basis vector H_a in G coordinates."""
        return _freeze(self.K_to_G(self.H_in_K))

    @cached_property
    def h_ads(self) -> np.ndarray:
        """(p, dim G, dim G): ad on G of each H basis vector H_a, each from
        its own row, so h_ads[a] is the ad matrix of that vector alone."""
        d = self.G.dim
        ads = [self.G.ad_matrix(self.K_to_G(h)) for h in self.H_in_K]
        return _freeze(np.reshape(ads, (self.dim_H, d, d)))

    @cached_property
    def _cmatrices(self) -> weakref.WeakKeyDictionary:
        """reduction.constraint_matrix's memo for this setup: word -> its row,
        a CMatrix stack of one, each entry held while its word lives."""
        return weakref.WeakKeyDictionary()

    @cached_property
    def anomaly(self) -> np.ndarray:
        """cybe_lhs(G, R): the constant anomaly of R, right side of the dynamical equation."""
        return cybe_lhs(self.G, self.R)

    def K_to_G(self, v) -> np.ndarray:
        """Ambient coordinates of a K-coordinate vector."""
        return np.asarray(v) @ self.K_embed.basis

    def M_component(self, vK) -> np.ndarray:
        """Coordinates over the M basis of the M-part of a K vector (split along H)."""
        return self.Mdual @ np.asarray(vK)

    def Mstar_component(self, aK) -> np.ndarray:
        """Coordinates over the dual M basis of the M*-part of a K* vector."""
        return self.M_in_K @ np.asarray(aK)

    def Hstar_component(self, aK) -> np.ndarray:
        """Coordinates over the dual H basis of the H*-part of a K* vector."""
        return self.H_in_K @ np.asarray(aK)

    def closure_pairing_residuals(self) -> tuple:
        """Pairings <<[H*,H], M>> and <<[H,H*], M*>>, each of which must vanish.

        Vanishing of the two pairings is equivalent to [H, H*] staying inside
        H + H* in the double.
        """
        n, p = self.n, self.dim_H
        br = _brackets(self.double.D, self.sub_embed[:p], self.sub_embed[p:])  # [H_a, H^b]
        r1 = float(np.max(np.abs(br[..., n:] @ self.M_in_K.T), initial=0.0))
        r2 = float(np.max(np.abs(br[..., :n] @ self.Mdual.T), initial=0.0))
        return r1, r2


def _build_sub_double(double: DoubleAlgebra, H_in_K: np.ndarray, Hdual: np.ndarray) -> tuple:
    """The double of (H, H*) on the span H + H* of the big double, and its rows.

    Its brackets are those of the rows read through the splitting map
    sub_pairing @ rows @ double.pairing (sub_restrict): no solve, no re-check.
    """
    p, n = H_in_K.shape
    rows = np.zeros((2 * p, 2 * n))
    rows[:p, :n] = H_in_K
    rows[p:, n:] = Hdual
    pairing = np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(p))
    restrict = pairing @ rows @ double.pairing
    c_sub = _brackets(double.D, rows, rows) @ restrict.T
    return DoubleAlgebra(LieAlgebra(c_sub, jacobi_tol=np.inf), pairing, p), rows


def validate_setup(
    G: LieAlgebra,
    R,
    K_embed: Subspace,
    H_embed: Subspace,
    M_embed: Subspace,
    tol: float = bounds.JACOBI,
    cond_threshold: float = bounds.COND_THRESHOLD,
) -> ReductionSetup:
    """Check every hypothesis of the reduction and return the validated bundle.

    Each failed hypothesis raises a distinct error naming the violated
    condition.  On success the closure of H + H* inside the double has also
    been certified, which makes the sub-double the double of (H, H*).
    cond_threshold is stored on the setup: every point of the reduction is
    tested against it.

    The H and M bases are read over K through the pseudo-inverse of the K
    basis that derive_cobracket computed.  The splitting is solved once:
    after the span check, w = [H_in_K; M_in_K]
    is inverted and its dual basis gives Hdual / Mdual.  Each condition is
    then one bracket table over the relevant bases, multiplied by the
    splitting map that extracts the component which must vanish.
    """
    for name, sub in (("K", K_embed), ("H", H_embed), ("M", M_embed)):
        if sub.ambient_dim != G.dim:
            raise InputShapeError(f"{name} must be a subspace of the ambient algebra")

    bialgebra = derive_cobracket(G, R, K_embed, tol=tol)
    n = K_embed.dim
    in_K = []
    for name, sub in (("H", H_embed), ("M", M_embed)):
        coords = sub.basis @ K_embed.pinv.T
        resid = np.max(np.abs(coords @ K_embed.basis - sub.basis), initial=0.0)
        if exceeds(resid, tol):
            raise DecompositionError(
                f"{name} basis not inside the span of K: residual {resid:.3e}"
            )
        in_K.append(coords)
    H_in_K, M_in_K = in_K
    p, m = H_embed.dim, M_embed.dim
    if p + m != n:
        raise DecompositionError(f"dim H + dim M = {p + m} but dim K = {n}")
    w = np.vstack([H_in_K, M_in_K])
    if n:
        s = np.linalg.svd(w, compute_uv=False)
        if s[-1] <= bounds.RANK_TOL * s[0]:
            raise DecompositionError(
                f"H ⊕ M does not span K (smallest singular value ratio {s[-1] / s[0]:.3e})"
            )

    # dual splitting: rows of inv(w)ᵀ are the dual basis of (H-basis, M-basis)
    duals = np.linalg.inv(w).T
    Hdual, Mdual = duals[:p], duals[p:]
    K, Kstar = bialgebra.K, bialgebra.Kstar

    # H a subalgebra of K: no [H, H] bracket has an M-part
    br = _brackets(K, H_in_K, H_in_K)
    resid = np.max(np.abs(br @ Mdual.T @ M_in_K), axis=2, initial=0.0)
    bad = exceeds(resid, tol * (1.0 + np.max(np.abs(br), axis=2, initial=0.0)))
    if np.any(bad):
        raise SubalgebraError(
            f"H is not closed under the K bracket: residual {resid[bad][0]:.3e}"
        )

    # reductivity [H, M] ⊆ M, measured as the H-component of the bracket
    worst = np.max(np.abs(_brackets(K, H_in_K, M_in_K) @ Hdual.T), initial=0.0)
    if exceeds(worst, tol):
        raise ReductivityError(
            f"[H, M] has a component along H: projection residual {worst:.3e}"
        )

    # H* = ann(M) must be a subalgebra of K*
    worst = np.max(np.abs(_brackets(Kstar, Hdual, Hdual) @ M_in_K.T), initial=0.0)
    if exceeds(worst, tol):
        raise DualSubalgebraError(
            f"ann(M) is not a subalgebra of K*: M*-component {worst:.3e}"
        )

    # M* = ann(H) must be an ideal of K*
    worst = np.max(np.abs(_brackets(Kstar, np.eye(n), Mdual) @ H_in_K.T), initial=0.0)
    if exceeds(worst, tol):
        raise IdealError(f"ann(H) is not an ideal of K*: H*-component {worst:.3e}")

    double = build_double(bialgebra)
    sub_double, sub_embed = _build_sub_double(double, H_in_K, Hdual)

    setup = ReductionSetup(
        G=G,
        R=R,
        K_embed=K_embed,
        H_embed=H_embed,
        M_embed=M_embed,
        bialgebra=bialgebra,
        double=double,
        H_in_K=H_in_K,
        M_in_K=M_in_K,
        Hdual=Hdual,
        Mdual=Mdual,
        sub_double=sub_double,
        sub_embed=sub_embed,
        cond_threshold=cond_threshold,
    )
    r1, r2 = setup.closure_pairing_residuals()
    if exceeds(r1, tol) or exceeds(r2, tol):
        raise SubalgebraError(
            f"[H, H*] leaks outside H + H* in the double: pairings {r1:.3e}, {r2:.3e}"
        )
    return setup
