"""Constraint functions, the constraint matrix, Dirac brackets, and the
reduced dynamical r-matrices.

A point λ of the dual of H (a word with factors in H* = ann(M)) carries the
antisymmetric constraint-bracket matrix

    C[i,j](λ) = << (Ad_λ M^j)_{M*}, (Ad_λ M^i)_M >>
              = << (Ad_λ M^i)_M, Ad_λ M^j >>        (both forms are computed
                                                     and must agree),

where {M^i} is the basis of the complement M and the subscripts are the
components in the splittings K = H ⊕ M and K* = H* ⊕ M*.  Wherever C is
invertible the constraints are second class and the reduced r-matrix

    rho(λ) = Σ_ij (C^{-1})_ij (Ad_λ M^i)_M ⊗ (Ad_λ M^j)_M

is defined.  Numerically that open set is where cond C(λ) is at most the
setup's cond_threshold: every function that reads C^{-1} checks it on each
request, and the sampler draws only such points.

Evaluation is a few dense products per point: the moved basis Ad_λ M^i is
one product of the K columns of Ad_λ with M_in_Kᵀ, its components are
products with the splitting maps the ReductionSetup holds (Mdual for the
M-part, M_in_K for the M*-part), both forms of C are one product each, and
rho is one solve against C.  The CMatrix of a point is
built once per (setup, word) and memoised weakly; every consumer reads the
point's solve, Ad_λ^{-1}, N_i, Ad velocity and rho jet from it, each made
on first use.  rho and its derivatives are plain (dim G, dim G) arrays, and
every array a CMatrix holds or caches is read-only, so no caller can change
what a later call returns.

sample_hstar_points evaluates a block of draws as one stacked pass: one
expm over the stack of their ad matrices, every product, the SVD and the
maxima of C over the stack, and one solve for rho over the accepted
points, filled into each point's CMatrix.  A draw that may be numerically
singular (bounds.MAX_AD_COND) is a miss before its expm, and a slice whose
Ad or C is not finite has cond inf.  A single word (hstar_word,
constraint_matrix on a word not yet seen) is the stack of one, through the
same kernels, so a point's Ad, C and rho do not depend on how it was made.

rho is antisymmetric and supported on M⊗M, and can equivalently be written
as -Σ_i N_i(λ) ⊗ M^i = Σ_i M^i ⊗ N_i(λ) through the unique vectors N_i(λ)
in M with  Ad_λ^{-1} M_i = (Ad_λ^{-1} N_i(λ))_{M*}.

The Dirac bracket of functions F1, F2 on the dual of H (extended to the
ambient dual group as constant along the exp(M*) directions) is

    {F1,F2}* = {f1,f2} - Σ_ij {f1, ξ_i} (C^{-1})_ij {ξ_j, f2},

with the constraint gradients known in closed form: grad' ξ_i = M^i and
grad ξ_i = (Ad_λ M^i)_M.  The brackets take gradient arrays, never
functions: for an l·Ad·r function each gradient is l·V·r for a velocity V
of Ad_λ, and _row_gradients makes them for a whole stack of functions in
one contraction.  The factors {f1, ξ_i} are constraint_pb_check's, so the
check that they vanish certifies the very factor the correction uses.  The
Dirac bracket must reproduce the Poisson bracket computed natively in the
double of (H, H*), read on a point of the dual of H as
sub_restrict·Ad_λ·sub_embedᵀ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from . import bounds
from .bialgebra_double import ReductionSetup
from .dual_group import GroupWord
from .errors import (
    CDegenerateError,
    ConsistencyError,
    InputShapeError,
    SamplingExhaustedError,
)
from .lie_core import _freeze


def _bound_text(x: float) -> str:
    """A bound as its literal would be written: 1e-9, not 1e-09."""
    return np.format_float_scientific(x, trim="-", exp_digits=1)


@dataclass(frozen=True, eq=False)
class CMatrix:
    """Constraint-bracket matrix at a point, with its conditioning data.

    Its solve, Ad_λ^{-1}, N_i, Ad velocity and rho jet are computed on first
    use; it holds the word's Ad matrix but never the word, which keys its memo.
    """

    setup: ReductionSetup = field(repr=False)
    ad: np.ndarray = field(repr=False)  # Ad_λ on the double
    entries: np.ndarray
    cond: float
    antisym_residual: float
    form_agreement: float
    m_parts: np.ndarray  # rows: (Ad_λ M^i)_M in K coordinates
    kstar_parts: np.ndarray  # rows: (Ad_λ M^i)_{K*} in dual K coordinates

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    def diagnosis(self) -> str:
        """Why the point is not second class under the setup's
        cond_threshold, or "ok" where it is."""
        if self.m == 0:
            return "ok"
        if self.m % 2 == 1:
            return (
                f"odd-dimensional complement (dim M = {self.m}); an antisymmetric "
                "matrix of odd size is always singular"
            )
        threshold = self.setup.cond_threshold
        if not np.isfinite(self.cond) or self.cond > threshold:
            return f"condition number {self.cond:.3e} exceeds threshold {threshold:.1e}"
        return "ok"

    @cached_property
    def solved(self) -> tuple:
        """(rho, X) with X = C⁻¹a by one solve, for the rows a = (Ad_λ M^i)_M over G.

        Sampled points have it filled by sample_hstar_points; any other
        point solves as a stack of one.
        """
        if self.m == 0:
            dim_g = self.setup.G.dim
            return _freeze(np.zeros((dim_g, dim_g))), None
        return _solve_points(self.setup, [self])[0]

    @cached_property
    def velocity(self) -> np.ndarray:
        """(2p, 2n, 2n): Ad_λ's velocity along the left, then right, H* translations."""
        ads = self.setup.hstar_ads
        v = np.concatenate([ads @ self.ad, self.ad @ ads])
        v.setflags(write=False)
        return v

    @cached_property
    def jet(self) -> RhoJet:
        """rho with its exact derivatives along the H* basis (see rho_jet)."""
        S = self.setup
        if self.m == 0:
            return RhoJet.zero(S.dim_H, S.G.dim)
        value, x = self.solved
        d_m, d_kstar = _moved_basis(S, self.velocity)
        d_c = d_m @ self.kstar_parts.T + self.m_parts @ np.swapaxes(d_kstar, -1, -2)
        t = np.swapaxes(S.K_to_G(d_m), -1, -2) @ x  # a'ᵀX
        d_rho = t - np.swapaxes(t, -1, -2) + x.T @ d_c @ x
        d_rho.setflags(write=False)
        p = S.dim_H
        return RhoJet(value, d_rho[:p], d_rho[p:])

    @cached_property
    def ad_inverse(self) -> np.ndarray:
        """Ad_λ^{-1} on the double, inverted once per point."""
        inv = np.linalg.inv(self.ad)
        inv.setflags(write=False)
        return inv

    @cached_property
    def n_matrix(self) -> np.ndarray:
        """The unique N_i in M with Ad_λ^{-1} M_i = (Ad_λ^{-1} N_i)_{M*}, as rows.

        One row per dual basis element M_i, in K coordinates.  All N_i come
        from one solve against the moved complement basis; the defining
        relation is verified to bounds.N_RELATION_TOL for each of them after
        the solve.
        """
        S = self.setup
        n, m = S.n, S.dim_M
        if m == 0:
            return _freeze(np.zeros((0, n)))
        inv_ad = self.ad_inverse
        # column j: M*-coordinates of (Ad^{-1} M^j)_{M*}
        e_mat = S.M_in_K @ inv_ad[n:, :n] @ S.M_in_K.T
        # solvability guard only: every reader enforces second-class membership
        # through C, so this fires solely on numerically singular systems
        s = np.linalg.svd(e_mat, compute_uv=False)
        if s[-1] <= 0.0 or s[0] / s[-1] > bounds.N_SOLVE_COND:
            raise CDegenerateError(
                f"moved complement basis is numerically singular "
                f"(condition {s[0] / max(s[-1], bounds.COND_MESSAGE_FLOOR):.3e})"
            )
        # column i: Ad^{-1} M_i in the double, and its M*-coordinates
        targets = inv_ad[:, n:] @ S.Mdual.T
        N = np.linalg.solve(e_mat, S.M_in_K @ targets[n:]).T @ S.M_in_K
        # full residual of the defining relation in double coordinates; the
        # solve fixes the M* component, so this certifies that Ad^{-1} M_i
        # has no H* leak (which is what makes the relation an equality)
        rhs = S.Mdual.T @ (S.M_in_K @ (inv_ad[n:, :n] @ N.T))
        resid = np.maximum(np.abs(targets[:n]).max(axis=0), np.abs(targets[n:] - rhs).max(axis=0))
        bad = np.flatnonzero(resid > bounds.N_RELATION_TOL * (1.0 + np.abs(targets).max(axis=0)))
        if bad.size:
            i = bad[0]
            raise ConsistencyError(f"defining relation for N_{i} has residual {resid[i]:.3e}")
        N.setflags(write=False)
        return N


def _moved_basis(S: ReductionSetup, ad: np.ndarray):
    """A·M^i for every i, split into components, for A = Ad_λ or a stack of matrices.

    Returns (m_parts, kstar_parts), one row per i (after any leading stack
    axes): the M-component over the K basis and the K*-component over the
    dual basis.  Both are linear in A, so a stack of velocities of Ad_λ gives
    their velocities.
    """
    n = S.n
    moved = ad[..., :, :n] @ S.M_in_K.T  # column i: A·M^i in the double
    m_parts = np.swapaxes(S.Mdual @ moved[..., :n, :], -1, -2) @ S.M_in_K
    return m_parts, np.swapaxes(moved[..., n:, :], -1, -2)


def _build_constraint_matrices(S: ReductionSetup, ads: np.ndarray):
    """Evaluate C at each point of a (B, 2n, 2n) stack of adjoint matrices.

    Every product, the SVD and the maxima run once over the whole stack;
    each slice goes through the same kernels as a stack of one, so a
    point's C does not depend on the draws it was evaluated with.  Yields
    one CMatrix per slice, in order, raising ConsistencyError when the slice
    reached disagrees between the two pairing forms.
    """
    m = S.dim_M
    # a slice whose Ad or C is not finite has cond inf and never reaches the
    # SVD, so the NaN and inf its products make are expected
    with np.errstate(invalid="ignore", over="ignore"):
        m_parts, kstar_parts = _moved_basis(S, ads)
        # << (Ad M^j)_{M*}, (Ad M^i)_M >>: canonical pairing is the coordinate
        # dot product between dual and primal K coordinates
        c_a = m_parts @ np.swapaxes(kstar_parts @ S.M_in_K.T @ S.Mdual, -1, -2)
        # << (Ad M^i)_M, Ad M^j >> picks out the full K*-part of Ad M^j
        c_b = m_parts @ np.swapaxes(kstar_parts, -1, -2)
        scale = 1.0 + np.max(np.abs(c_a), axis=(1, 2), initial=0.0)
        agree = np.max(np.abs(c_a - c_b), axis=(1, 2), initial=0.0)
        anti = np.max(np.abs(c_a + np.swapaxes(c_a, -1, -2)), axis=(1, 2), initial=0.0)
    finite = np.isfinite(ads).all(axis=(1, 2)) & np.isfinite(c_a).all(axis=(1, 2))
    cond = np.where(finite, 0.0, np.inf)
    if m and finite.any():
        # conditioning against the canonical unit scale of the pairing, not
        # just sigma_max: the second-class test must diverge as C -> 0, which
        # is how sampling automatically avoids the degenerate neighbourhood
        # of the identity (where sigma_max/sigma_min can stay bounded)
        s = np.linalg.svd(c_a if finite.all() else c_a[finite], compute_uv=False)
        with np.errstate(divide="ignore"):
            cond[finite] = np.where(s[:, -1] > 0.0, np.maximum(s[:, 0], 1.0) / s[:, -1], np.inf)
    # in place, no copy: each CMatrix holds read-only slices of the stacks
    for a in (c_a, m_parts, kstar_parts):
        a.setflags(write=False)
    for b in range(len(ads)):
        if agree[b] > bounds.FORM_AGREE_TOL * scale[b]:
            raise ConsistencyError(
                f"the two pairing forms of C disagree by {agree[b]:.3e}"
            )
        yield CMatrix(
            setup=S,
            ad=ads[b],
            entries=c_a[b],
            cond=float(cond[b]),
            antisym_residual=float(anti[b]),
            form_agreement=float(agree[b]),
            m_parts=m_parts[b],
            kstar_parts=kstar_parts[b],
        )


def constraint_matrix(S: ReductionSetup, word: GroupWord) -> CMatrix:
    """The constraint-bracket matrix C at the given word, with its per-point data.

    One CMatrix per (setup, word), built on the first request (for sampled
    points, by sample_hstar_points with the rest of its block) and held in
    the setup's memo while the word lives.  Degeneracy is recorded, not raised;
    use check_second_class or rho to act on it.  The two equivalent pairing
    forms of C are both computed and must agree to bounds.FORM_AGREE_TOL.
    """
    memo = S._cmatrices
    C = memo.get(word)
    if C is None:
        C = memo[word] = next(_build_constraint_matrices(S, word.ad[None]))
    return C


def check_second_class(C: CMatrix) -> bool:
    """Membership test for the open set where the constraints are second class,
    under the cond_threshold of C's setup."""
    return C.diagnosis() == "ok"


def _second_class_matrix(S: ReductionSetup, word: GroupWord) -> CMatrix:
    """constraint_matrix at word; CDegenerateError unless second class under
    S.cond_threshold, which is checked on every request."""
    C = constraint_matrix(S, word)
    diag = C.diagnosis()
    if diag != "ok":
        raise CDegenerateError(f"constraint matrix degenerate: {diag}")
    return C


def rho(S: ReductionSetup, word: GroupWord) -> np.ndarray:
    """The reduced dynamical r-matrix at λ, as an antisymmetric (dim G, dim G) array.

    rho = Σ_ij (C^{-1})_ij (Ad_λ M^i)_M ⊗ (Ad_λ M^j)_M, computed with a
    linear solve against C rather than an explicit inverse.
    """
    return _second_class_matrix(S, word).solved[0]


@dataclass(frozen=True, eq=False)
class RhoJet:
    """rho at a point of the dual of H, with its first derivatives.

    left[a] and right[a] are the derivatives of rho along λ ↦ exp(t·H^a)·λ
    and λ ↦ λ·exp(t·H^a) at t = 0, for the H* basis H^a (the rows of Hdual),
    each a (dim G, dim G) array; a derivative along Σ_a y_a H^a is the same
    combination of them.
    """

    value: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @staticmethod
    def zero(dim_h: int, dim_g: int) -> "RhoJet":
        d = _freeze(np.zeros((dim_h, dim_g, dim_g)))
        return RhoJet(_freeze(np.zeros((dim_g, dim_g))), d, d)


def rho_jet(S: ReductionSetup, word: GroupWord) -> RhoJet:
    """rho(λ) with its exact left and right derivatives along the H* basis.

    Along a translation generated by ξ, Ad_λ moves with velocity ad_ξ·Ad_λ
    (left) or Ad_λ·ad_ξ (right).  The moved M-parts a are linear in Ad_λ and
    C is bilinear in it, so with X = C⁻¹a, and aᵀC⁻¹ = −Xᵀ because C is
    antisymmetric,

        ρ' = a'ᵀX − Xᵀa' + XᵀC'X,

    where a' and C' are a and C taken on the velocity: the solve of the value
    and a few products per direction.  C' is read through the form
    << (A M^i)_M, A M^j >>, which equals the other form of C for every
    matrix A, since M pairs to zero with H*.  The value is rho's, bit for bit.
    """
    return _second_class_matrix(S, word).jet


def rho_via_n(S: ReductionSetup, word: GroupWord) -> np.ndarray:
    """rho recomputed from the N_i as -Σ N_i ⊗ M^i.

    The other product order, +Σ M^i ⊗ N_i, is the transpose of this one with
    its sign flipped, so the two orders agree exactly when the result is
    antisymmetric: |a + aᵀ| is bounded by bounds.RHO_ORDERS_TOL relative to
    1 + max|a| and by bounds.RHO_VIA_N_ANTISYM_TOL.  Callers compare it with
    rho separately.  The N_i come from Ad_λ^{-1}, never from the solve
    against C that gives rho.
    """
    n_g = S.K_to_G(_second_class_matrix(S, word).n_matrix)
    m_g = S.K_to_G(S.M_in_K)
    a = -(n_g.T @ m_g)
    anti = np.abs(a + a.T).max(initial=0.0)
    if anti > bounds.RHO_ORDERS_TOL * (1.0 + np.abs(a).max(initial=0.0)):
        raise ConsistencyError("the two product orders for rho disagree")
    tol = bounds.RHO_VIA_N_ANTISYM_TOL
    if anti > tol:
        raise InputShapeError(
            f"rho via N has antisymmetry residual {anti:.3e} > {_bound_text(tol)}"
        )
    return a


def constraint_inverse_operator_residual(S: ReductionSetup, word: GroupWord) -> float:
    """Residual of the identity sending M_k to -N_k through C^{-1}.

    The operator Σ_ij (C^{-1})_ij (Ad M^i)_M <M_k, (Ad M^j)_M> must equal
    -N_k for every k; with M = 0 there is no k, and every λ is second class.
    """
    if S.dim_M == 0:
        return 0.0
    C = _second_class_matrix(S, word)
    # column k: Σ_j (C^{-1})_ij <M_k, (Ad M^j)_M>
    coeffs = np.linalg.solve(C.entries, C.m_parts @ S.Mdual.T)
    return float(np.abs(coeffs.T @ C.m_parts + C.n_matrix).max())


def characterization_identity_residual(S: ReductionSetup, word: GroupWord, u, v) -> float:
    """Residual of the pairing identity characterizing the rho family.

    << (λ^{-1}uλ)_M, λ^{-1}vλ >> = Σ_i << (λ^{-1}uλ)_M, λ^{-1}M^iλ >> ·
                                        << (λ^{-1}vλ)_M, λ^{-1}N_iλ >>
    for u, v in M.  u and v are (k, n) stacks of such vectors in K
    coordinates, one (u, v) pair per row: the largest residual over the
    pairs is returned, with the N_i and Ad_λ^{-1} read once for all of them.
    """
    n = S.n
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if u.ndim != 2 or u.shape[1] != n or v.shape != u.shape:
        raise InputShapeError(f"u and v must be stacks of the same rows of {n} K coordinates")
    C = _second_class_matrix(S, word)
    N, inv_ad = C.n_matrix, C.ad_inverse
    move = inv_ad[:, :n].T  # K row -> its image under Ad_λ^{-1}, in the double
    to_m = S.Mdual.T @ S.M_in_K  # K row -> its M-part
    pu, pv = u @ move, v @ move
    mu, mv = pu[:, :n] @ to_m, pv[:, :n] @ to_m
    # every left side is a K vector, so each pairing reads a K*-part
    lhs = np.sum(mu * pv[:, n:], axis=1)
    t1 = mu @ (S.M_in_K @ move)[:, n:].T
    t2 = mv @ (N @ move)[:, n:].T
    return float(np.abs(lhs - np.sum(t1 * t2, axis=1)).max(initial=0.0))


def _hstar_generators(S: ReductionSetup, coords: np.ndarray) -> np.ndarray:
    """(B, 2n, 2n): ad_x on D(K, K*) for x = Σ_a x_a H^a, one per row of
    coords, summed one H* basis direction at a time, elementwise, so a row's
    ad_x does not depend on the rows drawn with it."""
    hstar_ads = S.hstar_ads
    gen = np.zeros((len(coords),) + hstar_ads.shape[1:])
    for a in range(S.dim_H):
        gen += coords[:, a, None, None] * hstar_ads[a]
    return gen


def _hstar_words(S: ReductionSetup, coords: np.ndarray, gen: np.ndarray) -> tuple:
    """(words, ads): the single-factor word exp(Σ_a x_a H^a) for each row x
    of coords, and the read-only (B, 2n, 2n) stack of their Ad matrices.

    gen is _hstar_generators of coords, and one expm call exponentiates it
    slice by slice.  Each word's Ad is its slice of the stack.
    """
    ads = expm(gen)
    ads.setflags(write=False)
    words = [GroupWord(S.double, (x @ S.Hdual,), ad) for x, ad in zip(coords, ads)]
    return words, ads


def hstar_word(S: ReductionSetup, coords) -> GroupWord:
    """Single-factor word exp(Σ x_a H^a) from H* coordinates: the one-row
    case of the stacked kernel the sampler uses."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (S.dim_H,):
        raise InputShapeError(f"expected {S.dim_H} H* coordinates")
    coords = coords[None]
    return _hstar_words(S, coords, _hstar_generators(S, coords))[0][0]


def _row_gradients(C: CMatrix, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(k, 2p): the gradients at C's point of the functions l·Ad·r, one per
    row l of left and r of right: grad, then grad', over the H* basis.

    Every entry is l·V·r for a velocity V of Ad_λ, so one contraction of the
    stacked rows serves all functions.  Both gradients lie in H.
    """
    return np.sum((left @ C.velocity) * right, axis=-1).T


def dirac_bracket(S: ReductionSetup, word: GroupWord, grad1, grad2) -> np.ndarray:
    """The Dirac bracket {F1, F2}* at λ for each row of grad1 and grad2.

    grad1 and grad2 are (k, p) stacks of grad F1 and grad' F2 over the H*
    basis (_row_gradients), for functions on the dual of H extended to the
    ambient dual group as constant along exp(M*) and bracketed there, with
    the full second-class correction assembled from the closed-form
    constraint gradients: {f1, ξ_i} is constraint_pb_check of grad1.  One
    solve against C serves every row.  The result must match
    native_hstar_bracket to roundoff at second-class points.
    """
    C = _second_class_matrix(S, word)
    n = S.n
    g1, g2p = grad1 @ S.H_in_K, grad2 @ S.H_in_K
    # column k: K*-part of Ad_λ grad' f2 for row k; a K vector pairs with
    # the K*-part of its partner
    moved_g2 = C.ad[n:, :n] @ g2p.T
    plain = np.sum(g1.T * moved_g2, axis=0)
    if C.m == 0:
        return plain
    # {ξ_j, f2} = << (Ad_λ M^j)_M, Ad_λ grad' f2 >>
    b2 = C.m_parts @ moved_g2
    b1 = constraint_pb_check(S, word, grad1)
    return plain - np.sum(b1.T * np.linalg.solve(C.entries, b2), axis=0)


def native_hstar_bracket(S: ReductionSetup, word: GroupWord, grad1, grad2) -> np.ndarray:
    """{F1, F2} computed in the double of (H, H*) for each row: the oracle side.

    The dual-group bracket << grad f1, Ad (grad' f2) >> with Ad the
    restriction sub_restrict·Ad_λ·sub_embedᵀ, paired on the sub-double;
    grad1 and grad2 as for dirac_bracket.
    """
    d = S.sub_double
    embed = np.eye(d.dim)[: S.dim_H]  # rows: the H basis of the sub-double
    sub_ad = S.sub_restrict @ word.ad @ S.sub_embed.T
    moved_g2 = grad2 @ embed @ sub_ad.T
    return np.sum((grad1 @ embed @ d.pairing) * moved_g2, axis=1)


def constraint_pb_check(S: ReductionSetup, word: GroupWord, grad) -> np.ndarray:
    """(k, dim M): {f_k, ξ_i}(λ) for a (k, p) stack of grad f_k over the H*
    basis; it vanishes on the dual of H.

    The constraint gradient is used in closed form (grad' ξ_i = M^i), so
    each entry is << grad f_k, Ad_λ M^i >> with grad f_k in H: one product
    for every row and constraint.  It is the factor {f1, ξ_i} of
    dirac_bracket's correction.
    """
    n = S.n
    return grad @ S.H_in_K @ word.ad[n:, :n] @ S.M_in_K.T


def sample_hstar_points(
    S: ReductionSetup,
    num_points: int,
    seed: int,
    box_radius: float = 1.0,
) -> list:
    """Draw second-class points of the dual of H with a reproducible stream.

    Each point is a single-factor word with H* coordinates uniform in
    [-box_radius, box_radius]; draws failing the second-class test under
    S.cond_threshold are rejected, and after bounds.MAX_SAMPLE_ATTEMPTS
    consecutive rejections sampling stops with SamplingExhaustedError.  A
    draw x is also rejected, before its expm, when the bound e^{2‖ad_x‖₁} on
    cond₁(Ad_λ) exceeds bounds.MAX_AD_COND or is not finite, and after it
    when Ad_λ or C(λ) is not finite (its cond is then inf).

    The draws still missing are taken as one block: one uniform call of
    shape (missing, dim H) gives the same coordinates, row by row, as one
    call per attempt, since the generator fills its output in order.  The
    block's words, Ad matrices and constraint matrices are built in one
    stacked pass and scanned in draw order; a further block is drawn only
    while points are missing.  Each candidate's CMatrix goes into the
    setup's memo, where constraint_matrix reads it for the test.  rho at
    the accepted points is then one stacked solve, filled into each
    point's CMatrix.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    memo = S._cmatrices
    max_attempts = bounds.MAX_SAMPLE_ATTEMPTS
    out, accepted, misses = [], [], 0
    log_cond = np.log(bounds.MAX_AD_COND)
    while len(out) < num_points:
        coords = rng.uniform(-box_radius, box_radius, (num_points - len(out), S.dim_H))
        gen = _hstar_generators(S, coords)
        # 2‖ad_x‖₁, the log of the bound on cond₁(Ad_λ); NaN compares false
        tame = 2.0 * np.max(np.sum(np.abs(gen), axis=1), axis=1, initial=0.0) <= log_cond
        if not tame.all():
            coords, gen = coords[tame], gen[tame]
        words, ads = _hstar_words(S, coords, gen)
        cmats = _build_constraint_matrices(S, ads)
        words = iter(words)
        for ok in tame:
            if misses >= max_attempts:
                raise SamplingExhaustedError(
                    f"no second-class point found for sample {len(out)} "
                    f"after {max_attempts} attempts"
                )
            if not ok:
                misses += 1
                continue
            word = next(words)
            memo[word] = next(cmats)
            C = constraint_matrix(S, word)
            if check_second_class(C):
                out.append(word)
                accepted.append(C)
                misses = 0
            else:
                misses += 1
    if accepted and S.dim_M:
        for C, solved in zip(accepted, _solve_points(S, accepted)):
            C.__dict__["solved"] = solved
    return out


def _solve_points(S: ReductionSetup, cmats: list) -> list:
    """CMatrix.solved of every point in cmats, by one solve over their stack.

    Every C must be invertible: a singular slice fails the whole stack.  Each
    rho must be antisymmetric to bounds.RHO_ANTISYM_TOL, checked once over
    the stack.
    """
    a = S.K_to_G(np.array([C.m_parts for C in cmats]))
    x = np.linalg.solve(np.array([C.entries for C in cmats]), a)
    values = np.swapaxes(a, -1, -2) @ x
    anti = np.max(np.abs(values + np.swapaxes(values, -1, -2)), axis=(1, 2), initial=0.0)
    tol = bounds.RHO_ANTISYM_TOL
    bad = np.flatnonzero(anti > tol)
    if bad.size:
        k = bad[0]
        raise InputShapeError(
            f"rho at point {k} has antisymmetry residual {anti[k]:.3e} > {_bound_text(tol)}"
        )
    values.setflags(write=False)
    x.setflags(write=False)
    return list(zip(values, x))
