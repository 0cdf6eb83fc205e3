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

is defined.  Evaluation is a few dense products per point: the moved basis
Ad_λ M^i is one product of the K columns of Ad_λ with M_in_Kᵀ, its
components are products with the splitting maps the ReductionSetup holds
(Mdual for the M-part, M_in_K for the M*-part), both forms of C are one
product each, and rho is one solve against C.  The CMatrix keeps the moved
M-parts, so rho and the Dirac correction reuse them.

rho is antisymmetric and supported on M⊗M, and can equivalently be written
as -Σ_i N_i(λ) ⊗ M^i = Σ_i M^i ⊗ N_i(λ) through the unique vectors N_i(λ)
in M with  Ad_λ^{-1} M_i = (Ad_λ^{-1} N_i(λ))_{M*}.

The Dirac bracket of functions F1, F2 on the dual of H (extended to the
ambient dual group as constant along the exp(M*) directions) is

    {F1,F2}* = {f1,f2} - Σ_ij {f1, ξ_i} (C^{-1})_ij {ξ_j, f2},

with the constraint gradients known in closed form: grad' ξ_i = M^i and
grad ξ_i = (Ad_λ M^i)_M.  The gradients of F1 and F2 are exact too, read off
the closed-form jets of l·Ad·r functions.  The Dirac bracket must reproduce
the Poisson bracket computed natively in the double of (H, H*), read on a
point of the dual of H as sub_restrict·Ad_λ·sub_embedᵀ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bialgebra_double import ReductionSetup
from .dual_group import GroupWord, ad_of_word
from .errors import (
    CDegenerateError,
    ConsistencyError,
    InputShapeError,
    SamplingExhaustedError,
)
from .lie_core import Tensor2

COND_THRESHOLD = 1e8
FORM_AGREE_TOL = 1e-12
MAX_SAMPLE_ATTEMPTS = 100


@dataclass(frozen=True, eq=False)
class CMatrix:
    """Constraint-bracket matrix at a point, with its conditioning data."""

    entries: np.ndarray
    word: GroupWord
    cond: float
    antisym_residual: float
    form_agreement: float
    m_parts: np.ndarray  # rows: (Ad_λ M^i)_M in K coordinates
    kstar_parts: np.ndarray  # rows: (Ad_λ M^i)_{K*} in dual K coordinates

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    def diagnosis(self, cond_threshold: float = COND_THRESHOLD) -> str:
        if self.m == 0:
            return "ok"
        if self.m % 2 == 1:
            return (
                f"odd-dimensional complement (dim M = {self.m}); an antisymmetric "
                "matrix of odd size is always singular"
            )
        if not np.isfinite(self.cond) or self.cond > cond_threshold:
            return f"condition number {self.cond:.3e} exceeds threshold {cond_threshold:.1e}"
        return "ok"


def _moved_basis(S: ReductionSetup, ad: np.ndarray):
    """A·M^i for every i, split into components, for A = Ad_λ or a stack of matrices.

    Returns (m_parts, kstar_parts, mstar_coords), one row per i (after any
    leading stack axes): the M-component over the K basis, the K*-component
    over the dual basis, and the M*-coordinates of the latter.  All three are
    linear in A, so a stack of velocities of Ad_λ gives their velocities.
    """
    n = S.n
    moved = ad[..., :, :n] @ S.M_in_K.T  # column i: A·M^i in the double
    m_parts = np.swapaxes(S.Mdual @ moved[..., :n, :], -1, -2) @ S.M_in_K
    kstar_parts = np.swapaxes(moved[..., n:, :], -1, -2)
    mstar_coords = kstar_parts @ S.M_in_K.T
    return m_parts, kstar_parts, mstar_coords


def constraint_matrix(S: ReductionSetup, word: GroupWord) -> CMatrix:
    """Evaluate the constraint-bracket matrix C at the given word.

    Degeneracy is recorded, not raised; use check_second_class or rho to act
    on it.  The two equivalent pairing forms of C are both computed and must
    agree to FORM_AGREE_TOL.
    """
    m = S.dim_M
    m_parts, kstar_parts, mstar_coords = _moved_basis(S, word.ad)
    # << (Ad M^j)_{M*}, (Ad M^i)_M >>: canonical pairing is the coordinate
    # dot product between dual and primal K coordinates
    c_a = m_parts @ (mstar_coords @ S.Mdual).T
    # << (Ad M^i)_M, Ad M^j >> picks out the full K*-part of Ad M^j
    c_b = m_parts @ kstar_parts.T
    scale = 1.0 + float(np.max(np.abs(c_a), initial=0.0))
    agree = float(np.max(np.abs(c_a - c_b), initial=0.0))
    if agree > FORM_AGREE_TOL * scale:
        raise ConsistencyError(
            f"the two pairing forms of C disagree by {agree:.3e}"
        )
    if m == 0:
        cond = 0.0
    else:
        # conditioning against the canonical unit scale of the pairing, not
        # just sigma_max: the second-class test must diverge as C -> 0, which
        # is how sampling automatically avoids the degenerate neighbourhood
        # of the identity (where sigma_max/sigma_min can stay bounded)
        s = np.linalg.svd(c_a, compute_uv=False)
        cond = float(max(s[0], 1.0) / s[-1]) if s[-1] > 0.0 else float("inf")
    anti = float(np.max(np.abs(c_a + c_a.T), initial=0.0))
    return CMatrix(
        entries=c_a,
        word=word,
        cond=cond,
        antisym_residual=anti,
        form_agreement=agree,
        m_parts=m_parts,
        kstar_parts=kstar_parts,
    )


def check_second_class(C: CMatrix, cond_threshold: float = COND_THRESHOLD) -> bool:
    """Membership test for the open set where the constraints are second class."""
    return C.diagnosis(cond_threshold) == "ok"


def _require_second_class(C: CMatrix, cond_threshold: float) -> None:
    diag = C.diagnosis(cond_threshold)
    if diag != "ok":
        raise CDegenerateError(f"constraint matrix degenerate: {diag}")


def _solved_m_parts(S: ReductionSetup, word: GroupWord, cond_threshold: float):
    """(C, a, X) at a second-class λ: a holds the rows (Ad_λ M^i)_M in G
    coordinates and X = C⁻¹a, by one solve; a and X are None when M = 0."""
    C = constraint_matrix(S, word)
    _require_second_class(C, cond_threshold)
    if C.m == 0:
        return C, None, None
    a_g = S.K_to_G(C.m_parts)
    return C, a_g, np.linalg.solve(C.entries, a_g)


def rho(
    S: ReductionSetup,
    word: GroupWord,
    cond_threshold: float = COND_THRESHOLD,
) -> Tensor2:
    """The reduced dynamical r-matrix at λ, as an antisymmetric tensor over G.

    rho = Σ_ij (C^{-1})_ij (Ad_λ M^i)_M ⊗ (Ad_λ M^j)_M, computed with a
    linear solve against C rather than an explicit inverse.
    """
    _, a_g, x = _solved_m_parts(S, word, cond_threshold)
    if x is None:
        return Tensor2.zero(S.G.dim)
    return Tensor2(a_g.T @ x, antisymmetric=True, tol=1e-9)


@dataclass(frozen=True, eq=False)
class RhoJet:
    """rho at a point of the dual of H, with its first derivatives.

    left[a] and right[a] are the derivatives of rho along λ ↦ exp(t·H^a)·λ
    and λ ↦ λ·exp(t·H^a) at t = 0, for the H* basis H^a (the rows of Hdual),
    each a (dim G, dim G) array; a derivative along Σ_a y_a H^a is the same
    combination of them.
    """

    value: Tensor2
    left: np.ndarray
    right: np.ndarray

    @staticmethod
    def zero(dim_h: int, dim_g: int) -> "RhoJet":
        d = np.zeros((dim_h, dim_g, dim_g))
        return RhoJet(Tensor2.zero(dim_g), d, d)


def rho_jet(
    S: ReductionSetup,
    word: GroupWord,
    cond_threshold: float = COND_THRESHOLD,
) -> RhoJet:
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
    C, a_g, x = _solved_m_parts(S, word, cond_threshold)
    if x is None:
        return RhoJet.zero(S.dim_H, S.G.dim)
    ads = S.hstar_ads
    velocity = np.concatenate([ads @ word.ad, word.ad @ ads])  # left, then right
    d_m, d_kstar, _ = _moved_basis(S, velocity)
    d_c = d_m @ C.kstar_parts.T + C.m_parts @ np.swapaxes(d_kstar, -1, -2)
    t = np.swapaxes(S.K_to_G(d_m), -1, -2) @ x  # a'ᵀX
    d_rho = t - np.swapaxes(t, -1, -2) + x.T @ d_c @ x
    p = S.dim_H
    return RhoJet(Tensor2(a_g.T @ x, antisymmetric=True, tol=1e-9), d_rho[:p], d_rho[p:])


def reduced_r(
    S: ReductionSetup,
    rfun: Optional[Callable[[GroupWord], Tensor2]],
    word: GroupWord,
    cond_threshold: float = COND_THRESHOLD,
) -> Tensor2:
    """r*(λ) = r(λ) + rho(λ); with r = None this is the pure rho family."""
    p = rho(S, word, cond_threshold)
    if rfun is None:
        return p
    base = rfun(word)
    return Tensor2(base.coeffs + p.coeffs, antisymmetric=True, tol=1e-9)


def _n_matrix(S: ReductionSetup, word: GroupWord, cond_threshold: float):
    """(N, Ad_λ^{-1}, C): the rows of N are the N_i of n_vectors, in K
    coordinates, and C is the constraint matrix the second-class test read."""
    C = constraint_matrix(S, word)
    _require_second_class(C, cond_threshold)
    n, m = S.n, S.dim_M
    inv_ad = np.linalg.inv(word.ad)
    if m == 0:
        return np.zeros((0, n)), inv_ad, C
    # column j: M*-coordinates of (Ad^{-1} M^j)_{M*}
    e_mat = S.M_in_K @ inv_ad[n:, :n] @ S.M_in_K.T
    # solvability guard only: second-class membership was already enforced
    # through C, so this fires solely on numerically singular systems
    s = np.linalg.svd(e_mat, compute_uv=False)
    if s[-1] <= 0.0 or s[0] / s[-1] > 1e8:
        raise CDegenerateError(
            f"moved complement basis is numerically singular "
            f"(condition {s[0] / max(s[-1], 1e-300):.3e})"
        )
    # column i: Ad^{-1} M_i in the double, and its M*-coordinates
    targets = inv_ad[:, n:] @ S.Mdual.T
    N = np.linalg.solve(e_mat, S.M_in_K @ targets[n:]).T @ S.M_in_K
    # full residual of the defining relation in double coordinates; the
    # solve fixes the M* component, so this certifies that Ad^{-1} M_i
    # has no H* leak (which is what makes the relation an equality)
    rhs = S.Mdual.T @ (S.M_in_K @ (inv_ad[n:, :n] @ N.T))
    resid = np.maximum(
        np.max(np.abs(targets[:n]), axis=0), np.max(np.abs(targets[n:] - rhs), axis=0)
    )
    bad = np.flatnonzero(resid > 1e-10 * (1.0 + np.max(np.abs(targets), axis=0)))
    if bad.size:
        i = bad[0]
        raise ConsistencyError(f"defining relation for N_{i} has residual {resid[i]:.3e}")
    return N, inv_ad, C


def n_vectors(
    S: ReductionSetup,
    word: GroupWord,
    cond_threshold: float = COND_THRESHOLD,
) -> list:
    """The unique N_i in M with Ad_λ^{-1} M_i = (Ad_λ^{-1} N_i)_{M*}.

    Returned as K-coordinate vectors, one per dual basis element M_i.  All
    N_i come from one solve against the moved complement basis; the defining
    relation is verified to 1e-10 for each of them after the solve.
    """
    return list(_n_matrix(S, word, cond_threshold)[0])


def rho_via_n(
    S: ReductionSetup,
    word: GroupWord,
    cond_threshold: float = COND_THRESHOLD,
) -> Tensor2:
    """rho recomputed from the N_i in both product orders.

    Both -Σ N_i ⊗ M^i and +Σ M^i ⊗ N_i are assembled; they must agree with
    each other to 1e-9 (and with rho, which callers assert separately).
    """
    n_g = S.K_to_G(_n_matrix(S, word, cond_threshold)[0])
    m_g = S.K_to_G(S.M_in_K)
    a = -(n_g.T @ m_g)
    b = m_g.T @ n_g
    if np.max(np.abs(a - b), initial=0.0) > 1e-9 * (1.0 + np.max(np.abs(a), initial=0.0)):
        raise ConsistencyError("the two product orders for rho disagree")
    return Tensor2(a, antisymmetric=True, tol=1e-8)


def constraint_inverse_operator_residual(
    S: ReductionSetup,
    word: GroupWord,
    cond_threshold: float = COND_THRESHOLD,
) -> float:
    """Residual of the identity sending M_k to -N_k through C^{-1}.

    The operator Σ_ij (C^{-1})_ij (Ad M^i)_M <M_k, (Ad M^j)_M> must equal
    -N_k for every k; with M = 0 there is no k, and every λ is second class.
    """
    if S.dim_M == 0:
        return 0.0
    N, _, C = _n_matrix(S, word, cond_threshold)
    # column k: Σ_j (C^{-1})_ij <M_k, (Ad M^j)_M>
    coeffs = np.linalg.solve(C.entries, C.m_parts @ S.Mdual.T)
    return float(np.max(np.abs(coeffs.T @ C.m_parts + N)))


def characterization_identity_residual(
    S: ReductionSetup,
    word: GroupWord,
    u,
    v,
    cond_threshold: float = COND_THRESHOLD,
) -> float:
    """Residual of the pairing identity characterizing the rho family.

    << (λ^{-1}uλ)_M, λ^{-1}vλ >> = Σ_i << (λ^{-1}uλ)_M, λ^{-1}M^iλ >> ·
                                        << (λ^{-1}vλ)_M, λ^{-1}N_iλ >>
    for u, v in M (K coordinates).  u and v may also be stacks of such
    vectors, one (u, v) pair per row: the largest residual over the pairs is
    returned, with the N_i and Ad_λ^{-1} computed once for all of them.
    """
    n = S.n
    N, inv_ad, _ = _n_matrix(S, word, cond_threshold)
    move = inv_ad[:, :n].T  # K row -> its image under Ad_λ^{-1}, in the double
    to_m = S.Mdual.T @ S.M_in_K  # K row -> its M-part
    pu = np.atleast_2d(np.asarray(u, dtype=float)) @ move
    pv = np.atleast_2d(np.asarray(v, dtype=float)) @ move
    mu, mv = pu[:, :n] @ to_m, pv[:, :n] @ to_m
    # every left side is a K vector, so each pairing reads a K*-part
    lhs = np.sum(mu * pv[:, n:], axis=1)
    t1 = mu @ (S.M_in_K @ move)[:, n:].T
    t2 = mv @ (N @ move)[:, n:].T
    return float(np.max(np.abs(lhs - np.sum(t1 * t2, axis=1)), initial=0.0))


def hstar_word(S: ReductionSetup, coords) -> GroupWord:
    """Single-factor word exp(Σ x_a H^a) from H* coordinates."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (S.dim_H,):
        raise InputShapeError(f"expected {S.dim_H} H* coordinates")
    return ad_of_word(S.double, [coords @ S.Hdual])


def _pair_gradients(S: ReductionSetup, word: GroupWord, pairs) -> tuple:
    """(grad F1, grad' F2) at word over the H* basis, one row per pair (F1, F2).

    A function on the dual of H is an l·Ad·r function read off the
    sub-double; its jet along the H* basis lists the left derivatives, grad,
    and then the right ones, grad'.  Both lie in H.
    """
    p = S.dim_H
    g1 = np.array([f1.jet(word, S.hstar_ads)[0][:p] for f1, _ in pairs])
    g2p = np.array([f2.jet(word, S.hstar_ads)[0][p:] for _, f2 in pairs])
    return g1, g2p


def dirac_bracket(
    S: ReductionSetup,
    word: GroupWord,
    pairs,
    cond_threshold: float = COND_THRESHOLD,
) -> np.ndarray:
    """The Dirac bracket {F1, F2}* at λ for each pair (F1, F2) of functions.

    The functions are l·Ad·r functions on the dual of H (anything with the
    jet method of verify.QFunction), extended to the ambient dual group as
    constant along exp(M*) and bracketed there, with the full second-class
    correction term assembled from the closed-form constraint gradients.
    Their gradients are exact, and one solve against C serves every pair.
    The result must match native_hstar_bracket to roundoff at second-class
    points.
    """
    C = constraint_matrix(S, word)
    _require_second_class(C, cond_threshold)
    n = S.n
    g1, g2p = (g @ S.H_in_K for g in _pair_gradients(S, word, pairs))
    # column k: K*-part of Ad_λ grad' f2 for pair k; a K vector pairs with
    # the K*-part of its partner
    moved_g2 = word.ad[n:, :n] @ g2p.T
    plain = np.sum(g1.T * moved_g2, axis=0)
    if C.m == 0:
        return plain
    # {f1, ξ_i} = << grad f1, Ad_λ M^i >>  (grad' ξ_i = M^i)
    b1 = g1 @ word.ad[n:, :n] @ S.M_in_K.T
    # {ξ_j, f2} = << (Ad_λ M^j)_M, Ad_λ grad' f2 >>
    b2 = C.m_parts @ moved_g2
    return plain - np.sum(b1.T * np.linalg.solve(C.entries, b2), axis=0)


def native_hstar_bracket(S: ReductionSetup, word: GroupWord, pairs) -> np.ndarray:
    """{F1, F2} computed in the double of (H, H*) for each pair: the oracle side.

    The dual-group bracket << grad f1, Ad (grad' f2) >> with Ad the
    restriction sub_restrict·Ad_λ·sub_embedᵀ, paired on the sub-double.
    """
    d = S.sub_double
    g1, g2p = _pair_gradients(S, word, pairs)
    embed = np.eye(d.dim)[: S.dim_H]  # rows: the H basis of the sub-double
    sub_ad = S.sub_restrict @ word.ad @ S.sub_embed.T
    moved_g2 = g2p @ embed @ sub_ad.T
    return np.sum((g1 @ embed @ d.pairing) * moved_g2, axis=1)


def constraint_pb_check(S: ReductionSetup, word: GroupWord, f, m_index: int) -> float:
    """{f, ξ_i}(λ) for an extended function f; vanishes on the dual of H.

    The constraint gradient is used in closed form (grad' ξ_i = M^i), so the
    value is << grad f, Ad_λ M^i >> with grad f in H.
    """
    n = S.n
    g1 = f.jet(word, S.hstar_ads)[0][: S.dim_H] @ S.H_in_K
    return float(g1 @ word.ad[n:, :n] @ S.M_in_K[m_index])


def sample_hstar_points(
    S: ReductionSetup,
    num_points: int,
    seed: int,
    box_radius: float = 1.0,
    cond_threshold: float = COND_THRESHOLD,
    max_attempts: int = MAX_SAMPLE_ATTEMPTS,
) -> list:
    """Draw second-class points of the dual of H with a reproducible stream.

    Each point is a single-factor word with H* coordinates uniform in
    [-box_radius, box_radius]; draws failing the second-class test are
    rejected and retried up to max_attempts times per requested point.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for k in range(num_points):
        for attempt in range(max_attempts):
            coords = rng.uniform(-box_radius, box_radius, S.dim_H)
            word = hstar_word(S, coords)
            if check_second_class(constraint_matrix(S, word), cond_threshold):
                out.append(word)
                break
        else:
            raise SamplingExhaustedError(
                f"no second-class point found for sample {k} after {max_attempts} attempts"
            )
    return out
