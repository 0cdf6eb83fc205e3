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
point's solve, Ad_λ^{-1}, N_i, Ad velocity and rho jet from it.  rho and its
derivatives are plain (dim G, dim G) arrays, and every array a CMatrix holds
or caches is read-only, so no caller can change what a later call returns.

sample_hstar_points evaluates a block of draws as one stacked pass: one
expm over the stack of their ad matrices, every product, the SVD and the
maxima of C over the stack, and one solve for rho over the accepted
points, filled into each point's CMatrix.  A draw that may be numerically
singular (bounds.MAX_AD_COND) is a miss before its expm, and a slice whose
Ad or C is not finite has cond inf.  A single word (hstar_word,
constraint_matrix on a word not yet seen) is the stack of one, through the
same kernels, so a point's Ad, C and rho do not depend on how it was made.

The suites take a sample on a points axis too.  fill_caches makes the rho
jet, Ad_λ^{-1}, N_i and Ad velocity of every point of a sample in one
stacked product, solve or inverse each, and fills them into the points'
CMatrix; a point asked for one on its own makes it as a stack of one,
through the same kernel.  The equations (rho_via_n, the inverse-operator
and characterization residuals, the Dirac and native brackets and the
constraint check) take a sequence of words, with each word's inputs
stacked on a leading axis, and return one result per word.  Every stacked
product keeps each slice's shape and layout, so a point's numbers do not
depend on the points stacked with it, and an error names the first
offending point in order.  No stacked array passes the sampler's bound of
bounds.MAX_NUM_POINTS Ad matrices on the double: a caller takes a larger
sample in chunks (_point_chunks), whose size follows from the shapes alone.

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

import math
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

    Its solve, Ad_λ^{-1}, N_i, Ad velocity and rho jet are filled for a whole
    sample by the sampler and fill_caches, or made on first use as a stack of
    one; it holds the word's Ad matrix but never the word, which keys its memo.
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
        if not math.isfinite(self.cond) or self.cond > threshold:
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
        return _velocities(self.setup, [self])[0]

    @cached_property
    def jet(self) -> RhoJet:
        """rho with its exact derivatives along the H* basis (see rho_jet)."""
        return _jets(self.setup, [self])[0]

    @cached_property
    def ad_inverse(self) -> np.ndarray:
        """Ad_λ^{-1} on the double."""
        return _ad_inverses(self.setup, [self])[0]

    @cached_property
    def n_matrix(self) -> np.ndarray:
        """The unique N_i in M with Ad_λ^{-1} M_i = (Ad_λ^{-1} N_i)_{M*}, as rows.

        One row per dual basis element M_i, in K coordinates (see _n_matrices).
        """
        return _n_matrices(self.setup, [self])[0]


def _second_class_matrices(S: ReductionSetup, words) -> list:
    """_second_class_matrix of each word, in order."""
    return [_second_class_matrix(S, w) for w in words]


def _gather(cmats: list, attr: str) -> np.ndarray:
    """One attribute of each CMatrix, stacked in order."""
    return np.array([getattr(C, attr) for C in cmats])


def _velocities(S: ReductionSetup, cmats: list) -> np.ndarray:
    """CMatrix.velocity of every point in cmats, as one read-only stack."""
    ad = _gather(cmats, "ad")[:, None]
    ads = S.hstar_ads
    v = np.concatenate([ads @ ad, ad @ ads], axis=1)
    v.setflags(write=False)
    return v


def _jets(S: ReductionSetup, cmats: list) -> list:
    """CMatrix.jet of every point in cmats, from one stacked pass (see rho_jet)."""
    if S.dim_M == 0:
        return [RhoJet.zero(S.dim_H, S.G.dim)] * len(cmats)
    x = np.array([C.solved[1] for C in cmats])[:, None]
    d_m, d_kstar = _moved_basis(S, _gather(cmats, "velocity"))
    # kstar_parts.T keeps the layout of the sampler's stack in every product
    kstar_t = np.array([C.kstar_parts.T for C in cmats])[:, None]
    m_parts = _gather(cmats, "m_parts")[:, None]
    d_c = d_m @ kstar_t + m_parts @ np.swapaxes(d_kstar, -1, -2)
    t = np.swapaxes(S.K_to_G(d_m), -1, -2) @ x  # a'ᵀX
    d_rho = t - np.swapaxes(t, -1, -2) + np.swapaxes(x, -1, -2) @ d_c @ x
    d_rho.setflags(write=False)
    p = S.dim_H
    return [RhoJet(C.solved[0], d[:p], d[p:]) for C, d in zip(cmats, d_rho)]


def _ad_inverses(S: ReductionSetup, cmats: list) -> np.ndarray:
    """CMatrix.ad_inverse of every point in cmats, by one stacked inverse."""
    inv = np.linalg.inv(_gather(cmats, "ad"))
    inv.setflags(write=False)
    return inv


def _n_matrices(S: ReductionSetup, cmats: list) -> np.ndarray:
    """CMatrix.n_matrix of every point in cmats, by one stacked solve.

    All N_i of a point come from one solve against its moved complement
    basis; the defining relation is verified to bounds.N_RELATION_TOL for
    each of them after the solve.  The first point in cmats whose basis is
    numerically singular, or whose relation fails, raises.
    """
    n, m = S.n, S.dim_M
    if m == 0:
        return _freeze(np.zeros((len(cmats), 0, n)))
    inv_ad = _gather(cmats, "ad_inverse")
    # column j: M*-coordinates of (Ad^{-1} M^j)_{M*}
    e_mat = S.M_in_K @ inv_ad[:, n:, :n] @ S.M_in_K.T
    # solvability guard only: every reader enforces second-class membership
    # through C, so this fires solely on numerically singular systems
    s = np.linalg.svd(e_mat, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        singular = np.flatnonzero((s[:, -1] <= 0.0) | (s[:, 0] / s[:, -1] > bounds.N_SOLVE_COND))
    # the points before the first singular one are solved and checked first,
    # so an error names the first offending point in order
    k = singular[0] if singular.size else len(cmats)
    e_mat, inv_ad = e_mat[:k], inv_ad[:k]
    # column i: Ad^{-1} M_i in the double, and its M*-coordinates
    targets = inv_ad[:, :, n:] @ S.Mdual.T
    N = np.swapaxes(np.linalg.solve(e_mat, S.M_in_K @ targets[:, n:]), -1, -2) @ S.M_in_K
    # full residual of the defining relation in double coordinates; the
    # solve fixes the M* component, so this certifies that Ad^{-1} M_i
    # has no H* leak (which is what makes the relation an equality)
    rhs = S.Mdual.T @ (S.M_in_K @ (inv_ad[:, n:, :n] @ np.swapaxes(N, -1, -2)))
    resid = np.maximum(np.abs(targets[:, :n]).max(axis=1), np.abs(targets[:, n:] - rhs).max(axis=1))
    bad = np.argwhere(resid > bounds.N_RELATION_TOL * (1.0 + np.abs(targets).max(axis=1)))
    if bad.size:
        b, i = bad[0]
        raise ConsistencyError(f"defining relation for N_{i} has residual {resid[b, i]:.3e}")
    if singular.size:
        lo, hi = s[k, -1], s[k, 0]
        raise CDegenerateError(
            f"moved complement basis is numerically singular "
            f"(condition {hi / max(lo, bounds.COND_MESSAGE_FLOOR):.3e})"
        )
    N.setflags(write=False)
    return N


def fill_caches(S: ReductionSetup, words, names) -> None:
    """Fill the named caches of each word's CMatrix for the whole sample at
    once: one stacked product, solve or inverse per cache, in chunks that
    keep each stack within the sampler's per-array bound (_point_chunks).
    A point that holds a cache keeps it.  The caches are filled in the
    order listed below, so the jet reads the filled velocities and the N_i
    the filled inverses; name those too, or each point makes its own.
    """
    cmats = _second_class_matrices(S, words)
    # the largest stack a kernel makes per point: a velocity or rho jet
    # stack, or one (2n, 2n) Ad matrix
    big = max(2 * S.n, S.G.dim) ** 2
    for name, kernel, per_point in (
        ("velocity", _velocities, 2 * S.dim_H * big),
        ("jet", _jets, 2 * S.dim_H * big),
        ("ad_inverse", _ad_inverses, big),
        ("n_matrix", _n_matrices, big),
    ):
        if name not in names:
            continue
        todo = [C for C in cmats if name not in C.__dict__]
        for part in _point_chunks(S, len(todo), per_point):
            for C, value in zip(todo[part], kernel(S, todo[part])):
                C.__dict__[name] = value


def _point_chunks(S: ReductionSetup, count: int, per_point: int) -> list:
    """Consecutive slices of range(count) whose stacks of per_point float64
    entries a point stay within the sampler's per-array bound, the entries
    of bounds.MAX_NUM_POINTS Ad matrices on the double."""
    step = max(1, bounds.MAX_NUM_POINTS * (2 * S.n) ** 2 // max(per_point, 1))
    return [slice(i, i + step) for i in range(0, count, step)]


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


def rho_via_n(S: ReductionSetup, words) -> np.ndarray:
    """rho recomputed from the N_i as -Σ N_i ⊗ M^i at each word, a
    (len(words), dim G, dim G) stack.

    The other product order, +Σ M^i ⊗ N_i, is the transpose of this one with
    its sign flipped, so the two orders agree exactly when the result is
    antisymmetric: |a + aᵀ| is bounded by bounds.RHO_ORDERS_TOL relative to
    1 + max|a| and by bounds.RHO_VIA_N_ANTISYM_TOL, and the first point in
    order that breaks either bound raises.  Callers compare it with rho
    separately.  The N_i come from Ad_λ^{-1}, never from the solve against C
    that gives rho.
    """
    n_g = S.K_to_G(_gather(_second_class_matrices(S, words), "n_matrix"))
    m_g = S.K_to_G(S.M_in_K)
    a = -(np.swapaxes(n_g, -1, -2) @ m_g)
    anti = np.abs(a + np.swapaxes(a, -1, -2)).max(axis=(1, 2), initial=0.0)
    orders = anti > bounds.RHO_ORDERS_TOL * (1.0 + np.abs(a).max(axis=(1, 2), initial=0.0))
    tol = bounds.RHO_VIA_N_ANTISYM_TOL
    bad = np.flatnonzero(orders | (anti > tol))
    if bad.size:
        k = bad[0]
        if orders[k]:
            raise ConsistencyError("the two product orders for rho disagree")
        raise InputShapeError(
            f"rho via N has antisymmetry residual {anti[k]:.3e} > {_bound_text(tol)}"
        )
    return a


def constraint_inverse_operator_residual(S: ReductionSetup, words) -> np.ndarray:
    """Residual of the identity sending M_k to -N_k through C^{-1}, one per word.

    The operator Σ_ij (C^{-1})_ij (Ad M^i)_M <M_k, (Ad M^j)_M> must equal
    -N_k for every k; with M = 0 there is no k, and every λ is second class.
    """
    if S.dim_M == 0:
        return np.zeros(len(words))
    cmats = _second_class_matrices(S, words)
    m_parts = _gather(cmats, "m_parts")
    # column k: Σ_j (C^{-1})_ij <M_k, (Ad M^j)_M>
    coeffs = np.linalg.solve(_gather(cmats, "entries"), m_parts @ S.Mdual.T)
    residual = np.swapaxes(coeffs, -1, -2) @ m_parts + _gather(cmats, "n_matrix")
    return np.abs(residual).max(axis=(1, 2))


def characterization_identity_residual(S: ReductionSetup, words, u, v) -> np.ndarray:
    """Residual of the pairing identity characterizing the rho family, one per word.

    << (λ^{-1}uλ)_M, λ^{-1}vλ >> = Σ_i << (λ^{-1}uλ)_M, λ^{-1}M^iλ >> ·
                                        << (λ^{-1}vλ)_M, λ^{-1}N_iλ >>
    for u, v in M.  u and v are (len(words), k, n) stacks of such vectors in
    K coordinates, one (u, v) pair per row of a word's slice: the largest
    residual over a word's pairs is its result.
    """
    n = S.n
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if u.ndim != 3 or u.shape[0] != len(words) or u.shape[2] != n or v.shape != u.shape:
        raise InputShapeError(
            f"u and v must be per-word stacks of the same rows of {n} K coordinates"
        )
    cmats = _second_class_matrices(S, words)
    N, inv_ad = _gather(cmats, "n_matrix"), _gather(cmats, "ad_inverse")
    move = np.swapaxes(inv_ad[:, :, :n], -1, -2)  # K row -> its image under Ad_λ^{-1}
    to_m = S.Mdual.T @ S.M_in_K  # K row -> its M-part
    pu, pv = u @ move, v @ move
    mu, mv = pu[..., :n] @ to_m, pv[..., :n] @ to_m
    # every left side is a K vector, so each pairing reads a K*-part
    lhs = np.sum(mu * pv[..., n:], axis=-1)
    t1 = mu @ np.swapaxes((S.M_in_K @ move)[..., n:], -1, -2)
    t2 = mv @ np.swapaxes((N @ move)[..., n:], -1, -2)
    return np.abs(lhs - np.sum(t1 * t2, axis=-1)).max(axis=-1, initial=0.0)


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


def _row_gradients(S: ReductionSetup, words, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(len(words), k, 2p): the gradients at each word of the functions l·Ad·r,
    one per row l of its slice of left and r of right: grad, then grad', over
    the H* basis.

    Every entry is l·V·r for a velocity V of Ad_λ, so one contraction of the
    stacked rows serves all functions of all words.  Both gradients lie in H.
    """
    v = _gather([constraint_matrix(S, w) for w in words], "velocity")
    return np.swapaxes(np.sum((left[:, None] @ v) * right[:, None], axis=-1), -1, -2)


def dirac_bracket(S: ReductionSetup, words, grad1, grad2) -> np.ndarray:
    """The Dirac bracket {F1, F2}* at each word for each row of its slice of
    grad1 and grad2, a (len(words), k) array.

    grad1 and grad2 are (len(words), k, p) stacks of grad F1 and grad' F2
    over the H* basis (_row_gradients), for functions on the dual of H
    extended to the ambient dual group as constant along exp(M*) and
    bracketed there, with the full second-class correction assembled from
    the closed-form constraint gradients: {f1, ξ_i} is constraint_pb_check
    of grad1.  One stacked solve against C serves every row.  The result
    must match native_hstar_bracket to roundoff at second-class points.
    """
    cmats = _second_class_matrices(S, words)
    n = S.n
    g1, g2p = grad1 @ S.H_in_K, grad2 @ S.H_in_K
    # column k: K*-part of Ad_λ grad' f2 for row k; a K vector pairs with
    # the K*-part of its partner
    moved_g2 = _gather(cmats, "ad")[:, n:, :n] @ np.swapaxes(g2p, -1, -2)
    plain = np.sum(np.swapaxes(g1, -1, -2) * moved_g2, axis=-2)
    if S.dim_M == 0:
        return plain
    # {ξ_j, f2} = << (Ad_λ M^j)_M, Ad_λ grad' f2 >>
    b2 = _gather(cmats, "m_parts") @ moved_g2
    b1 = constraint_pb_check(S, words, grad1)
    x = np.linalg.solve(_gather(cmats, "entries"), b2)
    return plain - np.sum(np.swapaxes(b1, -1, -2) * x, axis=-2)


def native_hstar_bracket(S: ReductionSetup, words, grad1, grad2) -> np.ndarray:
    """{F1, F2} computed in the double of (H, H*) for each row: the oracle side.

    The dual-group bracket << grad f1, Ad (grad' f2) >> with Ad the
    restriction sub_restrict·Ad_λ·sub_embedᵀ, paired on the sub-double;
    words, grad1 and grad2 as for dirac_bracket.
    """
    d = S.sub_double
    embed = np.eye(d.dim)[: S.dim_H]  # rows: the H basis of the sub-double
    sub_ad = S.sub_restrict @ _gather(words, "ad") @ S.sub_embed.T
    moved_g2 = grad2 @ embed @ np.swapaxes(sub_ad, -1, -2)
    return np.sum((grad1 @ embed @ d.pairing) * moved_g2, axis=-1)


def constraint_pb_check(S: ReductionSetup, words, grad) -> np.ndarray:
    """(len(words), k, dim M): {f_k, ξ_i}(λ) at each word for its (k, p)
    slice of grad f_k over the H* basis; it vanishes on the dual of H.

    The constraint gradient is used in closed form (grad' ξ_i = M^i), so
    each entry is << grad f_k, Ad_λ M^i >> with grad f_k in H: one product
    for every row and constraint.  It is the factor {f1, ξ_i} of
    dirac_bracket's correction.
    """
    n = S.n
    return grad @ S.H_in_K @ _gather(words, "ad")[:, n:, :n] @ S.M_in_K.T


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
