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
rho is one solve against C.  rho and its derivatives are plain
(dim G, dim G) arrays, and every array a CMatrix holds or makes is
read-only, so no caller can change what a later call returns.

A CMatrix is a stack of points (see its docstring).  sample_hstar_points
evaluates a block of draws in one stacked pass, tests each candidate
through constraint_matrix, whose weak memo holds one row per (setup,
word), and returns the accepted points as one stack.  The equations take
a stack, with each point's inputs stacked on a leading axis, and return
one result per point; rho and rho_jet at a single word are the stack of
one, through the same kernels.  Every stacked product keeps each slice's
shape and layout, so a point's numbers do not depend on the points
stacked with it, and an error names the first offending point in order.
No stacked array passes the sampler's bound of bounds.MAX_NUM_POINTS Ad
matrices on the double: a caller takes a larger sample in chunks, C[part]
for the parts _point_chunks cuts from the shapes alone.

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
    """The constraint-bracket matrices of a stack of points, with their
    conditioning data, every field on a leading points axis.

    Its derived data is made on first use, one stacked kernel over the whole
    stack, and kept on it; C[idx], for a slice or an index array, is the
    sub-stack of those points, with whatever this stack has made, sliced.
    A row of the setup's memo has the word None, since its word keys it.
    """

    setup: ReductionSetup = field(repr=False)
    words: tuple = field(repr=False)
    ad: np.ndarray = field(repr=False)  # Ad_λ on the double
    entries: np.ndarray
    cond: np.ndarray
    antisym_residual: np.ndarray
    form_agreement: np.ndarray
    m_parts: np.ndarray  # rows: (Ad_λ M^i)_M in K coordinates
    kstar_parts: np.ndarray  # rows: (Ad_λ M^i)_{K*} in dual K coordinates
    _made: dict = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.ad)

    def __getitem__(self, idx) -> CMatrix:
        if isinstance(idx, slice):  # a slice of a read-only stack is a read-only view
            sub = CMatrix(self.setup, self.words[idx], *(a[idx] for a in self._arrays()))
        else:
            words = tuple(self.words[i] for i in idx)
            sub = CMatrix(self.setup, words, *(_take(a, idx) for a in self._arrays()))
        sub._made.update((name, _take(value, idx)) for name, value in self._made.items())
        return sub

    def _arrays(self) -> tuple:
        """The fields with a points axis, in the order of the constructor."""
        return (self.ad, self.entries, self.cond, self.antisym_residual,
                self.form_agreement, self.m_parts, self.kstar_parts)

    def diagnosis(self) -> str:
        """Why the first point that is not second class under the setup's
        cond_threshold is not, or "ok" where every point is."""
        return _diagnosis(self.setup, self)

    def _once(self, name: str, kernel):
        made = self._made
        if name not in made:
            made[name] = kernel(self.setup, self)
        return made[name]

    @property
    def solved(self) -> tuple:
        """(rho, X) with X = C⁻¹a by one solve, for the rows a = (Ad_λ M^i)_M over G."""
        return self._once("solved", _solve_points)

    @property
    def velocity(self) -> np.ndarray:
        """(points, 2p, 2n, 2n): Ad_λ's velocity along the left, then right, H* translations."""
        return self._once("velocity", _velocities)

    @property
    def jet(self) -> RhoJet:
        """rho with its exact derivatives along the H* basis (see rho_jet)."""
        return self._once("jet", _jets)

    @property
    def ad_inverse(self) -> np.ndarray:
        """Ad_λ^{-1} on the double."""
        return self._once("ad_inverse", _ad_inverses)

    @property
    def n_matrix(self) -> np.ndarray:
        """The unique N_i in M with Ad_λ^{-1} M_i = (Ad_λ^{-1} N_i)_{M*}, as rows.

        One row per dual basis element M_i, in K coordinates (see _n_matrices).
        """
        return self._once("n_matrix", _n_matrices)


def _take(a, idx):
    """The rows of a stack that idx picks, read-only: a slice or an index
    views a read-only stack, and an index array's copy is made so.  For a
    tuple of stacks or a RhoJet, the rows of each."""
    if isinstance(a, np.ndarray):
        a = a[idx]
        if isinstance(idx, np.ndarray):
            a.setflags(write=False)
        return a
    if isinstance(a, RhoJet):
        return RhoJet(_take(a.value, idx), _take(a.left, idx), _take(a.right, idx))
    return tuple(_take(x, idx) for x in a)


def _diagnosis(S: ReductionSetup, C: CMatrix) -> str:
    """CMatrix.diagnosis of C under S.cond_threshold."""
    m = C.entries.shape[-1]
    if m == 0:
        return "ok"
    if m % 2 == 1:
        return (
            f"odd-dimensional complement (dim M = {m}); an antisymmetric "
            "matrix of odd size is always singular"
        )
    threshold = S.cond_threshold
    for cond in C.cond.tolist():
        if not math.isfinite(cond) or cond > threshold:
            return f"condition number {cond:.3e} exceeds threshold {threshold:.1e}"
    return "ok"


def _second_class(S: ReductionSetup, C: CMatrix) -> CMatrix:
    """C, once each of its points is second class under S.cond_threshold,
    which is checked on every request; CDegenerateError for the first that
    is not."""
    diag = _diagnosis(S, C)
    if diag != "ok":
        raise CDegenerateError(f"constraint matrix degenerate: {diag}")
    return C


def _velocities(S: ReductionSetup, C: CMatrix) -> np.ndarray:
    """CMatrix.velocity: one stacked product, read-only."""
    ad = C.ad[:, None]
    ads = S.hstar_ads
    v = np.concatenate([ads @ ad, ad @ ads], axis=1)
    v.setflags(write=False)
    return v


def _jets(S: ReductionSetup, C: CMatrix) -> RhoJet:
    """CMatrix.jet, from one stacked pass (see rho_jet)."""
    values, x = C.solved
    x = x[:, None]
    d_m, d_kstar = _moved_basis(S, C.velocity)
    # a contiguous kstar_parts.T keeps the layout of the sampler's stack in every product
    kstar_t = np.ascontiguousarray(np.swapaxes(C.kstar_parts, -1, -2))[:, None]
    m_parts = C.m_parts[:, None]
    d_c = d_m @ kstar_t + m_parts @ np.swapaxes(d_kstar, -1, -2)
    t = np.swapaxes(S.K_to_G(d_m), -1, -2) @ x  # a'ᵀX
    d_rho = t - np.swapaxes(t, -1, -2) + np.swapaxes(x, -1, -2) @ d_c @ x
    d_rho.setflags(write=False)
    p = S.dim_H
    return RhoJet(values, d_rho[:, :p], d_rho[:, p:])


def _ad_inverses(S: ReductionSetup, C: CMatrix) -> np.ndarray:
    """CMatrix.ad_inverse, by one stacked inverse."""
    inv = np.linalg.inv(C.ad)
    inv.setflags(write=False)
    return inv


def _n_matrices(S: ReductionSetup, C: CMatrix) -> np.ndarray:
    """CMatrix.n_matrix, by one stacked solve.

    All N_i of a point come from one solve against its moved complement
    basis; the defining relation is verified to bounds.N_RELATION_TOL for
    each of them after the solve.  The first point of C whose basis is
    numerically singular, or whose relation fails, raises.
    """
    n, m = S.n, S.dim_M
    if m == 0:
        return _freeze(np.zeros((len(C), 0, n)))
    inv_ad = C.ad_inverse
    # column j: M*-coordinates of (Ad^{-1} M^j)_{M*}
    e_mat = S.M_in_K @ inv_ad[:, n:, :n] @ S.M_in_K.T
    # solvability guard only: every reader enforces second-class membership
    # through C, so this fires solely on numerically singular systems
    s = np.linalg.svd(e_mat, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        singular = np.flatnonzero((s[:, -1] <= 0.0) | (s[:, 0] / s[:, -1] > bounds.N_SOLVE_COND))
    # the points before the first singular one are solved and checked first,
    # so an error names the first offending point in order
    k = singular[0] if singular.size else len(C)
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


def _build_constraint_matrices(S: ReductionSetup, ads: np.ndarray) -> tuple:
    """Evaluate C at each point of a (B, 2n, 2n) stack of adjoint matrices.

    Every product, the SVD and the maxima run once over the whole stack;
    each slice goes through the same kernels as a stack of one, so a
    point's C does not depend on the draws it was evaluated with.  Returns
    (block, disagree): the stack, whose words are None, and for each slice
    whether its two pairing forms disagree, which _row raises for when the
    slice is reached.
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
    # in place, no copy: each row holds read-only slices of the stacks
    for a in (c_a, m_parts, kstar_parts, cond, anti, agree):
        a.setflags(write=False)
    block = CMatrix(S, (None,) * len(ads), ads, c_a, cond, anti, agree, m_parts, kstar_parts)
    return block, agree > bounds.FORM_AGREE_TOL * scale


def _row(block: CMatrix, disagree: np.ndarray, b: int) -> CMatrix:
    """Slice b of a block of _build_constraint_matrices as a memo row, a stack
    of one without its word; ConsistencyError where its pairing forms disagree."""
    if disagree[b]:
        raise ConsistencyError(
            f"the two pairing forms of C disagree by {block.form_agreement[b]:.3e}"
        )
    return CMatrix(block.setup, (None,), *(a[b:b + 1] for a in block._arrays()))


def constraint_matrix(S: ReductionSetup, word: GroupWord) -> CMatrix:
    """The constraint-bracket matrix C at the given word, as a stack of one.

    One row per (setup, word), built on the first request (for sampled
    points, by sample_hstar_points with its block, then a view of the
    sample's row) and held in the setup's memo while the word lives.
    Degeneracy is recorded, not raised; use check_second_class or rho to act
    on it.  The two equivalent pairing forms of C are both computed and must
    agree to bounds.FORM_AGREE_TOL.
    """
    memo = S._cmatrices
    C = memo.get(word)
    if C is None:
        C = memo[word] = _row(*_build_constraint_matrices(S, word.ad[None]), 0)
    return C


def check_second_class(C: CMatrix) -> bool:
    """Membership test for the open set where the constraints are second class,
    at every point of C, under the cond_threshold of C's setup."""
    return C.diagnosis() == "ok"


def rho(S: ReductionSetup, word: GroupWord) -> np.ndarray:
    """The reduced dynamical r-matrix at λ, as an antisymmetric (dim G, dim G) array.

    rho = Σ_ij (C^{-1})_ij (Ad_λ M^i)_M ⊗ (Ad_λ M^j)_M, computed with a
    linear solve against C rather than an explicit inverse.  The word's
    stack of one is its own, so nothing is kept on its memo row.
    """
    return _second_class(S, constraint_matrix(S, word)[:]).solved[0][0]


@dataclass(frozen=True, eq=False)
class RhoJet:
    """rho at a stack of points of the dual of H, with its first derivatives.

    value[b] is rho at point b, and left[b, a] and right[b, a] are its
    derivatives along λ ↦ exp(t·H^a)·λ and λ ↦ λ·exp(t·H^a) at t = 0, for
    the H* basis H^a (the rows of Hdual), each a (dim G, dim G) array; a
    derivative along Σ_a y_a H^a is the same combination of them.  jet[idx]
    takes the points idx picks, and jet[b] is point b's jet alone.
    """

    value: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __getitem__(self, idx) -> RhoJet:
        return _take(self, idx)


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
    The jet of a stack is CMatrix.jet, made once over the stack.
    """
    return _second_class(S, constraint_matrix(S, word)[:]).jet[0]


def rho_via_n(S: ReductionSetup, C: CMatrix) -> np.ndarray:
    """rho recomputed from the N_i as -Σ N_i ⊗ M^i at each point of C, a
    (len(C), dim G, dim G) stack.

    The other product order, +Σ M^i ⊗ N_i, is the transpose of this one with
    its sign flipped, so the two orders agree exactly when the result is
    antisymmetric: |a + aᵀ| is bounded by bounds.RHO_ORDERS_TOL relative to
    1 + max|a| and by bounds.RHO_VIA_N_ANTISYM_TOL, and the first point in
    order that breaks either bound raises.  Callers compare it with rho
    separately.  The N_i come from Ad_λ^{-1}, never from the solve against C
    that gives rho.
    """
    n_g = S.K_to_G(_second_class(S, C).n_matrix)
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


def constraint_inverse_operator_residual(S: ReductionSetup, C: CMatrix) -> np.ndarray:
    """Residual of the identity sending M_k to -N_k through C^{-1}, one per point.

    The operator Σ_ij (C^{-1})_ij (Ad M^i)_M <M_k, (Ad M^j)_M> must equal
    -N_k for every k; with M = 0 there is no k, and every λ is second class.
    """
    if S.dim_M == 0:
        return np.zeros(len(C))
    C = _second_class(S, C)
    m_parts = C.m_parts
    # column k: Σ_j (C^{-1})_ij <M_k, (Ad M^j)_M>
    coeffs = np.linalg.solve(C.entries, m_parts @ S.Mdual.T)
    residual = np.swapaxes(coeffs, -1, -2) @ m_parts + C.n_matrix
    return np.abs(residual).max(axis=(1, 2))


def characterization_identity_residual(S: ReductionSetup, C: CMatrix, u, v) -> np.ndarray:
    """Residual of the pairing identity characterizing the rho family, one per point.

    << (λ^{-1}uλ)_M, λ^{-1}vλ >> = Σ_i << (λ^{-1}uλ)_M, λ^{-1}M^iλ >> ·
                                        << (λ^{-1}vλ)_M, λ^{-1}N_iλ >>
    for u, v in M.  u and v are (len(C), k, n) stacks of such vectors in
    K coordinates, one (u, v) pair per row of a point's slice: the largest
    residual over a point's pairs is its result.
    """
    n = S.n
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if u.ndim != 3 or u.shape[0] != len(C) or u.shape[2] != n or v.shape != u.shape:
        raise InputShapeError(
            f"u and v must be per-point stacks of the same rows of {n} K coordinates"
        )
    C = _second_class(S, C)
    N, inv_ad = C.n_matrix, C.ad_inverse
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


def _row_gradients(S: ReductionSetup, C: CMatrix, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(len(C), k, 2p): the gradients at each point of the functions l·Ad·r,
    one per row l of its slice of left and r of right: grad, then grad', over
    the H* basis.

    Every entry is l·V·r for a velocity V of Ad_λ, so one contraction of the
    stacked rows serves all functions of all points.  Both gradients lie in H.
    """
    v = C.velocity
    return np.swapaxes(np.sum((left[:, None] @ v) * right[:, None], axis=-1), -1, -2)


def dirac_bracket(S: ReductionSetup, C: CMatrix, grad1, grad2) -> np.ndarray:
    """The Dirac bracket {F1, F2}* at each point of C for each row of its
    slice of grad1 and grad2, a (len(C), k) array.

    grad1 and grad2 are (len(C), k, p) stacks of grad F1 and grad' F2
    over the H* basis (_row_gradients), for functions on the dual of H
    extended to the ambient dual group as constant along exp(M*) and
    bracketed there, with the full second-class correction assembled from
    the closed-form constraint gradients: {f1, ξ_i} is constraint_pb_check
    of grad1.  One stacked solve against C serves every row.  The result
    must match native_hstar_bracket to roundoff at second-class points.
    """
    C = _second_class(S, C)
    n = S.n
    g1, g2p = grad1 @ S.H_in_K, grad2 @ S.H_in_K
    # column k: K*-part of Ad_λ grad' f2 for row k; a K vector pairs with
    # the K*-part of its partner
    moved_g2 = C.ad[:, n:, :n] @ np.swapaxes(g2p, -1, -2)
    plain = np.sum(np.swapaxes(g1, -1, -2) * moved_g2, axis=-2)
    if S.dim_M == 0:
        return plain
    # {ξ_j, f2} = << (Ad_λ M^j)_M, Ad_λ grad' f2 >>
    b2 = C.m_parts @ moved_g2
    b1 = constraint_pb_check(S, C, grad1)
    x = np.linalg.solve(C.entries, b2)
    return plain - np.sum(np.swapaxes(b1, -1, -2) * x, axis=-2)


def native_hstar_bracket(S: ReductionSetup, C: CMatrix, grad1, grad2) -> np.ndarray:
    """{F1, F2} computed in the double of (H, H*) for each row: the oracle side.

    The dual-group bracket << grad f1, Ad (grad' f2) >> with Ad the
    restriction sub_restrict·Ad_λ·sub_embedᵀ, paired on the sub-double;
    C, grad1 and grad2 as for dirac_bracket.
    """
    d = S.sub_double
    embed = np.eye(d.dim)[: S.dim_H]  # rows: the H basis of the sub-double
    sub_ad = S.sub_restrict @ C.ad @ S.sub_embed.T
    moved_g2 = grad2 @ embed @ np.swapaxes(sub_ad, -1, -2)
    return np.sum((grad1 @ embed @ d.pairing) * moved_g2, axis=-1)


def constraint_pb_check(S: ReductionSetup, C: CMatrix, grad) -> np.ndarray:
    """(len(C), k, dim M): {f_k, ξ_i}(λ) at each point of C for its (k, p)
    slice of grad f_k over the H* basis; it vanishes on the dual of H.

    The constraint gradient is used in closed form (grad' ξ_i = M^i), so
    each entry is << grad f_k, Ad_λ M^i >> with grad f_k in H: one product
    for every row and constraint.  It is the factor {f1, ξ_i} of
    dirac_bracket's correction.
    """
    n = S.n
    return grad @ S.H_in_K @ C.ad[:, n:, :n] @ S.M_in_K.T


def sample_hstar_points(
    S: ReductionSetup,
    num_points: int,
    seed: int,
    box_radius: float = 1.0,
) -> CMatrix:
    """Draw num_points second-class points of the dual of H with a
    reproducible stream, as one stack.

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
    while points are missing.  Each candidate's row goes into the setup's
    memo, where constraint_matrix reads it for the test.  A block whose
    every row is accepted is the sample; otherwise the accepted rows are
    gathered into one stack, and each accepted word's memo row becomes a
    view of its row, so no block outlives the sampler.
    """
    if num_points < 1:
        raise InputShapeError(f"num_points must be at least 1, got {num_points}")
    rng = np.random.Generator(np.random.PCG64(seed))
    memo = S._cmatrices
    max_attempts = bounds.MAX_SAMPLE_ATTEMPTS
    out, blocks, misses = [], [], 0
    log_cond = np.log(bounds.MAX_AD_COND)
    while len(out) < num_points:
        coords = rng.uniform(-box_radius, box_radius, (num_points - len(out), S.dim_H))
        gen = _hstar_generators(S, coords)
        # 2‖ad_x‖₁, the log of the bound on cond₁(Ad_λ); NaN compares false
        tame = 2.0 * np.max(np.sum(np.abs(gen), axis=1), axis=1, initial=0.0) <= log_cond
        if not tame.all():
            coords, gen = coords[tame], gen[tame]
        words, ads = _hstar_words(S, coords, gen)
        block, disagree = _build_constraint_matrices(S, ads)
        words, taken = iter(enumerate(words)), []
        blocks.append((block, taken))
        for ok in tame:
            if misses >= max_attempts:
                raise SamplingExhaustedError(
                    f"no second-class point found for sample {len(out)} "
                    f"after {max_attempts} attempts"
                )
            if not ok:
                misses += 1
                continue
            b, word = next(words)
            memo[word] = _row(block, disagree, b)
            if check_second_class(constraint_matrix(S, word)):
                out.append(word)
                taken.append(b)
                misses = 0
            else:
                misses += 1
    if len(blocks) == 1:  # every row of the one block was accepted
        joined = block._arrays()
    else:
        joined = [np.concatenate(col) for col in zip(*(
            [a[taken] for a in block._arrays()] for block, taken in blocks))]
        for a in joined:
            a.setflags(write=False)
        for k, word in enumerate(out):
            memo[word] = CMatrix(S, (None,), *(a[k:k + 1] for a in joined))
    sample = CMatrix(S, tuple(out), *joined)
    sample.solved  # rho over the sample, and its antisymmetry check, before any reader
    return sample


def _solve_points(S: ReductionSetup, C: CMatrix) -> tuple:
    """CMatrix.solved, by one solve over the stack.

    Every C must be invertible: a singular slice fails the whole stack.  Each
    rho must be antisymmetric to bounds.RHO_ANTISYM_TOL, checked once over
    the stack.
    """
    if S.dim_M == 0:  # no constraint: rho is 0, with no solve
        dim_g = S.G.dim
        return _freeze(np.zeros((len(C), dim_g, dim_g))), _freeze(np.zeros((len(C), 0, dim_g)))
    a = S.K_to_G(C.m_parts)
    x = np.linalg.solve(C.entries, a)
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
    return values, x
