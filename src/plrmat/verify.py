"""Residual suites for the defining identities of the reduced r-matrices.

For a pair H ⊆ G with constant solution R and a dynamical r-matrix
r: Ȟ* → G⊗G, the certified identities are

  * the dynamical Yang-Baxter equation: the cyclic sum of the mixed bracket
    terms of R + r(λ) plus the derivative terms Σ_a H^a_1 (L_{H_a} r)_23 and
    its cyclic images reproduces the constant anomaly of R,
  * triangularity: that left-hand side is an ad-invariant 3-tensor that does
    not depend on λ,
  * infinitesimal equivariance: the derivative of r along the dressing flow
    of X in H equals [X⊗1 + 1⊗X, r(λ)],
  * the Jacobi identity of the bracket ansatz on G × Ȟ* (and its two-sided
    variant on Ȟ* × G × Ȟ*), evaluated exactly on entries of Ad.

Derivatives of r are exact: an rfun returns the rho jet of
reduction.rho_jet, the value of r with its left and right derivatives along
the H* basis, cached on the point's CMatrix.  The Jacobiators need only those
first derivatives and closed-form derivatives of the test functions, and the
Dirac brackets read the gradients of their test functions off the point's
Ad velocity, so no equation is differenced and every report carries
fd_step 0.0.  Every suite reports per-point residuals and the
worst case against a stated tolerance, and a deliberately sign-corrupted
r-matrix is pushed through the main residual as a control that the tests
can fail.

A setup's whole sample is taken in one stacked pass per equation.  After
sampling, each section fills the rho jets, Ad_λ^{-1}, N_i and Ad velocities
it reads for every point at once (reduction.fill_caches).  Each equation
function takes a sequence of points, with each point's inputs stacked on a
leading axis, and returns one result per point.  A Jacobi call takes a
stack of product points, each with a row of (f1, f2, f3) triples: it builds
one bracket form over the points, makes the jet of each distinct test
function of a point once, in one stacked pass per factor, and returns one
|Jacobiator| per triple; nothing is kept on the points, the functions or
the form when it returns.  A Dirac point's test functions, and a
characterization point's (u, v) pairs, are one draw each, point by point.
The functions' gradients are one (points, 20 + dim M, 2·dim H) array
(reduction._row_gradients), whose rows the brackets and the constraint
check read in one call each, the constraint check a (dim M, dim M) product
per point whose diagonal is CONSTRAINT_PB.  An equivariance call takes each
point's stack of H vectors, its basis in the suite.  Only the cdybe section
takes its points one by one.  Every draw gives the stream of the scalar
draws it replaced and every stacked product keeps each slice's shape, so
the residuals are those of one call per point, Jacobiator and bracket, bit
for bit.  A section whose per-point arrays are larger than one Ad_λ takes
the sample in chunks within the sampler's per-array bound
(reduction._point_chunks); at the catalog's sample sizes that is one chunk.

The tolerance of each equation is defined here, in DEFAULT_TOLERANCES; the
spec's residual tolerance may replace it for the RESIDUAL_EQUATIONS alone,
so no caller can loosen the control or the exact identities.  The suites
run at the second-class points of the setup's cond_threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import ClassVar, Optional

import numpy as np
from scipy.linalg import expm

from . import bounds
from .bialgebra_double import ReductionSetup
from .dual_group import GroupWord
from .errors import ConsistencyError, InputShapeError
from .lie_core import LieAlgebra, cybe_lhs, invariance_residual3
from .reduction import (
    RhoJet,
    _point_chunks,
    _row_gradients,
    characterization_identity_residual,
    constraint_inverse_operator_residual,
    constraint_matrix,
    constraint_pb_check,
    dirac_bracket,
    fill_caches,
    native_hstar_bracket,
    rho,
    rho_jet,
    rho_via_n,
    sample_hstar_points,
)

EQ_MCYBE = "mCYBE"
EQ_PLCDYBE = "PL_CDYBE"
EQ_TRIANGULARITY = "TRIANGULARITY"
EQ_EQUIVARIANCE = "EQUIVARIANCE"
EQ_Q_JACOBI = "Q_JACOBI"
EQ_P_JACOBI = "P_JACOBI"
EQ_DIRAC = "DIRAC_EQ_HSTAR"
EQ_CHARACTERIZATION = "PAIRING_CHARACTERIZATION"
EQ_CONSTRAINT_PB = "CONSTRAINT_PB"
EQ_RHO_CONSISTENCY = "RHO_CONSISTENCY"
EQ_CONTROL = "PL_CDYBE_CONTROL"

# the equations the spec's residual tolerance bounds
RESIDUAL_EQUATIONS = (EQ_PLCDYBE, EQ_TRIANGULARITY, EQ_EQUIVARIANCE, EQ_DIRAC)

DEFAULT_TOLERANCES = {
    EQ_MCYBE: 1e-10,
    **dict.fromkeys(RESIDUAL_EQUATIONS, bounds.RESIDUAL),
    EQ_Q_JACOBI: 1e-9,
    EQ_P_JACOBI: 1e-9,
    EQ_CHARACTERIZATION: 1e-9,
    EQ_CONSTRAINT_PB: 1e-7,
    EQ_RHO_CONSISTENCY: 1e-9,
    EQ_CONTROL: 1e-2,
}

# in the order "all" runs them
SUITES = ("cdybe", "equivariance", "dirac", "jacobi")

# the jacobi suite's points, cycled from the samples, and the half-width of
# the box its ambient points exp(x) are drawn from
JACOBI_POINTS = 5
AMBIENT_BOX = 0.3


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Per-equation residual summary over the sampled points.

    ``direction`` is "upper" for ordinary residuals (pass iff max ≤ tol) and
    "lower" for the corrupted-r control, which must exceed its threshold to
    prove the residual has teeth.
    """

    equation_id: str
    per_point: tuple  # (descriptor, residual) pairs
    max_residual: float
    fd_step: float
    tolerance: float
    direction: str = "upper"

    @property
    def passed(self) -> bool:
        if self.direction == "lower":
            return self.max_residual >= self.tolerance
        return self.max_residual <= self.tolerance


def describe_word(word: GroupWord) -> list:
    return [list(map(float, f)) for f in word.factors]


def plcdybe_lhs(S: ReductionSetup, rfun, word: GroupWord) -> np.ndarray:
    """Left side of the dynamical Yang-Baxter equation for the pair H ⊆ G, a
    (dim G)³ array.

    The cyclic images of [ (R+r)_12, (R+r)_23 ] sum to the full three-slot
    bracket combination of R + r(λ), and the derivative terms place the
    basis vector H_a of H in one slot against the left derivative of r along
    the dual basis vector H^a in the other two, cyclically.
    """
    jet = rfun(word)
    total = cybe_lhs(S.G, S.R + jet.value)
    ka = S.H_in_G
    n = S.G.dim
    # d[x, y, z] = Σ_a H_a[x] (L_{H^a} r)[y, z]; its cyclic images fill the
    # other two slots
    d = (ka.T @ jet.left.reshape(len(ka), n * n)).reshape(n, n, n)
    return total + d + d.transpose(2, 0, 1) + d.transpose(1, 2, 0)


def plcdybe_residual(S: ReductionSetup, rfun, word: GroupWord) -> np.ndarray:
    """Residual of the dynamical Yang-Baxter equation at λ, a (dim G)³ array.

    In the triangular normalization the right side is the anomaly of the
    constant R, so the residual is the left side minus cybe_lhs(R).
    """
    return plcdybe_lhs(S, rfun, word) - S.anomaly


def _triangularity(G: LieAlgebra, lhs: np.ndarray, ref_lhs: Optional[np.ndarray]) -> float:
    worst = invariance_residual3(G, lhs)
    if ref_lhs is not None:
        worst = float(np.maximum(worst, np.max(np.abs(lhs - ref_lhs), initial=0.0)))
    return worst


def triangularity_check(
    S: ReductionSetup, rfun, word: GroupWord, ref: Optional[GroupWord] = None
) -> float:
    """Triangularity of the dynamical left side L(λ) = plcdybe_lhs at λ.

    The larger of the ad-invariance residual of L(λ) and, when a reference
    point is given, max|L(λ) − L(ref)|: L must be an invariant constant.
    Unlike PL_CDYBE this never reads the anomaly of R, so on its own it
    cannot tell which constant L equals.
    """
    ref_lhs = None if ref is None else plcdybe_lhs(S, rfun, ref)
    return _triangularity(S.G, plcdybe_lhs(S, rfun, word), ref_lhs)


def equivariance_residual(S: ReductionSetup, rfun, words, x_h) -> np.ndarray:
    """dress_X r - [X⊗1 + 1⊗X, r] at each word for each X in H of its stack
    of H-basis coordinates.

    The dressing derivative moves λ along λ·exp(t·Y) with Y the K*-part of
    Ad_λ^{-1} X; for λ in the dual of H the vector Y lies in H*, which is
    verified, and the derivative of r along it is Σ_a y_a·(right derivative
    along H^a) for the H* coordinates y of Y.  x_h is a (len(words), k,
    dim H) stack of X, and the residuals come back as a (len(words), k,
    dim G, dim G) stack; each X goes through the products it would go
    through alone.
    """
    x_h = np.asarray(x_h, dtype=float)
    p = S.dim_H
    if x_h.ndim != 3 or x_h.shape[0] != len(words) or x_h.shape[2] != p:
        raise InputShapeError(f"X must be a per-word stack of rows of {p} H coordinates")
    xs = x_h[:, :, None, :]  # one row per X
    x_k = xs @ S.H_in_K
    # dual_group.dressing_vector, read off each point's cached Ad_λ^{-1}
    inv = np.array([constraint_matrix(S, w).ad_inverse for w in words])
    y = inv[:, None, S.n:, :S.n] @ np.swapaxes(x_k, -1, -2)
    y_h = np.swapaxes(S.Hstar_component(y), -1, -2)
    y = np.swapaxes(y, -1, -2)
    leak = np.abs(y - y_h @ S.Hdual).max(axis=(2, 3), initial=0.0)
    size = np.abs(y).max(axis=(2, 3), initial=0.0)
    bad = np.argwhere(leak > bounds.DRESSING_LEAK_TOL * (1.0 + size))
    if bad.size:
        raise ConsistencyError(f"dressing vector leaves H*: leak {leak[tuple(bad[0])]:.3e}")
    jets = [rfun(w) for w in words]
    r_here = np.array([jet.value for jet in jets])[:, None]
    right = np.array([jet.right for jet in jets]).reshape(len(words), 1, p, -1)
    flow = (y_h @ right).reshape(xs.shape[:2] + r_here.shape[2:])
    adx = (xs @ S.h_ads.reshape(p, -1)).reshape(xs.shape[:2] + r_here.shape[2:])
    return flow - (adx @ r_here + r_here @ np.swapaxes(adx, -1, -2))


def reduced_r_function(S: ReductionSetup):
    """rfun for r* = rho as a callable on dual-group words, returning RhoJets.

    Each call is rho_jet at the word, which checks S.cond_threshold and reads
    the jet cached on the point's CMatrix: the suites ask for r* at a point
    once per equation and per bracket form, and it is computed once.
    """
    return partial(rho_jet, S)


def sign_flipped_rfun(rfun, a: int, b: int):
    """The same r-matrix with the (a, b) coefficient pair negated: the control.

    The value and both derivatives are flipped together, so the corrupted
    jet is the jet of the corrupted r.
    """

    def flip(t: np.ndarray) -> np.ndarray:
        t = np.array(t)
        t[..., a, b] = -t[..., a, b]
        t[..., b, a] = -t[..., b, a]
        return t

    def f(word: GroupWord) -> RhoJet:
        jet = rfun(word)
        return RhoJet(flip(jet.value), flip(jet.left), flip(jet.right))

    return f


def largest_entry(t: np.ndarray) -> tuple:
    return np.unravel_index(int(np.argmax(np.abs(t))), t.shape)


# ---------------------------------------------------------------------------
# points of the product spaces
# ---------------------------------------------------------------------------
#
# Every factor of a product point is a GroupWord: the ambient factor a word
# over G, each dual factor a point of the dual of H as a word over D(K, K*).
# A test function is l·Ad·r on one factor; on a dual factor l and r are rows
# of sub_restrict and sub_embed, so it reads Ad on the double of (H, H*).
#
# Derivatives are in closed form.  A factor's directions are the basis of G or
# the H* basis, with ad matrices ad_i (G.c, or the setup's hstar_ads); along
# exp(t·e_i)·w and w·exp(t·e_i) the matrix Ad moves to ad_i·Ad and Ad·ad_i.
# The slot gradient of a function lists its left derivatives along the
# factor's directions, then its right ones, and a point's gradient
# concatenates its factors in order.  Each bracket is one bilinear form
# J_uᵀ·B·J_v in these gradients, and B depends on the point only through
# its dual factors: Ad_λ in the dual block, and r(λ) with its derivatives
# from the rho jet.  So the gradient of an inner bracket follows by the
# product rule from second derivatives of the functions and the derivative
# of B, and a Jacobiator is exact: no translate is ever evaluated.


def ambient_word(G: LieAlgebra, factors) -> GroupWord:
    """The element exp(x1)·exp(x2)·… of the ambient group, as a word over G."""
    ad = np.eye(G.dim)
    fs = []
    for f in factors:
        f = np.asarray(f, dtype=float)
        if f.shape != (G.dim,):
            raise InputShapeError(f"ambient factors must have length {G.dim}")
        fs.append(f)
        ad = ad @ expm(G.ad_matrix(f))
    return GroupWord(G, tuple(fs), ad)


@dataclass(frozen=True, eq=False)
class QPoint:
    """Point (g, λ) of the product space G × Ȟ* of a setup."""

    setup: ReductionSetup
    g: GroupWord
    dual: GroupWord
    # factors in gradient order, and for each dual factor the sign of its
    # blocks and the side of the ambient gradient it pairs with
    factors: ClassVar[tuple] = ("g", "dual")
    couplings: ClassVar[tuple] = (("dual", 1.0, "right"),)


@dataclass(frozen=True, eq=False)
class PPoint:
    """Point (λ̃, g, λ̂) of the two-sided product space Ȟ* × G × Ȟ*."""

    setup: ReductionSetup
    tilde: GroupWord
    g: GroupWord
    hat: GroupWord
    factors: ClassVar[tuple] = ("tilde", "g", "hat")
    couplings: ClassVar[tuple] = (("hat", 1.0, "right"), ("tilde", -1.0, "left"))


@dataclass(frozen=True, eq=False)
class QFunction:
    """The function l·Ad·r of one factor of a product point.

    slot names the factor: "g" or "dual" on a QPoint, "tilde", "g" or "hat"
    on a PPoint.
    """

    slot: str
    left: np.ndarray
    right: np.ndarray

    def __call__(self, pt) -> float:
        return float(self.left @ getattr(pt, self.slot).ad @ self.right)

    def jet(self, word: GroupWord, ads: np.ndarray) -> tuple:
        """Slot gradient (2k,) and Hessian (2k, 2k) on a factor with k directions.

        hess[i, j] is the derivative along direction i of gradient entry j:
        l·ad_j·ad_i·Ad·r (left, left), l·ad_i·Ad·ad_j·r (left, right),
        l·ad_j·Ad·ad_i·r (right, left) and l·Ad·ad_i·ad_j·r (right, right).
        """
        grad, hess = _slot_jets([self], word.ad[None], ads)
        return grad[0], hess[0]


def _slot_jets(fs, ad: np.ndarray, ads: np.ndarray) -> tuple:
    """QFunction.jet of every function in fs, in one stacked pass: (grads,
    hessians), one row each.  ad[i] is the Ad matrix of the factor fs[i] is
    read on.

    Each function is a batch of its own, a row vector l and a column r, so
    every product is the one it would take alone.
    """
    k = len(ads)
    ls = np.array([f.left for f in fs])[:, None, :]  # (F, 1, d)
    rs = np.array([f.right for f in fs])[:, :, None]  # (F, d, 1)
    la = (ls[:, None] @ ads)[:, :, 0]  # rows l·ad_i
    ar = (ads @ rs[:, None])[..., 0]  # rows ad_i·r
    l_ad, ad_r = ls @ ad, ad @ rs
    la_t, ar_t = np.swapaxes(la, 1, 2), np.swapaxes(ar, 1, 2)
    grad = np.concatenate(
        [(la @ ad_r)[..., 0], (ar @ np.swapaxes(l_ad, 1, 2))[..., 0]], axis=1
    )
    lr = (la @ ad) @ ar_t
    hess = np.empty((len(fs), 2 * k, 2 * k))
    hess[:, :k, :k] = (ads @ ad_r[:, None])[..., 0] @ la_t
    hess[:, :k, k:] = lr
    hess[:, k:, :k] = np.swapaxes(lr, 1, 2)
    hess[:, k:, k:] = (l_ad[:, None] @ ads)[:, :, 0] @ ar_t
    return grad, hess


def g_entry(S: ReductionSetup, a: int, b: int) -> QFunction:
    e = np.eye(S.G.dim)
    return QFunction("g", e[a], e[b])


def _sub_entry(S: ReductionSetup, slot: str, a: int, b: int) -> QFunction:
    """Entry (a, b) of Ad on the double of (H, H*), read off a word over D(K, K*)."""
    return QFunction(slot, S.sub_restrict[a], S.sub_embed[b])


def dual_entry(S: ReductionSetup, a: int, b: int) -> QFunction:
    return _sub_entry(S, "dual", a, b)


def hat_entry(S: ReductionSetup, a: int, b: int) -> QFunction:
    return _sub_entry(S, "hat", a, b)


def tilde_entry(S: ReductionSetup, a: int, b: int) -> QFunction:
    return _sub_entry(S, "tilde", a, b)


class _BracketForm:
    """The brackets of a stack of product points, all QPoints or all PPoints,
    as bilinear forms in slot gradients.

    B[b] holds the blocks of the bracket ansatz at point b.  The ambient
    gradients meet -R on the left side and R on the right.  For each dual
    factor λ, with its sign s and ambient side:
      - its dual Poisson bracket, s·<< grad u, Ad_λ grad' v >> on D(K, K*),
        is the block (left, right) of λ;
      - its left gradient pairs with that ambient side through the H basis;
      - s·r(λ) adds to that side's ambient block.
    B moves only along the gradient directions of the dual factors, through
    Ad_λ and the rho jet: dB[b, i] is its derivative along direction
    moving[i], and along every other direction the derivative is 0.

    Each bracket and Jacobi call builds its own form and drops it on return,
    so nothing is stored on the points or the test functions.
    """

    def __init__(self, S: ReductionSetup, rfun, pts):
        n, p, dim_g = S.n, S.dim_H, S.G.dim
        kind = type(pts[0])
        g_ads = np.swapaxes(S.G.c, 1, 2)  # g_ads[i] = ad_{e_i} on G
        self.factors, self.offsets, size = {}, {}, 0
        for name in kind.factors:
            ads = g_ads if name == "g" else S.hstar_ads
            words = [getattr(pt, name) for pt in pts]
            self.factors[name] = (words, np.array([w.ad for w in words]), ads)
            self.offsets[name] = size
            size += 2 * len(ads)
        g0 = self.offsets["g"]
        sides = {"left": slice(g0, g0 + dim_g), "right": slice(g0 + dim_g, g0 + 2 * dim_g)}
        self.moving = np.concatenate(
            [self.offsets[name] + np.arange(2 * p) for name, _, _ in kind.couplings]
        )
        B = np.zeros((len(pts), size, size))
        dB = np.zeros((len(pts), len(self.moving), size, size))
        B[:, sides["left"], sides["left"]] = -S.R
        B[:, sides["right"], sides["right"]] = S.R
        h_g = S.H_in_G
        hk = S.H_in_K
        for c, (name, sign, side) in enumerate(kind.couplings):
            words, ad, _ = self.factors[name]
            o = self.offsets[name]
            lam_l, lam_r, amb = slice(o, o + p), slice(o + p, o + 2 * p), sides[side]
            jets = [rfun(w) for w in words]
            B[:, lam_l, lam_r] = sign * (hk @ ad[:, n:, :n] @ hk.T)
            B[:, amb, lam_l] = h_g.T
            B[:, lam_l, amb] = -h_g
            B[:, amb, amb] += sign * np.array([jet.value for jet in jets])
            velocity = np.array([constraint_matrix(S, w).velocity for w in words])
            along = slice(2 * p * c, 2 * p * (c + 1))  # λ's rows of dB
            dB[:, along, lam_l, lam_r] = sign * (hk @ velocity[:, :, n:, :n] @ hk.T)
            dB[:, along, amb, amb] = sign * np.array(
                [np.concatenate([jet.left, jet.right]) for jet in jets])
        self.size, self.B, self.dB = size, B, dB

    def jets(self, fs) -> tuple:
        """(grad, hess, B_grad, BT_grad, dB_grad) of the functions fs[b][i]
        over point b: the gradients and Hessians (hess[..., k, m] =
        ∂_k grad[m]) from each factor's slot jets in one stacked pass
        (_slot_jets), and their products with B, Bᵀ and dB as one batch per
        product.  Each has the leading axes (points, functions)."""
        count, per = len(fs), len(fs[0])
        flat = [f for row in fs for f in row]
        owner = np.repeat(np.arange(count), per)
        grads = np.zeros((len(flat), self.size))
        hess = np.zeros((len(flat), self.size, self.size))
        for slot in dict.fromkeys(f.slot for f in flat):
            _, ad, ads = self.factors[slot]
            on = np.array([r for r, f in enumerate(flat) if f.slot == slot])
            at = slice(self.offsets[slot], self.offsets[slot] + 2 * len(ads))
            grads[on, at], hess[on, at, at] = _slot_jets([flat[r] for r in on], ad[owner[on]], ads)
        grads = grads.reshape(count, per, self.size)
        hess = hess.reshape(count, per, self.size, self.size)
        cols = grads[..., None]
        B_grad = (self.B[:, None] @ cols)[..., 0]
        BT_grad = (np.swapaxes(self.B, 1, 2)[:, None] @ cols)[..., 0]
        dB_grad = (self.dB[:, None] @ grads[:, :, None, :, None])[..., 0]
        return grads, hess, B_grad, BT_grad, dB_grad

    def jacobiators(self, triples) -> np.ndarray:
        """|{f1, {f2, f3}} + {f2, {f3, f1}} + {f3, {f1, f2}}| for each
        (f1, f2, f3) of triples[b] at point b, a (points, triples) array,
        from one jet of each distinct function of a point."""
        fs, index = [], []
        for row in triples:
            seen = {}
            index.append([[seen.setdefault(f, len(seen)) for f in t] for t in row])
            fs.append(list(seen))
        # a point with fewer distinct functions repeats its first one
        width = max(map(len, fs))
        jets = self.jets([row + row[:1] * (width - len(row)) for row in fs])
        at = np.arange(len(fs))[:, None], np.array(index)
        grad, hess, B_grad, BT_grad, dB_grad = (
            [a[at[0], at[1][..., i]] for i in range(3)] for a in jets
        )
        total = np.zeros(at[1].shape[:2])
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            # gradient of the inner bracket gjᵀ·B·gk, by the product rule;
            # the middle term, from dB, is 0 off the moving directions
            grad_jk = (hess[j] @ B_grad[k][..., None])[..., 0]
            grad_jk[..., self.moving] += (dB_grad[k] @ grad[j][..., None])[..., 0]
            grad_jk += (hess[k] @ BT_grad[j][..., None])[..., 0]
            total += (BT_grad[i][..., None, :] @ grad_jk[..., None])[..., 0, 0]
        return np.abs(total)


def bracket(S: ReductionSetup, rfun, pt: QPoint | PPoint, u: QFunction, v: QFunction) -> float:
    """The bracket ansatz of a QPoint's or a PPoint's space on two test functions.

    Assembled blockwise from slot gradients: the dual-side Poisson brackets,
    the pairing of ambient gradients with dual gradients, and the double
    contraction of ambient gradients against R + r(λ) and R.  On Ȟ* × G × Ȟ*
    the hat copy carries the dual bracket with a plus sign and pairs with
    right ambient gradients against R + r(λ̂); the tilde copy enters with a
    minus sign and pairs with left ambient gradients against R + r(λ̃); the
    two dual copies commute with each other.
    """
    grad, _, _, BT_grad, _ = _BracketForm(S, rfun, [pt]).jets([[u, v]])
    return float(BT_grad[0, 0] @ grad[0, 1])


def _jacobiators(S: ReductionSetup, rfun, pts, triples) -> np.ndarray:
    """One |Jacobiator| per (f1, f2, f3) of triples[b] at pts[b], from one
    form per chunk of points and one jet per function.  Every point has the
    same number of triples; the chunks keep the form's and the jets' stacks
    within the sampler's per-array bound."""
    triples = [[tuple(t) for t in row] for row in triples]
    if len(triples) != len(pts) or len({len(row) for row in triples}) > 1:
        raise InputShapeError("give every point the same number of triples")
    kind = type(pts[0])
    # per point: dB and the Hessians, each a stack of (size, size) matrices
    size = sum(2 * (S.G.dim if name == "g" else S.dim_H) for name in kind.factors)
    rows = max(2 * S.dim_H * len(kind.couplings), 3 * len(triples[0]))
    return np.concatenate([
        _BracketForm(S, rfun, pts[part]).jacobiators(triples[part])
        for part in _point_chunks(S, len(pts), rows * size * size)
    ])


def q_jacobi_residual(S: ReductionSetup, rfun, pts, triples) -> np.ndarray:
    """Cyclic Jacobiators of the G × Ȟ* bracket, exact from first-order jets,
    at each QPoint of pts: one per (f1, f2, f3) of its row of triples, as a
    (len(pts), triples per point) float array."""
    return _jacobiators(S, rfun, pts, triples)


def p_jacobi_residual(S: ReductionSetup, rfun, pts, triples) -> np.ndarray:
    """Cyclic Jacobiators of the Ȟ* × G × Ȟ* bracket, exact from first-order
    jets, at each PPoint of pts: one per (f1, f2, f3) of its row of triples,
    as a (len(pts), triples per point) float array."""
    return _jacobiators(S, rfun, pts, triples)


# ---------------------------------------------------------------------------
# suite runners
# ---------------------------------------------------------------------------


def _report(eq, where, residuals, tol, direction="upper") -> ResidualReport:
    """where: one descriptor per point, as describe_word gives it; residuals:
    one per point, a sequence or an array.  A NaN at any point is the
    maximum, so it fails either direction."""
    per = tuple((d, float(r)) for d, r in zip(where, residuals))
    max_r = float(np.max(residuals)) if len(residuals) else 0.0
    return ResidualReport(
        equation_id=eq,
        per_point=per,
        max_residual=max_r,
        fd_step=0.0,
        tolerance=tol,
        direction=direction,
    )


def run_suite(
    S: ReductionSetup,
    suite: str = "all",
    num_points: int = 10,
    seed: int = 0,
    box_radius: float = 1.0,
    residual: Optional[float] = None,
) -> tuple[list, list]:
    """Run the requested residual suites on the reduced r* = rho of the setup.

    Returns (reports, words): one ResidualReport per equation, and the
    second-class samples of the dual of H the suites ran on, both
    deterministic for a fixed seed.  The points are second class under
    S.cond_threshold.  Each equation is bounded by DEFAULT_TOLERANCES, except
    that residual, when given, bounds the RESIDUAL_EQUATIONS.  Every
    derivative is exact, so every equation reports fd_step 0.0.
    """
    tol = dict(DEFAULT_TOLERANCES)
    if residual is not None:
        tol.update(dict.fromkeys(RESIDUAL_EQUATIONS, residual))
    if suite != "all" and suite not in SUITES:
        raise InputShapeError(f"unknown suite {suite!r}")
    suites = SUITES if suite == "all" else (suite,)
    rfun = reduced_r_function(S)
    words = sample_hstar_points(S, num_points, seed, box_radius)
    where = [describe_word(w) for w in words]  # each point described once
    # one stream per section, so a suite's draws do not depend on which other
    # suites run alongside it
    section_seed = {"cdybe": 101, "equivariance": 211, "dirac": 307, "jacobi": 401}
    n, m, p, dim_g = S.n, S.dim_M, S.dim_H, S.G.dim
    reports = []

    def by_chunks(per_point, section):
        """section(part) for the parts of the sample that keep stacks of
        per_point entries a point within the sampler's per-array bound, its
        per-point results joined over the parts in order."""
        outs = [section(part) for part in _point_chunks(S, len(words), per_point)]
        return [np.concatenate(col) for col in zip(*outs)]

    for s in suites:
        rng = np.random.Generator(np.random.PCG64(seed + section_seed[s]))
        if s == "cdybe":
            fill_caches(S, words, ("velocity", "jet"))
            reports.append(
                _report(
                    EQ_MCYBE,
                    [[]],
                    [invariance_residual3(S.G, S.anomaly)],
                    tol[EQ_MCYBE],
                )
            )
            # the left side once per point serves both equations; the first
            # point is the triangularity reference, as in triangularity_check
            lhs = [plcdybe_lhs(S, rfun, w) for w in words]
            res = [np.abs(t - S.anomaly).max(initial=0.0) for t in lhs]
            reports.append(_report(EQ_PLCDYBE, where, res, tol[EQ_PLCDYBE]))
            res = [_triangularity(S.G, t, lhs[0]) for t in lhs]
            reports.append(_report(EQ_TRIANGULARITY, where, res, tol[EQ_TRIANGULARITY]))
            if S.dim_M > 0:
                a, b = largest_entry(rfun(words[0]).value)
                bad = sign_flipped_rfun(rfun, int(a), int(b))
                res = [np.abs(plcdybe_residual(S, bad, w)).max(initial=0.0) for w in words]
                reports.append(
                    _report(EQ_CONTROL, where, res, tol[EQ_CONTROL], direction="lower")
                )
        elif s == "equivariance":
            fill_caches(S, words, ("velocity", "jet", "ad_inverse"))
            # every H basis vector at every point of a part in one call, a
            # (p, dim G, dim G) residual stack per point
            units = np.broadcast_to(np.eye(p), (len(words), p, p))
            (res,) = by_chunks(p * dim_g * dim_g, lambda part: (np.abs(
                equivariance_residual(S, rfun, words[part], units[part])
            ).max(axis=(1, 2, 3), initial=0.0),))
            reports.append(_report(EQ_EQUIVARIANCE, where, res, tol[EQ_EQUIVARIANCE]))
        elif s == "dirac":
            fill_caches(S, words, ("velocity", "ad_inverse", "n_matrix"))
            dim2 = S.sub_double.dim
            # one draw per point: the entries (a, b) of 20 functions, the
            # 10 Dirac pairs (F1, F2) interleaved, then of one function per
            # constraint; dual_entry(S, a, b) has the rows sub_restrict[a]
            # and sub_embed[b], so the gradients are one contraction
            ab = np.array([rng.integers(0, dim2, (20 + m, 2)) for _ in words])
            # then 20 (u, v) pairs per point from one draw, each row moved
            # into K coordinates by its own product
            if m:
                uv = np.array([rng.uniform(-1, 1, (20, 2, 1, m)) for _ in words]) @ S.M_in_K
                u, v = uv[:, :, 0, 0], uv[:, :, 1, 0]
            else:
                u = v = np.zeros((len(words), 20, n))

            def dirac(part):
                pw = words[part]
                grads = _row_gradients(
                    S, pw, S.sub_restrict[ab[part, :, 0]], S.sub_embed[ab[part, :, 1]]
                )
                g1, g2 = grads[:, 0:20:2, :p], grads[:, 1:20:2, p:]
                got = dirac_bracket(S, pw, g1, g2)
                res_d = np.abs(got - native_hstar_bracket(S, pw, g1, g2)).max(axis=1)
                # {f_i, ξ_i} for the function drawn for constraint i
                pb = constraint_pb_check(S, pw, grads[:, 20:, :p])
                res_c = np.abs(np.diagonal(pb, axis1=1, axis2=2)).max(axis=1, initial=0.0)
                rhos = np.array([rho(S, w) for w in pw])
                res_r = np.maximum(
                    np.abs(rhos - rho_via_n(S, pw)).max(axis=(1, 2), initial=0.0),
                    constraint_inverse_operator_residual(S, pw),
                )
                res_x = characterization_identity_residual(S, pw, u[part], v[part])
                return res_d, res_c, res_r, res_x

            # per point: its velocity stack, (2p, 2n, 2n), and the
            # contraction of its functions with it, (2p, 20 + dim M, 2n)
            res_d, res_c, res_r, res_x = by_chunks(2 * p * 2 * n * max(2 * n, 20 + m), dirac)
            reports.append(_report(EQ_DIRAC, where, res_d, tol[EQ_DIRAC]))
            reports.append(_report(EQ_CONSTRAINT_PB, where, res_c, tol[EQ_CONSTRAINT_PB]))
            reports.append(_report(EQ_RHO_CONSISTENCY, where, res_r, tol[EQ_RHO_CONSISTENCY]))
            reports.append(_report(EQ_CHARACTERIZATION, where, res_x, tol[EQ_CHARACTERIZATION]))
        elif s == "jacobi":
            pts = [words[k % len(words)] for k in range(JACOBI_POINTS)]
            pts_where = [where[k % len(words)] for k in range(JACOBI_POINTS)]
            fill_caches(S, words[:JACOBI_POINTS], ("velocity", "jet"))
            dim2 = S.sub_double.dim
            qpts, ppts, q_triples, p_triples = [], [], [], []
            for k, w in enumerate(pts):
                g = ambient_word(S.G, [rng.uniform(-AMBIENT_BOX, AMBIENT_BOX, dim_g)])
                # three ambient entries give the triple sensitive to the
                # derivative of r; the mixed triples cover the dual blocks
                phis = [g_entry(S, a, b) for a, b in rng.integers(0, dim_g, (3, 2)).tolist()]
                on_dual, on_hat, on_tilde = rng.integers(0, dim2, (3, 2)).tolist()
                fd = dual_entry(S, *on_dual)
                f3p, f2p = hat_entry(S, *on_hat), tilde_entry(S, *on_tilde)
                qpts.append(QPoint(S, g, w))
                q_triples.append([phis, (phis[0], phis[1], fd)])
                ppts.append(PPoint(S, pts[(k + 1) % len(pts)], g, w))
                p_triples.append([phis, (phis[0], f2p, f3p)])
            # every product point's two triples, of every point, in one call each
            res_q = q_jacobi_residual(S, rfun, qpts, q_triples).max(axis=1)
            res_p = p_jacobi_residual(S, rfun, ppts, p_triples).max(axis=1)
            reports.append(_report(EQ_Q_JACOBI, pts_where, res_q, tol[EQ_Q_JACOBI]))
            reports.append(_report(EQ_P_JACOBI, pts_where, res_p, tol[EQ_P_JACOBI]))
    return reports, words
