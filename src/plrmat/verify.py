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

Each point is taken in one pass.  A Jacobi call takes a product point
with a stack of (f1, f2, f3) triples: it builds the point's bracket form
once, makes the jet of each distinct test function once, in one stacked
pass per factor, and returns one |Jacobiator| per triple; nothing is kept
on the point, the functions or the form when it returns.  A Dirac point's
test functions, and a characterization point's (u, v) pairs, are one draw
each.  The functions' gradients are one (20 + dim M, 2·dim H) array
(reduction._row_gradients), whose rows the brackets and the constraint
check read: one call each per point, the constraint check a (dim M, dim M)
product whose diagonal is CONSTRAINT_PB.  An equivariance call takes a
stack of H vectors, a point's basis in the suite.  Every draw gives the
stream of the scalar draws it replaced and every bracket product keeps its
shape, so the residuals are those of one call per Jacobiator and bracket,
bit for bit.

The tolerance of each equation is defined here, in DEFAULT_TOLERANCES; the
spec's residual tolerance may replace it for the RESIDUAL_EQUATIONS alone,
so no caller can loosen the control or the exact identities.  The suites
run at the second-class points of the setup's cond_threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import ClassVar, NamedTuple, Optional

import numpy as np
from scipy.linalg import expm

from . import bounds
from .bialgebra_double import ReductionSetup
from .dual_group import GroupWord
from .errors import ConsistencyError, InputShapeError
from .lie_core import LieAlgebra, cybe_lhs, invariance_residual3
from .reduction import (
    RhoJet,
    _row_gradients,
    characterization_identity_residual,
    constraint_inverse_operator_residual,
    constraint_matrix,
    constraint_pb_check,
    dirac_bracket,
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


def equivariance_residual(S: ReductionSetup, rfun, word: GroupWord, x_h) -> np.ndarray:
    """dress_X r - [X⊗1 + 1⊗X, r] at λ for each X in H of a stack of H-basis
    coordinates.

    The dressing derivative moves λ along λ·exp(t·Y) with Y the K*-part of
    Ad_λ^{-1} X; for λ in the dual of H the vector Y lies in H*, which is
    verified, and the derivative of r along it is Σ_a y_a·(right derivative
    along H^a) for the H* coordinates y of Y.  x_h is a (k, dim H) stack of
    X, and the residuals come back as a (k, dim G, dim G) stack; each X goes
    through the products it would go through alone.
    """
    x_h = np.asarray(x_h, dtype=float)
    p = S.dim_H
    if x_h.ndim != 2 or x_h.shape[1] != p:
        raise InputShapeError(f"X must be a stack of rows of {p} H coordinates")
    xs = x_h[:, None, :]  # one row per X
    x_k = xs @ S.H_in_K
    # dual_group.dressing_vector, read off the point's cached Ad_λ^{-1}
    y = constraint_matrix(S, word).ad_inverse[S.n:, :S.n] @ np.swapaxes(x_k, 1, 2)
    y_h = np.swapaxes(S.Hstar_component(y), 1, 2)
    y = np.swapaxes(y, 1, 2)
    leak = np.abs(y - y_h @ S.Hdual).max(axis=(1, 2), initial=0.0)
    size = np.abs(y).max(axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(leak > bounds.DRESSING_LEAK_TOL * (1.0 + size))
    if bad.size:
        raise ConsistencyError(f"dressing vector leaves H*: leak {leak[bad[0]]:.3e}")
    jet = rfun(word)
    r_here = jet.value
    flow = (y_h @ jet.right.reshape(p, -1)).reshape((-1,) + r_here.shape)
    adx = (xs @ S.h_ads.reshape(p, -1)).reshape((-1,) + r_here.shape)
    return flow - (adx @ r_here + r_here @ np.swapaxes(adx, 1, 2))


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
        return _slot_jets([self], word, ads)[0]


def _slot_jets(fs, word: GroupWord, ads: np.ndarray) -> list:
    """QFunction.jet of every function in fs on one factor, in one stacked pass.

    Each function is a batch of its own, a row vector l and a column r, so
    every product is the one it would take alone.
    """
    k, ad = len(ads), word.ad
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
    return list(zip(grad, hess))


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


class _Jet(NamedTuple):
    """A test function over a product point: its gradient and Hessian
    (hess[k, m] = ∂_k grad[m]) and their products with the form."""

    grad: np.ndarray
    hess: np.ndarray
    B_grad: np.ndarray  # B @ grad
    BT_grad: np.ndarray  # B.T @ grad, the same product as grad @ B
    dB_grad: np.ndarray  # dB @ grad, one row per moving direction


class _BracketForm:
    """The bracket of a product point as a bilinear form in slot gradients.

    B holds the blocks of the bracket ansatz.  The ambient gradients meet
    -R on the left side and R on the right.  For each dual factor λ, with
    its sign s and ambient side:
      - its dual Poisson bracket, s·<< grad u, Ad_λ grad' v >> on D(K, K*),
        is the block (left, right) of λ;
      - its left gradient pairs with that ambient side through the H basis;
      - s·r(λ) adds to that side's ambient block.
    B moves only along the gradient directions of the dual factors, through
    Ad_λ and the rho jet: dB[i] is its derivative along direction moving[i],
    and along every other direction the derivative is 0.

    Each bracket and Jacobi call builds its own form and drops it on return,
    so nothing is stored on the point or the test functions.
    """

    def __init__(self, S: ReductionSetup, rfun, pt):
        n, p, dim_g = S.n, S.dim_H, S.G.dim
        g_ads = np.swapaxes(S.G.c, 1, 2)  # g_ads[i] = ad_{e_i} on G
        self.factors, self.offsets, size = {}, {}, 0
        for name in pt.factors:
            ads = g_ads if name == "g" else S.hstar_ads
            self.factors[name] = (getattr(pt, name), ads)
            self.offsets[name] = size
            size += 2 * len(ads)
        g0 = self.offsets["g"]
        sides = {"left": slice(g0, g0 + dim_g), "right": slice(g0 + dim_g, g0 + 2 * dim_g)}
        self.moving = np.concatenate(
            [self.offsets[name] + np.arange(2 * p) for name, _, _ in pt.couplings]
        )
        B = np.zeros((size, size))
        dB = np.zeros((len(self.moving), size, size))
        B[sides["left"], sides["left"]] = -S.R
        B[sides["right"], sides["right"]] = S.R
        h_g = S.H_in_G
        hk = S.H_in_K
        for c, (name, sign, side) in enumerate(pt.couplings):
            word = self.factors[name][0]
            o = self.offsets[name]
            lam_l, lam_r, amb = slice(o, o + p), slice(o + p, o + 2 * p), sides[side]
            jet = rfun(word)
            B[lam_l, lam_r] = sign * (hk @ word.ad[n:, :n] @ hk.T)
            B[amb, lam_l] = h_g.T
            B[lam_l, amb] = -h_g
            B[amb, amb] += sign * jet.value
            velocity = constraint_matrix(S, word).velocity
            along = slice(2 * p * c, 2 * p * (c + 1))  # λ's rows of dB
            dB[along, lam_l, lam_r] = sign * (hk @ velocity[:, n:, :n] @ hk.T)
            dB[along, amb, amb] = sign * np.concatenate([jet.left, jet.right])
        self.size, self.B, self.dB = size, B, dB

    def jets(self, fs) -> dict:
        """The _Jet over the point of every distinct function in fs: each
        factor's slot jets in one stacked pass (_slot_jets), and their
        products with B and dB as one batch per product."""
        fs = list(dict.fromkeys(fs))
        grads = np.zeros((len(fs), self.size))
        hess = np.zeros((len(fs), self.size, self.size))
        for slot in dict.fromkeys(f.slot for f in fs):
            word, ads = self.factors[slot]
            on = [r for r, f in enumerate(fs) if f.slot == slot]
            at = slice(self.offsets[slot], self.offsets[slot] + 2 * len(ads))
            for r, (grad, h) in zip(on, _slot_jets([fs[r] for r in on], word, ads)):
                grads[r, at], hess[r, at, at] = grad, h
        cols = grads[:, :, None]
        B_grad, BT_grad = (self.B @ cols)[..., 0], (self.B.T @ cols)[..., 0]
        dB_grad = (self.dB @ grads[:, None, :, None])[..., 0]
        return {f: _Jet(grads[r], hess[r], B_grad[r], BT_grad[r], dB_grad[r])
                for r, f in enumerate(fs)}

    def jacobiator(self, jets) -> float:
        """|{f1, {f2, f3}} + {f2, {f3, f1}} + {f3, {f1, f2}}| at the point,
        from the _Jets of (f1, f2, f3)."""
        total = 0.0
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            ji, jj, jk = jets[i], jets[j], jets[k]
            # gradient of the inner bracket gjᵀ·B·gk, by the product rule;
            # the middle term, from dB, is 0 off the moving directions
            grad_jk = jj.hess @ jk.B_grad
            grad_jk[self.moving] += jk.dB_grad @ jj.grad
            grad_jk += jk.hess @ jj.BT_grad
            total += ji.BT_grad @ grad_jk
        return abs(float(total))


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
    jets = _BracketForm(S, rfun, pt).jets((u, v))
    return float(jets[u].BT_grad @ jets[v].grad)


def _jacobiators(S: ReductionSetup, rfun, pt, triples) -> np.ndarray:
    """One |Jacobiator| per (f1, f2, f3) of triples, from one form of pt and
    one jet of each distinct function."""
    triples = [tuple(t) for t in triples]
    form = _BracketForm(S, rfun, pt)
    jets = form.jets([f for t in triples for f in t])
    return np.array([form.jacobiator([jets[f] for f in t]) for t in triples], dtype=float)


def q_jacobi_residual(S: ReductionSetup, rfun, pt: QPoint, triples) -> np.ndarray:
    """Cyclic Jacobiators of the G × Ȟ* bracket, exact from first-order jets:
    one per (f1, f2, f3) triple, as a float array."""
    return _jacobiators(S, rfun, pt, triples)


def p_jacobi_residual(S: ReductionSetup, rfun, pt: PPoint, triples) -> np.ndarray:
    """Cyclic Jacobiators of the Ȟ* × G × Ȟ* bracket, exact from first-order
    jets: one per (f1, f2, f3) triple, as a float array."""
    return _jacobiators(S, rfun, pt, triples)


# ---------------------------------------------------------------------------
# suite runners
# ---------------------------------------------------------------------------


def _report(eq, where, residuals, tol, direction="upper") -> ResidualReport:
    """where: one descriptor per point, as describe_word gives it.  A NaN at
    any point is the maximum, so it fails either direction."""
    per = tuple((d, float(r)) for d, r in zip(where, residuals))
    max_r = float(np.max(residuals)) if residuals else 0.0
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
    reports = []

    for s in suites:
        rng = np.random.Generator(np.random.PCG64(seed + section_seed[s]))
        if s == "cdybe":
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
            # every H basis vector at a point in one call
            units = np.eye(S.dim_H)
            res = [np.abs(equivariance_residual(S, rfun, w, units)).max(initial=0.0)
                   for w in words]
            reports.append(_report(EQ_EQUIVARIANCE, where, res, tol[EQ_EQUIVARIANCE]))
        elif s == "dirac":
            dim2, m, p = S.sub_double.dim, S.dim_M, S.dim_H
            # one draw per point: the entries (a, b) of 20 functions, the
            # 10 Dirac pairs (F1, F2) interleaved, then of one function per
            # constraint; dual_entry(S, a, b) has the rows sub_restrict[a]
            # and sub_embed[b], so the gradients are one contraction
            res_d, res_c = [], []
            for w in words:
                ab = rng.integers(0, dim2, (20 + m, 2))
                grads = _row_gradients(
                    constraint_matrix(S, w), S.sub_restrict[ab[:, 0]], S.sub_embed[ab[:, 1]]
                )
                g1, g2 = grads[0:20:2, :p], grads[1:20:2, p:]
                got = dirac_bracket(S, w, g1, g2)
                res_d.append(float(np.abs(got - native_hstar_bracket(S, w, g1, g2)).max()))
                # {f_i, ξ_i} for the function drawn for constraint i
                pb = constraint_pb_check(S, w, grads[20:, :p])
                res_c.append(float(np.abs(np.diagonal(pb)).max(initial=0.0)))
            reports.append(_report(EQ_DIRAC, where, res_d, tol[EQ_DIRAC]))
            reports.append(_report(EQ_CONSTRAINT_PB, where, res_c, tol[EQ_CONSTRAINT_PB]))
            res = []
            for w in words:
                r1 = float(np.abs(rho(S, w) - rho_via_n(S, w)).max(initial=0.0))
                res.append(np.maximum(r1, constraint_inverse_operator_residual(S, w)))
            reports.append(_report(EQ_RHO_CONSISTENCY, where, res, tol[EQ_RHO_CONSISTENCY]))
            res = []
            for w in words:
                # 20 (u, v) pairs per point from one draw, each row moved into
                # K coordinates by its own product, and checked in one call
                if m:
                    uv = rng.uniform(-1, 1, (20, 2, 1, m)) @ S.M_in_K
                    u, v = uv[:, 0, 0], uv[:, 1, 0]
                else:
                    u = v = np.zeros((20, S.n))
                res.append(characterization_identity_residual(S, w, u, v))
            reports.append(_report(EQ_CHARACTERIZATION, where, res, tol[EQ_CHARACTERIZATION]))
        elif s == "jacobi":
            pts = [words[k % len(words)] for k in range(JACOBI_POINTS)]
            pts_where = [where[k % len(words)] for k in range(JACOBI_POINTS)]
            dim_g = S.G.dim
            dim2 = S.sub_double.dim
            res_q, res_p = [], []
            for k, w in enumerate(pts):
                g = ambient_word(S.G, [rng.uniform(-AMBIENT_BOX, AMBIENT_BOX, dim_g)])
                # three ambient entries give the triple sensitive to the
                # derivative of r; the mixed triples cover the dual blocks
                phis = [g_entry(S, a, b) for a, b in rng.integers(0, dim_g, (3, 2)).tolist()]
                on_dual, on_hat, on_tilde = rng.integers(0, dim2, (3, 2)).tolist()
                fd = dual_entry(S, *on_dual)
                f3p, f2p = hat_entry(S, *on_hat), tilde_entry(S, *on_tilde)
                # both triples of a product point in one call, which makes
                # the jets of phis[0] and phis[1] once for the two
                qpt = QPoint(S, g, w)
                res_q.append(q_jacobi_residual(S, rfun, qpt, [phis, (phis[0], phis[1], fd)]).max())
                ppt = PPoint(S, pts[(k + 1) % len(pts)], g, w)
                res_p.append(p_jacobi_residual(S, rfun, ppt, [phis, (phis[0], f2p, f3p)]).max())
            reports.append(_report(EQ_Q_JACOBI, pts_where, res_q, tol[EQ_Q_JACOBI]))
            reports.append(_report(EQ_P_JACOBI, pts_where, res_p, tol[EQ_P_JACOBI]))
    return reports, words
