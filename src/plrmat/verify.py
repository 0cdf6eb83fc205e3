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
    characterization_identity_residual,
    constraint_inverse_operator_residual,
    constraint_matrix,
    constraint_pb_check,
    dirac_bracket,
    native_hstar_bracket,
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
    if word.factors is None:
        return []
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
    ka = S.K_to_G(S.H_in_K)  # row a: H_a in G coordinates
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
        worst = max(worst, float(np.max(np.abs(lhs - ref_lhs), initial=0.0)))
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
    """dress_X r - [X⊗1 + 1⊗X, r] at λ, for X in H given by H-basis coordinates.

    The dressing derivative moves λ along λ·exp(t·Y) with Y the K*-part of
    Ad_λ^{-1} X; for λ in the dual of H the vector Y lies in H*, which is
    verified, and the derivative of r along it is Σ_a y_a·(right derivative
    along H^a) for the H* coordinates y of Y.
    """
    x_h = np.asarray(x_h, dtype=float)
    if x_h.shape != (S.dim_H,):
        raise InputShapeError(f"X must have {S.dim_H} H coordinates")
    x_k = x_h @ S.H_in_K
    # dual_group.dressing_vector, read off the point's cached Ad_λ^{-1}
    y = constraint_matrix(S, word).ad_inverse[S.n:, :S.n] @ x_k
    y_h = S.Hstar_component(y)
    leak = float(np.max(np.abs(y - y_h @ S.Hdual), initial=0.0))
    if leak > bounds.DRESSING_LEAK_TOL * (1.0 + float(np.max(np.abs(y), initial=0.0))):
        raise ConsistencyError(f"dressing vector leaves H*: leak {leak:.3e}")
    jet = rfun(word)
    flow = np.tensordot(y_h, jet.right, axes=1)
    adx = S.G.ad_matrix(S.K_to_G(x_k))
    r_here = jet.value
    return flow - (adx @ r_here + r_here @ adx.T)


def reduced_r_function(S: ReductionSetup):
    """rfun for r* = rho as a callable on dual-group words, returning RhoJets.

    Each call is rho_jet at the word, which checks S.cond_threshold and reads
    the jet cached on the point's CMatrix: the suites ask for r* at a point
    once per equation and per Jacobiator, and it is computed once.
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
# Derivatives are closed forms.  A factor's directions are the basis of G or
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
        l, r, ad = self.left, self.right, word.ad
        la, ar = l @ ads, ads @ r  # rows l·ad_i and ad_i·r
        l_ad, ad_r = l @ ad, ad @ r
        grad = np.concatenate([la @ ad_r, ar @ l_ad])
        lr = (la @ ad) @ ar.T
        hess = np.block([[(ads @ ad_r) @ la.T, lr], [lr.T, (l_ad @ ads) @ ar.T]])
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
    """The bracket of a product point as a bilinear form in slot gradients.

    B holds the blocks of the bracket ansatz.  The ambient gradients meet
    -R on the left side and R on the right.  For each dual factor λ, with
    its sign s and ambient side:
      - its dual Poisson bracket, s·<< grad u, Ad_λ grad' v >> on D(K, K*),
        is the block (left, right) of λ;
      - its left gradient pairs with that ambient side through the H basis;
      - s·r(λ) adds to that side's ambient block.
    dB[k] is the derivative of B along gradient direction k: it is nonzero
    only along the dual factors, through Ad_λ and the rho jet.
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
        B = np.zeros((size, size))
        dB = np.zeros((size, size, size))
        B[sides["left"], sides["left"]] = -S.R
        B[sides["right"], sides["right"]] = S.R
        h_g = S.K_to_G(S.H_in_K)  # row a: H_a in G coordinates
        hk = S.H_in_K
        for name, sign, side in pt.couplings:
            word = self.factors[name][0]
            o = self.offsets[name]
            lam_l, lam_r, amb = slice(o, o + p), slice(o + p, o + 2 * p), sides[side]
            jet = rfun(word)
            B[lam_l, lam_r] = sign * (hk @ word.ad[n:, :n] @ hk.T)
            B[amb, lam_l] = h_g.T
            B[lam_l, amb] = -h_g
            B[amb, amb] += sign * jet.value
            velocity = constraint_matrix(S, word).velocity
            along = slice(o, o + 2 * p)
            dB[along, lam_l, lam_r] = sign * (hk @ velocity[:, n:, :n] @ hk.T)
            dB[along, amb, amb] = sign * np.concatenate([jet.left, jet.right])
        self.size, self.B, self.dB = size, B, dB

    def jet(self, f: QFunction) -> tuple:
        """Gradient J and Hessian (hess[k, m] = ∂_k J[m]) of f over the point."""
        word, ads = self.factors[f.slot]
        g, h = f.jet(word, ads)
        at = slice(self.offsets[f.slot], self.offsets[f.slot] + len(g))
        grad, hess = np.zeros(self.size), np.zeros((self.size, self.size))
        grad[at], hess[at, at] = g, h
        return grad, hess

    def bracket(self, u: QFunction, v: QFunction) -> float:
        return float(self.jet(u)[0] @ self.B @ self.jet(v)[0])

    def jacobiator(self, f1: QFunction, f2: QFunction, f3: QFunction) -> float:
        """|{f1, {f2, f3}} + {f2, {f3, f1}} + {f3, {f1, f2}}| at the point."""
        jets = [self.jet(f) for f in (f1, f2, f3)]
        B, dB = self.B, self.dB
        total = 0.0
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            (gi, _), (gj, hj), (gk, hk) = jets[i], jets[j], jets[k]
            # gradient of the inner bracket gjᵀ·B·gk, by the product rule
            grad_jk = hj @ (B @ gk) + (dB @ gk) @ gj + hk @ (B.T @ gj)
            total += gi @ B @ grad_jk
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
    return _BracketForm(S, rfun, pt).bracket(u, v)


def q_jacobi_residual(
    S: ReductionSetup, rfun, pt: QPoint, f1: QFunction, f2: QFunction, f3: QFunction
) -> float:
    """Cyclic Jacobiator of the G × Ȟ* bracket, exact from first-order jets."""
    return _BracketForm(S, rfun, pt).jacobiator(f1, f2, f3)


def p_jacobi_residual(
    S: ReductionSetup, rfun, pt: PPoint, f1: QFunction, f2: QFunction, f3: QFunction
) -> float:
    """Cyclic Jacobiator of the Ȟ* × G × Ȟ* bracket, exact from first-order jets."""
    return _BracketForm(S, rfun, pt).jacobiator(f1, f2, f3)


# ---------------------------------------------------------------------------
# suite runners
# ---------------------------------------------------------------------------


def _report(eq, points, residuals, tol, direction="upper") -> ResidualReport:
    per = tuple((describe_word(w) if isinstance(w, GroupWord) else w, float(r))
                for w, r in zip(points, residuals))
    max_r = float(max(residuals)) if residuals else 0.0
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
            res = [np.max(np.abs(t - S.anomaly), initial=0.0) for t in lhs]
            reports.append(_report(EQ_PLCDYBE, words, res, tol[EQ_PLCDYBE]))
            res = [_triangularity(S.G, t, lhs[0]) for t in lhs]
            reports.append(_report(EQ_TRIANGULARITY, words, res, tol[EQ_TRIANGULARITY]))
            if S.dim_M > 0:
                a, b = largest_entry(rfun(words[0]).value)
                bad = sign_flipped_rfun(rfun, int(a), int(b))
                res = [np.max(np.abs(plcdybe_residual(S, bad, w)), initial=0.0) for w in words]
                reports.append(
                    _report(EQ_CONTROL, words, res, tol[EQ_CONTROL], direction="lower")
                )
        elif s == "equivariance":
            res = []
            for w in words:
                worst = 0.0
                for a in range(S.dim_H):
                    x = np.zeros(S.dim_H)
                    x[a] = 1.0
                    res_x = equivariance_residual(S, rfun, w, x)
                    worst = max(worst, np.max(np.abs(res_x), initial=0.0))
                res.append(worst)
            reports.append(_report(EQ_EQUIVARIANCE, words, res, tol[EQ_EQUIVARIANCE]))
        elif s == "dirac":
            dim2 = S.sub_double.dim

            def draw():
                return dual_entry(S, int(rng.integers(0, dim2)), int(rng.integers(0, dim2)))

            res_d, res_c = [], []
            for w in words:
                pairs = [(draw(), draw()) for _ in range(10)]
                got = dirac_bracket(S, w, pairs)
                res_d.append(float(np.max(np.abs(got - native_hstar_bracket(S, w, pairs)))))
                res_c.append(max(
                    (abs(constraint_pb_check(S, w, draw(), i)) for i in range(S.dim_M)),
                    default=0.0,
                ))
            reports.append(_report(EQ_DIRAC, words, res_d, tol[EQ_DIRAC]))
            reports.append(_report(EQ_CONSTRAINT_PB, words, res_c, tol[EQ_CONSTRAINT_PB]))
            res = []
            for w in words:
                direct = rfun(w).value
                r1 = float(np.max(np.abs(direct - rho_via_n(S, w)), initial=0.0))
                r1 = max(r1, constraint_inverse_operator_residual(S, w))
                res.append(r1)
            reports.append(_report(EQ_RHO_CONSISTENCY, words, res, tol[EQ_RHO_CONSISTENCY]))
            res = []
            for w in words:
                # 20 (u, v) pairs per point, checked in one call
                u, v = np.zeros((20, S.n)), np.zeros((20, S.n))
                for k in range(20 if S.dim_M else 0):
                    u[k] = rng.uniform(-1, 1, S.dim_M) @ S.M_in_K
                    v[k] = rng.uniform(-1, 1, S.dim_M) @ S.M_in_K
                res.append(characterization_identity_residual(S, w, u, v))
            reports.append(_report(EQ_CHARACTERIZATION, words, res, tol[EQ_CHARACTERIZATION]))
        elif s == "jacobi":
            pts = [words[k % len(words)] for k in range(JACOBI_POINTS)]
            dim_g = S.G.dim
            dim2 = S.sub_double.dim
            res_q, res_p = [], []
            for k, w in enumerate(pts):
                g = ambient_word(S.G, [rng.uniform(-AMBIENT_BOX, AMBIENT_BOX, dim_g)])
                # three ambient entries give the triple sensitive to the
                # derivative of r; the mixed triple covers the dual blocks
                phis = [
                    g_entry(S, int(rng.integers(0, dim_g)), int(rng.integers(0, dim_g)))
                    for _ in range(3)
                ]
                fd = dual_entry(S, int(rng.integers(0, dim2)), int(rng.integers(0, dim2)))
                qpt = QPoint(S, g, w)
                worst = q_jacobi_residual(S, rfun, qpt, *phis)
                res_q.append(max(worst, q_jacobi_residual(S, rfun, qpt, phis[0], phis[1], fd)))
                ppt = PPoint(S, pts[(k + 1) % len(pts)], g, w)
                f3p = hat_entry(S, int(rng.integers(0, dim2)), int(rng.integers(0, dim2)))
                f2p = tilde_entry(S, int(rng.integers(0, dim2)), int(rng.integers(0, dim2)))
                worst = p_jacobi_residual(S, rfun, ppt, *phis)
                res_p.append(max(worst, p_jacobi_residual(S, rfun, ppt, phis[0], f2p, f3p)))
            reports.append(_report(EQ_Q_JACOBI, pts, res_q, tol[EQ_Q_JACOBI]))
            reports.append(_report(EQ_P_JACOBI, pts, res_p, tol[EQ_P_JACOBI]))
    return reports, words
