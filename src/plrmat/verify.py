"""Residual suites for the defining identities of the reduced r-matrices.

For a pair H ⊆ G with constant solution R and a dynamical r-matrix
r: Ȟ* → G⊗G, the certified identities are

  * the dynamical Yang-Baxter equation: the cyclic sum of the mixed bracket
    terms of R + r(λ) plus the derivative terms Σ_a H^a_1 (L_{H_a} r)_23 and
    its cyclic images reproduces the constant anomaly of R,
  * triangularity: the invariant produced by that left-hand side equals the
    anomaly of R itself,
  * infinitesimal equivariance: the derivative of r along the dressing flow
    of X in H equals [X⊗1 + 1⊗X, r(λ)],
  * the Jacobi identity of the bracket ansatz on G × Ȟ* (and its two-sided
    variant on Ȟ* × G × Ȟ*), probed through nested finite differences,
  * the momentum-map identity Ad(Λ(λ̃, g, λ̂)) = Ad(λ̃) Ad(λ̂)^{-1}.

Derivatives of r are central finite differences along group translations;
steps that leave the second-class region are halved (at most ten times).
Every suite reports per-point residuals and the worst case against a stated
tolerance, and a deliberately sign-corrupted r-matrix is pushed through the
main residual as a control that the tests can fail.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

from .bialgebra_double import ReductionSetup
from .dual_group import (
    AdEntry,
    GroupWord,
    StepCache,
    ad_of_word,
    dressing_vector,
    gradients,
    left_derivative,
    right_derivative,
)
from .errors import CDegenerateError, ConsistencyError, InputShapeError
from .lie_core import LieAlgebra, Tensor2, Tensor3, cybe_lhs, invariance_residual3
from .reduction import (
    characterization_identity_residual,
    constraint_inverse_operator_residual,
    constraint_pb_check,
    dirac_bracket,
    native_hstar_bracket,
    rho_via_n,
    sample_hstar_points,
)

MAX_HALVINGS = 10

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

DEFAULT_TOLERANCES = {
    EQ_MCYBE: 1e-10,
    EQ_PLCDYBE: 1e-6,
    EQ_TRIANGULARITY: 1e-6,
    EQ_EQUIVARIANCE: 1e-6,
    EQ_Q_JACOBI: 1e-4,
    EQ_P_JACOBI: 1e-4,
    EQ_DIRAC: 1e-6,
    EQ_CHARACTERIZATION: 1e-9,
    EQ_CONSTRAINT_PB: 1e-7,
    EQ_RHO_CONSISTENCY: 1e-9,
    EQ_CONTROL: 1e-2,
}

SUITE_EQUATIONS = {
    "cdybe": (EQ_MCYBE, EQ_PLCDYBE, EQ_TRIANGULARITY, EQ_CONTROL),
    "equivariance": (EQ_EQUIVARIANCE,),
    "dirac": (EQ_DIRAC, EQ_CONSTRAINT_PB, EQ_RHO_CONSISTENCY, EQ_CHARACTERIZATION),
    "jacobi": (EQ_Q_JACOBI, EQ_P_JACOBI),
}


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """Per-equation residual summary over the sampled points.

    ``direction`` is "upper" for ordinary residuals (pass iff max ≤ tol) and
    "lower" for the corrupted-r control, which must exceed its threshold to
    prove the residual has teeth.
    """

    equation_id: str
    sample_points: tuple
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


def _fd_tensor(rfun, word: GroupWord, xi: np.ndarray, h: float, side: str):
    """Central difference of rfun along a group translation, halving on demand."""
    derivative = left_derivative if side == "left" else right_derivative
    step = h
    for _ in range(MAX_HALVINGS + 1):
        try:
            return derivative(word, xi, lambda w: rfun(w).coeffs, step)
        except CDegenerateError:
            step /= 2.0
    raise CDegenerateError(
        f"finite-difference step kept leaving the second-class region (start {h:.1e})"
    )


def plcdybe_lhs(S: ReductionSetup, rfun, word: GroupWord, h: float) -> Tensor3:
    """Left side of the dynamical Yang-Baxter equation for the pair H ⊆ G.

    The cyclic images of [ (R+r)_12, (R+r)_23 ] sum to the full three-slot
    bracket combination of R + r(λ), and the derivative terms place the dual
    basis vector H^a of H in one slot against the left derivative of r along
    H_a in the other two, cyclically.
    """
    g = S.G
    r_here = rfun(word)
    total = cybe_lhs(g, Tensor2(S.R.coeffs + r_here.coeffs)).coeffs.copy()
    for a in range(S.dim_H):
        xi = S.Hdual[a]
        deriv = _fd_tensor(rfun, word, xi, h, side="left")
        ka = S.K_to_G(S.H_in_K[a])
        total += np.einsum("x,yz->xyz", ka, deriv)
        total += np.einsum("y,zx->xyz", ka, deriv)
        total += np.einsum("z,xy->xyz", ka, deriv)
    return Tensor3(total)


def plcdybe_residual(S: ReductionSetup, rfun, word: GroupWord, h: float = 1e-5) -> Tensor3:
    """Full tensor residual of the dynamical Yang-Baxter equation at λ.

    In the triangular normalization the right side is the anomaly of the
    constant R, so the residual is the left side minus cybe_lhs(R).
    """
    lhs = plcdybe_lhs(S, rfun, word, h)
    return Tensor3(lhs.coeffs - cybe_lhs(S.G, S.R).coeffs)


def triangularity_check(S: ReductionSetup, rfun, word: GroupWord, h: float = 1e-5) -> float:
    """Max-norm distance between the dynamical left side and the anomaly of R."""
    return plcdybe_residual(S, rfun, word, h).norm()


def equivariance_residual(
    S: ReductionSetup,
    rfun,
    word: GroupWord,
    x_h,
    h: float = 1e-5,
) -> Tensor2:
    """dress_X r - [X⊗1 + 1⊗X, r] at λ, for X in H given by H-basis coordinates.

    The dressing derivative moves λ along λ·exp(t·Y) with Y the K*-part of
    Ad_λ^{-1} X; for λ in the dual of H the vector Y lies in H*, which is
    verified before stepping.
    """
    x_h = np.asarray(x_h, dtype=float)
    if x_h.shape != (S.dim_H,):
        raise InputShapeError(f"X must have {S.dim_H} H coordinates")
    x_k = x_h @ S.H_in_K
    y = dressing_vector(word, x_k)
    y_h = S.Hstar_component(y)
    leak = float(np.max(np.abs(y - y_h @ S.Hdual), initial=0.0))
    if leak > 1e-9 * (1.0 + float(np.max(np.abs(y), initial=0.0))):
        raise ConsistencyError(f"dressing vector leaves H*: leak {leak:.3e}")
    y_proj = y_h @ S.Hdual
    flow = _fd_tensor(rfun, word, y_proj, h, side="right")
    adx = S.G.ad_matrix(S.K_to_G(x_k))
    r_here = rfun(word).coeffs
    comm = adx @ r_here + r_here @ adx.T
    return Tensor2(flow - comm)


def momentum_map(w_tilde: GroupWord, w_hat: GroupWord) -> GroupWord:
    """The dual-group element λ̃ λ̂^{-1}, with Ad(result) = Ad(λ̃) Ad(λ̂)^{-1}."""
    if w_tilde.double is not w_hat.double and not np.array_equal(
        w_tilde.double.D.c, w_hat.double.D.c
    ):
        raise InputShapeError("momentum map needs words over the same double")
    if w_tilde.factors is None or w_hat.factors is None:
        return GroupWord(w_tilde.double, None, w_tilde.ad @ np.linalg.inv(w_hat.ad))
    factors = w_tilde.factors + tuple(-f for f in reversed(w_hat.factors))
    return ad_of_word(w_tilde.double, factors)


def reduced_r_function(S: ReductionSetup, base_rfun=None, cond_threshold: float = 1e8):
    """rfun for r* = r + rho as a callable on dual-group words.

    Values are memoised per word object: a word's Ad matrix is read-only, so
    the tensor cannot go stale, and the Jacobi brackets ask for r* at the
    same dual point once per ambient translation.  The memo holds its words
    weakly and lives as long as the returned function.
    """
    from .reduction import reduced_r

    memo = weakref.WeakKeyDictionary()

    def f(word: GroupWord) -> Tensor2:
        t = memo.get(word)
        if t is None:
            t = memo[word] = reduced_r(S, base_rfun, word, cond_threshold)
        return t

    return f


def zero_r_function(S: ReductionSetup):
    z = Tensor2.zero(S.G.dim)
    return lambda word: z


def sign_flipped_rfun(rfun, a: int, b: int):
    """The same r-matrix with the (a, b) coefficient pair negated: the control."""

    def f(word: GroupWord) -> Tensor2:
        t = rfun(word)
        c = np.array(t.coeffs)
        c[a, b] = -c[a, b]
        c[b, a] = -c[b, a]
        return Tensor2(c)

    return f


def largest_entry(t: Tensor2) -> tuple:
    idx = int(np.argmax(np.abs(t.coeffs)))
    return np.unravel_index(idx, t.coeffs.shape)


# ---------------------------------------------------------------------------
# points of the product spaces
# ---------------------------------------------------------------------------
#
# Every factor of a product point is a GroupWord: the ambient factor a word
# over G, each dual factor a point of the dual of H as a word over D(K, K*)
# (a sampled point or a translate of one).  The dual functions read entries
# of Ad on the double of (H, H*) through the restriction
# sub_restrict·Ad·sub_embedᵀ, so no second word over the sub-double is
# carried or re-exponentiated.  A slot gradient is one call of
# dual_group.gradients, with a StepCache over that slot's directions (the
# basis of G, or the H* basis in D(K, K*)) and a closure that puts the
# translated factor back into the point.


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


@dataclass(frozen=True, eq=False)
class PPoint:
    """Point (λ̃, g, λ̂) of the two-sided product space Ȟ* × G × Ȟ*."""

    setup: ReductionSetup
    tilde: GroupWord
    g: GroupWord
    hat: GroupWord


class QFunction:
    """Scalar function on a product-space point, with dependence hints.

    ``depends`` lists which factors the function actually reads ("g",
    "dual" for Q points; "g", "hat", "tilde" for P points), letting the
    bracket evaluators skip gradients that vanish identically.
    """

    def __init__(self, fn: Callable, depends):
        self.fn = fn
        self.depends = frozenset(depends)

    def __call__(self, pt) -> float:
        return float(self.fn(pt))


def _sub_entry(S: ReductionSetup, word: GroupWord, a: int, b: int) -> float:
    """Entry (a, b) of Ad on the double of (H, H*), read off a word over D(K, K*)."""
    return S.sub_restrict[a] @ word.ad @ S.sub_embed[b]


def g_entry(a: int, b: int) -> QFunction:
    return QFunction(lambda pt: pt.g.ad[a, b], depends=("g",))


def dual_entry(a: int, b: int) -> QFunction:
    return QFunction(lambda pt: _sub_entry(pt.setup, pt.dual, a, b), depends=("dual",))


def hat_entry(a: int, b: int) -> QFunction:
    return QFunction(lambda pt: _sub_entry(pt.setup, pt.hat, a, b), depends=("hat",))


def tilde_entry(a: int, b: int) -> QFunction:
    return QFunction(lambda pt: _sub_entry(pt.setup, pt.tilde, a, b), depends=("tilde",))


def step_caches(S: ReductionSetup, h: float) -> tuple:
    """StepCaches at step h over the basis of G and over the H* basis in D(K, K*)."""
    return StepCache(S.G, h, np.eye(S.G.dim)), StepCache(S.double, h, S.Hdual)


def _slot_gradients(u: QFunction, slot: str, word: GroupWord, cache: StepCache, put):
    """Left and right gradients of u along one factor of a product point.

    put(w) is the point with that factor replaced by w; the gradients vanish
    identically when u does not read the factor.
    """
    if slot not in u.depends:
        k = len(cache.plus)
        return np.zeros(k), np.zeros(k)
    return gradients(word, lambda w: u(put(w)), cache.h, cache)


def _dual_block(S: ReductionSetup, lam: GroupWord, gu, gpv) -> float:
    """<< grad u, Ad_λ grad' v >> on D(K, K*), for gradients in H coordinates."""
    d = S.double
    return d.pair(d.embed_K(gu @ S.H_in_K), lam.ad @ d.embed_K(gpv @ S.H_in_K))


def _embed_h_to_g(S: ReductionSetup, vh) -> np.ndarray:
    return S.K_to_G(vh @ S.H_in_K)


def q_bracket(
    S: ReductionSetup,
    rfun,
    pt: QPoint,
    u: QFunction,
    v: QFunction,
    h: float = 1e-3,
    caches: Optional[tuple] = None,
) -> float:
    """The bracket ansatz on G × Ȟ* evaluated on two scalar functions.

    Assembled blockwise from partial gradients: the dual-side Poisson bracket,
    the mixed pairing of right ambient gradients with dual gradients, and the
    double contraction of ambient gradients against R + r(λ) and R.
    """
    g_steps, h_steps = caches or step_caches(S, h)
    at_g = lambda w: QPoint(pt.setup, w, pt.dual)
    at_dual = lambda w: QPoint(pt.setup, pt.g, w)
    gu, gpu = _slot_gradients(u, "g", pt.g, g_steps, at_g)
    gv, gpv = _slot_gradients(v, "g", pt.g, g_steps, at_g)
    du, dpu = _slot_gradients(u, "dual", pt.dual, h_steps, at_dual)
    dv, dpv = _slot_gradients(v, "dual", pt.dual, h_steps, at_dual)

    val = _dual_block(S, pt.dual, du, dpv)
    val += gpu @ _embed_h_to_g(S, dv) - gpv @ _embed_h_to_g(S, du)
    r_here = rfun(pt.dual).coeffs
    val += gpu @ (S.R.coeffs + r_here) @ gpv
    val -= gu @ S.R.coeffs @ gv
    return float(val)


def q_jacobi_residual(
    S: ReductionSetup,
    rfun,
    pt: QPoint,
    f1: QFunction,
    f2: QFunction,
    f3: QFunction,
    h: float = 1e-3,
    caches: Optional[tuple] = None,
) -> float:
    """Cyclic Jacobiator of the G × Ȟ* bracket through nested differencing."""
    caches = caches or step_caches(S, h)

    def inner(a: QFunction, b: QFunction) -> QFunction:
        return QFunction(
            lambda q: q_bracket(S, rfun, q, a, b, h, caches), depends=("g", "dual")
        )

    total = q_bracket(S, rfun, pt, f1, inner(f2, f3), h, caches)
    total += q_bracket(S, rfun, pt, f2, inner(f3, f1), h, caches)
    total += q_bracket(S, rfun, pt, f3, inner(f1, f2), h, caches)
    return abs(total)


def p_bracket(
    S: ReductionSetup,
    rfun,
    pt: PPoint,
    u: QFunction,
    v: QFunction,
    h: float = 1e-3,
    caches: Optional[tuple] = None,
) -> float:
    """The two-sided bracket ansatz on Ȟ* × G × Ȟ*.

    The hat copy carries the dual bracket with a plus sign and pairs with
    right ambient gradients against R + r(λ̂); the tilde copy enters with a
    minus sign and pairs with left ambient gradients against R + r(λ̃); the
    two dual copies commute with each other.
    """
    g_steps, h_steps = caches or step_caches(S, h)
    at_g = lambda w: PPoint(pt.setup, pt.tilde, w, pt.hat)
    at_hat = lambda w: PPoint(pt.setup, pt.tilde, pt.g, w)
    at_tilde = lambda w: PPoint(pt.setup, w, pt.g, pt.hat)
    gu, gpu = _slot_gradients(u, "g", pt.g, g_steps, at_g)
    gv, gpv = _slot_gradients(v, "g", pt.g, g_steps, at_g)
    hu, hpu = _slot_gradients(u, "hat", pt.hat, h_steps, at_hat)
    hv, hpv = _slot_gradients(v, "hat", pt.hat, h_steps, at_hat)
    tu, tpu = _slot_gradients(u, "tilde", pt.tilde, h_steps, at_tilde)
    tv, tpv = _slot_gradients(v, "tilde", pt.tilde, h_steps, at_tilde)

    val = _dual_block(S, pt.hat, hu, hpv) - _dual_block(S, pt.tilde, tu, tpv)
    val += gpu @ _embed_h_to_g(S, hv) - gpv @ _embed_h_to_g(S, hu)
    val += gu @ _embed_h_to_g(S, tv) - gv @ _embed_h_to_g(S, tu)
    r_hat = rfun(pt.hat).coeffs
    r_tilde = rfun(pt.tilde).coeffs
    val += gpu @ (S.R.coeffs + r_hat) @ gpv
    val -= gu @ (S.R.coeffs + r_tilde) @ gv
    return float(val)


def p_jacobi_residual(
    S: ReductionSetup,
    rfun,
    pt: PPoint,
    f1: QFunction,
    f2: QFunction,
    f3: QFunction,
    h: float = 1e-3,
    caches: Optional[tuple] = None,
) -> float:
    caches = caches or step_caches(S, h)

    def inner(a: QFunction, b: QFunction) -> QFunction:
        return QFunction(
            lambda q: p_bracket(S, rfun, q, a, b, h, caches),
            depends=("g", "hat", "tilde"),
        )

    total = p_bracket(S, rfun, pt, f1, inner(f2, f3), h, caches)
    total += p_bracket(S, rfun, pt, f2, inner(f3, f1), h, caches)
    total += p_bracket(S, rfun, pt, f3, inner(f1, f2), h, caches)
    return abs(total)


# ---------------------------------------------------------------------------
# suite runners
# ---------------------------------------------------------------------------


def _report(eq, points, residuals, h, tol, direction="upper") -> ResidualReport:
    per = tuple((describe_word(w) if isinstance(w, GroupWord) else w, float(r))
                for w, r in zip(points, residuals))
    max_r = float(max(residuals)) if residuals else 0.0
    desc = tuple(p[0] for p in per)
    return ResidualReport(
        equation_id=eq,
        sample_points=desc,
        per_point=per,
        max_residual=max_r,
        fd_step=h,
        tolerance=tol,
        direction=direction,
    )


def run_suite(
    S: ReductionSetup,
    suite: str = "all",
    num_points: int = 10,
    seed: int = 0,
    h: float = 1e-5,
    jacobi_points: int = 5,
    jacobi_step: float = 1e-3,
    cond_threshold: float = 1e8,
    box_radius: float = 1.0,
    ambient_box: float = 0.3,
    tolerances: Optional[dict] = None,
) -> list:
    """Run the requested residual suites on the reduced r* = rho of the setup.

    Returns (reports, words): one ResidualReport per equation, and the
    second-class samples of the dual of H the suites ran on, both
    deterministic for a fixed seed.
    """
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    suites = ("cdybe", "equivariance", "dirac", "jacobi") if suite == "all" else (suite,)
    for s in suites:
        if s not in SUITE_EQUATIONS:
            raise InputShapeError(f"unknown suite {s!r}")
    rfun = reduced_r_function(S, None, cond_threshold)
    words = sample_hstar_points(S, num_points, seed, box_radius, cond_threshold)
    # one stream per section, so a suite's draws do not depend on which other
    # suites run alongside it
    section_seed = {"cdybe": 101, "equivariance": 211, "dirac": 307, "jacobi": 401}
    reports = []

    for s in suites:
        rng = np.random.Generator(np.random.PCG64(seed + section_seed[s]))
        if s == "cdybe":
            anomaly = cybe_lhs(S.G, S.R)
            reports.append(
                _report(
                    EQ_MCYBE,
                    [[]],
                    [invariance_residual3(S.G, anomaly)],
                    0.0,
                    tol[EQ_MCYBE],
                )
            )
            res = [plcdybe_residual(S, rfun, w, h).norm() for w in words]
            reports.append(_report(EQ_PLCDYBE, words, res, h, tol[EQ_PLCDYBE]))
            # triangularity_check(S, rfun, w, h) is this same norm; it is
            # reported under its own key and tolerance, not recomputed
            reports.append(_report(EQ_TRIANGULARITY, words, res, h, tol[EQ_TRIANGULARITY]))
            if S.dim_M > 0:
                a, b = largest_entry(rfun(words[0]))
                bad = sign_flipped_rfun(rfun, int(a), int(b))
                res = [plcdybe_residual(S, bad, w, h).norm() for w in words]
                reports.append(
                    _report(EQ_CONTROL, words, res, h, tol[EQ_CONTROL], direction="lower")
                )
        elif s == "equivariance":
            res = []
            for w in words:
                worst = 0.0
                for a in range(S.dim_H):
                    x = np.zeros(S.dim_H)
                    x[a] = 1.0
                    worst = max(worst, equivariance_residual(S, rfun, w, x, h).norm())
                res.append(worst)
            reports.append(_report(EQ_EQUIVARIANCE, words, res, h, tol[EQ_EQUIVARIANCE]))
        elif s == "dirac":
            cache = StepCache(S.sub_double, h)
            dim2 = S.sub_double.dim
            res_d, res_c = [], []
            for w in words:
                worst_d = worst_c = 0.0
                for _ in range(10):
                    f1 = AdEntry(int(rng.integers(0, dim2)), int(rng.integers(0, dim2)))
                    f2 = AdEntry(int(rng.integers(0, dim2)), int(rng.integers(0, dim2)))
                    got = dirac_bracket(S, w, f1, f2, h, cond_threshold, cache)
                    want = native_hstar_bracket(S, w, f1, f2, h, cache)
                    worst_d = max(worst_d, abs(got - want))
                for i in range(S.dim_M):
                    f = AdEntry(int(rng.integers(0, dim2)), int(rng.integers(0, dim2)))
                    worst_c = max(worst_c, abs(constraint_pb_check(S, w, f, i, h, cache)))
                res_d.append(worst_d)
                res_c.append(worst_c)
            reports.append(_report(EQ_DIRAC, words, res_d, h, tol[EQ_DIRAC]))
            reports.append(_report(EQ_CONSTRAINT_PB, words, res_c, h, tol[EQ_CONSTRAINT_PB]))
            res = []
            for w in words:
                direct = rfun(w).coeffs
                via = rho_via_n(S, w, cond_threshold).coeffs
                r1 = float(np.max(np.abs(direct - via), initial=0.0))
                r1 = max(r1, constraint_inverse_operator_residual(S, w, cond_threshold))
                res.append(r1)
            reports.append(_report(EQ_RHO_CONSISTENCY, words, res, h, tol[EQ_RHO_CONSISTENCY]))
            res = []
            for w in words:
                # 20 (u, v) pairs per point, checked in one call
                u, v = np.zeros((20, S.n)), np.zeros((20, S.n))
                for k in range(20 if S.dim_M else 0):
                    u[k] = rng.uniform(-1, 1, S.dim_M) @ S.M_in_K
                    v[k] = rng.uniform(-1, 1, S.dim_M) @ S.M_in_K
                res.append(characterization_identity_residual(S, w, u, v, cond_threshold))
            reports.append(_report(EQ_CHARACTERIZATION, words, res, h, tol[EQ_CHARACTERIZATION]))
        elif s == "jacobi":
            caches = step_caches(S, jacobi_step)
            pts = [words[k % len(words)] for k in range(jacobi_points)]
            dim_g = S.G.dim
            dim2 = S.sub_double.dim
            res_q, res_p = [], []
            for k, w in enumerate(pts):
                # nested-difference truncation grows with exp of the ambient
                # word size, so generic points are drawn from a modest box
                g = ambient_word(S.G, [rng.uniform(-ambient_box, ambient_box, dim_g)])
                # three ambient entries give the triple sensitive to the
                # derivative of r; the mixed triple covers the dual blocks
                phis = [
                    g_entry(int(rng.integers(0, dim_g)), int(rng.integers(0, dim_g)))
                    for _ in range(3)
                ]
                fd = dual_entry(int(rng.integers(0, dim2)), int(rng.integers(0, dim2)))
                qpt = QPoint(S, g, w)
                worst = q_jacobi_residual(S, rfun, qpt, *phis, jacobi_step, caches)
                worst = max(
                    worst,
                    q_jacobi_residual(S, rfun, qpt, phis[0], phis[1], fd, jacobi_step, caches),
                )
                res_q.append(worst)
                ppt = PPoint(S, pts[(k + 1) % len(pts)], g, w)
                f3p = hat_entry(int(rng.integers(0, dim2)), int(rng.integers(0, dim2)))
                f2p = tilde_entry(int(rng.integers(0, dim2)), int(rng.integers(0, dim2)))
                worst = p_jacobi_residual(S, rfun, ppt, *phis, jacobi_step, caches)
                worst = max(
                    worst,
                    p_jacobi_residual(S, rfun, ppt, phis[0], f2p, f3p, jacobi_step, caches),
                )
                res_p.append(worst)
            reports.append(_report(EQ_Q_JACOBI, pts, res_q, jacobi_step, tol[EQ_Q_JACOBI]))
            reports.append(_report(EQ_P_JACOBI, pts, res_p, jacobi_step, tol[EQ_P_JACOBI]))
    return reports, words
