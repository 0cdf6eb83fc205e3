"""Elements of the dual group as exponential words, and calculus on them.

A point of K* is a GroupWord: the word exp(x1)·exp(x2)·… with factors in K*,
carried by its read-only adjoint matrix Ad = Π exp(ad_{x_i}) on the double,
through which everything the formulas consume factors.  The exponential is
taken only where a word is built from its factors (ad_of_word) and in a
StepCache; a translation is one product with a cached step matrix, and a
translate keeps no factor list.  The ambient factor of a product point in
the verification suites is a GroupWord over G too.

Functions on K* are pullbacks of Ad-matrix entries (or combinations of
them), which separate points well enough for bracket testing.  The
derivatives here are central finite differences of

    (L_X f)(w) = d/dt f(exp(tX) w)|_0,   (R_X f)(w) = d/dt f(w exp(tX))|_0,

and the gradients over the dual pairing assemble from them basiswise.  This
calculus is the reference that the tests compare the exact jets of
reduction and verify against; no suite calls it.  The Poisson bracket on
the dual group is

    {f1, f2}(k) = << grad f1, Ad_k (grad' f2) >>

with the double's invariant pairing.  The infinitesimal dressing action of X
in K moves k along k·exp(t·(Ad_k^{-1} X)_{K*}).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.linalg import expm

from . import bounds
from .bialgebra_double import DoubleAlgebra
from .errors import FactorNotInDualError, InputShapeError
from .lie_core import LieAlgebra


@dataclass(frozen=True, eq=False)
class GroupWord:
    """A group element carried by its read-only adjoint matrix.

    double is the algebra Ad acts on: the double D(K, K*) for a point of K*,
    or the ambient Lie algebra G for the ambient factor of a product point,
    which the suites only read.  factors holds the coordinate vectors
    of the word, left to right, for a word built from factors (ad_of_word,
    identity_word, and the sampled points built on them); it is None for
    translates, for which only the matrix is meaningful.
    """

    double: Union[DoubleAlgebra, LieAlgebra]
    factors: Optional[tuple]
    ad: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(self.ad, dtype=float)
        if a.shape != (self.double.dim, self.double.dim):
            raise InputShapeError(f"Ad matrix must be {self.double.dim}x{self.double.dim}")
        a.setflags(write=False)
        object.__setattr__(self, "ad", a)

    def inverse(self) -> "GroupWord":
        if self.factors is None:
            return GroupWord(self.double, None, np.linalg.inv(self.ad))
        rev = tuple(-f for f in reversed(self.factors))
        return ad_of_word(self.double, rev)

    def left_mul(self, step: np.ndarray) -> "GroupWord":
        """The translate exp(X)·self, for step = Ad(exp X) from a StepCache."""
        return self._translate(step @ self.ad)

    def right_mul(self, step: np.ndarray) -> "GroupWord":
        """The translate self·exp(X), for step = Ad(exp X) from a StepCache."""
        return self._translate(self.ad @ step)

    def _translate(self, ad: np.ndarray) -> "GroupWord":
        # the matrix is a fresh product with a step over the same algebra, so
        # the construction checks cannot fail and are skipped: this runs once
        # per finite-difference evaluation
        ad.setflags(write=False)
        word = object.__new__(GroupWord)
        word.__dict__.update(double=self.double, factors=None, ad=ad)
        return word

    def pairing_residual(self) -> float:
        p = self.double.pairing
        return float(np.max(np.abs(self.ad.T @ p @ self.ad - p)))

    def dual_stability_residual(self) -> float:
        """Norm of the K-block of Ad restricted to K*, which must vanish."""
        n = self.double.n
        return float(np.max(np.abs(self.ad[:n, n:])))


def _dual_coords(double: DoubleAlgebra, xi) -> np.ndarray:
    """Coerce a factor to K* coordinates, accepting full double coordinates."""
    xi = np.asarray(xi, dtype=float)
    n = double.n
    if xi.shape == (n,):
        return xi
    if xi.shape == (2 * n,):
        kpart = float(np.max(np.abs(xi[:n]), initial=0.0))
        if kpart > bounds.DUAL_COMPONENT_TOL:
            raise FactorNotInDualError(
                f"factor has a K-component of size {kpart:.3e}"
            )
        return xi[n:]
    raise InputShapeError(f"factor must have length {n} or {2 * n}, got shape {xi.shape}")


def _exp_ad(algebra, x: np.ndarray) -> np.ndarray:
    """exp(ad_x) on a double, x in K* coordinates, or on a Lie algebra."""
    if isinstance(algebra, DoubleAlgebra):
        return expm(algebra.D.ad_matrix(algebra.embed_Kstar(x)))
    return expm(algebra.ad_matrix(x))


def identity_word(double: DoubleAlgebra) -> GroupWord:
    return GroupWord(double, (), np.eye(double.dim))


def ad_of_word(double: DoubleAlgebra, factors) -> GroupWord:
    """Build the word exp(x1)·exp(x2)·… and cache its adjoint matrix."""
    coords = tuple(_dual_coords(double, f) for f in factors)
    ad = np.eye(double.dim)
    for xi in coords:
        ad = ad @ _exp_ad(double, xi)
    return GroupWord(double, coords, ad)


class AdEntry:
    """Pullback of a single entry of the adjoint representation."""

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def __call__(self, w: GroupWord) -> float:
        return float(w.ad[self.a, self.b])

    def __repr__(self):
        return f"AdEntry({self.a}, {self.b})"


class StepCache:
    """The step matrices exp(±h·ad_X) for a fixed list of directions X.

    Finite-difference loops hit the same step matrices thousands of times;
    with them cached, every translate is a single matrix product.  Over a
    double the directions are K*-coordinate vectors, by default the K*
    basis; over the ambient Lie algebra G they are G vectors and must be
    given.
    """

    def __init__(self, double, h: float, directions=None):
        self.double = double
        self.h = h
        dirs = np.eye(double.n) if directions is None else np.asarray(directions, dtype=float)
        self.plus = [_exp_ad(double, h * d) for d in dirs]
        self.minus = [_exp_ad(double, -h * d) for d in dirs]


def left_derivative(w: GroupWord, X, f, h: float = bounds.FD_STEP):
    """Central difference of f along left translation by exp(tX), X in K*."""
    step = StepCache(w.double, h, [_dual_coords(w.double, X)])
    return (f(w.left_mul(step.plus[0])) - f(w.left_mul(step.minus[0]))) / (2.0 * h)


def right_derivative(w: GroupWord, X, f, h: float = bounds.FD_STEP):
    step = StepCache(w.double, h, [_dual_coords(w.double, X)])
    return (f(w.right_mul(step.plus[0])) - f(w.right_mul(step.minus[0]))) / (2.0 * h)


def gradients(
    w: GroupWord,
    f,
    h: float = bounds.FD_STEP,
    cache: Optional[StepCache] = None,
) -> tuple:
    """Left and right gradients of f at w, one coordinate per cache direction.

    Over the default directions grad lives in K = (K*)*: its i-th coordinate
    is the left derivative along the i-th dual basis direction, and similarly
    for grad_prime with right derivatives.  The two satisfy
    grad' f = (Ad_w^{-1} grad f)_K up to O(h²).  A cache over other
    directions (the H* basis, or the basis of G for an ambient word) gives
    the gradients over those.
    """
    if cache is None or cache.h != h or cache.double is not w.double:
        cache = StepCache(w.double, h)
    k = len(cache.plus)
    grad = np.zeros(k)
    grad_prime = np.zeros(k)
    for i in range(k):
        plus, minus = cache.plus[i], cache.minus[i]
        grad[i] = (f(w.left_mul(plus)) - f(w.left_mul(minus))) / (2 * h)
        grad_prime[i] = (f(w.right_mul(plus)) - f(w.right_mul(minus))) / (2 * h)
    return grad, grad_prime


def pb_dual(
    w: GroupWord,
    f1,
    f2,
    h: float = bounds.FD_STEP,
    cache: Optional[StepCache] = None,
) -> float:
    """Poisson bracket {f1, f2}(w) = << grad f1, Ad_w (grad' f2) >>."""
    g1, _ = gradients(w, f1, h, cache)
    _, g2p = gradients(w, f2, h, cache)
    d = w.double
    return d.pair(d.embed_K(g1), w.ad @ d.embed_K(g2p))


def dressing_vector(w: GroupWord, X) -> np.ndarray:
    """K*-part of Ad_w^{-1} X for X in K (K coordinates); returns K* coordinates.

    The dressing flow of X through w is t ↦ w·exp(tY) with Y the returned
    vector, to first order in t.
    """
    X = np.asarray(X, dtype=float)
    d = w.double
    if X.shape != (d.n,):
        raise InputShapeError(f"X must be a K vector of length {d.n}")
    moved = np.linalg.solve(w.ad, d.embed_K(X))
    return d.comp_Kstar(moved)
