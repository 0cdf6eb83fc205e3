"""Tests for dual-group words, gradients, the dual Poisson bracket, dressing.

Closed-form anchor: in the R = 0 double of sl2 the dual algebra is abelian
and ad_{h*} is two-step nilpotent, so Ad(exp(x·h*)) = 1 + x·ad_{h*} exactly:

    e ↦ e + x f*,   f ↦ f - x e*,   h and all of K* fixed.

Every finite-difference result below is checked against quantities derived
from this terminating series.
"""

import numpy as np
import pytest

from plrmat.bialgebra_double import build_double, derive_cobracket
from plrmat.dual_group import (
    AdEntry,
    StepCache,
    ad_of_word,
    dressing_vector,
    gradients,
    identity_word,
    left_derivative,
    pb_dual,
    right_derivative,
)
from plrmat.errors import FactorNotInDualError
from plrmat.lie_core import LieAlgebra, Subspace

from test_lie_core import r_dj_sl2, sl2


def double_sl2_r0():
    return build_double(derive_cobracket(sl2(), np.zeros((3, 3)), Subspace(3, np.eye(3))))


def double_sl2_dj():
    return build_double(derive_cobracket(sl2(), r_dj_sl2(), Subspace(3, np.eye(3))))


def double_abelian(n=2):
    A = LieAlgebra.abelian(n)
    return build_double(derive_cobracket(A, np.zeros((n, n)), Subspace(n, np.eye(n))))


def hstar_word(d, x):
    xi = np.zeros(3)
    xi[0] = x
    return ad_of_word(d, [xi])


class TestAdOfWord:
    def test_empty_word_is_identity(self):
        d = double_sl2_dj()
        w = ad_of_word(d, [])
        np.testing.assert_allclose(w.ad, np.eye(6), atol=1e-15)

    def test_abelian_double_words_are_identity(self):
        d = double_abelian()
        rng = np.random.default_rng(0)
        w = ad_of_word(d, [rng.uniform(-1, 1, 2) for _ in range(3)])
        np.testing.assert_allclose(w.ad, np.eye(4), atol=1e-14)

    def test_r0_sl2_terminating_series(self):
        d = double_sl2_r0()
        x = 0.7
        w = hstar_word(d, x)
        want = np.eye(6)
        want[5, 1] = x  # e picks up x·f*
        want[4, 2] = -x  # f picks up -x·e*
        np.testing.assert_allclose(w.ad, want, atol=1e-13)

    def test_word_invariants_random(self):
        d = double_sl2_dj()
        rng = np.random.default_rng(1)
        for _ in range(5):
            length = rng.integers(1, 4)
            w = ad_of_word(d, [rng.uniform(-1, 1, 3) for _ in range(length)])
            assert w.pairing_residual() <= 1e-9
            assert w.dual_stability_residual() <= 1e-10
            np.testing.assert_allclose(w.ad @ w.inverse().ad, np.eye(6), atol=1e-9)

    def test_factor_with_k_component_rejected(self):
        d = double_sl2_dj()
        bad = np.zeros(6)
        bad[1] = 0.5  # e-component
        with pytest.raises(FactorNotInDualError):
            ad_of_word(d, [bad])

    def test_full_double_coordinates_accepted(self):
        d = double_sl2_dj()
        xi = np.zeros(6)
        xi[3] = 0.4
        w = ad_of_word(d, [xi])
        np.testing.assert_allclose(w.ad, hstar_word(d, 0.4).ad, atol=1e-14)

    def test_function_well_defined_on_factorizations(self):
        # the dual algebra of the R = 0 double is abelian, so two factorizations
        # of the same element must give the same Ad matrix
        d = double_sl2_r0()
        rng = np.random.default_rng(2)
        a, b = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        w1 = ad_of_word(d, [a, b])
        w2 = ad_of_word(d, [a + b])
        np.testing.assert_allclose(w1.ad, w2.ad, atol=1e-12)
        f = AdEntry(5, 1)
        assert abs(f(w1) - f(w2)) <= 1e-12


class TestDerivatives:
    def test_constant_function_derivative_zero(self):
        d = double_sl2_dj()
        w = hstar_word(d, 0.3)
        const = lambda _: 2.5
        assert left_derivative(w, np.eye(3)[0], const) == 0.0
        assert right_derivative(w, np.eye(3)[0], const) == 0.0

    def test_abelian_ad_entries_constant(self):
        d = double_abelian()
        w = ad_of_word(d, [np.array([0.3, -0.4])])
        f = AdEntry(0, 0)
        assert abs(left_derivative(w, np.eye(2)[1], f)) <= 1e-12

    def test_derivative_at_identity_vs_ad(self):
        """d/dt Ad(exp(tX))[a,b] at t=0 equals ad_X[a,b], to O(h²)."""
        d = double_sl2_dj()
        w = identity_word(d)
        X = np.array([0.8, -0.3, 0.5])
        adx = d.D.ad_matrix(d.embed_Kstar(X))
        f = AdEntry(1, 1)
        for h, factor in ((1e-3, 1.0), (5e-4, 0.25)):
            err = abs(left_derivative(w, X, f, h) - adx[1, 1])
            assert err <= factor * 1e-5

    def test_quadratic_convergence(self):
        d = double_sl2_dj()
        w = hstar_word(d, 0.4)
        X = np.array([0.5, 0.2, -0.1])
        f = AdEntry(4, 4)
        # reference from tiny step
        ref = left_derivative(w, X, f, 1e-6)
        e1 = abs(left_derivative(w, X, f, 1e-2) - ref)
        e2 = abs(left_derivative(w, X, f, 5e-3) - ref)
        assert 3.0 <= e1 / e2 <= 5.0


class TestGradients:
    def test_constant_gives_zero(self):
        d = double_sl2_dj()
        g, gp = gradients(hstar_word(d, 0.5), lambda _: 1.0)
        assert np.all(g == 0.0) and np.all(gp == 0.0)

    def test_identity_point_gradients_agree(self):
        d = double_sl2_dj()
        w = identity_word(d)
        g, gp = gradients(w, AdEntry(1, 4), h=1e-5)
        np.testing.assert_allclose(g, gp, atol=1e-9)

    def test_consistency_relation(self):
        """grad' f = (Ad_w^{-1} grad f)_K up to O(h²) + 1e-9."""
        d = double_sl2_dj()
        rng = np.random.default_rng(3)
        for _ in range(3):
            w = ad_of_word(d, [rng.uniform(-1, 1, 3) for _ in range(2)])
            f = AdEntry(rng.integers(0, 6), rng.integers(0, 6))
            g, gp = gradients(w, f, h=1e-5)
            moved = np.linalg.solve(w.ad, d.embed_K(g))
            np.testing.assert_allclose(gp, moved[: d.n], atol=1e-8)

    def test_r0_closed_form_gradient(self):
        # f = Ad[5,1] on the R = 0 double: f(exp(xi)·w) has linear xi dependence,
        # so the left gradient at exp(x·h*) is exactly the coefficient pattern
        d = double_sl2_r0()
        w = hstar_word(d, 0.6)
        f = AdEntry(5, 1)  # value x at exp(x·h*)
        g, _ = gradients(w, f, h=1e-5)
        # left translation by exp(t·h*) adds t: d/dt = 1 along direction 0
        np.testing.assert_allclose(g, [1.0, 0.0, 0.0], atol=1e-10)


class TestPoissonBracket:
    def test_identity_point_vanishes(self):
        d = double_sl2_dj()
        w = identity_word(d)
        val = pb_dual(w, AdEntry(1, 4), AdEntry(2, 5))
        assert abs(val) <= 1e-12

    def test_constant_factor_vanishes(self):
        d = double_sl2_dj()
        w = hstar_word(d, 0.8)
        assert pb_dual(w, lambda _: 3.0, AdEntry(1, 4)) == 0.0

    def test_antisymmetry(self):
        d = double_sl2_dj()
        rng = np.random.default_rng(4)
        cache = StepCache(d, 1e-5)
        for _ in range(4):
            w = ad_of_word(d, [rng.uniform(-1, 1, 3)])
            f1 = AdEntry(rng.integers(0, 6), rng.integers(0, 6))
            f2 = AdEntry(rng.integers(0, 6), rng.integers(0, 6))
            a = pb_dual(w, f1, f2, 1e-5, cache)
            b = pb_dual(w, f2, f1, 1e-5, cache)
            assert abs(a + b) <= 1e-7

    def test_bilinearity(self):
        d = double_sl2_dj()
        w = ad_of_word(d, [np.array([0.3, 0.1, -0.2])])
        f1, f2, f3 = AdEntry(1, 4), AdEntry(2, 5), AdEntry(0, 0)
        combo = lambda v: 2.0 * f1(v) - 1.5 * f3(v)
        lhs = pb_dual(w, combo, f2, 1e-5)
        rhs = 2.0 * pb_dual(w, f1, f2, 1e-5) - 1.5 * pb_dual(w, f3, f2, 1e-5)
        assert abs(lhs - rhs) <= 1e-8

    def test_jacobi_identity_sampled(self):
        """Nested brackets of Ad-entry functions satisfy Jacobi to 1e-5 at h = 1e-4."""
        d = double_sl2_dj()
        h = 1e-4
        cache = StepCache(d, h)
        rng = np.random.default_rng(5)
        fs = [AdEntry(1, 4), AdEntry(2, 5), AdEntry(4, 4)]
        for _ in range(2):
            w = ad_of_word(d, [rng.uniform(-0.8, 0.8, 3)])
            def pb(f, g):
                return lambda v: pb_dual(v, f, g, h, cache)
            f1, f2, f3 = fs
            total = (
                pb_dual(w, f1, pb(f2, f3), h, cache)
                + pb_dual(w, f2, pb(f3, f1), h, cache)
                + pb_dual(w, f3, pb(f1, f2), h, cache)
            )
            assert abs(total) <= 1e-5

    def test_product_rule_sanity(self):
        d = double_sl2_dj()
        w = ad_of_word(d, [np.array([0.5, -0.2, 0.3])])
        f1, f2, g = AdEntry(1, 4), AdEntry(4, 4), AdEntry(2, 5)
        prod = lambda v: f1(v) * f2(v)
        lhs = pb_dual(w, prod, g, 1e-5)
        rhs = f1(w) * pb_dual(w, f2, g, 1e-5) + f2(w) * pb_dual(w, f1, g, 1e-5)
        assert abs(lhs - rhs) <= 1e-6


class TestDressing:
    def test_identity_point_gives_zero(self):
        d = double_sl2_dj()
        w = identity_word(d)
        for i in range(3):
            np.testing.assert_allclose(dressing_vector(w, np.eye(3)[i]), 0.0, atol=1e-14)

    def test_abelian_double_gives_zero(self):
        d = double_abelian()
        w = ad_of_word(d, [np.array([0.3, 0.7])])
        np.testing.assert_allclose(dressing_vector(w, np.eye(2)[0]), 0.0, atol=1e-14)

    def test_r0_closed_form(self):
        # Ad^{-1}(exp(x·h*)) e = e - x f*, so the dressing vector of e is -x·f*
        d = double_sl2_r0()
        x = 0.9
        w = hstar_word(d, x)
        y = dressing_vector(w, np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(y, [0.0, 0.0, -x], atol=1e-12)
