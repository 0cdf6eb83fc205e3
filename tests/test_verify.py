"""Tests for the residual suites: dynamical Yang-Baxter, equivariance,
triangularity, product-space Jacobiators, momentum map, and the control.

Closed-form anchor for the dynamical equation (derived by substituting the
coefficient ansatz r = s(x)(e⊗f - f⊗e) into the equation for split sl2 with
Cartan residual subgroup): the bracket terms contribute (s² + s)·A + A/4 and
the derivative terms s'·A for a fixed alternating 3-tensor A, so the
coefficient must satisfy s' + s² + s = 0 in the Drinfeld-Jimbo case
(solution 1/(exp(x) - 1)) and s' + s² = 0 in the R = 0 case (solution 1/x).
Both solutions are produced by the reduction and drive the residuals below
verify their tolerances.
"""

from dataclasses import replace

import numpy as np
import pytest

from plrmat import verify as verify_module
from plrmat.catalog import get_entry, list_entries
from plrmat.dual_group import (
    AdEntry,
    StepCache,
    ad_of_word,
    identity_word,
    left_derivative,
    pb_dual,
)
from plrmat.errors import InputShapeError
from plrmat.reduction import RhoJet, hstar_word, native_hstar_bracket, rho, sample_hstar_points
from plrmat.verify import (
    PPoint,
    QFunction,
    QPoint,
    ResidualReport,
    ambient_word,
    dual_entry,
    equivariance_residual,
    g_entry,
    hat_entry,
    largest_entry,
    bracket,
    p_jacobi_residual,
    plcdybe_residual,
    q_jacobi_residual,
    reduced_r_function,
    run_suite,
    sign_flipped_rfun,
    tilde_entry,
    triangularity_check,
)

from test_reduction import classical_setup, dj_setup, pair_gradients, trivial_setup


def abelian_trivial_setup():
    from plrmat.bialgebra_double import validate_setup
    from plrmat.lie_core import LieAlgebra, Subspace

    A = LieAlgebra.abelian(2)
    return validate_setup(
        A, np.zeros((2, 2)), Subspace(2, np.eye(2)), Subspace(2, np.eye(2)),
        Subspace(2, np.zeros((0, 2))),
    )


class TestPlcdybe:
    def test_constant_zero_r_with_full_h_is_exact(self):
        # the equation collapses to the constant Yang-Baxter identity
        s = trivial_setup()
        zero = RhoJet.zero(s.dim_H, s.G.dim)
        res = plcdybe_residual(s, lambda w: zero, identity_word(s.double))
        assert np.max(np.abs(res)) == 0.0

    def test_abelian_everything_vanishes(self):
        s = abelian_trivial_setup()
        zero = RhoJet.zero(s.dim_H, s.G.dim)
        res = plcdybe_residual(s, lambda w: zero, identity_word(s.double))
        assert np.max(np.abs(res)) == 0.0

    def test_classical_reduced_r_solves_equation(self):
        s = classical_setup()
        rfun = reduced_r_function(s)
        for x in (0.5, 1.0, 2.0):
            res = plcdybe_residual(s, rfun, hstar_word(s, [x]))
            assert np.max(np.abs(res)) <= 1e-12

    def test_dj_reduced_r_solves_equation_at_samples(self):
        s = replace(dj_setup(), cond_threshold=2.5)
        rfun = reduced_r_function(s)
        for w in sample_hstar_points(s, 10, seed=6):
            assert np.max(np.abs(plcdybe_residual(s, rfun, w))) <= 1e-12
            assert triangularity_check(s, rfun, w) <= 1e-12

    def test_quadratic_step_convergence(self):
        # with the exact derivative of rho replaced by a central difference of
        # step h, the residual is that difference's truncation and scales like
        # h²; the exact jet is its limit
        s = classical_setup()
        w = hstar_word(s, [0.3])
        value = rho(s, w)

        def fd_rfun(h):
            d = left_derivative(w, s.Hdual[0], lambda v: rho(s, v), h)
            return lambda word: RhoJet(value, d[None], d[None])

        r1 = np.max(np.abs(plcdybe_residual(s, fd_rfun(1e-2), w)))
        r2 = np.max(np.abs(plcdybe_residual(s, fd_rfun(5e-3), w)))
        assert 2.5 <= r1 / r2 <= 6.0
        assert np.max(np.abs(plcdybe_residual(s, reduced_r_function(s), w))) <= 1e-12

    def test_corrupted_r_detected(self):
        s = replace(dj_setup(), cond_threshold=2.5)
        rfun = reduced_r_function(s)
        words = sample_hstar_points(s, 5, seed=6)
        a, b = largest_entry(rfun(words[0]).value)
        bad = sign_flipped_rfun(rfun, int(a), int(b))
        worst = max(np.max(np.abs(plcdybe_residual(s, bad, w))) for w in words)
        assert worst > 1e-2


class TestEquivariance:
    def test_zero_x_gives_zero(self):
        s = dj_setup()
        w = hstar_word(s, [0.7])
        rfun = reduced_r_function(s)
        res = equivariance_residual(s, rfun, [w], [[[0.0]]])
        assert res.shape == (1, 1, s.G.dim, s.G.dim)
        assert np.max(np.abs(res)) <= 1e-12

    def test_constant_invariant_r_abelian(self):
        s = abelian_trivial_setup()
        zero = RhoJet.zero(s.dim_H, s.G.dim)
        res = equivariance_residual(s, lambda w: zero, [identity_word(s.double)], [[[0.0, 0.0]]])
        assert np.max(np.abs(res)) == 0.0

    def test_dj_reduced_r_equivariant(self):
        s = replace(dj_setup(), cond_threshold=2.5)
        rfun = reduced_r_function(s)
        for w in sample_hstar_points(s, 5, seed=6):
            assert np.max(np.abs(equivariance_residual(s, rfun, [w], [[[1.0]]]))) <= 1e-12


class TestProductBrackets:
    def setup_method(self):
        self.s = replace(dj_setup(), cond_threshold=2.5)
        self.rfun = reduced_r_function(self.s)
        rng = np.random.default_rng(1)
        self.g = ambient_word(self.s.G, [rng.uniform(-0.3, 0.3, 3)])
        self.lam = hstar_word(self.s, [0.8])
        self.lam2 = hstar_word(self.s, [-0.6])
        self.qpt = QPoint(self.s, self.g, self.lam)
        self.ppt = PPoint(self.s, self.lam2, self.g, self.lam)

    @staticmethod
    def _zero(slot, dim):
        """The constant function 0, as l·Ad·r with l = r = 0."""
        return QFunction(slot, np.zeros(dim), np.zeros(dim))

    def test_constant_function_brackets_vanish(self):
        const = self._zero("g", 3)
        assert bracket(self.s, self.rfun, self.qpt, const, g_entry(self.s, 1, 2)) == 0.0
        assert bracket(self.s, self.rfun, self.ppt, const, g_entry(self.s, 1, 2)) == 0.0

    def test_ambient_block_vanishes_without_r(self):
        # zero R and zero r kill the double-gradient contraction block
        s = abelian_trivial_setup()
        g = ambient_word(s.G, [np.array([0.4, -0.2])])
        lam = hstar_word(s, np.zeros(2))
        zero = RhoJet.zero(s.dim_H, s.G.dim)
        val = bracket(s, lambda w: zero, QPoint(s, g, lam), g_entry(s, 0, 0), g_entry(s, 1, 1))
        assert val == 0.0

    def test_antisymmetry(self):
        fs = [g_entry(self.s, 1, 2), g_entry(self.s, 0, 1), dual_entry(self.s, 0, 1)]
        ps = [g_entry(self.s, 1, 2), hat_entry(self.s, 0, 1), tilde_entry(self.s, 1, 0),
              hat_entry(self.s, 1, 1)]
        for pt, funcs in ((self.qpt, fs), (self.ppt, ps)):
            for u in funcs:
                for v in funcs:
                    a = bracket(self.s, self.rfun, pt, u, v)
                    b = bracket(self.s, self.rfun, pt, v, u)
                    assert abs(a + b) <= 1e-12

    def test_hat_tilde_block_vanishes(self):
        val = bracket(
            self.s, self.rfun, self.ppt, hat_entry(self.s, 0, 1), tilde_entry(self.s, 1, 0)
        )
        assert val == 0.0

    def test_q_jacobi_small_for_reduced_r(self):
        phis = [g_entry(self.s, 1, 2), g_entry(self.s, 0, 1), g_entry(self.s, 2, 0)]
        ((res,),) = q_jacobi_residual(self.s, self.rfun, [self.qpt], [[phis]])
        assert res <= 1e-12

    def test_p_jacobi_small_for_reduced_r(self):
        phis = [g_entry(self.s, 1, 2), g_entry(self.s, 0, 1), g_entry(self.s, 2, 0)]
        ((res,),) = p_jacobi_residual(self.s, self.rfun, [self.ppt], [[phis]])
        assert res <= 1e-12

    def test_jacobi_of_constants_vanishes(self):
        const = self._zero("g", 3)
        ((res,),) = q_jacobi_residual(self.s, self.rfun, [self.qpt], [[(const, const, const)]])
        assert res == 0.0

    def test_corrupted_r_breaks_q_jacobi(self):
        a, b = largest_entry(self.rfun(self.lam).value)
        bad = sign_flipped_rfun(self.rfun, int(a), int(b))
        phis = [g_entry(self.s, 1, 2), g_entry(self.s, 0, 1), g_entry(self.s, 2, 0)]
        ((res,),) = q_jacobi_residual(self.s, bad, [self.qpt], [[phis]])
        assert res > 1e-2


def _catalog_samples():
    for name in list_entries():
        e = get_entry(name)
        S = e.setup()
        yield name, S, sample_hstar_points(S, e.num_points, e.seed)


CATALOG_SAMPLES = list(_catalog_samples())


def _restriction_cases():
    """Catalog samples at 1e-15, plus a setup whose K, H and M bases are all
    skewed: there sub_restrict differs from sub_embed, and the restriction
    rounds through non-trivial products, so it is held to 1e-14."""
    from test_hot_path import skewed_levi_setup

    for name, S, words in CATALOG_SAMPLES:
        yield pytest.param(S, words, 1e-15, id=name)
    S = skewed_levi_setup()
    yield pytest.param(S, sample_hstar_points(S, 4, 2), 1e-14, id="skewed_levi")


RESTRICTION_CASES = list(_restriction_cases())


def sub_double_word(S, w):
    """The point w of the dual of H built on the double of (H, H*) itself."""
    return ad_of_word(S.sub_double, [S.Hstar_component(f) for f in w.factors])


class TestRestrictedDualEntries:
    """The dual factor of a product point is a word over D(K, K*).

    Its functions read Ad on the double of (H, H*) as the restriction
    sub_restrict·Ad·sub_embedᵀ; these tests check that restriction against
    the same point built on the sub-double itself, at every catalog sample
    and after one cached H* step on either side.  On the catalog the bases
    are coordinate rows and sub_restrict equals sub_embed, so the skewed
    setup is what tells the two apart.
    """

    h = 1e-3

    @staticmethod
    def _read(S, pt, entry):
        dim2 = S.sub_double.dim
        return np.array([[entry(S, a, b)(pt) for b in range(dim2)] for a in range(dim2)])

    def _entries(self, S, w):
        """What dual_entry, hat_entry and tilde_entry read at the dual point w."""
        g = ambient_word(S.G, [])
        other = identity_word(S.double)
        return (
            self._read(S, QPoint(S, g, w), dual_entry),
            self._read(S, PPoint(S, other, g, w), hat_entry),
            self._read(S, PPoint(S, w, g, other), tilde_entry),
        )

    @pytest.mark.parametrize("S,words,tol", RESTRICTION_CASES)
    def test_entries_match_sub_double_word(self, S, words, tol):
        for w in words:
            want = sub_double_word(S, w).ad
            for got in self._entries(S, w):
                assert float(np.max(np.abs(got - want))) <= tol

    @pytest.mark.parametrize("S,words,tol", RESTRICTION_CASES)
    def test_entries_match_after_one_cached_step(self, S, words, tol):
        big = StepCache(S.double, self.h, S.Hdual)
        small = StepCache(S.sub_double, self.h)
        for w in words:
            sw = sub_double_word(S, w)
            for a in range(S.dim_H):
                for bstep, sstep in ((big.plus[a], small.plus[a]), (big.minus[a], small.minus[a])):
                    for side in ("left_mul", "right_mul"):
                        moved = getattr(w, side)(bstep)
                        want = getattr(sw, side)(sstep).ad
                        for got in self._entries(S, moved):
                            assert float(np.max(np.abs(got - want))) <= tol

    @pytest.mark.parametrize(
        "S,words,tol", [c for c in RESTRICTION_CASES if c.id in ("sl3_dj_levi", "skewed_levi")]
    )
    def test_native_bracket_matches_finite_differences(self, S, words, tol):
        # the exact bracket against central differences on the sub-double
        # word, the calculus it replaced; agreement is O(h²)
        rng = np.random.default_rng(8)
        dim2 = S.sub_double.dim
        biggest = 0.0
        for w in words:
            idx = rng.integers(0, dim2, (10, 4))
            pairs = [(dual_entry(S, a, b), dual_entry(S, c, d)) for a, b, c, d in idx]
            g1, g2 = pair_gradients(S, w, pairs)
            (got,) = native_hstar_bracket(S, [w], g1[None], g2[None])
            sw = sub_double_word(S, w)
            want = np.array([pb_dual(sw, AdEntry(a, b), AdEntry(c, d), 1e-5) for a, b, c, d in idx])
            assert float(np.max(np.abs(got - want))) <= 1e-8
            biggest = max(biggest, float(np.max(np.abs(want))))
        assert biggest > 1e-2  # the brackets compared are not all zero

    def test_translates_carry_no_factors(self):
        _, S, words = CATALOG_SAMPLES[list_entries().index("sl3_dj_levi")]
        g = ambient_word(S.G, [np.full(S.G.dim, 0.1)])
        g_steps = StepCache(S.G, self.h, np.eye(S.G.dim))
        h_steps = StepCache(S.double, self.h, S.Hdual)
        for word, cache in ((words[0], h_steps), (g, g_steps)):
            assert word.factors is not None and len(word.factors) == 1
            for step in cache.plus + cache.minus:
                assert word.left_mul(step).factors is None
                assert word.right_mul(step).factors is None
            assert len(word.factors) == 1
        assert identity_word(S.double).factors == ()


class TestResidualReport:
    def test_pass_semantics(self):
        r = ResidualReport("X", (((), 1e-7),), 1e-7, 1e-5, 1e-6)
        assert r.passed
        r = ResidualReport("X", (((), 1e-5),), 1e-5, 1e-5, 1e-6)
        assert not r.passed

    def test_lower_direction_for_control(self):
        r = ResidualReport("X", (((), 0.5),), 0.5, 1e-5, 1e-2, direction="lower")
        assert r.passed
        r = ResidualReport("X", (((), 1e-3),), 1e-3, 1e-5, 1e-2, direction="lower")
        assert not r.passed

    @pytest.mark.parametrize("direction,good", [("upper", 1e-14), ("lower", 0.5)])
    def test_regression_nan_at_a_later_point_fails(self, direction, good):
        # the builtin max dropped a NaN that was not first, so the report
        # passed with the first point's residual as its maximum
        where, tol = [[[0.1]], [[0.2]]], 1e-6 if direction == "upper" else 1e-2
        assert verify_module._report("X", where, [good, good], tol, direction).passed
        r = verify_module._report("X", where, [good, float("nan")], tol, direction)
        assert np.isnan(r.max_residual)
        assert not r.passed

    @pytest.mark.parametrize("direction,good", [("upper", 1e-3), ("lower", 0.5)])
    def test_regression_array_of_residuals(self, direction, good):
        # the stacked sections hand their residuals over as arrays, and
        # "if residuals" raised ValueError on an array of two or more
        where, tol = [[1.0], [2.0]], 1e-2
        r = verify_module._report("X", where, np.array([good, 2 * good]), tol, direction)
        assert r.max_residual == 2 * good
        assert r.per_point == (([1.0], good), ([2.0], 2 * good))
        assert r.passed
        r = verify_module._report("X", where, np.array([good, np.nan]), tol, direction)
        assert np.isnan(r.max_residual) and not r.passed

    def test_regression_empty_array_of_residuals(self):
        # an empty array raised ValueError too; no point has the maximum 0.0
        r = verify_module._report("X", [], np.array([]), 1e-2)
        assert r.per_point == () and r.max_residual == 0.0 and r.passed


class TestRunSuite:
    def test_all_suites_pass_on_dj(self):
        s = replace(dj_setup(), cond_threshold=2.5)
        reports, _ = run_suite(s, "all", num_points=10, seed=6)
        ids = {r.equation_id for r in reports}
        assert {"mCYBE", "PL_CDYBE", "TRIANGULARITY", "EQUIVARIANCE",
                "DIRAC_EQ_HSTAR", "CONSTRAINT_PB", "RHO_CONSISTENCY",
                "PAIRING_CHARACTERIZATION", "Q_JACOBI", "P_JACOBI", "PL_CDYBE_CONTROL"} == ids
        for r in reports:
            assert r.passed, f"{r.equation_id} failed with {r.max_residual:.3e}"

    @pytest.mark.parametrize("suite,name,eq,value", [
        ("jacobi", "q_jacobi_residual", "Q_JACOBI", np.array([0.0, np.nan])),
        ("jacobi", "p_jacobi_residual", "P_JACOBI", np.array([0.0, np.nan])),
        ("dirac", "constraint_inverse_operator_residual", "RHO_CONSISTENCY", np.nan),
        ("dirac", "constraint_pb_check", "CONSTRAINT_PB", np.nan),
    ])
    def test_nan_at_a_point_fails_its_equation(self, monkeypatch, suite, name, eq, value):
        # from the second point of the stack on, behind a finite first
        # point: the builtin max dropped a NaN that was not its first argument
        e = get_entry("sl3_dj_levi")
        S = e.setup()
        original, calls = getattr(verify_module, name), []

        def late_nan(*args):
            calls.append(args)
            out = np.array(original(*args))
            out[1:] += value
            return out

        monkeypatch.setattr(verify_module, name, late_nan)
        reports, _ = run_suite(S, suite, e.num_points, e.seed)
        (report,) = [r for r in reports if r.equation_id == eq]
        assert len(calls) == 1 and len(calls[0][1 if suite == "dirac" else 2]) > 1
        assert np.isfinite(report.per_point[0][1])
        assert np.isnan(report.max_residual)
        assert not report.passed

    def test_triangularity_keeps_a_nan_reference_difference(self):
        S = get_entry("sl3_dj_levi").setup()
        lhs = np.zeros((S.G.dim,) * 3)
        ref = lhs.copy()
        ref[-1, -1, -1] = np.nan
        assert verify_module._triangularity(S.G, lhs, lhs) == 0.0
        assert np.isnan(verify_module._triangularity(S.G, lhs, ref))

    def test_single_suite_selection(self):
        s = replace(classical_setup(), cond_threshold=2.5)
        reports, _ = run_suite(s, "equivariance", num_points=3, seed=6)
        assert [r.equation_id for r in reports] == ["EQUIVARIANCE"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(InputShapeError):
            run_suite(classical_setup(), "nonsense")

    def test_suite_results_independent_of_combination(self):
        # the jacobi numbers must not depend on which other suites ran
        s = replace(classical_setup(), cond_threshold=2.5)
        alone, _ = run_suite(s, "jacobi", num_points=5, seed=6)
        combined, _ = run_suite(s, "all", num_points=5, seed=6)
        combined_j = [r for r in combined if r.equation_id in ("Q_JACOBI", "P_JACOBI")]
        for ra, rb in zip(alone, combined_j):
            assert ra.equation_id == rb.equation_id
            assert ra.max_residual == rb.max_residual
