"""Tests for the constraint matrix, rho, the N_i vectors and the Dirac bracket.

Frozen closed forms (derived by hand in the semidirect-product double of sl2
with R = 0, H the Cartan line, M = span{e, f}, lambda = exp(x·h*)):

    ad_{h*}: e ↦ f*,  f ↦ -e*,  everything else ↦ 0  (two-step nilpotent),
    Ad_λ:    e ↦ e + x·f*,  f ↦ f - x·e*,

    C(x)  = [[0, -x], [x, 0]]        (M^1 = e, M^2 = f),
    rho(x) = (1/x)(e⊗f - f⊗e),
    N_1(x) = (1/x) f,   N_2(x) = -(1/x) e.

The C entry is << (Ad e)_M, Ad f >> = <<e, f - x e*>> = -x, and the inverse
[[0, 1/x], [-1/x, 0]] then gives rho directly from its defining sum.  The
same rho is the unique solution of s' = -s² (with s the coefficient of
e⊗f - f⊗e) demanded by the dynamical Yang-Baxter equation, which pins the
overall sign; the dynamical-equation residual is asserted in test_verify.
"""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from plrmat.bialgebra_double import validate_setup
from plrmat.catalog import get_entry
from plrmat.dual_group import identity_word
from plrmat import bounds, reduction
from plrmat.errors import (
    CDegenerateError,
    ConsistencyError,
    InputShapeError,
    SamplingExhaustedError,
)
from plrmat.lie_core import LieAlgebra, Subspace
from plrmat.reduction import (
    _row_gradients,
    check_second_class,
    constraint_matrix,
    constraint_pb_check,
    dirac_bracket,
    hstar_word,
    constraint_inverse_operator_residual,
    native_hstar_bracket,
    characterization_identity_residual,
    rho,
    rho_jet,
    rho_via_n,
    sample_hstar_points,
)
from plrmat.verify import QFunction, dual_entry

from test_lie_core import r_dj_sl2, sl2, sl3_dj


def stack(s, *words):
    """The points of words as one stack: their memo rows, joined in order."""
    rows = [constraint_matrix(s, w)._arrays() for w in words]
    return reduction.CMatrix(s, words, *map(np.concatenate, zip(*rows)))


def classical_setup():
    """sl2, R = 0, H = span{h}, M = span{e, f}."""
    return validate_setup(
        sl2(),
        np.zeros((3, 3)),
        Subspace(3, np.eye(3)),
        Subspace(3, np.array([[1.0, 0, 0]])),
        Subspace(3, np.array([[0.0, 1.0, 0], [0.0, 0, 1.0]])),
    )


def dj_setup():
    """sl2, Drinfeld-Jimbo R, H = span{h}, M = span{e, f}."""
    return validate_setup(
        sl2(),
        r_dj_sl2(),
        Subspace(3, np.eye(3)),
        Subspace(3, np.array([[1.0, 0, 0]])),
        Subspace(3, np.array([[0.0, 1.0, 0], [0.0, 0, 1.0]])),
    )


def trivial_setup():
    """H = K: empty complement, 0x0 constraint matrix."""
    return validate_setup(
        sl2(),
        r_dj_sl2(),
        Subspace(3, np.eye(3)),
        Subspace(3, np.eye(3)),
        Subspace(3, np.zeros((0, 3))),
    )


def abelian_odd_setup():
    """Abelian dim 3 with a one-dimensional complement: C is 1x1 and zero."""
    A = LieAlgebra.abelian(3)
    return validate_setup(
        A,
        np.zeros((3, 3)),
        Subspace(3, np.eye(3)),
        Subspace(3, np.eye(3)[:2]),
        Subspace(3, np.eye(3)[2:]),
    )


class TestConstraintMatrix:
    def test_duality_of_constraint_basis(self):
        s = classical_setup()
        g = s.Mdual @ s.M_in_K.T
        assert float(np.max(np.abs(g - np.eye(g.shape[0])))) <= 1e-12

    def test_identity_gives_zero_matrix(self):
        s = classical_setup()
        C = constraint_matrix(s, identity_word(s.double))
        np.testing.assert_allclose(C.entries, 0.0, atol=1e-14)
        assert not check_second_class(C)

    def test_trivial_reduction_vacuously_second_class(self):
        s = trivial_setup()
        C = constraint_matrix(s, identity_word(s.double))
        assert C.entries.shape == (1, 0, 0)
        assert check_second_class(C)

    def test_classical_frozen_values(self):
        s = classical_setup()
        for x in (0.5, 1.0, 2.0):
            C = constraint_matrix(s, hstar_word(s, [x]))
            np.testing.assert_allclose(C.entries[0], [[0.0, -x], [x, 0.0]], atol=1e-12)
            assert C.antisym_residual <= 1e-12
            assert C.form_agreement <= 1e-12
            # singular values are (x, x); conditioning is against unit scale
            assert abs(C.cond - max(1.0, x) / x) <= 1e-9
            assert check_second_class(C)

    def test_odd_complement_diagnosed(self):
        s = abelian_odd_setup()
        C = constraint_matrix(s, hstar_word(s, [0.2, -0.3]))
        assert C.entries.shape == (1, 1, 1)
        assert not check_second_class(C)
        assert "odd-dimensional" in C.diagnosis()

    def test_antisymmetry_at_random_points(self):
        s = dj_setup()
        rng = np.random.default_rng(0)
        for _ in range(5):
            C = constraint_matrix(s, hstar_word(s, rng.uniform(-1, 1, 1)))
            assert C.antisym_residual <= 1e-12


class TestRho:
    def test_identity_degenerate(self):
        s = classical_setup()
        with pytest.raises(CDegenerateError):
            rho(s, identity_word(s.double))

    def test_trivial_reduction_gives_zero(self):
        s = trivial_setup()
        t = rho(s, identity_word(s.double))
        assert np.max(np.abs(t)) == 0.0

    def test_classical_frozen_rho(self):
        s = classical_setup()
        for x in (0.5, 1.0, 2.0):
            t = rho(s, hstar_word(s, [x]))
            want = np.zeros((3, 3))
            want[1, 2], want[2, 1] = 1.0 / x, -1.0 / x
            np.testing.assert_allclose(t, want, atol=1e-10)

    def test_rho_antisymmetric_at_samples(self):
        s = dj_setup()
        for w in sample_hstar_points(s, 5, seed=11).words:
            t = rho(s, w)
            assert np.max(np.abs(t + t.T)) <= 1e-12

    def test_dj_closed_form(self):
        # with the package conventions: rho(exp(x h*)) = (e⊗f - f⊗e)/(exp(x)-1)
        s = dj_setup()
        for x in (0.5, 1.0, 2.0, -0.7):
            t = rho(s, hstar_word(s, [x]))
            coeff = 1.0 / (np.exp(x) - 1.0)
            want = np.zeros((3, 3))
            want[1, 2], want[2, 1] = coeff, -coeff
            np.testing.assert_allclose(t, want, atol=1e-10)


class TestNVectors:
    def test_trivial_reduction_empty(self):
        s = trivial_setup()
        assert stack(s, identity_word(s.double)).n_matrix.shape == (1, 0, s.n)

    def test_degenerate_point_raises(self):
        s = abelian_odd_setup()
        with pytest.raises(CDegenerateError):
            rho_via_n(s, stack(s, hstar_word(s, [0.4, 0.1])))

    def test_classical_frozen_n_vectors(self):
        s = classical_setup()
        for x in (0.5, 1.0, 2.0):
            (ns,) = stack(s, hstar_word(s, [x])).n_matrix
            np.testing.assert_allclose(ns[0], [0.0, 0.0, 1.0 / x], atol=1e-10)
            np.testing.assert_allclose(ns[1], [0.0, -1.0 / x, 0.0], atol=1e-10)

    def test_three_way_agreement_classical_and_dj(self):
        for s in (classical_setup(), dj_setup()):
            for w in sample_hstar_points(s, 5, seed=7).words:
                direct = rho(s, w)
                (via_n,) = rho_via_n(s, stack(s, w))
                assert np.max(np.abs(direct - via_n)) <= 1e-9

    def test_rho_via_n_bounds_its_antisymmetry(self, monkeypatch):
        """rho_via_n assembles one product order a; the other is −aᵀ, so both
        bounds read |a + aᵀ|.  Past 1e-9·(1 + max|a|) it raises
        ConsistencyError, and a larger a within that bound past 1e-8 raises
        InputShapeError."""
        s = classical_setup()
        w = hstar_word(s, [1.0])
        n = stack(s, w).n_matrix
        for scale, shift, error in ((1.0, 1e-6, ConsistencyError),
                                    (1e3, 1e-7, InputShapeError)):
            bad = scale * n
            bad[0, 0, 0] += shift
            monkeypatch.setattr(reduction, "_second_class",
                                lambda S, C, bad=bad: SimpleNamespace(n_matrix=bad))
            with pytest.raises(error):
                rho_via_n(s, stack(s, w))

    def test_stacked_rho_via_n_raises_for_the_first_offending_point(self, monkeypatch):
        """Over a stack of points, the error is that of the first point in
        order that breaks a bound, whichever bound a later point breaks."""
        s = classical_setup()
        words = [hstar_word(s, [x]) for x in (0.5, 1.0, 1.5)]
        good = list(stack(s, *words).n_matrix)
        orders = 1.0 * good[1]
        orders[0, 0] += 1e-6  # past 1e-9·(1 + max|a|): ConsistencyError
        antisym = 1e3 * good[2]
        antisym[0, 0] += 1e-7  # within it, past 1e-8: InputShapeError
        for first, second, error in ((orders, antisym, ConsistencyError),
                                     (antisym, orders, InputShapeError)):
            n = np.array([good[0], first, second])
            monkeypatch.setattr(reduction, "_second_class",
                                lambda S, C, n=n: SimpleNamespace(n_matrix=n))
            with pytest.raises(error):
                rho_via_n(s, stack(s, *words))

    def test_stacked_n_matrices_raise_for_the_first_offending_point(self, monkeypatch):
        """A stack of points raises for its first point in order whose moved
        complement basis is singular under bounds.N_SOLVE_COND, or whose
        defining relation breaks bounds.N_RELATION_TOL, with that point's
        message."""
        s = levi_setup()
        sample = sample_hstar_points(s, 3, seed=7)
        n = s.n

        def basis_cond(w):
            inv = np.linalg.inv(w.ad)
            sv = np.linalg.svd(s.M_in_K @ inv[n:, :n] @ s.M_in_K.T, compute_uv=False)
            return sv[0] / sv[-1]

        # the worst-conditioned point second, so a bound between its
        # condition and the others' makes it the one singular point
        conds = [basis_cond(w) for w in sample.words]
        order = [0, 1, 2]
        worst = int(np.argmax(conds))
        order.insert(1, order.pop(worst))
        conds.insert(1, conds.pop(worst))
        between = (conds[1] + max(conds[0], conds[2])) / 2
        assert max(conds[0], conds[2]) < between < conds[1]
        monkeypatch.setattr(bounds, "N_SOLVE_COND", between)
        message = f"numerically singular (condition {conds[1]:.3e})"
        tried = [sample[order], sample[order], sample[order[1:]]]
        with pytest.raises(CDegenerateError, match=re.escape(message)):
            tried[0].n_matrix
        # a relation that every point breaks: the first point's, before the
        # singular second point's
        monkeypatch.setattr(bounds, "N_RELATION_TOL", -1.0)
        with pytest.raises(ConsistencyError, match="defining relation for N_0"):
            tried[1].n_matrix
        # the singular point first: its error, before any relation
        with pytest.raises(CDegenerateError):
            tried[2].n_matrix
        # a failed kernel leaves nothing on the stack it ran on
        assert not any("n_matrix" in C._made for C in tried + [sample])

    def test_rho_via_n_frozen_value(self):
        s = classical_setup()
        (t,) = rho_via_n(s, stack(s, hstar_word(s, [1.0])))
        want = np.zeros((3, 3))
        want[1, 2], want[2, 1] = 1.0, -1.0
        np.testing.assert_allclose(t, want, atol=1e-10)

    def test_constraint_inverse_operator_identity(self):
        for s in (classical_setup(), dj_setup()):
            for w in sample_hstar_points(s, 4, seed=13).words:
                assert constraint_inverse_operator_residual(s, stack(s, w))[0] <= 1e-9

    def test_characterization_identity(self):
        rng = np.random.default_rng(21)
        for s in (classical_setup(), dj_setup()):
            for w in sample_hstar_points(s, 3, seed=17).words:
                for _ in range(5):
                    u = rng.uniform(-1, 1, 2) @ s.M_in_K
                    v = rng.uniform(-1, 1, 2) @ s.M_in_K
                    got = characterization_identity_residual(
                        s, stack(s, w), u[None, None], v[None, None])
                    assert got.shape == (1,) and got[0] <= 1e-9
                # a stack of rows for every point: neither one point's rows nor a
                # stack for another number of points
                with pytest.raises(InputShapeError):
                    characterization_identity_residual(s, stack(s, w), u[None], v[None])
                with pytest.raises(InputShapeError):
                    characterization_identity_residual(
                        s, stack(s, w, w), u[None, None], v[None, None])


def levi_setup():
    """The catalog's sl3 Levi setup: its sub-double is not abelian, so the
    brackets of dual entries are nonzero."""
    from plrmat.catalog import get_entry

    return get_entry("sl3_dj_levi").setup()


def row_gradients(s, w, fs):
    """_row_gradients at w, a stack of one, of the l·Ad·r functions fs, one
    row each."""
    left = np.array([f.left for f in fs])
    right = np.array([f.right for f in fs])
    return _row_gradients(s, stack(s, w), left[None], right[None])[0]


def pair_gradients(s, w, pairs):
    """(grad F1, grad' F2) at w for each pair (F1, F2), from one contraction."""
    g = row_gradients(s, w, [f for pair in pairs for f in pair])
    p = s.dim_H
    return g[0::2, :p], g[1::2, p:]


class TestDiracBracket:
    def test_constant_function_gives_zero(self):
        s = dj_setup()
        w = hstar_word(s, [0.9])
        const = QFunction("dual", np.zeros(2 * s.n), s.sub_embed[0])
        g1, g2 = pair_gradients(s, w, [(const, dual_entry(s, 0, 0))])
        val = dirac_bracket(s, stack(s, w), g1[None], g2[None])
        assert abs(val[0, 0]) <= 1e-12

    @staticmethod
    def _check_matches_native(s):
        rng = np.random.default_rng(3)
        dim2 = s.sub_double.dim
        for w in sample_hstar_points(s, 4, seed=5).words:
            idx = rng.integers(0, dim2, (20, 4))
            pairs = [(dual_entry(s, a, b), dual_entry(s, c, d)) for a, b, c, d in idx]
            g1, g2 = pair_gradients(s, w, pairs)
            got = dirac_bracket(s, stack(s, w), g1[None], g2[None])
            want = native_hstar_bracket(s, stack(s, w), g1[None], g2[None])
            assert got.shape == want.shape == (1, 20)
            assert float(np.max(np.abs(got - want))) <= 1e-12

    def test_matches_native_bracket_dj(self):
        self._check_matches_native(dj_setup())

    def test_matches_native_bracket_levi(self):
        self._check_matches_native(levi_setup())

    def test_constraint_pb_vanishes(self):
        s = dj_setup()
        rng = np.random.default_rng(4)
        p = s.dim_H
        for w in sample_hstar_points(s, 4, seed=9).words:
            for i in range(s.dim_M):
                f = dual_entry(s, rng.integers(0, 2), rng.integers(0, 2))
                pb = constraint_pb_check(s, stack(s, w), row_gradients(s, w, [f])[None, :, :p])
                assert pb.shape == (1, 1, s.dim_M)
                assert abs(pb[0, 0, i]) <= 1e-12

    def test_constraint_pb_identity_point_exact(self):
        s = dj_setup()
        w = identity_word(s.double)
        grad = row_gradients(s, w, [dual_entry(s, 0, 0)])[:, : s.dim_H]
        assert abs(constraint_pb_check(s, stack(s, w), grad[None])[0, 0, 0]) <= 1e-14

    def test_identity_point_trivial_reduction_vanishes(self):
        # with an empty complement the identity is second class and both
        # bracket routes vanish there by isotropy
        s = trivial_setup()
        w = identity_word(s.double)
        g1, g2 = pair_gradients(s, w, [(dual_entry(s, 1, 4), dual_entry(s, 2, 5))])
        assert abs(dirac_bracket(s, stack(s, w), g1[None], g2[None])[0, 0]) <= 1e-12
        assert abs(native_hstar_bracket(s, stack(s, w), g1[None], g2[None])[0, 0]) <= 1e-12

    def test_correction_reads_constraint_pb_check(self, monkeypatch):
        """The correction's factor {f1, ξ_i} is constraint_pb_check of grad1.

        Its partner {ξ_j, f2} is exactly 0 on sl3_dj_levi (Ad_λ keeps grad' f2
        in the sub-double, whose K*-part pairs to 0 with M), so a factor
        shifted by 1 leaves the bracket as it is; a NaN factor reaches every
        bracket."""
        s = levi_setup()
        w = sample_hstar_points(s, 1, seed=5).words[0]
        dim2 = s.sub_double.dim
        idx = np.random.default_rng(8).integers(0, dim2, (10, 4))
        g1, g2 = pair_gradients(
            s, w, [(dual_entry(s, a, b), dual_entry(s, c, d)) for a, b, c, d in idx]
        )
        g1, g2 = g1[None], g2[None]
        before = dirac_bracket(s, stack(s, w), g1, g2)
        assert float(np.max(np.abs(before))) > 1e-2
        original, seen = reduction.constraint_pb_check, []

        def shifted(*args):
            seen.append(args[2])
            return original(*args) + shift

        monkeypatch.setattr(reduction, "constraint_pb_check", shifted)
        shift = 1.0
        assert dirac_bracket(s, stack(s, w), g1, g2).tobytes() == before.tobytes()
        shift = np.nan
        assert np.isnan(dirac_bracket(s, stack(s, w), g1, g2)).all()
        assert len(seen) == 2 and all(g is g1 for g in seen)


class TestBasisIndependence:
    def test_rho_independent_of_basis_choices(self):
        """rho depends only on the subspaces, not on the bases spanning them."""
        g = sl2()
        R = r_dj_sl2()
        eye = np.eye(3)
        plain = validate_setup(
            g, R, Subspace(3, eye), Subspace(3, eye[:1]), Subspace(3, eye[1:])
        )
        recombined = validate_setup(
            g,
            R,
            Subspace(3, eye),
            Subspace(3, np.array([[3.0, 0.0, 0.0]])),
            Subspace(3, np.array([[0.0, 2.0, 1.0], [0.0, -1.0, 1.0]])),
        )
        from plrmat.dual_group import ad_of_word

        xi = np.array([0.8, 0.0, 0.0])  # K*-coordinates, basis independent
        w1 = ad_of_word(plain.double, [xi])
        w2 = ad_of_word(recombined.double, [xi])
        np.testing.assert_allclose(
            rho(plain, w1), rho(recombined, w2), atol=1e-12
        )

    def test_empty_second_class_region_is_reported(self):
        """A chain can satisfy every hypothesis yet admit no second-class
        point: inside the upper-triangular subalgebra of sl3 the constraint
        brackets of M = {e2, e3} vanish identically, so sampling must exhaust
        honestly rather than return degenerate points."""
        g, R = sl3_dj()
        e8 = np.eye(8)
        s = validate_setup(
            g,
            R,
            Subspace(8, e8[[0, 1, 2, 3, 4]]),
            Subspace(8, e8[[0, 1, 2]]),
            Subspace(8, e8[[3, 4]]),
        )
        C = constraint_matrix(s, hstar_word(s, [0.5, -0.8, 0.3]))
        np.testing.assert_allclose(C.entries, 0.0, atol=1e-14)
        with pytest.raises(SamplingExhaustedError):
            sample_hstar_points(s, 1, seed=0)


class TestTwoStepComposition:
    """Reduction by stages: sl3 to its gl2-type subalgebra, then to the
    Cartan inside it, composes to the one-step Cartan reduction."""

    # the gap at roundoff, relative to 1 + max|rho|: it reads 0.0 on both R
    GAP_TOL = 1e-13

    @pytest.mark.parametrize("r_kind", ["zero_r", "sl3_dj_r"])
    def test_two_step_matches_one_step(self, r_kind):
        """The sum of the two stages' rho equals the one-step rho at each point.

        R is 0 or the standard R of sl3_dj.  Each composed evaluation must
        itself solve the dynamical equation.  The point is carried over by
        its Ad matrix: step_a has the double of `one`, and the double of
        step_b is the sub-double of step_a, on which Ad restricts through
        sub_restrict and sub_embed.  Here every basis is a set of coordinate
        rows, so those maps and the identification of the intermediate dual
        are coordinate selections.
        """
        from plrmat.dual_group import GroupWord
        from plrmat.reduction import RhoJet, rho_jet
        from plrmat.verify import plcdybe_residual, reduced_r_function

        g, r_std = sl3_dj()
        eye = np.eye(8)
        r0 = r_std if r_kind == "sl3_dj_r" else np.zeros((8, 8))
        full = Subspace(8, eye)
        cartan = Subspace(8, eye[:2])
        one = validate_setup(g, r0, full, cartan, Subspace(8, eye[2:]))
        step_a = validate_setup(
            g, r0, full, Subspace(8, eye[[0, 1, 2, 5]]), Subspace(8, eye[[3, 4, 6, 7]])
        )
        step_b = validate_setup(
            g, r0, Subspace(8, eye[[0, 1, 2, 5]]), cartan, Subspace(8, eye[[2, 5]])
        )

        # a direction of `one`'s H* basis is a combination of step_a's H*
        # basis, and its H*-coordinates there are its K*-coordinates for
        # step_b, so the derivatives of the two jets recombine along it
        to_a = one.Hdual @ step_a.H_in_K.T
        to_b = to_a @ step_b.H_in_K.T

        def two_step_rfun(C):
            """The composed jet at the point of C, a stack of one."""
            (ad,) = C.ad
            wa = GroupWord(step_a.double, None, ad)
            wb = GroupWord(
                step_b.double, None, step_a.sub_restrict @ ad @ step_a.sub_embed.T
            )
            ja, jb = rho_jet(step_a, wa), rho_jet(step_b, wb)
            return RhoJet(
                (ja.value + jb.value)[None],
                (np.tensordot(to_a, ja.left, 1) + np.tensordot(to_b, jb.left, 1))[None],
                (np.tensordot(to_a, ja.right, 1) + np.tensordot(to_b, jb.right, 1))[None],
            )

        rng = np.random.default_rng(8)
        for _ in range(5):
            x = rng.uniform(0.3, 1.0, 2) * rng.choice([-1.0, 1.0], 2)
            if abs(x[0] + x[1]) < 0.3:  # keep clear of the composite-root pole
                x[1] += 0.5
            w = hstar_word(one, x)
            direct = rho(one, w)
            (composed,) = two_step_rfun(stack(one, w)).value
            scale = 1.0 + float(np.max(np.abs(direct)))
            assert float(np.max(np.abs(direct - composed))) <= self.GAP_TOL * scale
            assert np.max(np.abs(direct)) > 0.1  # the stages have something to compose
            at = stack(one, w)
            assert np.max(np.abs(plcdybe_residual(one, reduced_r_function(one), at))) <= 1e-12
            assert np.max(np.abs(plcdybe_residual(one, two_step_rfun, at))) <= 1e-12


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        s = dj_setup()
        a = sample_hstar_points(s, 5, seed=42)
        b = sample_hstar_points(s, 5, seed=42)
        for wa, wb in zip(a.words, b.words):
            np.testing.assert_array_equal(wa.ad, wb.ad)

    def test_exhaustion_on_always_degenerate_setup(self):
        s = abelian_odd_setup()
        with pytest.raises(SamplingExhaustedError):
            sample_hstar_points(s, 1, seed=0)

    def test_samples_are_second_class(self):
        s = classical_setup()
        for w in sample_hstar_points(s, 8, seed=1).words:
            assert check_second_class(constraint_matrix(s, w))


class TestReadOnly:
    def test_cached_arrays_reject_writes(self):
        # every array a setup or a stack of points holds is read-only in
        # place, so a caller writing into one cannot change what later calls
        # return
        entry = get_entry("sl3_dj_levi")
        S = entry.setup()
        C = sample_hstar_points(S, 1, entry.seed)
        jet = C.jet
        kept = [np.array(a) for a in (jet.value, jet.left, jet.right)]
        one = rho_jet(S, C.words[0])
        arrays = {
            "entries": C.entries,
            "m_parts": C.m_parts,
            "kstar_parts": C.kstar_parts,
            "velocity": C.velocity,
            "ad_inverse": C.ad_inverse,
            "n_matrix": C.n_matrix,
            "solved[0]": C.solved[0],
            "solved[1]": C.solved[1],
            "jet.value": jet.value,
            "jet.left": jet.left,
            "jet.right": jet.right,
            "rho_jet.value": one.value,
            "rho_jet.left": one.left,
            "cond": C.cond,
            "R": S.R,
            "anomaly": S.anomaly,
            "H_in_K": S.H_in_K,
            "M_in_K": S.M_in_K,
            "Hdual": S.Hdual,
            "Mdual": S.Mdual,
            "sub_embed": S.sub_embed,
            "hstar_ads": S.hstar_ads,
            "sub_restrict": S.sub_restrict,
            "K_embed.pinv": S.K_embed.pinv,
        }
        assert all(a.size for a in arrays.values())
        writable = []
        for name, a in arrays.items():
            try:
                a[...] += 1.0
            except ValueError:
                continue
            writable.append(name)
        assert writable == []
        again = C.jet
        assert again is jet
        for got, want in zip((again.value, again.left, again.right), kept):
            np.testing.assert_array_equal(got, want)
        for got, want in zip((one.value, one.left), kept):
            np.testing.assert_array_equal(got, want[0])
