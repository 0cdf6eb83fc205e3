"""Tests for the structure-constant algebra and tensor layer.

The Yang-Baxter contraction is checked against a brute-force oracle that
loops over every pair of coefficients and applies the bracket slot by slot,
independent of the reshaped matrix products used by the library.  It is
also checked on tensors that are not antisymmetric, so a transposed slot
cannot cancel.
"""

import warnings

import numpy as np
import pytest

from plrmat.catalog import export_entry
from plrmat.errors import InputShapeError, StructureConstantError, SubspaceError
from plrmat.lie_core import (
    LieAlgebra,
    Subspace,
    cybe_lhs,
    invariance_residual3,
)
from plrmat.specio import parse_spec


def sl2():
    # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    c = np.zeros((3, 3, 3))
    c[0, 1, 1], c[1, 0, 1] = 2.0, -2.0
    c[0, 2, 2], c[2, 0, 2] = -2.0, 2.0
    c[1, 2, 0], c[2, 1, 0] = 1.0, -1.0
    return LieAlgebra(c, basis_labels=("h", "e", "f"))


def r_dj_sl2():
    # (e⊗f - f⊗e)/2
    r = np.zeros((3, 3))
    r[1, 2], r[2, 1] = 0.5, -0.5
    return r


def sl3_dj():
    """Split sl3 in the catalog's basis and its standard antisymmetrized R."""
    parsed = parse_spec(export_entry("sl3_dj_levi"))
    return parsed["G"], parsed["R"]


def brute_force_pair(c, s, t, slot_pair):
    """Oracle: [s_ij, t_kl] in g⊗g⊗g by an explicit loop over coefficients.

    s[a, b] and t[p, q] are embedded in their slots and bracketed in the slot
    the two embeddings share, using the structure constants directly.
    """
    n = c.shape[0]
    out = np.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            if s[a, b] == 0.0:
                continue
            for p in range(n):
                for q in range(n):
                    if t[p, q] == 0.0:
                        continue
                    w = s[a, b] * t[p, q]
                    if slot_pair == "12_13":
                        # bracket slot-1 entries a and p, keep (b, q)
                        out[:, b, q] += w * c[a, p]
                    elif slot_pair == "12_23":
                        # bracket slot-2 entries b and p, keep (a, q)
                        out[a, :, q] += w * c[b, p]
                    else:
                        # bracket slot-3 entries b and q, keep (a, p)
                        out[a, p, :] += w * c[b, q]
    return out


def brute_force_cybe(c, R):
    """Oracle: [R12,R13]+[R12,R23]+[R13,R23] from the per-pair loops."""
    return sum(brute_force_pair(c, R, R, pair) for pair in ("12_13", "12_23", "13_23"))


def _invariant(A, t, tol=1e-10):
    """invariance_residual3 against tol relative to the size of t."""
    t = np.asarray(t, dtype=float)
    return invariance_residual3(A, t) <= tol * (1.0 + float(np.max(np.abs(t))))


def alternation_residual(t):
    """Deviation of a 3-tensor from total antisymmetry under the index transpositions."""
    return max(
        float(np.max(np.abs(t + np.transpose(t, axes))))
        for axes in ((1, 0, 2), (0, 2, 1), (2, 1, 0))
    )


def sl3_in_dense_basis(seed):
    """sl3 in the basis f_i = Σ_j P[i, j] e_j for a dense random P."""
    c = sl3_dj()[0].c
    rng = np.random.default_rng(seed)
    P = np.eye(8) + 0.4 * rng.uniform(-1, 1, (8, 8))
    c = np.einsum("ia,jb,abm,mk->ijk", P, P, c, np.linalg.inv(P))
    return LieAlgebra((c - np.swapaxes(c, 0, 1)) / 2)


class TestLieAlgebra:
    def test_abelian_brackets_vanish(self):
        A = LieAlgebra.abelian(4)
        rng = np.random.default_rng(0)
        x, y = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
        assert np.all(A.bracket(x, y) == 0.0)
        assert np.all(A.ad_matrix(x) == 0.0)

    def test_sl2_bracket_table(self):
        A = sl2()
        h, e, f = np.eye(3)
        np.testing.assert_allclose(A.bracket(e, f), h, atol=1e-15)
        np.testing.assert_allclose(A.bracket(h, e), 2 * e, atol=1e-15)
        np.testing.assert_allclose(A.bracket(h, f), -2 * f, atol=1e-15)

    def test_bracket_of_vector_with_itself_vanishes(self):
        A = sl2()
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.uniform(-1, 1, 3)
            np.testing.assert_allclose(A.bracket(x, x), 0.0, atol=1e-14)

    def test_ad_matrix_of_zero_and_h(self):
        A = sl2()
        assert np.all(A.ad_matrix(np.zeros(3)) == 0.0)
        np.testing.assert_allclose(
            A.ad_matrix(np.array([1.0, 0, 0])), np.diag([0.0, 2.0, -2.0]), atol=1e-15
        )

    def test_ad_is_a_representation(self):
        A = sl2()
        rng = np.random.default_rng(2)
        for _ in range(10):
            x, y = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            lhs = A.ad_matrix(A.bracket(x, y))
            rhs = A.ad_matrix(x) @ A.ad_matrix(y) - A.ad_matrix(y) @ A.ad_matrix(x)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_residuals_within_tolerance(self):
        A = sl2()
        assert A.antisymmetry_residual() <= 1e-12
        assert A.jacobi_residual() <= 1e-10

    def test_shape_errors(self):
        A = sl2()
        with pytest.raises(InputShapeError):
            A.bracket(np.zeros(2), np.zeros(3))
        with pytest.raises(InputShapeError):
            A.ad_matrix(np.zeros(4))
        with pytest.raises(InputShapeError):
            LieAlgebra(np.zeros((3, 3)))

    def test_invalid_structure_constants_rejected(self):
        c = np.zeros((2, 2, 2))
        c[0, 1, 0] = 1.0  # missing the antisymmetric partner
        with pytest.raises(StructureConstantError):
            LieAlgebra(c)
        # antisymmetric but violating Jacobi needs dim >= 3
        c = np.zeros((3, 3, 3))
        c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
        c[1, 2, 0], c[2, 1, 0] = 1.0, -1.0
        c[2, 0, 1], c[0, 2, 1] = 1.0, -1.0
        c[0, 1, 0], c[1, 0, 0] = 1.0, -1.0  # spoil Jacobi
        with pytest.raises(StructureConstantError):
            LieAlgebra(c)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tables_rejected(self, bad):
        """A NaN passes every comparison with a tolerance, so it is refused
        first, even where both checks are waived."""
        c = sl2().c.copy()
        c[0, 1, 1] = bad
        for tols in ({}, {"antisym_tol": np.inf, "jacobi_tol": np.inf}):
            with pytest.raises(StructureConstantError, match="finite"):
                LieAlgebra(c, **tols)


class TestSubspace:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_basis_rejected(self, bad):
        basis = np.eye(3)
        basis[0, 0] = bad
        with pytest.raises(SubspaceError, match="finite"):
            Subspace(3, basis)

    def test_independent_basis_accepted(self):
        s = Subspace(3, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        assert s.dim == 2
        np.testing.assert_allclose(s.embed([2.0, 3.0]), [2.0, 3.0, 0.0])

    def test_dependent_basis_rejected(self):
        with pytest.raises(SubspaceError):
            Subspace(3, np.array([[1.0, 1.0, 0], [2.0, 2.0, 0]]))

    def test_empty_basis(self):
        s = Subspace(3, np.zeros((0, 3)))
        assert s.dim == 0
        np.testing.assert_allclose(s.embed(np.zeros(0)), np.zeros(3))


class TestCybe:
    def test_zero_r_gives_zero(self):
        A = sl2()
        t = cybe_lhs(A, np.zeros((3, 3)))
        assert np.max(np.abs(t)) == 0.0

    def test_abelian_gives_zero(self):
        A = LieAlgebra.abelian(3)
        rng = np.random.default_rng(3)
        r = rng.uniform(-1, 1, (3, 3))
        r = r - r.T
        assert np.max(np.abs(cybe_lhs(A, r))) == 0.0

    def test_sl2_dj_against_brute_force(self):
        A = sl2()
        R = r_dj_sl2()
        got = cybe_lhs(A, R)
        want = brute_force_cybe(A.c, R)
        np.testing.assert_allclose(got, want, atol=1e-14)
        assert np.max(np.abs(got)) > 0.1
        # anomaly of the DJ solution is alternating and invariant
        assert alternation_residual(got) <= 1e-12
        assert _invariant(A, got, tol=1e-10)

    def test_random_r_against_brute_force(self):
        A = sl2()
        rng = np.random.default_rng(4)
        for _ in range(3):
            r = rng.uniform(-1, 1, (3, 3))
            r = (r - r.T) / 2
            got = cybe_lhs(A, r)
            np.testing.assert_allclose(got, brute_force_cybe(A.c, r), atol=1e-13)

    def test_quadratic_scaling(self):
        A = sl2()
        R = r_dj_sl2()
        base = cybe_lhs(A, R)
        for alpha in (2.0, -1.0):
            scaled = cybe_lhs(A, alpha * R)
            np.testing.assert_allclose(scaled, alpha**2 * base, atol=1e-12)

    def test_slot_pair_sum_matches_cybe(self):
        # every slot pair contributes, so a dropped term would show
        A = sl2()
        R = r_dj_sl2()
        terms = [brute_force_pair(A.c, R, R, pair) for pair in ("12_13", "12_23", "13_23")]
        assert min(float(np.max(np.abs(t))) for t in terms) > 0.1
        np.testing.assert_allclose(sum(terms), cybe_lhs(A, R), atol=1e-12)

    @pytest.mark.parametrize("basis", ["table", "dense"])
    def test_each_slot_pair_against_brute_force(self, basis):
        A = sl3_dj()[0] if basis == "table" else sl3_in_dense_basis(11)
        rng = np.random.default_rng(12)
        s = rng.uniform(-1, 1, (8, 8))
        for pair in ("12_13", "12_23", "13_23"):
            term = brute_force_pair(A.c, s, s, pair)
            # s is not antisymmetric, so a transposed slot in a term would show
            assert float(np.max(np.abs(brute_force_pair(A.c, s.T, s.T, pair) - term))) > 0.1
        # cybe_lhs shares the first product between two terms; it still
        # equals the sum of the pairs for a non-antisymmetric tensor
        want = brute_force_cybe(A.c, s)
        np.testing.assert_allclose(
            cybe_lhs(A, s), want, rtol=0, atol=1e-12 * np.max(np.abs(want))
        )


class TestInvariance:
    def test_zero_tensor_invariant(self):
        assert _invariant(sl2(), np.zeros((3, 3, 3)))

    def test_abelian_everything_invariant(self):
        A = LieAlgebra.abelian(3)
        rng = np.random.default_rng(5)
        assert _invariant(A, rng.uniform(-1, 1, (3, 3, 3)))

    def test_noninvariant_detected(self):
        A = sl2()
        t = np.zeros((3, 3, 3))
        t[1, 1, 1] = 1.0  # e⊗e⊗e is not invariant
        assert not _invariant(A, t, tol=1e-10)
        assert invariance_residual3(A, t) > 1.0


class TestStackedKernels:
    """cybe_lhs and invariance_residual3 over a stack of tensors give each
    tensor's own value, bit for bit, however the invariance blocks cut the
    points and the basis vectors."""

    @pytest.mark.parametrize("make", [sl2, lambda: sl3_dj()[0]], ids=["sl2", "sl3"])
    def test_cybe_lhs_stack_is_each_tensors_own(self, make):
        A = make()
        n = A.dim
        rs = np.random.default_rng(21).uniform(-1, 1, (2, 3, n, n))
        got = cybe_lhs(A, rs)
        assert got.shape == (2, 3, n, n, n)
        for idx in np.ndindex(2, 3):
            assert got[idx].tobytes() == cybe_lhs(A, rs[idx]).tobytes()
        with pytest.raises(InputShapeError):
            cybe_lhs(A, rs[..., :-1])

    @pytest.mark.parametrize("make", [sl2, lambda: sl3_dj()[0]], ids=["sl2", "sl3"])
    # per block: one basis vector of one point, two of one point, all of
    # one point, all of two points, and the default
    @pytest.mark.parametrize("cubes", [1, 2, "n", "2n", None])
    def test_invariance_stack_is_each_tensors_own(self, monkeypatch, make, cubes):
        import plrmat.lie_core as lie_core

        A = make()
        n = A.dim
        ts = np.random.default_rng(22).uniform(-1, 1, (5, n, n, n))
        alone = [invariance_residual3(A, t) for t in ts]  # at the default block
        assert all(isinstance(a, float) and a > 1.0 for a in alone)
        if cubes is not None:
            cubes = {"n": n, "2n": 2 * n}.get(cubes, cubes)
            monkeypatch.setattr(lie_core, "INVARIANCE_BLOCK", cubes * n**3)
        got = invariance_residual3(A, ts)
        assert got.shape == (5,) and got.tolist() == alone
        assert invariance_residual3(A, ts.reshape(1, 5, n, n, n)).tolist() == [alone]
        # a NaN in one tensor is that tensor's value, and no other's
        ts[2, 1, 0, 1] = np.nan
        got = invariance_residual3(A, ts)
        assert np.isnan(got[2])
        assert np.delete(got, 2).tolist() == alone[:2] + alone[3:]

    def test_empty_stacks_and_the_zero_algebra(self):
        # numpy cannot infer an axis (-1) of an empty array: the shapes are explicit
        zero = LieAlgebra(np.zeros((0, 0, 0)))
        assert invariance_residual3(zero, np.zeros((0, 0, 0))) == 0.0
        assert invariance_residual3(zero, np.zeros((3, 0, 0, 0))).tolist() == [0.0] * 3
        assert cybe_lhs(zero, np.zeros((2, 0, 0))).shape == (2, 0, 0, 0)
        assert invariance_residual3(sl2(), np.zeros((0, 3, 3, 3))).shape == (0,)


class TestOverflowFails:
    """A residual that overflows to NaN is the maximum, and fails its check."""

    @staticmethod
    def _quiet(f, *args, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return f(*args, **kwargs)

    @pytest.mark.parametrize("make", [sl2, lambda: sl3_dj()[0]], ids=["dense", "nonzero_products"])
    def test_jacobi_residual_keeps_nan(self, make):
        c = make().c * 1e200
        A = LieAlgebra(c, jacobi_tol=np.inf)
        assert np.isnan(self._quiet(A.jacobi_residual))
        with pytest.raises(StructureConstantError, match="residual nan"):
            self._quiet(LieAlgebra, c)

    def test_invariance_residual_keeps_nan(self):
        t = np.zeros((3, 3, 3))
        t[2, 2, 2] = np.nan
        assert np.isnan(invariance_residual3(sl2(), t))
