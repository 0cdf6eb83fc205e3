"""Tests for the bialgebra derivation, the double, and setup validation.

The cobracket and the semidirect mixed brackets are checked against
brute-force oracles that apply the defining formulas componentwise,
independent of the library's vectorized assembly.
"""

import numpy as np
import pytest

from plrmat import bounds
from plrmat.bialgebra_double import (
    DUAL_BRACKET_SIGN,
    Bialgebra,
    DoubleAlgebra,
    build_double,
    derive_cobracket,
    validate_setup,
)
from plrmat.catalog import export_entry
from plrmat.errors import (
    DecompositionError,
    InputShapeError,
    NotSubBialgebraError,
    ReductivityError,
    SubalgebraError,
    SubspaceError,
)
from plrmat.lie_core import LieAlgebra, Subspace
from plrmat.specio import parse_spec

from test_lie_core import r_dj_sl2, sl2, sl3_dj


def full_subspace(dim):
    return Subspace(dim, np.eye(dim))


def sl_n_standard(n):
    """sl_n over H_a = E_aa - E_(a+1)(a+1) and the matrix units E_ij, i != j,
    with R = ½ Σ_(i<j) E_ij ∧ E_ji."""
    mats = []
    for a in range(n - 1):
        m = np.zeros((n, n))
        m[a, a], m[a + 1, a + 1] = 1.0, -1.0
        mats.append(m)
    units = [(i, j) for i in range(n) for j in range(n) if i != j]
    for i, j in units:
        m = np.zeros((n, n))
        m[i, j] = 1.0
        mats.append(m)
    dim = len(mats)
    flat = np.array([m.ravel() for m in mats])
    br = np.array([(x @ y - y @ x).ravel() for x in mats for y in mats])
    c = np.linalg.lstsq(flat.T, br.T, rcond=None)[0].T.reshape(dim, dim, dim)
    r = np.zeros((dim, dim))
    for i, j in units:
        if i < j:
            a, b = n - 1 + units.index((i, j)), n - 1 + units.index((j, i))
            r[a, b], r[b, a] = 0.5, -0.5
    return LieAlgebra(np.round(c)), r


def brute_force_cobracket(G, R, x):
    """Oracle: (ad_x ⊗ 1 + 1 ⊗ ad_x) R by explicit loops over components."""
    n = G.dim
    out = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            if R[a, b] == 0.0:
                continue
            ea, eb = np.zeros(n), np.zeros(n)
            ea[a], eb[b] = 1.0, 1.0
            out += np.outer(G.bracket(x, ea), eb) * R[a, b]
            out += np.outer(ea, G.bracket(x, eb)) * R[a, b]
    return out


class TestDeriveCobracket:
    def test_non_antisymmetric_r_rejected(self):
        # R's antisymmetry is checked to 1e-12 absolute; 1e-11 off fails
        r = r_dj_sl2()
        r[2, 1] += 1e-11
        with pytest.raises(InputShapeError):
            derive_cobracket(sl2(), r, full_subspace(3))
        with pytest.raises(InputShapeError):
            derive_cobracket(sl2(), np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                             full_subspace(3))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 4), (3,), (3, 3, 3)])
    def test_wrong_shape_r_rejected(self, shape):
        with pytest.raises(InputShapeError):
            derive_cobracket(sl2(), np.zeros(shape), full_subspace(3))

    def test_zero_r_gives_abelian_dual(self):
        A = sl2()
        b = derive_cobracket(A, np.zeros((3, 3)), full_subspace(3))
        assert np.all(b.cobracket == 0.0)
        assert np.all(b.Kstar.c == 0.0)

    def test_abelian_ambient_gives_zero_cobracket(self):
        A = LieAlgebra.abelian(3)
        rng = np.random.default_rng(0)
        r = rng.uniform(-1, 1, (3, 3))
        r = (r - r.T) / 2
        b = derive_cobracket(A, r, full_subspace(3))
        assert np.all(b.cobracket == 0.0)

    def test_sl2_dj_cobracket_values(self):
        A = sl2()
        R = r_dj_sl2()
        b = derive_cobracket(A, R, full_subspace(3))
        # oracle evaluation per basis vector
        for k in range(3):
            x = np.zeros(3)
            x[k] = 1.0
            np.testing.assert_allclose(
                b.cobracket[k], brute_force_cobracket(A, R, x), atol=1e-14
            )
        # delta(h) = 0, delta(e) = (e⊗h - h⊗e)/2, delta(f) = (f⊗h - h⊗f)/2
        np.testing.assert_allclose(b.cobracket[0], 0.0, atol=1e-15)
        want_e = np.zeros((3, 3))
        want_e[1, 0], want_e[0, 1] = 0.5, -0.5
        np.testing.assert_allclose(b.cobracket[1], want_e, atol=1e-15)
        want_f = np.zeros((3, 3))
        want_f[2, 0], want_f[0, 2] = 0.5, -0.5
        np.testing.assert_allclose(b.cobracket[2], want_f, atol=1e-15)

    def test_sl2_dj_dual_bracket(self):
        # with the sign convention of the package: [h*,e*] = e*/2, [h*,f*] = f*/2
        b = derive_cobracket(sl2(), r_dj_sl2(), full_subspace(3))
        hs, es, fs = np.eye(3)
        np.testing.assert_allclose(b.Kstar.bracket(hs, es), 0.5 * es, atol=1e-15)
        np.testing.assert_allclose(b.Kstar.bracket(hs, fs), 0.5 * fs, atol=1e-15)
        np.testing.assert_allclose(b.Kstar.bracket(es, fs), 0.0, atol=1e-15)

    def test_duality_roundtrip(self):
        """The cobracket is read off K*'s table, the one table a Bialgebra
        keeps: it is read-only, reads back to that table, and equals the
        coboundary restricted to K as derive_cobracket computes it, bit for
        bit, so the cocycle check sees the same numbers."""
        from plrmat.catalog import get_entry, list_entries

        setups = [get_entry(name).setup() for name in list_entries()]
        for G, R, K_embed in [(sl2(), r_dj_sl2(), full_subspace(3))] + [
            (S.G, S.R, S.K_embed) for S in setups
        ]:
            b = derive_cobracket(G, R, K_embed)
            assert not b.cobracket.flags.writeable
            assert np.array_equal(
                DUAL_BRACKET_SIGN * np.transpose(b.cobracket, (1, 2, 0)), b.Kstar.c
            )
            P, pinv = K_embed.basis, K_embed.pinv
            ad_rows = np.tensordot(P, G.c, axes=1)
            d_g = np.swapaxes(ad_rows, 1, 2) @ R + R @ ad_rows
            assert b.cobracket.tobytes() == (pinv @ d_g @ pinv.T).tobytes()

    def test_cocycle_residual_small(self):
        b = derive_cobracket(sl2(), r_dj_sl2(), full_subspace(3))
        assert b.cocycle_residual() <= 1e-10

    def test_borel_is_a_sub_bialgebra(self):
        # span{h, e} is closed under bracket and under the cobracket
        K = Subspace(3, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        b = derive_cobracket(sl2(), r_dj_sl2(), K)
        assert b.K.dim == 2

    def test_not_closed_subspace_rejected(self):
        K = Subspace(3, np.array([[1.0, 0, 0], [0, 1.0, 1.0]]))  # span{h, e+f}
        with pytest.raises(SubalgebraError):
            derive_cobracket(sl2(), r_dj_sl2(), K)

    def test_leaking_cobracket_rejected(self):
        # span{e} is an abelian subalgebra but delta(e) is not in e∧e = {0}
        K = Subspace(3, np.array([[0.0, 1.0, 0.0]]))
        with pytest.raises(NotSubBialgebraError):
            derive_cobracket(sl2(), r_dj_sl2(), K)


def assert_canonical_pairing(d):
    """K and K* isotropic, and dual to each other by the identity."""
    n = d.n
    np.testing.assert_array_equal(d.pairing[:n, :n], np.zeros((n, n)))
    np.testing.assert_array_equal(d.pairing[n:, n:], np.zeros((n, n)))
    np.testing.assert_array_equal(d.pairing[:n, n:], np.eye(n))
    np.testing.assert_array_equal(d.pairing, d.pairing.T)


class TestBuildDouble:
    def test_abelian_double(self):
        A = LieAlgebra.abelian(2)
        b = derive_cobracket(A, np.zeros((2, 2)), full_subspace(2))
        d = build_double(b)
        assert d.dim == 4
        assert np.all(d.D.c == 0.0)
        assert_canonical_pairing(d)

    def test_semidirect_mixed_brackets_r_zero(self):
        """With R = 0 the double is K ⋉ K* via <[X,a],Y> = -<a,[X,Y]>."""
        A = sl2()
        b = derive_cobracket(A, np.zeros((3, 3)), full_subspace(3))
        d = build_double(b)
        eye = np.eye(3)
        for i in range(3):
            for j in range(3):
                br = d.D.bracket(d.embed_K(eye[i]), d.embed_Kstar(eye[j]))
                assert np.max(np.abs(br[: d.n])) <= 1e-14  # lands in K*
                # oracle: coefficients of [e_i, eps^j] on eps^k
                for k in range(3):
                    want = -A.bracket(eye[i], eye[k])[j]
                    assert abs(d.comp_Kstar(br)[k] - want) <= 1e-14

    def test_invariance_and_jacobi_r_zero(self):
        b = derive_cobracket(sl2(), np.zeros((3, 3)), full_subspace(3))
        d = build_double(b)
        assert d.invariance_residual() <= 1e-10
        assert d.D.jacobi_residual() <= 1e-10

    def test_sl2_dj_double_passes_invariants(self):
        b = derive_cobracket(sl2(), r_dj_sl2(), full_subspace(3))
        d = build_double(b)
        assert d.dim == 6
        assert d.D.jacobi_residual() <= 1e-10
        assert d.invariance_residual() <= 1e-10
        assert_canonical_pairing(d)

    def inconsistent_pair(self):
        """sl2 as its own dual, with the cobracket that duality reads off it."""
        K = Kstar = sl2()  # not the dual bracket of any cobracket of sl2
        return K, Kstar, -np.transpose(Kstar.c, (2, 0, 1))

    def test_inconsistent_pair_fails_the_cocycle_check(self):
        K, Kstar, _ = self.inconsistent_pair()
        with pytest.raises(NotSubBialgebraError, match="residual 7.000e"):
            Bialgebra(K=K, Kstar=Kstar)

    def test_inconsistent_pair_assembles_a_non_lie_double(self):
        """What the cocycle check keeps out: build_double computes no Jacobiator."""
        K, Kstar, cb = self.inconsistent_pair()
        bad = object.__new__(Bialgebra)  # bypass the bialgebra validation
        object.__setattr__(bad, "K", K)
        object.__setattr__(bad, "Kstar", Kstar)
        object.__setattr__(bad, "cobracket", cb)
        assert build_double(bad).D.jacobi_residual() > 1e-10

    def test_block_corruptions_break_invariance(self):
        """One bracket entry changed in each off-diagonal block of the sl4 double
        is caught by invariance_residual, which plrmat validate reports.
        build_double itself checks nothing: on the table it assembles, the
        residual is the antisymmetry defect of K and K* (test_certificates)."""
        d = build_double(derive_cobracket(*sl_n_standard(4), full_subspace(15)))
        assert d.invariance_residual() <= bounds.JACOBI
        n = d.n
        k, s = range(n), range(n, 2 * n)
        blocks = {"[K,K] -> K*": (k, k, s), "[K*,K*] -> K": (s, s, k),
                  "[K,K*] -> K": (k, s, k), "[K,K*] -> K*": (k, s, s)}
        rng = np.random.default_rng(2)
        for label, (xs, ys, zs) in blocks.items():
            i, j, m = rng.choice(xs), rng.choice(ys), rng.choice(zs)
            if i == j:
                j = (j + 1 - xs.start) % n + xs.start
            c = d.D.c.copy()
            c[i, j, m] += 1e-3
            c[j, i, m] -= 1e-3
            bad = DoubleAlgebra(LieAlgebra(c, jacobi_tol=np.inf), d.pairing, n)
            assert bad.invariance_residual() > bounds.JACOBI, label


class TestValidateSetup:
    def test_non_finite_k_basis_fails_at_once(self):
        """sl2_dj with an infinite K entry once hung in a least-squares solve."""
        parsed = parse_spec(export_entry("sl2_dj"))
        basis = parsed["K"].basis.copy()
        basis[0, 0] = np.inf
        with pytest.raises(SubspaceError, match="finite"):
            validate_setup(parsed["G"], parsed["R"], Subspace(3, basis), parsed["H"], parsed["M"])

    def test_sl2_cartan_setup_valid(self):
        s = validate_setup(
            sl2(),
            r_dj_sl2(),
            full_subspace(3),
            Subspace(3, np.array([[1.0, 0, 0]])),
            Subspace(3, np.array([[0.0, 1.0, 0], [0.0, 0, 1.0]])),
        )
        assert s.dim_H == 1 and s.dim_M == 2
        r1, r2 = s.closure_pairing_residuals()
        assert max(r1, r2) <= 1e-10
        # dual bases pair canonically
        np.testing.assert_allclose(s.Hdual @ s.H_in_K.T, np.eye(1), atol=1e-12)
        np.testing.assert_allclose(s.Mdual @ s.M_in_K.T, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(s.Hdual @ s.M_in_K.T, 0.0, atol=1e-12)

    def test_trivial_reduction_h_equals_k(self):
        s = validate_setup(
            sl2(),
            r_dj_sl2(),
            full_subspace(3),
            full_subspace(3),
            Subspace(3, np.zeros((0, 3))),
        )
        assert s.dim_M == 0
        assert s.sub_double.dim == 6

    def test_nilpotent_line_fails_reductivity(self):
        with pytest.raises(ReductivityError):
            validate_setup(
                sl2(),
                r_dj_sl2(),
                full_subspace(3),
                Subspace(3, np.array([[0.0, 1.0, 0.0]])),  # span{e}
                Subspace(3, np.array([[1.0, 0, 0], [0.0, 0, 1.0]])),  # span{h, f}
            )

    def test_wrong_dimension_split_rejected(self):
        with pytest.raises(DecompositionError):
            validate_setup(
                sl2(),
                r_dj_sl2(),
                full_subspace(3),
                Subspace(3, np.array([[1.0, 0, 0]])),
                Subspace(3, np.array([[0.0, 1.0, 0]])),
            )

    def test_h_not_closed_rejected(self):
        # [e, f] = h leaves span{e, f}
        with pytest.raises(SubalgebraError, match="H is not closed"):
            validate_setup(
                sl2(),
                r_dj_sl2(),
                full_subspace(3),
                Subspace(3, np.array([[0.0, 1.0, 0], [0.0, 0, 1.0]])),
                Subspace(3, np.array([[1.0, 0, 0]])),
            )

    def test_h_row_outside_k_rejected(self):
        borel = Subspace(3, np.array([[1.0, 0, 0], [0.0, 1.0, 0]]))  # span{h, e}
        with pytest.raises(DecompositionError, match="H basis"):
            validate_setup(
                sl2(),
                r_dj_sl2(),
                borel,
                Subspace(3, np.array([[0.0, 0, 1.0]])),
                Subspace(3, np.array([[0.0, 1.0, 0]])),
            )

    def test_m_row_outside_k_rejected(self):
        borel = Subspace(3, np.array([[1.0, 0, 0], [0.0, 1.0, 0]]))
        with pytest.raises(DecompositionError, match="M basis"):
            validate_setup(
                sl2(),
                r_dj_sl2(),
                borel,
                Subspace(3, np.array([[1.0, 0, 0]])),
                Subspace(3, np.array([[0.0, 0, 1.0]])),
            )

    def test_dependent_split_of_right_dimension_rejected(self):
        # dim H + dim M = 3, but h + e lies in span{h, e}
        with pytest.raises(DecompositionError, match="does not span K"):
            validate_setup(
                sl2(),
                r_dj_sl2(),
                full_subspace(3),
                Subspace(3, np.array([[1.0, 0, 0]])),
                Subspace(3, np.array([[0.0, 1.0, 0], [1.0, 1.0, 0]])),
            )

    def test_wrong_ambient_dimension_rejected(self):
        with pytest.raises(InputShapeError, match="H must be"):
            validate_setup(
                sl2(),
                r_dj_sl2(),
                full_subspace(3),
                Subspace(2, np.array([[1.0, 0]])),
                Subspace(3, np.array([[0.0, 1.0, 0], [0.0, 0, 1.0]])),
            )

    def test_sub_double_of_cartan_is_abelian_for_sl2(self):
        s = validate_setup(
            sl2(),
            r_dj_sl2(),
            full_subspace(3),
            Subspace(3, np.array([[1.0, 0, 0]])),
            Subspace(3, np.array([[0.0, 1.0, 0], [0.0, 0, 1.0]])),
        )
        assert s.sub_double.dim == 2
        assert np.max(np.abs(s.sub_double.D.c)) <= 1e-12
        assert s.sub_double.invariance_residual() <= 1e-10

    def test_sub_double_matches_independently_derived_double(self):
        # extracting H + H* from the big double must reproduce the double
        # built directly from the bialgebra of H (same R, same conventions)
        s = validate_setup(
            sl2(),
            r_dj_sl2(),
            full_subspace(3),
            Subspace(3, np.array([[1.0, 0, 0]])),
            Subspace(3, np.array([[0.0, 1.0, 0], [0.0, 0, 1.0]])),
        )
        own = build_double(derive_cobracket(s.G, s.R, s.H_embed))
        np.testing.assert_allclose(own.D.c, s.sub_double.D.c, atol=1e-12)
        np.testing.assert_allclose(own.pairing, s.sub_double.pairing, atol=1e-14)

    def test_one_jacobiator_is_evaluated_that_of_kstar(self, monkeypatch):
        """K, the double and the sub-double are certified without a Jacobiator."""
        parsed = parse_spec(export_entry("sl3_dj_levi"))
        seen = []
        original = LieAlgebra.jacobi_residual

        def counted(self):
            seen.append(self)
            return original(self)

        monkeypatch.setattr(LieAlgebra, "jacobi_residual", counted)
        S = validate_setup(*(parsed[k] for k in ("G", "R", "K", "H", "M")))
        assert len(seen) == 1 and seen[0] is S.bialgebra.Kstar

    def test_component_splitting(self):
        s = validate_setup(
            sl2(),
            r_dj_sl2(),
            full_subspace(3),
            Subspace(3, np.array([[1.0, 0, 0]])),
            Subspace(3, np.array([[0.0, 1.0, 0], [0.0, 0, 1.0]])),
        )
        v = np.array([2.0, 3.0, -1.0])  # 2h + 3e - f in K coordinates
        np.testing.assert_allclose(s.M_component(v), [3.0, -1.0], atol=1e-12)
        a = np.array([0.5, 1.0, 2.0])  # dual coordinates
        np.testing.assert_allclose(s.Mstar_component(a), [1.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(s.Hstar_component(a), [0.5], atol=1e-12)


class TestDistinctDiagnostics:
    """Each hypothesis failure carries its own error type, on real inputs."""

    def gl2(self):
        # sl2 plus a central generator z, basis (h, e, f, z)
        c = np.zeros((4, 4, 4))
        c[0, 1, 1], c[1, 0, 1] = 2.0, -2.0
        c[0, 2, 2], c[2, 0, 2] = -2.0, 2.0
        c[1, 2, 0], c[2, 1, 0] = 1.0, -1.0
        return LieAlgebra(c)

    def test_central_mixing_r_breaks_dual_subalgebra(self):
        # R = h∧e/2 + z∧e has an invariant anomaly (rank-one trivector space),
        # and its dual bracket sends h*∧z* onto f*, so ann(M) for M = {e, f}
        # is not closed even though H = {h, z} is reductive
        g = self.gl2()
        r = np.zeros((4, 4))
        r[0, 1], r[1, 0] = 0.5, -0.5
        r[3, 1], r[1, 3] = 1.0, -1.0
        from plrmat.lie_core import cybe_lhs, invariance_residual3

        anomaly = cybe_lhs(g, r)
        assert invariance_residual3(g, anomaly) <= 1e-12 * (1.0 + np.max(np.abs(anomaly)))
        from plrmat.errors import DualSubalgebraError

        with pytest.raises(DualSubalgebraError):
            validate_setup(
                g,
                r,
                Subspace(4, np.eye(4)),
                Subspace(4, np.eye(4)[[0, 3]]),
                Subspace(4, np.eye(4)[[1, 2]]),
            )

    def test_long_root_subalgebra_fails_ideal_condition(self):
        # the rank-one subalgebra through the highest root of sl3 misses the
        # Cartan directions needed for ann(H) to be an ideal of the dual
        from plrmat.errors import IdealError

        g, R = sl3_dj()
        e8 = np.eye(8)
        h_rows = np.array([e8[0] + e8[1], e8[4], e8[7]])
        m_rows = np.array([e8[0] - e8[1], e8[2], e8[3], e8[5], e8[6]])
        with pytest.raises(IdealError):
            validate_setup(
                g,
                R,
                Subspace(8, e8),
                Subspace(8, h_rows),
                Subspace(8, m_rows),
            )


def ref_cocycle_residual(B):
    """The cocycle residual one basis pair at a time."""
    n = B.K.dim
    eye = np.eye(n)
    ads = [B.K.ad_matrix(eye[i]) for i in range(n)]
    worst = 0.0
    for i in range(n):
        for j in range(n):
            lhs = np.einsum("k,kab->ab", B.K.bracket(eye[i], eye[j]), B.cobracket)
            di, dj = B.cobracket[i], B.cobracket[j]
            rhs = (ads[i] @ dj + dj @ ads[i].T) - (ads[j] @ di + di @ ads[j].T)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def ref_closure_pairing_residuals(S):
    """<<[H_a, H^b], M_i>> and <<[H_a, H^b], M^i>> one triple at a time."""
    dd = S.double
    r1 = r2 = 0.0
    for a in range(S.dim_H):
        for b in range(S.dim_H):
            br = dd.D.bracket(dd.embed_K(S.H_in_K[a]), dd.embed_Kstar(S.Hdual[b]))
            for i in range(S.dim_M):
                r1 = max(r1, abs(dd.pair(br, dd.embed_K(S.M_in_K[i]))))
                r2 = max(r2, abs(dd.pair(br, dd.embed_Kstar(S.Mdual[i]))))
    return r1, r2


class TestBlockedResidualsMatchLoops:
    """The residuals computed as block products against their loop form."""

    def test_cocycle_residual(self):
        from plrmat.catalog import get_entry, list_entries

        rng = np.random.default_rng(4)
        for name in list_entries():
            B = get_entry(name).setup().bialgebra
            assert B.cocycle_residual() == pytest.approx(ref_cocycle_residual(B), abs=1e-14)
        for name in ("sl2_dj", "sl3_dj_levi"):
            B = get_entry(name).setup().bialgebra
            # an antisymmetric cobracket that is no cocycle, admitted unchecked
            cb = rng.normal(size=B.cobracket.shape)
            bad = object.__new__(Bialgebra)
            object.__setattr__(bad, "K", B.K)
            object.__setattr__(bad, "cobracket", cb - np.swapaxes(cb, 1, 2))
            want = ref_cocycle_residual(bad)
            assert want > 1.0
            assert abs(bad.cocycle_residual() - want) <= 1e-12 * want

    def test_cocycle_residual_over_pairs_j_above_i(self):
        """The pairs j > i give the maximum over all pairs: every catalog
        entry, generated sl4, and a cobracket corrupted at 1e-6 without
        antisymmetrising it, whose defect is still antisymmetric in (i, j)."""
        from plrmat.catalog import get_entry, list_entries

        rng = np.random.default_rng(11)
        algebras = [get_entry(name).setup().bialgebra for name in list_entries()]
        algebras.append(derive_cobracket(*sl_n_standard(4), full_subspace(15)))
        for B in algebras:
            assert B.cocycle_residual() == pytest.approx(ref_cocycle_residual(B), abs=1e-14)
            bad = object.__new__(Bialgebra)
            object.__setattr__(bad, "K", B.K)
            object.__setattr__(bad, "cobracket", B.cobracket + 1e-6 * rng.normal(size=B.cobracket.shape))
            want = ref_cocycle_residual(bad)
            # on an abelian K every cobracket is a cocycle
            assert want > 1e-7 or not np.any(B.K.c)
            assert abs(bad.cocycle_residual() - want) <= 1e-12 * want

    def test_cocycle_residual_keeps_nan(self):
        """Products past the float range make a NaN defect, which the dense
        loop keeps as its maximum."""
        from plrmat.bialgebra_double import _cocycle_dense

        B = derive_cobracket(sl2(), r_dj_sl2(), full_subspace(3))
        with np.errstate(over="ignore", invalid="ignore"):
            got = _cocycle_dense(B.K.c * 1e200, B.cobracket * 1e200)
        assert np.isnan(got)

    def test_closure_pairing_residuals(self):
        import dataclasses

        from plrmat.catalog import get_entry

        S = get_entry("sl3_dj_levi").setup()
        assert S.closure_pairing_residuals() == pytest.approx(
            ref_closure_pairing_residuals(S), abs=1e-14
        )
        # H rows that are no subalgebra, with their sub-double rows to match
        rng = np.random.default_rng(8)
        p, n = S.dim_H, S.n
        h, hd = rng.normal(size=(p, n)), rng.normal(size=(p, n))
        rows = np.zeros((2 * p, 2 * n))
        rows[:p, :n], rows[p:, n:] = h, hd
        bad = dataclasses.replace(S, H_in_K=h, Hdual=hd, sub_embed=rows)
        got, want = bad.closure_pairing_residuals(), ref_closure_pairing_residuals(bad)
        assert min(want) > 1e-3
        np.testing.assert_allclose(got, want, rtol=1e-12)
