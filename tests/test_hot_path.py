"""The per-point hot path against the solve-per-vector formulas it replaced.

ReductionSetup's component maps, constraint_matrix, rho and the N_i family
(n_vectors, rho_via_n and the inverse-operator and characterization
residuals) are products with matrices the setup holds.  The references below
are the original formulation: every component is a vstack of the two bases
and a linear solve, one basis vector at a time.  They are compared on every
catalog entry at its certified sample points, and on a setup whose K, H and
M bases are all skewed, so no map reduces to a selection of coordinates.
"""

import numpy as np
import pytest

from plrmat import catalog
from plrmat.bialgebra_double import validate_setup
from plrmat.catalog import _dj_r, export_entry, get_entry, list_entries, sl3_algebra
from plrmat.lie_core import LieAlgebra, Subspace
from plrmat.reduction import (
    characterization_identity_residual,
    constraint_inverse_operator_residual,
    constraint_matrix,
    n_vectors,
    rho,
    rho_via_n,
    sample_hstar_points,
)
from plrmat.specio import parse_spec
from plrmat.verify import (
    EQ_CONTROL,
    EQ_PLCDYBE,
    EQ_TRIANGULARITY,
    largest_entry,
    plcdybe_residual,
    reduced_r_function,
    run_suite,
    sign_flipped_rfun,
    triangularity_check,
)


def ref_M_component(S, vK):
    w = np.vstack([S.H_in_K, S.M_in_K])
    return np.linalg.solve(w.T, vK)[S.dim_H :]


def ref_Mstar_component(S, aK):
    d = np.vstack([S.Hdual, S.Mdual])
    return np.linalg.solve(d.T, aK)[S.dim_H :]


def ref_Hstar_component(S, aK):
    d = np.vstack([S.Hdual, S.Mdual])
    return np.linalg.solve(d.T, aK)[: S.dim_H]


def ref_constraint_matrix(S, word):
    """Both pairing forms of C and the moved M-parts, one vector at a time."""
    d = S.double
    m = S.dim_M
    m_parts = np.zeros((m, S.n))
    kstar_parts = np.zeros((m, S.n))
    mstar_coords = np.zeros((m, m))
    for i in range(m):
        v = word.ad @ d.embed_K(S.M_in_K[i])
        m_parts[i] = ref_M_component(S, d.comp_K(v)) @ S.M_in_K
        kstar_parts[i] = d.comp_Kstar(v)
        mstar_coords[i] = ref_Mstar_component(S, kstar_parts[i])
    c_a = np.zeros((m, m))
    c_b = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            c_a[i, j] = (mstar_coords[j] @ S.Mdual) @ m_parts[i]
            c_b[i, j] = m_parts[i] @ kstar_parts[j]
    return c_a, c_b, m_parts


def ref_rho(S, word):
    c_a, _, m_parts = ref_constraint_matrix(S, word)
    if S.dim_M == 0:
        return np.zeros((S.G.dim, S.G.dim))
    a_g = np.array([S.K_to_G(v) for v in m_parts])
    return a_g.T @ np.linalg.solve(c_a, a_g)


def skewed_levi_setup():
    """sl3 with the gl2-type H, every basis a random recombination."""
    rng = np.random.default_rng(5)
    e8 = np.eye(8)

    def mix(rows):
        k = len(rows)
        return (np.eye(k) + 0.4 * rng.uniform(-1, 1, (k, k))) @ e8[rows]

    return validate_setup(
        sl3_algebra(),
        _dj_r(8, ((2, 5), (3, 6), (4, 7))),
        Subspace(8, mix(list(range(8)))),
        Subspace(8, mix([0, 1, 2, 5])),
        Subspace(8, mix([3, 4, 6, 7])),
    )


def catalog_cases():
    for name in list_entries():
        e = get_entry(name)
        S = e.setup()
        yield name, S, sample_hstar_points(S, e.num_points, e.seed, 1.0, e.cond_threshold)
    S = skewed_levi_setup()
    yield "skewed_levi", S, sample_hstar_points(S, 4, 2)


CASES = list(catalog_cases())
IDS = [c[0] for c in CASES]


def _close(got, want, rtol=1e-11):
    scale = 1.0 + float(np.max(np.abs(want), initial=0.0))
    np.testing.assert_allclose(got, want, rtol=0, atol=rtol * scale)


@pytest.mark.parametrize("name,S,words", CASES, ids=IDS)
def test_component_maps_match_solves(name, S, words):
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = rng.uniform(-2, 2, S.n)
        _close(S.M_component(v), ref_M_component(S, v))
        _close(S.Mstar_component(v), ref_Mstar_component(S, v))
        _close(S.Hstar_component(v), ref_Hstar_component(S, v))


def test_skewed_setup_is_not_coordinate_rows():
    S = skewed_levi_setup()
    for a in (S.H_in_K, S.M_in_K, S.Hdual, S.Mdual):
        assert np.count_nonzero(np.abs(a) > 1e-12) > a.shape[0]


@pytest.mark.parametrize("name,S,words", CASES, ids=IDS)
def test_constraint_matrix_matches_reference(name, S, words):
    for w in words:
        C = constraint_matrix(S, w)
        c_a, c_b, m_parts = ref_constraint_matrix(S, w)
        _close(C.entries, c_a)
        _close(C.entries, c_b)
        _close(C.m_parts, m_parts)


@pytest.mark.parametrize("name,S,words", CASES, ids=IDS)
def test_rho_matches_reference(name, S, words):
    for w in words:
        _close(rho(S, w).coeffs, ref_rho(S, w), rtol=1e-10)


def ref_n_vectors(S, word):
    """N_i one dual basis vector at a time: m solves against the moved basis."""
    d = S.double
    m = S.dim_M
    inv_ad = np.linalg.inv(word.ad)
    e_mat = np.zeros((m, m))
    for j in range(m):
        moved = inv_ad @ d.embed_K(S.M_in_K[j])
        e_mat[:, j] = ref_Mstar_component(S, d.comp_Kstar(moved))
    out = []
    for i in range(m):
        target = inv_ad @ d.embed_Kstar(S.Mdual[i])
        beta = ref_Mstar_component(S, d.comp_Kstar(target))
        out.append(np.linalg.solve(e_mat, beta) @ S.M_in_K)
    return out


def ref_rho_via_n(S, word):
    dim_g = S.G.dim
    a = np.zeros((dim_g, dim_g))
    for i, n_i in enumerate(ref_n_vectors(S, word)):
        a -= np.outer(S.K_to_G(n_i), S.K_to_G(S.M_in_K[i]))
    return a


def ref_inverse_operator_residual(S, word):
    c_a, _, m_parts = ref_constraint_matrix(S, word)
    ns = ref_n_vectors(S, word)
    worst = 0.0
    for k in range(S.dim_M):
        pair_vec = np.array([S.Mdual[k] @ m_parts[j] for j in range(S.dim_M)])
        image = np.linalg.solve(c_a, pair_vec) @ m_parts
        worst = max(worst, float(np.max(np.abs(image + ns[k]))))
    return worst


def ref_characterization_residuals(S, word, us, vs):
    """One residual per (u, v) pair, every pairing taken in the double."""
    d = S.double
    inv_ad = np.linalg.inv(word.ad)
    ns = ref_n_vectors(S, word)

    def moved(x_k):
        return inv_ad @ d.embed_K(x_k)

    def m_part(w_vec):
        return d.embed_K(ref_M_component(S, d.comp_K(w_vec)) @ S.M_in_K)

    out = []
    for u, v in zip(us, vs):
        mu, mv = moved(u), moved(v)
        lhs = d.pair(m_part(mu), mv)
        rhs = sum(
            d.pair(m_part(mu), moved(S.M_in_K[i])) * d.pair(m_part(mv), moved(ns[i]))
            for i in range(S.dim_M)
        )
        out.append(abs(lhs - rhs))
    return out


N_CASES = [c for c in CASES if c[0] in ("sl3_dj_levi", "skewed_levi")]


@pytest.mark.parametrize("name,S,words", N_CASES, ids=[c[0] for c in N_CASES])
def test_n_family_matches_reference(name, S, words):
    rng = np.random.default_rng(19)
    for w in words:
        ns, want = n_vectors(S, w), ref_n_vectors(S, w)
        assert len(ns) == len(want) == S.dim_M
        for got, ref in zip(ns, want):
            _close(got, ref, rtol=1e-12)
        _close(rho_via_n(S, w).coeffs, ref_rho_via_n(S, w), rtol=1e-12)
        got = constraint_inverse_operator_residual(S, w)
        assert abs(got - ref_inverse_operator_residual(S, w)) <= 1e-12
        us = rng.uniform(-1, 1, (6, S.dim_M)) @ S.M_in_K
        vs = rng.uniform(-1, 1, (6, S.dim_M)) @ S.M_in_K
        want = ref_characterization_residuals(S, w, us, vs)
        assert abs(characterization_identity_residual(S, w, us, vs) - max(want)) <= 1e-12
        for k in range(len(us)):
            got = characterization_identity_residual(S, w, us[k], vs[k])
            assert abs(got - want[k]) <= 1e-12


class TestMemoisedRfun:
    def setup_method(self):
        e = get_entry("sl3_dj_levi")
        self.S = e.setup()
        self.words = sample_hstar_points(self.S, 3, e.seed, 1.0, e.cond_threshold)

    def test_same_word_same_tensor(self):
        rfun = reduced_r_function(self.S)
        for w in self.words:
            first = rfun(w)
            assert rfun(w) is first
            np.testing.assert_array_equal(first.coeffs, rho(self.S, w).coeffs)

    def test_distinct_word_objects_are_evaluated_apart(self):
        rfun = reduced_r_function(self.S)
        w = self.words[0]
        twin = w.right_mul(np.eye(self.S.double.dim))
        assert twin is not w
        assert rfun(twin) is not rfun(w)
        np.testing.assert_array_equal(rfun(twin).coeffs, rfun(w).coeffs)

    def test_control_still_fails_and_leaves_memo_intact(self):
        S = self.S
        rfun = reduced_r_function(S)
        w = self.words[0]
        clean = np.array(rfun(w).coeffs)
        a, b = largest_entry(rfun(w))
        bad = sign_flipped_rfun(rfun, int(a), int(b))
        assert plcdybe_residual(S, bad, w, 1e-5).norm() >= 1e-2
        np.testing.assert_array_equal(rfun(w).coeffs, clean)
        assert plcdybe_residual(S, rfun, w, 1e-5).norm() <= 1e-6


@pytest.mark.parametrize("name", ["sl2_dj", "sl3_dj_cartan"])
def test_cdybe_suite_control_and_triangularity(name):
    e = get_entry(name)
    S = e.setup()
    reports = {
        r.equation_id: r
        for r in run_suite(S, "cdybe", num_points=3, seed=e.seed,
                           cond_threshold=e.cond_threshold)[0]
    }
    control = reports[EQ_CONTROL]
    assert control.passed and control.max_residual >= control.tolerance
    assert reports[EQ_PLCDYBE].passed
    # TRIANGULARITY is reported from the PL_CDYBE residuals; it must equal
    # what the public check computes on its own
    rfun = reduced_r_function(S, None, e.cond_threshold)
    words = sample_hstar_points(S, 3, e.seed, 1.0, e.cond_threshold)
    want = [triangularity_check(S, rfun, w, 1e-5) for w in words]
    assert [r for _, r in reports[EQ_TRIANGULARITY].per_point] == want
    assert reports[EQ_TRIANGULARITY].per_point == reports[EQ_PLCDYBE].per_point


def _einsum_jacobi(c):
    j = (
        np.einsum("ijm,mkl->ijkl", c, c)
        + np.einsum("jkm,mil->ijkl", c, c)
        + np.einsum("kim,mjl->ijkl", c, c)
    )
    return float(np.max(np.abs(j)))


def test_blocked_jacobi_residual_matches_einsum():
    algebras = []
    for name in list_entries():
        S = get_entry(name).setup()
        algebras += [S.G, S.bialgebra.Kstar, S.double.D, S.sub_double.D]
    for A in algebras:
        assert A.jacobi_residual() == _einsum_jacobi(A.c)
    # an antisymmetric table that is no Lie algebra, admitted by waiving the check
    rng = np.random.default_rng(3)
    c = rng.normal(size=(9, 9, 9))
    c = c - np.swapaxes(c, 0, 1)
    A = LieAlgebra(c, jacobi_tol=np.inf)
    want = _einsum_jacobi(A.c)
    assert want > 1.0
    assert abs(A.jacobi_residual() - want) <= 1e-12 * want


def test_every_export_reparses_to_its_algebra():
    for name in list_entries():
        e = get_entry(name)
        G = parse_spec(export_entry(name))["G"]
        np.testing.assert_array_equal(G.c, e.algebra().c)
        assert G.basis_labels == tuple(e.labels)


def test_export_follows_the_entry_table_not_its_dimension(monkeypatch):
    """A three-dimensional entry that is not sl2 exports its own brackets."""
    heis = catalog.CatalogEntry(
        name="heisenberg3",
        notes="Heisenberg algebra [x, y] = z",
        table=((0, 1, 2, 1.0),),
        labels=("x", "y", "z"),
        r_pairs=(),
        k_rows=[[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]],
        h_rows=[[0, 0, 1.0]],
        m_rows=[[1.0, 0, 0], [0, 1.0, 0]],
        seed=1,
        num_points=2,
    )
    monkeypatch.setitem(catalog._ENTRIES, heis.name, heis)
    G = parse_spec(export_entry(heis.name))["G"]
    np.testing.assert_array_equal(G.c, heis.algebra().c)
    np.testing.assert_array_equal(G.bracket([1.0, 0, 0], [0, 1.0, 0]), [0, 0, 1.0])
