"""The per-point hot path against the solve-per-vector formulas it replaced.

ReductionSetup's component maps, constraint_matrix, rho and the N_i family
(CMatrix.n_matrix, rho_via_n and the inverse-operator and characterization
residuals) are products with matrices the setup holds.  The references below
are the original formulation: every component is a vstack of the two bases
and a linear solve, one basis vector at a time.  They are compared on every
catalog entry at its certified sample points, and on a setup whose K, H and
M bases are all skewed, so no map reduces to a selection of coordinates.
"""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from plrmat import catalog, cli, reduction
from plrmat.bialgebra_double import DoubleAlgebra, validate_setup
from plrmat.catalog import (
    export_entry,
    get_entry,
    list_entries,
    structure_constants_from_table,
)
from plrmat.dual_group import (
    StepCache,
    dressing_vector,
    gradients,
    left_derivative,
    right_derivative,
)
from plrmat.errors import CDegenerateError, InputShapeError
from plrmat.lie_core import LieAlgebra, Subspace, cybe_lhs, invariance_residual3
from plrmat.reduction import (
    characterization_identity_residual,
    constraint_inverse_operator_residual,
    constraint_matrix,
    constraint_pb_check,
    dirac_bracket,
    rho,
    rho_jet,
    rho_via_n,
    sample_hstar_points,
)
from plrmat.specio import parse_spec
from plrmat.verify import (
    EQ_CONTROL,
    EQ_PLCDYBE,
    EQ_TRIANGULARITY,
    PPoint,
    QFunction,
    QPoint,
    ambient_word,
    dual_entry,
    g_entry,
    hat_entry,
    largest_entry,
    p_jacobi_residual,
    plcdybe_lhs,
    plcdybe_residual,
    q_jacobi_residual,
    reduced_r_function,
    run_suite,
    sign_flipped_rfun,
    tilde_entry,
    triangularity_check,
)

from test_lie_core import sl3_dj
from test_reduction import pair_gradients, row_gradients


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
        m_parts[i] = ref_M_component(S, v[: d.n]) @ S.M_in_K
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


def ref_sub_double_c(S):
    """The sub-double's structure constants by least squares of each bracket of
    the rows of H + H* against those rows, one bracket at a time."""
    rows = S.sub_embed
    q = rows.shape[0]
    c = np.zeros((q, q, q))
    for a in range(q):
        for b in range(q):
            br = S.double.D.bracket(rows[a], rows[b])
            c[a, b] = np.linalg.lstsq(rows.T, br, rcond=None)[0]
    return c


def skewed_levi_setup():
    """sl3 with the gl2-type H, every basis a random recombination."""
    rng = np.random.default_rng(5)
    e8 = np.eye(8)

    def mix(rows):
        k = len(rows)
        return (np.eye(k) + 0.4 * rng.uniform(-1, 1, (k, k))) @ e8[rows]

    return validate_setup(
        *sl3_dj(),
        Subspace(8, mix(list(range(8)))),
        Subspace(8, mix([0, 1, 2, 5])),
        Subspace(8, mix([3, 4, 6, 7])),
    )


def catalog_cases():
    for name in list_entries():
        e = get_entry(name)
        S = e.setup()
        yield name, S, sample_hstar_points(S, e.num_points, e.seed)
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


@pytest.mark.parametrize("name,S,words", CASES, ids=IDS)
def test_sub_double_matches_least_squares(name, S, words):
    np.testing.assert_allclose(S.sub_double.D.c, ref_sub_double_c(S), rtol=0, atol=1e-12)


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
        _close(rho(S, w), ref_rho(S, w), rtol=1e-10)


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
        return d.embed_K(ref_M_component(S, w_vec[: d.n]) @ S.M_in_K)

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
        ns, want = constraint_matrix(S, w).n_matrix, ref_n_vectors(S, w)
        assert len(ns) == len(want) == S.dim_M
        for got, ref in zip(ns, want):
            _close(got, ref, rtol=1e-12)
        _close(rho_via_n(S, [w])[0], ref_rho_via_n(S, w), rtol=1e-12)
        (got,) = constraint_inverse_operator_residual(S, [w])
        assert abs(got - ref_inverse_operator_residual(S, w)) <= 1e-12
        us = rng.uniform(-1, 1, (6, S.dim_M)) @ S.M_in_K
        vs = rng.uniform(-1, 1, (6, S.dim_M)) @ S.M_in_K
        want = ref_characterization_residuals(S, w, us, vs)
        (got,) = characterization_identity_residual(S, [w], us[None], vs[None])
        assert abs(got - max(want)) <= 1e-12
        for k in range(len(us)):
            (got,) = characterization_identity_residual(S, [w], us[None, k:k + 1], vs[None, k:k + 1])
            assert abs(got - want[k]) <= 1e-12
        with pytest.raises(InputShapeError):
            characterization_identity_residual(S, [w], us, vs)


class TestMemoisedRfun:
    def setup_method(self):
        e = get_entry("sl3_dj_levi")
        self.S = e.setup()
        self.words = sample_hstar_points(self.S, 3, e.seed)

    def test_same_word_same_tensor(self):
        rfun = reduced_r_function(self.S)
        for w in self.words:
            first = rfun(w)
            assert rfun(w) is first
            np.testing.assert_array_equal(first.value, rho(self.S, w))

    def test_distinct_word_objects_are_evaluated_apart(self):
        rfun = reduced_r_function(self.S)
        w = self.words[0]
        twin = w.right_mul(np.eye(self.S.double.dim))
        assert twin is not w
        assert rfun(twin) is not rfun(w)
        np.testing.assert_array_equal(rfun(twin).value, rfun(w).value)
        np.testing.assert_array_equal(rfun(twin).left, rfun(w).left)

    def test_control_still_fails_and_leaves_memo_intact(self):
        S = self.S
        rfun = reduced_r_function(S)
        w = self.words[0]
        clean = rfun(w)
        kept = [np.array(t) for t in (clean.value, clean.left, clean.right)]
        a, b = largest_entry(clean.value)
        bad = sign_flipped_rfun(rfun, int(a), int(b))
        # the value and both derivatives are flipped together
        for got, want in zip((bad(w).value, bad(w).left, bad(w).right), kept):
            np.testing.assert_array_equal(got[..., a, b], -want[..., a, b])
            np.testing.assert_array_equal(got[..., b, a], -want[..., b, a])
        assert np.max(np.abs(plcdybe_residual(S, bad, w))) >= 1e-2
        assert rfun(w) is clean
        for got, want in zip((clean.value, clean.left, clean.right), kept):
            np.testing.assert_array_equal(got, want)
        assert np.max(np.abs(plcdybe_residual(S, rfun, w))) <= 1e-12


@pytest.mark.parametrize("name", ["sl2_dj", "sl3_dj_cartan"])
def test_cdybe_suite_control_and_triangularity(name):
    e = get_entry(name)
    S = e.setup()
    reports = {
        r.equation_id: r
        for r in run_suite(S, "cdybe", num_points=3, seed=e.seed)[0]
    }
    control = reports[EQ_CONTROL]
    assert control.passed and control.max_residual >= control.tolerance
    assert reports[EQ_PLCDYBE].passed
    # TRIANGULARITY shares the left side of each point with PL_CDYBE; it
    # must equal what the public check computes on its own, against the
    # first sample point
    rfun = reduced_r_function(S)
    words = sample_hstar_points(S, 3, e.seed)
    want = [triangularity_check(S, rfun, w, ref=words[0]) for w in words]
    assert [r for _, r in reports[EQ_TRIANGULARITY].per_point] == want
    assert reports[EQ_TRIANGULARITY].passed
    assert reports[EQ_TRIANGULARITY].max_residual <= 1e-12


def test_skewed_setup_passes_every_suite():
    """Under skewed bases the differential equations sit at roundoff.

    With finite differences of rho, PL_CDYBE and TRIANGULARITY failed here at
    6.2e-5 against 1e-6 through truncation.
    """
    reports, _ = run_suite(skewed_levi_setup(), "all", num_points=4, seed=2)
    for r in reports:
        assert r.passed, (r.equation_id, r.max_residual)
        if r.direction == "upper":
            assert r.max_residual <= 1e-10, (r.equation_id, r.max_residual)


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


def _orbit_cases():
    """Tables for the one-product-per-orbit Jacobiator, with a scale for each.

    A dense change of basis of sl3_dj_levi's double is a Lie algebra, so its
    residual is roundoff and is compared at the size of the summed products
    (the Jacobiator of |c|).  The other tables are no Lie algebras and are
    compared at their own residual: one antisymmetric only to 1e-13, and the
    double with one diagonal entry corrupted at the first and at the last
    index.  A loop that skips the first or the last i, or drops j = i, then
    misses part of the Jacobiator and fails the comparison.
    """
    rng = np.random.default_rng(11)
    c = get_entry("sl3_dj_levi").setup().double.D.c
    d = c.shape[0]
    q = rng.normal(size=(d, d))
    dense = np.einsum("ia,jb,abm,mk->ijk", q, q, c, np.linalg.inv(q), optimize=True)
    yield "dense basis", dense, _einsum_jacobi(np.abs(dense))
    t = rng.normal(size=(9, 9, 9))
    e = 1e-13 * rng.normal(size=(9, 9, 9))
    t = t - np.swapaxes(t, 0, 1) + e + np.swapaxes(e, 0, 1)
    yield "antisymmetric to 1e-13", t, _einsum_jacobi(t)
    for idx in ((0, 0, 0), (d - 1, d - 1, d - 1)):
        bad = c.copy()
        bad[idx] += 1.0
        yield f"corrupted at {idx}", bad, _einsum_jacobi(bad)


def test_orbit_jacobi_residual_matches_einsum():
    eps = np.finfo(float).eps
    for label, c, scale in _orbit_cases():
        A = LieAlgebra(c, antisym_tol=np.inf, jacobi_tol=np.inf)
        got, want = A.jacobi_residual(), _einsum_jacobi(c)
        assert want > 0.0, label
        assert abs(got - want) <= 4 * eps * scale, (label, got, want)


def test_jacobi_residual_holds_no_dim4_array():
    rng = np.random.default_rng(5)
    d = 48
    c = rng.normal(size=(d, d, d))
    A = LieAlgebra(c - np.swapaxes(c, 0, 1), jacobi_tol=np.inf)
    tracemalloc.start()
    try:
        A.jacobi_residual()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two reused dim³ buffers; one dim⁴ array would be 48 times this bound
    assert peak < 3 * d**3 * 8


def ref_double_invariance(c, p):
    """The einsum pair that the two products with the pairing replaced."""
    t = np.einsum("zak,kb->zab", c, p) + np.einsum("ak,zbk->zab", p, c)
    return float(np.max(np.abs(t)))


def test_double_invariance_matches_einsum():
    rng = np.random.default_rng(12)
    for name in list_entries():
        S = get_entry(name).setup()
        for D in (S.double, S.sub_double):
            # exact: each entry of the 0/1 canonical pairing picks one constant
            assert D.invariance_residual() == ref_double_invariance(D.D.c, D.pairing)
        # a non-symmetric pairing tells p from pᵀ
        p = rng.normal(size=(S.double.dim, S.double.dim))
        skew = DoubleAlgebra(D=S.double.D, pairing=p, n=S.double.n)
        want = ref_double_invariance(S.double.D.c, p)
        if S.double.D.c.any():
            assert want > 1.0
        assert abs(skew.invariance_residual() - want) <= 1e-13 * (1.0 + want)


def ref_mixed_bracket_terms(c, s, t, slot_pair):
    """The three-operand einsums the reshaped products replaced."""
    spec = {"12_13": "ay,cz,acx->xyz", "12_23": "xb,cz,bcy->xyz", "13_23": "xb,yd,bdz->xyz"}
    return np.einsum(spec[slot_pair], s, t, c)


def ref_invariance_residual3(c, t):
    """ad_{e_i} on each slot by an einsum, one basis vector i at a time."""
    worst = 0.0
    for i in range(c.shape[0]):
        m = c[i].T  # ad_{e_i}
        acted = (
            np.einsum("xa,ayz->xyz", m, t)
            + np.einsum("ya,xaz->xyz", m, t)
            + np.einsum("za,xya->xyz", m, t)
        )
        worst = max(worst, float(np.max(np.abs(acted))))
    return worst


def _tensor_cases():
    """Every catalog G and double, with distinct non-antisymmetric tensors."""
    rng = np.random.default_rng(8)
    for name in list_entries():
        S = get_entry(name).setup()
        for A in (S.G, S.double.D):
            d = A.dim
            yield A, rng.normal(size=(d, d)), rng.normal(size=(d, d)), rng.normal(size=(d, d, d))


def test_mixed_bracket_terms_match_einsum():
    # cybe_lhs is the sum of the three mixed bracket terms of one tensor
    for A, s, _, _ in _tensor_cases():
        want = sum(ref_mixed_bracket_terms(A.c, s, s, p) for p in ("12_13", "12_23", "13_23"))
        _close(cybe_lhs(A, s), want, rtol=1e-13)


def test_invariance_residual3_matches_einsum():
    for A, _, _, t in _tensor_cases():
        want = ref_invariance_residual3(A.c, t)
        if A.c.any():  # abelian2 and its double annihilate everything
            assert want > 1.0
        assert abs(invariance_residual3(A, t) - want) <= 1e-13 * (1.0 + want)


def test_every_export_reparses_to_its_algebra():
    for name in list_entries():
        e = get_entry(name)
        G = parse_spec(export_entry(name))["G"]
        want = structure_constants_from_table(len(e.labels), e.table)
        np.testing.assert_array_equal(G.c, want)
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
    np.testing.assert_array_equal(G.c, structure_constants_from_table(3, heis.table))
    np.testing.assert_array_equal(G.bracket([1.0, 0, 0], [0, 1.0, 0]), [0, 0, 1.0])


# ---------------------------------------------------------------------------
# exact derivatives against the finite differences they replaced
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,S,words", CASES, ids=IDS)
def test_rho_jet_matches_central_difference(name, S, words):
    """The jet's derivatives are the limit of central differences of rho.

    Where the truncation shows, halving the step divides the gap by four;
    where it does not (abelian2), both sides vanish.
    """
    for w in words[:2]:
        jet = rho_jet(S, w)
        for a, xi in enumerate(S.Hdual):
            for derivative, exact in ((left_derivative, jet.left[a]), (right_derivative, jet.right[a])):
                gaps = [
                    float(np.max(np.abs(derivative(w, xi, lambda v: rho(S, v), h) - exact)))
                    for h in (1e-3, 5e-4)
                ]
                if gaps[0] <= 1e-10:
                    assert gaps[1] <= 1e-10
                else:
                    assert 3.5 <= gaps[0] / gaps[1] <= 4.5, gaps


def _fd_steps(S, h):
    """StepCaches at step h over the basis of G and over the H* basis in D(K, K*)."""
    return StepCache(S.G, h, np.eye(S.G.dim)), StepCache(S.double, h, S.Hdual)


def _fd_gradients(u, pt, slot, steps):
    """Left and right gradients of u along one factor by central differences."""
    cache = steps[0] if slot == "g" else steps[1]
    put = lambda w: dataclasses.replace(pt, **{slot: w})  # noqa: E731
    return gradients(getattr(pt, slot), lambda w: u(put(w)), cache.h, cache)


def ref_fd_bracket(S, pt, u, v, steps):
    """The bracket ansatz with every slot gradient a central difference.

    This is the formulation the exact jets replaced, block by block; u and v
    are any scalar functions of a QPoint or PPoint, and steps come from
    _fd_steps.
    """
    n = S.n
    R = S.R

    def r(w):
        return rho(S, w)

    def to_g(vh):
        return S.K_to_G(vh @ S.H_in_K)

    def dual_block(lam, gu, gpv):
        return (gu @ S.H_in_K) @ lam.ad[n:, :n] @ (gpv @ S.H_in_K)

    gu, gpu = _fd_gradients(u, pt, "g", steps)
    gv, gpv = _fd_gradients(v, pt, "g", steps)
    if isinstance(pt, QPoint):
        du, _ = _fd_gradients(u, pt, "dual", steps)
        dv, dpv = _fd_gradients(v, pt, "dual", steps)
        val = dual_block(pt.dual, du, dpv) + gpu @ to_g(dv) - gpv @ to_g(du)
        return float(val + gpu @ (R + r(pt.dual)) @ gpv - gu @ R @ gv)
    hu, _ = _fd_gradients(u, pt, "hat", steps)
    hv, hpv = _fd_gradients(v, pt, "hat", steps)
    tu, _ = _fd_gradients(u, pt, "tilde", steps)
    tv, tpv = _fd_gradients(v, pt, "tilde", steps)
    val = dual_block(pt.hat, hu, hpv) - dual_block(pt.tilde, tu, tpv)
    val += gpu @ to_g(hv) - gpv @ to_g(hu) + gu @ to_g(tv) - gv @ to_g(tu)
    return float(val + gpu @ (R + r(pt.hat)) @ gpv - gu @ (R + r(pt.tilde)) @ gv)


def ref_nested_jacobiator(S, pt, f1, f2, f3, h):
    """Cyclic Jacobiator with the inner bracket differenced again: O(h²)."""
    steps = _fd_steps(S, h)

    def inner(a, b):
        return lambda q: ref_fd_bracket(S, q, a, b, steps)

    return abs(
        ref_fd_bracket(S, pt, f1, inner(f2, f3), steps)
        + ref_fd_bracket(S, pt, f2, inner(f3, f1), steps)
        + ref_fd_bracket(S, pt, f3, inner(f1, f2), steps)
    )


REDUCING = [n for n in list_entries() if get_entry(n).setup().dim_M > 0]


def _jacobi_points(name):
    """The setup, its rfun, and a QPoint and PPoint at its first sample points."""
    e = get_entry(name)
    S = e.setup()
    words = sample_hstar_points(S, e.num_points, e.seed)
    rng = np.random.default_rng(e.seed)
    g = ambient_word(S.G, [rng.uniform(-0.3, 0.3, S.G.dim)])
    rfun = reduced_r_function(S)
    return e, S, words, rfun, QPoint(S, g, words[0]), PPoint(S, words[1], g, words[0])


@pytest.mark.parametrize("name", REDUCING)
def test_exact_jacobiators_match_nested_differences(name):
    """|exact − nested FD| falls about fourfold per halving of h from 2e-3."""
    e, S, _, rfun, qpt, ppt = _jacobi_points(name)
    phis = [g_entry(S, 1, 2), g_entry(S, 0, 1), g_entry(S, 2, 0)]
    for pt, exact in ((qpt, q_jacobi_residual), (ppt, p_jacobi_residual)):
        ((want,),) = exact(S, rfun, [pt], [[phis]])
        assert want <= 1e-12
        gaps = [
            abs(ref_nested_jacobiator(S, pt, *phis, h) - want)
            for h in (2e-3, 1e-3, 5e-4)
        ]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 3.5 <= coarse / fine <= 4.5, gaps


@pytest.mark.parametrize("name", REDUCING)
def test_sign_flipped_jet_breaks_jacobiators(name):
    """The corrupted r of PL_CDYBE_CONTROL fails both exact Jacobiators."""
    _, S, words, rfun, qpt, ppt = _jacobi_points(name)
    a, b = largest_entry(rfun(words[0]).value)
    bad = sign_flipped_rfun(rfun, int(a), int(b))
    dim_g = S.G.dim
    triples = [
        (g_entry(S, i, j), g_entry(S, j, k), g_entry(S, k, i))
        for i in range(dim_g) for j in range(dim_g) for k in range(dim_g)
    ]
    worst_q = q_jacobi_residual(S, bad, [qpt], [triples]).max()
    worst_p = p_jacobi_residual(S, bad, [ppt], [triples]).max()
    assert worst_q > 1e-2 and worst_p > 1e-2
    assert q_jacobi_residual(S, rfun, [qpt], [triples]).max() <= 1e-12


@pytest.mark.parametrize("name", REDUCING)
def test_sign_flipped_jet_breaks_triangularity(name):
    """The corrupted r of PL_CDYBE_CONTROL fails TRIANGULARITY.  Where the
    invariance part cannot see it (on sl2 it stays 0), the λ-dependence of
    the corrupted left side does."""
    _, S, words, rfun, _, _ = _jacobi_points(name)
    a, b = largest_entry(rfun(words[0]).value)
    bad = sign_flipped_rfun(rfun, int(a), int(b))
    assert max(triangularity_check(S, bad, w, ref=words[0]) for w in words) > 1e-2
    assert max(triangularity_check(S, rfun, w, ref=words[0]) for w in words) <= 1e-12
    # without a reference only the invariance part is left
    for w in words:
        assert triangularity_check(S, bad, w) == invariance_residual3(S.G, plcdybe_lhs(S, bad, w))


@pytest.mark.parametrize("slot", ["g", "dual"])
def test_function_hessian_matches_differenced_gradient(slot):
    """Row k of QFunction.jet's Hessian is the derivative of its gradient
    along direction k, left directions first, then right ones."""
    _, S, _, _, qpt, _ = _jacobi_points("sl3_dj_levi")
    h = 1e-4
    if slot == "g":
        f, ads, cache = g_entry(S, 3, 5), np.swapaxes(S.G.c, 1, 2), StepCache(S.G, h, np.eye(S.G.dim))
    else:
        f, ads, cache = dual_entry(S, 7, 3), S.hstar_ads, StepCache(S.double, h, S.Hdual)
    word = getattr(qpt, slot)
    grad, hess = f.jet(word, ads)
    assert float(np.max(np.abs(hess))) > 1e-2
    k = len(ads)
    for side, move in enumerate(("left_mul", "right_mul")):
        for i in range(k):
            plus = f.jet(getattr(word, move)(cache.plus[i]), ads)[0]
            minus = f.jet(getattr(word, move)(cache.minus[i]), ads)[0]
            np.testing.assert_allclose(hess[side * k + i], (plus - minus) / (2 * h), atol=1e-7)


def test_dual_blocks_keep_the_jacobi_identity():
    """Triples with two entries on the ambient factor, or two on one dual
    factor, reach the couplings and the Poisson block of each dual factor
    and the derivative of Ad_λ there; the suite's own triples reach them
    only where its mixed triple is nonzero.  On the double of a non-abelian
    (H, H*) the Jacobiators stay at roundoff."""
    _, S, _, rfun, qpt, ppt = _jacobi_points("sl3_dj_levi")
    dim2 = S.sub_double.dim
    entries = [(a, b) for a in range(dim2) for b in range(dim2)]
    phi, psi = g_entry(S, 1, 2), g_entry(S, 3, 5)
    on_q, on_p = [], []
    for i, e1 in enumerate(entries):
        on_q.append((phi, psi, dual_entry(S, *e1)))
        on_p += [(phi, psi, hat_entry(S, *e1)), (phi, psi, tilde_entry(S, *e1))]
        for e2 in entries[i + 1:]:
            on_q.append((phi, dual_entry(S, *e1), dual_entry(S, *e2)))
            on_p.append((phi, hat_entry(S, *e1), hat_entry(S, *e2)))
    assert q_jacobi_residual(S, rfun, [qpt], [on_q]).max() <= 1e-12
    assert p_jacobi_residual(S, rfun, [ppt], [on_p]).max() <= 1e-12


# ---------------------------------------------------------------------------
# one CMatrix per point, read by every consumer
# ---------------------------------------------------------------------------


class TestPointMemo:
    def setup_method(self):
        self.e = get_entry("sl3_dj_levi")
        self.S = self.e.setup()
        self.words = sample_hstar_points(self.S, 3, self.e.seed)

    def test_one_matrix_per_word(self):
        for w in self.words:
            assert constraint_matrix(self.S, w) is constraint_matrix(self.S, w)
            assert rho_jet(self.S, w) is rho_jet(self.S, w)

    def test_second_setup_gets_its_own_matrix(self):
        S, S2, w = self.S, self.e.setup(), self.words[0]
        assert S2 is not S
        first = constraint_matrix(S, w)
        other = constraint_matrix(S2, w)
        assert other is not first
        assert other.setup is S2
        assert constraint_matrix(S, w).setup is S
        assert constraint_matrix(S2, w).setup is S2
        np.testing.assert_array_equal(other.entries, first.entries)

    def test_memo_keeps_neither_word_nor_matrix_alive(self):
        S = self.S
        w = sample_hstar_points(S, 1, 99)[0]
        C = constraint_matrix(S, w)
        # every cached property of the point is filled in
        rho_jet(S, w)
        rho_via_n(S, [w])
        characterization_identity_residual(S, [w], S.M_in_K[None, :1], S.M_in_K[None, 1:2])
        assert {"solved", "velocity", "jet", "ad_inverse", "n_matrix"} <= set(vars(C))
        word_ref, matrix_ref = weakref.ref(w), weakref.ref(C)
        del w, C
        gc.collect()
        assert word_ref() is None
        assert matrix_ref() is None

    def test_threshold_is_checked_on_every_request(self):
        """The setup's threshold is checked on each call, also once the
        point's data is cached: a copy of the setup at threshold 1.0 refuses
        a point its original accepts, and one at the point's own cond
        accepts it."""
        S, w = self.S, self.words[0]
        C = constraint_matrix(S, w)
        rho(S, w)
        assert C.cond > 1.0
        strict = dataclasses.replace(S, cond_threshold=1.0)
        for _ in range(2):
            for f, at in ((rho, w), (rho_jet, w), (rho_via_n, [w]),
                          (constraint_inverse_operator_residual, [w])):
                with pytest.raises(CDegenerateError):
                    f(strict, at)
            g1, g2 = pair_gradients(S, w, [(dual_entry(S, 0, 1), dual_entry(S, 1, 0))])
            with pytest.raises(CDegenerateError):
                dirac_bracket(strict, [w], g1[None], g2[None])
        assert constraint_matrix(S, w) is C
        np.testing.assert_array_equal(rho(S, w), C.solved[0])
        at_cond = dataclasses.replace(S, cond_threshold=C.cond)
        np.testing.assert_array_equal(rho(at_cond, w), C.solved[0])


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _rows(calls) -> int:
    """Rows passed through a stacked builder: the length of each call's stack."""
    return sum(len(args[1]) for args in calls)


def test_run_suite_builds_each_draw_once(monkeypatch):
    """Every drawn candidate's C is built once, as one row of a stacked
    build; every consumer of every suite reads the point's one CMatrix, and
    Ad_λ is inverted once per point, in one stacked inverse over the sample.
    Each cached kernel (velocity, rho jet, N_i) runs once, over the sample."""
    e = get_entry("sl3_dj_levi")
    S = e.setup()
    builds, draws, inverses = [], [], []
    _counting(monkeypatch, reduction, "_build_constraint_matrices", builds)
    _counting(monkeypatch, reduction, "_hstar_words", draws)
    _counting(monkeypatch, np.linalg, "inv", inverses)
    kernels = {name: [] for name in ("_velocities", "_jets", "_n_matrices")}
    for name, calls in kernels.items():
        _counting(monkeypatch, reduction, name, calls)
    reports, words = run_suite(
        S, "all", num_points=e.num_points, seed=e.seed
    )
    assert all(r.passed for r in reports)
    assert _rows(draws) >= len(words) == e.num_points
    assert _rows(builds) == _rows(draws)
    assert len(inverses) == 1 and len(inverses[0][0]) == len(words)
    assert {name: [_rows([args]) for args in calls] for name, calls in kernels.items()} == (
        dict.fromkeys(kernels, [len(words)]))


def test_equivariance_suite_reads_the_cached_inverse(monkeypatch):
    """The dressing vectors come from the point's Ad_λ⁻¹, one stacked
    inverse over the sampled points: the only solve left is rho's, one
    stacked solve over them."""
    e = get_entry("sl3_dj_levi")
    S = e.setup()
    solves, inverses = [], []
    _counting(monkeypatch, np.linalg, "solve", solves)
    _counting(monkeypatch, np.linalg, "inv", inverses)
    reports, words = run_suite(
        S, "equivariance", num_points=e.num_points, seed=e.seed
    )
    assert all(r.passed for r in reports)
    assert len(solves) == 1
    assert len(inverses) == 1
    assert len(solves[0][0]) == len(inverses[0][0]) == len(words) == e.num_points
    monkeypatch.undo()
    for w in words:
        block = constraint_matrix(S, w).ad_inverse[S.n:, :S.n]
        for x in S.H_in_K:
            _close(block @ x, dressing_vector(w, x), rtol=1e-13)


def test_reduce_builds_each_draw_once(monkeypatch, tmp_path):
    """reduce builds each draw's C once and solves for rho once in all."""
    builds, draws, solves = [], [], []
    _counting(monkeypatch, reduction, "_build_constraint_matrices", builds)
    _counting(monkeypatch, reduction, "_hstar_words", draws)
    _counting(monkeypatch, np.linalg, "solve", solves)
    assert cli.main(["reduce", "--input", "sl3_dj_levi", "--output", str(tmp_path / "r.json")]) == 0
    assert _rows(draws) >= get_entry("sl3_dj_levi").num_points
    assert _rows(builds) == _rows(draws)
    assert len(solves) == 1


@pytest.mark.parametrize("name", ["sl3_dj_levi", "skewed_levi"])
def test_gradient_contraction_is_the_jet(name):
    """The Dirac suite's gradients, one contraction with the point's Ad
    velocity, are the halves of QFunction.jet's gradient."""
    _, S, words = next(c for c in CASES if c[0] == name)
    rng = np.random.default_rng(17)
    dim2, p, n = S.sub_double.dim, S.dim_H, S.n
    funcs = [dual_entry(S, a, b) for a in range(dim2) for b in range(dim2)]
    funcs += [
        QFunction("dual", rng.uniform(-1, 1, dim2) @ S.sub_restrict,
                  rng.uniform(-1, 1, dim2) @ S.sub_embed)
        for _ in range(10)
    ]
    pairs = list(zip(funcs, reversed(funcs)))
    for w in words:
        g1, g2p = pair_gradients(S, w, pairs)
        jets = [(f1.jet(w, S.hstar_ads)[0], f2.jet(w, S.hstar_ads)[0]) for f1, f2 in pairs]
        want1 = np.array([j1[:p] for j1, _ in jets])
        want2 = np.array([j2[p:] for _, j2 in jets])
        assert float(np.max(np.abs(want1))) > 1e-1
        assert float(np.max(np.abs(want2))) > 1e-1
        assert float(np.max(np.abs(g1 - want1))) <= 1e-14
        assert float(np.max(np.abs(g2p - want2))) <= 1e-14
        moved_m = w.ad[n:, :n] @ S.M_in_K.T
        for f in funcs[::7]:
            want = f.jet(w, S.hstar_ads)[0][:p] @ S.H_in_K @ moved_m
            got = constraint_pb_check(S, [w], row_gradients(S, w, [f])[None, :, :p])
            assert got.shape == (1, 1, S.dim_M)
            assert float(np.max(np.abs(got[0, 0] - want))) <= 1e-14
