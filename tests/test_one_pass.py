"""The jacobi, dirac and equivariance suites take each sample point in one pass.

run_suite takes both Jacobiators of a product point in one call over a
stack of triples, which builds one bracket form and one jet per distinct
test function; it draws each Dirac point's test functions, and each
characterization point's (u, v) pairs, in one call, and contracts the
gradients of a Dirac point's functions once; the equivariance suite takes a
point's H basis vectors in one stacked call.  The references below are the
loops this replaced: one scalar draw per index and per row, one call with a
fresh point and fresh functions for every Jacobiator, and one gradient
contraction per Dirac pair.  Each per-point residual, and each stacked call,
must equal its reference bit for bit, so sharing moved no draw and no digit.
"""

import gc

import numpy as np
import pytest

from plrmat import reduction, verify
from plrmat.catalog import get_entry, list_entries
from plrmat.errors import InputShapeError
from plrmat.reduction import (
    characterization_identity_residual,
    constraint_pb_check,
    dirac_bracket,
    native_hstar_bracket,
    sample_hstar_points,
)
from plrmat.verify import (
    AMBIENT_BOX,
    EQ_CHARACTERIZATION,
    EQ_CONSTRAINT_PB,
    EQ_DIRAC,
    EQ_EQUIVARIANCE,
    EQ_P_JACOBI,
    EQ_Q_JACOBI,
    JACOBI_POINTS,
    PPoint,
    QPoint,
    ambient_word,
    dual_entry,
    equivariance_residual,
    g_entry,
    hat_entry,
    largest_entry,
    p_jacobi_residual,
    q_jacobi_residual,
    reduced_r_function,
    run_suite,
    sign_flipped_rfun,
    tilde_entry,
)

from test_hot_path import skewed_levi_setup
from test_reduction import pair_gradients, row_gradients


def _cases():
    for name in list_entries():
        e = get_entry(name)
        yield name, e.setup(), e.num_points, e.seed
    yield "skewed_levi", skewed_levi_setup(), 4, 2


CASES = list(_cases())
IDS = [c[0] for c in CASES]


def reference_jacobi(S, words, seed):
    """The jacobi section one call per triple: (Q_JACOBI, P_JACOBI) per
    point, and for each stacked call of the suite, in its order, the
    one-triple results it must equal, concatenated."""
    rng = np.random.Generator(np.random.PCG64(seed + 401))
    rfun = reduced_r_function(S)
    pts = [words[k % len(words)] for k in range(JACOBI_POINTS)]
    dim_g, dim2 = S.G.dim, S.sub_double.dim

    def index_pair(hi):
        return int(rng.integers(0, hi)), int(rng.integers(0, hi))

    res_q, res_p, calls = [], [], []
    for k, w in enumerate(pts):
        g = ambient_word(S.G, [rng.uniform(-AMBIENT_BOX, AMBIENT_BOX, dim_g)])
        phi = [index_pair(dim_g) for _ in range(3)]
        on_dual, on_hat, on_tilde = index_pair(dim2), index_pair(dim2), index_pair(dim2)
        tilde = pts[(k + 1) % len(pts)]

        def phis():
            return [g_entry(S, *ab) for ab in phi]

        q = np.concatenate([q_jacobi_residual(S, rfun, QPoint(S, g, w), [fs])
                            for fs in (phis(), phis()[:2] + [dual_entry(S, *on_dual)])])
        p = np.concatenate([
            p_jacobi_residual(S, rfun, PPoint(S, tilde, g, w), [fs])
            for fs in (phis(), [phis()[0], tilde_entry(S, *on_tilde), hat_entry(S, *on_hat)])
        ])
        res_q.append(max(q))
        res_p.append(max(p))
        calls += [q, p]
    return res_q, res_p, calls


def reference_dirac(S, words, seed):
    """The dirac section's draws one call at a time: (DIRAC_EQ_HSTAR,
    CONSTRAINT_PB, PAIRING_CHARACTERIZATION) per point, and the value of
    every bracket and constraint call in the order the suite makes them.

    Each pair's gradients come from their own _row_gradients call, and a
    point's brackets take them stacked; the constraint functions' gradients
    are one call of their own."""
    rng = np.random.Generator(np.random.PCG64(seed + 307))
    dim2, p, n = S.sub_double.dim, S.dim_H, S.n

    def draw():
        return dual_entry(S, int(rng.integers(0, dim2)), int(rng.integers(0, dim2)))

    res_d, res_c, res_chi, calls = [], [], [], []
    for w in words:
        pairs = [pair_gradients(S, w, [(draw(), draw())]) for _ in range(10)]
        g1 = np.concatenate([g for g, _ in pairs])
        g2 = np.concatenate([g for _, g in pairs])
        got = dirac_bracket(S, w, g1, g2)
        want = native_hstar_bracket(S, w, g1, g2)
        fs = [draw() for _ in range(S.dim_M)]
        fs = row_gradients(S, w, fs)[:, :p] if fs else np.zeros((0, p))
        pb = constraint_pb_check(S, w, fs)
        # each {f_i, ξ_i} is the one vector product it was, to roundoff
        moved = w.ad[n:, :n] @ S.M_in_K.T
        for i, f in enumerate(fs):
            assert abs(pb[i, i] - f @ S.H_in_K @ moved[:, i]) <= 1e-14
        res_d.append(float(np.max(np.abs(got - want))))
        res_c.append(float(np.abs(np.diagonal(pb)).max(initial=0.0)))
        calls += [got, want, pb]
    for w in words:
        u, v = np.zeros((20, S.n)), np.zeros((20, S.n))
        for k in range(20 if S.dim_M else 0):
            u[k] = rng.uniform(-1, 1, S.dim_M) @ S.M_in_K
            v[k] = rng.uniform(-1, 1, S.dim_M) @ S.M_in_K
        res_chi.append(characterization_identity_residual(S, w, u, v))
    return res_d, res_c, res_chi, calls


def _residuals(reports, eq):
    (report,) = [r for r in reports if r.equation_id == eq]
    return [r for _, r in report.per_point]


def _recording(monkeypatch, names, calls):
    """Record the value of every call run_suite makes to the named functions."""
    for name in names:
        original = getattr(verify, name)

        def recorded(*args, _original=original):
            out = _original(*args)
            calls.append(out)
            return out

        monkeypatch.setattr(verify, name, recorded)


def _same_values(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("name,S,num_points,seed", CASES, ids=IDS)
def test_jacobi_suite_matches_fresh_calls(monkeypatch, name, S, num_points, seed):
    calls = []
    _recording(monkeypatch, ("q_jacobi_residual", "p_jacobi_residual"), calls)
    reports, words = run_suite(S, "jacobi", num_points, seed)
    monkeypatch.undo()
    res_q, res_p, want = reference_jacobi(S, words, seed)
    _same_values(calls, want)
    assert _residuals(reports, EQ_Q_JACOBI) == res_q
    assert _residuals(reports, EQ_P_JACOBI) == res_p
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("name,S,num_points,seed", CASES, ids=IDS)
def test_dirac_suite_matches_fresh_calls(monkeypatch, name, S, num_points, seed):
    calls = []
    _recording(monkeypatch, ("dirac_bracket", "native_hstar_bracket", "constraint_pb_check"),
               calls)
    reports, words = run_suite(S, "dirac", num_points, seed)
    monkeypatch.undo()
    res_d, res_c, res_chi, want = reference_dirac(S, words, seed)
    _same_values(calls, want)
    assert _residuals(reports, EQ_DIRAC) == res_d
    assert _residuals(reports, EQ_CONSTRAINT_PB) == res_c
    assert _residuals(reports, EQ_CHARACTERIZATION) == res_chi


@pytest.mark.parametrize("name,S,num_points,seed", CASES, ids=IDS)
def test_stacked_equivariance_matches_one_x_at_a_time(name, S, num_points, seed):
    """The equivariance suite takes every H basis vector of a point in one
    call; each slice is the residual of that vector alone, bit for bit."""
    rfun = reduced_r_function(S)
    reports, words = run_suite(S, "equivariance", num_points, seed)
    # the setup's H-basis arrays the suites read are read-only
    assert not (S.h_ads.flags.writeable or S.H_in_G.flags.writeable)
    units = np.eye(S.dim_H)
    want = []
    for w in words:
        stacked = equivariance_residual(S, rfun, w, units)
        assert stacked.shape == (S.dim_H, S.G.dim, S.G.dim)
        alone = [equivariance_residual(S, rfun, w, x[None]) for x in units]
        for got, one in zip(stacked, alone):
            assert one.shape == (1, S.G.dim, S.G.dim)
            assert got.tobytes() == one[0].tobytes()
        want.append(max((float(np.abs(one).max()) for one in alone), default=0.0))
    assert _residuals(reports, EQ_EQUIVARIANCE) == want
    # a stack only: neither one X nor a deeper array
    for x in (np.zeros(S.dim_H), np.zeros((1, 1, S.dim_H)), np.zeros((1, S.dim_H + 1))):
        with pytest.raises(InputShapeError):
            equivariance_residual(S, rfun, words[0], x)


def reference_slot_jet(f, word, ads):
    """QFunction.jet as one function's products, its Hessian by np.block."""
    l, r, ad = f.left, f.right, word.ad
    la, ar = l @ ads, ads @ r
    l_ad, ad_r = l @ ad, ad @ r
    grad = np.concatenate([la @ ad_r, ar @ l_ad])
    lr = (la @ ad) @ ar.T
    return grad, np.block([[(ads @ ad_r) @ la.T, lr], [lr.T, (l_ad @ ads) @ ar.T]])


@pytest.mark.parametrize("name,S,num_points,seed", CASES, ids=IDS)
def test_stacked_slot_jets_are_each_functions_own(name, S, num_points, seed):
    """_slot_jets of a stack of functions gives each one the bytes of its
    own products, on the ambient factor and on a dual one."""
    words = sample_hstar_points(S, 2, seed)
    rng = np.random.default_rng(seed)
    g = ambient_word(S.G, [rng.uniform(-AMBIENT_BOX, AMBIENT_BOX, S.G.dim)])
    dim_g, dim2 = S.G.dim, S.sub_double.dim
    on_g = [g_entry(S, a, b) for a, b in rng.integers(0, dim_g, (4, 2)).tolist()]
    on_dual = [dual_entry(S, a, b) for a, b in rng.integers(0, dim2, (4, 2)).tolist()]
    for fs, word, ads in ((on_g, g, np.swapaxes(S.G.c, 1, 2)), (on_dual, words[0], S.hstar_ads)):
        stacked = verify._slot_jets(fs, word, ads)
        for f, (grad, hess) in zip(fs, stacked):
            want_grad, want_hess = reference_slot_jet(f, word, ads)
            assert grad.tobytes() == want_grad.tobytes()
            assert hess.tobytes() == want_hess.tobytes()
            one = f.jet(word, ads)
            assert one[0].tobytes() == grad.tobytes() and one[1].tobytes() == hess.tobytes()


def test_sign_flipped_rfun_after_the_true_one_still_fails():
    """A Jacobi call stores nothing on its point or its functions: the
    corrupted rfun, asked after the true one on the same point and
    functions, fails exactly as on a fresh point with fresh functions, and
    the true rfun still passes after it."""
    e = get_entry("sl3_dj_levi")
    S = e.setup()
    words = sample_hstar_points(S, e.num_points, e.seed)
    g = ambient_word(S.G, [np.random.default_rng(e.seed).uniform(-0.3, 0.3, S.G.dim)])
    rfun = reduced_r_function(S)
    a, b = largest_entry(rfun(words[0]).value)
    bad = sign_flipped_rfun(rfun, int(a), int(b))

    def make_triples():
        return [(g_entry(S, i, j), g_entry(S, j, k), g_entry(S, k, i))
                for i in range(4) for j in range(4) for k in range(4)]

    def state(objs):
        """Each object's attributes, by identity, and its arrays' bytes."""
        return [{k: (id(v), v.tobytes() if isinstance(v, np.ndarray) else None)
                 for k, v in vars(o).items()} for o in objs]

    triples = make_triples()
    fs = list({id(f): f for t in triples for f in t}.values())
    for pt, fresh, residual in (
        (QPoint(S, g, words[0]), lambda: QPoint(S, g, words[0]), q_jacobi_residual),
        (PPoint(S, words[1], g, words[0]), lambda: PPoint(S, words[1], g, words[0]),
         p_jacobi_residual),
    ):
        before = state([pt] + fs)
        assert max(residual(S, rfun, pt, triples)) <= 1e-12
        assert state([pt] + fs) == before
        flipped = residual(S, bad, pt, triples)
        assert max(flipped) > 1e-2
        assert flipped.tobytes() == residual(S, bad, fresh(), make_triples()).tobytes()
        assert max(residual(S, rfun, pt, triples)) <= 1e-12
        assert state([pt] + fs) == before
        # no cache field on either, and no form outlives its call
        assert not any(isinstance(v, dict) for o in [pt] + fs for v in vars(o).values())
        gc.collect()
        assert not any(isinstance(o, verify._BracketForm) for o in gc.get_objects())


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_jacobi_suite_builds_two_forms_per_point_and_no_block(monkeypatch):
    e = get_entry("sl3_dj_levi")
    S = e.setup()
    forms = []
    _counting(monkeypatch, verify._BracketForm, "__init__", forms)

    def no_block(*args, **kwargs):
        raise AssertionError("np.block called in the jacobi suite")

    monkeypatch.setattr(np, "block", no_block)
    reports, _ = run_suite(S, "jacobi", e.num_points, e.seed)
    assert all(r.passed for r in reports)
    assert len(forms) == 2 * JACOBI_POINTS


def test_dirac_suite_contracts_gradients_once_per_point(monkeypatch):
    e = get_entry("sl3_dj_cartan")
    S = e.setup()
    contractions, checks = [], []
    # _row_gradients counted under both names: verify's import and reduction's own
    for owner in (verify, reduction):
        _counting(monkeypatch, owner, "_row_gradients", contractions)
    _counting(monkeypatch, verify, "constraint_pb_check", checks)
    reports, words = run_suite(S, "dirac", e.num_points, e.seed)
    assert all(r.passed for r in reports)
    assert len(contractions) == len(checks) == len(words) == e.num_points
    # each contraction stacks the point's 10 Dirac pairs and one function
    # per constraint, and the check takes the constraint functions' rows
    assert all(len(args[1]) == 20 + S.dim_M for args in contractions)
    assert all(args[2].shape == (S.dim_M, S.dim_H) for args in checks)


def test_suite_calls_every_traced_residual(monkeypatch):
    """The benchmark's tracer patches these names where run_suite looks them
    up; a restructure that stopped calling one would zero its span."""
    e = get_entry("sl3_dj_levi")
    S = e.setup()
    names = ("q_jacobi_residual", "p_jacobi_residual", "equivariance_residual",
             "dirac_bracket", "native_hstar_bracket", "characterization_identity_residual",
             "rho_via_n", "plcdybe_residual")
    calls = {name: [] for name in names}
    for name in names:
        _counting(monkeypatch, verify, name, calls[name])
    run_suite(S, "all", e.num_points, e.seed)
    assert {name: len(c) > 0 for name, c in calls.items()} == dict.fromkeys(names, True)
