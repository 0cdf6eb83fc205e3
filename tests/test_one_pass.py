"""The suites take a setup's whole sample in one stacked pass per equation.

The sample is one stack (reduction.CMatrix), on which each point's rho jet,
Ad_λ⁻¹, N_i and Ad velocity are made once, by one stacked kernel each, and
run_suite calls each equation once over it: the Jacobiators over a stack of
product points, each with a row of triples; the Dirac brackets, the
constraint check and the rho consistency residuals over the sample, each
point with its slice of gradients; the equivariance residual over the
sample, each point with its H basis.  The references below make one call
per point (a stack of one) and per triple, with fresh stacks and
functions, and draw one scalar at a time: each per-point residual, and
each stacked call, must equal its reference bit for bit, so stacking moved
no draw and no digit, and a point's numbers do not depend on the points
stacked with it.  A sample taken in several chunks gives the reports of
one chunk.
"""

import dataclasses
import gc

import numpy as np
import pytest

from plrmat import bounds, reduction, verify
from plrmat.catalog import get_entry, list_entries
from plrmat.errors import InputShapeError
from plrmat.reduction import (
    characterization_identity_residual,
    constraint_inverse_operator_residual,
    constraint_pb_check,
    dirac_bracket,
    native_hstar_bracket,
    rho,
    rho_via_n,
    sample_hstar_points,
)
from plrmat.verify import (
    AMBIENT_BOX,
    EQ_CHARACTERIZATION,
    EQ_CONSTRAINT_PB,
    EQ_CONTROL,
    EQ_DIRAC,
    EQ_EQUIVARIANCE,
    EQ_PLCDYBE,
    EQ_P_JACOBI,
    EQ_Q_JACOBI,
    EQ_RHO_CONSISTENCY,
    EQ_TRIANGULARITY,
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
    plcdybe_lhs,
    plcdybe_residual,
    q_jacobi_residual,
    reduced_r_function,
    run_suite,
    sign_flipped_rfun,
    tilde_entry,
    triangularity_check,
)

from test_hot_path import skewed_levi_setup, slot_jet
from test_reduction import pair_gradients, row_gradients, stack


def _cases():
    for name in list_entries():
        e = get_entry(name)
        yield name, e.setup(), e.num_points, e.seed
    yield "skewed_levi", skewed_levi_setup(), 4, 2


CASES = list(_cases())
IDS = [c[0] for c in CASES]


def reference_jacobi(S, words, seed):
    """The jacobi section one call per product point and per triple, each a
    stack of one: (Q_JACOBI, P_JACOBI) per point, and the (points, triples)
    arrays the suite's one q_jacobi_residual and one p_jacobi_residual call
    must equal."""
    rng = np.random.Generator(np.random.PCG64(seed + 401))
    rfun = reduced_r_function(S)
    pts = [words[k % len(words)] for k in range(JACOBI_POINTS)]
    dim_g, dim2 = S.G.dim, S.sub_double.dim

    def index_pair(hi):
        return int(rng.integers(0, hi)), int(rng.integers(0, hi))

    want_q, want_p = [], []
    for k, w in enumerate(pts):
        g = ambient_word(S.G, [rng.uniform(-AMBIENT_BOX, AMBIENT_BOX, dim_g)])
        phi = [index_pair(dim_g) for _ in range(3)]
        on_dual, on_hat, on_tilde = index_pair(dim2), index_pair(dim2), index_pair(dim2)
        tilde = pts[(k + 1) % len(pts)]

        def phis():
            return [g_entry(S, *ab) for ab in phi]

        want_q.append(np.concatenate([
            q_jacobi_residual(S, rfun, QPoint(S, g.ad[None], stack(S, w)), [[fs]])[0]
            for fs in (phis(), phis()[:2] + [dual_entry(S, *on_dual)])
        ]))
        want_p.append(np.concatenate([
            p_jacobi_residual(S, rfun, PPoint(S, stack(S, tilde), g.ad[None], stack(S, w)), [[fs]])[0]
            for fs in (phis(), [phis()[0], tilde_entry(S, *on_tilde), hat_entry(S, *on_hat)])
        ]))
    want_q, want_p = np.array(want_q), np.array(want_p)
    return list(want_q.max(axis=1)), list(want_p.max(axis=1)), want_q, want_p


def reference_dirac(S, words, seed):
    """The dirac section's draws one scalar at a time and its calls one
    point at a time, each a stack of one: the residuals of DIRAC_EQ_HSTAR,
    CONSTRAINT_PB, RHO_CONSISTENCY and PAIRING_CHARACTERIZATION per point,
    and the stacked value each of the suite's bracket and constraint calls
    must equal.

    Each pair's gradients come from their own _row_gradients call, and a
    point's brackets take them stacked; the constraint functions' gradients
    are one call of their own."""
    rng = np.random.Generator(np.random.PCG64(seed + 307))
    dim2, p, n = S.sub_double.dim, S.dim_H, S.n

    def draw():
        return dual_entry(S, int(rng.integers(0, dim2)), int(rng.integers(0, dim2)))

    res = {eq: [] for eq in (EQ_DIRAC, EQ_CONSTRAINT_PB, EQ_RHO_CONSISTENCY, EQ_CHARACTERIZATION)}
    calls = {name: [] for name in ("dirac_bracket", "native_hstar_bracket", "constraint_pb_check")}
    for w in words:
        pairs = [pair_gradients(S, w, [(draw(), draw())]) for _ in range(10)]
        g1 = np.concatenate([g for g, _ in pairs])[None]
        g2 = np.concatenate([g for _, g in pairs])[None]
        got = dirac_bracket(S, stack(S, w), g1, g2)
        want = native_hstar_bracket(S, stack(S, w), g1, g2)
        fs = [draw() for _ in range(S.dim_M)]
        fs = row_gradients(S, w, fs)[:, :p] if fs else np.zeros((0, p))
        pb = constraint_pb_check(S, stack(S, w), fs[None])
        # each {f_i, ξ_i} is the one vector product it was, to roundoff
        moved = w.ad[n:, :n] @ S.M_in_K.T
        for i, f in enumerate(fs):
            assert abs(pb[0, i, i] - f @ S.H_in_K @ moved[:, i]) <= 1e-14
        res[EQ_DIRAC].append(float(np.max(np.abs(got - want))))
        res[EQ_CONSTRAINT_PB].append(float(np.abs(np.diagonal(pb[0])).max(initial=0.0)))
        r1 = float(np.abs(rho(S, w) - rho_via_n(S, stack(S, w))[0]).max(initial=0.0))
        res[EQ_RHO_CONSISTENCY].append(max(r1, constraint_inverse_operator_residual(S, stack(S, w))[0]))
        for name, value in zip(calls, (got, want, pb)):
            calls[name].append(value)
    for w in words:
        u, v = np.zeros((20, S.n)), np.zeros((20, S.n))
        for k in range(20 if S.dim_M else 0):
            u[k] = rng.uniform(-1, 1, S.dim_M) @ S.M_in_K
            v[k] = rng.uniform(-1, 1, S.dim_M) @ S.M_in_K
        res[EQ_CHARACTERIZATION].append(
            characterization_identity_residual(S, stack(S, w), u[None], v[None])[0])
    return res, {name: np.concatenate(values) for name, values in calls.items()}


def reference_cdybe(S, words):
    """The cdybe section one point at a time, each a stack of one with a jet
    of its own: the residuals of PL_CDYBE, TRIANGULARITY and, where M is not
    0, PL_CDYBE_CONTROL per point, and the stacked value each of the suite's
    control and triangularity calls must equal."""
    rfun = reduced_r_function(S)
    first = stack(S, words[0])
    bad = sign_flipped_rfun(rfun, *map(int, largest_entry(rfun(first).value[0])))
    ref = plcdybe_lhs(S, rfun, first)[0]
    res = {EQ_PLCDYBE: [], EQ_TRIANGULARITY: [], **({EQ_CONTROL: []} if S.dim_M else {})}
    calls = {"triangularity_check": [], **({"plcdybe_residual": []} if S.dim_M else {})}
    for w in words:
        lhs = plcdybe_lhs(S, rfun, stack(S, w))
        tri = triangularity_check(S.G, lhs, ref)
        res[EQ_PLCDYBE].append(float(np.abs(lhs - S.anomaly).max(initial=0.0)))
        res[EQ_TRIANGULARITY].append(float(tri[0]))
        calls["triangularity_check"].append(tri)
        if S.dim_M:
            flipped = plcdybe_residual(S, bad, stack(S, w))
            res[EQ_CONTROL].append(float(np.abs(flipped).max(initial=0.0)))
            calls["plcdybe_residual"].append(flipped)
    return res, {name: np.concatenate(values) for name, values in calls.items()}


def _residuals(reports, eq):
    (report,) = [r for r in reports if r.equation_id == eq]
    return [r for _, r in report.per_point]


def _recording(monkeypatch, names, calls):
    """Record the value of every call run_suite makes to the named functions."""
    for name in names:
        original = getattr(verify, name)
        calls[name] = []

        def recorded(*args, _original=original, _name=name):
            out = _original(*args)
            calls[_name].append(out)
            return out

        monkeypatch.setattr(verify, name, recorded)


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name,S,num_points,seed", CASES, ids=IDS)
def test_jacobi_suite_matches_fresh_calls(monkeypatch, name, S, num_points, seed):
    calls = {}
    _recording(monkeypatch, ("q_jacobi_residual", "p_jacobi_residual"), calls)
    reports, sample = run_suite(S, "jacobi", num_points, seed)
    monkeypatch.undo()
    res_q, res_p, want_q, want_p = reference_jacobi(S, sample.words, seed)
    # one call per equation, every product point's triples in it
    (got_q,), (got_p,) = calls["q_jacobi_residual"], calls["p_jacobi_residual"]
    _same_bytes(got_q, want_q)
    _same_bytes(got_p, want_p)
    assert _residuals(reports, EQ_Q_JACOBI) == res_q
    assert _residuals(reports, EQ_P_JACOBI) == res_p
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("name,S,num_points,seed", CASES, ids=IDS)
def test_dirac_suite_matches_fresh_calls(monkeypatch, name, S, num_points, seed):
    calls = {}
    _recording(monkeypatch, ("dirac_bracket", "native_hstar_bracket", "constraint_pb_check"),
               calls)
    reports, sample = run_suite(S, "dirac", num_points, seed)
    monkeypatch.undo()
    res, want = reference_dirac(S, sample.words, seed)
    for fn, values in calls.items():
        (got,) = values  # one call over the whole sample
        _same_bytes(got, want[fn])
    for eq, values in res.items():
        assert _residuals(reports, eq) == values


@pytest.mark.parametrize("name,S,num_points,seed", CASES, ids=IDS)
def test_cdybe_suite_matches_fresh_calls(monkeypatch, name, S, num_points, seed):
    """One control call and one triangularity call over the whole sample,
    each slice the value of its point alone, and the left side each point
    shares between PL_CDYBE and TRIANGULARITY that point's own."""
    calls = {}
    _recording(monkeypatch, ("plcdybe_residual", "triangularity_check"), calls)
    reports, sample = run_suite(S, "cdybe", num_points, seed)
    monkeypatch.undo()
    assert len(sample) > 1
    res, want = reference_cdybe(S, sample.words)
    # no control without M: rho, and its sign flip, are 0
    assert {name for name, values in calls.items() if values} == set(want)
    for fn, values in want.items():
        (got,) = calls[fn]  # one call over the whole sample
        _same_bytes(got, values)
    assert [r.equation_id for r in reports][1:] == list(res)
    for eq, values in res.items():
        assert _residuals(reports, eq) == values
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("name,S,num_points,seed", CASES, ids=IDS)
def test_stacked_equivariance_matches_one_x_at_a_time(name, S, num_points, seed):
    """The equivariance suite takes every H basis vector of every point in
    one call; each slice is the residual of that vector at that point alone,
    bit for bit."""
    rfun = reduced_r_function(S)
    reports, sample = run_suite(S, "equivariance", num_points, seed)
    # the setup's H-basis arrays the suites read are read-only
    assert not (S.h_ads.flags.writeable or S.H_in_G.flags.writeable)
    units = np.eye(S.dim_H)
    stacked = equivariance_residual(S, rfun, sample, np.array([units] * len(sample)))
    assert stacked.shape == (len(sample), S.dim_H, S.G.dim, S.G.dim)
    want = []
    for w, at_w in zip(sample.words, stacked):
        alone = [equivariance_residual(S, rfun, stack(S, w), x[None, None]) for x in units]
        for got, one in zip(at_w, alone):
            assert one.shape == (1, 1, S.G.dim, S.G.dim)
            assert got.tobytes() == one[0, 0].tobytes()
        want.append(max((float(np.abs(one).max()) for one in alone), default=0.0))
    assert _residuals(reports, EQ_EQUIVARIANCE) == want
    # a stack of X per point only: neither one X, nor one point's stack, nor
    # a deeper array, nor a stack for another number of points
    p = S.dim_H
    for x in (np.zeros(p), np.zeros((1, p)), np.zeros((1, 1, 1, p)), np.zeros((1, 1, p + 1)),
              np.zeros((2, 1, p))):
        with pytest.raises(InputShapeError):
            equivariance_residual(S, rfun, sample[:1], x)


def reference_slot_jet(f, word, ads):
    """One function's slot jet as its own products, its Hessian by np.block."""
    l, r, ad = f.left, f.right, word.ad
    la, ar = l @ ads, ads @ r
    l_ad, ad_r = l @ ad, ad @ r
    grad = np.concatenate([la @ ad_r, ar @ l_ad])
    lr = (la @ ad) @ ar.T
    return grad, np.block([[(ads @ ad_r) @ la.T, lr], [lr.T, (l_ad @ ads) @ ar.T]])


@pytest.mark.parametrize("name,S,num_points,seed", CASES, ids=IDS)
def test_stacked_slot_jets_are_each_functions_own(name, S, num_points, seed):
    """_slot_jets of a stack of functions, each on its own factor's Ad, gives
    each one the bytes of its own products, on the ambient factor and on a
    dual one."""
    words = sample_hstar_points(S, 2, seed).words
    rng = np.random.default_rng(seed)
    g = ambient_word(S.G, [rng.uniform(-AMBIENT_BOX, AMBIENT_BOX, S.G.dim)])
    g2 = ambient_word(S.G, [rng.uniform(-AMBIENT_BOX, AMBIENT_BOX, S.G.dim)])
    dim_g, dim2 = S.G.dim, S.sub_double.dim
    on_g = [g_entry(S, a, b) for a, b in rng.integers(0, dim_g, (4, 2)).tolist()]
    on_dual = [dual_entry(S, a, b) for a, b in rng.integers(0, dim2, (4, 2)).tolist()]
    for fs, pair, ads in ((on_g, (g, g2), np.swapaxes(S.G.c, 1, 2)),
                          (on_dual, words, S.hstar_ads)):
        factor = [pair[k % 2] for k in range(len(fs))]  # alternate the two factors
        grads, hess = verify._slot_jets(fs, np.array([w.ad for w in factor]), ads)
        for f, word, grad, h in zip(fs, factor, grads, hess):
            want_grad, want_hess = reference_slot_jet(f, word, ads)
            assert grad.tobytes() == want_grad.tobytes()
            assert h.tobytes() == want_hess.tobytes()
            one = slot_jet(f, word, ads)
            assert one[0].tobytes() == grad.tobytes() and one[1].tobytes() == h.tobytes()


def test_sign_flipped_rfun_after_the_true_one_still_fails():
    """A Jacobi call stores nothing on its points or its functions: the
    corrupted rfun, asked after the true one on the same points and
    functions, fails exactly as on fresh points with fresh functions, and
    the true rfun still passes after it."""
    e = get_entry("sl3_dj_levi")
    S = e.setup()
    sample = sample_hstar_points(S, e.num_points, e.seed)
    w0, w1 = sample.words[:2]
    g = ambient_word(S.G, [np.random.default_rng(e.seed).uniform(-0.3, 0.3, S.G.dim)])
    gg = np.array([g.ad, g.ad])
    rfun = reduced_r_function(S)
    a, b = largest_entry(rfun(sample[:1]).value[0])
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
    for make, residual in (
        (lambda: QPoint(S, gg, stack(S, w0, w1)), q_jacobi_residual),
        (lambda: PPoint(S, stack(S, w1, w0), gg, stack(S, w0, w1)), p_jacobi_residual),
    ):
        pt = make()
        pts = [pt]
        before = state(pts + fs)
        assert residual(S, rfun, pt, [triples] * 2).max() <= 1e-12
        assert state(pts + fs) == before
        flipped = residual(S, bad, pt, [triples] * 2)
        assert flipped.shape == (2, len(triples))
        assert flipped.max() > 1e-2
        assert flipped.tobytes() == residual(S, bad, make(), [make_triples()] * 2).tobytes()
        assert residual(S, rfun, pt, [triples] * 2).max() <= 1e-12
        assert state(pts + fs) == before
        # no cache field on either, and no form outlives its call
        assert not any(isinstance(v, dict) for o in pts + fs for v in vars(o).values())
        gc.collect()
        assert not any(isinstance(o, verify._BracketForm) for o in gc.get_objects())


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_jacobi_suite_builds_one_form_per_call_and_no_block(monkeypatch):
    """One bracket form per Jacobi equation, over every product point."""
    e = get_entry("sl3_dj_levi")
    S = e.setup()
    forms = []
    _counting(monkeypatch, verify._BracketForm, "__init__", forms)

    def no_block(*args, **kwargs):
        raise AssertionError("np.block called in the jacobi suite")

    monkeypatch.setattr(np, "block", no_block)
    reports, _ = run_suite(S, "jacobi", e.num_points, e.seed)
    assert all(r.passed for r in reports)
    assert [len(args[3].g) for args in forms] == [JACOBI_POINTS, JACOBI_POINTS]


def test_dirac_suite_contracts_gradients_once_per_point(monkeypatch):
    """One contraction for every point's gradients, and one constraint
    check for every point's constraint functions."""
    e = get_entry("sl3_dj_cartan")
    S = e.setup()
    contractions, checks = [], []
    # _row_gradients counted under both names: verify's import and reduction's own
    for owner in (verify, reduction):
        _counting(monkeypatch, owner, "_row_gradients", contractions)
    _counting(monkeypatch, verify, "constraint_pb_check", checks)
    reports, sample = run_suite(S, "dirac", e.num_points, e.seed)
    assert all(r.passed for r in reports)
    assert len(contractions) == len(checks) == 1
    # the contraction stacks each point's 10 Dirac pairs and one function
    # per constraint, and the check takes the constraint functions' rows
    (_, at, left, right), = contractions
    assert at is sample and len(sample) == e.num_points
    assert left.shape[:2] == right.shape[:2] == (len(sample), 20 + S.dim_M)
    assert checks[0][2].shape == (len(sample), S.dim_M, S.dim_H)


@pytest.mark.parametrize("name,S,num_points,seed", CASES, ids=IDS)
def test_chunked_sample_gives_the_one_chunk_reports(monkeypatch, name, S, num_points, seed):
    """With bounds.MAX_NUM_POINTS low enough that every stacked section takes
    the sample in several chunks, run_suite's reports are those of one
    chunk, exactly."""
    def fields(reports):
        # repr round-trips every float, so equal text is equal bits
        return [repr(dataclasses.astuple(r)) for r in reports]

    one, sample = run_suite(S, "all", num_points, seed)
    chunks = []
    original = reduction._point_chunks

    def recorded(*args):
        parts = original(*args)
        chunks.append(len(parts))
        return parts

    monkeypatch.setattr(bounds, "MAX_NUM_POINTS", 1)
    monkeypatch.setattr(reduction, "_point_chunks", recorded)
    monkeypatch.setattr(verify, "_point_chunks", recorded)
    many, again = run_suite(S, "all", num_points, seed)
    assert [w.ad.tobytes() for w in again.words] == [w.ad.tobytes() for w in sample.words]
    # every stacked section (cdybe, equivariance, dirac) and both Jacobi
    # calls split their points
    assert len(chunks) == 5 and min(chunks) >= 2
    assert fields(many) == fields(one)


def test_suite_calls_every_traced_residual(monkeypatch):
    """The benchmark's tracer patches these names where run_suite looks them
    up; a restructure that stopped calling one would zero its span."""
    e = get_entry("sl3_dj_levi")
    S = e.setup()
    names = ("q_jacobi_residual", "p_jacobi_residual", "equivariance_residual",
             "dirac_bracket", "native_hstar_bracket", "characterization_identity_residual",
             "rho_via_n", "plcdybe_residual", "triangularity_check")
    calls = {name: [] for name in names}
    for name in names:
        _counting(monkeypatch, verify, name, calls[name])
    run_suite(S, "all", e.num_points, e.seed)
    assert {name: len(c) > 0 for name, c in calls.items()} == dict.fromkeys(names, True)


def _derived_bytes(C):
    """The bytes of every datum made on the stack C: its solve, Ad
    velocities, rho jets, Ad_λ⁻¹ and N_i."""
    (values, x), jet = C.solved, C.jet
    arrays = (values, x, C.velocity, jet.value, jet.left, jet.right, C.ad_inverse, C.n_matrix)
    return [(a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("name,S,num_points,seed", CASES, ids=IDS)
def test_sub_stack_gives_what_it_makes_alone(name, S, num_points, seed):
    """C[idx], for a slice or an index array, has the solve, velocities,
    jets, inverses and N_i of the same points made on a stack of their own,
    bit for bit, whether it was cut before or after its parent made them;
    cut after, it carries its parent's rows."""
    sample = sample_hstar_points(S, num_points, seed)
    n = len(sample)
    picks = [slice(1, None), slice(0, n, 2), np.arange(n)[::-1], np.array([0, 0, n - 1])]
    before = [sample[idx] for idx in picks]  # the sampler made only the solve
    assert set(sample._made) == {"solved"}
    whole = _derived_bytes(sample)
    for idx, early in zip(picks, before):
        late = sample[idx]
        assert set(late._made) == {"solved", "velocity", "jet", "ad_inverse", "n_matrix"}
        alone = stack(S, *late.words)
        want = _derived_bytes(alone)
        assert _derived_bytes(early) == want
        assert _derived_bytes(late) == want
        rows = np.arange(n)[idx]
        assert late.words == tuple(sample.words[k] for k in rows)
        assert [a.tobytes() for a in late._arrays()] == [a[rows].tobytes() for a in sample._arrays()]
    assert _derived_bytes(sample) == whole


def test_suites_and_commands_read_points_off_the_sample(monkeypatch, tmp_path):
    """run_suite on every catalog entry, and reduce and verify on the command
    line, call constraint_matrix only from inside the sampler, and never
    the one-point rho or rho_jet: every equation reads the sample's stack."""
    from plrmat import cli

    inside, calls = [], {"constraint_matrix": [], "rho": [], "rho_jet": []}
    sampler = reduction.sample_hstar_points

    def sampling(*args, **kwargs):
        inside.append(True)
        try:
            return sampler(*args, **kwargs)
        finally:
            inside.pop()

    for module in (reduction, verify, cli):
        if hasattr(module, "sample_hstar_points"):
            monkeypatch.setattr(module, "sample_hstar_points", sampling)
    for name, log in calls.items():
        original = getattr(reduction, name)

        def recorded(*args, _original=original, _log=log):
            _log.append(bool(inside))
            return _original(*args)

        for module in (reduction, verify, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, recorded)
    for name in list_entries():
        e = get_entry(name)
        reports, _ = run_suite(e.setup(), "all", e.num_points, e.seed)
        assert all(r.passed for r in reports)
        for command in ("reduce", "verify"):
            assert cli.main([command, "--input", name, "--output", str(tmp_path / "out.json")]) == 0
    assert calls["constraint_matrix"] and all(calls["constraint_matrix"])
    assert calls["rho"] == calls["rho_jet"] == []
