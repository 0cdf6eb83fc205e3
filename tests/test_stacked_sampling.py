"""The stacked sampler against the loop it replaced.

sample_hstar_points draws the missing points as one block and evaluates the
block's words, Ad matrices, constraint matrices and rho in stacked passes,
and returns the accepted points as one stack.  sequential_sample below is
the original loop: one uniform call, one hstar_word and one
constraint_matrix per attempt, and one solve per point.  Both must see the
same candidates, with the same factors, the same Ad and C bytes and the
same conditioning, reject the same draws, give the same rho bytes, and run
out of attempts at the same sample with the same message.
"""

from dataclasses import replace

import numpy as np
import pytest

from plrmat import bounds, reduction
from plrmat.bialgebra_double import validate_setup
from plrmat.catalog import get_entry, list_entries
from plrmat.dual_group import ad_of_word
from plrmat.errors import ConsistencyError, InputShapeError, SamplingExhaustedError
from plrmat.lie_core import Subspace
from plrmat.reduction import (
    check_second_class,
    constraint_matrix,
    hstar_word,
    rho,
    sample_hstar_points,
)

from test_bialgebra_double import sl_n_standard
from test_hot_path import skewed_levi_setup


def sequential_sample(S, num_points, seed, box_radius=1.0):
    """The sampler one attempt at a time: (points, [(coords, word, C, accepted)])."""
    rng = np.random.Generator(np.random.PCG64(seed))
    max_attempts = bounds.MAX_SAMPLE_ATTEMPTS
    out, seen = [], []
    for k in range(num_points):
        for _ in range(max_attempts):
            coords = rng.uniform(-box_radius, box_radius, S.dim_H)
            word = hstar_word(S, coords)
            C = constraint_matrix(S, word)
            ok = check_second_class(C)
            seen.append((coords, word, C, ok))
            if ok:
                out.append(word)
                break
        else:
            raise SamplingExhaustedError(
                f"no second-class point found for sample {k} after {max_attempts} attempts"
            )
    return out, seen


def stacked_sample(monkeypatch, S, *args):
    """sample_hstar_points, with the (word, C) of every candidate it tests."""
    seen = []
    original = reduction.constraint_matrix

    def recording(setup, word):
        C = original(setup, word)
        seen.append((word, C))
        return C

    monkeypatch.setattr(reduction, "constraint_matrix", recording)
    try:
        return sample_hstar_points(S, *args), seen
    finally:
        monkeypatch.undo()


def sl4_setup():
    G, R = sl_n_standard(4)
    e15 = np.eye(15)
    return validate_setup(G, R, Subspace(15, e15), Subspace(15, e15[:3]), Subspace(15, e15[3:]))


def sampling_cases():
    for name in list_entries():
        e = get_entry(name)
        yield name, e.setup(), (e.num_points, e.seed, 1.0)
    yield "sl4", replace(sl4_setup(), cond_threshold=30.0), (6, 5, 1.0)
    yield "skewed_levi", replace(skewed_levi_setup(), cond_threshold=10.0), (6, 2, 1.0)


CASES = list(sampling_cases())


@pytest.mark.parametrize("name,S,args", CASES, ids=[c[0] for c in CASES])
def test_stacked_sampler_matches_the_loop(monkeypatch, name, S, args):
    sample, seen = stacked_sample(monkeypatch, S, *args)
    ref_words, ref_seen = sequential_sample(S, *args)
    assert len(sample) == len(sample.words) == len(ref_words) == args[0]
    assert len(seen) == len(ref_seen)
    for (word, C), (coords, ref_word, ref_C, ok) in zip(seen, ref_seen):
        assert check_second_class(C) == ok
        np.testing.assert_array_equal(word.factors[0], coords @ S.Hdual)
        assert word.ad.tobytes() == ref_word.ad.tobytes()
        assert C.entries.tobytes() == ref_C.entries.tobytes()
        assert C.cond == ref_C.cond
        assert C.form_agreement == ref_C.form_agreement
        assert C.antisym_residual == ref_C.antisym_residual
        # the exponential of ad_x for x = Σ_a coords_a H^a
        want = ad_of_word(S.double, [coords @ S.Hdual]).ad
        np.testing.assert_allclose(word.ad, want, rtol=0, atol=1e-13)
    assert [w for w, C in seen if check_second_class(C)] == list(sample.words)
    # the sample's one stacked solve gives each point the rho of the
    # one-word solve
    assert "solved" in sample._made
    for k, (w, ref_w) in enumerate(zip(sample.words, ref_words)):
        assert sample.solved[0][k].tobytes() == rho(S, ref_w).tobytes()
        # each accepted word's memo row is a view of its row of the sample,
        # with its bytes, and holds nothing derived
        row = constraint_matrix(S, w)
        assert row._made == {}
        for got, whole in zip(row._arrays(), sample._arrays()):
            assert got.size == 0 or np.shares_memory(got, whole)
            assert got.tobytes() == whole[k:k + 1].tobytes()


def test_the_cases_reject_draws():
    """The comparison above covers rejected draws, and blocks after the first."""
    rejected = 0
    for _, S, args in CASES:
        _, seen = sequential_sample(S, *args)
        rejected += sum(not ok for *_, ok in seen)
    assert rejected >= 20


def test_exhaustion_at_the_same_sample(monkeypatch):
    outcomes = []
    for name in ("sl2_dj", "sl3_dj_cartan", "sl3_dj_levi"):
        e = get_entry(name)
        base = e.setup()
        for max_attempts in (0, 1, 2, 3, 5):
            monkeypatch.setattr(bounds, "MAX_SAMPLE_ATTEMPTS", max_attempts)
            for threshold in (1.5, e.cond_threshold):
                S = replace(base, cond_threshold=threshold)
                args = (10, e.seed, 1.0)
                try:
                    ref = [w.factors[0] for w in sequential_sample(S, *args)[0]]
                except SamplingExhaustedError as exc:
                    ref = str(exc)
                try:
                    got = [w.factors[0] for w in sample_hstar_points(S, *args).words]
                except SamplingExhaustedError as exc:
                    got = str(exc)
                if isinstance(ref, str):
                    assert got == ref
                else:
                    np.testing.assert_array_equal(got, ref)
                outcomes.append(ref)
    messages = [o for o in outcomes if isinstance(o, str)]
    # runs that finish, runs that stop at the first sample, and runs that
    # stop after accepting some points
    assert len(messages) < len(outcomes)
    assert any("sample 0 " in m for m in messages)
    assert any("sample 0 " not in m for m in messages)


def test_hstar_word_is_the_one_row_stack():
    S = get_entry("sl3_dj_levi").setup()
    coords = np.random.default_rng(2).uniform(-1, 1, (5, S.dim_H))
    words, ads = reduction._hstar_words(S, coords, reduction._hstar_generators(S, coords))
    assert not ads.flags.writeable
    for x, w, ad in zip(coords, words, ads):
        one = hstar_word(S, x)
        assert one.ad.tobytes() == w.ad.tobytes() == ad.tobytes()
        np.testing.assert_array_equal(one.factors[0], w.factors[0])


def _ad_norm(S, coords):
    """‖ad_x‖₁ of the draw x with these H* coordinates."""
    return float(np.abs(reduction._hstar_generators(S, coords[None])[0]).sum(axis=0).max())


def test_draw_past_the_ad_bound_is_a_miss_before_expm(monkeypatch):
    """A draw whose bound e^{2‖ad_x‖₁} on cond₁(Ad_λ) exceeds
    bounds.MAX_AD_COND is a miss that never reaches expm; the others are
    tested as before, so the sampler keeps exactly the loop's points among
    the tame draws, and a bound no draw meets exhausts it."""
    e = get_entry("sl3_dj_levi")
    S = e.setup()
    rng = np.random.Generator(np.random.PCG64(e.seed))
    coords = rng.uniform(-1, 1, (40, S.dim_H))
    limit = float(np.median([_ad_norm(S, x) for x in coords]))
    monkeypatch.setattr(bounds, "MAX_AD_COND", float(np.exp(2 * limit)))
    exponentiated = []
    original = reduction._hstar_words

    def counting(S_, coords_, gen):
        exponentiated.extend(coords_)
        return original(S_, coords_, gen)

    monkeypatch.setattr(reduction, "_hstar_words", counting)
    words = sample_hstar_points(S, 5, e.seed).words
    assert all(_ad_norm(S, x) <= limit for x in exponentiated)
    # the loop, with the tame test in front of the second-class test
    rng = np.random.Generator(np.random.PCG64(e.seed))
    want, misses = [], 0
    while len(want) < 5:
        x = rng.uniform(-1, 1, S.dim_H)
        if _ad_norm(S, x) <= limit and check_second_class(constraint_matrix(S, hstar_word(S, x))):
            want.append(x @ S.Hdual)
        else:
            misses += 1
    assert misses > 0
    np.testing.assert_array_equal([w.factors[0] for w in words], want)
    monkeypatch.setattr(bounds, "MAX_AD_COND", 1.0)
    exponentiated.clear()
    with pytest.raises(SamplingExhaustedError, match="sample 0 "):
        sample_hstar_points(S, 5, e.seed)
    assert exponentiated == []


def test_non_finite_slice_has_infinite_cond():
    """A slice whose Ad or C is not finite gets cond inf without an SVD, so
    it is not second class; the other slices keep the bytes they have
    alone."""
    S = get_entry("sl3_dj_cartan").setup()
    coords = np.random.default_rng(4).uniform(-1, 1, (3, S.dim_H))
    _, ads = reduction._hstar_words(S, coords, reduction._hstar_generators(S, coords))
    bad = np.array(ads)
    bad[1, 0, 0] = np.inf
    bad[2, -1, -1] = np.nan  # outside the columns C reads
    block, disagree = reduction._build_constraint_matrices(S, bad)
    alone, _ = reduction._build_constraint_matrices(S, ads[:1])
    assert not disagree.any()
    assert block.entries[:1].tobytes() == alone.entries.tobytes()
    assert block.cond[0] == alone.cond[0] < np.inf
    for b in (1, 2):
        assert block.cond[b] == np.inf
        assert not check_second_class(block[b:b + 1])


@pytest.mark.parametrize("num_points", [0, -3])
def test_regression_sample_of_no_points_is_refused(num_points):
    """A sample of fewer than one point is an input error, as on the command
    line, not an empty stack that each suite fails on in its own way."""
    S = get_entry("sl3_dj_levi").setup()
    with pytest.raises(InputShapeError, match=f"num_points must be at least 1, got {num_points}"):
        sample_hstar_points(S, num_points, 1)


def test_disagreeing_pairing_forms_raise_when_reached(monkeypatch):
    """A slice whose two pairing forms of C disagree past
    bounds.FORM_AGREE_TOL raises ConsistencyError, with its disagreement,
    when the sampler or constraint_matrix reaches it."""
    S = get_entry("sl3_dj_levi").setup()
    monkeypatch.setattr(bounds, "FORM_AGREE_TOL", -1.0)
    with pytest.raises(ConsistencyError, match="the two pairing forms of C disagree by"):
        sample_hstar_points(S, 3, 1)
    with pytest.raises(ConsistencyError, match="the two pairing forms of C disagree by"):
        constraint_matrix(S, hstar_word(S, np.full(S.dim_H, 0.3)))
