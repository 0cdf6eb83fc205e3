"""The two paths of the Jacobi and cocycle certificates, and the double's
residuals that build_double no longer computes.

jacobi_residual and cocycle_residual either loop densely over a first index
or form only the nonzero products of the tables and sum them by key; the
table decides which.  Each path is forced here on the same inputs and
compared with an einsum reference, at four ulps of the size of the summed
products.
"""

import numpy as np
import pytest

from plrmat import bialgebra_double, bounds, lie_core
from plrmat.bialgebra_double import build_double, derive_cobracket
from plrmat.catalog import get_entry, list_entries
from plrmat.lie_core import LieAlgebra, _jacobi_dense, _jacobi_sparse, _nonzeros

from test_bialgebra_double import full_subspace, sl_n_standard
from test_hot_path import _einsum_jacobi, _orbit_cases, skewed_levi_setup
from test_lie_core import sl3_in_dense_basis

EPS = np.finfo(float).eps


def generated_bialgebra(n):
    G, R = sl_n_standard(n)
    return derive_cobracket(G, R, full_subspace(G.dim))


def _jacobi_cases():
    """Tables with a scale each: the Jacobiator of |c| bounds every sum."""
    for label, c, scale in _orbit_cases():
        if label != "dense basis":  # dim⁵ products at dim 16: covered at dim 8 below
            yield label, c, scale
    c = sl3_in_dense_basis(3).c
    yield "dense sl3 basis", c, _einsum_jacobi(np.abs(c))
    S = skewed_levi_setup()
    for A in (S.G, S.bialgebra.K, S.bialgebra.Kstar, S.double.D):
        yield "skewed", A.c, _einsum_jacobi(np.abs(A.c))
    for n in (4, 5):
        B = generated_bialgebra(n)
        for A in (B.K, B.Kstar):
            yield f"sl{n}", A.c, _einsum_jacobi(np.abs(A.c))


@pytest.mark.parametrize("label,c,scale", list(_jacobi_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_both_jacobi_paths_match_einsum(label, c, scale):
    want = _einsum_jacobi(c)
    n = c.shape[0]
    for got in (_jacobi_dense(c), _jacobi_sparse(_nonzeros(c), n)):
        assert abs(got - want) <= 4 * EPS * scale, (label, got, want)


def test_jacobi_paths_agree_on_sl6():
    # sl6's tables hold small integers and halves: both sums are exact
    B = generated_bialgebra(6)
    for A in (B.K, B.Kstar):
        bad = A.c.copy()
        bad[0, 1, 2] += 0.5  # a nonzero Jacobiator, still exactly summed
        for c in (A.c, bad):
            assert _jacobi_dense(c) == _jacobi_sparse(_nonzeros(c), c.shape[0])


def _einsum_cocycle(c, cb):
    """(max-norm of the cocycle defect over pairs i < j, the same sum taken
    over the absolute values of its terms)."""
    n = c.shape[0]
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    t1 = np.einsum("ijm,mab->ijab", c, cb)
    t = np.einsum("ima,jmb->ijab", c, cb) + np.einsum("jam,imb->ijab", cb, c)
    defect = t1 - t + t.transpose(1, 0, 2, 3)
    a, ab = np.abs(c), np.abs(cb)
    t = np.einsum("ima,jmb->ijab", a, ab) + np.einsum("jam,imb->ijab", ab, a)
    scale = np.einsum("ijm,mab->ijab", a, ab) + t + t.transpose(1, 0, 2, 3)
    return float(np.max(np.abs(defect[upper]), initial=0.0)), float(np.max(scale[upper], initial=0.0))


def _cocycle_cases():
    rng = np.random.default_rng(21)
    algebras = [(name, get_entry(name).setup().bialgebra) for name in list_entries()]
    algebras.append(("skewed", skewed_levi_setup().bialgebra))
    algebras += [(f"sl{n}", generated_bialgebra(n)) for n in (4, 5)]
    for label, B in algebras:
        yield label, B.K.c, B.cobracket
        # a sparse corruption of the cobracket, not antisymmetrised
        bad = B.cobracket.copy()
        n = bad.shape[0]
        bad[rng.integers(n), rng.integers(n), rng.integers(n)] += 1e-3
        bad[0, 0, n - 1] -= 1e-3
        yield label + " cobracket corrupted", B.K.c, bad
        # a bracket with a diagonal entry: the pair (i, i) is no pair j > i
        c = B.K.c.copy()
        c[0, 0, n - 1] += 1e-3
        yield label + " bracket corrupted", c, B.cobracket


@pytest.mark.parametrize("label,c,cb", list(_cocycle_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_both_cocycle_paths_match_einsum(label, c, cb):
    want, scale = _einsum_cocycle(c, cb)
    n = c.shape[0]
    paths = (bialgebra_double._cocycle_dense(c, cb),
             bialgebra_double._cocycle_sparse(_nonzeros(c), _nonzeros(cb), n))
    for got in paths:
        assert abs(got - want) <= 4 * EPS * scale, (label, got, want)
    if label.endswith("cobracket corrupted") and c.any():
        assert want > 1e-4


def test_cocycle_paths_agree_on_sl6():
    B = generated_bialgebra(6)
    c, n = B.K.c, B.K.dim
    bad = B.cobracket.copy()
    bad[3, 1, 2] += 0.5
    for cb in (B.cobracket, bad):
        assert bialgebra_double._cocycle_dense(c, cb) == bialgebra_double._cocycle_sparse(
            _nonzeros(c), _nonzeros(cb), n)


def _spy(monkeypatch, module, *names):
    calls = []
    for name in names:
        original = getattr(module, name)

        def spy(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, spy)
    return calls


def test_the_table_chooses_the_path(monkeypatch):
    """Tiny and dense tables take the loop; root-basis tables from sl3 up take
    the nonzero products for the Jacobiator, from sl4 up for the cocycle."""
    calls = _spy(monkeypatch, lie_core, "_jacobi_dense", "_jacobi_sparse")
    sl2 = get_entry("sl2_dj").setup()
    sl3 = get_entry("sl3_dj_levi").setup()
    for A, want in ((sl2.G, "_jacobi_dense"), (sl3.G, "_jacobi_sparse"),
                    (sl3.bialgebra.Kstar, "_jacobi_sparse"),
                    (generated_bialgebra(5).Kstar, "_jacobi_sparse"),
                    (sl3_in_dense_basis(3), "_jacobi_dense")):
        calls.clear()
        A.jacobi_residual()
        assert calls == [want]
    calls = _spy(monkeypatch, bialgebra_double, "_cocycle_dense", "_cocycle_sparse")
    for B, want in ((sl3.bialgebra, "_cocycle_dense"),
                    (generated_bialgebra(4), "_cocycle_sparse"),
                    (generated_bialgebra(5), "_cocycle_sparse")):
        calls.clear()
        B.cocycle_residual()
        assert calls == [want]


def test_dense_table_takes_the_loop_without_forming_products(monkeypatch):
    calls = _spy(monkeypatch, lie_core, "_nonzeros")
    rng = np.random.default_rng(5)
    c = rng.normal(size=(24, 24, 24))
    LieAlgebra(c - np.swapaxes(c, 0, 1), jacobi_tol=np.inf).jacobi_residual()
    assert calls == []


def _doubles():
    for name in list_entries():
        S = get_entry(name).setup()
        yield name, S.bialgebra, S.double
    S = skewed_levi_setup()
    yield "skewed", S.bialgebra, S.double
    for n in (4, 5):
        B = generated_bialgebra(n)
        yield f"sl{n}", B, build_double(B)


@pytest.mark.parametrize("label,B,double", list(_doubles()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_double_residuals_are_the_antisymmetry_of_k_and_kstar(label, B, double):
    """Why build_double checks nothing: its pairing's ad-invariance and its
    table's antisymmetry are, bit for bit, the larger antisymmetry defect of
    K and K*, which derive_cobracket bounds by bounds.ANTISYM_TOL."""
    want = max(B.K.antisymmetry_residual(), B.Kstar.antisymmetry_residual())
    assert double.invariance_residual() == double.D.antisymmetry_residual() == want
    assert want <= bounds.ANTISYM_TOL
    if label == "skewed":  # the identity holds on a nonzero value, not only 0 == 0
        assert want > 0.0

