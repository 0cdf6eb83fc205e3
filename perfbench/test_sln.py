"""The generated sl2 and sl3 agree with the catalog's hand-written tables.

The catalog tables stay the reference: the generator's structure constants,
standard R and Cartan closed form for rho must equal the catalog's after the
change of basis that names each catalog element as a matrix unit.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import numpy as np
import pytest

import checks
import sln
from plrmat.catalog import (
    SL2_LABELS,
    SL2_TABLE,
    SL3_LABELS,
    SL3_TABLE,
    structure_constants_from_table,
)
from plrmat.specio import build_setup, parse_spec

# catalog element -> generated basis element; e3 = [e1, e2] = E13
CASES = {
    2: (SL2_LABELS, SL2_TABLE, {"h": "H1", "e": "E12", "f": "E21"}, "sl2_dj", ((1, 2),)),
    3: (
        SL3_LABELS,
        SL3_TABLE,
        {"h1": "H1", "h2": "H2", "e1": "E12", "e2": "E23", "e3": "E13",
         "f1": "E21", "f2": "E32", "f3": "E31"},
        "sl3_dj_cartan",
        ((2, 5), (3, 6), (4, 7)),
    ),
}


def change_of_basis(n):
    """Rows: the catalog basis elements in generated coordinates."""
    cat_labels, _, names, _, _ = CASES[n]
    gen = sln.labels(n)
    t = np.zeros((len(gen), len(gen)))
    for row, label in enumerate(cat_labels):
        t[row, gen.index(names[label])] = 1.0
    return t


@pytest.mark.parametrize("n", sorted(CASES))
def test_structure_constants_match_catalog(n):
    _, table, _, _, _ = CASES[n]
    t = change_of_basis(n)
    dim = n * n - 1
    c_cat = structure_constants_from_table(dim, table)
    c_gen = sln.structure_constants(n)
    # [T x_i, T x_j] in the generated algebra equals T applied to [x_i, x_j] in the catalog's
    lhs = np.einsum("ia,jb,abk->ijk", t, t, c_gen)
    rhs = np.einsum("ijk,kl->ijl", c_cat, t)
    np.testing.assert_array_equal(lhs, rhs)


@pytest.mark.parametrize("n", sorted(CASES))
def test_standard_r_and_closed_form_match_catalog(n):
    _, _, _, entry, pairs = CASES[n]
    t = change_of_basis(n)
    dim = n * n - 1
    r_cat = np.zeros((dim, dim))
    for e, f in pairs:
        r_cat[e, f], r_cat[f, e] = 0.5, -0.5
    r_gen = np.zeros((dim, dim))
    for a, b, v in sln.spec(n, 0, 1)["r_matrix"]:
        r_gen[a, b], r_gen[b, a] = v, -v
    np.testing.assert_array_equal(t.T @ r_cat @ t, r_gen)
    x = np.random.default_rng(n).uniform(-1, 1, n - 1)
    want = t.T @ checks.catalog_closed_form(entry, x) @ t
    np.testing.assert_allclose(sln.cartan_rho(n, x), want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spec_validates(n):
    setup = build_setup(parse_spec(sln.spec(n, 0, 1)))
    assert setup.G.dim == n * n - 1
    assert (setup.dim_H, setup.dim_M) == (n - 1, n * (n - 1))
