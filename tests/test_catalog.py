"""Catalog entries: structural soundness and export round-trips."""

import json
import time

import numpy as np
import pytest

from plrmat.catalog import (
    SL2_LABELS,
    SL2_TABLE,
    CatalogEntry,
    export_entry,
    get_entry,
    list_entries,
    load_entry,
)
from plrmat.errors import SpecFileError, UnknownEntryError
from plrmat.lie_core import cybe_lhs, invariance_residual3
from plrmat.specio import parse_spec

from test_lie_core import alternation_residual


class TestEntries:
    def test_expected_names(self):
        assert list_entries() == [
            "abelian2",
            "sl2_classical",
            "sl2_dj",
            "sl3_dj_cartan",
            "sl3_dj_levi",
        ]

    def test_unknown_entry(self):
        with pytest.raises(UnknownEntryError):
            get_entry("so8")

    def test_every_entry_validates_quickly(self):
        for name in list_entries():
            t0 = time.perf_counter()
            s = load_entry(name)
            assert time.perf_counter() - t0 < 1.0
            assert s.G.jacobi_residual() <= 1e-10
            assert s.G.antisymmetry_residual() <= 1e-12
            assert s.double.invariance_residual() <= 1e-10
            assert max(s.closure_pairing_residuals()) <= 1e-10

    def test_abelian2_is_trivial_reduction(self):
        s = load_entry("abelian2")
        assert s.dim_M == 0 and s.dim_H == 2
        assert np.all(s.G.c == 0.0)

    def test_sl2_classical_has_abelian_dual(self):
        s = load_entry("sl2_classical")
        assert np.all(s.bialgebra.Kstar.c == 0.0)

    def test_sl3_structure_constants_exact(self):
        g = parse_spec(export_entry("sl3_dj_levi"))["G"]
        assert g.jacobi_residual() == 0.0
        assert g.antisymmetry_residual() == 0.0
        h1, h2, e1, e2, e3, f1, f2, f3 = np.eye(8)
        np.testing.assert_array_equal(g.bracket(e1, e2), e3)
        np.testing.assert_array_equal(g.bracket(e3, f3), h1 + h2)
        np.testing.assert_array_equal(g.bracket(e1, f3), -f2)

    def test_sl3_anomaly_invariant(self):
        s = load_entry("sl3_dj_cartan")
        anomaly = cybe_lhs(s.G, s.R)
        assert np.max(np.abs(anomaly)) > 0.01
        assert alternation_residual(anomaly) <= 1e-12
        assert invariance_residual3(s.G, anomaly) <= 1e-10 * (1.0 + np.max(np.abs(anomaly)))

    def test_levi_setup_dimensions(self):
        s = load_entry("sl3_dj_levi")
        assert s.dim_H == 4 and s.dim_M == 4
        # the small double of the gl2-type subalgebra is nonabelian
        assert np.max(np.abs(s.sub_double.D.c)) > 1.0

    def test_unregistered_entry_goes_through_the_parser(self):
        # [e, h] = -2e written with i > j: the parser rejects the orientation
        # that the table convention forbids
        table = ((1, 0, 1, -2.0), *SL2_TABLE[1:])
        entry = CatalogEntry(
            name="sl2_flipped", notes="", table=table, labels=SL2_LABELS, r_pairs=(),
            k_rows=np.eye(3).tolist(), h_rows=[[1.0, 0.0, 0.0]],
            m_rows=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], seed=6, num_points=10,
        )
        with pytest.raises(SpecFileError) as info:
            entry.setup()
        assert info.value.condition == "algebra.structure_constants"


class TestExport:
    def test_round_trip_dimensions(self):
        for name in list_entries():
            e = get_entry(name)
            s = load_entry(name)
            assert s.G.dim == len(e.labels)
            assert s.dim_H == len(e.h_rows)
            assert s.dim_M == len(e.m_rows)

    def test_export_carries_certified_parameters(self):
        for name in list_entries():
            e = get_entry(name)
            doc = export_entry(name)
            assert doc["sampling"]["seed"] == e.seed
            assert doc["sampling"]["num_points"] == e.num_points
            assert doc["tolerances"]["cond_threshold"] == e.cond_threshold

    def test_export_shares_no_list_with_the_entry(self):
        # an edited export must leave the entry, and every later export, alone
        for name in list_entries():
            want = json.dumps(export_entry(name))
            doc = export_entry(name)
            rows = doc["algebra"]["structure_constants"] + [doc["algebra"]["basis_labels"]]
            for key in ("subalgebra_K", "subalgebra_H", "complement_M", "r_matrix"):
                rows += doc[key]
            for row in rows:
                row[0] = "edited"
            assert json.dumps(export_entry(name)) == want
