"""Input-schema parsing: accepted documents, first-failure diagnostics."""

import json

import numpy as np
import pytest

from plrmat import bounds
from plrmat.catalog import export_entry, list_entries
from plrmat.cli import main
from plrmat.errors import NotSubBialgebraError, SpecFileError
from plrmat.lie_core import LieAlgebra
from plrmat.specio import build_setup, dumps_canonical, input_digest, parse_spec


def sl2_doc(**overrides):
    doc = {
        "schema_version": "1",
        "scalars": "real",
        "algebra": {
            "dim": 3,
            "structure_constants": [[0, 1, 1, 2.0], [0, 2, 2, -2.0], [1, 2, 0, 1.0]],
            "basis_labels": ["h", "e", "f"],
        },
        "r_matrix": [[1, 2, 0.5]],
        "subalgebra_K": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "subalgebra_H": [[1, 0, 0]],
        "complement_M": [[0, 1, 0], [0, 0, 1]],
    }
    doc.update(overrides)
    return doc


def first_condition(doc):
    with pytest.raises(SpecFileError) as err:
        parse_spec(doc)
    return err.value.condition


class TestParse:
    def test_valid_document_round_trips(self):
        parsed = parse_spec(sl2_doc())
        assert parsed["G"].dim == 3
        assert parsed["R"][1, 2] == 0.5
        assert parsed["R"][2, 1] == -0.5
        setup = build_setup(parsed)
        assert setup.dim_M == 2

    def test_defaults_filled(self):
        parsed = parse_spec(sl2_doc())
        assert parsed["tolerances"]["cond_threshold"] == 1e8
        assert parsed["sampling"]["num_points"] == 10

    def test_empty_complement_allowed(self):
        doc = sl2_doc(subalgebra_H=[[1, 0, 0], [0, 1, 0], [0, 0, 1]], complement_M=[])
        setup = build_setup(parse_spec(doc))
        assert setup.dim_M == 0

    def test_version_checked(self):
        assert first_condition(sl2_doc(schema_version="2")) == "schema_version"

    def test_scalars_checked(self):
        assert first_condition(sl2_doc(scalars="complex")) == "scalars"

    def test_structure_constant_triplets_validated(self):
        base = sl2_doc()
        bad = dict(base, algebra=dict(base["algebra"], structure_constants=[[1, 0, 1, 2.0]]))
        assert first_condition(bad) == "algebra.structure_constants"
        bad = dict(base, algebra=dict(base["algebra"],
                                      structure_constants=[[0, 1, 5, 2.0]]))
        assert first_condition(bad) == "algebra.structure_constants"
        bad = dict(base, algebra=dict(base["algebra"],
                                      structure_constants=[[0, 1, 1, 2.0], [0, 1, 1, 3.0]]))
        assert first_condition(bad) == "algebra.structure_constants"
        # numpy reads a bool index as a mask, not as 0 or 1
        bad = dict(base, algebra=dict(base["algebra"],
                                      structure_constants=[[False, True, 1, 2.0]]))
        assert first_condition(bad) == "algebra.structure_constants"

    @pytest.mark.parametrize("dim", [0, -1, 3.0, True, "3"])
    def test_dimension_is_a_positive_integer(self, dim):
        base = sl2_doc()
        bad = dict(base, algebra=dict(base["algebra"], dim=dim))
        assert first_condition(bad) == "algebra.dim"

    def test_jacobi_violation_reported_as_algebra(self):
        base = sl2_doc()
        bad = dict(base, algebra=dict(base["algebra"],
                                      structure_constants=[[0, 1, 1, 2.0], [0, 2, 2, -2.0],
                                                           [1, 2, 0, 1.0], [1, 2, 1, 1.0]]))
        assert first_condition(bad) == "algebra"

    def test_r_matrix_orientation(self):
        assert first_condition(sl2_doc(r_matrix=[[2, 1, 0.5]])) == "r_matrix"
        assert first_condition(sl2_doc(r_matrix=[[1, 1, 0.5]])) == "r_matrix"
        assert first_condition(sl2_doc(r_matrix=[[True, 2, 0.5]])) == "r_matrix"

    @pytest.mark.parametrize("value", ["x", "0.5", True, None, [1.0]])
    def test_values_must_be_numbers(self, value):
        """Structure constants, r-matrix values and basis-row entries are ints
        or floats: a string or a bool is not read as the number it spells."""
        base = sl2_doc()
        bad = dict(base, algebra=dict(base["algebra"],
                                      structure_constants=[[0, 1, 1, value]]))
        assert first_condition(bad) == "algebra.structure_constants"
        assert first_condition(sl2_doc(r_matrix=[[1, 2, value]])) == "r_matrix"
        for key in ("subalgebra_K", "subalgebra_H", "complement_M"):
            rows = [list(r) for r in sl2_doc()[key]]
            rows[-1][-1] = value
            assert first_condition(sl2_doc(**{key: rows})) == key

    def test_integer_values_are_numbers(self):
        parsed = parse_spec(sl2_doc(r_matrix=[[1, 2, 1]]))
        assert parsed["R"][1, 2] == 1.0

    def test_row_length_checked(self):
        assert first_condition(sl2_doc(subalgebra_H=[[1, 0]])) == "subalgebra_H"

    def test_missing_field(self):
        doc = sl2_doc()
        del doc["subalgebra_K"]
        assert first_condition(doc) == "subalgebra_K"

    def test_bad_sampling_types(self):
        assert first_condition(sl2_doc(sampling={"seed": "six"})) == "sampling"
        for bad in (
            {"num_points": 0},
            {"num_points": -3},
            {"num_points": 2.0},
            {"box_radius": "x"},
            {"box_radius": 0.0},
            {"box_radius": -1.0},
            {"box_radius": float("inf")},
            {"box_radius": float("nan")},
            {"box_radius": True},
            {"seed": True},
            {"seed": -5},
            {"num_points": True},
            {"num_points": False},
            # the sampler stacks its draws: a count past the bound is refused
            {"num_points": 2**70},
            {"num_points": bounds.MAX_NUM_POINTS + 1},
        ):
            assert first_condition(sl2_doc(sampling=bad)) == "sampling", bad
        parsed = parse_spec(sl2_doc(sampling={"num_points": 1, "box_radius": 2}))
        assert parsed["sampling"]["num_points"] == 1
        parsed = parse_spec(sl2_doc(sampling={"num_points": bounds.MAX_NUM_POINTS}))
        assert parsed["sampling"]["num_points"] == bounds.MAX_NUM_POINTS
        assert first_condition(sl2_doc(sampling=[1])) == "sampling"

    def test_bad_tolerances(self):
        for bad in (
            [1],
            "1e-10",
            {"jacobi": "x"},
            {"jacobi": -1},
            {"jacobi": 0},
            {"residual": None},
            {"residual": float("nan")},
            {"cond_threshold": "big"},
            {"cond_threshold": float("inf")},
            {"jacobi": True},
            {"residual": True},
            {"cond_threshold": True},
        ):
            assert first_condition(sl2_doc(tolerances=bad)) == "tolerances", bad
        parsed = parse_spec(sl2_doc(tolerances={"jacobi": 1e-12, "residual": 1}))
        assert parsed["tolerances"]["jacobi"] == 1e-12
        assert parsed["tolerances"]["cond_threshold"] == 1e8


def test_spec_jacobi_tolerance_bounds_g_and_kstar(monkeypatch):
    """tolerances.jacobi bounds the Jacobi checks of G and K* and the cocycle check,
    which together certify the double D(K, K*)."""
    S = build_setup(parse_spec(sl2_doc(tolerances={"jacobi": 1e-12})))
    assert S.G.jacobi_tol == S.bialgebra.Kstar.jacobi_tol == 1e-12
    assert S.bialgebra.cocycle_tol == 1e-12
    # every Jacobiator of sl2 is exact; report 5e-11 for each one computed
    parsed = parse_spec(sl2_doc())
    monkeypatch.setattr(LieAlgebra, "jacobi_residual", lambda self: 5e-11)
    assert build_setup(parse_spec(sl2_doc())).double.dim == 6
    assert first_condition(sl2_doc(tolerances={"jacobi": 1e-11})) == "algebra"
    # G parsed before the patch: K* is the one Jacobiator build_setup computes
    parsed["tolerances"]["jacobi"] = 1e-11
    with pytest.raises(NotSubBialgebraError, match="dual bracket"):
        build_setup(parsed)


BIG = 10**400  # an int past the float range

# (entry, the detail of the SpecFileError it raises as the second of three)
BAD_TRIPLETS = [
    ([0, 2, 2, True], "entry 1: value must be a number, got True"),
    ([0, 2, 2, "x"], "entry 1: value must be a number, got 'x'"),
    ([0, 2, 2, None], "entry 1: value must be a number, got None"),
    ([0, 2, 2, float("nan")], "entry 1: value must be a finite number, got nan"),
    ([0, 2, 2, float("inf")], "entry 1: value must be a finite number, got inf"),
    ([0, 2, 2, BIG], f"entry 1: value must be a finite number, got {BIG!r}"),
    ([0, 1, 1, 3.0], "entry 1: duplicate index triple (0, 1, 1)"),
    ([1, 1, 0, 1.0], "entry 1: requires i < j (antisymmetry is completed automatically)"),
    ([2, 1, 0, 1.0], "entry 1: requires i < j (antisymmetry is completed automatically)"),
    ([0, 1, 3, 1.0], "entry 1: index out of range 0..2"),
    ([-1, 1, 0, 1.0], "entry 1: index out of range 0..2"),
    ([0, 1, BIG, 1.0], "entry 1: index out of range 0..2"),
    ([False, True, 1, 2.0], "entry 1: indices must be integers"),
    ([0, 1.0, 1, 2.0], "entry 1: indices must be integers"),
    ([0, 1, 1], "entry 1 must be [i, j, k, value]"),
    ("0 1 1 2", "entry 1 must be [i, j, k, value]"),
]
BAD_R_ENTRIES = [
    ([0, 2, True], "entry 1: value must be a number, got True"),
    ([0, 2, "0.5"], "entry 1: value must be a number, got '0.5'"),
    ([0, 2, float("nan")], "entry 1: value must be a finite number, got nan"),
    ([0, 2, float("-inf")], "entry 1: value must be a finite number, got -inf"),
    ([0, 2, -BIG], f"entry 1: value must be a finite number, got {-BIG!r}"),
    ([1, 2, 0.25], "entry 1: duplicate index pair (1, 2)"),
    ([2, 2, 0.5], "entry 1: requires a < b (antisymmetry is completed automatically)"),
    ([2, 0, 0.5], "entry 1: requires a < b (antisymmetry is completed automatically)"),
    ([0, 3, 0.5], "entry 1: index out of range 0..2"),
    ([BIG, 2, 0.5], "entry 1: index out of range 0..2"),
    ([True, 2, 0.5], "entry 1: indices must be integers"),
    ([0, 2.0, 0.5], "entry 1: indices must be integers"),
    ([0, 1, 2, 0.5], "entry 1 must be [a, b, value]"),
    ({"a": 0}, "entry 1 must be [a, b, value]"),
]
BAD_ROWS = [
    ([0, True, 0], "row 1: value must be a number, got True"),
    ([0, "1", 0], "row 1: value must be a number, got '1'"),
    ([0, [1], 0], "row 1: value must be a number, got [1]"),
    ([0, float("nan"), 0], "row 1: value must be a finite number, got nan"),
    ([0, float("inf"), 0], "row 1: value must be a finite number, got inf"),
    ([0, BIG, 0], f"row 1: value must be a finite number, got {BIG!r}"),
    ([0, 1], "row 1 must be a vector of length 3"),
    (5, "row 1 must be a vector of length 3"),
]


def malformed_docs():
    """(document, condition, detail): each bad entry second, after a good
    one and before one that is bad in another way, which must not be the
    one reported."""
    base = sl2_doc()
    for bad, detail in BAD_TRIPLETS:
        triplets = [[0, 1, 1, 2.0], bad, [2, 0, 0, "later"]]
        doc = dict(base, algebra=dict(base["algebra"], structure_constants=triplets))
        yield doc, "algebra.structure_constants", detail
    for bad, detail in BAD_R_ENTRIES:
        yield sl2_doc(r_matrix=[[1, 2, 0.5], bad, [0, 0, 0.0]]), "r_matrix", detail
    for key in ("subalgebra_K", "subalgebra_H", "complement_M"):
        for bad, detail in BAD_ROWS:
            rows = [list(r) for r in base[key]]
            yield sl2_doc(**{key: [rows[0], bad, *rows[1:], ["later", 0, 0]]}), key, detail


@pytest.mark.parametrize("doc,condition,detail", list(malformed_docs()))
def test_first_malformed_entry_is_named(doc, condition, detail, tmp_path, capsys):
    """The one-step conversion refuses every malformed entry, and the
    per-entry check then names the first one; the CLI exits 2."""
    with pytest.raises(SpecFileError) as err:
        parse_spec(doc)
    assert (err.value.condition, err.value.detail) == (condition, detail)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--input", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["detail"] == detail


def per_entry_arrays(doc):
    """c, R and the basis rows built one entry at a time, as the parser once did."""
    dim = doc["algebra"]["dim"]
    c = np.zeros((dim, dim, dim))
    for i, j, k, v in doc["algebra"]["structure_constants"]:
        c[i, j, k] += float(v)
        c[j, i, k] -= float(v)
    r = np.zeros((dim, dim))
    for a, b, v in doc["r_matrix"]:
        r[a, b] += float(v)
        r[b, a] -= float(v)
    rows = [np.array([[float(x) for x in row] for row in doc[key]]).reshape(-1, dim)
            for key in ("subalgebra_K", "subalgebra_H", "complement_M")]
    return [c, r, *rows]


def _signed_zero_doc():
    """Zeros of both signs, ints and an int past 2**53 (rounded) among the values."""
    doc = sl2_doc(r_matrix=[[0, 1, 0.0], [0, 2, -0.0], [1, 2, 2**53 + 1]],
                  subalgebra_K=[[1, -0.0, 0.0], [0, 1, 0], [0.0, 0, 3]])
    doc["algebra"] = dict(doc["algebra"], structure_constants=[
        [0, 1, 1, 2], [0, 2, 2, -2.0], [1, 2, 0, 1.0], [0, 1, 0, -0.0], [1, 2, 2, 0.0]])
    return doc


@pytest.mark.parametrize("doc", [export_entry(name) for name in list_entries()]
                         + [_signed_zero_doc()])
def test_one_step_parse_is_bit_identical_to_per_entry(doc):
    parsed = parse_spec(doc)
    got = [parsed["G"].c, parsed["R"], parsed["K"].basis, parsed["H"].basis, parsed["M"].basis]
    for a, b in zip(got, per_entry_arrays(doc)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSerialization:
    def test_digest_is_stable(self):
        raw = b'{"x": 1}'
        assert input_digest(raw) == input_digest(raw)
        assert input_digest(raw).startswith("sha256:")

    def test_canonical_numbers(self):
        assert dumps_canonical(1.0) == "1"
        assert dumps_canonical(0.5) == "0.5"
        assert dumps_canonical(1 / 3) == "0.33333333333333331"
        assert dumps_canonical(np.float64(2.5)) == "2.5"
        assert dumps_canonical(np.int64(7)) == "7"

    def test_arrays_serialized_as_lists(self):
        text = dumps_canonical({"m": np.eye(2)})
        assert "[" in text and "1" in text

    def test_key_ordering_deterministic(self):
        a = dumps_canonical({"z": 1, "a": 2, "m": 3})
        b = dumps_canonical({"m": 3, "a": 2, "z": 1})
        assert a == b
