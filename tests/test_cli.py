"""End-to-end CLI tests: exit codes, diagnostics, report determinism."""

import argparse
import importlib.util
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import plrmat
from plrmat import bounds
from plrmat import cli as cli_module
from plrmat import verify as verify_module
from plrmat.catalog import export_entry
from plrmat.cli import main, make_parser
from plrmat.lie_core import LieAlgebra
from plrmat.specio import dumps_canonical, parse_spec
from plrmat.verify import SUITES


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def minimal_sl2(h_row, m_rows, r=((1, 2, 0.5),)):
    return {
        "schema_version": "1",
        "scalars": "real",
        "algebra": {
            "dim": 3,
            "structure_constants": [[0, 1, 1, 2.0], [0, 2, 2, -2.0], [1, 2, 0, 1.0]],
            "basis_labels": ["h", "e", "f"],
        },
        "r_matrix": [list(x) for x in r],
        "subalgebra_K": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "subalgebra_H": [list(h_row)],
        "complement_M": [list(z) for z in m_rows],
        "tolerances": {"cond_threshold": 2.5},
        "sampling": {"seed": 6, "num_points": 5, "box_radius": 1.0},
    }


class TestValidate:
    def test_catalog_entry_by_name(self, capsys):
        code, out, err = run(["validate", "--input", "abelian2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True

    def test_exported_file(self, tmp_path, capsys):
        path = tmp_path / "entry.json"
        code, out, _ = run(["catalog", "--export", "abelian2", "--output", str(path)], capsys)
        assert code == 0
        code, out, _ = run(["validate", "--input", str(path)], capsys)
        assert code == 0

    def test_bad_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{не json")
        code, _, err = run(["validate", "--input", str(path)], capsys)
        assert code == 2
        diag = json.loads(err)
        assert diag["error"] == "SpecFileError"
        assert diag["condition"] == "json"

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        doc = minimal_sl2((1, 0, 0), [(0, 1, 0), (0, 0, 1)])
        doc["r_matrix"] = [[2, 1, 0.5]]  # indices not increasing
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["validate", "--input", str(path)], capsys)
        assert code == 2
        assert json.loads(err)["condition"] == "r_matrix"

    def test_non_numeric_structure_constant_exits_2(self, tmp_path, capsys):
        doc = minimal_sl2((1, 0, 0), [(0, 1, 0), (0, 0, 1)])
        doc["algebra"]["structure_constants"][0][3] = "x"
        path = tmp_path / "nonnumeric.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["validate", "--input", str(path)], capsys)
        assert code == 2
        diag = json.loads(err)
        assert diag["error"] == "SpecFileError"
        assert diag["condition"] == "algebra.structure_constants"

    def test_validation_failure_exits_3(self, tmp_path, capsys):
        # span{e} is not a reductive residual subalgebra choice
        doc = minimal_sl2((0, 1, 0), [(1, 0, 0), (0, 0, 1)])
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["validate", "--input", str(path)], capsys)
        assert code == 3
        assert json.loads(err)["error"] == "ReductivityError"

    def test_jacobi_residual_is_the_one_parse_computed(self, capsys, monkeypatch):
        calls = []
        jacobi_residual = LieAlgebra.jacobi_residual

        def counting(self):
            calls.append(self.dim)
            return jacobi_residual(self)

        monkeypatch.setattr(LieAlgebra, "jacobi_residual", counting)
        code, out, _ = run(["validate", "--input", "sl3_dj_levi"], capsys)
        assert code == 0
        # G while parsing, K* in validate_setup; the report reads G's
        assert len(calls) == 2
        G = parse_spec(export_entry("sl3_dj_levi"))["G"]
        assert json.loads(out)["jacobi_residual"] == jacobi_residual(G)

    def test_unknown_input_exits_2(self, capsys):
        code, _, err = run(["validate", "--input", "no_such_entry"], capsys)
        assert code == 2

    def test_directory_input_exits_2(self, tmp_path, capsys):
        code, _, err = run(["validate", "--input", str(tmp_path)], capsys)
        assert code == 2
        diag = json.loads(err)
        assert diag["error"] == "SpecFileError"
        assert diag["condition"] == "input"

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(export_entry("sl2_dj")).encode("utf-8") + b"\xff")
        code, _, err = run(["validate", "--input", str(path)], capsys)
        assert code == 2
        diag = json.loads(err)
        assert diag["error"] == "SpecFileError"
        assert diag["condition"] == "json"

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["algebra.structure_constants", "r_matrix",
                                       "subalgebra_K", "subalgebra_H", "complement_M"])
    @pytest.mark.parametrize("verb", ["validate", "verify"])
    def test_non_finite_number_exits_2(self, verb, field, value, tmp_path, capsys):
        # json reads NaN and Infinity as floats; the first number of the field
        # is replaced, and json.dumps writes it back as that token
        doc = export_entry("sl2_dj")
        if field == "algebra.structure_constants":
            doc["algebra"]["structure_constants"][0][3] = float(value)
        elif field == "r_matrix":
            doc["r_matrix"][0][2] = float(value)
        else:
            doc[field][0][0] = float(value)
        text = json.dumps(doc)
        assert value in text
        path = tmp_path / "nonfinite.json"
        path.write_text(text)
        code, out, err = run([verb, "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "SpecFileError"
        assert diag["condition"] == field

    def test_int_past_float_range_exits_2(self, tmp_path, capsys):
        doc = export_entry("sl2_dj")
        doc["r_matrix"][0][2] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["validate", "--input", str(path)], capsys)
        assert code == 2
        assert json.loads(err)["condition"] == "r_matrix"

    @pytest.mark.parametrize("entry", ["sl2_dj", "sl3_dj_cartan"])
    @pytest.mark.parametrize("field,code,condition", [
        ("algebra", 2, "algebra"),  # G's Jacobiator overflows
        ("r_matrix", 3, None),  # K*'s Jacobiator overflows
    ])
    def test_regression_overflowed_jacobiator_fails(self, entry, field, code, condition,
                                                    tmp_path, capsys):
        # every structure constant, or every r entry, ×1e200: the Jacobiator
        # overflows to NaN, which the builtin max dropped (reading 0) and
        # `r > tol` passed, so validate exited 0 with valid: true.  Run as a
        # user runs it, with the overflow warnings shown, not raised
        doc = export_entry(entry)
        if field == "algebra":
            for t in doc["algebra"]["structure_constants"]:
                t[3] *= 1e200
        else:
            for t in doc["r_matrix"]:
                t[2] *= 1e200
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got, out, err = run(["validate", "--input", str(path)], capsys)
        assert got == code
        assert out == ""
        diag = json.loads(err)
        assert "Jacobi identity fails: residual nan" in diag["detail"]
        if condition is None:
            assert diag["error"] == "NotSubBialgebraError"
        else:
            assert diag["condition"] == condition

    @pytest.mark.parametrize("labels,condition", [
        (5, "algebra.basis_labels"),
        ("hef", "algebra.basis_labels"),
        ([1, 2, 3], "algebra.basis_labels"),
        (["h", "e"], "algebra"),  # a list of strings of the wrong length
    ])
    @pytest.mark.parametrize("verb", ["validate", "verify"])
    def test_malformed_basis_labels_exit_2(self, verb, labels, condition, tmp_path, capsys):
        doc = minimal_sl2((1, 0, 0), [(0, 1, 0), (0, 0, 1)])
        doc["algebra"]["basis_labels"] = labels
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(doc))
        code, _, err = run([verb, "--input", str(path)], capsys)
        assert code == 2
        diag = json.loads(err)
        assert diag["error"] == "SpecFileError"
        assert diag["condition"] == condition


class TestReduceAndVerify:
    def test_reduce_report_contains_dumps(self, capsys):
        code, out, _ = run(
            ["reduce", "--input", "sl2_dj", "--samples", "3", "--seed", "6"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["reduction"]) == 3
        assert len(doc["reduction"][0]["rho"]) == 3
        # no input carries a base r-matrix, so r* is rho itself
        assert all(p["r_star"] == p["rho"] for p in doc["reduction"])
        assert doc["summary"]["pass"] is True

    def test_verify_all_passes_on_catalog_entry(self, capsys):
        code, out, _ = run(["verify", "--input", "sl2_dj", "--suite", "all"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["pass"] is True
        assert {s["equation"] for s in doc["suites"]} >= {"PL_CDYBE", "EQUIVARIANCE"}

    def test_verify_reports_failure_exit_5(self, capsys):
        code, out, _ = run(
            ["verify", "--input", "sl2_dj", "--suite", "cdybe", "--tol", "1e-30"], capsys
        )
        assert code == 5
        doc = json.loads(out)
        assert doc["summary"]["pass"] is False

    @pytest.mark.parametrize("name", ["sl2_classical", "sl2_dj", "sl3_dj_cartan"])
    def test_jacobi_suite_passes_at_seed_13(self, name, capsys):
        # nested finite differences left up to 5.8e-4 of truncation here,
        # over the old 1e-4 tolerance; the exact Jacobiators sit at roundoff
        code, out, _ = run(["verify", "--input", name, "--suite", "jacobi", "--seed", "13"], capsys)
        assert code == 0
        for suite in json.loads(out)["suites"]:
            assert suite["max_residual"] <= 1e-12
            assert suite["fd_step"] == 0.0

    def test_cond_threshold_override_reaches_the_setup(self, capsys):
        """--cond-threshold is the threshold of the setup every point is
        tested against: reduce keeps only points at or below it, and they
        are not the default run's points; verify passes there too."""
        def conds(argv):
            code, out, _ = run(argv, capsys)
            assert code == 0
            doc = json.loads(out)
            return [p["cond"] for p in doc["sample_points"]], doc

        default, _ = conds(["reduce", "--input", "sl3_dj_levi"])
        strict, doc = conds(["reduce", "--input", "sl3_dj_levi", "--cond-threshold", "3"])
        assert doc["parameters"]["tolerances"]["cond_threshold"] == 3.0
        assert len(strict) == len(default) == 10
        assert max(strict) <= 3.0 < max(default) <= 4.0
        assert strict != default
        code, out, _ = run(
            ["verify", "--input", "sl3_dj_levi", "--suite", "all", "--cond-threshold", "3"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["pass"] is True
        assert [p["cond"] for p in doc["sample_points"]] == strict

    def test_no_equation_takes_a_finite_difference(self, capsys):
        code, out, _ = run(["verify", "--input", "sl3_dj_levi", "--suite", "all"], capsys)
        assert code == 0
        for suite in json.loads(out)["suites"]:
            assert suite["fd_step"] == 0.0

    @pytest.mark.parametrize("verb", ["verify", "reduce"])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exits_2(self, verb, samples, capsys):
        code, out, err = run([verb, "--input", "sl2_dj", "--samples", samples], capsys)
        assert code == 2
        assert out == ""
        diag = json.loads(err)
        assert diag["error"] == "SpecFileError"
        assert diag["condition"] == "sampling"

    @pytest.mark.parametrize("verb", ["validate", "reduce"])
    @pytest.mark.parametrize("dim", [10**400, 2**70, bounds.MAX_DIM + 1],
                             ids=["10**400", "2**70", "max+1"])
    def test_regression_huge_dim_exits_2(self, verb, dim, tmp_path, capsys, monkeypatch):
        # found by test_fuzz_contract: algebra.dim 10**400 or 2**70 reached
        # numpy's allocator with the structure constants and exited 1
        # ("Maximum allowed dimension exceeded"); a dim numpy would try to
        # allocate is refused too, before any array is made
        def no_array(*args, **kwargs):
            raise AssertionError("allocated past the dim bound")

        doc = export_entry("sl3_dj_cartan")
        doc["algebra"]["dim"] = dim
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(np, "zeros", no_array)
        code, out, err = run([verb, "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        diag = json.loads(err)
        assert diag["condition"] == "algebra.dim"
        assert str(bounds.MAX_DIM) in diag["detail"]

    @pytest.mark.parametrize("block,key", [("sampling", "box_radius"), ("tolerances", "jacobi"),
                                           ("tolerances", "cond_threshold")])
    def test_regression_int_past_float_range_exits_2(self, block, key, tmp_path, capsys):
        # found by test_fuzz_contract: box_radius 10**400 compared below
        # math.inf and passed, then the sampler's float conversion raised
        # OverflowError (exit 1)
        doc = export_entry("sl3_dj_cartan")
        doc[block][key] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["verify", "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        diag = json.loads(err)
        assert diag["condition"] == block
        assert "finite positive number" in diag["detail"]

    @pytest.mark.parametrize("block,key,value", [
        ("tolerances", "fd_step", float("nan")),
        ("tolerances", "fd_step", 0),
        ("tolerances", "bogus", float("nan")),
        ("sampling", "extra", float("inf")),
    ])
    def test_regression_echoed_value_is_checked(self, block, key, value, tmp_path, capsys):
        # found by test_fuzz_contract: reduce exited 0 with "fd_step": "nan"
        # in its report, since fd_step was echoed unchecked; a key with no
        # default was echoed too, whatever its value
        doc = export_entry("sl2_dj")
        doc[block][key] = value
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["reduce", "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["condition"] == block

    @pytest.mark.parametrize("verb", ["verify", "reduce"])
    @pytest.mark.parametrize("samples", [2**70, bounds.MAX_NUM_POINTS + 1], ids=["2**70", "max+1"])
    def test_regression_huge_num_points_exits_2(self, verb, samples, tmp_path, capsys,
                                               monkeypatch):
        # reduce on sl2_classical with num_points 2**70 once reached numpy's
        # allocator and exited 1; the count is refused before any sampling
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled past the num_points bound")

        monkeypatch.setattr(cli_module, "sample_hstar_points", no_sampling)
        monkeypatch.setattr(verify_module, "sample_hstar_points", no_sampling)
        doc = export_entry("sl2_classical")
        doc["sampling"]["num_points"] = samples
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        by_flag = ["--input", "sl2_classical", "--samples", str(samples)]
        for argv in (["--input", str(path)], by_flag):
            code, out, err = run([verb, *argv], capsys)
            assert code == 2
            assert out == ""
            diag = json.loads(err)
            assert diag["condition"] == "sampling"
            assert str(bounds.MAX_NUM_POINTS) in diag["detail"]

    @pytest.mark.parametrize("verb", ["verify", "reduce"])
    @pytest.mark.parametrize("scale", [1e3, 1e5])
    def test_regression_scaled_sl2_dj_exits_4(self, verb, scale, tmp_path, capsys):
        # sl2_dj with [e, f] = scale·h is a valid rescaled sl2, but its H* ad
        # reaches 1.5·scale: the sampler admitted draws whose Ad overflowed
        # or was singular (exit 1 with LinAlgError, or overflow warnings).
        # Those draws are now misses, and sampling runs out
        doc = export_entry("sl2_dj")
        assert doc["algebra"]["structure_constants"][2][:3] == [1, 2, 0]
        doc["algebra"]["structure_constants"][2][3] = scale
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc))
        assert run(["validate", "--input", str(path)], capsys)[0] == 0
        code, out, err = run([verb, "--input", str(path)], capsys)
        assert code == 4
        assert json.loads(err)["error"] == "SamplingExhaustedError"

    def test_suite_choices_are_the_library_suites(self):
        sub = next(a for a in make_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
        assert tuple(suite.choices) == (*SUITES, "all")

    @pytest.mark.parametrize("verb", ["verify", "reduce"])
    @pytest.mark.parametrize("seed", ["-1", "-3"])
    def test_negative_seed_exits_2(self, verb, seed, capsys):
        # PCG64 would reject it later, as an internal error with exit 1
        code, out, err = run([verb, "--input", "sl2_dj", "--seed", seed], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["condition"] == "sampling"

    @pytest.mark.parametrize("verb", ["verify", "reduce"])
    @pytest.mark.parametrize("flag,value", [("--tol", "-1"), ("--tol", "nan"),
                                            ("--cond-threshold", "0"),
                                            ("--cond-threshold", "inf")])
    def test_bad_tolerance_override_exits_2(self, verb, flag, value, capsys):
        code, out, err = run([verb, "--input", "sl2_dj", flag, value], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["condition"] == "tolerances"

    @pytest.mark.parametrize("block,value", [
        ("tolerances", {"jacobi": "x"}),
        ("tolerances", [1]),
        ("tolerances", {"cond_threshold": "big"}),
        ("tolerances", {"residual": None}),
        ("tolerances", {"jacobi": -1}),
        ("sampling", [1]),
        ("tolerances", {"jacobi": True}),
        ("sampling", {"box_radius": True}),
        ("sampling", {"seed": False}),
        ("sampling", {"seed": -5}),
        ("sampling", {"num_points": True}),
    ])
    @pytest.mark.parametrize("verb", ["validate", "verify"])
    def test_malformed_block_exits_2(self, verb, block, value, tmp_path, capsys):
        doc = minimal_sl2((1, 0, 0), [(0, 1, 0), (0, 0, 1)])
        doc[block] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run([verb, "--input", str(path)], capsys)
        assert code == 2
        diag = json.loads(err)
        assert diag["error"] == "SpecFileError"
        assert diag["condition"] == block

    def test_sampling_exhaustion_exit_4(self, tmp_path, capsys):
        # abelian ambient with a nonempty complement: C vanishes identically
        doc = {
            "schema_version": "1",
            "scalars": "real",
            "algebra": {"dim": 3, "structure_constants": []},
            "r_matrix": [],
            "subalgebra_K": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "subalgebra_H": [[1, 0, 0], [0, 1, 0]],
            "complement_M": [[0, 0, 1]],
            "sampling": {"seed": 0, "num_points": 1, "box_radius": 1.0},
        }
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["reduce", "--input", str(path)], capsys)
        assert code == 4
        assert json.loads(err)["error"] == "SamplingExhaustedError"

    def test_byte_identical_reports(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code, _, _ = run(
                [
                    "verify", "--input", "sl2_classical", "--suite", "dirac",
                    "--samples", "4", "--seed", "6", "--output", str(target),
                ],
                capsys,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verify_samples_once(self, tmp_path, capsys, monkeypatch):
        # the report's points are the words the suites ran on
        import plrmat.reduction
        import plrmat.verify

        calls = []
        original = plrmat.reduction.sample_hstar_points

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(plrmat.verify, "sample_hstar_points", counting)
        monkeypatch.setattr("plrmat.cli.sample_hstar_points", counting)
        out = tmp_path / "v.json"
        code, _, _ = run(
            ["verify", "--input", "sl2_dj", "--suite", "dirac", "--samples", "3",
             "--output", str(out)],
            capsys,
        )
        assert code == 0
        assert len(calls) == 1
        assert len(json.loads(out.read_text())["sample_points"]) == 3

    def test_reduce_reports_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "ra.json", tmp_path / "rb.json"
        for target in (a, b):
            code, _, _ = run(
                [
                    "reduce", "--input", "sl3_dj_levi",
                    "--samples", "4", "--seed", "3", "--output", str(target),
                ],
                capsys,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_export_matches_builtin(self, tmp_path, capsys):
        path = tmp_path / "sl2_dj.json"
        code, _, _ = run(["catalog", "--export", "sl2_dj", "--output", str(path)], capsys)
        assert code == 0
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        code, _, _ = run(
            ["verify", "--input", str(path), "--suite", "cdybe", "--output", str(out1)], capsys
        )
        assert code == 0
        code, _, _ = run(
            ["verify", "--input", "sl2_dj", "--suite", "cdybe", "--output", str(out2)], capsys
        )
        assert code == 0
        d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert d1["suites"] == d2["suites"]


class TestCatalogCommand:
    def test_list(self, capsys):
        code, out, _ = run(["catalog", "--list"], capsys)
        assert code == 0
        assert "sl3_dj_levi" in out
        assert len(out.strip().splitlines()) == 5

    def test_export_unknown_exits_2(self, capsys):
        code, _, err = run(["catalog", "--export", "nope"], capsys)
        assert code == 2

    def test_no_action_exits_2(self, capsys):
        code, _, _ = run(["catalog"], capsys)
        assert code == 2


class TestCanonicalDump:
    def test_float_formatting_and_sorting(self):
        text = dumps_canonical({"b": 0.1, "a": [1.0, 2, True, None]})
        assert text.index('"a"') < text.index('"b"')
        assert "0.10000000000000001" in text

    def test_nonfinite_floats_quoted(self):
        text = dumps_canonical({"x": float("inf"), "y": float("nan")})
        assert '"inf"' in text and '"nan"' in text


class TestPublicSurface:
    def test_readme_lists_exactly_the_package_exports(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        block = readme.split("from plrmat import (", 1)[1].split(")", 1)[0]
        listed = re.findall(r"\w+", re.sub(r"#.*", "", block))
        exported = [n for n in vars(plrmat) if not n.startswith("_")
                    and not isinstance(getattr(plrmat, n), type(plrmat))]
        assert len(listed) == len(set(listed))
        assert set(listed) == set(exported)

    def test_every_name_the_benchmark_tracer_patches_resolves(self):
        # perfbench/tracing.py patches these by module and attribute name; a
        # deleted or renamed one must fail here, not only in a traced round
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert tracing.SPANS and tracing.COUNTERS
        for _, module, attr in tracing.SPANS + tracing.COUNTERS:
            owner = importlib.import_module(module)
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            assert callable(owner), f"{module}.{attr}"
