"""Every bound has one definition, in plrmat.bounds.

A negative-exponent float literal is a bound, so the source may spell one
only in the table itself and in verify.DEFAULT_TOLERANCES, where each
equation's tolerance is defined.  The spec's defaults and the setup's
cond_threshold are read from the table, and the one per-call override,
run_suite's residual, reaches only the RESIDUAL_EQUATIONS.
"""

import ast
import inspect
import io
import tokenize
from dataclasses import replace
from pathlib import Path

import plrmat
from plrmat import bounds, reduction, verify
from plrmat.catalog import export_entry, get_entry
from plrmat.specio import build_setup, parse_spec
from plrmat.verify import DEFAULT_TOLERANCES, RESIDUAL_EQUATIONS, run_suite

SRC = Path(plrmat.__file__).resolve().parent


def _tolerance_table_lines() -> range:
    """The lines of the DEFAULT_TOLERANCES assignment in verify.py."""
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "DEFAULT_TOLERANCES" for t in node.targets
        ):
            return range(node.lineno, node.end_lineno + 1)
    raise AssertionError("verify.DEFAULT_TOLERANCES not found")


def _negative_exponent_literals(source: str) -> list:
    """(line, text) of every number token written with a negative exponent."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return [
        (tok.start[0], tok.string)
        for tok in tokens
        if tok.type == tokenize.NUMBER and "e-" in tok.string.lower()
    ]


def test_negative_exponent_literals_only_in_the_table():
    allowed = {"bounds.py": None, "verify.py": _tolerance_table_lines()}
    stray = []
    for path in sorted(SRC.glob("*.py")):
        lines = allowed.get(path.name, ())
        for line, text in _negative_exponent_literals(path.read_text(encoding="utf-8")):
            if lines is not None and line not in lines:
                stray.append(f"{path.name}:{line}: {text}")
    assert not stray, "bounds outside plrmat.bounds: " + ", ".join(stray)


def test_the_guard_sees_a_literal():
    """The scan finds a literal in code, and not one in a string or comment."""
    assert _negative_exponent_literals('x = 2.5E-7\ny = "1e-9"  # 1e-9\n') == [(1, "2.5E-7")]
    assert len(_tolerance_table_lines()) > 1


def test_the_table_imports_nothing_from_the_package():
    tree = ast.parse((SRC / "bounds.py").read_text(encoding="utf-8"))
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert imports == []


def test_spec_defaults_are_the_table():
    doc = export_entry("sl2_dj")
    del doc["tolerances"]
    parsed = parse_spec(doc)
    assert parsed["tolerances"] == bounds.TOLERANCES
    assert parsed["tolerances"] is not bounds.TOLERANCES
    assert build_setup(parsed).cond_threshold == bounds.COND_THRESHOLD
    for name in ("sl2_classical", "sl3_dj_levi"):
        e = get_entry(name)
        want = {**bounds.TOLERANCES, "cond_threshold": e.cond_threshold}
        assert e.document()["tolerances"] == want
        assert e.setup().cond_threshold == e.cond_threshold


def test_residual_override_reaches_only_the_residual_equations():
    S = replace(get_entry("sl2_dj").setup(), cond_threshold=2.5)
    assert set(RESIDUAL_EQUATIONS) < set(DEFAULT_TOLERANCES)
    assert all(DEFAULT_TOLERANCES[eq] == bounds.RESIDUAL for eq in RESIDUAL_EQUATIONS)
    for residual in (None, 1e-3):
        reports, _ = run_suite(S, "all", num_points=2, seed=6, residual=residual)
        assert {r.equation_id for r in reports} == set(DEFAULT_TOLERANCES)
        for r in reports:
            want = DEFAULT_TOLERANCES[r.equation_id]
            if residual is not None and r.equation_id in RESIDUAL_EQUATIONS:
                want = residual
            assert r.tolerance == want, r.equation_id


def test_no_per_call_threshold_or_attempt_budget():
    for module in (reduction, verify):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__:
                params = inspect.signature(fn).parameters
                assert "cond_threshold" not in params, f"{module.__name__}.{name}"
    assert "cond_threshold" not in inspect.signature(reduction.CMatrix.diagnosis).parameters
    assert "max_attempts" not in inspect.signature(reduction.sample_hstar_points).parameters
    assert "tolerances" not in inspect.signature(run_suite).parameters

