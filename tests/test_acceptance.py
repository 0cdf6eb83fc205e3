"""Acceptance criteria for the whole package, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them all)
and asserts the stated tolerance.  The hand oracle for criterion 2 is the
semidirect-product double of split sl2 with R = 0, H the Cartan line and
M = span{e, f}, where ad_{h*} is two-step nilpotent:

    ad_{h*}: e ↦ f*,  f ↦ -e*,  h, h*, e*, f* ↦ 0
    Ad(exp(x·h*)):  e ↦ e + x·f*,  f ↦ f - x·e*

so with M^1 = e, M^2 = f the constraint brackets are

    C^{12} = << (Ad e)_M, Ad f >> = <<e, f - x·e*>> = -x,
    C      = [[0, -x], [x, 0]],      C^{-1} = [[0, 1/x], [-1/x, 0]],

and the reduced r-matrix is

    rho(x) = C^{-1}_{12}·e⊗f + C^{-1}_{21}·f⊗e = (1/x)(e⊗f - f⊗e).

This sign is forced: writing rho = s(x)(e⊗f - f⊗e), the R = 0 dynamical
Yang-Baxter equation reduces to s' + s² = 0, satisfied by s = 1/x and
violated by s = -1/x.  The same residual check is asserted below.
"""

import time

import numpy as np
import pytest

from plrmat.catalog import get_entry, list_entries, load_entry
from plrmat.cli import main as cli_main
from plrmat.dual_group import identity_word
from plrmat.errors import CDegenerateError, SamplingExhaustedError
from plrmat.reduction import (
    constraint_matrix,
    check_second_class,
    hstar_word,
    rho,
    sample_hstar_points,
)
from plrmat.verify import plcdybe_residual, reduced_r_function, run_suite

NONTRIVIAL = ("sl2_classical", "sl2_dj", "sl3_dj_cartan", "sl3_dj_levi")


def _line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def suite_results():
    """Full verification suites for every catalog entry, run once."""
    out = {}
    for name in list_entries():
        e = get_entry(name)
        setup = load_entry(name)
        t0 = time.perf_counter()
        reports, _ = run_suite(
            setup,
            "all",
            num_points=e.num_points,
            seed=e.seed,
        )
        elapsed = time.perf_counter() - t0
        out[name] = (setup, {r.equation_id: r for r in reports}, elapsed)
    return out


def test_criterion_1_structural_validation():
    worst = {"jacobi": 0.0, "antisym": 0.0, "invariance": 0.0, "closure": 0.0}
    slowest = 0.0
    for name in list_entries():
        t0 = time.perf_counter()
        s = load_entry(name)
        slowest = max(slowest, time.perf_counter() - t0)
        worst["jacobi"] = max(worst["jacobi"], s.G.jacobi_residual(),
                              s.bialgebra.Kstar.jacobi_residual(),
                              s.double.D.jacobi_residual())
        worst["antisym"] = max(worst["antisym"], s.G.antisymmetry_residual(),
                               float(np.max(np.abs(s.R + s.R.T))))
        worst["invariance"] = max(worst["invariance"], s.double.invariance_residual())
        worst["closure"] = max(worst["closure"], *s.closure_pairing_residuals())
    ok = (
        worst["jacobi"] <= 1e-10
        and worst["antisym"] <= 1e-12
        and worst["invariance"] <= 1e-10
        and worst["closure"] <= 1e-10
        and slowest < 1.0
    )
    _line(
        1,
        "structural-validation",
        ok,
        f"jacobi {worst['jacobi']:.1e}, antisym {worst['antisym']:.1e}, "
        f"pairing-invariance {worst['invariance']:.1e}, closure {worst['closure']:.1e}, "
        f"slowest entry {slowest:.2f}s",
    )


def test_criterion_2_classical_oracle():
    s = load_entry("sl2_classical")
    rfun = reduced_r_function(s)
    worst_c = worst_rho = worst_res = 0.0
    for x in (0.5, 1.0, 2.0):
        w = hstar_word(s, [x])
        C = constraint_matrix(s, w)
        worst_c = max(worst_c, float(np.max(np.abs(C.entries - np.array([[0.0, -x], [x, 0.0]])))))
        t = rho(s, w)
        want = np.zeros((3, 3))
        want[1, 2], want[2, 1] = 1.0 / x, -1.0 / x
        worst_rho = max(worst_rho, float(np.max(np.abs(t - want))))
        # the point as a stack of one of its own, so the memo row stays bare
        worst_res = max(worst_res, np.max(np.abs(plcdybe_residual(s, rfun, C[:]))))
    ok = worst_c <= 1e-9 and worst_rho <= 1e-9 and worst_res <= 1e-6
    _line(
        2,
        "classical-oracle",
        ok,
        f"C deviation {worst_c:.1e}, rho deviation {worst_rho:.1e}, "
        f"dynamical residual {worst_res:.1e}",
    )


def test_criterion_3_pl_case(suite_results):
    worst_cdybe = worst_eq = 0.0
    slowest = 0.0
    npts = 10**9
    for name in ("sl2_dj", "sl3_dj_cartan", "sl3_dj_levi"):
        setup, reports, elapsed = suite_results[name]
        worst_cdybe = max(worst_cdybe, reports["PL_CDYBE"].max_residual,
                          reports["TRIANGULARITY"].max_residual)
        worst_eq = max(worst_eq, reports["EQUIVARIANCE"].max_residual)
        slowest = max(slowest, elapsed)
        npts = min(npts, len(reports["PL_CDYBE"].per_point))
    ok = worst_cdybe <= 1e-6 and worst_eq <= 1e-6 and slowest < 30.0 and npts >= 10
    _line(
        3,
        "pl-dynamical-ybe",
        ok,
        f"cdybe {worst_cdybe:.1e}, equivariance {worst_eq:.1e}, "
        f"{npts} points/setup, slowest setup {slowest:.1f}s",
    )


def test_criterion_4_consistency(suite_results):
    worst_rho = worst_char = 0.0
    for name in NONTRIVIAL:
        _, reports, _ = suite_results[name]
        worst_rho = max(worst_rho, reports["RHO_CONSISTENCY"].max_residual)
        worst_char = max(worst_char, reports["PAIRING_CHARACTERIZATION"].max_residual)
    ok = worst_rho <= 1e-9 and worst_char <= 1e-9
    _line(
        4,
        "rho-consistency",
        ok,
        f"dual-basis forms {worst_rho:.1e}, pairing identity {worst_char:.1e}",
    )


def test_criterion_5_dirac_reduction(suite_results):
    worst_d = worst_c = 0.0
    for name in NONTRIVIAL:
        _, reports, _ = suite_results[name]
        worst_d = max(worst_d, reports["DIRAC_EQ_HSTAR"].max_residual)
        worst_c = max(worst_c, reports["CONSTRAINT_PB"].max_residual)
    ok = worst_d <= 1e-6 and worst_c <= 1e-7
    _line(
        5,
        "dirac-vs-native",
        ok,
        f"bracket agreement {worst_d:.1e}, constraint brackets {worst_c:.1e}",
    )


def test_criterion_6_jacobiators(suite_results):
    worst_q = worst_p = 0.0
    control_min = float("inf")
    for name in NONTRIVIAL:
        _, reports, _ = suite_results[name]
        worst_q = max(worst_q, reports["Q_JACOBI"].max_residual)
        worst_p = max(worst_p, reports["P_JACOBI"].max_residual)
        assert len(reports["Q_JACOBI"].per_point) >= 5
        control_min = min(control_min, reports["PL_CDYBE_CONTROL"].max_residual)
    ok = worst_q <= 1e-9 and worst_p <= 1e-9 and control_min > 1e-2
    _line(
        6,
        "jacobiators-and-control",
        ok,
        f"q {worst_q:.1e}, p {worst_p:.1e}, corrupted-r control ≥ {control_min:.1e}",
    )


def test_criterion_7_degeneracy_handling():
    s = load_entry("sl2_dj")
    ok_identity = False
    try:
        rho(s, identity_word(s.double))
    except CDegenerateError:
        ok_identity = True

    # odd-dimensional complement: abelian ambient with a 1-dim complement
    from plrmat.bialgebra_double import validate_setup
    from plrmat.lie_core import LieAlgebra, Subspace

    odd = validate_setup(
        LieAlgebra.abelian(3),
        np.zeros((3, 3)),
        Subspace(3, np.eye(3)),
        Subspace(3, np.eye(3)[:2]),
        Subspace(3, np.eye(3)[2:]),
    )
    C = constraint_matrix(odd, hstar_word(odd, [0.3, -0.2]))
    ok_odd = (not check_second_class(C)) and "odd-dimensional" in C.diagnosis()

    ok_bound = False
    try:
        sample_hstar_points(odd, 1, seed=0)
    except SamplingExhaustedError as exc:
        ok_bound = "100" in str(exc)
    ok = ok_identity and ok_odd and ok_bound
    _line(
        7,
        "degeneracy-handling",
        ok,
        f"identity rejected {ok_identity}, odd complement diagnosed {ok_odd}, "
        f"attempt bound enforced {ok_bound}",
    )


def test_criterion_8_determinism(tmp_path):
    outputs = []
    for k in range(2):
        target = tmp_path / f"report{k}.json"
        code = cli_main(
            [
                "verify", "--input", "sl2_dj", "--suite", "cdybe",
                "--samples", "6", "--seed", "6", "--output", str(target),
            ]
        )
        assert code == 0
        outputs.append(target.read_bytes())
    ok = outputs[0] == outputs[1]
    _line(8, "byte-identical-reports", ok, f"{len(outputs[0])} bytes compared equal: {ok}")
