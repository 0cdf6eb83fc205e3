"""Output checks computed apart from the program.

Closed forms of rho are evaluated here from the sample coordinates that a
report lists; properties are read off the reports themselves.  Every check
returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import numpy as np

# rho is exact up to roundoff amplified by the conditioning of C; sampling
# keeps cond below 1e8, and in practice far below 1e4
RHO_RTOL = 1e-9
ANTISYM_RTOL = 1e-9


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


def _root_rho(dim: int, roots, exponents, pole) -> np.ndarray:
    """Σ_α (e_α ⊗ f_α − f_α ⊗ e_α) / pole(x_α) over (e, f) index pairs."""
    out = np.zeros((dim, dim))
    for (e, f), x in zip(roots, exponents):
        out[e, f] += 1.0 / pole(x)
        out[f, e] -= 1.0 / pole(x)
    return out


def catalog_closed_form(name: str, x: np.ndarray):
    """Closed-form rho for catalog entries that have one, else None.

    x are the H* coordinates of the point.  sl2 basis: h, e, f; sl3 basis:
    h1, h2, e1, e2, e3, f1, f2, f3 with e3 = [e1, e2], so the root exponents
    of e1, e2, e3 are x1, x2 and x1 + x2.
    """
    if name == "sl2_classical":
        return _root_rho(3, [(1, 2)], [x[0]], lambda t: t)
    if name == "sl2_dj":
        return _root_rho(3, [(1, 2)], [x[0]], np.expm1)
    if name == "sl3_dj_cartan":
        return _root_rho(8, [(2, 5), (3, 6), (4, 7)], [x[0], x[1], x[0] + x[1]], np.expm1)
    return None


def _unit_index(row) -> int:
    row = np.asarray(row, dtype=float)
    idx = int(np.argmax(np.abs(row)))
    if row[idx] != 1.0 or np.count_nonzero(row) != 1:
        raise ValueError("H and M rows must be unit vectors for these checks")
    return idx


def reduce_report(label: str, spec: dict, report: dict, closed_form) -> list:
    """Check a `reduce` report.

    spec is the input document; closed_form(x) gives the expected rho at H*
    coordinates x, or None when the setup has no closed form.  Checked at
    every point: rho antisymmetric, supported on M⊗M, r_star == rho (no base
    r), and rho equal to the closed form where there is one.
    """
    problems = []
    h_idx = [_unit_index(r) for r in spec["subalgebra_H"]]
    m_idx = [_unit_index(r) for r in spec["complement_M"]]
    points, dump = report["sample_points"], report["reduction"]
    if len(points) != spec["sampling"]["num_points"] or len(dump) != len(points):
        problems.append(f"{label}: {len(dump)} reduced points for {spec['sampling']['num_points']} requested")
    for pt, red in zip(points, dump):
        k = pt["index"]
        rho = np.array(red["rho"], dtype=float)
        scale = max(1.0, float(np.max(np.abs(rho))))
        if np.max(np.abs(rho + rho.T)) > ANTISYM_RTOL * scale:
            problems.append(f"{label} point {k}: rho is not antisymmetric")
        outside = rho.copy()
        outside[np.ix_(m_idx, m_idx)] = 0.0
        if np.any(outside != 0.0):
            problems.append(f"{label} point {k}: rho has entries outside M⊗M")
        if red["r_star"] != red["rho"]:
            problems.append(f"{label} point {k}: r_star differs from rho with no base r")
        if len(pt["factors"]) != 1:
            problems.append(f"{label} point {k}: expected a single-factor word")
            continue
        # with K = G and unit H and M rows, the factor's H* coordinates sit at the H indices
        x = np.array(pt["factors"][0], dtype=float)[h_idx]
        want = closed_form(x)
        if want is not None:
            err = _rel_err(rho, want)
            if not err <= RHO_RTOL:
                problems.append(f"{label} point {k}: rho off its closed form by {err:.3e}")
    return problems


def verify_report(label: str, report: dict, allowed_failures=frozenset()) -> list:
    """Check a `verify` report: only the named equations may fail, and every
    corrupted-r control must exceed its threshold."""
    problems = []
    for suite in report["suites"]:
        eq = suite["equation"]
        if not suite["pass"] and eq not in allowed_failures:
            problems.append(f"{label}: {eq} failed with {suite['max_residual']:.3e}")
        if eq == "PL_CDYBE_CONTROL" and not suite["max_residual"] >= suite["tolerance"]:
            problems.append(f"{label}: control {suite['max_residual']:.3e} under its threshold")
    return problems


def operations(report: dict) -> tuple:
    """(attempted, failed): equation reports for verify, reduced points for reduce."""
    if report["parameters"]["command"] == "verify":
        suites = report["suites"]
        return len(suites), sum(1 for s in suites if not s["pass"])
    return len(report["reduction"]), 0
