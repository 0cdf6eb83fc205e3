"""Command-line interface: validate inputs, run reductions, run verification.

Inputs are JSON files in the schema of specio, or the name of a built-in
catalog entry.  Reports are deterministic: a fixed input and seed reproduce
the output byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import catalog as cat
from .errors import (
    PlrmatError,
    SamplingExhaustedError,
    SpecFileError,
    UnknownEntryError,
)
from .reduction import sample_hstar_points
from .specio import (
    _check_sampling,
    _check_tolerances,
    build_setup,
    dumps_canonical,
    input_digest,
    parse_spec,
    parse_spec_text,
    report_document,
)
from .verify import SUITES, describe_word, run_suite

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SAMPLING = 4
EXIT_SUITE_FAILED = 5

EPILOG = """\
exit codes:
  0  success (all requested checks passed)
  1  unexpected internal error
  2  input could not be parsed (bad JSON or schema violation)
  3  input parsed but failed structural validation
  4  sampling could not find second-class points within the attempt budget
  5  a verification suite ran and failed its tolerance
"""


def _load_input(path_or_name: str):
    """Return (raw_bytes, parsed) from a file path or a catalog entry name."""
    p = Path(path_or_name)
    if p.exists():
        try:
            raw = p.read_bytes()
        except OSError as exc:  # a directory, or a file without read permission
            raise SpecFileError("input", f"cannot read {path_or_name!r}: {exc}") from exc
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SpecFileError("json", f"input is not UTF-8 text: {exc}") from exc
        return raw, parse_spec_text(text)
    if path_or_name in cat.list_entries():
        doc = cat.export_entry(path_or_name)
        raw = dumps_canonical(doc).encode("utf-8")
        return raw, parse_spec(doc)
    raise SpecFileError(
        "input", f"{path_or_name!r} is neither a readable file nor a catalog entry"
    )


def _write_output(text: str, output):
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    else:
        sys.stdout.write(text + "\n")


def _diagnostic(exc: Exception) -> str:
    doc = {"error": type(exc).__name__, "detail": str(exc)}
    if isinstance(exc, SpecFileError):
        doc["condition"] = exc.condition
        doc["detail"] = exc.detail
    return dumps_canonical(doc)


def _describe_points(sample):
    return [
        {"index": k, "factors": describe_word(w), "cond": cond}
        for k, (w, cond) in enumerate(zip(sample.words, sample.cond.tolist()))
    ]


def cmd_validate(args) -> int:
    raw, parsed = _load_input(args.input)
    setup = build_setup(parsed)
    doc = {
        "input_digest": input_digest(raw),
        "valid": True,
        "dim_G": setup.G.dim,
        "dim_K": setup.n,
        "dim_H": setup.dim_H,
        "dim_M": setup.dim_M,
        "jacobi_residual": setup.G.checked_jacobi,
        "double_invariance_residual": setup.double.invariance_residual(),
        "closure_pairing_residuals": list(setup.closure_pairing_residuals()),
    }
    _write_output(dumps_canonical(doc), args.output)
    return EXIT_OK


def _apply_overrides(parsed, args):
    """The flags add_common gives reduce and verify, over the spec's values."""
    if args.samples is not None:
        parsed["sampling"]["num_points"] = args.samples
    if args.seed is not None:
        parsed["sampling"]["seed"] = args.seed
    if args.tol is not None:
        parsed["tolerances"]["residual"] = args.tol
    if args.cond_threshold is not None:
        parsed["tolerances"]["cond_threshold"] = args.cond_threshold
    _check_sampling(parsed["sampling"])
    _check_tolerances(parsed["tolerances"])


def cmd_reduce(args) -> int:
    raw, parsed = _load_input(args.input)
    _apply_overrides(parsed, args)
    setup = build_setup(parsed)
    tol = parsed["tolerances"]
    sampling = parsed["sampling"]
    sample = sample_hstar_points(
        setup, sampling["num_points"], sampling["seed"], sampling["box_radius"]
    )
    points = _describe_points(sample)
    # with no base r, r* = r + rho is rho itself: one read-only array under
    # both keys, which the serialiser formats once
    dump = [{"index": k, "rho": value, "r_star": value} for k, value in enumerate(sample.solved[0])]
    doc = report_document(
        input_digest(raw),
        {"command": "reduce", "sampling": sampling, "tolerances": tol},
        points,
        dump,
        [],
    )
    _write_output(dumps_canonical(doc), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    raw, parsed = _load_input(args.input)
    _apply_overrides(parsed, args)
    setup = build_setup(parsed)
    tol = parsed["tolerances"]
    sampling = parsed["sampling"]
    reports, sample = run_suite(
        setup,
        args.suite,
        num_points=sampling["num_points"],
        seed=sampling["seed"],
        box_radius=sampling["box_radius"],
        residual=tol["residual"],
    )
    points = _describe_points(sample)
    doc = report_document(
        input_digest(raw),
        {
            "command": "verify",
            "suite": args.suite,
            "sampling": sampling,
            "tolerances": tol,
        },
        points,
        [],
        reports,
    )
    _write_output(dumps_canonical(doc), args.output)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_SUITE_FAILED


def cmd_catalog(args) -> int:
    if args.list:
        for name in cat.list_entries():
            entry = cat.get_entry(name)
            sys.stdout.write(f"{name}: {entry.notes}\n")
        return EXIT_OK
    if args.export:
        doc = cat.export_entry(args.export)
        _write_output(dumps_canonical(doc), args.output)
        return EXIT_OK
    sys.stderr.write("catalog: use --list or --export NAME\n")
    return EXIT_PARSE


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="plrmat",
        description=(
            "Construct dynamical r-matrices on duals of Poisson-Lie groups by "
            "second-class constraint reduction and certify their defining "
            "identities numerically."
        ),
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_suite=False):
        p.add_argument("--input", required=True,
                       help="input JSON file or catalog entry name")
        p.add_argument("--output", default=None, help="write the report here (default: stdout)")
        p.add_argument("--samples", type=int, default=None, help="number of sample points")
        p.add_argument("--seed", type=int, default=None, help="sampling seed")
        p.add_argument("--tol", type=float, default=None,
                       help="residual tolerance for the differential identities")
        p.add_argument("--cond-threshold", dest="cond_threshold", type=float, default=None,
                       help="second-class conditioning bound")
        if with_suite:
            p.add_argument("--suite", default="all",
                           choices=[*SUITES, "all"],
                           help="which residual suites to run")

    p = sub.add_parser("validate", help="parse and structurally validate an input")
    p.add_argument("--input", required=True, help="input JSON file or catalog entry name")
    p.add_argument("--output", default=None, help="write the diagnostics here")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("reduce", help="sample the dual group and emit rho and r*")
    add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="run residual suites and report pass/fail")
    add_common(p, with_suite=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", help="list or export built-in setups")
    p.add_argument("--list", action="store_true", help="list entry names")
    p.add_argument("--export", default=None, metavar="NAME", help="export an entry as JSON")
    p.add_argument("--output", default=None, help="write the export here")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecFileError, UnknownEntryError) as exc:
        sys.stderr.write(_diagnostic(exc) + "\n")
        return EXIT_PARSE
    except SamplingExhaustedError as exc:
        sys.stderr.write(_diagnostic(exc) + "\n")
        return EXIT_SAMPLING
    except PlrmatError as exc:
        sys.stderr.write(_diagnostic(exc) + "\n")
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(_diagnostic(exc) + "\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
