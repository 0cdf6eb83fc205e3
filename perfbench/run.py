"""Benchmark of the plrmat command line: certification, reduction sweep and
differential suites, timed end to end and, in a separate traced run, per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: catalog-verify, sln-reduce,
sln-differential (see README.md).  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# the matrices are at most 48×48; extra BLAS threads would only measure the
# scheduler.  Set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

if not (ROOT / "src" / "plrmat").is_dir():
    sys.exit(f"perfbench: no plrmat sources under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import sln  # noqa: E402
import tracing  # noqa: E402
from plrmat import cli  # noqa: E402
from plrmat.specio import build_setup, parse_spec_text  # noqa: E402

CATALOG = ("abelian2", "sl2_classical", "sl2_dj", "sl3_dj_cartan", "sl3_dj_levi")
REDUCE_SIZES = (2, 3, 4, 5)
REDUCE_POINTS = 25
DIFF_SIZES = (4, 5)
DIFF_POINTS = 2  # keeps a round near 3 s, so a run has enough rounds for its medians
DIFF_SUITES = ("cdybe", "equivariance", "dirac")
# PL_CDYBE and TRIANGULARITY fail on every point at sl4 and sl5 through
# finite-difference truncation in verify._fd_tensor.  The cdybe commands keep
# that fault as counted failures on inputs that do not depend on --seed.
CDYBE_SEED = 1
NAMED_FAULT = frozenset({"PL_CDYBE", "TRIANGULARITY"})
# set-up is timed in two bursts, before and after the rounds, so that its
# median spans the run; each burst repeats at least SETUP_REPEATS times and
# for at least SETUP_SECONDS
SETUP_REPEATS = 3
SETUP_SECONDS = 1.5
MIN_ROUNDS = 2  # the second round is compared byte for byte with the first


@dataclass(frozen=True)
class Command:
    label: str
    verb: str  # "verify" or "reduce"
    input: str  # spec file or catalog entry name
    suite: tuple  # ("--suite", name) for verify
    overrides: tuple  # CLI overrides of the spec, such as ("--seed", "1")
    output: Path
    spec: dict  # the input document, for the checks
    closed_form: object  # x -> expected rho, or None
    allowed_failures: frozenset = frozenset()

    @property
    def argv(self) -> list:
        return [self.verb, "--input", self.input, *self.suite, *self.overrides,
                "--output", str(self.output)]


def _write_spec(workdir: Path, doc: dict) -> Path:
    path = workdir / f"{doc['name']}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def catalog_verify(seed: int, workdir: Path):
    """verify --suite all on every catalog entry at the entry's own seed; the
    benchmark's seed only fixes the order of the entries."""
    order = list(CATALOG)
    np.random.default_rng(seed).shuffle(order)
    inputs, commands = [], []
    for name in order:
        path = workdir / f"{name}.json"
        if cli.main(["catalog", "--export", name, "--output", str(path)]) != cli.EXIT_OK:
            raise RuntimeError(f"catalog export of {name} failed")
        inputs.append(path)
        out = workdir / f"verify-{name}.json"
        commands.append(Command(
            label=name,
            verb="verify",
            input=name,
            suite=("--suite", "all"),
            overrides=(),
            output=out,
            spec=json.loads(path.read_text(encoding="utf-8")),
            closed_form=lambda x, name=name: checks.catalog_closed_form(name, x),
        ))
    return inputs, commands


def sln_reduce(seed: int, workdir: Path):
    """reduce on generated sl2 … sl5 with Cartan H and the standard R."""
    inputs, commands = [], []
    for n in REDUCE_SIZES:
        doc = sln.spec(n, seed, REDUCE_POINTS)
        path = _write_spec(workdir, doc)
        inputs.append(path)
        out = workdir / f"reduce-sl{n}.json"
        commands.append(Command(
            label=f"sl{n}",
            verb="reduce",
            input=str(path),
            suite=(),
            overrides=(),
            output=out,
            spec=doc,
            closed_form=lambda x, n=n: sln.cartan_rho(n, x),
        ))
    return inputs, commands


def sln_differential(seed: int, workdir: Path):
    """verify with the cdybe, equivariance and dirac suites on generated sl4 and sl5."""
    inputs, commands = [], []
    for n in DIFF_SIZES:
        doc = sln.spec(n, seed, DIFF_POINTS)
        path = _write_spec(workdir, doc)
        inputs.append(path)
        for suite in DIFF_SUITES:
            cdybe = suite == "cdybe"
            commands.append(Command(
                label=f"sl{n} {suite}",
                verb="verify",
                input=str(path),
                suite=("--suite", suite),
                overrides=("--seed", str(CDYBE_SEED)) if cdybe else (),
                output=workdir / f"verify-sl{n}-{suite}.json",
                spec=doc,
                closed_form=lambda x, n=n: sln.cartan_rho(n, x),
                allowed_failures=NAMED_FAULT if cdybe else frozenset(),
            ))
    return inputs, commands


WORKLOADS = {
    "catalog-verify": catalog_verify,
    "sln-reduce": sln_reduce,
    "sln-differential": sln_differential,
}


def time_setup(texts) -> float:
    """Parse and validate every input once; the seconds it took."""
    t0 = time.perf_counter()
    for text in texts:
        build_setup(parse_spec_text(text))
    return time.perf_counter() - t0


def setup_burst(texts) -> list:
    """time_setup repeated at least SETUP_REPEATS times and for SETUP_SECONDS."""
    setups, t0 = [], time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - t0 < SETUP_SECONDS:
        setups.append(time_setup(texts))
    return setups


def run_round(commands, tracer=None):
    """Run every command once; (wall seconds per command, exit codes, report digests)."""
    times, codes = [], []
    for c in commands:
        t0 = time.perf_counter()
        if tracer is None:
            codes.append(cli.main(c.argv))
        else:
            codes.append(tracer.span("cli." + c.verb, cli.main, c.argv))
        times.append(time.perf_counter() - t0)
    digests = [
        hashlib.sha256(c.output.read_bytes()).hexdigest() if c.output.exists() else None
        for c in commands
    ]
    return times, codes, digests


def _load(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def check_outputs(commands, codes, workdir: Path):
    """Check the last round's reports; (problems, attempted, failed) per round.

    For every verify command, rho is also computed at the same points by an
    untimed reduce, whose report gets the closed-form and property checks.
    """
    problems, attempted, failed = [], 0, 0
    companions = {}
    for c, code in zip(commands, codes):
        report = _load(c.output)
        if report is None:
            problems.append(f"{c.label}: exit {code} and no report")
            continue
        a, f = checks.operations(report)
        attempted, failed = attempted + a, failed + f
        if c.verb == "reduce":
            if code != cli.EXIT_OK:
                problems.append(f"{c.label}: reduce exited {code}")
            problems += checks.reduce_report(c.label, c.spec, report, c.closed_form)
            continue
        passed = report["summary"]["pass"]
        if code != (cli.EXIT_OK if passed else cli.EXIT_SUITE_FAILED):
            problems.append(f"{c.label}: exit {code} does not match the report")
        problems += checks.verify_report(c.label, report, c.allowed_failures)
        key = (c.input, c.overrides)
        if key not in companions:
            out = workdir / f"check-{len(companions)}.json"
            code = cli.main(["reduce", "--input", c.input, *c.overrides, "--output", str(out)])
            companions[key] = _load(out) if code == cli.EXIT_OK else None
            if companions[key] is not None:
                problems += checks.reduce_report(c.label, c.spec, companions[key], c.closed_form)
        red = companions[key]
        if red is None:
            problems.append(f"{c.label}: reduce at the verify points failed")
        elif red["sample_points"] != report["sample_points"]:
            problems.append(f"{c.label}: reduce and verify sampled different points")
    return problems, attempted, failed


SPAN_SECONDS = (
    "bialgebra_double.validate_setup", "lie_core.jacobi_residual",
    "reduction.sample_hstar_points", "dual_group.gradients",
    "verify.q_jacobi_residual", "verify.p_jacobi_residual", "verify.plcdybe_residual",
    "verify.triangularity_check", "verify.equivariance_residual",
    "reduction.dirac_bracket", "reduction.native_hstar_bracket", "reduction.rho_via_n",
    "reduction.characterization_identity_residual", "specio.dumps_canonical",
)


def layer_metrics(tracer, commands) -> dict:
    """name -> (unit, value) for every per-layer metric of the traced round."""
    m = tracer.metrics()
    values = {name + ".s": ("s", m["s"][name]) for name in SPAN_SECONDS}
    for name in ("reduction.rho", "reduction.constraint_matrix"):
        values[name + ".calls"] = ("count", m["calls"][name])
        values[name + ".self_s"] = ("s", m["self_s"][name])
    values["reduction.sample_hstar_points.calls"] = ("count", m["calls"]["reduction.sample_hstar_points"])
    values["reduction.sample.accept_ratio"] = ("ratio", m["sample_accept_ratio"])
    for name in ("bialgebra_double.component", "dual_group.translate",
                 "numpy.solve", "numpy.vstack", "scipy.expm"):
        values[name + ".calls"] = ("count", m["counts"][name])
    values["verify.fd_rho_evals"] = ("count", m["fd_rho_evals"])
    values["specio.report_bytes"] = (
        "B", sum(c.output.stat().st_size for c in commands if c.output.exists()))
    return values


def more_rounds(rounds, elapsed: float, seconds: float) -> bool:
    """Whether another round ends nearer the time budget than stopping now does."""
    return elapsed + statistics.median(sum(times) for times in rounds) / 2 < seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)  # no report may survive from an earlier run
    workdir.mkdir(parents=True)
    inputs, commands = WORKLOADS[args.workload](args.seed, workdir)
    texts = [p.read_text(encoding="utf-8") for p in inputs]
    setups = setup_burst(texts)

    rounds, first, problems = [], None, []
    t0 = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or more_rounds(rounds, time.perf_counter() - t0, args.seconds):
        times, codes, digests = run_round(commands)
        rounds.append(times)
        first = first or (codes, digests)
        if (codes, digests) != first:
            problems.append(f"round {len(rounds)}: exit codes or report bytes differ from round 1")
    # each command's median over the rounds, so that a slow spell of the host
    # costs only the commands it fell on
    wall_s = sum(statistics.median(col) for col in zip(*rounds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [sum(times) for times in rounds]
    setups += setup_burst(texts)
    setup_s = statistics.median(setups)

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            times, codes, digests = run_round(commands, tracer)
        finally:
            tracer.uninstall()
        traced_wall = sum(times)
        if (codes, digests) != first:
            problems.append("traced round: exit codes or report bytes differ from round 1")
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")

    round_problems, attempted, failed = check_outputs(commands, first[0], workdir)
    problems += round_problems

    if args.trace:
        values = layer_metrics(tracer, commands)
        values["trace.overhead_s"] = ("s", traced_wall - wall_s)
    else:
        values = {
            "setup_s": ("s", setup_s),
            "wall_s": ("s", wall_s),
            "peak_rss_mb": ("MB", peak_rss_mb),
        }

    for p in problems:
        print("CHECK FAILED:", p)
    print(f"{args.workload} seed {args.seed}: {len(walls)} rounds, round walls "
          + " ".join(f"{w:.3f}" for w in walls))
    for c, col in zip(commands, zip(*rounds)):
        print(f"  {c.label}: " + " ".join(f"{t:.3f}" for t in col))
    for name, (unit, value) in values.items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted * (len(walls) + args.trace),
        "failed": failed * (len(walls) + args.trace),
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
