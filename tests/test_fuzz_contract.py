"""The input contract under fuzzing: every input exits with a documented code.

Each case mutates one or two fields of a catalog export: a value from a
fixed pool, a deletion, or a scale by 1e8, -1, 1e-8 or 3.  It then runs
validate, reduce or verify --suite all through cli.main in process, under a
20 s alarm, as a user would run it: with RuntimeWarning ignored, and only
inside the loop.  The exit code must be one of 0, 2, 3, 4 and 5 (never 1,
an internal error), a report of exit 0 or 5 must parse, and a report of
exit 0 may hold no NaN or infinity.

The pool asks for no large allocation: its integers are small, since
`algebra.dim` or `num_points` set to 10**9 would make numpy try.
"""

import copy
import json
import random
import signal
import sys
import warnings

from plrmat import cli
from plrmat.catalog import export_entry, list_entries

SEED = 20
CASES = 500
ALARM_S = 20
VERBS = (["validate"], ["reduce"], ["verify", "--suite", "all"])
POOL = (
    None, True, False, 0, 1, -1, 2, 3, 7, 0.5, -0.0, 1e300, -1e300, 2**70, 10**400,
    float("nan"), float("inf"), "", "x", "1", [], {}, [0], [[0, 1, 2, 1.0]], [[1, 0, 0]],
)
SCALES = (1e8, -1, 1e-8, 3)


class Hang(Exception):
    pass


def _on_alarm(signum, frame):
    raise Hang(f"no exit within {ALARM_S} s")


def _pick_path(rng, doc) -> list:
    """A path to a node of doc, by random descent: stop at each container
    with probability 1/2, else step into one of its children."""
    path, node = [], doc
    while isinstance(node, (dict, list)) and node and (not path or rng.random() < 0.5):
        key = rng.choice(sorted(node) if isinstance(node, dict) else range(len(node)))
        path.append(key)
        node = node[key]
    return path


def _mutate(rng, doc) -> str:
    """Apply one mutation to doc in place; return what it did."""
    path = _pick_path(rng, doc)
    if not path:
        return "none"
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    op = rng.choice(("pool", "delete", "scale"))
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    if op == "delete":
        del parent[key]
        return f"delete {path}"
    if op == "scale" and numeric:
        # an int past the float range has no float product
        factor = rng.choice(SCALES if abs(value) <= sys.float_info.max else (-1, 3))
        parent[key] = value * factor
        return f"scale {path} by {factor}"
    parent[key] = copy.deepcopy(rng.choice(POOL))
    return f"set {path} = {parent[key]!r}"


def _cases():
    rng = random.Random(SEED)
    exports = {name: export_entry(name) for name in list_entries()}
    for _ in range(CASES):
        name = rng.choice(sorted(exports))
        doc = copy.deepcopy(exports[name])
        what = [_mutate(rng, doc) for _ in range(rng.choice((1, 2)))]
        yield name, what, doc, rng.choice(VERBS)


def test_fuzzed_inputs_keep_the_exit_contract(tmp_path, capsys):
    path, out = tmp_path / "input.json", tmp_path / "report.json"
    codes, failures = {}, []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for name, what, doc, verb in _cases():
            path.write_text(json.dumps(doc))
            out.unlink(missing_ok=True)
            signal.alarm(ALARM_S)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    code = cli.main([*verb, "--input", str(path), "--output", str(out)])
            finally:
                signal.alarm(0)
            err = capsys.readouterr().err
            codes[code] = codes.get(code, 0) + 1
            case = f"{verb[0]} {name} {what}: exit {code} {err.strip()[:200]}"
            if code not in (0, 2, 3, 4, 5):
                failures.append(case)
            elif code in (0, 5):
                text = out.read_text(encoding="utf-8")
                json.loads(text)
                if code == 0 and ('"nan"' in text or 'inf"' in text):
                    failures.append(case + " (non-finite number in the report)")
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not failures, "\n".join(failures)
    # the cases reach past the parser: some pass, and some fail validation
    assert codes.get(0, 0) > 0 and codes.get(3, 0) > 0, codes
