"""Input-file parsing and deterministic report serialization.

The input schema is a JSON document with sparse structure-constant triplets
(human-auditable) and explicit basis rows:

    {
      "schema_version": "1",
      "scalars": "real",
      "algebra": {"dim": 3,
                  "structure_constants": [[i, j, k, value], ...],   # i < j
                  "basis_labels": ["h", "e", "f"]},
      "r_matrix": [[a, b, value], ...],                             # a < b
      "subalgebra_K": [[...], ...],
      "subalgebra_H": [[...], ...],
      "complement_M": [[...], ...],
      "tolerances": {"jacobi": 1e-10, "residual": 1e-6,
                     "cond_threshold": 1e8, "fd_step": 1e-5},
      "sampling": {"seed": 0, "num_points": 10, "box_radius": 1.0}
    }

The tolerance key jacobi bounds the Jacobi identity of G and, as the tol of
validate_setup, the closure checks of K, H, M and their duals, the Jacobi
identity of K* and the cocycle check, which certify D(K, K*).  residual
bounds the equations of verify.RESIDUAL_EQUATIONS, and cond_threshold is
stored on the setup, where it defines the second-class points.  The key
fd_step is accepted and ignored: no suite takes a finite difference.  It
is kept so that existing inputs parse and the reports are unchanged.  All
four must be finite positive numbers, fd_step too, since the reports echo
the block; so a key with no default is refused.  A key the block leaves
out takes its value from bounds.TOLERANCES, shown above.

Reports are emitted with sorted keys and floats printed to 17 significant
digits, which makes a rerun with identical inputs byte-identical.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import operator
import sys
from json.encoder import encode_basestring_ascii  # json.dumps of a str

import numpy as np

from . import bounds
from .bialgebra_double import ReductionSetup, validate_setup
from .errors import SpecFileError
from .lie_core import LieAlgebra, Subspace

SCHEMA_VERSION = "1"

DEFAULT_SAMPLING = {"seed": 0, "num_points": 10, "box_radius": 1.0}


def _fail(condition: str, detail: str):
    raise SpecFileError(condition, detail)


def _is_int(value) -> bool:
    """An int that is not a bool: true is not the number 1 in a spec."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, condition: str, where: str) -> float:
    """A spec value as a finite float: an int or a float, never a bool, a
    string, NaN or an infinity (JSON text may spell NaN and Infinity), nor
    an int past the float range."""
    if not (_is_int(value) or isinstance(value, float)):
        _fail(condition, f"{where}: value must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        _fail(condition, f"{where}: value must be a finite number, got {value!r}")
    return x


def _require(data, key, kind, condition):
    if key not in data:
        _fail(condition, f"missing required field {key!r}")
    value = data[key]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        _fail(condition, f"field {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _with_defaults(data: dict, key: str, defaults: dict) -> dict:
    """The object data[key] over its defaults; a key with no default is
    refused, since the reports echo the block."""
    block = data.get(key, {})
    if not isinstance(block, dict):
        _fail(key, f"must be an object, got {type(block).__name__}")
    unknown = sorted(block.keys() - defaults.keys())
    if unknown:
        _fail(key, f"unknown key {unknown[0]!r}")
    return {**defaults, **block}


def _check_positive(block: dict, keys, condition: str) -> None:
    for key in keys:
        value = block[key]
        # an int past the float range has no float value
        if not (_is_int(value) or isinstance(value, float)) or not 0 < value <= sys.float_info.max:
            _fail(condition, f"{key} must be a finite positive number, got {value!r}")


def _check_tolerances(tolerances: dict) -> None:
    _check_positive(tolerances, ("jacobi", "residual", "cond_threshold", "fd_step"), "tolerances")


def _check_sampling(sampling: dict) -> None:
    """Non-negative integer seed, 1 to bounds.MAX_NUM_POINTS points, a finite
    positive box radius."""
    for key in ("seed", "num_points"):
        if not _is_int(sampling[key]):
            _fail("sampling", f"{key} must be an integer")
    if sampling["seed"] < 0:
        _fail("sampling", f"seed must be non-negative, got {sampling['seed']}")
    if not 1 <= sampling["num_points"] <= bounds.MAX_NUM_POINTS:
        _fail(
            "sampling",
            f"num_points must be between 1 and {bounds.MAX_NUM_POINTS}, "
            f"got {sampling['num_points']}",
        )
    _check_positive(sampling, ("box_radius",), "sampling")


def _types_are(values, kinds) -> bool:
    """Whether every value is an instance of kinds and none is a bool, tested
    once per distinct type."""
    return all(issubclass(t, kinds) and not issubclass(t, bool) for t in set(map(type, values)))


def _finite_floats(values):
    """values (a sequence or nested sequences of ints and floats) as a float
    array if all are finite, else None."""
    try:
        a = np.array(values, dtype=float)
    except OverflowError:  # an int past the float range
        return None
    return a if np.isfinite(a).all() else None


def _entry_array(entries: list, width: int, dim: int):
    """Sparse entries [index, …, value] as (index rows, values) in one numpy
    step, or None if any entry breaks a rule of _check_entries: a list or
    tuple of `width` items, integer indices in range with the first below
    the second, no index tuple twice, and a finite number as value.  The
    per-entry check then names the first bad entry.  The rules are tested
    on whole columns by builtins, which cost little on the few entries of a
    small algebra."""
    if not (_types_are(entries, (list, tuple)) and set(map(len, entries)) <= {width}):
        return None
    if not entries:
        return np.zeros((width - 1, 0), dtype=int), np.zeros(0)
    *index_cols, value_col = zip(*entries)
    indices = list(itertools.chain(*index_cols))
    if not (_types_are(indices, int) and min(indices) >= 0 and max(indices) < dim
            and all(map(operator.lt, index_cols[0], index_cols[1]))
            and len(set(zip(*index_cols))) == len(entries)
            and _types_are(value_col, (int, float))):
        return None
    values = _finite_floats(value_col)
    return None if values is None else (np.array(index_cols), values)


def _check_entries(entries: list, dim: int, key: str, names: str, kind: str) -> None:
    """Raise for the first sparse entry [index, …, value] that breaks a rule.

    names spells the indices ("ijk" for a structure constant, "ab" for an r
    entry), and kind names their tuple in the duplicate message.
    """
    seen = set()
    for idx, row in enumerate(entries):
        if not isinstance(row, (list, tuple)) or len(row) != len(names) + 1:
            _fail(key, f"entry {idx} must be [{', '.join(names)}, value]")
        *index, v = row
        if not all(_is_int(x) for x in index):
            _fail(key, f"entry {idx}: indices must be integers")
        if not all(0 <= x < dim for x in index):
            _fail(key, f"entry {idx}: index out of range 0..{dim - 1}")
        if index[0] >= index[1]:
            _fail(key, f"entry {idx}: requires {names[0]} < {names[1]} "
                       "(antisymmetry is completed automatically)")
        if tuple(index) in seen:
            _fail(key, f"entry {idx}: duplicate index {kind} {tuple(index)}")
        seen.add(tuple(index))
        _number(v, key, f"entry {idx}")


def _row_array(rows: list, dim: int):
    """Basis rows as a float array in one numpy step, or None if any row
    breaks a rule of _check_rows."""
    if not (_types_are(rows, (list, tuple)) and set(map(len, rows)) == {dim}):
        return None
    if not _types_are(itertools.chain.from_iterable(rows), (int, float)):
        return None
    return _finite_floats(rows)


def _check_rows(rows: list, dim: int, key: str) -> None:
    """Raise for the first basis row that is no vector of dim finite numbers."""
    for idx, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != dim:
            _fail(key, f"row {idx} must be a vector of length {dim}")
        for x in row:
            _number(x, key, f"row {idx}")


def parse_spec(data: dict) -> dict:
    """Parse and structurally validate an input document.

    Returns a dict with keys G, K, H, M (library objects), R (the completed
    antisymmetric array), tolerances (over bounds.TOLERANCES) and sampling
    (plain dicts).  The first violated condition is reported through
    SpecFileError, the Jacobi identity of G included; deeper validation
    (closures, the bialgebra) happens in build_setup.  Structure constants,
    r entries and basis rows are each converted in one numpy step after a
    scan of their types; only when that refuses them does a per-entry check
    run, to name the first bad entry.
    """
    if not isinstance(data, dict):
        _fail("document", "top-level value must be an object")
    version = _require(data, "schema_version", str, "schema_version")
    if version != SCHEMA_VERSION:
        _fail("schema_version", f"unsupported version {version!r}")
    scalars = data.get("scalars", "real")
    if scalars != "real":
        _fail("scalars", f"only real scalars are supported, got {scalars!r}")

    algebra = _require(data, "algebra", dict, "algebra")
    dim = _require(algebra, "dim", int, "algebra.dim")
    if not 0 < dim <= bounds.MAX_DIM:
        _fail("algebra.dim", f"dimension must be between 1 and {bounds.MAX_DIM}, got {dim}")
    triplets = _require(algebra, "structure_constants", list, "algebra.structure_constants")
    parsed = _entry_array(triplets, 4, dim)
    if parsed is None:
        # raises for the first bad entry
        _check_entries(triplets, dim, "algebra.structure_constants", "ijk", "triple")
    (i, j, k), v = parsed
    c = np.zeros((dim, dim, dim))
    c[i, j, k] += v
    c[j, i, k] -= v
    labels = algebra.get("basis_labels", [])
    if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
        _fail("algebra.basis_labels", f"must be a list of strings, got {labels!r}")
    tolerances = _with_defaults(data, "tolerances", bounds.TOLERANCES)
    _check_tolerances(tolerances)
    try:
        G = LieAlgebra(c, basis_labels=tuple(labels), jacobi_tol=tolerances["jacobi"])
    except Exception as exc:
        _fail("algebra", str(exc))

    r_entries = _require(data, "r_matrix", list, "r_matrix")
    parsed = _entry_array(r_entries, 3, dim)
    if parsed is None:
        _check_entries(r_entries, dim, "r_matrix", "ab", "pair")  # raises for the first bad entry
    (a, b), v = parsed
    r = np.zeros((dim, dim))
    r[a, b] += v
    r[b, a] -= v

    def read_rows(key, allow_empty=False):
        rows = _require(data, key, list, key)
        if not rows:
            if allow_empty:
                return np.zeros((0, dim))
            _fail(key, "must contain at least one basis row")
        mat = _row_array(rows, dim)
        if mat is None:
            _check_rows(rows, dim, key)  # raises for the first bad row
        return mat

    try:
        K = Subspace(dim, read_rows("subalgebra_K"))
        H = Subspace(dim, read_rows("subalgebra_H"))
        M = Subspace(dim, read_rows("complement_M", allow_empty=True))
    except SpecFileError:
        raise
    except Exception as exc:
        _fail("subspaces", str(exc))

    sampling = _with_defaults(data, "sampling", DEFAULT_SAMPLING)
    _check_sampling(sampling)

    return {
        "G": G,
        "R": r,
        "K": K,
        "H": H,
        "M": M,
        "tolerances": tolerances,
        "sampling": sampling,
        "name": data.get("name", ""),
    }


def parse_spec_text(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail("json", f"invalid JSON: {exc}")
    return parse_spec(data)


def build_setup(parsed: dict) -> ReductionSetup:
    """Run full validation of the parsed ingredients (raises library errors).

    The spec's jacobi is the tol of validate_setup, and its cond_threshold
    goes on the setup.
    """
    return validate_setup(
        parsed["G"], parsed["R"], parsed["K"], parsed["H"], parsed["M"],
        tol=parsed["tolerances"]["jacobi"],
        cond_threshold=parsed["tolerances"]["cond_threshold"],
    )


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def dumps_canonical(obj, indent: int = 0) -> str:
    """JSON text with sorted keys and 17-significant-digit floats.

    Whitespace and ordering are fixed, so equal inputs produce byte-equal
    output; non-finite floats are emitted as quoted strings.  A numpy array
    is written as its tolist() would be.  A list or array that appears in
    several places is written out in full at each of them.
    """
    return _dumps(obj, indent, {})


def _dumps(obj, indent: int, memo: dict) -> str:
    kind = type(obj)
    if kind is float:
        return _format_float(obj)
    if kind is list or kind is tuple:
        return _dumps_list(obj, indent, memo)
    if kind is dict:
        return _dumps_dict(obj, indent, memo)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return str(obj)
    if kind is bool:
        return "true" if obj else "false"
    # None, numpy scalars and arrays, and subclasses of the types above
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, np.ndarray):
        return _dumps_array(obj, indent, memo)
    if isinstance(obj, (list, tuple)):
        return _dumps_list(obj, indent, memo)
    if isinstance(obj, dict):
        return _dumps_dict(obj, indent, memo)
    raise SpecFileError("report", f"cannot serialize {type(obj).__name__}")


def _dumps_list(obj, indent: int, memo: dict) -> str:
    """A list or tuple; memo passes on to the arrays nested in it."""
    if not obj:
        return "[]"
    pad_in = "  " * (indent + 1)
    sep = ",\n" + pad_in
    # finite Python floats print alike under "%.17g" and format(x, ".17g");
    # a sum that is not finite (a NaN, an inf or an overflow) sends the list
    # down the per-item path, which is right for every list
    if set(map(type, obj)) == {float} and math.isfinite(sum(obj)):
        body = sep.join(["%.17g"] * len(obj)) % tuple(obj)
    else:
        body = sep.join([_dumps(v, indent + 1, memo) for v in obj])
    return "[\n" + pad_in + body + "\n" + "  " * indent + "]"


def _dumps_array(obj: np.ndarray, indent: int, memo: dict) -> str:
    """An array as the text of obj.tolist(), each distinct one formatted once.

    A finite, non-empty float64 array fills the template of its shape in one
    "%.17g" format operation; any other array goes through its list.  memo
    maps (id(obj), indent) to (obj, text), so an array that appears twice in
    a report, as reduce's rho and r_star do, is formatted once.  Holding obj
    keeps its id from passing to another array while the call runs.
    """
    if obj.dtype != np.float64 or obj.size == 0 or not np.isfinite(obj).all():
        return _dumps(obj.tolist(), indent, memo)
    key = (id(obj), indent)
    seen = memo.get(key)
    if seen is None:
        seen = memo[key] = (obj, _array_template(obj.shape, indent) % tuple(obj.ravel().tolist()))
    return seen[1]


@functools.lru_cache(maxsize=None)
def _array_template(shape: tuple, indent: int) -> str:
    """The layout _dumps_list gives a nested list of this shape, "%.17g" per entry."""
    if not shape:
        return "%.17g"
    pad_in = "  " * (indent + 1)
    item = _array_template(shape[1:], indent + 1)
    return "[\n" + pad_in + (",\n" + pad_in).join([item] * shape[0]) + "\n" + "  " * indent + "]"


def _dumps_dict(obj, indent: int, memo: dict) -> str:
    if not obj:
        return "{}"
    pad_in = "  " * (indent + 1)
    items = []
    for key in sorted(obj):
        if not isinstance(key, str):
            raise SpecFileError("report", f"non-string key {key!r}")
        items.append(pad_in + encode_basestring_ascii(key) + ": "
                     + _dumps(obj[key], indent + 1, memo))
    return "{\n" + ",\n".join(items) + "\n" + "  " * indent + "}"


def input_digest(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def report_document(
    digest: str,
    parameters: dict,
    sample_points: list,
    reduction_dump: list,
    suite_reports: list,
) -> dict:
    """Assemble the full report document from its parts.

    sample_points: list of dicts {index, factors, cond}; reduction_dump:
    list of dicts {index, rho, r_star}; suite_reports: ResidualReport values.
    """
    suites = []
    for r in suite_reports:
        suites.append(
            {
                "equation": r.equation_id,
                "fd_step": r.fd_step,
                "tolerance": r.tolerance,
                "direction": r.direction,
                "max_residual": r.max_residual,
                "pass": r.passed,
                "per_point": [
                    {"point": desc, "residual": resid} for desc, resid in r.per_point
                ],
            }
        )
    overall = all(r.passed for r in suite_reports) if suite_reports else True
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "plrmat 0.1.0",
        "input_digest": digest,
        "parameters": parameters,
        "sample_points": sample_points,
        "reduction": reduction_dump,
        "suites": suites,
        "summary": {
            "pass": bool(overall),
            "num_sample_points": len(sample_points),
            "num_suites": len(suites),
        },
    }
