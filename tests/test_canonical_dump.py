"""dumps_canonical against a per-value reference serialiser.

reference_dumps is the straightforward recursive serialiser: one call per
value, every float through format(x, ".17g").  dumps_canonical formats whole
float lists at once and each shared list once, and must give the same text
for every input, or raise the same SpecFileError.
"""

import json
import math

import numpy as np
import pytest

from plrmat import catalog, cli, specio
from plrmat.errors import SpecFileError
from plrmat.specio import dumps_canonical


def _reference_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def reference_dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _reference_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return reference_dumps(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [reference_dumps(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(pad_in + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise SpecFileError("report", f"non-string key {key!r}")
            items.append(pad_in + json.dumps(key) + ": " + reference_dumps(obj[key], indent + 1))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise SpecFileError("report", f"cannot serialize {type(obj).__name__}")


def assert_same_text(obj, indent=0):
    assert dumps_canonical(obj, indent) == reference_dumps(obj, indent)


class Unserialisable:
    pass


@pytest.mark.parametrize("name", catalog.list_entries())
def test_every_cli_document_matches_the_reference(name, tmp_path, monkeypatch):
    written = []

    def recording(obj, indent=0):
        text = dumps_canonical(obj, indent)
        written.append((obj, indent, text))
        return text

    monkeypatch.setattr(cli, "dumps_canonical", recording)
    for argv in (["reduce", "--input", name], ["verify", "--input", name, "--suite", "all"]):
        out = tmp_path / f"{argv[0]}.json"
        assert cli.main([*argv, "--output", str(out)]) == cli.EXIT_OK
        assert out.read_text(encoding="utf-8") == written[-1][2] + "\n"
    # the catalog export each command serialises for its digest, and both reports
    assert len(written) == 4
    for obj, indent, text in written:
        assert text == reference_dumps(obj, indent)


@pytest.mark.parametrize("special", [
    float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
])
def test_special_floats_inside_float_lists(special):
    for lst in ([special], [0.5, special, 1 / 3], [1 / 3, 2.0, special]):
        assert_same_text(lst)
        assert_same_text({"x": lst, "y": [lst, lst]}, indent=2)


def test_a_finite_list_whose_sum_overflows():
    assert_same_text([1.7976931348623157e308, 1.7976931348623157e308, 0.1])


@pytest.mark.parametrize("lst", [
    [1, 2.5, 3],
    [True, 1.0, False],
    [0.1, None, "x", 2],
    [np.float64(0.1), 0.2],
    [np.float32(0.1), np.int64(3)],
])
def test_mixed_lists(lst):
    assert_same_text(lst)


@pytest.mark.parametrize("obj", [
    (0.5, 1, (2.0, [3.0])),
    np.arange(6.0).reshape(2, 3) / 7,
    np.arange(4).reshape(2, 2),
    np.array(0.25),
    np.zeros((0, 3)),
    np.float64(1 / 3),
    np.float32(0.1),
    np.int32(-4),
    [],
    {},
    [[], {}, ()],
    {"a": [], "b": {"c": {}}, "d": [[[]]]},
    [[[0.1, 0.2], [0.3]], [[]]],
    {"s": "quote \" and é", "t": None, "u": True, "v": -0.0},
])
def test_containers_and_numpy_values(obj):
    assert_same_text(obj)
    assert_same_text({"k": obj}, indent=1)


def test_one_list_at_two_indents():
    shared = [0.1, 0.2, [0.3]]
    doc = {"a": shared, "b": {"c": shared}, "d": [shared, shared]}
    assert_same_text(doc)
    text = dumps_canonical(doc)
    # written out in full at each place, with the indent of each place
    assert text.count("0.10000000000000001") == 4


def test_equal_shaped_arrays_are_not_confused():
    """ndarray.tolist() makes temporaries; a freed one's id may come back for
    the next, so the memo must keep each list alive for the whole call."""
    rng = np.random.default_rng(0)
    doc = {f"m{k}": rng.normal(size=(3, 3)) for k in range(8)}
    doc["rows"] = [rng.normal(size=4) for _ in range(8)]
    assert_same_text(doc)


@pytest.mark.parametrize("obj", [
    {1: 0.5},
    {"a": 1.0, "b": {(1, 2): 2.0}},
    {"a": Unserialisable()},
    [0.5, Unserialisable()],
    {"a": [0.1, {"b": {2: 1}}]},
    {"z": {3: 1}, "a": Unserialisable()},
    np.array([Unserialisable()], dtype=object),
    {1.5},
    [0.5, np.True_],
])
def test_same_error(obj):
    with pytest.raises(SpecFileError) as new:
        dumps_canonical(obj)
    with pytest.raises(SpecFileError) as ref:
        reference_dumps(obj)
    assert (new.value.condition, new.value.detail) == (ref.value.condition, ref.value.detail)


def test_unsortable_keys_raise_as_before():
    for fn in (dumps_canonical, reference_dumps):
        with pytest.raises(TypeError):
            fn({1: 0.5, "a": 0.5})


# ---------------------------------------------------------------------------
# a float64 array is formatted from a template of its shape, not its list
# ---------------------------------------------------------------------------


def assert_array_as_list(arr, indent=0):
    """The array's text is its list's, by dumps_canonical and by the reference."""
    text = dumps_canonical(arr, indent)
    assert text == dumps_canonical(arr.tolist(), indent)
    assert text == reference_dumps(arr, indent)


@pytest.mark.parametrize("shape", [(1,), (5,), (1, 1), (3, 4), (2, 3, 4), (1, 2, 1)])
def test_float_arrays_of_every_rank(shape):
    arr = np.random.default_rng(4).normal(size=shape) * 10.0 ** np.arange(shape[-1])
    specio._array_template.cache_clear()
    for indent in (0, 1, 3):
        assert_array_as_list(arr, indent)
    # the array's own text came from the template of its shape
    assert specio._array_template.cache_info().currsize >= 3


def test_array_of_signed_zero_and_subnormals():
    arr = np.array([[-0.0, 0.0, 5e-324], [-5e-324, 1 / 3, 1.7976931348623157e308]])
    assert_array_as_list(arr)
    assert_array_as_list(arr[0])


@pytest.mark.parametrize("special", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_arrays_fall_back_to_the_list(special):
    arr = np.array([[0.5, special], [1 / 3, 2.0]])
    assert_array_as_list(arr)
    assert_array_as_list(arr, indent=2)
    assert '"' in dumps_canonical(arr)


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 2)])
def test_empty_arrays_fall_back_to_the_list(shape):
    assert_array_as_list(np.zeros(shape))
    assert_array_as_list(np.zeros(shape), indent=1)


def test_read_only_array_at_two_indents():
    arr = np.arange(6.0).reshape(2, 3) / 7
    arr.setflags(write=False)
    doc = {"a": arr, "b": {"c": arr}, "d": [arr, arr]}
    assert_same_text(doc)
    # written out in full at each place, with the indent of each place
    assert dumps_canonical(doc).count("0.14285714285714285") == 4


def test_two_equal_shaped_arrays_in_one_dict():
    rng = np.random.default_rng(1)
    doc = {"x": rng.normal(size=(3, 3)), "y": rng.normal(size=(3, 3))}
    assert_same_text(doc)
    # temporaries made while serialising must not take the memo's place either
    assert_same_text({f"m{k}": rng.normal(size=(2, 2)) for k in range(8)})
