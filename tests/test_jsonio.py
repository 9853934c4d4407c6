"""write_json: the bytes of json.dumps(indent=2), its errors, streaming."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dermfeat.jsonio import write_json

EDGE_FLOATS = [-0.0, 1e16, 5e-324, 1.7976931348623157e308]
EDGE_STRINGS = ["", "é€😀", 'say "hi" \\ /', "\x00\x1f\t\n\r\x7f "]

finite = st.floats(allow_nan=False, allow_infinity=False)
plain_floats = finite | st.sampled_from(EDGE_FLOATS)
floats = plain_floats | finite.map(np.float64)
ints = st.integers() | st.integers(-2 ** 200, 2 ** 200) | st.sampled_from(
    [2 ** 64, -2 ** 64 - 1])
texts = st.text() | st.sampled_from(EDGE_STRINGS)
scalars = st.none() | st.booleans() | ints | floats | texts
keys = texts | st.integers() | finite | st.booleans() | st.none()


@st.composite
def tables(draw):
    """Rows: equal-length plain floats or ints (the fast path), or unequal,
    mixed int/float, np.float64, bool or empty rows."""
    width = draw(st.integers(0, 5))
    cell = draw(st.sampled_from([plain_floats, ints, plain_floats | ints,
                                 floats, st.booleans()]))
    rows = st.lists(cell, min_size=width, max_size=width)
    if draw(st.booleans()):
        rows = st.lists(cell, max_size=5)
    return draw(st.lists(rows, min_size=1, max_size=6))


payloads = st.recursive(
    scalars | tables() | st.lists(floats) | st.lists(texts),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(keys, inner, max_size=4)),
    max_leaves=30)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("jsonio")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payload=payloads)
def test_writes_the_bytes_of_json_dumps(scratch, payload):
    path = scratch / "doc.json"
    write_json(path, payload)
    assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()


def test_a_shared_container_is_not_circular(tmp_path):
    shared = {"image": "a.ppm", "flags": [True, None]}
    payload = [shared, {"again": shared}, [shared, shared["flags"]]]
    write_json(tmp_path / "r.json", payload)
    assert (tmp_path / "r.json").read_text() == json.dumps(payload, indent=2) + "\n"


def _circular():
    loop = [1.0]
    loop.append(loop)
    return {"scores": loop}


@pytest.mark.parametrize("payload", [
    {"scores": [[0.5, 0.25], [0.5, float("nan")]]},
    [{"scores": [[0.5]]}, {"scores": [[float("inf")]]}],
    {"scores": [[0.5, -float("inf")]]},
    {float("nan"): 1},
    {float("inf"): [1, 2]},
    {"labels": [[1, 0], [0, np.int64(1)]]},
    {(1, 2): 3},
    _circular(),
], ids=["nan-row", "inf-second-entry", "-inf-row", "nan-key", "inf-key",
        "int64-table", "tuple-key", "circular"])
def test_errors_match_the_stdlib_and_leave_no_file(tmp_path, payload):
    try:
        json.dumps(payload, indent=2, allow_nan=False)
    except (TypeError, ValueError) as exc:
        expected = exc
    path = tmp_path / "r.json"
    with pytest.raises(ValueError) as info:
        write_json(path, payload)
    assert str(info.value) == f"{path}: {expected}"
    assert list(tmp_path.iterdir()) == []


def test_streams_one_entry_at_a_time(tmp_path):
    """A predictions payload of infer-128's size (44 images x 1024
    superpixels x 4 scores) is written without holding the document."""
    rng = np.random.default_rng(0)
    payload = [{"image": f"{i:03d}.ppm", "scores": rng.random((1024, 4)).tolist()}
               for i in range(44)]
    path = tmp_path / "predictions.json"
    tracemalloc.start()
    try:
        write_json(path, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 5_000_000
    assert peak < 2_000_000
