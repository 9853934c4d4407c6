"""File rules: every file the pipeline writes is written inside `writing`,
so one that cannot be written whole is removed and the error names its
path; every JSON file has the bytes of `json.dumps(payload, indent=2)`
and a newline, which `write_json` writes one top-level entry at a time
(an ndarray as its tolist()); and every JSON document (and superpixel
map) read is parsed inside `parsing`, so a malformed file is always one
ValueError naming the path."""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

_ENCODE = json.JSONEncoder().encode  # C level; the same text for a scalar


@contextmanager
def writing(path: str | os.PathLike, mode: str):
    """Yield path opened with `mode` ("w" is UTF-8 text). A TypeError or
    ValueError from the body (an unencodable value) becomes a ValueError
    naming the path, and an I/O error once the file is open (a full disk,
    also at close) an OSError naming it; either way the partly written
    file is removed. The open's own errors name the path already."""
    path = Path(path)
    fh = open(path, mode, encoding=None if "b" in mode else "utf-8")
    try:
        with fh:
            yield fh
    except (TypeError, ValueError, OSError) as exc:
        path.unlink(missing_ok=True)
        kind = OSError if isinstance(exc, OSError) else ValueError
        raise kind(f"{path}: {exc}") from None


def write_json(path: str | os.PathLike, payload) -> None:
    """Write the bytes of json.dumps(payload, indent=2) and a newline to
    path, one top-level entry at a time, never holding the whole document;
    an ndarray anywhere in it is written as its tolist(). NaN, infinity
    ("not JSON compliant"), an unencodable value and a circular reference
    raise the stdlib's error, naming the path."""
    with writing(path, "w") as fh:
        fh.writelines(_pieces(payload, 0, set()))
        fh.write("\n")


def _pieces(o, level: int, seen: set):
    """Yield o's text nested `level` deep: a container as the opening with
    its first entry, each further entry and the closing, anything else
    whole. `seen` holds the ids of the enclosing containers."""
    if isinstance(o, np.ndarray):
        o = o.tolist()
    if not isinstance(o, (list, tuple, dict)):
        yield _scalar(o)
        return
    brackets = "{}" if isinstance(o, dict) else "[]"
    if not o:
        yield brackets
        return
    table = _table(o, level) if type(o) is list else None
    if table is not None:
        yield table
        return
    if id(o) in seen:
        raise ValueError("Circular reference detected")
    seen.add(id(o))
    if isinstance(o, dict):
        items = (_quote(_key(k)) + ": " + "".join(_pieces(v, level + 1, seen))
                 for k, v in o.items())
    else:
        items = ("".join(_pieces(v, level + 1, seen)) for v in o)
    pad = "\n" + "  " * (level + 1)
    yield brackets[0] + pad + next(items)
    for item in items:
        yield "," + pad + item
    yield "\n" + "  " * level + brackets[1]
    seen.discard(id(o))


def _table(rows: list, level: int) -> str | None:
    """The text of a list of plain floats or plain ints, or of a list of
    equal-length such lists, from one template that "%s" fills at C level
    (str of a plain float or int is its repr); None for any other list and
    for NaN or infinity, which the entry-by-entry path raises."""
    pad = "\n" + "  " * (level + 1)
    cell, cells = "%s", rows
    if all(type(row) is list for row in rows):
        width, inner = len(rows[0]), pad + "  "
        if any(len(row) != width for row in rows):
            return None
        cell = "[" + inner + ("," + inner).join(["%s"] * width) + pad + "]"
        cells = chain.from_iterable(rows)
    cells = tuple(cells)
    kinds = set(map(type, cells))
    if kinds != {int} and (kinds != {float} or not all(map(math.isfinite, cells))):
        return None
    text = ("," + pad).join([cell] * len(rows)) % cells
    return "[" + pad + text + "\n" + "  " * level + "]"


def _scalar(o) -> str:
    """The text of any non-container, as json.dumps(o, indent=2) has it."""
    if isinstance(o, float) and not math.isfinite(o):
        raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
    return _ENCODE(o)


def _key(key) -> str:
    if key is None or isinstance(key, (int, float)):
        return _scalar(key)
    if isinstance(key, str):
        return key
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


@contextmanager
def parsing(path: str | os.PathLike, what: str):
    """Turn a KeyError, TypeError or ValueError (UTF-8 and JSON errors too)
    raised while parsing `what` into one ValueError naming the path."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{os.fspath(path)}: {what} lacks key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{os.fspath(path)}: malformed {what}: {exc}") from None


def read_json(path: str | os.PathLike, what: str, parse, object_hook=None):
    """parse(document) for the JSON file at path, inside `parsing`; json.load
    passes each object it parses through object_hook, if one is given."""
    with open(path, "r", encoding="utf-8") as fh, parsing(path, what):
        return parse(json.load(fh, object_hook=object_hook))


def by_key(items, key: str) -> dict:
    """{item[key]: item} over JSON objects, in order; a key value listed
    twice is an error naming it."""
    out = {}
    for item in items:
        if item[key] in out:
            raise ValueError(f"{key} {item[key]!r} is listed twice")
        out[item[key]] = item
    return out


def json_field(doc: dict, key: str, kind: type):
    """doc[key], which must be exactly a `kind`: an int is not a bool or float."""
    value = doc[key]
    if type(value) is not kind:
        raise TypeError(f"{key!r} must be {kind.__name__}, got {json.dumps(value)}")
    return value


def json_table(doc: dict, key: str) -> np.ndarray:
    """doc[key], a list of rows, as a float64 array; by json_field's rule
    every entry must be exactly an int or a float: not a bool or a string."""
    rows = doc[key]
    kinds = set(map(type, chain.from_iterable(rows))) - {int, float}
    if kinds:
        raise TypeError(f"{key!r} entries must be numbers, got "
                        f"{', '.join(sorted(k.__name__ for k in kinds))}")
    return np.asarray(rows, dtype=np.float64)
