"""JSON files and the malformed-file rule: every JSON document the pipeline
writes goes through `write_json`, and every JSON document (and superpixel
map) it reads is parsed inside `parsing`, so a malformed file is always one
ValueError naming the path."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path


def write_json(path: str | os.PathLike, payload) -> None:
    """Stream payload to path as indented JSON with a trailing newline.
    NaN, infinity or an unencodable value is a ValueError naming the path,
    and an I/O error once the file is open (a full disk) an OSError
    naming it; either way the partly written file is removed."""
    path = Path(path)
    fh = open(path, "w", encoding="utf-8")  # its errors name the path
    try:
        with fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
            fh.write("\n")
    except (TypeError, ValueError, OSError) as exc:
        path.unlink(missing_ok=True)
        kind = OSError if isinstance(exc, OSError) else ValueError
        raise kind(f"{path}: {exc}") from None


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


def read_json(path: str | os.PathLike, what: str, parse):
    """parse(document) for the JSON file at path, inside `parsing`."""
    with open(path, "r", encoding="utf-8") as fh, parsing(path, what):
        return parse(json.load(fh))


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
