"""Shared file-format helpers: the one atomic output writer, line-delimited JSON,
checksums, key=value configs."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from contextlib import contextmanager
from pathlib import Path


class InputError(ValueError):
    """A missing or malformed input file; the message names the file."""


@contextmanager
def parsing(path):
    """Report a parse failure of path inside the block as an InputError naming path."""
    try:
        yield
    except InputError:  # already names its file
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: malformed content: {type(exc).__name__}: {exc}") from exc


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dump_json_line(obj) -> str:
    return _ENCODER.encode(obj)


def write_lines(path, lines):
    """Write each line and a newline, in UTF-8, to <path>.tmp and rename it over path, so
    a write that fails or is stopped leaves the previous file whole; a write that raises
    removes its .tmp, and a system error of no file (a full disk) is given path. Missing
    parent directories are made."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno and exc.filename is None:
            exc.filename = str(path)
        raise


def write_jsonl(path, records, header=None):
    head = () if header is None else (header,)
    write_lines(path, map(dump_json_line, itertools.chain(head, records)))


_SCAN = json.JSONDecoder().scan_once


def _load_line(line: str):
    """json.loads(line) for a stripped line. The JSON scanner reads the line directly;
    only a line it rejects or does not read to the end goes through json.loads, which
    raises that line's own JSONDecodeError."""
    try:
        obj, end = _SCAN(line, 0)
    except (StopIteration, json.JSONDecodeError):
        end = None
    return obj if end == len(line) else json.loads(line)


# One check per JSON kind of a field, by type (true is no number, 2.0 no integer, {} no
# list): each returns rec[key], and raises TypeError naming key for any other kind.

def json_str(rec: dict, key: str) -> str:
    """A JSON string (str() would read 7 as "7" and null as "None")."""
    if type(value := rec[key]) is not str:
        raise TypeError(f"{key} {value!r} is not a string")
    return value


def json_int(rec: dict, key: str) -> int:
    if type(value := rec[key]) is not int:
        raise TypeError(f"{key} {value!r} is not an integer")
    return value


def json_number(rec: dict, key: str) -> float:
    """A JSON number, as a float: NaN and Infinity are, true and "0.5" are not."""
    if type(value := rec[key]) is not float and type(value) is not int:
        raise TypeError(f"{key} {value!r} is not a number")
    return float(value)


def json_bool(rec: dict, key: str) -> bool:
    if type(value := rec[key]) is not bool:
        raise TypeError(f"{key} {value!r} is not a boolean")
    return value


def json_list(rec: dict, key: str) -> list:
    if type(value := rec[key]) is not list:
        raise TypeError(f"{key} {value!r} is not a list")
    return value


def json_object(rec: dict, key: str) -> dict:
    if type(value := rec[key]) is not dict:
        raise TypeError(f"{key} {value!r} is not an object")
    return value


def json_objects(rec: dict, key: str) -> list[dict]:
    """A JSON list of objects; an element that is not one names the list."""
    values = json_list(rec, key)
    for value in values:
        if type(value) is not dict:
            raise TypeError(f"{key} {value!r} is not an object")
    return values


def iter_jsonl(path):
    """Yield the object on each non-blank line; a line that is not a JSON object raises
    InputError."""
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                obj = _load_line(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}: line {i + 1}: invalid JSON: {exc}") from exc
            if type(obj) is not dict:
                raise InputError(f"{path}: line {i + 1}: not a JSON object: {line[:40]!r}")
            yield obj


def read_jsonl(path):
    """Returns (header, records): header is line 1's object, or None if line 1 is blank."""
    records = iter_jsonl(path)
    with open(path, encoding="utf-8") as fh:
        header = next(records) if fh.readline().strip() else None
    return header, list(records)


def read_kv_config(path) -> dict[str, str]:
    """Plain key = value text; '#' starts a comment. A repeated key raises InputError."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}: bad config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise InputError(f"{path}: config key {key!r} is repeated")
            out[key] = value
    return out
