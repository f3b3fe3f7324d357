"""Shared file-format helpers: line-delimited JSON, checksums, key=value configs."""

from __future__ import annotations

import hashlib
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


def dump_json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_jsonl(path, records, header=None):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(dump_json_line(header) + "\n")
        for rec in records:
            fh.write(dump_json_line(rec) + "\n")
    os.replace(tmp, path)


def iter_jsonl(path):
    """Yield the object on each non-blank line; a line that is not a JSON object raises
    InputError. The JSON scanner reads each stripped line directly; only a line it
    rejects or does not read to the end goes through json.loads, which raises that
    line's own JSONDecodeError."""
    scan = json.JSONDecoder().scan_once
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = scan(line, 0)
            except (StopIteration, json.JSONDecodeError):
                end = None
            if end != len(line):
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise InputError(f"{path}: line {i + 1}: invalid JSON: {exc}") from exc
            if type(obj) is not dict:
                raise InputError(f"{path}: line {i + 1}: not a JSON object: {line[:40]!r}")
            yield obj


def read_jsonl(path, expect_header: bool = False):
    """Returns (header, records); header is line 1's object if expect_header, else None."""
    records = iter_jsonl(path)
    with open(path, encoding="utf-8") as fh:
        header = next(records) if expect_header and fh.readline().strip() else None
    return header, list(records)


def read_kv_config(path) -> dict[str, str]:
    """Plain key = value text; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}: bad config line: {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
