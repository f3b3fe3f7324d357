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
    except (KeyError, TypeError, ValueError) as exc:
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


def read_jsonl(path, expect_header: bool = False):
    """Returns (header, records); header is None unless expect_header."""
    header = None
    records = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}: line {i + 1}: invalid JSON: {exc}") from exc
            if expect_header and header is None and i == 0:
                header = obj
            else:
                records.append(obj)
    return header, records


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
