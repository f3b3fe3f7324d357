import hashlib
import json

import pytest

from trialbench.formats import (
    InputError,
    dump_json_line,
    iter_jsonl,
    read_jsonl,
    read_kv_config,
    sha256_file,
    write_jsonl,
    write_lines,
)


def test_sha256_helpers(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("hello\n")
    assert sha256_file(path) == hashlib.sha256(b"hello\n").hexdigest()


def test_dump_json_line_is_canonical():
    assert dump_json_line({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "records.jsonl"
    write_jsonl(path, [{"i": 0}, {"i": 1}], header={"kind": "test"})
    header, records = read_jsonl(path)
    assert header == {"kind": "test"}
    assert records == [{"i": 0}, {"i": 1}]
    # to iter_jsonl the header line is just another record
    assert len(list(iter_jsonl(path))) == 3
    assert not path.with_suffix(".jsonl.tmp").exists()


def test_write_lines_makes_parents_and_leaves_no_tmp(tmp_path):
    path = tmp_path / "new" / "nested" / "out.tsv"
    write_lines(path, ["a\tb", "é"])
    assert path.read_bytes() == "a\tb\né\n".encode("utf-8")
    write_lines(path, iter([]))
    assert path.read_bytes() == b""
    assert sorted(p.name for p in path.parent.iterdir()) == ["out.tsv"]


def test_write_lines_that_raise_leave_the_target_whole(tmp_path):
    path = tmp_path / "out.tsv"
    path.write_bytes(b"previous\tgood\n")

    def lines():
        yield "first"
        raise OSError("no space left on device")

    with pytest.raises(OSError, match="no space"):
        write_lines(path, lines())
    assert path.read_bytes() == b"previous\tgood\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.tsv"]


def test_jsonl_header_is_line_one_only(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('\n{"i": 0}\n  \n{"i": 1}\n')
    assert read_jsonl(path) == (None, [{"i": 0}, {"i": 1}])
    assert list(iter_jsonl(path)) == [{"i": 0}, {"i": 1}]
    path.write_text('{"i": 0}\n\n{"i": 1\n')
    with pytest.raises(InputError, match=r"records\.jsonl: line 3: invalid JSON"):
        read_jsonl(path)


def _read_with_json_loads(path):
    """json.loads on each stripped non-blank line, the reader iter_jsonl must match:
    the objects read, then the InputError text of the first bad line or None."""
    objects = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                return objects, f"{path}: line {i + 1}: invalid JSON: {exc}"
            if type(obj) is not dict:
                return objects, f"{path}: line {i + 1}: not a JSON object: {line[:40]!r}"
            objects.append(obj)
    return objects, None


JSONL_CASES = {  # file text, and the line whose error stops the read or None
    "utf8_bom_first_line": ('\ufeff{"a": 1}\n{"b": 2}\n', 1),
    "text_after_the_object": ('{"a": 1}\n{"a":1} x\n', 2),
    "two_objects_on_a_line": ('{"a":1}{"b":2}\n', 1),
    "nan_and_infinity": ('{"a": NaN, "b": [Infinity, -Infinity]}\n', None),
    "nested_objects": ('{"a": {"b": [1, {"c": null}], "d": {}}, "e": "f"}\n', None),
    "a_list": ('{"a": 1}\n[1]\n', 2),
    "a_string": ('"s"\n', 1),
    "blank_and_whitespace_only_lines": ('\n  \t \n{"a": 1}\n\n \n{"b": 2}\n', None),
    "crlf_endings": ('{"a": 1}\r\n\r\n{"b": 2}\r\n', None),
    "crlf_then_a_cut_line": ('{"a": 1}\r\n{"b": [2\r\n', 2),
    "raw_u2028_in_a_string": ('{"a": "x\u2028y"}\n{"b": 1}\n', None),
    "trailing_comma": ('{"a": 1,}\n', 1),
}


@pytest.mark.parametrize("text, bad_line", JSONL_CASES.values(), ids=JSONL_CASES)
def test_iter_jsonl_matches_json_loads(tmp_path, text, bad_line):
    path = tmp_path / "lines.jsonl"
    path.write_bytes(text.encode("utf-8"))
    objects, error = [], None
    try:
        for obj in iter_jsonl(path):
            objects.append(obj)
    except InputError as exc:
        error = str(exc)
    want_objects, want_error = _read_with_json_loads(path)
    assert repr(objects) == repr(want_objects)  # repr, since NaN != NaN
    assert error == want_error
    if bad_line is None:
        assert error is None and objects
    else:
        assert error.startswith(f"{path}: line {bad_line}: ")


def test_read_kv_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 42   # the run seed\n\nridge=1e-6\n# comment only\n")
    assert read_kv_config(path) == {"seed": "42", "ridge": "1e-6"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    with pytest.raises(ValueError):
        read_kv_config(bad)
    # the last of two values would silently win
    bad.write_text("max_per_arm = 5\nmax_per_arm = 500\n")
    with pytest.raises(InputError) as excinfo:
        read_kv_config(bad)
    assert str(excinfo.value) == f"{bad}: config key 'max_per_arm' is repeated"
