import hashlib

import pytest

from trialbench.formats import (
    dump_json_line,
    read_jsonl,
    read_kv_config,
    sha256_file,
    write_jsonl,
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
    header, records = read_jsonl(path, expect_header=True)
    assert header == {"kind": "test"}
    assert records == [{"i": 0}, {"i": 1}]
    # without expect_header the header line is just another record
    _, all_records = read_jsonl(path)
    assert len(all_records) == 3
    assert not path.with_suffix(".jsonl.tmp").exists()


def test_read_kv_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 42   # the run seed\n\nridge=1e-6\n# comment only\n")
    assert read_kv_config(path) == {"seed": "42", "ridge": "1e-6"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    with pytest.raises(ValueError):
        read_kv_config(bad)
