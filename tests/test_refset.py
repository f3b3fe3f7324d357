import json
import math
from collections import Counter

import pytest

from trialbench.ingest import ContingencyTable
from trialbench.refset import (
    DEFAULT_ALPHA,
    DIRECTION_A,
    DIRECTION_B,
    DIRECTION_NONE,
    LABEL_STRONG,
    LABEL_WEAK,
    bucket,
    build_from_tables,
    load,
    prefilter,
    save,
    save_drop_report,
)


def _table(a, n1, b, n2, drug_a="A", drug_b="B", outcome="E1"):
    return ContingencyTable(drug_a, drug_b, outcome, a, n1, b, n2)


def test_bucket_open_interval():
    inside = _table(100, 1000, 100, 1000)               # OR = 1
    low_boundary = _table(100, 600, 120, 600)           # OR = 0.8 exactly
    high_boundary = _table(125, 625, 104, 625)          # OR = 1.25 exactly
    strong_tables, weak_tables = bucket([inside, low_boundary, high_boundary])
    assert weak_tables == [inside]
    assert strong_tables == [low_boundary, high_boundary]


def test_prefilter_drops_hopeless_margins():
    report = Counter()
    hopeless = _table(1, 100, 0, 100)        # one pooled event: min p > 0.05
    viable = _table(40, 200, 5, 200)
    kept = prefilter([hopeless, viable], LABEL_STRONG, 0.05, report)
    assert [table for table, _ in kept] == [viable]
    assert 0 < kept[0][1] < 0.05
    assert report == {"prefilter_strong": 1}


def test_build_from_tables_labels_and_directions():
    tables = [
        _table(80, 400, 10, 400, outcome="UP"),         # big OR: strong, a_higher
        _table(10, 400, 80, 400, outcome="DOWN"),       # small OR: strong, b_higher
        _table(500, 5000, 500, 5000, outcome="FLAT"),   # OR 1, huge n: weak
        _table(3, 120, 2, 120, outcome="NOISE"),        # small: certifies nothing
    ]
    refset = build_from_tables(tables, alpha=0.05, provenance={}, drop_report=Counter())
    by_outcome = {e.outcome_code: e for e in refset.entries}
    assert set(by_outcome) == {"UP", "DOWN", "FLAT"}
    assert by_outcome["UP"].label == LABEL_STRONG
    assert by_outcome["UP"].direction == DIRECTION_A
    assert by_outcome["DOWN"].direction == DIRECTION_B
    assert by_outcome["FLAT"].label == LABEL_WEAK
    assert by_outcome["FLAT"].direction == DIRECTION_NONE
    assert all(0 <= e.p_value <= 1 and e.p_value <= e.q_value + 1e-15
               for e in refset.entries)
    # entries come out key-sorted
    keys = [e.key for e in refset.entries]
    assert keys == sorted(keys)
    assert refset.provenance["alpha"] == 0.05


def test_bh_is_per_family():
    # the weak family's p-values must not dilute the strong family's BH: each strong table
    # has p = 0.018, which BH over the two strong tables rejects and BH pooled with the 40
    # weak tables' p = 0.45 does not; the weak tables' margins pass the pre-filter
    strong = [_table(32, 200, 15, 200, outcome=f"S{i}") for i in range(2)]
    weak = [_table(240, 2000, 200, 2000, outcome=f"W{i}") for i in range(40)]
    refset = build_from_tables(strong + weak, alpha=0.05, provenance={}, drop_report=Counter())
    assert refset.provenance["n_weak_candidates"] == 40
    strong_calls = [e for e in refset.entries if e.label == LABEL_STRONG]
    assert [e.outcome_code for e in strong_calls] == ["S0", "S1"]
    assert strong_calls[0].p_value == pytest.approx(0.0184, abs=1e-4)
    assert not [e for e in refset.entries if e.label == LABEL_WEAK]


def test_save_load_round_trip(tmp_path):
    refset = build_from_tables([_table(80, 400, 10, 400)], alpha=DEFAULT_ALPHA,
                               provenance={"source": "unit"}, drop_report=Counter())
    path = tmp_path / "refset.jsonl"
    save(refset, path)
    loaded = load(path)
    assert loaded.entries == refset.entries
    assert loaded.provenance["source"] == "unit"


def test_load_requires_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"drug_a": "A"}) + "\n")
    with pytest.raises(ValueError):
        load(path)


def test_load_external_set_defaults(tmp_path):
    path = tmp_path / "external.jsonl"
    lines = [
        json.dumps({"kind": "reference_set"}),
        json.dumps({"drug_a": "A", "drug_b": "B", "outcome_code": "E1",
                    "label": "strong"}),
        json.dumps({"drug_a": "A", "drug_b": "C", "outcome_code": "E1",
                    "label": "weak"}),
    ]
    path.write_text("\n".join(lines) + "\n")
    loaded = load(path)
    assert loaded.entries[0].direction == DIRECTION_A
    assert loaded.entries[1].direction == DIRECTION_NONE
    assert math.isnan(loaded.entries[0].pooled_or)
    bad = tmp_path / "badlabel.jsonl"
    bad.write_text(lines[0] + "\n" + json.dumps(
        {"drug_a": "A", "drug_b": "B", "outcome_code": "E1", "label": "maybe"}) + "\n")
    with pytest.raises(ValueError):
        load(bad)


def test_save_drop_report(tmp_path):
    report = Counter({"min_participants": 2, "plus_sign": 1})
    path = tmp_path / "drops.tsv"
    save_drop_report(report, path)
    assert path.read_text() == "rule\tcount\nmin_participants\t2\nplus_sign\t1\n"
