import json
from collections import Counter

import pytest

from trialbench.formats import InputError
from trialbench.ingest import (
    Arm,
    ContingencyTable,
    DrugDictionary,
    OutcomeDictionary,
    aggregate,
    filter_arms,
    map_outcomes,
    normalize_text,
    parse_dump,
)


def _arm(trial="T1", arm="a", name="alpha arm", text="alphazine",
         count=500, events=None):
    return Arm(trial, arm, name, text, count, {"E1": 10} if events is None else events)


def test_normalize_text():
    assert normalize_text("  AlphaZine   10mg ") == "alphazine 10mg"
    assert normalize_text("Alpha-Zine (oral)") == "alpha zine oral"
    assert normalize_text("A + B") == "a + b"  # plus sign survives


def test_parse_dump_valid_and_diagnostics():
    lines = [
        json.dumps({"trial_id": "T1", "arm_id": "a", "arm_name": "x",
                    "drug_text": "d", "participant_count": 100,
                    "outcome_events": [{"term": "E1", "count": 3}, {"term": "E1", "count": 4},
                                       {"term": "E2", "count": 0}]}),
        "{not json",
        json.dumps({"trial_id": "T1", "arm_id": "b", "arm_name": "x",
                    "drug_text": "d", "participant_count": 10,
                    "outcome_events": [{"term": "E1", "count": 11}]}),  # events > n
        json.dumps({"trial_id": "T1", "arm_id": "c", "arm_name": "x",
                    "drug_text": "d", "participant_count": -5,
                    "outcome_events": []}),
        "",
        json.dumps({"trial_id": "T1", "arm_id": "d", "arm_name": "x",
                    "drug_text": "d", "participant_count": 100}),  # missing key
        json.dumps({"trial_id": "T1", "arm_id": "e", "arm_name": "x",
                    "drug_text": "d", "participant_count": 150.9,
                    "outcome_events": []}),
        json.dumps({"trial_id": "T1", "arm_id": "f", "arm_name": "x",
                    "drug_text": "d", "participant_count": 150,
                    "outcome_events": [{"term": "E1", "count": 2.7}]}),
        json.dumps({"trial_id": "T1", "arm_id": "g", "arm_name": "x",
                    "drug_text": "d", "participant_count": "150",
                    "outcome_events": [{"term": "E1", "count": True}]}),
        # every text field must be a JSON string: str() would pool null ids as 'None',
        # merge trial 7 with trial "7" and keep ["x"] as "['x']"
        *(json.dumps({"trial_id": "T2", "arm_id": "a", "arm_name": "x", "drug_text": "d",
                      "participant_count": 100, "outcome_events": [], key: value})
          for key, value in (("trial_id", None), ("trial_id", None), ("trial_id", 7),
                             ("arm_id", 1), ("arm_name", ["x"]), ("drug_text", {"d": 1}))),
        json.dumps({"trial_id": "T2", "arm_id": "b", "arm_name": "x", "drug_text": "d",
                    "participant_count": 100, "outcome_events": [{"term": 3, "count": 1}]}),
    ]
    result = parse_dump(lines)
    assert len(result.arms) == 1
    assert result.arms[0].arm_id == "a"
    # repeated terms are summed; a zero count still reports its term
    assert result.arms[0].outcome_events == {"E1": 7, "E2": 0}
    assert [d.line_number for d in result.diagnostics] == [2, 3, 4, 6, 7, 8, 9, *range(10, 17)]
    assert all(d.message.startswith("schema violation") for d in result.diagnostics[-10:])
    assert result.diagnostics[7].message == "schema violation: trial_id None is not a string"
    assert result.diagnostics[-1].message == "schema violation: term 3 is not a string"


def test_parse_dump_checks_summed_counts_against_participants():
    lines = [json.dumps({"trial_id": "T1", "arm_id": arm, "arm_name": "x",
                         "drug_text": "d", "participant_count": 100,
                         "outcome_events": [{"term": "E1", "count": each},
                                            {"term": "E1", "count": each}]})
             for arm, each in (("a", 60), ("b", 50))]
    result = parse_dump(lines)
    assert [arm.arm_id for arm in result.arms] == ["b"]
    assert result.arms[0].outcome_events == {"E1": 100}
    assert [d.line_number for d in result.diagnostics] == [1]
    assert "participant_count" in result.diagnostics[0].message


def test_parse_dump_duplicate_arm_is_hard_error():
    line = json.dumps({"trial_id": "T1", "arm_id": "a", "arm_name": "x",
                       "drug_text": "d", "participant_count": 100,
                       "outcome_events": []})
    with pytest.raises(ValueError, match="line 2: duplicate"):
        parse_dump([line, line])


def test_drug_dictionary_scoring():
    d = DrugDictionary([
        ("AlphaZine", "ALPHA", 100),
        ("alphazine", "ALPHA2", 100),   # same normalized pattern, same score
        ("betamax", "BETA", 50),        # below the 51 cutoff
        ("gammaral", "GAMMA", 60),
        ("gammaral", "GAMMA_ALT", 80),  # higher score wins
    ])
    assert d.lookup("  ALPHAZINE ") == frozenset({"ALPHA", "ALPHA2"})
    assert d.lookup("betamax") == frozenset()
    assert d.lookup("gammaral") == frozenset({"GAMMA_ALT"})
    assert d.lookup("unknown") == frozenset()


def test_drug_dictionary_score_range():
    with pytest.raises(ValueError, match="outside"):
        DrugDictionary([("x", "X", 101)])


@pytest.mark.parametrize("score", ["abc", "75.5", ""])
def test_drug_dictionary_rejects_non_integer_score(score):
    with pytest.raises(ValueError, match=f"match_score {score!r} is not an integer"):
        DrugDictionary([("x", "X", score)])


def test_outcome_dictionary():
    d = OutcomeDictionary([("10001", "MI"), ("10002", "MI"), ("10001", "MI")])
    assert d.lookup("10001") == "MI"
    assert d.lookup("missing") is None
    with pytest.raises(ValueError, match="multiple targets"):
        OutcomeDictionary([("10001", "MI"), ("10001", "STROKE")])


def test_dictionary_file_loading(tmp_path):
    good = tmp_path / "drugs.tsv"
    good.write_text("text_pattern\tingredient_id\tmatch_score\nalphazine\tALPHA\t100\n")
    assert DrugDictionary.load(good).lookup("alphazine") == frozenset({"ALPHA"})
    bad = tmp_path / "bad.tsv"
    bad.write_text("pattern\tingredient\nx\ty\n")
    with pytest.raises(InputError, match=f"{bad}: .*expected header"):
        DrugDictionary.load(bad)


def test_filter_arms_rules_and_order():
    report = Counter()
    arms = [
        (_arm(arm="small", count=99), frozenset({"A"})),
        (_arm(arm="multi"), frozenset({"A", "B"})),
        (_arm(arm="unmapped"), frozenset()),
        (_arm(arm="combo", name="alpha + beta arm"), frozenset({"A"})),
        # small AND combo: charged to the first rule only
        (_arm(arm="small_combo", count=50, name="a + b"), frozenset({"A"})),
        (_arm(arm="keep"), frozenset({"A"})),
    ]
    kept = filter_arms(arms, report)
    assert kept == [("A", arms[-1][0])]
    assert report == {"min_participants": 2, "ingredient_count": 2, "plus_sign": 1}


def test_map_outcomes():
    d = OutcomeDictionary([("10001", "MI"), ("10002", "MI")])
    mapped = map_outcomes(_arm(events={"10001": 3, "10002": 4, "junk": 9}), d)
    assert mapped.outcome_events == {"MI": 7}


def test_map_outcomes_rejects_a_code_summed_above_participants():
    d = OutcomeDictionary([("10001", "MI"), ("10002", "MI")])
    assert map_outcomes(_arm(count=100, events={"10001": 50, "10002": 50}), d
                        ).outcome_events == {"MI": 100}
    with pytest.raises(ValueError, match="trial T1 arm a: .*'MI'"):
        map_outcomes(_arm(count=100, events={"10001": 60, "10002": 60}), d)


def _record(trial, arm, ingredient, n, events):
    return filter_arms([(_arm(trial=trial, arm=arm, count=n, events=events),
                         frozenset({ingredient}))], Counter())[0]


def test_aggregate_pools_dosage_arms():
    arms = [
        _record("T1", "lo", "A", 200, {"E1": 5}),
        _record("T1", "hi", "A", 300, {"E1": 10}),
        _record("T1", "b", "B", 400, {"E1": 8}),
    ]
    (table,) = aggregate(arms)
    assert (table.drug_a, table.drug_b, table.outcome_code) == ("A", "B", "E1")
    assert (table.a, table.n1, table.b, table.n2) == (15, 500, 8, 400)


def test_aggregate_pairwise_expansion():
    arms = [
        _record("T1", "a", "A", 100, {"E1": 1}),
        _record("T1", "b", "B", 100, {"E1": 2}),
        _record("T1", "c", "C", 100, {"E1": 3}),
    ]
    tables = aggregate(arms)
    pairs = [(t.drug_a, t.drug_b) for t in tables]
    assert pairs == [("A", "B"), ("A", "C"), ("B", "C")]


def test_aggregate_one_sided_reporting():
    # only arm A reports E2: trial still contributes, B side counts 0 events
    arms = [
        _record("T1", "a", "A", 100, {"E1": 1, "E2": 4}),
        _record("T1", "b", "B", 150, {"E1": 2}),
        # second trial reports neither arm on E2: contributes nothing to E2
        _record("T2", "a", "A", 500, {"E1": 9}),
        _record("T2", "b", "B", 500, {"E1": 7}),
        # third trial reports E2 with zero events on one side: it still contributes
        _record("T3", "a", "A", 200, {"E1": 1}),
        _record("T3", "b", "B", 300, {"E1": 2, "E2": 0}),
    ]
    tables = {t.outcome_code: t for t in aggregate(arms)}
    assert (tables["E2"].a, tables["E2"].n1, tables["E2"].b, tables["E2"].n2) == (4, 300, 0, 450)
    assert (tables["E1"].a, tables["E1"].n1) == (11, 800)


def test_contingency_table_validation():
    with pytest.raises(ValueError):
        ContingencyTable("B", "A", "E1", 1, 10, 1, 10)  # non-canonical order
    with pytest.raises(ValueError):
        ContingencyTable("A", "B", "E1", 11, 10, 1, 10)  # cell above margin
