import math

import numpy as np
import pytest
from oracles import naive_score

from trialbench.estimators.methods import SCALE_LOG_HR, SCALE_RMST_DAYS
from trialbench.metrics import (
    FIXED_HR_THRESHOLDS,
    ScoredEffect,
    direction_of,
    effects_by_method,
    pr_curve,
    score,
    threshold_to_magnitude,
)
from trialbench.refset import (
    DIRECTION_A,
    DIRECTION_B,
    DIRECTION_NONE,
    LABEL_STRONG,
    LABEL_WEAK,
    ReferenceEntry,
    ReferenceSet,
)


def _entry(i, label, direction):
    return ReferenceEntry("A", "B", f"E{i:04d}", label, direction, 1.0, 0.01, 0.02)


def _effect(direction=DIRECTION_A, magnitude=1.0):
    return ScoredEffect(True, direction, magnitude)


def test_direction_conventions():
    assert direction_of(SCALE_LOG_HR, 0.3) == DIRECTION_A
    assert direction_of(SCALE_LOG_HR, -0.3) == DIRECTION_B
    assert direction_of(SCALE_RMST_DAYS, -5.0) == DIRECTION_A  # A loses time
    assert direction_of(SCALE_RMST_DAYS, 5.0) == DIRECTION_B
    with pytest.raises(ValueError):
        direction_of("risk_difference", 0.1)


def test_threshold_mapping():
    assert threshold_to_magnitude(SCALE_LOG_HR, 2.0) == pytest.approx(math.log(2))
    assert threshold_to_magnitude(SCALE_RMST_DAYS, 30.0) == 30.0
    with pytest.raises(ValueError):
        threshold_to_magnitude(SCALE_LOG_HR, 0.9)
    with pytest.raises(ValueError):
        threshold_to_magnitude(SCALE_RMST_DAYS, -1.0)


def _record(outcome, method_id, scale, point, converged=True):
    return {"drug_a": "A", "drug_b": "B", "outcome_code": outcome, "method_id": method_id,
            "scale": scale, "point": point, "converged": converged}


def test_effects_by_method():
    records = [
        _record("E1", "cox", SCALE_LOG_HR, math.log(1.8)),
        _record("E2", "cox", SCALE_LOG_HR, -0.2),
        _record("E3", "cox", SCALE_LOG_HR, 0.4, converged=False),   # unavailable
        _record("E4", "cox", SCALE_LOG_HR, None, converged=True),   # no point
        _record("E1", "km", SCALE_RMST_DAYS, -12.0),
        _record("E1", "km", SCALE_RMST_DAYS, 7.0),                  # replaces the first
    ]
    grouped = effects_by_method(records)
    assert list(grouped) == ["cox", "km"]
    scale, effects = grouped["cox"]
    assert scale == SCALE_LOG_HR
    assert list(effects) == [("A", "B", f"E{i}") for i in range(1, 5)]
    assert effects["A", "B", "E1"] == ScoredEffect(True, DIRECTION_A, math.log(1.8))
    second = effects["A", "B", "E2"]
    assert second.direction == DIRECTION_B and second.magnitude == 0.2
    for key in (("A", "B", "E3"), ("A", "B", "E4")):
        unavailable = effects[key]
        assert not unavailable.available and unavailable.direction == DIRECTION_NONE
        assert math.isnan(unavailable.magnitude)
    scale, effects = grouped["km"]
    assert scale == SCALE_RMST_DAYS
    assert effects == {("A", "B", "E1"): ScoredEffect(True, DIRECTION_B, 7.0)}


def _hand_fixture():
    """2 strong + 2 weak entries; 3 strong predictions, 1 correct."""
    entries = [
        _entry(0, LABEL_STRONG, DIRECTION_A),
        _entry(1, LABEL_STRONG, DIRECTION_B),
        _entry(2, LABEL_WEAK, DIRECTION_NONE),
        _entry(3, LABEL_WEAK, DIRECTION_NONE),
    ]
    effects = {
        entries[0].key: _effect(direction=DIRECTION_A, magnitude=2.0),   # TP
        entries[1].key: _effect(direction=DIRECTION_B, magnitude=0.1),   # predicted weak: miss
        entries[2].key: _effect(direction=DIRECTION_A, magnitude=2.0),   # FP
        entries[3].key: _effect(direction=DIRECTION_B, magnitude=2.0),   # FP
    }
    return ReferenceSet(entries), effects


def test_score_hand_fixture():
    refset, effects = _hand_fixture()
    [row] = score(effects, refset, [1.0])
    assert row.weighted_precision == pytest.approx(1 / 3)
    assert row.recall == pytest.approx(1 / 2)
    assert row.recall_evaluable == pytest.approx(1 / 2)
    assert (row.tp, row.fp, row.fn) == (1, 2, 1)
    assert row.n_evaluable == 4


def test_score_requires_direction_match():
    refset, effects = _hand_fixture()
    flipped = {key: ScoredEffect(e.available,
                                 DIRECTION_B if e.direction == DIRECTION_A else DIRECTION_A,
                                 e.magnitude) for key, e in effects.items()}
    [row] = score(flipped, refset, [1.0])
    assert row.tp == 0 and row.recall == 0.0


def test_score_family_weighting():
    # 1 strong + 3 weak evaluable: strong entries carry weight 3
    entries = [_entry(0, LABEL_STRONG, DIRECTION_A)] + [
        _entry(i, LABEL_WEAK, DIRECTION_NONE) for i in (1, 2, 3)]
    effects = {e.key: _effect(magnitude=2.0) for e in entries}  # all predicted strong
    [row] = score(effects, ReferenceSet(entries), [1.0])
    assert row.tp_weighted == pytest.approx(3.0)
    assert row.fp_weighted == pytest.approx(3.0)
    assert row.weighted_precision == pytest.approx(0.5)


def test_score_unavailable_entries():
    entries = [_entry(0, LABEL_STRONG, DIRECTION_A), _entry(1, LABEL_STRONG, DIRECTION_A),
               _entry(2, LABEL_WEAK, DIRECTION_NONE)]
    effects = {
        entries[0].key: _effect(magnitude=2.0),
        entries[1].key: ScoredEffect(False, DIRECTION_NONE, math.nan),
        entries[2].key: _effect(magnitude=0.0),
    }
    [row] = score(effects, ReferenceSet(entries), [1.0])
    assert row.n_evaluable == 2
    assert row.recall == pytest.approx(1 / 2)            # both strong in denominator
    assert row.recall_evaluable == pytest.approx(1.0)    # only evaluable strong
    assert row.weighted_precision == pytest.approx(1.0)


def test_score_no_strong_predictions_yields_none():
    refset, effects = _hand_fixture()
    [row] = score(effects, refset, [100.0])
    assert row.weighted_precision is None
    assert row.recall == 0.0


def test_score_empty_reference_set():
    with pytest.raises(ValueError):
        score({}, ReferenceSet([]), [1.0])


def test_pr_curve_structure():
    rng = np.random.default_rng(8)
    entries, effects = [], {}
    for i in range(60):
        label = LABEL_STRONG if i % 2 else LABEL_WEAK
        direction = DIRECTION_A if label == LABEL_STRONG else DIRECTION_NONE
        entry = _entry(i, label, direction)
        entries.append(entry)
        effects[entry.key] = _effect(direction=DIRECTION_A, magnitude=float(rng.uniform(0, 2)))
    refset = ReferenceSet(entries)
    rows = pr_curve(effects, refset, SCALE_LOG_HR)
    thresholds = [r.threshold for r in rows]
    assert thresholds == sorted(thresholds, reverse=True)
    for hr in FIXED_HR_THRESHOLDS:
        assert any(abs(t - math.log(hr)) < 1e-12 for t in thresholds)
    recalls = [r.recall for r in rows]
    assert recalls == sorted(recalls)  # recall grows as the threshold drops
    assert pr_curve({("A", "B", "E"): ScoredEffect(False, DIRECTION_NONE, math.nan)},
                    refset, SCALE_LOG_HR) == []


def _random_set(rng):
    """A random reference set and effects: tied, infinite, NaN and unavailable magnitudes,
    entries without an effect, effects outside the set, and single-family sets."""
    n = int(rng.integers(1, 120))
    families = [[LABEL_STRONG], [LABEL_WEAK], [LABEL_STRONG, LABEL_WEAK]][int(rng.integers(3))]
    entries, effects = [], {}
    for i in range(n):
        label = str(rng.choice(families))
        entry = _entry(i, label, str(rng.choice([DIRECTION_A, DIRECTION_B]))
                       if label == LABEL_STRONG else DIRECTION_NONE)
        entries.append(entry)
        kind = rng.choice(["tied", "continuous", "infinite", "nan", "unavailable", "absent"],
                          p=[0.3, 0.3, 0.1, 0.1, 0.1, 0.1])
        if kind == "absent":
            continue
        if kind == "unavailable":
            effects[entry.key] = ScoredEffect(False, DIRECTION_NONE, math.nan)
            continue
        magnitude = {"tied": float(rng.integers(0, 4)) / 4, "continuous": rng.exponential(0.5),
                     "infinite": math.inf, "nan": math.nan}[kind]
        effects[entry.key] = _effect(direction=str(rng.choice([DIRECTION_A, DIRECTION_B])),
                                     magnitude=float(magnitude))
    for i in range(int(rng.integers(0, 3))):  # keys the reference set does not hold
        effects["X", "Y", f"Z{i}"] = _effect(magnitude=float(rng.integers(0, 4)) / 4)
    keys = list(effects)
    rng.shuffle(keys)
    return ReferenceSet(entries), {key: effects[key] for key in keys}


def _as_reported(value):
    return "" if value is None else f"{value:.6g}"


def _assert_matches_oracle(row, expected):
    assert _as_reported(row.weighted_precision) == _as_reported(expected["precision"])
    for name in ("recall", "recall_evaluable", "tp", "fp", "fn", "n_evaluable"):
        assert getattr(row, name) == expected[name], name
    for name in ("tp_weighted", "fp_weighted"):
        assert getattr(row, name) == pytest.approx(expected[name], rel=1e-12, abs=0), name


@pytest.mark.parametrize("seed", range(40))
def test_score_and_pr_curve_match_naive_rescan(seed):
    rng = np.random.default_rng(seed)
    refset, effects = _random_set(rng)
    thresholds = [0.0, 0.25, 0.5, 0.6, 1.0, math.log(2), 5.0, math.inf]
    for threshold in thresholds:
        [row] = score(effects, refset, [threshold])
        _assert_matches_oracle(row, naive_score(effects, refset.entries, threshold))
    # one call over the thresholds shuffled, one repeated: a row per threshold, in order
    listed = [*thresholds, thresholds[int(rng.integers(len(thresholds)))]]
    rng.shuffle(listed)
    rows = score(effects, refset, listed)
    assert [row.threshold for row in rows] == listed
    for threshold, row in zip(listed, rows):
        _assert_matches_oracle(row, naive_score(effects, refset.entries, threshold))
    finite = {e.magnitude for e in effects.values()
              if e.available and math.isfinite(e.magnitude)}
    if not finite:
        assert pr_curve(effects, refset, SCALE_LOG_HR) == []
        return
    for scale, extra in ((SCALE_LOG_HR, {math.log(t) for t in FIXED_HR_THRESHOLDS}),
                         (SCALE_RMST_DAYS, set())):
        rows = pr_curve(effects, refset, scale)
        assert [r.threshold for r in rows] == sorted(finite | extra, reverse=True)
        for row in rows:
            _assert_matches_oracle(row, naive_score(effects, refset.entries, row.threshold))
