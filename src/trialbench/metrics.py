"""Scoring estimator outputs against a reference set.

Thresholded strong/weak prediction with direction, weighted precision
and recall (strong entries downweighted to balance the two families),
full precision-recall sweeps, and the fixed-threshold hazard-ratio
table at 2 / 1.5 / 1.25.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators.methods import SCALE_LOG_HR, SCALE_RMST_DAYS
from .refset import DIRECTION_A, DIRECTION_B, DIRECTION_NONE, LABEL_STRONG, LABEL_WEAK

# Hazard-ratio thresholds for the fixed summary table.
FIXED_HR_THRESHOLDS = (2.0, 1.5, 1.25)


@dataclass
class MetricsRow:
    method_id: str
    threshold: float  # magnitude scale: |log HR| or |RMST delta| in days
    weighted_precision: float | None  # None when no strong predictions exist
    recall: float            # denominator: all strong entries in the set
    recall_evaluable: float  # denominator: strong entries with available predictions
    tp_weighted: float
    fp_weighted: float
    tp: int
    fp: int
    fn: int
    n_evaluable: int


def direction_of(scale: str, point: float) -> str:
    """Sign-to-direction mapping per effect scale.

    Positive log-HR means drug A has the higher hazard; a negative RMST
    difference (A minus B, in days) means drug A loses event-free time.
    """
    if scale == SCALE_LOG_HR:
        return DIRECTION_A if point > 0 else DIRECTION_B
    if scale == SCALE_RMST_DAYS:
        return DIRECTION_A if point < 0 else DIRECTION_B
    raise ValueError(f"unknown scale {scale!r}")


def threshold_to_magnitude(scale: str, threshold: float) -> float:
    """HR thresholds (> 1) compare on the |log HR| scale; RMST in days."""
    if scale == SCALE_LOG_HR:
        if threshold <= 1:
            raise ValueError("HR threshold must exceed 1")
        return math.log(threshold)
    if threshold <= 0:
        raise ValueError("RMST threshold must be positive (days)")
    return threshold


@dataclass(frozen=True)
class ScoredEffect:
    """One converged-or-not estimate attached to a reference entry."""
    entry_key: tuple[str, str, str]
    method_id: str
    available: bool
    direction: str       # direction implied by the effect sign
    magnitude: float     # |log HR| or |RMST delta|


def effects_by_method(records) -> dict[str, tuple[str, list[ScoredEffect]]]:
    """Group estimate records into {method_id: (scale, scored effects)}.

    A method's scale is that of its first record; a later record for the
    same entry replaces the earlier one. A record is available when it
    converged with a point estimate.
    """
    grouped: dict[str, tuple[str, dict]] = {}
    for rec in records:
        key = (rec["drug_a"], rec["drug_b"], rec["outcome_code"])
        method_id = rec["method_id"]
        scale, effects = grouped.setdefault(method_id, (rec["scale"], {}))
        point = rec["point"]
        if rec["converged"] and point is not None:
            effects[key] = ScoredEffect(key, method_id, True, direction_of(scale, point),
                                        abs(point))
        else:
            effects[key] = ScoredEffect(key, method_id, False, DIRECTION_NONE, math.nan)
    return {m: (scale, list(effects.values())) for m, (scale, effects) in grouped.items()}


def score(effects: list[ScoredEffect], reference_set, magnitude_threshold: float,
          method_id: str = "") -> MetricsRow:
    """Weighted precision / recall at one magnitude threshold.

    Strong entries are weighted by N_weak / N_strong (counts over
    evaluable entries) so the two families balance; precision requires a
    correct direction. Entries without an available estimate never count
    toward precision but do count as recall misses.
    """
    entries = reference_set.entries
    if not entries:
        raise ValueError("empty reference set")
    by_key = {e.entry_key: e for e in effects}

    n_strong_eval = sum(1 for e in entries
                        if e.label == LABEL_STRONG
                        and by_key.get(e.key) is not None and by_key[e.key].available)
    n_weak_eval = sum(1 for e in entries
                      if e.label == LABEL_WEAK
                      and by_key.get(e.key) is not None and by_key[e.key].available)
    n_strong_total = sum(1 for e in entries if e.label == LABEL_STRONG)
    # unweighted fallback when either family has no evaluable entries
    strong_weight = (n_weak_eval / n_strong_eval) if (n_strong_eval and n_weak_eval) else 1.0

    tp_w = fp_w = 0.0
    tp = fp = 0
    correct_strong = 0
    n_evaluable = 0
    for entry in entries:
        eff = by_key.get(entry.key)
        if eff is None or not eff.available:
            continue
        n_evaluable += 1
        predicted_strong = eff.magnitude >= magnitude_threshold
        if not predicted_strong:
            continue
        weight = strong_weight if entry.label == LABEL_STRONG else 1.0
        hit = entry.label == LABEL_STRONG and eff.direction == entry.direction
        if hit:
            tp_w += weight
            tp += 1
            correct_strong += 1
        else:
            fp_w += weight
            fp += 1

    predicted_strong_w = tp_w + fp_w
    precision = (tp_w / predicted_strong_w) if predicted_strong_w > 0 else None
    recall = correct_strong / n_strong_total if n_strong_total else 0.0
    recall_eval = correct_strong / n_strong_eval if n_strong_eval else 0.0
    return MetricsRow(
        method_id=method_id,
        threshold=magnitude_threshold,
        weighted_precision=precision,
        recall=recall,
        recall_evaluable=recall_eval,
        tp_weighted=tp_w,
        fp_weighted=fp_w,
        tp=tp,
        fp=fp,
        fn=n_strong_total - correct_strong,
        n_evaluable=n_evaluable,
    )


def pr_curve(effects: list[ScoredEffect], reference_set, scale: str,
             method_id: str = "") -> list[MetricsRow]:
    """One row per distinct magnitude (descending) plus the fixed HR cuts."""
    mags = sorted({e.magnitude for e in effects if e.available and math.isfinite(e.magnitude)},
                  reverse=True)
    if not mags:
        raise ValueError("no converged predictions")
    thresholds = list(mags)
    if scale == SCALE_LOG_HR:
        thresholds += [threshold_to_magnitude(scale, t) for t in FIXED_HR_THRESHOLDS]
    thresholds = sorted(set(thresholds), reverse=True)
    return [score(effects, reference_set, t, method_id) for t in thresholds]
