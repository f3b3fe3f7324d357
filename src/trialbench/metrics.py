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
from .formats import json_bool, json_number, json_str
from .refset import DIRECTION_A, DIRECTION_B, DIRECTION_NONE, LABEL_STRONG

# Hazard-ratio thresholds for the fixed summary table.
FIXED_HR_THRESHOLDS = (2.0, 1.5, 1.25)


@dataclass
class MetricsRow:
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
    """One converged-or-not estimate of a reference entry."""
    available: bool
    direction: str       # direction implied by the effect sign
    magnitude: float     # |log HR| or |RMST delta|


def effects_by_method(records) -> dict[str, tuple[str, dict[tuple, ScoredEffect]]]:
    """Group estimate records into {method_id: (scale, {entry key: scored effect})}.

    A record is available when it converged with a point estimate. Raises
    TypeError unless each drug and outcome code and method_id is a string, each
    point null or a number and each converged flag a boolean, and ValueError
    unless each point is finite, each method's records share one known scale and
    no two records share an entry and method.
    """
    grouped: dict[str, tuple[str, dict]] = {}
    for rec in records:
        key = (json_str(rec, "drug_a"), json_str(rec, "drug_b"), json_str(rec, "outcome_code"))
        method_id, converged = json_str(rec, "method_id"), json_bool(rec, "converged")
        point = None if rec["point"] is None else json_number(rec, "point")
        scale, effects = grouped.setdefault(method_id, (rec["scale"], {}))
        if rec["scale"] != scale:
            raise ValueError(f"{method_id}: rows on both {scale!r} and {rec['scale']!r}")
        if scale not in (SCALE_LOG_HR, SCALE_RMST_DAYS):
            raise ValueError(f"{method_id}: unknown scale {scale!r}")
        if point is not None and not math.isfinite(point):
            raise ValueError(f"{method_id}: point {point!r} is not null or a finite number")
        if key in effects:
            raise ValueError(f"{method_id}: two rows for the entry {key!r}")
        if converged and point is not None:
            effects[key] = ScoredEffect(True, direction_of(scale, point), abs(point))
        else:
            effects[key] = ScoredEffect(False, DIRECTION_NONE, math.nan)
    return grouped


def score(effects: dict[tuple, ScoredEffect], reference_set,
          thresholds: list[float]) -> list[MetricsRow]:
    """Weighted precision / recall at each magnitude threshold, in the order given, read
    off running counts over one descending sort of the evaluable entries by magnitude.

    Strong entries are weighted by N_weak / N_strong (counts over evaluable
    entries) so the two families balance; precision requires a correct
    direction. Entries without an available estimate never count toward
    precision but do count as recall misses. A NaN magnitude is never
    predicted strong and an infinite one always is.
    """
    entries = reference_set.entries
    if not entries:
        raise ValueError("empty reference set")
    pairs = [(entry, eff) for entry in entries
             if (eff := effects.get(entry.key)) is not None and eff.available]
    magnitude = np.array([eff.magnitude for _, eff in pairs], dtype=float)
    strong = np.array([entry.label == LABEL_STRONG for entry, _ in pairs], dtype=bool)
    hit = strong & np.array([eff.direction == entry.direction for entry, eff in pairs], bool)
    order = np.argsort(-magnitude)  # NaN sorts last, so no threshold reaches it
    # counts[:, k]: correct-strong, wrong-direction-strong and weak among the k largest
    counts = np.pad(np.cumsum(np.array([hit, strong & ~hit, ~strong])[:, order], axis=1),
                    ((0, 0), (1, 0)))
    above = np.searchsorted(-magnitude[order], -np.array(thresholds, dtype=float), side="right")
    n_strong_eval, n_weak_eval = int(strong.sum()), int((~strong).sum())
    n_strong_total = sum(1 for e in entries if e.label == LABEL_STRONG)
    # unweighted fallback when either family has no evaluable entries
    strong_weight = (n_weak_eval / n_strong_eval) if (n_strong_eval and n_weak_eval) else 1.0
    rows = []
    for threshold, (tp, fp_strong, fp_weak) in zip(thresholds, counts[:, above].T.tolist()):
        tp_w, fp_w = tp * strong_weight, fp_strong * strong_weight + fp_weak
        rows.append(MetricsRow(
            threshold=threshold,
            weighted_precision=(tp_w / (tp_w + fp_w)) if tp_w + fp_w > 0 else None,
            recall=tp / n_strong_total if n_strong_total else 0.0,
            recall_evaluable=tp / n_strong_eval if n_strong_eval else 0.0,
            tp_weighted=tp_w,
            fp_weighted=fp_w,
            tp=tp,
            fp=fp_strong + fp_weak,
            fn=n_strong_total - tp,
            n_evaluable=len(pairs),
        ))
    return rows


def pr_curve(effects: dict[tuple, ScoredEffect], reference_set, scale: str) -> list[MetricsRow]:
    """One row per distinct finite magnitude (descending) plus the fixed HR cuts;
    [] when no available effect has a finite magnitude."""
    thresholds = {e.magnitude for e in effects.values()
                  if e.available and math.isfinite(e.magnitude)}
    if not thresholds:
        return []
    if scale == SCALE_LOG_HR:
        thresholds |= {threshold_to_magnitude(scale, t) for t in FIXED_HR_THRESHOLDS}
    return score(effects, reference_set, sorted(thresholds, reverse=True))
