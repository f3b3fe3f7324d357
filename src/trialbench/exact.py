"""Exact inference on 2x2 tables.

Fisher noncentral hypergeometric distribution, one-sided exact tests at
odds-ratio nulls, composite weak/strong p-values, minimum-achievable
p-values for fixed margins, and Benjamini-Hochberg FDR control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

# Odds-ratio thresholds separating weak from strong effects.
WEAK_OR_LOW = 0.8
WEAK_OR_HIGH = 1.25

# Floor so p_strong stays strictly positive.
_P_FLOOR = 5e-324


@dataclass(frozen=True)
class TableMargins:
    """Fixed margins of a 2x2 table plus the observed drug-A cell.

    n1, n2: arm participant counts; m: total events; k: events in arm A.
    """

    n1: int
    n2: int
    m: int
    k: int

    def __post_init__(self):
        lo, hi = support(self.n1, self.n2, self.m)
        if not (0 <= self.m <= self.n1 + self.n2):
            raise ValueError(f"m={self.m} outside [0, {self.n1 + self.n2}]")
        if not (lo <= self.k <= hi):
            raise ValueError(f"k={self.k} outside support [{lo}, {hi}]")


@dataclass(frozen=True)
class OddsRatioNull:
    psi: float
    tail: str  # "lower" or "upper"

    def __post_init__(self):
        if self.psi <= 0:
            raise ValueError("psi must be positive")
        if self.tail not in ("lower", "upper"):
            raise ValueError(f"unknown tail {self.tail!r}")


def support(n1: int, n2: int, m: int) -> tuple[int, int]:
    """Inclusive support bounds of the drug-A cell given fixed margins."""
    return max(0, m - n2), min(m, n1)


def odds_ratio(a: int, n1: int, b: int, n2: int) -> float:
    """Sample odds ratio a*(n2-b) / ((n1-a)*b) with boundary conventions.

    Both-numerator-and-denominator zero (e.g. no events anywhere) is
    defined as 1 so downstream bucketing treats it as a weak candidate.
    """
    num = a * (n2 - b)
    den = (n1 - a) * b
    if num == 0 and den == 0:
        return 1.0
    if den == 0:
        return math.inf
    return num / den


def _log_pmf_vector(n1: int, n2: int, m: int, psi: float) -> np.ndarray:
    """Normalized log-pmf of the noncentral hypergeometric over the support."""
    lo, hi = support(n1, n2, m)
    k = np.arange(lo, hi + 1)
    logw = (
        gammaln(n1 + 1) - gammaln(k + 1) - gammaln(n1 - k + 1)
        + gammaln(n2 + 1) - gammaln(m - k + 1) - gammaln(n2 - m + k + 1)
        + k * math.log(psi)
    )
    mx = logw.max()
    return logw - (mx + math.log(np.exp(logw - mx).sum()))


def nchg_log_pmf(k: int, margins: TableMargins, psi: float) -> float:
    """Log-probability of cell value k under odds ratio psi, fixed margins."""
    lo, hi = support(margins.n1, margins.n2, margins.m)
    if not (lo <= k <= hi):
        raise ValueError(f"k={k} outside support [{lo}, {hi}]")
    logp = _log_pmf_vector(margins.n1, margins.n2, margins.m, psi)
    return float(logp[k - lo])


def fisher_one_sided_p(margins: TableMargins, null: OddsRatioNull) -> float:
    """One-sided exact tail probability of the observed cell under psi."""
    lo, _ = support(margins.n1, margins.n2, margins.m)
    pmf = np.exp(_log_pmf_vector(margins.n1, margins.n2, margins.m, null.psi))
    i = margins.k - lo
    if null.tail == "upper":
        p = float(pmf[i:].sum())
    else:
        p = float(pmf[: i + 1].sum())
    return min(max(p, _P_FLOOR), 1.0)


def _family_p_all(n1: int, n2: int, m: int, family: str) -> np.ndarray:
    """Composite p-value at every realizable cell value, vectorized.

    Lower/upper tails come from cumulative sums of the two noncentral pmfs
    so the per-k values and the minimum over k share one code path.
    """
    pmf_low = np.exp(_log_pmf_vector(n1, n2, m, WEAK_OR_LOW))
    pmf_high = np.exp(_log_pmf_vector(n1, n2, m, WEAK_OR_HIGH))
    lower_low = np.minimum(np.cumsum(pmf_low), 1.0)  # P(K <= k; psi=0.8)
    lower_high = np.minimum(np.cumsum(pmf_high), 1.0)  # P(K <= k; psi=1.25)
    upper_low = np.minimum(np.cumsum(pmf_low[::-1])[::-1], 1.0)  # P(K >= k; 0.8)
    upper_high = np.minimum(np.cumsum(pmf_high[::-1])[::-1], 1.0)  # P(K >= k; 1.25)
    if family == "weak":
        p = np.maximum(lower_high, upper_low)
    elif family == "strong":
        p = 0.5 * np.minimum(lower_low, upper_high)
    else:
        raise ValueError(f"unknown family {family!r}")
    return np.clip(p, _P_FLOOR, 1.0)


def p_weak(margins: TableMargins) -> float:
    """Equivalence-style p: max of the two one-sided tests at 1.25 / 0.8."""
    lo, _ = support(margins.n1, margins.n2, margins.m)
    return float(_family_p_all(margins.n1, margins.n2, margins.m, "weak")[margins.k - lo])


def p_strong(margins: TableMargins) -> float:
    """Strong-effect p: half the minimum of the two one-sided tests."""
    lo, _ = support(margins.n1, margins.n2, margins.m)
    return float(_family_p_all(margins.n1, margins.n2, margins.m, "strong")[margins.k - lo])


def min_achievable_p(n1: int, n2: int, m: int, family: str) -> float:
    """Smallest family p-value over every realizable cell for these margins."""
    return float(_family_p_all(n1, n2, m, family).min())


def bh_reject(p_values, alpha: float) -> set[int]:
    """Benjamini-Hochberg step-up: indices of rejected hypotheses."""
    p = np.asarray(p_values, dtype=float)
    if p.size == 0:
        return set()
    if np.any((p < 0) | (p > 1)):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    sorted_p = p[order]
    ranks = np.arange(1, m + 1)
    ok = sorted_p <= ranks / m * alpha
    if not ok.any():
        return set()
    cutoff = sorted_p[np.nonzero(ok)[0].max()]
    return set(np.nonzero(p <= cutoff)[0].tolist())


def bh_qvalues(p_values) -> np.ndarray:
    """BH-adjusted q-values (monotone step-up adjustment)."""
    p = np.asarray(p_values, dtype=float)
    m = p.size
    if m == 0:
        return np.empty(0)
    order = np.argsort(p, kind="stable")
    ranks = np.arange(1, m + 1)
    q_sorted = np.minimum.accumulate((p[order] * m / ranks)[::-1])[::-1]
    q = np.empty(m)
    q[order] = np.minimum(q_sorted, 1.0)
    return q
