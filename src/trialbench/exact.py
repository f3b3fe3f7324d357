"""Exact inference on 2x2 tables.

Fisher noncentral hypergeometric distribution, one-sided exact tests at
odds-ratio nulls, composite weak/strong p-values, minimum-achievable
p-values for fixed margins, and Benjamini-Hochberg FDR control.
"""

from __future__ import annotations

import math

import numpy as np

# Odds-ratio thresholds separating weak from strong effects.
WEAK_OR_LOW = 0.8
WEAK_OR_HIGH = 1.25

# Floor so p_strong stays strictly positive.
_P_FLOOR = 5e-324

# family -> (null of its lower tail, null of its upper tail)
_FAMILY_TAIL_NULLS = {
    "weak": (WEAK_OR_HIGH, WEAK_OR_LOW),
    "strong": (WEAK_OR_LOW, WEAK_OR_HIGH),
}


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


# _LOG_FACTORIAL[i] = log(i!) = math.lgamma(i + 1), grown by doubling whenever a
# 2x2 table's arm lies past its end; the only place this module calls lgamma.
_LOG_FACTORIAL = np.empty(0)


def _log_binomials(n1: int, n2: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Support k, as floats, and log C(n1, k) + log C(n2, m - k) over it.

    Every term is read off one log-factorial table shared by all margins.
    """
    global _LOG_FACTORIAL
    lo, hi = support(n1, n2, m)
    if lo > hi:  # exactly the margins with a negative count or m outside [0, n1 + n2]
        raise ValueError(f"margins n1={n1}, n2={n2}, m={m} have no support")
    if max(n1, n2) >= _LOG_FACTORIAL.size:
        size = max(n1 + 1, n2 + 1, 2 * _LOG_FACTORIAL.size)
        _LOG_FACTORIAL = np.fromiter(map(math.lgamma, range(1, size + 1)), float, size)
    lf = _LOG_FACTORIAL
    # lf[n1] - lf[k] - lf[n1 - k] + lf[n2] - lf[m - k] - lf[n2 - m + k], left to
    # right, each support-long term a slice of the table (reversed where it falls
    # with k); k is exact as a float, so the nulls' k log psi casts nothing
    base = np.subtract(lf[n1], lf[lo:hi + 1])
    base -= lf[n1 - hi:n1 - lo + 1][::-1]
    base += lf[n2]
    base -= lf[m - hi:m - lo + 1][::-1]
    base -= lf[n2 - m + lo:n2 - m + hi + 1]
    return np.arange(lo, hi + 1, dtype=float), base


# exp(x) is exactly 0.0 for x below about -745.13, so a cell whose log-weight lies
# more than _DEAD_BELOW under its null's maximum has a pmf of exactly 0.0.
_DEAD_BELOW = 760.0

# Rows reused by every table, grown to the longest support seen: a null's
# log-weights, then one row per tail side, which holds its null's zero-padded
# exp, then its log-pmf, its pmf and last its tail.
_SCRATCH = np.zeros((3, 0))


def _live_log_pmf(k: np.ndarray, base: np.ndarray, psi: float,
                  row: int) -> tuple[int, np.ndarray]:
    """(i0, log-pmf of cells i0, i0 + 1, ...) under odds ratio psi: its live window.

    The window runs from the first to the last cell whose log-weight
    logw = base + k log psi is within _DEAD_BELOW of its maximum mx, so
    exp(logw - mx) is exactly 0.0 outside it. When both end cells are live
    the window is the whole support, found without a search: logw is
    concave in k, so every cell between them is live. Otherwise each dead
    end is found by a binary search on its side of the mode top: logw is
    strictly concave, so it rises to top and falls after it, and at the cut
    its slope is at least _DEAD_BELOW / n, far above its rounding error at
    MAX_POOLED_ARM, so "logw >= cut" flips exactly once on each side, even
    where rounding makes logw wobble near its flat top. The normalizer sums a
    full-length array of exp(logw - mx) on the window and 0.0 elsewhere --
    the array exp would give over the whole support -- so numpy's pairwise
    sum, and the log-pmf logw - (mx + log sum), keep every bit. The result
    is a view of _SCRATCH[row], which is 0.0 outside the window.
    """
    global _SCRATCH
    n = k.size
    if n > _SCRATCH.shape[1]:
        _SCRATCH = np.zeros((3, n))
    logw, padded = _SCRATCH[0, :n], _SCRATCH[row, :n]
    np.multiply(k, math.log(psi), out=logw)
    np.add(base, logw, out=logw)
    top = int(logw.argmax())
    mx = logw[top]
    cut = mx - _DEAD_BELOW
    if logw[0] >= cut and logw[-1] >= cut:
        i0, window = 0, padded
    else:
        i0 = int(logw[:top + 1].searchsorted(cut))
        i1 = n - int(logw[top:][::-1].searchsorted(cut))
        padded[:i0] = 0.0
        padded[i1:] = 0.0
        window, logw = padded[i0:i1], logw[i0:i1]
    np.exp(np.subtract(logw, mx, out=window), out=window)
    return i0, np.subtract(logw, mx + math.log(padded.sum()), out=window)


def _tail(k: np.ndarray, base: np.ndarray, psi: float, side: str) -> np.ndarray:
    """P(K <= k) ("lower") or P(K >= k) ("upper") under odds ratio psi, capped at 1.

    k and base are the support and log-binomials from _log_binomials; the
    tail is a cumulative sum of the normalized pmf, one value per cell. Only
    the live window of _live_log_pmf is exponentiated and summed: the pmf is
    exactly 0.0 outside it and the sum adds in order, so the lower tail is
    0.0 left of the window and holds its last value right of it (the upper
    tail mirrors that), bit for bit the sum over the whole support. Only the
    window is capped, before its end value fills the cells past it. The
    result is a view of _SCRATCH, one row per side, valid until the next
    call for the same side.
    """
    row = 1 if side == "lower" else 2
    i0, pmf = _live_log_pmf(k, base, psi, row)
    np.exp(pmf, out=pmf)
    n, i1 = k.size, i0 + pmf.size
    tail = _SCRATCH[row, :n]  # 0.0 outside the window
    # np.add.accumulate is np.cumsum without its wrapper's per-call cost
    if side == "lower":
        np.add.accumulate(pmf, out=pmf)
        np.minimum(pmf, 1.0, out=pmf)
        if i1 < n:
            tail[i1:] = pmf[-1]
    else:
        np.add.accumulate(pmf[::-1], out=pmf[::-1])
        np.minimum(pmf, 1.0, out=pmf)
        if i0:
            tail[:i0] = pmf[0]
    return tail


def _family_p_all(n1: int, n2: int, m: int, family: str) -> np.ndarray:
    """Composite p-value at every realizable cell value, vectorized.

    One log-binomial base serves both nulls. The family reads a lower tail
    P(K <= k) at one null and an upper tail P(K >= k) at the other, each a
    cumulative sum of that null's pmf over its live window (see _tail), so
    the per-k values and the minimum over k share one code path. The tails
    are scratch rows; the returned vector is freshly allocated, so callers
    may keep it.
    """
    if family not in _FAMILY_TAIL_NULLS:
        raise ValueError(f"unknown family {family!r}")
    lower_psi, upper_psi = _FAMILY_TAIL_NULLS[family]
    k, base = _log_binomials(n1, n2, m)
    lower = _tail(k, base, lower_psi, "lower")
    upper = _tail(k, base, upper_psi, "upper")
    if family == "weak":
        p = np.maximum(lower, upper, out=lower)
    else:
        p = np.minimum(lower, upper, out=lower)
        p *= 0.5
    return np.maximum(p, _P_FLOOR)  # fresh; each tail is already capped at 1


def _p_at(n1: int, n2: int, m: int, k: int, family: str) -> float:
    lo, hi = support(n1, n2, m)
    if not lo <= k <= hi:  # also every margin set with an empty support
        raise ValueError(f"k={k} outside support [{lo}, {hi}] of n1={n1}, n2={n2}, m={m}")
    return float(_family_p_all(n1, n2, m, family)[k - lo])


def p_weak(n1: int, n2: int, m: int, k: int) -> float:
    """Equivalence-style p: max of the two one-sided tests at 1.25 / 0.8."""
    return _p_at(n1, n2, m, k, "weak")


def p_strong(n1: int, n2: int, m: int, k: int) -> float:
    """Strong-effect p: half the minimum of the two one-sided tests."""
    return _p_at(n1, n2, m, k, "strong")


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
