"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's code paths: exact rational
arithmetic for the 2x2 tail probabilities, a per-call math.lgamma form of
the floating-point composite p-values (the reference the shared
log-factorial table must match bit for bit), a naive quadratic BH, a textbook
loop-based Breslow partial likelihood, a direct recursive Kaplan-Meier,
a per-threshold rescan for report precision/recall, the skip-pointer
propensity matcher that the plain-list match_pairs replaced, the claims
table build that interned kinds and codes after parsing, which
PatientDB.from_records replaced by numbering (kind, code) pairs while parsing,
and cox_fit and km_curve as they were when each call sorted its times and
found tie groups with np.unique and searchsorted, which reading tie groups off
the sorted times replaced.
"""

from __future__ import annotations

import bisect
import functools
import math
from fractions import Fraction

import numpy as np

from trialbench.cohort import PatientDB
from trialbench.estimators.propensity import DEFAULT_CALIPER, MatchingError
from trialbench.estimators.survival import COX_MAX_ITER, COX_TOL, CoxResult, SurvivalCurve


def nchg_weights(n1: int, n2: int, m: int, psi_num: int, psi_den: int) -> tuple[int, list[int]]:
    """Integer-scaled noncentral hypergeometric weights over the support.

    Weight of cell k is C(n1,k)*C(n2,m-k)*psi_num^k*psi_den^(hi-k); the
    common factor psi_den^hi cancels in every probability ratio.
    """
    lo = max(0, m - n2)
    hi = min(m, n1)
    weights = [
        math.comb(n1, k) * math.comb(n2, m - k) * psi_num**k * psi_den ** (hi - k)
        for k in range(lo, hi + 1)
    ]
    return lo, weights


def exact_tail(n1, n2, m, k, psi_num, psi_den, tail) -> Fraction:
    """Exact one-sided tail probability as a Fraction."""
    lo, weights = nchg_weights(n1, n2, m, psi_num, psi_den)
    total = sum(weights)
    i = k - lo
    if tail == "upper":
        return Fraction(sum(weights[i:]), total)
    return Fraction(sum(weights[: i + 1]), total)


def exact_p_weak(n1, n2, m, k) -> Fraction:
    return max(
        exact_tail(n1, n2, m, k, 5, 4, "lower"),   # psi = 1.25
        exact_tail(n1, n2, m, k, 4, 5, "upper"),   # psi = 0.8
    )


def exact_p_strong(n1, n2, m, k) -> Fraction:
    return Fraction(1, 2) * min(
        exact_tail(n1, n2, m, k, 4, 5, "lower"),   # psi = 0.8
        exact_tail(n1, n2, m, k, 5, 4, "upper"),   # psi = 1.25
    )


@functools.lru_cache(maxsize=1)  # the two nulls of one margins share it
def _lgamma_log_binomials(n1, n2, m):
    """The support k and log(C(n1, k) * C(n2, m - k)), every log-factorial from math.lgamma."""
    k = np.arange(max(0, m - n2), min(m, n1) + 1)
    lf = np.array([math.lgamma(v + 1) for v in range(max(n1, n2) + 1)])  # log(v!)
    return k, lf[n1] - lf[k] - lf[n1 - k] + lf[n2] - lf[m - k] - lf[n2 - m + k]


def lgamma_log_pmf(n1, n2, m, psi):
    """Normalized noncentral hypergeometric log-pmf, every log-factorial from math.lgamma."""
    k, base = _lgamma_log_binomials(n1, n2, m)
    logw = base + k * math.log(psi)
    mx = logw.max()
    return logw - (mx + math.log(np.exp(logw - mx).sum()))


@functools.lru_cache(maxsize=1)  # the weak and strong calls for one margins share it
def _lgamma_tails(n1, n2, m):
    """P(K <= k) and P(K >= k) at every cell under psi = 0.8 and psi = 1.25."""
    pmf_low = np.exp(lgamma_log_pmf(n1, n2, m, 0.8))
    pmf_high = np.exp(lgamma_log_pmf(n1, n2, m, 1.25))
    lower_low = np.minimum(np.cumsum(pmf_low), 1.0)
    lower_high = np.minimum(np.cumsum(pmf_high), 1.0)
    upper_low = np.minimum(np.cumsum(pmf_low[::-1])[::-1], 1.0)
    upper_high = np.minimum(np.cumsum(pmf_high[::-1])[::-1], 1.0)
    return lower_low, lower_high, upper_low, upper_high


def lgamma_family_p_all(n1, n2, m, family):
    """Composite weak/strong p-value at every cell from all four tails at 0.8 and 1.25."""
    lower_low, lower_high, upper_low, upper_high = _lgamma_tails(n1, n2, m)
    if family == "weak":
        p = np.maximum(lower_high, upper_low)
    elif family == "strong":
        p = 0.5 * np.minimum(lower_low, upper_high)
    else:
        raise ValueError(f"unknown family {family!r}")
    return np.clip(p, 5e-324, 1.0)


def naive_bh(p_values, alpha) -> set[int]:
    """Quadratic restatement of the BH step-up rule.

    Each observed p is a candidate cutoff; it qualifies when it is at
    most rank/m * alpha with rank = #{q <= p}. Reject everything at or
    below the largest qualifying cutoff.
    """
    m = len(p_values)
    best = None
    for p_star in p_values:
        rank = sum(1 for q in p_values if q <= p_star)
        if p_star <= rank / m * alpha and (best is None or p_star > best):
            best = p_star
    if best is None:
        return set()
    return {i for i, p in enumerate(p_values) if p <= best}


def breslow_loglik(beta, times, events, x, weights=None) -> float:
    """Loop-based weighted Breslow partial log-likelihood."""
    n = len(times)
    w = [1.0] * n if weights is None else list(weights)
    ll = 0.0
    for i in range(n):
        if not events[i]:
            continue
        risk = sum(w[j] * math.exp(beta * x[j]) for j in range(n) if times[j] >= times[i])
        ll += w[i] * (beta * x[i] - math.log(risk))
    return ll


def golden_section_max(f, lo, hi, tol=1e-10):
    """Golden-section maximizer of a scalar unimodal function."""
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2


def km_recursive(times, events) -> list[tuple[float, float]]:
    """Direct product-limit recursion: (event time, survival) pairs."""
    distinct = sorted({t for t, e in zip(times, events) if e})
    surv = 1.0
    out = []
    for dt in distinct:
        at_risk = sum(1 for t in times if t >= dt)
        deaths = sum(1 for t, e in zip(times, events) if e and t == dt)
        surv *= 1.0 - deaths / at_risk
        out.append((dt, surv))
    return out


def searchsorted_cox_fit(times, events, treatment, row_weights=None) -> CoxResult:
    """survival.cox_fit as it was when each call argsorted its times, took each death's
    tie-group start with searchsorted and its distinct event times with np.unique."""
    t = np.asarray(times, dtype=float)
    order = np.argsort(t, kind="stable")
    t, d = t[order], np.asarray(events, dtype=bool)[order]
    x = np.asarray(treatment, dtype=float)[order]
    w = np.ones_like(t) if row_weights is None else np.asarray(row_weights, dtype=float)[order]
    n = len(t)
    if not (d & (x > 0)).any() or not (d & (x <= 0)).any():
        return CoxResult(beta=math.inf if (d & (x > 0)).any() else -math.inf,
                         se_model=math.inf, se_robust=math.inf,
                         converged=False, iterations=0, n_used=n)
    event_idx = np.nonzero(d)[0]
    first = np.searchsorted(t, t[event_idx], side="left")

    def suffix_sums(beta):
        r = np.exp(beta * x)
        s0 = np.cumsum((w * r)[::-1])[::-1]
        s1 = np.cumsum((w * r * x)[::-1])[::-1]
        return r, s0, s1

    beta = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, COX_MAX_ITER + 1):
        _, s0, s1 = suffix_sums(beta)
        mbar = s1[first] / s0[first]
        score = float(np.sum(w[event_idx] * (x[event_idx] - mbar)))
        info = float(np.sum(w[event_idx] * (mbar - mbar ** 2)))
        if info <= 0:
            break
        step = score / info
        step = float(np.clip(step, -5.0, 5.0))
        beta += step
        if abs(step) < COX_TOL:
            converged = True
            break

    r, s0, s1 = suffix_sums(beta)
    mbar = s1[first] / s0[first]
    info = float(np.sum(w[event_idx] * (mbar - mbar ** 2)))
    se_model = math.sqrt(1.0 / info) if info > 0 else math.inf
    ev_times, own = np.unique(t[event_idx], return_inverse=True)
    dws = np.bincount(own, weights=w[event_idx], minlength=len(ev_times))
    pos = np.searchsorted(t, ev_times, side="left")
    s0e, mbe = s0[pos], s1[pos] / s0[pos]
    c1 = np.cumsum(dws / s0e)
    c2 = np.cumsum(dws * mbe / s0e)
    upto = np.searchsorted(ev_times, t, side="right") - 1
    c1_i = np.where(upto >= 0, c1[np.maximum(upto, 0)], 0.0)
    c2_i = np.where(upto >= 0, c2[np.maximum(upto, 0)], 0.0)
    m_at_own = np.zeros(n)
    m_at_own[event_idx] = mbe[own]
    resid = d * (x - m_at_own) - r * (x * c1_i - c2_i)
    bread = 1.0 / info if info > 0 else math.inf
    meat = float(np.sum((w * resid) ** 2))
    se_robust = math.sqrt(bread * meat * bread) if info > 0 else math.inf
    return CoxResult(beta=float(beta), se_model=se_model, se_robust=se_robust,
                     converged=converged, iterations=iterations, n_used=n)


def searchsorted_km_curve(times, events, row_weights=None) -> SurvivalCurve:
    """survival.km_curve as it was when each call argsorted its times, took its distinct
    event times with np.unique and their at-risk rows with searchsorted."""
    t = np.asarray(times, dtype=float)
    d = np.asarray(events, dtype=bool)
    w = np.ones_like(t) if row_weights is None else np.asarray(row_weights, dtype=float)
    order = np.argsort(t, kind="stable")
    t, d, w = t[order], d[order], w[order]
    at_risk_after = np.cumsum(w[::-1])[::-1]
    ev_times, inverse = np.unique(t[d], return_inverse=True)
    deaths = np.bincount(inverse, weights=w[d], minlength=len(ev_times))
    pos = np.searchsorted(t, ev_times, side="left")
    at_risk = at_risk_after[pos]
    factors = 1.0 - deaths / at_risk
    surv = np.cumprod(np.clip(factors, 0.0, 1.0))
    return SurvivalCurve(times=ev_times, survival=surv, deaths=deaths, at_risk=at_risk)


def naive_score(effects, entries, threshold) -> dict:
    """Weighted precision/recall at one magnitude threshold by rescanning every entry.

    Strong entries weigh n_weak/n_strong over entries with an available
    effect (1 when either family has none); a hit is a strong entry
    predicted at or above the threshold in its own direction.
    """
    by_key = {e.entry_key: e for e in effects}
    evaluable = [(entry, by_key[entry.key]) for entry in entries
                 if entry.key in by_key and by_key[entry.key].available]
    n_strong_eval = sum(1 for entry, _ in evaluable if entry.label == "strong")
    n_weak_eval = len(evaluable) - n_strong_eval
    n_strong = sum(1 for entry in entries if entry.label == "strong")
    weight = n_weak_eval / n_strong_eval if n_strong_eval and n_weak_eval else 1.0
    tp_w = fp_w = 0.0
    tp = fp = 0
    for entry, eff in evaluable:
        if not eff.magnitude >= threshold:
            continue
        w = weight if entry.label == "strong" else 1.0
        if entry.label == "strong" and eff.direction == entry.direction:
            tp_w += w
            tp += 1
        else:
            fp_w += w
            fp += 1
    return {
        "precision": tp_w / (tp_w + fp_w) if tp_w + fp_w > 0 else None,
        "recall": tp / n_strong if n_strong else 0.0,
        "recall_evaluable": tp / n_strong_eval if n_strong_eval else 0.0,
        "tp_weighted": tp_w, "fp_weighted": fp_w,
        "tp": tp, "fp": fp, "fn": n_strong - tp, "n_evaluable": len(evaluable),
    }


def skip_pointer_match_pairs(scores, treatment_labels,
                             caliper_sd_logit: float = DEFAULT_CALIPER,
                             seed: int = 0) -> list[tuple[int, int]]:
    """1:1 greedy nearest-neighbor matching on logit(score), no replacement.

    Treated rows are processed in seeded random order; a pair farther
    apart than caliper_sd_logit * SD(logit scores) is not formed.
    """
    scores = np.asarray(scores, dtype=float)
    treated_mask = np.asarray(treatment_labels, dtype=bool)
    logits = np.log(scores / (1.0 - scores))
    caliper = caliper_sd_logit * float(np.std(logits))

    treated_idx = np.nonzero(treated_mask)[0]
    control_idx = np.nonzero(~treated_mask)[0]
    if len(treated_idx) == 0 or len(control_idx) == 0:
        raise MatchingError("one arm is empty")

    order = control_idx[np.argsort(logits[control_idx], kind="stable")]
    sorted_logits = logits[order].tolist()
    nc = len(order)
    # path-compressed skip pointers over the sorted controls: next_alive[i]
    # is the first unused control at position >= i (nc sentinel = none),
    # prev_alive[i] the last at position <= i (-1 sentinel).
    next_alive = list(range(nc + 1))
    prev_alive = list(range(-1, nc))

    def find_next(i):
        root = i
        while root <= nc and next_alive[root] != root:
            root = next_alive[root]
        while i < root:
            next_alive[i], i = root, next_alive[i]
        return root

    def find_prev(i):
        root = i
        while root >= 0 and prev_alive[root + 1] != root:
            root = prev_alive[root + 1]
        while i > root:
            prev_alive[i + 1], i = root, prev_alive[i + 1]
        return root

    def remove(i):
        next_alive[i] = i + 1
        prev_alive[i + 1] = i - 1

    rng = np.random.default_rng(seed)
    pairs = []
    remaining = nc
    for t in treated_idx[rng.permutation(len(treated_idx))]:
        if remaining == 0:
            break
        target = logits[t]
        pos = bisect.bisect_left(sorted_logits, target)
        right = find_next(min(pos, nc))
        left = find_prev(min(pos - 1, nc - 1)) if pos > 0 else -1
        best = None
        if left >= 0:
            best = (abs(sorted_logits[left] - target), left)
        if right < nc:
            cand = (abs(sorted_logits[right] - target), right)
            if best is None or cand < best:
                best = cand
        if best is None or best[0] > caliper:
            continue
        pairs.append((int(t), int(order[best[1]])))
        remove(best[1])
        remaining -= 1
    if not pairs:
        raise MatchingError("caliper excluded every candidate pair")
    return pairs


def interned_patient_db(records, vocabulary) -> PatientDB:
    """PatientDB.from_records as it was when each event's kind and code were kept in two
    lists and interned after the pass: same fields, same checks, same messages."""
    ids, start, end, count, day, kind, code = [], [], [], [], [], [], []
    for rec in records:
        ids.append(str(rec["patient_id"]))
        start.append(rec["observation_start"])
        end.append(rec["observation_end"])
        count.append(len(rec["events"]))
        for d, k, c in rec["events"]:
            day.append(d)
            kind.append(k)
            code.append(c)
    order = sorted(range(len(ids)), key=ids.__getitem__)  # record index per row, id order
    patients = [ids[i] for i in order]
    unsorted = np.repeat(np.argsort(order), np.array(count, dtype=np.intp))  # event -> row
    by_patient = np.argsort(unsorted, kind="stable")  # a patient's events keep file order
    owner = unsorted[by_patient]
    day = _json_integers(day)[by_patient]
    start, end = _json_integers(start)[order], _json_integers(end)[order]
    (kinds, kind), (codes, code) = _interned(kind), _interned(code)
    if not all(type(v) is str for v in kinds + codes):
        raise ValueError("event kinds and codes must be strings")
    pairs, first, key = np.unique((kind * len(codes) + code)[by_patient],
                                  return_index=True, return_inverse=True)
    by_first = np.argsort(first)  # keys are numbered by first appearance in id order
    keys = {(kinds[p // len(codes)], codes[p % len(codes)]): i
            for i, p in enumerate(pairs[by_first].tolist())}
    rules = {  # the patient rows that break each rule
        "duplicate patient_id":
            np.flatnonzero([a == b for a, b in zip(patients, patients[1:])]),
        "events not day-sorted": owner[1:][(owner[1:] == owner[:-1]) & (day[1:] < day[:-1])],
        "event outside observation window": owner[(day < start[owner]) | (day > end[owner])],
    }
    for what, bad in rules.items():
        if len(bad):
            raise ValueError(f"{patients[bad[0]]}: {what}")
    position = {code: i for i, code in enumerate(vocabulary)}
    column = np.array([position.get(c, -1) for _, c in keys], dtype=np.intp)
    return PatientDB(patients, end, owner, day, np.argsort(by_first)[key], keys, column,
                     list(vocabulary))


def _json_integers(values) -> np.ndarray:
    """values as int64; ValueError unless each is a JSON integer (a boolean is not) that fits."""
    if set(map(type, values)) - {int} or not (-1 << 63 <= min(values, default=0)
                                              and max(values, default=0) < 1 << 63):
        raise ValueError("event days and observation bounds must be JSON integers")
    return np.array(values, dtype=np.int64)


def _interned(values) -> tuple[list, np.ndarray]:
    """The distinct values in first-appearance order, and each value's index among them."""
    index = {v: i for i, v in enumerate(dict.fromkeys(values))}
    return list(index), np.fromiter(map(index.__getitem__, values), np.intp, len(values))
