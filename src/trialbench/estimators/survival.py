"""Survival estimation primitives.

Weighted Cox regression for a binary treatment (Breslow ties), the
weighted Kaplan-Meier product-limit curve, restricted mean survival
time by exact step integration, and Weibull accelerated failure time
regression by Newton maximum likelihood in (1/sigma, theta/sigma), where
the log-likelihood is concave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaln

COX_TOL = 1e-8
COX_MAX_ITER = 50
AFT_TOL = 1e-9  # Newton decrement, twice the expected log-likelihood gain
AFT_MAX_ITER = 100

# AFT works on log-time; day-0 events get half a day of exposure.
MIN_AFT_TIME = 0.5


@dataclass
class CoxResult:
    beta: float
    se_model: float
    se_robust: float
    converged: bool
    iterations: int
    n_used: int


@dataclass
class SurvivalCurve:
    """Right-continuous step function starting at S(0) = 1."""
    times: np.ndarray   # knot locations (ascending, > 0)
    survival: np.ndarray  # value on [times[i], times[i+1])
    deaths: np.ndarray | None = None   # weighted deaths at each knot (km_curve)
    at_risk: np.ndarray | None = None  # weight at risk just before each knot (km_curve)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t, side="right")
        padded = np.concatenate([[1.0], self.survival])
        return padded[idx]

    def integral(self, t):
        """Integral of the curve over [0, t]; the last value holds past the last knot."""
        knots = np.concatenate([[0.0], self.times])
        vals = np.concatenate([[1.0], self.survival])
        prefix = np.concatenate([[0.0], np.cumsum(vals[:-1] * np.diff(knots))])
        idx = np.searchsorted(knots, t, side="right") - 1
        return prefix[idx] + vals[idx] * (t - knots[idx])

    def left_limit(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.times, t, side="left")
        padded = np.concatenate([[1.0], self.survival])
        return padded[idx]


def _sorted_arrays(times, events, x, weights):
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=bool)
    x = np.asarray(x, dtype=float)
    w = np.ones_like(times) if weights is None else np.asarray(weights, dtype=float)
    order = np.argsort(times, kind="stable")
    return times[order], events[order], x[order], w[order]


def cox_fit(times, events, treatment, row_weights=None) -> CoxResult:
    """Weighted Cox partial likelihood for one binary covariate.

    Breslow handling of ties; Newton-Raphson from beta = 0. se_model is
    the inverse observed information; se_robust the Lin-Wei sandwich,
    appropriate whenever the weights are not all one.
    """
    t, d, x, w = _sorted_arrays(times, events, treatment, row_weights)
    n = len(t)
    if not (d & (x > 0)).any() or not (d & (x <= 0)).any():
        return CoxResult(beta=math.inf if (d & (x > 0)).any() else -math.inf,
                         se_model=math.inf, se_robust=math.inf,
                         converged=False, iterations=0, n_used=n)

    # distinct event times and group boundaries (times sorted ascending)
    event_idx = np.nonzero(d)[0]
    # each death contributes at the first index of its tie group
    first = np.searchsorted(t, t[event_idx], side="left")

    def suffix_sums(beta):
        r = np.exp(beta * x)
        s0 = np.cumsum((w * r)[::-1])[::-1]          # sum over t_j >= t_i
        s1 = np.cumsum((w * r * x)[::-1])[::-1]
        return r, s0, s1

    beta = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, COX_MAX_ITER + 1):
        _, s0, s1 = suffix_sums(beta)
        mbar = s1[first] / s0[first]
        score = float(np.sum(w[event_idx] * (x[event_idx] - mbar)))
        info = float(np.sum(w[event_idx] * (mbar - mbar ** 2)))  # x binary: S2 = S1
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

    # Lin-Wei robust variance from weighted score residuals
    ev_times, own = np.unique(t[event_idx], return_inverse=True)
    dws = np.bincount(own, weights=w[event_idx], minlength=len(ev_times))
    pos = np.searchsorted(t, ev_times, side="left")
    s0e, mbe = s0[pos], s1[pos] / s0[pos]
    c1 = np.cumsum(dws / s0e)          # sum of d_w / S0 over event times
    c2 = np.cumsum(dws * mbe / s0e)    # sum of d_w * mbar / S0
    # cumulative values at each subject's own time (event times <= t_i)
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


def cox_partial_loglik(beta, times, events, treatment, row_weights=None) -> float:
    """Weighted Breslow partial log-likelihood (used by brute-force checks)."""
    t, d, x, w = _sorted_arrays(times, events, treatment, row_weights)
    r = np.exp(beta * x)
    s0 = np.cumsum((w * r)[::-1])[::-1]
    event_idx = np.nonzero(d)[0]
    first = np.searchsorted(t, t[event_idx], side="left")
    return float(np.sum(w[event_idx] * (beta * x[event_idx] - np.log(s0[first]))))


def km_curve(times, events, row_weights=None) -> SurvivalCurve:
    """Weighted Kaplan-Meier product-limit estimator."""
    t = np.asarray(times, dtype=float)
    d = np.asarray(events, dtype=bool)
    w = np.ones_like(t) if row_weights is None else np.asarray(row_weights, dtype=float)
    order = np.argsort(t, kind="stable")
    t, d, w = t[order], d[order], w[order]
    at_risk_after = np.cumsum(w[::-1])[::-1]  # total weight with t_j >= t_i
    ev_times, inverse = np.unique(t[d], return_inverse=True)
    deaths = np.bincount(inverse, weights=w[d], minlength=len(ev_times))
    pos = np.searchsorted(t, ev_times, side="left")
    at_risk = at_risk_after[pos]
    factors = 1.0 - deaths / at_risk
    surv = np.cumprod(np.clip(factors, 0.0, 1.0))
    return SurvivalCurve(times=ev_times, survival=surv, deaths=deaths, at_risk=at_risk)


def rmst(curve: SurvivalCurve, tau: float) -> float:
    """Integral of the step survival curve over [0, tau].

    Beyond the last knot the final value is held constant (documented
    extrapolation for horizons past the last observed event).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    return float(curve.integral(tau))


def event_time_horizon(times, events, percentile: float = 0.8) -> float:
    """Nearest-rank percentile of pooled observed event times."""
    t = np.sort(np.asarray(times, dtype=float)[np.asarray(events, dtype=bool)])
    if len(t) == 0:
        raise ValueError("no observed events")
    rank = max(1, math.ceil(percentile * len(t)))
    return float(t[rank - 1])


@dataclass
class AFTModel:
    """Weibull AFT: log T = design . theta + sigma * W, W extreme-value."""
    theta: np.ndarray       # [intercept, treatment, features...]
    log_sigma: float
    converged: bool
    iterations: int

    @property
    def sigma(self) -> float:
        return math.exp(self.log_sigma)

    def _mu(self, features, treatment):
        X = _aft_design(features, treatment)
        return X @ self.theta

    def predicted_rmst(self, features, treatment, tau: float) -> np.ndarray:
        """Exact per-row restricted mean under the fitted Weibull curve."""
        mu = self._mu(features, treatment)
        k = 1.0 / self.sigma           # Weibull shape
        lam = np.exp(mu)               # Weibull scale
        z = (tau / lam) ** k
        # integral_0^tau exp(-(t/lam)^k) dt via the lower incomplete gamma
        return (lam / k) * np.exp(gammaln(1.0 / k)) * gammainc(1.0 / k, z)

    def predicted_survival(self, features, treatment, t) -> np.ndarray:
        mu = self._mu(features, treatment)
        z = (np.log(np.maximum(t, MIN_AFT_TIME)) - mu) / self.sigma
        return np.exp(-np.exp(z))


def _aft_design(features, treatment):
    treatment = np.asarray(treatment, dtype=float)
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features[:, None]
    return np.column_stack([np.ones(len(treatment)), treatment, features])


def aft_fit(features, treatment, times, events) -> AFTModel:
    """Weibull AFT by Newton maximum likelihood over [treatment, features].

    Fits a = 1/sigma and b = theta/sigma, where z = a log t - X b is linear
    and the log-likelihood sum(d (z + log a) - exp(z)) is concave, so Newton
    with step halving reaches the maximum. Information-matrix steps use
    least squares: all-zero feature columns leave their coefficient at 0.
    Requires >= 10 events; otherwise (or on non-convergence) the model is
    flagged and downstream estimates are excluded from metrics.
    """
    d = np.asarray(events, dtype=float)
    logt = np.log(np.maximum(np.asarray(times, dtype=float), MIN_AFT_TIME))
    W = np.column_stack([logt, _aft_design(features, treatment)])
    W[:, 1:] *= -1.0  # z = W @ [a, b]; negated in place rather than copied
    n_events = float(d.sum())

    def loglik(params):
        if params[0] <= 0:
            return -math.inf, None
        z = W @ params
        with np.errstate(over="ignore"):
            u = np.exp(z)
        ll = float(d @ z + n_events * math.log(params[0]) - u.sum())
        return (ll if math.isfinite(ll) else -math.inf), u

    params = np.zeros(W.shape[1])
    params[0], params[1] = 1.0, float(np.mean(logt))
    ll, u = loglik(params)
    converged = False
    iterations = 0
    if n_events >= 10:
        for iterations in range(1, AFT_MAX_ITER + 1):
            grad = W.T @ (d - u)
            grad[0] += n_events / params[0]
            info = (W.T * u) @ W
            info[0, 0] += n_events / params[0] ** 2
            step = np.linalg.lstsq(info, grad, rcond=None)[0]
            if grad @ step < AFT_TOL:
                converged = True
                break
            cand_ll, cand_u = loglik(params + step)
            while cand_ll < ll:  # ends: a small enough step leaves params unchanged
                step /= 2
                cand_ll, cand_u = loglik(params + step)
            params, ll, u = params + step, cand_ll, cand_u
    return AFTModel(theta=params[1:] / params[0], log_sigma=-math.log(params[0]),
                    converged=converged, iterations=iterations)
