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

COX_TOL = 1e-8
COX_MAX_ITER = 50
AFT_TOL = 1e-9  # Newton decrement, twice the expected log-likelihood gain
AFT_MAX_ITER = 100

# AFT works on log-time; day-0 events get half a day of exposure.
MIN_AFT_TIME = 0.5

# Incomplete gamma: a loop stops once its last term moved every row by at most
# 4 ulp relative; at 1 ulp the continued fraction never stops at a = 0.7 or 1.3.
GAMMA_TOL = 4 * np.finfo(float).eps
GAMMA_MAX_ITER = 1000
_LENTZ_TINY = 1e-300  # stands in for a zero Lentz denominator


@dataclass
class CoxResult:
    beta: float
    se: float  # the Lin-Wei sandwich of a weighted fit; else the inverse information
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


def _in_time_order(times, *columns):
    """times and each column in stable time order. Times that are already
    non-decreasing are returned as they are, since a stable sort leaves them so."""
    if np.all(times[1:] >= times[:-1]):
        return (times, *columns)
    order = np.argsort(times, kind="stable")
    return tuple(a[order] for a in (times, *columns))


def _event_tie_groups(t, d):
    """For non-decreasing times t and event flags d: per row, the number of distinct
    event times at or before its own time; and the first row of each distinct event
    time. A tie group starts where a time differs from the one before it."""
    new = np.empty(len(t), dtype=bool)
    new[:1] = True
    np.not_equal(t[1:], t[:-1], out=new[1:])
    starts = new.nonzero()[0]
    opens = np.logical_or.reduceat(d, starts)  # each tie group holding an event
    return np.repeat(opens.cumsum(), np.diff(starts, append=len(t))), starts[opens]


def cox_fit(times, events, treatment, row_weights) -> CoxResult:
    """Weighted Cox partial likelihood for one binary covariate.

    Breslow handling of ties; Newton-Raphson from beta = 0. se is the
    Lin-Wei sandwich when row_weights is given (weights not all one call
    for it) and the inverse observed information otherwise. Rows are taken
    in stable time order; NaN times are not supported.
    """
    t = np.asarray(times, dtype=float)
    w = np.ones_like(t) if row_weights is None else np.asarray(row_weights, dtype=float)
    t, d, x, w = _in_time_order(t, np.asarray(events, dtype=bool),
                                np.asarray(treatment, dtype=float), w)
    n = len(t)
    if not (d & (x > 0)).any() or not (d & (x <= 0)).any():
        return CoxResult(beta=math.inf if (d & (x > 0)).any() else -math.inf,
                         se=math.inf, converged=False, iterations=0, n_used=n)

    event_idx = np.nonzero(d)[0]
    # upto: per row, the distinct event times <= t_i; pos: first row of each of them
    upto, pos = _event_tie_groups(t, d)
    own = upto[event_idx] - 1            # each death's distinct event time
    # per distinct event time: weighted deaths, treated deaths and each arm's weight at
    # risk; with a binary covariate the risk set at beta is e^beta * at_risk1 + at_risk0
    w_x = w * x
    deaths = np.bincount(own, weights=w[event_idx], minlength=len(pos))
    deaths1 = np.bincount(own, weights=w_x[event_idx], minlength=len(pos))
    at_risk1 = np.cumsum(w_x[::-1])[::-1][pos]  # sum over t_j >= the event time
    at_risk0 = np.cumsum((w - w_x)[::-1])[::-1][pos]

    def risk_sets(beta):
        """The weight at risk and its treated share at each distinct event time."""
        s1 = math.exp(beta) * at_risk1
        s0 = s1 + at_risk0
        return s0, s1 / s0

    beta = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, COX_MAX_ITER + 1):
        _, mbar = risk_sets(beta)
        # differences first: totals first cancel to 0 once mbar rounds away
        score = float(np.sum(deaths1 - deaths * mbar))
        info = float(np.sum(deaths * (mbar - mbar * mbar)))  # x binary: S2 = S1
        if info <= 0:
            break
        step = score / info
        step = float(np.clip(step, -5.0, 5.0))
        beta += step
        if abs(step) < COX_TOL:
            converged = True
            break

    s0, mbar = risk_sets(beta)
    info = float(np.sum(deaths * (mbar - mbar * mbar)))
    if row_weights is None or not info > 0:  # a NaN information too has an infinite se
        return CoxResult(beta=float(beta), se=math.sqrt(1.0 / info) if info > 0 else math.inf,
                         converged=converged, iterations=iterations, n_used=n)

    # Lin-Wei robust variance from weighted score residuals
    c1 = np.cumsum(deaths / s0)          # sum of d_w / S0 over event times
    c2 = np.cumsum(deaths * mbar / s0)   # sum of d_w * mbar / S0
    # cumulative values at each subject's own time (event times <= t_i)
    c1_i = np.concatenate([[0.0], c1])[upto]
    c2_i = np.concatenate([[0.0], c2])[upto]
    m_at_own = np.zeros(n)
    m_at_own[event_idx] = mbar[own]
    resid = d * (x - m_at_own) - np.exp(beta * x) * (x * c1_i - c2_i)
    bread = 1.0 / info
    meat = float(np.sum((w * resid) ** 2))
    return CoxResult(beta=float(beta), se=math.sqrt(bread * meat * bread),
                     converged=converged, iterations=iterations, n_used=n)


def km_curve(times, events, row_weights=None) -> SurvivalCurve:
    """Weighted Kaplan-Meier product-limit estimator. Rows are taken in stable time
    order; NaN times are not supported."""
    t = np.asarray(times, dtype=float)
    w = np.ones_like(t) if row_weights is None else np.asarray(row_weights, dtype=float)
    t, d, w = _in_time_order(t, np.asarray(events, dtype=bool), w)
    at_risk_after = np.cumsum(w[::-1])[::-1]  # total weight with t_j >= t_i
    upto, pos = _event_tie_groups(t, d)
    deaths = np.bincount(upto[d] - 1, weights=w[d], minlength=len(pos))
    at_risk = at_risk_after[pos]
    factors = 1.0 - deaths / at_risk
    surv = np.cumprod(np.clip(factors, 0.0, 1.0))
    return SurvivalCurve(times=t[pos], survival=surv, deaths=deaths, at_risk=at_risk)


def rmst(curve: SurvivalCurve, tau: float) -> float:
    """Integral of the step survival curve over [0, tau].

    Beyond the last knot the final value is held constant (documented
    extrapolation for horizons past the last observed event).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    return float(curve.integral(tau))


def event_time_horizon(times, events, percentile: float) -> float:
    """Nearest-rank percentile of pooled observed event times."""
    t = np.asarray(times, dtype=float)[np.asarray(events, dtype=bool)]
    if len(t) == 0:
        raise ValueError("no observed events")
    rank = max(1, math.ceil(percentile * len(t)))
    return float(np.partition(t, rank - 1)[rank - 1])


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

    def predicted_rmst(self, features, treatment, tau: float) -> np.ndarray:
        """Exact per-row restricted mean under the fitted Weibull curve."""
        mu = _aft_design(features, treatment) @ self.theta
        k = 1.0 / self.sigma           # Weibull shape
        lam = np.exp(mu)               # Weibull scale
        z = (tau / lam) ** k
        # integral_0^tau exp(-(t/lam)^k) dt via the lower incomplete gamma
        return (lam / k) * math.exp(math.lgamma(1.0 / k)) * _lower_gamma_p(1.0 / k, z)


def _lower_gamma_p(a: float, x: np.ndarray) -> np.ndarray:
    """Regularized lower incomplete gamma P(a, x) for a scalar a > 0, per row of x.

    The series for x < a + 1 and a modified-Lentz continued fraction for
    Q = 1 - P elsewhere (Press et al., Numerical Recipes, 6.2; DiDonato &
    Morris 1986); P(a, 0) = 0 and P(a, inf) = 1. Each form stops once its
    last term moved every row by at most GAMMA_TOL relative; a form still
    moving after GAMMA_MAX_ITER terms raises ArithmeticError.
    """
    x = np.asarray(x, dtype=float)
    p = np.full(x.shape, math.nan)  # NaN stays NaN, and so does a negative x
    p[x == 0] = 0.0
    p[x == math.inf] = 1.0
    inside = (x > 0) & (x < math.inf)
    series, fraction = inside & (x < a + 1), inside & (x >= a + 1)
    xs, xf = x[series], x[fraction]
    log_gamma_a = math.lgamma(a)

    # P = x^a e^-x / Gamma(a) * sum_n x^n / (a (a + 1) ... (a + n))
    term = np.full(xs.size, 1.0 / a)
    total = term.copy()
    for n in range(1, GAMMA_MAX_ITER + 1):
        term *= xs / (a + n)
        total += term
        if np.all(term <= GAMMA_TOL * total):
            break
    else:
        raise ArithmeticError(f"incomplete gamma series at a={a} did not converge")
    p[series] = np.exp(a * np.log(xs) - xs - log_gamma_a) * total

    # Q = x^a e^-x / Gamma(a) * 1 / (x + 1 - a - 1 (1 - a) / (x + 3 - a - ...))
    b = xf + 1.0 - a
    c, d = np.full(xf.size, 1.0 / _LENTZ_TINY), 1.0 / b
    h = d.copy()
    for n in range(1, GAMMA_MAX_ITER + 1):
        an, b = -n * (n - a), b + 2.0
        d = an * d + b
        d[np.abs(d) < _LENTZ_TINY] = _LENTZ_TINY
        c = b + an / c
        c[np.abs(c) < _LENTZ_TINY] = _LENTZ_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if np.all(np.abs(delta - 1.0) <= GAMMA_TOL):
            break
    else:
        raise ArithmeticError(f"incomplete gamma continued fraction at a={a} did not converge")
    p[fraction] = 1.0 - np.exp(a * np.log(xf) - xf - log_gamma_a) * h
    return p


def _aft_design(features, treatment):
    return np.column_stack([np.ones(len(treatment)), treatment, features])


def aft_fit(features, treatment, times, events) -> AFTModel:
    """Weibull AFT by Newton maximum likelihood over [treatment, features].

    Fits a = 1/sigma and b = theta/sigma, where z = a log t - X b is linear
    and the log-likelihood sum(d (z + log a) - exp(z)) is concave, so Newton
    with step halving reaches the maximum. Information-matrix steps use
    least squares, so a constant or duplicated feature column, which makes
    the matrix singular, still gives a converging step.
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
        with np.errstate(over="ignore"):  # each exp(z), or only their sum, may overflow
            u = np.exp(z)
            total = u.sum()
        ll = float(d @ z + n_events * math.log(params[0]) - total)
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
