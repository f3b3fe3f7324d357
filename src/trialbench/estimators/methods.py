"""The nine-method estimation registry for one drug pair's cohort.

Hazard-ratio methods: unadjusted Cox, propensity-matched Cox, overlap-
weighted Cox, standard-IPW Cox (the overlap-targeting ablation arm).
RMST methods: unadjusted KM, matched KM, overlap-weighted KM, AFT
regression, and the augmented-IPW doubly robust estimator.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .propensity import STANDARD_WEIGHT_CAP, compute_weights, fit_logistic, match_pairs
from .survival import aft_fit, cox_fit, event_time_horizon, km_curve, rmst

SCALE_LOG_HR = "log_hazard_ratio"
SCALE_RMST_DAYS = "rmst_difference_days"

# IPCW weights are truncated here when the censoring KM hits zero early.
G_WEIGHT_CAP = 100.0


# What an estimator computes, and the row run_all_methods makes of it with the
# method id and scale from the registry.
Fit = namedtuple("Fit", "point std_error converged n_used note", defaults=("",))
EffectEstimate = namedtuple("EffectEstimate", ("method_id", "scale", *Fit._fields))


@dataclass
class RunSettings:
    """Every evaluate setting; the fields other than seed and methods are run-config keys."""
    seed: int | np.random.SeedSequence = 0  # of the matching order
    ridge: float = 1e-6
    caliper_sd_logit: float = 0.2
    weight_cap: float = STANDARD_WEIGHT_CAP
    tau_percentile: float = 0.8
    max_per_arm: int = 100_000
    min_per_arm: int = 100
    methods: tuple[str, ...] = field(default_factory=lambda: tuple(METHOD_REGISTRY))

    def __post_init__(self):
        for names, rule, in_range in [
                (("ridge", "max_per_arm"), ">= 0", lambda v: v >= 0),
                (("caliper_sd_logit", "weight_cap", "min_per_arm"), "> 0", lambda v: v > 0),
                (("tau_percentile",), "in (0, 1]", lambda v: 0 < v <= 1)]:
            for name in names:
                value = getattr(self, name)
                if not (math.isfinite(value) and in_range(value)):
                    raise ValueError(f"{name} must be finite and {rule}, got {value!r}")


def failed_estimates(methods, n_used: int, note: str) -> list[EffectEstimate]:
    """The estimates recorded for methods that could not run; note says why."""
    return [EffectEstimate(m, METHOD_REGISTRY[m].scale, math.nan, math.nan, False, n_used,
                           note) for m in methods]


class _MethodFailure(Exception):
    """A method that cannot run for a reason its note states in full."""


def _cox_estimate(times, events, treated, weights=None) -> Fit:
    res = cox_fit(times, events, treated, weights)
    return Fit(res.beta if res.converged else math.nan, res.se, res.converged, res.n_used)


def _km_rmst_arm(times, events, weights, tau):
    curve = km_curve(times, events, weights)
    value = rmst(curve, tau)
    # Greenwood-style RMST variance; with non-unit weights this uses the
    # weighted counts and is approximate.
    dw, yw = curve.deaths, curve.at_risk
    in_range = curve.times <= tau
    # integral of S over [event time, tau]
    areas = np.zeros(len(curve.times))
    areas[in_range] = value - curve.integral(curve.times[in_range])
    safe = (yw - dw > 0) & in_range
    var = float(np.sum(areas[safe] ** 2 * dw[safe] / (yw[safe] * (yw[safe] - dw[safe]))))
    return value, var


def _km_diff_estimate(times, events, treated, tau, weights=None) -> Fit:
    wa, wb = (None, None) if weights is None else (weights[treated], weights[~treated])
    ra, va = _km_rmst_arm(times[treated], events[treated], wa, tau)
    rb, vb = _km_rmst_arm(times[~treated], events[~treated], wb, tau)
    return Fit(ra - rb, math.sqrt(va + vb), True, len(times))


def rmst_regression(m1, m0) -> Fit:
    """Mean contrast of each row's predicted RMST on drug A (m1) and drug B (m0)."""
    diff = m1 - m0
    return Fit(float(np.mean(diff)), float(np.std(diff) / math.sqrt(len(diff))), True,
               len(diff))


def rmst_aipw(times, events, treated, propensity, m1, m0, tau: float, order) -> Fit:
    """Augmented IPW on the tau-restricted outcome with IPCW for censoring.

    m1 and m0 are each row's outcome-model RMST at tau on drug A and drug B.
    Z = min(T, tau); the correction term is applied only to rows whose Z
    is fully observed (event before tau, or follow-up reaching tau) and
    reweighted by the Kaplan-Meier estimate of the censoring survival at
    Z-minus. order is the rows in stable time order.
    """
    t = np.asarray(times, dtype=float)
    d = np.asarray(events, dtype=bool)
    trt = np.asarray(treated, dtype=bool)
    e = np.asarray(propensity.scores, dtype=float)
    z = np.minimum(t, tau)
    observed = (d & (t < tau)) | (t >= tau)
    g_curve = km_curve(t[order], ~d[order])
    g_at = g_curve.left_limit(z)
    capped = g_at < 1.0 / G_WEIGHT_CAP
    inv_g = 1.0 / np.maximum(g_at, 1.0 / G_WEIGHT_CAP)

    correction = observed * inv_g * (
        trt / e * (z - m1) - (~trt) / (1.0 - e) * (z - m0)
    )
    contrib = (m1 - m0) + correction
    note = "IPCW weight capped" if bool(capped[observed].any()) else ""
    return Fit(float(np.mean(contrib)), float(np.std(contrib) / math.sqrt(len(t))), True,
               len(t), note)


def _fitted_once(fit):
    """A cached property whose fit runs at most once per object, even when it raises.

    A fit that raised is re-raised to every method that needs it, so each
    of them records the same failure.
    """
    def get(self):
        fits = self.__dict__.setdefault("_fits", {})
        if fit not in fits:
            try:
                fits[fit] = fit(self)
            except Exception as exc:  # noqa: BLE001 -- reported per method
                fits[fit] = exc
        if isinstance(fits[fit], Exception):
            raise fits[fit]
        return fits[fit]

    return property(get, doc=fit.__doc__)


class _PairFits:
    """One drug pair's cohort arrays and settings, and its lazily fitted propensity
    model, matched set and weights, shared by every outcome of the pair."""

    def __init__(self, cohort, settings: RunSettings):
        self.treated, self.features = cohort.treated, cohort.features
        self.settings = settings

    @_fitted_once
    def propensity(self):
        return fit_logistic(self.features, self.treated, ridge=self.settings.ridge)

    @_fitted_once
    def matched(self):
        """Row mask of every propensity-matched pair."""
        pairs = match_pairs(self.propensity.scores, self.treated,
                            caliper_sd_logit=self.settings.caliper_sd_logit,
                            seed=self.settings.seed)
        mask = np.zeros(len(self.treated), dtype=bool)
        mask[np.ravel(pairs)] = True
        return mask

    @_fitted_once
    def overlap_weights(self):
        return compute_weights(self.propensity.scores, self.treated, "overlap")

    @_fitted_once
    def standard_weights(self):
        return compute_weights(self.propensity.scores, self.treated, "standard_ipw",
                               cap=self.settings.weight_cap)


class _OutcomeFits:
    """One outcome's arrays and horizon tau, its drug pair's fits, and its own lazily
    fitted time order, AFT and AFT-predicted RMST.

    The survival methods see rows in the outcome's stable time order: a subset taken
    in that order is the subset's own stable time order, so cox_fit and km_curve need
    not sort again, and every sum they take sees its rows in the order it always has.
    """

    def __init__(self, pair: _PairFits, outcome, tau: float):
        self.pair = pair
        self.time, self.event = outcome
        self.tau = tau

    def arms(self, rows=None):
        """(time, event, treated) in stable time order, of the rows where the mask rows
        is true, or of every row."""
        order = self.order if rows is None else self.order[rows[self.order]]
        return self.time[order], self.event[order], self.pair.treated[order]

    def in_time_order(self, values):
        """A per-row array in the order arms() gives every row."""
        return values[self.order]

    @_fitted_once
    def order(self):
        """The rows in stable time order."""
        return np.argsort(self.time, kind="stable")

    @_fitted_once
    def aft(self):
        return aft_fit(self.pair.features, self.pair.treated, self.time, self.event)

    @_fitted_once
    def predicted_rmst(self):
        """Each row's AFT-predicted RMST at tau on drug A and on drug B."""
        model = self.aft
        if not model.converged:
            raise _MethodFailure("AFT did not converge")
        n = len(self.time)
        return (model.predicted_rmst(self.pair.features, np.ones(n), self.tau),
                model.predicted_rmst(self.pair.features, np.zeros(n), self.tau))


def _aipw(nz: _OutcomeFits) -> Fit:
    # An AFT fit error outranks a propensity fit error, which outranks AFT
    # non-convergence: the note names the first of them. Its means take the rows
    # in cohort order; only its censoring curve takes them in the time order of arms().
    nz.aft
    return rmst_aipw(nz.time, nz.event, nz.pair.treated, nz.pair.propensity,
                     *nz.predicted_rmst, nz.tau, nz.order)


# One row of the method table: the effect scale and estimate(outcome fits) -> Fit.
Method = namedtuple("Method", "scale estimate")

# The method table, in output order. Estimators look cox_fit, rmst_aipw and
# the other fitting functions up as module globals at call time, so a
# replacement installed on this module (a tracing hook) is the one called.
METHOD_REGISTRY = {
    "cox_unadjusted": Method(SCALE_LOG_HR, lambda nz: _cox_estimate(*nz.arms())),
    "cox_psm": Method(SCALE_LOG_HR, lambda nz: _cox_estimate(*nz.arms(nz.pair.matched))),
    "cox_ipw_overlap": Method(SCALE_LOG_HR, lambda nz: _cox_estimate(
        *nz.arms(), nz.in_time_order(nz.pair.overlap_weights))),
    "cox_ipw_standard": Method(SCALE_LOG_HR, lambda nz: _cox_estimate(
        *nz.arms(), nz.in_time_order(nz.pair.standard_weights))),
    "rmst_km_unadjusted": Method(SCALE_RMST_DAYS, lambda nz: _km_diff_estimate(
        *nz.arms(), nz.tau)),
    "rmst_km_psm": Method(SCALE_RMST_DAYS, lambda nz: _km_diff_estimate(
        *nz.arms(nz.pair.matched), nz.tau)),
    "rmst_km_ipw_overlap": Method(SCALE_RMST_DAYS, lambda nz: _km_diff_estimate(
        *nz.arms(), nz.tau, nz.in_time_order(nz.pair.overlap_weights))),
    "rmst_aft_regression": Method(SCALE_RMST_DAYS, lambda nz: rmst_regression(
        *nz.predicted_rmst)),
    "rmst_aipw": Method(SCALE_RMST_DAYS, _aipw),
}


def run_all_methods(cohort, settings: RunSettings) -> list[list[EffectEstimate]]:
    """Run the method registry on each outcome of one drug pair's cohort, one list of
    estimates per outcome; failures never abort the batch."""
    n = len(cohort.treated)
    wanted = [m for m in METHOD_REGISTRY if m in settings.methods]
    pair = _PairFits(cohort, settings)
    per_outcome = []
    for outcome in cohort.outcomes:
        try:
            tau = event_time_horizon(*outcome, percentile=settings.tau_percentile)
        except ValueError:
            per_outcome.append(failed_estimates(wanted, n, "no observed events"))
            continue
        nuisance = _OutcomeFits(pair, outcome, tau)
        out: list[EffectEstimate] = []
        for method_id in wanted:
            method = METHOD_REGISTRY[method_id]
            try:
                # a mean restricted to [0, 0] is 0 in both arms, however it is estimated
                if method.scale == SCALE_RMST_DAYS and not tau > 0:
                    raise _MethodFailure(f"tau must be positive, got {tau:g}")
                fit = method.estimate(nuisance)
            except _MethodFailure as exc:
                out += failed_estimates([method_id], n, str(exc))
            except Exception as exc:  # per-method isolation
                out += failed_estimates([method_id], n, f"{type(exc).__name__}: {exc}")
            else:
                out.append(EffectEstimate(method_id, method.scale, *fit))
        per_outcome.append(out)
    return per_outcome
