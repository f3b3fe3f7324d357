import math
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import gammainc

from oracles import (breslow_loglik, golden_section_max, km_recursive, scatter_event_tie_groups,
                     searchsorted_cox_fit, searchsorted_km_curve, skip_pointer_match_pairs)
from test_acceptance import PIPELINE_SCENARIO
from trialbench import synth
from trialbench.cohort import Cohort, PatientDB, build_cohort
from trialbench.estimators import methods as methods_mod
from trialbench.estimators.methods import (
    EffectEstimate,
    METHOD_REGISTRY,
    RunSettings,
    rmst_aipw,
    rmst_regression,
    run_all_methods,
)
from trialbench.estimators.propensity import (
    MatchingError,
    compute_weights,
    fit_logistic,
    match_pairs,
)
from trialbench.estimators import survival as survival_mod
from trialbench.estimators.survival import (
    AFTModel,
    SurvivalCurve,
    _event_tie_groups,
    _lower_gamma_p,
    aft_fit,
    cox_fit,
    event_time_horizon,
    km_curve,
    rmst,
)
from trialbench.synth import ScenarioConfig, gen_survival_arrays, ground_truth


def test_logistic_recovers_coefficients():
    rng = np.random.default_rng(0)
    n = 20_000
    x = rng.standard_normal((n, 2))
    true = np.array([-0.5, 1.0, -0.7])
    p = 1 / (1 + np.exp(-(true[0] + x @ true[1:])))
    y = rng.random(n) < p
    fit = fit_logistic(x, y, RunSettings.ridge)
    assert fit.converged
    assert np.allclose(fit.coefficients, true, atol=0.08)
    assert fit.scores.min() >= 1e-6 and fit.scores.max() <= 1 - 1e-6


def test_logistic_handles_separation():
    x = np.linspace(-1, 1, 40)[:, None]
    y = x[:, 0] > 0
    fit = fit_logistic(x, y, RunSettings.ridge)
    # separation must never produce non-finite scores; clipping bounds them
    assert np.all(np.isfinite(fit.coefficients))
    assert fit.scores.min() >= 1e-6 and fit.scores.max() <= 1 - 1e-6
    assert fit.scores[y].min() > fit.scores[~y].max()


@pytest.mark.parametrize("column", [
    lambda x: x[:, 0], lambda x: np.full(len(x), 3.0), lambda x: np.full(len(x), 0.3),
    lambda x: np.ones(len(x)), lambda x: np.zeros(len(x)), lambda x: 2 * x[:, 0] - x[:, 1],
], ids=["duplicated", "constant_3", "constant_0.3", "constant_1", "all_zero", "combination"])
def test_logistic_fits_a_column_the_others_span_at_ridge_0(column):
    """Such a column makes the unpenalized Hessian singular; the fit gives the scores of
    the design without it, in as many iterations, rather than stopping at all-zero
    coefficients or running to the iteration limit."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2000, 2))
    y = rng.random(2000) < 1 / (1 + np.exp(0.5 - x @ [1.0, -0.7]))
    single, spanned = fit_logistic(x, y, 0.0), fit_logistic(np.column_stack([x, column(x)]), y, 0.0)
    assert single.converged and spanned.converged
    assert spanned.iterations == single.iterations
    assert np.allclose(spanned.scores, single.scores, rtol=0, atol=1e-12)


def test_logistic_steps_by_least_squares_when_the_ridge_cannot_lift_a_spanned_column():
    """A penalty lost in the Hessian's diagonal leaves a duplicated column singular."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2000, 2))
    y = rng.random(2000) < 1 / (1 + np.exp(0.5 - x @ [1.0, -0.7]))
    single = fit_logistic(x, y, 0.0)
    spanned = fit_logistic(np.column_stack([x, x[:, 0]]), y, 1e-300)
    assert spanned.converged
    assert np.allclose(spanned.scores, single.scores, rtol=0, atol=1e-9)


def test_logistic_requires_both_arms():
    with pytest.raises(ValueError):
        fit_logistic(np.zeros((5, 1)), np.ones(5, dtype=bool), RunSettings.ridge)


def test_compute_weights():
    scores = np.array([0.2, 0.5, 0.999999])
    treated = np.array([True, False, True])
    std = compute_weights(scores, treated, "standard_ipw", cap=100.0)
    assert np.allclose(std, [5.0, 2.0, 1.0 / 0.999999])
    capped = compute_weights(np.array([1e-6]), np.array([True]), "standard_ipw")
    assert capped[0] == 100.0
    ovl = compute_weights(scores, treated, "overlap")
    assert np.allclose(ovl, [0.8, 0.5, 1 - 0.999999])
    with pytest.raises(ValueError):
        compute_weights(scores, treated, "trimming")


def test_match_pairs_hand_example():
    # logits: treated at 0.0 and 2.0; controls at 0.1, 0.15, 5.0
    def from_logit(v):
        return 1 / (1 + math.exp(-v))

    scores = np.array([from_logit(v) for v in (0.0, 2.0, 0.1, 0.15, 5.0)])
    treated = np.array([True, True, False, False, False])
    pairs = dict(match_pairs(scores, treated, caliper_sd_logit=0.5, seed=0))
    # caliper = 0.5 * SD(logits) ~ 0.93: treated@0 -> control@0.1 (or 0.15),
    # treated@2 has no control within the caliper
    assert set(pairs) == {0}
    assert pairs[0] in (2, 3)
    assert abs(math.log(scores[pairs[0]] / (1 - scores[pairs[0]]))) < 0.2


def test_match_pairs_no_replacement_and_caliper_error():
    scores = np.array([0.5, 0.5, 0.5001])
    treated = np.array([True, True, False])
    pairs = match_pairs(scores, treated, caliper_sd_logit=1e9, seed=0)
    assert len(pairs) == 1  # single control used once
    with pytest.raises(MatchingError):
        match_pairs(np.array([0.2, 0.9]), np.array([True, False]),
                    caliper_sd_logit=1e-6, seed=0)


def test_match_pairs_seeded_determinism():
    rng = np.random.default_rng(4)
    scores = rng.uniform(0.2, 0.8, size=400)
    treated = rng.random(400) < 0.5
    a = match_pairs(scores, treated, RunSettings.caliper_sd_logit, seed=11)
    b = match_pairs(scores, treated, RunSettings.caliper_sd_logit, seed=11)
    assert a == b
    matched_controls = [c for _, c in a]
    assert len(set(matched_controls)) == len(matched_controls)


def _pairs_or_error(match, scores, treated, caliper_sd_logit, seed):
    try:
        return match(scores, treated, caliper_sd_logit=caliper_sd_logit, seed=seed)
    except MatchingError as exc:
        return f"MatchingError: {exc}"


@pytest.mark.parametrize("case_seed", range(4))
def test_match_pairs_equals_the_skip_pointer_reference(case_seed):
    """The plain-list matcher forms the same pairs, in the same order, as the
    skip-pointer matcher it replaced, and raises the same errors: heavy ties (among
    them controls equally near on both sides), calipers from 0 to 1e9, one-arm
    inputs and inputs whose caliper excludes every pair."""
    rng = np.random.default_rng(case_seed)
    outcomes = set()
    for _ in range(250):
        n = int(rng.integers(1, 40 if rng.random() < 0.8 else 400))
        if rng.random() < 0.5:  # heavy ties; 0.25 and 0.75 are equally far from 0.5 in logit
            scores = rng.choice([0.25, 0.5, 0.75, rng.uniform(0.05, 0.95)], size=n)
        else:
            scores = rng.uniform(1e-6, 1 - 1e-6, size=n)
        treated = rng.random(n) < rng.choice([0.0, 0.2, 0.5, 0.8, 1.0])
        caliper = float(rng.choice([0.0, 1e-9, 1e-3, 0.2, 1.0, 1e9]))
        seed = int(rng.integers(0, 1000))
        got = _pairs_or_error(match_pairs, scores, treated, caliper, seed)
        assert got == _pairs_or_error(skip_pointer_match_pairs, scores, treated, caliper, seed)
        outcomes.add(got if isinstance(got, str) else "pairs")
    assert outcomes == {"pairs", "MatchingError: one arm is empty",
                        "MatchingError: caliper excluded every candidate pair"}


def _tiny_cox_case(rng):
    n = int(rng.integers(4, 9))
    times = rng.integers(1, 6, size=n).astype(float)  # forces ties
    events = rng.random(n) < 0.7
    x = (rng.random(n) < 0.5).astype(float)
    return times, events, x


def test_cox_weighted_partial_loglik_matches_oracle():
    # the weighted fit maximizes the loop-based weighted Breslow partial likelihood
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 40:
        times, events, x = _tiny_cox_case(rng)
        w = rng.uniform(0.5, 2.0, len(times))
        if not ((events & (x > 0)).any() and (events & (x == 0)).any()):
            continue
        best = golden_section_max(lambda b: breslow_loglik(b, times, events, x, w), -8, 8)
        if abs(best) > 6:  # near-monotone likelihood; skip boundary cases
            continue
        res = cox_fit(times, events, x, w)
        assert res.converged
        assert abs(res.beta - best) < 1e-6
        checked += 1


def test_cox_one_armed_events():
    times = np.array([1.0, 2.0, 3.0, 4.0])
    events = np.array([True, True, False, False])
    x = np.array([1.0, 1.0, 0.0, 0.0])
    res = cox_fit(times, events, x, None)
    assert not res.converged and res.beta == math.inf


def test_cox_robust_se_close_to_model_se_unweighted():
    rng = np.random.default_rng(3)
    config = ScenarioConfig(n_patients=4000, beta=0.5, censoring_rate=0.001)
    arrays = gen_survival_arrays(config, rng)
    res = cox_fit(arrays.time, arrays.event, arrays.treated.astype(float), None)
    robust = cox_fit(arrays.time, arrays.event, arrays.treated.astype(float),
                     np.ones(len(arrays.time)))
    assert res.converged
    assert robust.se == pytest.approx(res.se, rel=0.15)


def test_km_matches_recursive_oracle():
    rng = np.random.default_rng(6)
    times = rng.integers(1, 10, 60).astype(float)
    events = rng.random(60) < 0.6
    curve = km_curve(times, events)
    expected = km_recursive(times.tolist(), events.tolist())
    assert len(curve.times) == len(expected)
    for (t, s), ct, cs in zip(expected, curve.times, curve.survival):
        assert ct == t and abs(cs - s) < 1e-12
    # the curve holds survival[i] from times[i]; just before the first knot it is 1
    t0 = expected[0][0]
    assert curve.survival[0] == pytest.approx(expected[0][1])
    assert curve.left_limit(t0) == 1.0
    assert curve.left_limit(expected[1][0]) == pytest.approx(expected[0][1])


SURVIVAL_CASES = ("ties", "zero_and_inf", "distinct", "single_row", "all_censored",
                  "all_events", "one_arm_without_events")


def _survival_case(rng, kind):
    """Seeded (times, events, treated) of one kind. Integer days in a small range give
    heavy ties that mix events and censorings; sizes reach past the sorts' small-array
    cutoff, below which an unstable sort keeps ties in order."""
    n = 1 if kind == "single_row" else int(rng.integers(2, 300))
    times = rng.integers(0, int(rng.integers(1, 12)), n).astype(float)
    events = rng.random(n) < rng.uniform(0.2, 0.9)
    treated = rng.random(n) < 0.5
    if kind == "zero_and_inf":
        times[rng.random(n) < 0.15] = math.inf
    elif kind == "distinct":
        times = rng.exponential(100.0, n)
    elif kind in ("all_censored", "all_events"):
        events[:] = kind == "all_events"
    elif kind == "one_arm_without_events":
        events[treated == (rng.random() < 0.5)] = False
    return times, events, treated


# Newton steps on per-time totals sum in another order than the per-row oracle: seen at
# most 9e-15 relative over 14,000 seeded cases, so 1e-10 leaves room and still catches
# a wrong term
COX_ORACLE_TOL = 1e-10


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("presorted", [False, True], ids=["shuffled", "presorted"])
@pytest.mark.parametrize("kind", SURVIVAL_CASES)
def test_cox_fit_and_km_curve_equal_the_searchsorted_oracles(kind, presorted, weighted):
    """Tie groups read off the sorted times give bit for bit the curves of the argsort,
    np.unique and searchsorted forms, on input in any order, and the Cox fits of those
    forms up to COX_ORACLE_TOL, since the Newton steps sum per distinct event time; an
    infinite beta or se, as an early return gives, must be equal."""
    rng = np.random.default_rng(SURVIVAL_CASES.index(kind) * 4 + presorted * 2 + weighted)
    for _ in range(20):
        times, events, treated = _survival_case(rng, kind)
        weights = rng.uniform(0.05, 3.0, len(times)) if weighted else None
        order = np.argsort(times, kind="stable") if presorted else rng.permutation(len(times))
        times, events, treated = times[order], events[order], treated[order]
        weights = None if weights is None else weights[order]
        fit = cox_fit(times, events, treated, weights)
        expected = searchsorted_cox_fit(times, events, treated, weights)
        assert ((fit.converged, fit.n_used, fit.iterations)
                == (expected.converged, expected.n_used, expected.iterations))
        # the beta of a fit whose steps stop unconverged is wherever they stopped
        drifted = expected.iterations > 0 and not expected.converged
        for field in ("se",) if drifted else ("beta", "se"):
            got, want = getattr(fit, field), getattr(expected, field)
            assert got == want or (math.isfinite(want) and abs(got - want)
                                   <= COX_ORACLE_TOL * max(1.0, abs(want))), field
        curve = km_curve(times, events, weights)
        expected = searchsorted_km_curve(times, events, weights)
        for field in ("times", "survival", "deaths", "at_risk"):
            assert np.array_equal(getattr(curve, field), getattr(expected, field)), field


def test_cox_monotone_likelihood_is_not_converged():
    """Once the treated share of a risk set rounds to 0, its deaths still pull beta down:
    the score sums each event time's difference, not two totals that cancel."""
    res = cox_fit(np.array([6.0, 1.0]), np.array([True, True]), np.array([True, False]), None)
    assert not res.converged and res.iterations == survival_mod.COX_MAX_ITER


def _tie_group_case(rng, kind):
    """Seeded non-decreasing times and event flags of one kind."""
    n = {"empty": 0, "single_row": 1, "large": 36_000}.get(kind, int(rng.integers(2, 300)))
    times = np.sort(rng.integers(0, int(rng.integers(1, 12)), n).astype(float))
    events = rng.random(n) < rng.uniform(0.2, 0.9)
    if kind == "one_group":
        times[:] = 3.0
    elif kind in ("all_censored", "all_events"):
        events[:] = kind == "all_events"
    elif kind == "inf":
        times[rng.random(n) < 0.15] = math.inf
        times.sort()
    return times, events


@pytest.mark.parametrize("kind", ["empty", "single_row", "one_group", "all_censored",
                                  "all_events", "inf", "ties", "large"])
def test_event_tie_groups_equal_the_scatter_oracle(kind):
    """Tie groups built from their start rows give the arrays and dtypes of the two
    cumsums and the scatter."""
    rng = np.random.default_rng(len(kind))
    for _ in range(1 if kind == "large" else 30):
        times, events = _tie_group_case(rng, kind)
        got, expected = _event_tie_groups(times, events), scatter_event_tie_groups(times, events)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def _claims_cohort(seed, dense):
    """One drug pair's cohort built from seeded claims, on dense or on count features."""
    config = ScenarioConfig(n_patients=1200, gamma=[0.8, 0.8, 0.6, 0.6], beta=0.4,
                            eta=[0.5, 0.5, 0.3, 0.3], lambda0=0.003, censoring_rate=0.001)
    patients, dense_rows, _ = synth.gen_claims(config, np.random.default_rng(seed))
    db = PatientDB.from_records(patients, synth.vocabulary(config))
    if dense:
        db = db.with_dense_features(dense_rows)
    return build_cohort(db, config.drug_a, config.drug_b, [config.outcome_code], seed,
                        RunSettings.max_per_arm, RunSettings.min_per_arm)


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "counts"])
def test_run_all_methods_in_time_order_equals_the_cohort_order_oracles(monkeypatch, dense):
    """The matched set, each arm and each weighting, taken in the outcome's one stable
    time order, give the rows of the cohort-order subsets, which cox_fit and the
    searchsorted Kaplan-Meier oracle sort stably per call."""
    def rows():
        return [repr(run_all_methods(_claims_cohort(seed, dense), RunSettings(seed=seed)))
                for seed in (3, 4)]

    def cohort_order_arms(nz, rows=None):
        rows = slice(None) if rows is None else rows
        return nz.time[rows], nz.event[rows], nz.pair.treated[rows]

    in_time_order = rows()
    assert not any("nan" in run for run in in_time_order)  # every method has an estimate
    monkeypatch.setattr(methods_mod._OutcomeFits, "arms", cohort_order_arms)
    monkeypatch.setattr(methods_mod._OutcomeFits, "in_time_order", lambda nz, values: values)
    monkeypatch.setattr(methods_mod, "km_curve", searchsorted_km_curve)
    assert rows() == in_time_order


def test_rmst_hand_fixture():
    curve = SurvivalCurve(times=np.array([1.0, 2.0, 3.0, 4.0]),
                          survival=np.array([0.75, 0.5, 0.25, 0.0]))
    assert rmst(curve, 4.0) == pytest.approx(2.5)
    assert rmst(curve, 2.5) == pytest.approx(1.0 + 0.75 + 0.25)
    assert rmst(curve, 10.0) == pytest.approx(2.5)  # last value held
    with pytest.raises(ValueError):
        rmst(curve, 0.0)


def test_event_time_horizon_nearest_rank():
    times = [5.0, 1.0, 3.0, 2.0, 4.0, 99.0]
    events = [True, True, True, True, True, False]
    assert event_time_horizon(times, events, 0.8) == 4.0  # ceil(0.8*5) = 4th of 5
    assert event_time_horizon(times, events, 0.5) == 3.0
    rng = np.random.default_rng(5)  # tied times, every rank from the first to the last
    tied, observed = rng.integers(0, 20, 101).astype(float), rng.random(101) < 0.7
    ranked = np.sort(tied[observed])
    for q in (0.01, 0.25, 0.5, 0.8, 1.0):
        rank = max(1, math.ceil(q * len(ranked)))
        assert event_time_horizon(tied, observed, q) == ranked[rank - 1]
    with pytest.raises(ValueError):
        event_time_horizon([1.0], [False], 0.8)


def test_aft_recovers_weibull_parameters():
    # hazard lambda0 * shape-power with log-linear terms is a Weibull AFT:
    # sigma = 1/shape, slope on treatment = -beta/shape
    rng = np.random.default_rng(12)
    config = ScenarioConfig(n_patients=6000, n_dense_features=1, n_code_features=0,
                            gamma=[0.0], beta=-0.6, eta=[0.5], lambda0=0.001,
                            shape=1.4, censoring_rate=0.0005)
    arrays = gen_survival_arrays(config, rng)
    model = aft_fit(arrays.features, arrays.treated, arrays.time, arrays.event)
    assert model.converged
    assert model.sigma == pytest.approx(1 / 1.4, rel=0.05)
    assert model.theta[1] == pytest.approx(0.6 / 1.4, abs=0.05)
    assert model.theta[2] == pytest.approx(-0.5 / 1.4, abs=0.05)


def _weibull_score(theta, log_sigma, features, treatment, times, events):
    """Score of the Weibull AFT log-likelihood in (theta, log sigma)."""
    X = np.column_stack([np.ones(len(treatment)), treatment, features])
    sigma = math.exp(log_sigma)
    z = (np.log(np.maximum(times, 0.5)) - X @ theta) / sigma
    u = np.exp(z)
    return np.append(X.T @ (u - events) / sigma, np.sum(u * z - events * (z + 1.0)))


def test_aft_converges_with_all_zero_count_columns():
    # count features for codes never seen pre-index are all-zero columns;
    # on this seed the fit used to stop with log sigma near -1176
    config = ScenarioConfig(**PIPELINE_SCENARIO["claims"] | {"n_patients": 1000})
    arrays = gen_survival_arrays(config, np.random.default_rng(14))
    codes = arrays.features[:, 2:]
    features = np.column_stack([np.zeros((1000, 3)), codes])
    times = np.ceil(arrays.time)
    model = aft_fit(features, arrays.treated, times, arrays.event)
    assert model.converged
    assert abs(model.log_sigma) < 1
    score = _weibull_score(model.theta, model.log_sigma, features, arrays.treated,
                           times, arrays.event)
    assert np.abs(score).max() < 1e-6 * arrays.event.sum()
    assert np.abs(model.theta[2:5]).max() < 1e-12
    reduced = aft_fit(codes, arrays.treated, times, arrays.event)
    assert reduced.converged
    assert np.allclose(model.theta[[0, 1, 5, 6]], reduced.theta, rtol=0, atol=1e-9)
    assert reduced.log_sigma == pytest.approx(model.log_sigma, abs=1e-9)


@pytest.mark.parametrize("extra", ["duplicate", "constant", "all_zero"])
def test_aft_singular_extra_column_leaves_the_predicted_rmst(extra):
    # a duplicated, constant or all-zero count column makes the information matrix
    # singular; each Newton step is a least-squares solve, so the fit converges to the
    # same predictions
    rng = np.random.default_rng(1)
    features = rng.poisson(0.3, size=(1125, 4)).astype(float)
    treated = rng.random(1125) < 0.5
    times = np.ceil(rng.exponential(300, size=1125))
    events = rng.random(1125) < 0.6
    column = {"duplicate": features[:, 0], "constant": np.ones(1125),
              "all_zero": np.zeros(1125)}[extra]
    wide = np.column_stack([features, column])
    base = aft_fit(features, treated, times, events)
    model = aft_fit(wide, treated, times, events)
    assert base.converged and model.converged
    for arm in (np.zeros(1125), np.ones(1125)):
        want = base.predicted_rmst(features, arm, 300.0)
        assert np.allclose(model.predicted_rmst(wide, arm, 300.0), want, rtol=1e-12, atol=0)


def test_aft_requires_events():
    model = aft_fit(np.zeros((20, 1)), np.zeros(20), np.ones(20) * 5,
                    np.zeros(20, dtype=bool))
    assert not model.converged


def test_aft_step_whose_exp_sum_overflows_is_halved_without_a_warning():
    # each exp(z) of an early trial step is finite but their sum passes 1.8e308; the
    # step is halved, and the sum must not leak numpy's overflow warning
    rng = np.random.default_rng(75)
    n = 40
    x = (rng.random((n, 1)) < 0.5) * 10.0
    trt = rng.random(n) < 0.5
    t = np.exp(4 * rng.standard_normal(n) + 3 * x[:, 0] + 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        model = aft_fit(x, trt, t, np.ones(n))
    assert model.converged
    score = _weibull_score(model.theta, model.log_sigma, x, trt, t, np.ones(n))
    assert np.abs(score).max() < 1e-6 * n


def test_aft_predicted_rmst_matches_numeric_integration():
    rng = np.random.default_rng(1)
    config = ScenarioConfig(n_patients=3000, n_dense_features=1, n_code_features=0,
                            beta=-0.3, eta=[0.4], lambda0=0.002)
    arrays = gen_survival_arrays(config, rng)
    model = aft_fit(arrays.features, arrays.treated, arrays.time, arrays.event)
    assert model.converged
    feats = arrays.features[:3]
    trt = np.ones(3)
    tau = 500.0
    grid = np.linspace(1.0, tau, 20_000)
    # Weibull survival exp(-exp((log t - mu) / sigma)), mu = [1, treatment, features] . theta
    mu = model.theta[0] + model.theta[1] + feats @ model.theta[2:]
    numeric = np.array([
        1.0 + trapezoid(np.exp(-np.exp((np.log(grid) - m) / model.sigma)), grid) for m in mu
    ])  # survival ~ 1 on [0, 1)
    assert np.allclose(model.predicted_rmst(feats, trt, tau), numeric, rtol=0.01)


def test_lower_incomplete_gamma_matches_scipy(monkeypatch):
    # predicted_rmst passes a = sigma, the AFT's 1 / Weibull shape; the series and
    # the continued fraction meet at x = a + 1
    x = np.concatenate([np.geomspace(1e-4, 1e3, 300), np.linspace(0.0, 1e3, 301)])
    for a in np.concatenate([np.geomspace(0.05, 20, 40), [0.7, 1.0, 1.3]]):
        xa = np.concatenate([x, (a + 1) * (1 + np.array([-1e-12, 0.0, 1e-12]))])
        # a loop that reached GAMMA_MAX_ITER would raise ArithmeticError here
        p, ref = _lower_gamma_p(a, xa), gammainc(a, xa)
        assert np.all(np.abs(p - ref) <= 1e-13 * ref), a
        assert np.array_equal(_lower_gamma_p(a, np.array([0.0, np.inf])), [0.0, 1.0]), a
    monkeypatch.setattr(survival_mod, "GAMMA_MAX_ITER", 20)
    with pytest.raises(ArithmeticError):
        _lower_gamma_p(0.05, np.array([1.05]))


def test_rmst_regression_and_aipw_unconfounded():
    rng = np.random.default_rng(21)
    config = ScenarioConfig(n_patients=20_000, n_dense_features=1, n_code_features=0,
                            gamma=[0.0], beta=-0.5, eta=[0.5], lambda0=0.002,
                            censoring_rate=0.0005)
    arrays = gen_survival_arrays(config, rng)
    gt = ground_truth(config)
    truth = gt.marginal_rmst_diff
    model = aft_fit(arrays.features, arrays.treated, arrays.time, arrays.event)
    prop = fit_logistic(arrays.features, arrays.treated, RunSettings.ridge)
    m1, m0 = (model.predicted_rmst(arrays.features, np.full(config.n_patients, arm), gt.tau)
              for arm in (1.0, 0.0))
    reg = rmst_regression(m1, m0)
    aipw = rmst_aipw(arrays.time, arrays.event, arrays.treated, prop, m1, m0, gt.tau,
                     np.argsort(arrays.time, kind="stable"))
    assert model.converged and reg.converged and aipw.converged
    assert reg.point == pytest.approx(truth, abs=0.05 * abs(truth) + 2.0)
    assert aipw.point == pytest.approx(truth, abs=0.05 * abs(truth) + 2.0)
    assert aipw.std_error > 0


def _registry_cohort():
    config = ScenarioConfig(n_patients=2000, gamma=[0.5, 0.5, 0.3, 0.3],
                            beta=0.3, eta=[0.4, 0.4, 0.2, 0.2],
                            lambda0=0.002, censoring_rate=0.001)
    return gen_survival_arrays(config, np.random.default_rng(30))


def _pair(arrays, *more_outcomes):
    """A drug pair's cohort of plain arrays: arrays' treated, features, time and event,
    then one more outcome per (time, event) in more_outcomes."""
    return Cohort([], arrays.treated, arrays.features, [],
                  [(arrays.time, arrays.event), *more_outcomes])


def test_run_all_methods_registry():
    estimates = run_all_methods(_pair(_registry_cohort()), RunSettings(seed=5))[0]
    assert [e.method_id for e in estimates] == list(METHOD_REGISTRY)
    converged = {e.method_id: e for e in estimates if e.converged}
    assert len(converged) >= 8
    for e in estimates:
        assert e.scale == METHOD_REGISTRY[e.method_id].scale
        if e.method_id.startswith("cox"):
            assert e.scale == "log_hazard_ratio"
        else:
            assert e.scale == "rmst_difference_days"


def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(methods_mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(methods_mod, name, counted)
    return calls


def _count_weight_modes(monkeypatch):
    """The mode of each compute_weights call, in call order."""
    modes = []
    real_compute_weights = methods_mod.compute_weights

    def counted_compute_weights(scores, treated, mode, **kwargs):
        modes.append(mode)
        return real_compute_weights(scores, treated, mode, **kwargs)

    monkeypatch.setattr(methods_mod, "compute_weights", counted_compute_weights)
    return modes


def test_run_all_methods_fits_each_nuisance_model_once(monkeypatch):
    calls = _count_calls(monkeypatch, ["aft_fit", "fit_logistic", "match_pairs"])
    predicted = []
    real_predicted_rmst = AFTModel.predicted_rmst

    def counted_predicted_rmst(self, *args):
        predicted.append(1)
        return real_predicted_rmst(self, *args)

    monkeypatch.setattr(AFTModel, "predicted_rmst", counted_predicted_rmst)
    estimates = run_all_methods(_pair(_registry_cohort()), RunSettings(seed=5))[0]
    assert len(estimates) == len(METHOD_REGISTRY)
    assert calls == {"aft_fit": 1, "fit_logistic": 1, "match_pairs": 1}
    assert len(predicted) == 2  # one array per drug, shared by both AFT methods


@pytest.mark.parametrize("name, value", [
    ("tau_percentile", 1.5), ("tau_percentile", 0.0), ("max_per_arm", -1), ("min_per_arm", -1),
    ("ridge", math.nan), ("ridge", -1e-6), ("caliper_sd_logit", 0.0),
    ("weight_cap", math.inf), ("weight_cap", -1.0), ("min_per_arm", 0),
])
def test_run_settings_checks_each_field(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite and "):
        RunSettings(**{name: value})


def test_run_all_methods_fits_the_propensity_models_once_per_pair(monkeypatch):
    calls = _count_calls(monkeypatch, ["aft_fit", "fit_logistic", "match_pairs"])
    modes = _count_weight_modes(monkeypatch)
    arrays = _registry_cohort()
    pair = _pair(arrays, (arrays.time[::-1], arrays.event[::-1]))  # two outcomes
    per_outcome = run_all_methods(pair, RunSettings(seed=5))
    assert [len(estimates) for estimates in per_outcome] == [len(METHOD_REGISTRY)] * 2
    assert calls == {"aft_fit": 2, "fit_logistic": 1, "match_pairs": 1}
    assert sorted(modes) == ["overlap", "standard_ipw"]
    # both outcomes are adjusted on the one matched set
    psm = [next(e for e in estimates if e.method_id == "cox_psm") for estimates in per_outcome]
    assert psm[0].converged and psm[1].converged and psm[0].n_used == psm[1].n_used


# What each method fits when it runs alone on a pair with two outcomes: fit_logistic,
# match_pairs and aft_fit calls, and compute_weights calls by mode.
SINGLE_METHOD_FITS = {
    "cox_unadjusted": {},
    "cox_psm": {"fit_logistic": 1, "match_pairs": 1},
    "cox_ipw_overlap": {"fit_logistic": 1, "overlap": 1},
    "cox_ipw_standard": {"fit_logistic": 1, "standard_ipw": 1},
    "rmst_km_unadjusted": {},
    "rmst_km_psm": {"fit_logistic": 1, "match_pairs": 1},
    "rmst_km_ipw_overlap": {"fit_logistic": 1, "overlap": 1},
    "rmst_aft_regression": {"aft_fit": 2},
    "rmst_aipw": {"aft_fit": 2, "fit_logistic": 1},
}


@pytest.mark.parametrize("method_id", list(METHOD_REGISTRY))
def test_each_method_alone_fits_only_what_it_reads(monkeypatch, method_id):
    """A method subset fits no nuisance model its methods do not read, and writes the
    rows the full run writes for those methods."""
    arrays = _registry_cohort()
    pair = _pair(arrays, (arrays.time[::-1], arrays.event[::-1]))  # two outcomes
    full = run_all_methods(pair, RunSettings(seed=5))
    calls = _count_calls(monkeypatch, ["aft_fit", "fit_logistic", "match_pairs"])
    modes = _count_weight_modes(monkeypatch)
    alone = run_all_methods(pair, RunSettings(seed=5, methods=(method_id,)))
    fitted = {name: n for name, n in calls.items() if n}
    assert {**fitted, **Counter(modes)} == SINGLE_METHOD_FITS[method_id]
    assert len(alone) == 2 and all(len(estimates) == 1 for estimates in alone)
    assert repr(alone) == repr([[e for e in estimates if e.method_id == method_id]
                                for estimates in full])


def test_run_all_methods_shares_a_failed_fit(monkeypatch):
    calls = []

    def failing_fit(*args, **kwargs):
        calls.append(1)
        raise np.linalg.LinAlgError("singular Hessian")

    monkeypatch.setattr(methods_mod, "fit_logistic", failing_fit)
    estimates = run_all_methods(_pair(_registry_cohort()), RunSettings(seed=5))[0]
    by_id = {e.method_id: e for e in estimates}
    assert len(calls) == 1
    for m in ("cox_psm", "cox_ipw_overlap", "cox_ipw_standard", "rmst_km_psm",
              "rmst_km_ipw_overlap", "rmst_aipw"):
        assert not by_id[m].converged and by_id[m].note == "LinAlgError: singular Hessian"
    for m in ("cox_unadjusted", "rmst_km_unadjusted", "rmst_aft_regression"):
        assert by_id[m].converged and by_id[m].note == ""


def _few_events_cohort(n_events):
    """A cohort of 200 whose first n_events rows are events, half of them treated."""
    class Few:
        time = np.arange(1.0, 201.0)
        event = np.arange(200) < n_events
        treated = np.arange(200) % 2 == 0
        features = np.random.default_rng(3).standard_normal((200, 2))
    return Few()


def _heavily_censored_cohort():
    """3,000 rows censored one a day, then 20 events after them: the censoring KM
    falls to 20/3020 before the events, below 1 / G_WEIGHT_CAP."""
    class Censored:
        time = np.arange(1.0, 3021.0)
        event = np.arange(3020) >= 3000
        treated = np.arange(3020) % 2 == 0
        features = np.random.default_rng(4).standard_normal((3020, 2))
    return Censored()


def _run_few_events():
    return run_all_methods(_pair(_few_events_cohort(5)), RunSettings())[0]


def test_run_all_methods_aft_and_ipcw_notes(monkeypatch):
    aft_methods = ("rmst_aft_regression", "rmst_aipw")
    by_id = {e.method_id: e for e in _run_few_events()}
    for m in aft_methods:
        assert by_id[m].note == "AFT did not converge"
        assert not by_id[m].converged and by_id[m].n_used == 200
        assert math.isnan(by_id[m].point) and math.isnan(by_id[m].std_error)
        assert by_id[m].scale == "rmst_difference_days"

    aipw = run_all_methods(_pair(_heavily_censored_cohort()),
                           RunSettings(methods=("rmst_aipw",)))[0]
    assert aipw[0].converged and aipw[0].note == "IPCW weight capped"

    def failing(message):
        def fit(*args, **kwargs):
            raise np.linalg.LinAlgError(message)
        return fit

    # An AFT fit error outranks a propensity fit error, which outranks AFT
    # non-convergence.
    monkeypatch.setattr(methods_mod, "fit_logistic", failing("propensity"))
    by_id = {e.method_id: e for e in _run_few_events()}
    assert by_id["rmst_aipw"].note == "LinAlgError: propensity"
    assert by_id["rmst_aft_regression"].note == "AFT did not converge"
    monkeypatch.setattr(methods_mod, "aft_fit", failing("aft"))
    by_id = {e.method_id: e for e in _run_few_events()}
    for m in aft_methods:
        assert by_id[m].note == "LinAlgError: aft" and by_id[m].n_used == 200


def test_run_all_methods_no_events():
    class Dummy:
        time = np.ones(50) * 10
        event = np.zeros(50, dtype=bool)
        treated = np.arange(50) < 25
        features = np.random.default_rng(0).standard_normal((50, 2))

    estimates = run_all_methods(_pair(Dummy()), RunSettings())[0]
    assert all(not e.converged for e in estimates)
    assert all("no observed events" in e.note for e in estimates)


def test_run_all_methods_horizon_at_day_0():
    """Half the rows have their event on day 0 and the rest are censored, so tau is 0:
    every RMST-scale method records the same failure, and the Cox methods run."""
    class DayZero:
        event = np.arange(600) % 4 < 2
        time = np.where(event, 0.0, np.random.default_rng(8).integers(1, 1000, 600))
        treated = np.arange(600) % 2 == 0
        features = np.random.default_rng(9).standard_normal((600, 2))

    estimates = run_all_methods(_pair(DayZero()), RunSettings(seed=5))[0]
    rmst_rows = [e for e in estimates if e.scale == "rmst_difference_days"]
    assert len(rmst_rows) == 5 and not any(e.converged for e in rmst_rows), rmst_rows
    assert all(math.isnan(e.point) and math.isnan(e.std_error) for e in rmst_rows)
    assert {e.note for e in rmst_rows} == {"tau must be positive, got 0"}
    assert all(e.converged and e.note == "" for e in estimates if e.scale == "log_hazard_ratio")


def test_run_all_methods_subset_and_isolation():
    class Broken:
        time = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        event = np.ones(6, dtype=bool)
        treated = np.array([True, False, True, False, True, False])
        features = np.full((6, 1), np.nan)  # propensity fit will blow up

    estimates = run_all_methods(_pair(Broken()), RunSettings(methods=("cox_unadjusted",
                                                                      "cox_ipw_overlap")))[0]
    by_id = {e.method_id: e for e in estimates}
    assert set(by_id) == {"cox_unadjusted", "cox_ipw_overlap"}
    assert by_id["cox_unadjusted"].converged
    assert not by_id["cox_ipw_overlap"].converged
    assert isinstance(by_id["cox_ipw_overlap"], EffectEstimate)
