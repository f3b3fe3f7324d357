import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from oracles import breslow_loglik, golden_section_max, km_recursive
from test_acceptance import PIPELINE_SCENARIO
from trialbench.estimators import (
    EffectEstimate,
    MatchingError,
    METHOD_REGISTRY,
    RunSettings,
    SurvivalCurve,
    aft_fit,
    compute_weights,
    cox_fit,
    cox_partial_loglik,
    event_time_horizon,
    fit_logistic,
    km_curve,
    match_pairs,
    rmst,
    rmst_aipw,
    rmst_regression,
    run_all_methods,
)
from trialbench.estimators import methods as methods_mod
from trialbench.synth import ScenarioConfig, gen_survival_arrays, ground_truth


def test_logistic_recovers_coefficients():
    rng = np.random.default_rng(0)
    n = 20_000
    x = rng.standard_normal((n, 2))
    true = np.array([-0.5, 1.0, -0.7])
    p = 1 / (1 + np.exp(-(true[0] + x @ true[1:])))
    y = rng.random(n) < p
    fit = fit_logistic(x, y)
    assert fit.converged
    assert np.allclose(fit.coefficients, true, atol=0.08)
    assert fit.scores.min() >= 1e-6 and fit.scores.max() <= 1 - 1e-6


def test_logistic_handles_separation():
    x = np.linspace(-1, 1, 40)[:, None]
    y = x[:, 0] > 0
    fit = fit_logistic(x, y)
    # separation must never produce non-finite scores; clipping bounds them
    assert np.all(np.isfinite(fit.coefficients))
    assert fit.scores.min() >= 1e-6 and fit.scores.max() <= 1 - 1e-6
    assert fit.scores[y].min() > fit.scores[~y].max()


def test_logistic_requires_both_arms():
    with pytest.raises(ValueError):
        fit_logistic(np.zeros((5, 1)), np.ones(5, dtype=bool))


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
    a = match_pairs(scores, treated, seed=11)
    b = match_pairs(scores, treated, seed=11)
    assert a == b
    matched_controls = [c for _, c in a]
    assert len(set(matched_controls)) == len(matched_controls)


def _tiny_cox_case(rng):
    n = int(rng.integers(4, 9))
    times = rng.integers(1, 6, size=n).astype(float)  # forces ties
    events = rng.random(n) < 0.7
    x = (rng.random(n) < 0.5).astype(float)
    return times, events, x


def test_cox_matches_brute_force_on_tiny_data():
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 30:
        times, events, x = _tiny_cox_case(rng)
        if not ((events & (x > 0)).any() and (events & (x == 0)).any()):
            continue
        best = golden_section_max(lambda b: breslow_loglik(b, times, events, x), -8, 8)
        if abs(best) > 6:  # near-monotone likelihood; skip boundary cases
            continue
        res = cox_fit(times, events, x)
        assert res.converged
        assert abs(res.beta - best) < 1e-6
        checked += 1


def test_cox_weighted_partial_loglik_matches_oracle():
    rng = np.random.default_rng(2)
    times = rng.exponential(10, 30)
    events = rng.random(30) < 0.8
    x = (rng.random(30) < 0.5).astype(float)
    w = rng.uniform(0.5, 2.0, 30)
    for beta in (-0.7, 0.0, 1.3):
        assert cox_partial_loglik(beta, times, events, x, w) == pytest.approx(
            breslow_loglik(beta, times, events, x, w), abs=1e-9)


def test_cox_one_armed_events():
    times = np.array([1.0, 2.0, 3.0, 4.0])
    events = np.array([True, True, False, False])
    x = np.array([1.0, 1.0, 0.0, 0.0])
    res = cox_fit(times, events, x)
    assert not res.converged and res.beta == math.inf


def test_cox_robust_se_close_to_model_se_unweighted():
    rng = np.random.default_rng(3)
    config = ScenarioConfig(n_patients=4000, beta=0.5, censoring_rate=0.001, seed=None)
    arrays = gen_survival_arrays(config, rng)
    res = cox_fit(arrays.time, arrays.event, arrays.treated.astype(float))
    assert res.converged
    assert res.se_robust == pytest.approx(res.se_model, rel=0.15)


def test_km_matches_recursive_oracle():
    rng = np.random.default_rng(6)
    times = rng.integers(1, 10, 60).astype(float)
    events = rng.random(60) < 0.6
    curve = km_curve(times, events)
    expected = km_recursive(times.tolist(), events.tolist())
    assert len(curve.times) == len(expected)
    for (t, s), ct, cs in zip(expected, curve.times, curve.survival):
        assert ct == t and abs(cs - s) < 1e-12
    # evaluation semantics: right-continuous with left limits
    t0 = expected[0][0]
    assert curve(t0) == pytest.approx(expected[0][1])
    assert curve.left_limit(t0) == 1.0


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


def test_aft_requires_events():
    model = aft_fit(np.zeros((20, 1)), np.zeros(20), np.ones(20) * 5,
                    np.zeros(20, dtype=bool))
    assert not model.converged


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
    numeric = np.array([
        1.0 + trapezoid(model.predicted_survival(np.tile(f, (len(grid), 1)),
                                                 np.ones(len(grid)), grid), grid)
        for f in feats
    ])  # survival ~ 1 on [0, 1)
    assert np.allclose(model.predicted_rmst(feats, trt, tau), numeric, rtol=0.01)


def test_rmst_regression_and_aipw_unconfounded():
    rng = np.random.default_rng(21)
    config = ScenarioConfig(n_patients=20_000, n_dense_features=1, n_code_features=0,
                            gamma=[0.0], beta=-0.5, eta=[0.5], lambda0=0.002,
                            censoring_rate=0.0005)
    arrays = gen_survival_arrays(config, rng)
    tau = 365.0
    truth = ground_truth(config, np.random.default_rng(99), n_mc=200_000,
                         tau=tau).marginal_rmst_diff
    model = aft_fit(arrays.features, arrays.treated, arrays.time, arrays.event)
    prop = fit_logistic(arrays.features, arrays.treated)
    reg = rmst_regression(model, arrays.features, tau)
    aipw = rmst_aipw(arrays.time, arrays.event, arrays.treated, arrays.features,
                     prop, model, tau)
    assert reg.converged and aipw.converged
    assert reg.point == pytest.approx(truth, abs=0.05 * abs(truth) + 2.0)
    assert aipw.point == pytest.approx(truth, abs=0.05 * abs(truth) + 2.0)
    assert aipw.std_error > 0


def _registry_cohort():
    config = ScenarioConfig(n_patients=2000, gamma=[0.5, 0.5, 0.3, 0.3],
                            beta=0.3, eta=[0.4, 0.4, 0.2, 0.2],
                            lambda0=0.002, censoring_rate=0.001)
    return gen_survival_arrays(config, np.random.default_rng(30))


def test_run_all_methods_registry():
    estimates = run_all_methods(_registry_cohort(), RunSettings(seed=5))
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


def test_run_all_methods_fits_each_nuisance_model_once(monkeypatch):
    calls = _count_calls(monkeypatch, ["aft_fit", "fit_logistic", "match_pairs"])
    estimates = run_all_methods(_registry_cohort(), RunSettings(seed=5))
    assert len(estimates) == len(METHOD_REGISTRY)
    assert calls == {"aft_fit": 1, "fit_logistic": 1, "match_pairs": 1}


def test_run_all_methods_shares_a_failed_fit(monkeypatch):
    calls = []

    def failing_fit(*args, **kwargs):
        calls.append(1)
        raise np.linalg.LinAlgError("singular Hessian")

    monkeypatch.setattr(methods_mod, "fit_logistic", failing_fit)
    by_id = {e.method_id: e for e in run_all_methods(_registry_cohort(), RunSettings(seed=5))}
    assert len(calls) == 1
    for m in ("cox_psm", "cox_ipw_overlap", "cox_ipw_standard", "rmst_km_psm",
              "rmst_km_ipw_overlap", "rmst_aipw"):
        assert not by_id[m].converged and by_id[m].note == "LinAlgError: singular Hessian"
    for m in ("cox_unadjusted", "rmst_km_unadjusted", "rmst_aft_regression"):
        assert by_id[m].converged and by_id[m].note == ""


def test_run_all_methods_no_events():
    class Dummy:
        time = np.ones(50) * 10
        event = np.zeros(50, dtype=bool)
        treated = np.arange(50) < 25
        features = np.random.default_rng(0).standard_normal((50, 2))

    estimates = run_all_methods(Dummy(), RunSettings())
    assert all(not e.converged for e in estimates)
    assert all("no observed events" in e.note for e in estimates)


def test_run_all_methods_subset_and_isolation():
    class Broken:
        time = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        event = np.ones(6, dtype=bool)
        treated = np.array([True, False, True, False, True, False])
        features = np.full((6, 1), np.nan)  # propensity fit will blow up

    estimates = run_all_methods(Broken(), RunSettings(methods=("cox_unadjusted",
                                                               "cox_ipw_overlap")))
    by_id = {e.method_id: e for e in estimates}
    assert set(by_id) == {"cox_unadjusted", "cox_ipw_overlap"}
    assert by_id["cox_unadjusted"].converged
    assert not by_id["cox_ipw_overlap"].converged
    assert isinstance(by_id["cox_ipw_overlap"], EffectEstimate)
