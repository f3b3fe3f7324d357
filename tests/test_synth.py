import dataclasses
import math

import numpy as np
import pytest

from oracles import mc_marginal_truth
from trialbench import synth
from trialbench.cohort import PatientDB, build_cohort
from trialbench.estimators import RunSettings
from trialbench.ingest import DrugDictionary, OutcomeDictionary, parse_dump
from trialbench.synth import (
    MAX_CODE_FEATURES,
    MAX_DENSE_EFFECT,
    MAX_LOG_HAZARD,
    PlantedComparison,
    ScenarioConfig,
    gen_claims,
    gen_survival_arrays,
    gen_trial_dump,
    ground_truth,
    make_drug_dictionary_rows,
    make_outcome_dictionary_rows,
    vocabulary,
)


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(n_patients=10, lambda0=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(n_patients=10, gamma=[1.0])  # wrong length
    config = ScenarioConfig.from_dict({"n_patients": 100, "beta": 0.5})
    assert config.gamma == [0.0] * 4 and config.eta == [0.0] * 4


def test_gen_survival_arrays_shapes_and_determinism():
    config = ScenarioConfig(n_patients=500, beta=0.2, censoring_rate=0.001)
    a = gen_survival_arrays(config, np.random.default_rng(5))
    b = gen_survival_arrays(config, np.random.default_rng(5))
    assert a.features.shape == (500, 4)
    assert np.array_equal(a.time, b.time) and np.array_equal(a.treated, b.treated)
    assert np.all(a.time <= config.horizon_days + 1e-9)
    assert np.all(a.time[~a.event] <= a.latent_time[~a.event])


def test_gen_survival_arrays_degenerate():
    config = ScenarioConfig(n_patients=50, n_dense_features=0, n_code_features=1,
                            code_prob=1.0, gamma=[50.0])  # everyone treated
    with pytest.raises(ValueError):
        gen_survival_arrays(config, np.random.default_rng(0))


def test_ground_truth_null_effect():
    # both arms have the same population, so the truth is exactly null
    config = ScenarioConfig(n_patients=100, n_dense_features=1, n_code_features=0,
                            beta=0.0, eta=[0.8], lambda0=0.002)
    truth = ground_truth(config)
    assert truth.marginal_log_hr == pytest.approx(0.0, abs=1e-12)
    assert truth.marginal_rmst_diff == pytest.approx(0.0, abs=1e-12)
    assert truth.tau > 0


@pytest.mark.parametrize("shape", [0.5, 1.0, 2.0])
def test_ground_truth_tau_at_a_vanishing_hazard(shape):
    # F(t) is proportional to t^shape, so the pooled percentile is p^(1/shape) of the horizon
    silent = ScenarioConfig(n_patients=100, lambda0=1e-12, shape=shape, horizon_days=100.0)
    expected = RunSettings.tau_percentile ** (1 / shape) * 100.0
    assert ground_truth(silent).tau == pytest.approx(expected, rel=1e-9)


def test_ground_truth_closed_form_without_covariates():
    config = ScenarioConfig(n_patients=100, n_dense_features=0, n_code_features=0,
                            beta=0.6, lambda0=0.003)
    truth = ground_truth(config)
    r0, r1 = config.lambda0, config.lambda0 * math.exp(config.beta)
    assert truth.marginal_log_hr == pytest.approx(config.beta, abs=1e-10)

    def events(t):  # pooled event probability by t, both arms exponential
        return -math.expm1(-r0 * t) - math.expm1(-r1 * t)

    assert events(truth.tau) == pytest.approx(
        RunSettings.tau_percentile * events(config.horizon_days), rel=1e-10)
    rmst_diff = -math.expm1(-r1 * truth.tau) / r1 + math.expm1(-r0 * truth.tau) / r0
    assert truth.marginal_rmst_diff == pytest.approx(rmst_diff, rel=1e-10)


@pytest.mark.parametrize("beta", [0.5, -0.5])
@pytest.mark.parametrize("shape", [0.5, 2.0])
def test_ground_truth_log_hr_without_covariate_effects_at_any_shape(shape, beta):
    # the hazards are proportional at any shape; at shape 2 both arms' S(u) underflow to 0
    # long before the horizon, where the score's integrand must read 0, not 0/0
    config = ScenarioConfig(n_patients=100, beta=beta, shape=shape)
    assert ground_truth(config).marginal_log_hr == pytest.approx(beta, abs=1e-10)


# a Weibull shape other than 1; three codes with equal effects, so strata merge
MC_CONFIGS = [
    ScenarioConfig(n_patients=100, beta=-0.3, eta=[0.8, -0.4, 0.5, 0.3], lambda0=5e-4,
                   shape=1.5, horizon_days=730),
    ScenarioConfig(n_patients=100, n_dense_features=1, n_code_features=3, code_prob=0.4,
                   beta=0.5, eta=[0.6, 0.4, 0.4, 0.4], lambda0=0.003),
]


@pytest.mark.parametrize("config", MC_CONFIGS)
def test_ground_truth_matches_monte_carlo(config):
    truth = ground_truth(config)
    mc = mc_marginal_truth(config, n=500_000, seed=11, tau=truth.tau)
    for (value, se), exact in ((mc["log_hr"], truth.marginal_log_hr),
                               (mc["event_frac"], RunSettings.tau_percentile),
                               (mc["rmst_diff"], truth.marginal_rmst_diff)):
        assert abs(value - exact) <= 4 * se, (value, se, exact)


NONCOLLAPSIBLE = ScenarioConfig(n_patients=100, n_dense_features=1, n_code_features=0,
                                beta=1.0, eta=[1.5], lambda0=0.002)


@pytest.mark.parametrize("config", [*MC_CONFIGS, NONCOLLAPSIBLE,
                                    ScenarioConfig(n_patients=100, beta=0.7, shape=0.5,
                                                   eta=[1.0, 0.5, 0.5, 0.5], lambda0=0.02),
                                    ScenarioConfig(n_patients=100, n_code_features=0,
                                                   beta=0.5, eta=[0.0, MAX_DENSE_EFFECT],
                                                   shape=2.0, lambda0=2e-6)])
def test_ground_truth_is_converged_in_the_nodes(config, monkeypatch):
    truth = dataclasses.astuple(ground_truth(config))
    monkeypatch.setattr(synth, "Z_NODES", 2 * synth.Z_NODES - 1)  # halves the spacing
    monkeypatch.setattr(synth, "LOG_NODES", 2 * synth.LOG_NODES)
    assert dataclasses.astuple(ground_truth(config)) == pytest.approx(truth, rel=1e-6)


@pytest.mark.parametrize("beta", [0.5, -0.5])
@pytest.mark.parametrize("shape", [0.5, 1.0, 2.0])
def test_ground_truth_is_exact_up_to_the_hazard_bound(shape, beta):
    # the faster arm's cumulative hazard at the horizon is just below e^MAX_LOG_HAZARD;
    # above it ScenarioConfig rejects the scenario (test_cli's too-fast cases)
    lambda0 = 0.9999 * math.exp(MAX_LOG_HAZARD - max(beta, 0.0)) / 1000.0 ** shape
    config = ScenarioConfig(n_patients=100, n_dense_features=0, n_code_features=0,
                            beta=beta, lambda0=lambda0, shape=shape)
    assert ground_truth(config).marginal_log_hr == pytest.approx(beta, abs=1e-10)


def test_marginal_hr_non_collapsibility():
    # with strong covariate effects the marginal log-HR is attenuated
    # relative to the conditional coefficient
    truth = ground_truth(NONCOLLAPSIBLE)
    assert 0.2 < truth.marginal_log_hr < 0.9
    assert truth.conditional_log_hr == 1.0


def test_code_features_are_bounded():
    ScenarioConfig(n_patients=10, n_code_features=MAX_CODE_FEATURES)
    for bad in (MAX_CODE_FEATURES + 1, -1):
        with pytest.raises(ValueError, match="n_code_features"):
            ScenarioConfig(n_patients=10, n_code_features=bad)
    for bad in (2.0, True):
        with pytest.raises(TypeError, match="n_code_features"):
            ScenarioConfig(n_patients=10, n_code_features=bad)


def test_dense_effect_is_bounded():
    ScenarioConfig(n_patients=10, n_code_features=0, eta=[0.0, MAX_DENSE_EFFECT])
    with pytest.raises(ValueError, match="dense eta"):
        ScenarioConfig(n_patients=10, n_code_features=0, eta=[0.1, MAX_DENSE_EFFECT])


@pytest.mark.parametrize("name", ["n_dense_features", "n_noise_codes"])
def test_feature_counts_are_non_negative_integers(name):
    ScenarioConfig(n_patients=10, n_code_features=0, **{name: 0}, eta=[], gamma=[])
    with pytest.raises(ValueError, match=name):
        ScenarioConfig(n_patients=10, **{name: -1})
    for bad in (2.5, True, "2", None):
        with pytest.raises(TypeError, match=name):
            ScenarioConfig(n_patients=10, **{name: bad})


def test_gen_claims_round_trips_through_cohort():
    config = ScenarioConfig(n_patients=800, gamma=[0.3, 0.3, 0.2, 0.2],
                            beta=0.4, eta=[0.3, 0.3, 0.2, 0.2],
                            lambda0=0.003, censoring_rate=0.001)
    patients, dense_rows, arrays = gen_claims(config, np.random.default_rng(3))
    assert len(patients) == len(dense_rows) == 800
    db = PatientDB.from_records(patients, vocabulary(config)).with_dense_features(dense_rows)
    cohort = build_cohort(db, config.drug_a, config.drug_b, [config.outcome_code], seed=0,
                          max_per_arm=RunSettings.max_per_arm,
                          min_per_arm=RunSettings.min_per_arm)
    assert len(cohort.treated) == 800
    # cohort reconstruction matches the generating arrays up to day rounding
    order = np.argsort([p["patient_id"] for p in patients])
    time, event = cohort.outcomes[0]
    assert np.array_equal(cohort.treated, arrays.treated[order])
    assert np.array_equal(event, arrays.event[order])
    expected_days = np.maximum(np.ceil(arrays.time[order]), 1)
    assert np.array_equal(time, expected_days)
    assert np.allclose(cohort.features, arrays.features[order])


def test_gen_trial_dump_split():
    planted = [PlantedComparison("A", "B", "E1", p_a=0.3, p_b=0.1,
                                 n_a=1000, n_b=999, n_trials=3)]
    lines = gen_trial_dump(planted, seed=0)
    parsed = parse_dump(lines)
    assert not parsed.diagnostics
    assert len(parsed.arms) == 6  # 3 trials x 2 arms
    sizes_a = [a.participant_count for a in parsed.arms if a.drug_text == "A"]
    sizes_b = [a.participant_count for a in parsed.arms if a.drug_text == "B"]
    assert (sizes_a, sizes_b) == ([334, 333, 333], [333, 333, 333])  # as even as possible
    events_a = sum(c for a in parsed.arms if a.drug_text == "A"
                   for c in a.outcome_events.values())
    # binomial draws per part: 300 expected, SD 14.5
    assert abs(events_a - 300) < 4 * math.sqrt(1000 * 0.3 * 0.7)


def test_gen_trial_dump_seeded():
    planted = [PlantedComparison("A", "B", "E1", 0.2, 0.2, 500, 500)]
    assert gen_trial_dump(planted, seed=4) == gen_trial_dump(planted, seed=4)
    assert gen_trial_dump(planted, seed=4) != gen_trial_dump(planted, seed=5)


def test_planted_comparison_validation():
    with pytest.raises(ValueError):
        PlantedComparison("A", "B", "E1", p_a=1.2, p_b=0.1, n_a=10, n_b=10)


def test_dictionary_row_helpers():
    drug_rows = make_drug_dictionary_rows(["B_DRUG", "A_DRUG", "A_DRUG"])
    d = DrugDictionary([tuple(r.split("\t")) for r in drug_rows[1:]])
    assert d.lookup("a_drug") == frozenset({"A_DRUG"})
    outcome_rows = make_outcome_dictionary_rows(["E2", "E1"])
    o = OutcomeDictionary([tuple(r.split("\t")) for r in outcome_rows[1:]])
    assert o.lookup("E1") == "E1"


def test_vocabulary_contents():
    config = ScenarioConfig(n_patients=10)
    vocab = vocabulary(config)
    assert vocab[:3] == ["DRUG_A", "DRUG_B", "OUTCOME"]
    assert "COV0" in vocab and "NOISE1" in vocab
