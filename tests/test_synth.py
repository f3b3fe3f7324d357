import math

import numpy as np
import pytest

from trialbench.cohort import PatientDB, PatientStream, build_cohort
from trialbench.ingest import DrugDictionary, OutcomeDictionary, parse_dump
from trialbench.refset import DIRECTION_A, LABEL_STRONG, ReferenceEntry
from trialbench.synth import (
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
    config = ScenarioConfig(n_patients=100, n_dense_features=1, n_code_features=0,
                            beta=0.0, eta=[0.8], lambda0=0.002)
    truth = ground_truth(config, np.random.default_rng(0), n_mc=60_000)
    assert truth.marginal_log_hr == pytest.approx(0.0, abs=4 * truth.marginal_log_hr_se)
    assert truth.marginal_rmst_diff == pytest.approx(0.0, abs=5.0)
    assert truth.tau > 0


def test_ground_truth_tau_falls_back_to_horizon():
    # no event before the horizon, so there is no event-time percentile
    silent = ScenarioConfig(n_patients=100, lambda0=1e-12, horizon_days=100.0)
    assert ground_truth(silent, np.random.default_rng(0), n_mc=1_000).tau == 100.0


def test_marginal_hr_non_collapsibility():
    # with strong covariate effects the marginal log-HR is attenuated
    # relative to the conditional coefficient
    config = ScenarioConfig(n_patients=100, n_dense_features=1, n_code_features=0,
                            beta=1.0, eta=[1.5], lambda0=0.002)
    truth = ground_truth(config, np.random.default_rng(1), n_mc=60_000)
    assert 0.2 < truth.marginal_log_hr < 1.0 - 4 * truth.marginal_log_hr_se
    assert truth.conditional_log_hr == 1.0


def test_gen_claims_round_trips_through_cohort():
    config = ScenarioConfig(n_patients=800, gamma=[0.3, 0.3, 0.2, 0.2],
                            beta=0.4, eta=[0.3, 0.3, 0.2, 0.2],
                            lambda0=0.003, censoring_rate=0.001, seed=None)
    patients, dense_rows, arrays = gen_claims(config, np.random.default_rng(3))
    assert len(patients) == len(dense_rows) == 800
    streams = [PatientStream(p["patient_id"], p["observation_start"],
                             p["observation_end"],
                             tuple(tuple(e) for e in p["events"]))
               for p in patients]
    dense = {r["patient_id"]: np.asarray(r["features"]) for r in dense_rows}
    db = PatientDB(streams, vocabulary(config), dense_features=dense)
    entry = ReferenceEntry(config.drug_a, config.drug_b, config.outcome_code,
                           LABEL_STRONG, DIRECTION_A, 2.0, 0.01, 0.02)
    cohort = build_cohort(db, entry, seed=0)
    assert len(cohort.treated) == 800
    # cohort reconstruction matches the generating arrays up to day rounding
    order = np.argsort([p["patient_id"] for p in patients])
    assert np.array_equal(cohort.treated, arrays.treated[order])
    assert np.array_equal(cohort.event, arrays.event[order])
    expected_days = np.maximum(np.ceil(arrays.time[order]), 1)
    assert np.array_equal(cohort.time, expected_days)
    assert np.allclose(cohort.features, arrays.features[order])


def test_gen_trial_dump_fixed_counts_and_split():
    planted = [PlantedComparison("A", "B", "E1", p_a=0.3, p_b=0.1,
                                 n_a=1000, n_b=999, n_trials=3)]
    lines = gen_trial_dump(planted, seed=0, fixed_counts=True)
    parsed = parse_dump(lines)
    assert not parsed.diagnostics
    assert len(parsed.arms) == 6  # 3 trials x 2 arms
    n_a = sum(a.participant_count for a in parsed.arms if a.drug_text == "A")
    n_b = sum(a.participant_count for a in parsed.arms if a.drug_text == "B")
    assert (n_a, n_b) == (1000, 999)
    events_a = sum(c for a in parsed.arms if a.drug_text == "A"
                   for _, c in a.outcome_events)
    assert events_a == pytest.approx(300, abs=2)  # rounding per part


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
