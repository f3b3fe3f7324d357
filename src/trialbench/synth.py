"""Seeded synthetic-data generators and their Monte-Carlo ground truth.

Produces patient event-stream databases with a known confounding
structure (logistic treatment assignment, Weibull/exponential outcome
hazards) and synthetic trial dumps with planted odds ratios. The
marginal ground truth is always estimated from counterfactual
simulation, never assumed equal to the conditional parameters, because
the Cox hazard ratio is non-collapsible under covariate effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cohort import KIND_DIAGNOSIS, KIND_DRUG, KIND_PROCEDURE
from .estimators import RunSettings
from .estimators.survival import cox_fit, event_time_horizon
from .formats import dump_json_line


def _require_strings(config, *names):
    """Raise ValueError naming the first of the fields names that is not a str."""
    for name in names:
        if type(getattr(config, name)) is not str:
            raise ValueError(f"{name} must be a string, got {getattr(config, name)!r}")


@dataclass
class ScenarioConfig:
    n_patients: int
    n_dense_features: int = 2      # standard-normal covariates
    n_code_features: int = 2       # Bernoulli code-indicator covariates
    code_prob: float = 0.3
    gamma: list = field(default_factory=list)   # treatment logit coefficients
    beta: float = 0.0                           # treatment log-hazard
    eta: list = field(default_factory=list)     # covariate log-hazards
    lambda0: float = 0.002                      # baseline hazard scale
    shape: float = 1.0                          # Weibull shape (1 = exponential)
    censoring_rate: float = 0.0                 # exponential censoring hazard
    horizon_days: float = 1000.0                # administrative censoring
    drug_a: str = "DRUG_A"
    drug_b: str = "DRUG_B"
    outcome_code: str = "OUTCOME"
    n_noise_codes: int = 2

    def __post_init__(self):
        if type(self.n_patients) is not int or self.n_patients < 1:
            raise ValueError(f"n_patients must be a positive integer, got {self.n_patients!r}")
        _require_strings(self, "drug_a", "drug_b", "outcome_code")
        if not 0 <= self.code_prob <= 1:
            raise ValueError(f"code_prob must lie in [0, 1], got {self.code_prob!r}")
        for name in ("lambda0", "shape", "horizon_days"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not (math.isfinite(self.censoring_rate) and self.censoring_rate >= 0):
            raise ValueError(f"censoring_rate must be finite and non-negative, "
                             f"got {self.censoring_rate!r}")
        p = self.n_dense_features + self.n_code_features
        if not self.gamma:
            self.gamma = [0.0] * p
        if not self.eta:
            self.eta = [0.0] * p
        if len(self.gamma) != p or len(self.eta) != p:
            raise ValueError(f"gamma/eta must have length {p}")
        for name, values in (("beta", [self.beta]), ("gamma", self.gamma), ("eta", self.eta)):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        return cls(**d)


@dataclass
class GroundTruth:
    conditional_log_hr: float
    marginal_log_hr: float
    marginal_log_hr_se: float
    tau: float
    marginal_rmst_diff: float
    n_mc: int


def _draw_covariates(config: ScenarioConfig, n: int, rng: np.random.Generator):
    dense = rng.standard_normal((n, config.n_dense_features))
    codes = (rng.random((n, config.n_code_features)) < config.code_prob).astype(float)
    return np.column_stack([dense, codes]) if config.n_code_features else dense


def _event_times(config: ScenarioConfig, lin: np.ndarray, rng: np.random.Generator):
    # cumulative hazard lambda0 * t^shape * exp(lin)
    e = rng.exponential(size=len(lin))
    return (e / (config.lambda0 * np.exp(lin))) ** (1.0 / config.shape)


@dataclass
class SurvivalArrays:
    features: np.ndarray
    treated: np.ndarray
    time: np.ndarray
    event: np.ndarray
    latent_time: np.ndarray


def gen_survival_arrays(config: ScenarioConfig, rng: np.random.Generator) -> SurvivalArrays:
    """Observational sample as plain arrays (no event-stream plumbing)."""
    x = _draw_covariates(config, config.n_patients, rng)
    logit = x @ np.asarray(config.gamma)
    treated = rng.random(config.n_patients) < 1.0 / (1.0 + np.exp(-logit))
    if treated.all() or not treated.any():
        raise ValueError("degenerate scenario: single-arm assignment")
    lin = config.beta * treated + x @ np.asarray(config.eta)
    t_event = _event_times(config, lin, rng)
    if config.censoring_rate > 0:
        t_cens = np.minimum(rng.exponential(1.0 / config.censoring_rate,
                                            size=config.n_patients),
                            config.horizon_days)
    else:
        t_cens = np.full(config.n_patients, config.horizon_days)
    time = np.minimum(t_event, t_cens)
    event = t_event <= t_cens
    return SurvivalArrays(features=x, treated=treated, time=time, event=event,
                          latent_time=t_event)


def ground_truth(config: ScenarioConfig, rng: np.random.Generator, n_mc: int) -> GroundTruth:
    """Counterfactual Monte-Carlo estimate of the marginal estimands.

    Simulates both arms for n_mc fresh patients under administrative
    censoring at the configured horizon, then reads the marginal log-HR
    off an unadjusted Cox fit to the pooled counterfactual arms. The RMST
    difference is read at tau, the pooled event-time horizon under evaluate's
    default tau_percentile.
    """
    x = _draw_covariates(config, n_mc, rng)
    xeta = x @ np.asarray(config.eta)
    t0 = _event_times(config, xeta, rng)
    t1 = _event_times(config, config.beta + xeta, rng)
    horizon = config.horizon_days
    times = np.concatenate([np.minimum(t0, horizon), np.minimum(t1, horizon)])
    events = np.concatenate([t0 <= horizon, t1 <= horizon])
    arms = np.concatenate([np.zeros(n_mc), np.ones(n_mc)])
    res = cox_fit(times, events, arms)
    tau = (event_time_horizon(times, events, RunSettings.tau_percentile) if events.any()
           else horizon)
    rmst_diff = float(np.mean(np.minimum(t1, tau)) - np.mean(np.minimum(t0, tau)))
    return GroundTruth(
        conditional_log_hr=config.beta,
        marginal_log_hr=res.beta,
        marginal_log_hr_se=res.se,
        tau=tau,
        marginal_rmst_diff=rmst_diff,
        n_mc=n_mc,
    )


def vocabulary(config: ScenarioConfig) -> list[str]:
    return (
        [config.drug_a, config.drug_b, config.outcome_code]
        + [f"COV{j}" for j in range(config.n_code_features)]
        + [f"NOISE{j}" for j in range(config.n_noise_codes)]
    )


def gen_claims(config: ScenarioConfig, rng: np.random.Generator):
    """Patient event streams plus dense feature rows for one scenario.

    Returns (patient_records, dense_feature_records, arrays). Streams
    carry the Bernoulli code covariates as pre-index diagnosis events so
    count featurization is informative; the dense rows carry the full
    covariate vector (surrogate for a learned representation).
    """
    arrays = gen_survival_arrays(config, rng)
    n = config.n_patients
    index_days = rng.integers(30, 91, size=n)
    noise = rng.random((n, config.n_noise_codes)) < 0.4
    patients = []
    dense_rows = []
    codes_start = config.n_dense_features
    for i in range(n):
        pid = f"P{i:07d}"
        index_day = int(index_days[i])
        events = []
        for j in range(config.n_code_features):
            if arrays.features[i, codes_start + j] > 0:
                events.append((5 + j, KIND_DIAGNOSIS, f"COV{j}"))
        for j in range(config.n_noise_codes):
            if noise[i, j]:
                events.append((15 + j, KIND_PROCEDURE, f"NOISE{j}"))
        drug = config.drug_a if arrays.treated[i] else config.drug_b
        events.append((index_day, KIND_DRUG, drug))
        t_days = int(math.ceil(arrays.time[i]))
        obs_end = index_day + max(t_days, 1)
        if arrays.event[i]:
            events.append((index_day + t_days, KIND_DIAGNOSIS, config.outcome_code))
        events.sort(key=lambda ev: ev[0])
        patients.append({
            "patient_id": pid,
            "observation_start": 0,
            "observation_end": obs_end,
            "events": [list(ev) for ev in events],
        })
        dense_rows.append({"patient_id": pid,
                           "features": [float(v) for v in arrays.features[i]]})
    return patients, dense_rows, arrays


@dataclass(frozen=True)
class PlantedComparison:
    drug_a: str
    drug_b: str
    outcome: str
    p_a: float
    p_b: float
    n_a: int
    n_b: int
    n_trials: int = 1

    def __post_init__(self):
        _require_strings(self, "drug_a", "drug_b", "outcome")
        # a JSON true is not a probability
        if not all(type(p) is not bool and 0 <= p <= 1 for p in (self.p_a, self.p_b)):
            raise ValueError("event probabilities must lie in [0, 1]")
        if not all(type(n) is int and n >= 0 for n in (self.n_a, self.n_b)):
            raise ValueError(f"arm sizes must be non-negative integers, got {self.n_a!r}, "
                             f"{self.n_b!r}")
        if type(self.n_trials) is not int or self.n_trials < 1:
            raise ValueError(f"n_trials must be a positive integer, got {self.n_trials!r}")


def gen_trial_dump(planted, seed: int) -> list[str]:
    """Trial-dump lines with binomially sampled event counts.

    A comparison may be split across several trial records to exercise
    aggregation; arm sizes are divided as evenly as possible.
    """
    rng = np.random.default_rng(seed)
    lines = []
    trial_counter = 0
    for comp in planted:
        for part in range(comp.n_trials):
            trial_id = f"T{trial_counter:05d}"
            trial_counter += 1
            for side, drug, prob, total in (
                ("a", comp.drug_a, comp.p_a, comp.n_a),
                ("b", comp.drug_b, comp.p_b, comp.n_b),
            ):
                size = total // comp.n_trials + (1 if part < total % comp.n_trials else 0)
                if size == 0:
                    continue
                count = int(rng.binomial(size, prob))
                lines.append(dump_json_line({
                    "trial_id": trial_id,
                    "arm_id": f"{trial_id}-{side}",
                    "arm_name": f"{drug} arm",
                    "drug_text": drug,
                    "participant_count": size,
                    "outcome_events": [{"term": comp.outcome, "count": count}],
                }))
    return lines


def make_drug_dictionary_rows(drugs) -> list[str]:
    rows = ["text_pattern\tingredient_id\tmatch_score"]
    rows += [f"{d}\t{d}\t100" for d in sorted(set(drugs))]
    return rows


def make_outcome_dictionary_rows(outcomes) -> list[str]:
    rows = ["source_term_code\ttarget_outcome_code"]
    rows += [f"{o}\t{o}" for o in sorted(set(outcomes))]
    return rows
