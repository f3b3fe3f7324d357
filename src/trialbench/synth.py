"""Seeded synthetic-data generators and their exact ground truth.

Produces patient event-stream databases with a known confounding
structure (logistic treatment assignment, Weibull/exponential outcome
hazards) and synthetic trial dumps with planted odds ratios. The
marginal ground truth is computed by quadrature over the covariate
distribution, never assumed equal to the conditional parameters, because
the Cox hazard ratio is non-collapsible under covariate effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cohort import KIND_DIAGNOSIS, KIND_DRUG, KIND_PROCEDURE
from .estimators import RunSettings
from .formats import dump_json_line, json_int, json_list, json_number, json_str
from .ingest import MAX_POOLED_ARM

MAX_CODE_FEATURES = 6  # ground_truth's time and memory double with each distinct code effect
MAX_PATIENTS = 1_000_000  # simulate holds about 1.3 KB per patient
MAX_DENSE_EFFECT = 4.0  # the largest sigma = |eta_dense| at which Z_NODES keeps the truth exact
# the largest log of the fastest code stratum's mean cumulative hazard at the horizon: at
# most e^(MAX_LOG_HAZARD - 40) of its events precede ground_truth's window [e^-40, 1] * H^shape
MAX_LOG_HAZARD = 20
Z_NODES = 145          # trapezoid nodes on [-9, 9] over the standardised dense effect
LOG_NODES = 200        # Gauss-Legendre nodes in log time


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
        fields = vars(self)  # the scenario's JSON values by key; numbers become floats
        for name in ("drug_a", "drug_b", "outcome_code"):
            json_str(fields, name)
        for name in ("n_patients", "n_dense_features", "n_code_features", "n_noise_codes"):
            json_int(fields, name)
        for name in ("code_prob", "beta", "lambda0", "shape", "censoring_rate", "horizon_days"):
            fields[name] = json_number(fields, name)
        p = self.n_dense_features + self.n_code_features
        for name in ("gamma", "eta"):  # [] is p zeros
            values = json_list(fields, name)
            fields[name] = [json_number({name: v}, name) for v in values] or [0.0] * p
        for names, rule, in_range in [
                (("n_patients",), f"in [1, {MAX_PATIENTS}]", lambda v: 0 < v <= MAX_PATIENTS),
                (("lambda0", "shape", "horizon_days"), "finite and positive",
                 lambda v: 0 < v < math.inf),
                (("n_dense_features", "n_noise_codes", "censoring_rate"),
                 "finite and non-negative", lambda v: 0 <= v < math.inf),
                (("n_code_features",), f"in [0, {MAX_CODE_FEATURES}]",
                 lambda v: 0 <= v <= MAX_CODE_FEATURES),
                (("code_prob",), "in [0, 1]", lambda v: 0 <= v <= 1),
                (("beta",), "finite", math.isfinite),
                (("gamma", "eta"), f"finite, of length {p}",
                 lambda v: len(v) == p and all(map(math.isfinite, v)))]:
            for name in names:
                if not in_range(fields[name]):
                    raise ValueError(f"{name} must be {rule}, got {fields[name]!r}")
        sigma = math.hypot(*self.eta[:self.n_dense_features])
        if sigma > MAX_DENSE_EFFECT:
            raise ValueError(f"the dense eta's norm exceeds {MAX_DENSE_EFFECT}: {self.eta!r}")
        # the dense factor of the hazard is lognormal, of mean e^(sigma^2 / 2)
        log_hazard = (math.log(self.lambda0) + self.shape * math.log(self.horizon_days)
                      + max(self.beta, 0.0) + sigma * sigma / 2
                      + sum(max(e, 0.0) for e in self.eta[self.n_dense_features:]))
        if log_hazard > MAX_LOG_HAZARD:
            raise ValueError(f"lambda0 * horizon_days^shape * e^(beta + eta) of the fastest "
                             f"stratum is e^{log_hazard:.4g} > e^{MAX_LOG_HAZARD}")

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        return cls(**d)


@dataclass
class GroundTruth:
    conditional_log_hr: float
    marginal_log_hr: float
    tau: float
    marginal_rmst_diff: float


@dataclass
class SurvivalArrays:
    features: np.ndarray
    treated: np.ndarray
    time: np.ndarray
    event: np.ndarray
    latent_time: np.ndarray


def gen_survival_arrays(config: ScenarioConfig, rng: np.random.Generator) -> SurvivalArrays:
    """Observational sample as plain arrays (no event-stream plumbing)."""
    n = config.n_patients
    x = np.column_stack([rng.standard_normal((n, config.n_dense_features)),
                         rng.random((n, config.n_code_features)) < config.code_prob])
    logit = x @ np.asarray(config.gamma)
    with np.errstate(over="ignore"):  # exp(-logit) = inf gives the exact limit 0
        treated = rng.random(n) < 1.0 / (1.0 + np.exp(-logit))
    if treated.all() or not treated.any():
        raise ValueError("degenerate scenario: single-arm assignment")
    lin = config.beta * treated + x @ np.asarray(config.eta)
    # cumulative hazard lambda0 * t^shape * exp(lin)
    t_event = (rng.exponential(size=n) / (config.lambda0 * np.exp(lin))) ** (1.0 / config.shape)
    if config.censoring_rate > 0:
        t_cens = np.minimum(rng.exponential(1.0 / config.censoring_rate, size=n),
                            config.horizon_days)
    else:
        t_cens = np.full(n, config.horizon_days)
    time = np.minimum(t_event, t_cens)
    event = t_event <= t_cens
    return SurvivalArrays(features=x, treated=treated, time=time, event=event,
                          latent_time=t_event)


def _root(fn, lo: float, hi: float) -> float:
    """The root of the increasing function fn between lo and hi, by 100 bisections."""
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if fn(mid) < 0 else (lo, mid)
    return hi


def ground_truth(config: ScenarioConfig) -> GroundTruth:
    """The population's marginal estimands, both arms censored at the horizon, by
    quadrature: each arm's S(u), u = t^shape, mixes exponentials over the code offsets and
    Z_NODES trapezoid nodes of the dense effect; integrals take LOG_NODES nodes in log time.
    The log-HR is the root of the limiting score of an unadjusted Cox fit to equal
    counterfactual arms, and tau the limit of event_time_horizon on them."""
    strata = {0.0: 1.0}  # code offset -> probability, equal offsets merged
    for eta in config.eta[config.n_dense_features:]:
        merged = {}
        for offset, p in strata.items():
            merged[offset] = merged.get(offset, 0.0) + p * (1 - config.code_prob)
            merged[offset + eta] = merged.get(offset + eta, 0.0) + p * config.code_prob
        strata = merged
    z = np.linspace(-9.0, 9.0, Z_NODES)  # the trapezoid rule converges geometrically here
    wz = np.exp(-z * z / 2)
    lin = np.add.outer(list(strata), math.hypot(*config.eta[:config.n_dense_features]) * z)
    weight = np.outer(list(strata.values()), wz / wz.sum()).ravel()
    rates = config.lambda0 * np.exp(np.add.outer([0.0, config.beta], lin.ravel()))  # (arm, mix)
    y, wy = np.polynomial.legendre.leggauss(LOG_NODES)
    grid, dlog = np.exp(-20.0 * (y + 1)), 20.0 * wy  # x = e^-y' and dy' for y' in [0, 40]

    def curves(u):  # each arm's S(u) and u f(u) at each u
        e = np.exp(np.multiply.outer(-rates, u))
        return np.einsum("m,amn->an", weight, e), np.einsum("am,amn->an", weight * rates, e) * u

    def events(u):  # F_0(u) + F_1(u)
        return -weight @ np.expm1(-rates * u).sum(0)

    horizon = config.horizon_days ** config.shape
    s, uf = curves(horizon * grid)
    bound = abs(config.beta) + float(np.ptp(lin))  # the log-HR at any time is within it
    log_hr = _root(lambda b: dlog @ ((math.exp(b) * uf[0] * s[1] - uf[1] * s[0])
                                     / np.maximum(s[0] + math.exp(b) * s[1], 1e-300)),
                   -bound, bound)  # 0, not 0/0, where both arms' S(u) underflow
    target = RunSettings.tau_percentile * events(horizon)
    tau = _root(lambda u: events(u) - target, 0.0, horizon) ** (1 / config.shape)
    s, _ = curves((tau * grid) ** config.shape)
    return GroundTruth(conditional_log_hr=config.beta, marginal_log_hr=log_hr, tau=tau,
                       marginal_rmst_diff=float((tau * grid * dlog) @ (s[1] - s[0])))


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
        fields = vars(self)
        for name in ("drug_a", "drug_b", "outcome"):
            json_str(fields, name)
        for name in ("p_a", "p_b"):
            if not 0 <= json_number(fields, name) <= 1:
                raise ValueError(f"{name} must lie in [0, 1], got {fields[name]!r}")
        for name, low, high in (("n_a", 0, MAX_POOLED_ARM), ("n_b", 0, MAX_POOLED_ARM)):
            if not low <= json_int(fields, name) <= high:
                raise ValueError(f"{name} must lie in [{low}, {high}], got {fields[name]!r}")
        # a part past the larger arm would hold no participant in either arm
        high = max(1, self.n_a, self.n_b)
        if not 1 <= json_int(fields, "n_trials") <= high:
            raise ValueError(f"n_trials must lie in [1, {high}], got {self.n_trials!r}")


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
