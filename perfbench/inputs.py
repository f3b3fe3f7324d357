"""Seeded input generators for the benchmark workloads.

Every input is derived from one workload seed, so the same seed gives
byte-identical files. Claims databases are assembled from public
``trialbench.synth.gen_claims`` sub-populations; trial dumps come from
``trialbench.synth.gen_trial_dump``. The program under test receives only
the files written here.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from trialbench import synth

# Covariate codes are shared by every sub-population, so the vocabulary
# stays narrow: drug and outcome codes of the study pairs, code covariates
# and noise codes.
GAMMA = [0.4, 0.3, -0.3, 0.2]   # treatment-assignment logit coefficients
ETA = [0.3, 0.2, 0.2, -0.2]     # covariate log-hazards
STRONG_LOG_HR = (0.5, 0.8)      # |beta| range of a planted strong effect
N_BACKGROUND_GROUPS = 5


@dataclass(frozen=True)
class ClaimsShape:
    n_patients: int
    n_pairs: int
    n_outcomes: int
    background_frac: float
    hazard_range: tuple[float, float] = (0.0006, 0.002)  # baseline hazard per outcome
    n_code_features: int = 4   # at most len(GAMMA)
    n_noise_codes: int = 2
    # None: the shared narrow vocabulary above. Otherwise a ScenarioConfig
    # dict for a single pair/outcome population (acceptance-suite shape).
    single_config: dict | None = None


@dataclass(frozen=True)
class TrialShape:
    n_comparisons: int
    n_drugs: int
    n_outcomes: int
    min_arm: int
    max_arm: int


def _dump_line(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _merge_outcomes(patients, index_days, outcome_arrays, outcome_codes):
    """Give each gen_claims patient one outcome stream per study outcome.

    All outcome arrays come from the same generator state, so patients
    share covariates, treatment and censoring time across outcomes; only
    the event times differ. Observation ends at the latest outcome time,
    which is the common censoring time whenever any outcome is censored.
    """
    code_set = set(outcome_codes)
    t_days = np.ceil(np.stack([a.time for a in outcome_arrays])).astype(int)
    events = np.stack([a.event for a in outcome_arrays])
    obs_end = index_days + np.maximum(t_days.max(axis=0), 1)
    for i, rec in enumerate(patients):
        evs = [ev for ev in rec["events"] if ev[2] not in code_set]
        for j, code in enumerate(outcome_codes):
            if events[j, i]:
                evs.append([int(index_days[i] + t_days[j, i]), "diagnosis", code])
        evs.sort(key=lambda ev: ev[0])
        rec["events"] = evs
        rec["observation_end"] = int(obs_end[i])


def _pair_population(base: synth.ScenarioConfig, betas, lambdas, outcome_codes, seed):
    """One drug pair's patients with every outcome of the pair planted."""
    configs = [replace(base, beta=float(b), lambda0=float(lam), outcome_code=code)
               for b, lam, code in zip(betas, lambdas, outcome_codes)]
    patients, _, first = synth.gen_claims(configs[0], np.random.default_rng(seed))
    arrays = [first] + [synth.gen_survival_arrays(c, np.random.default_rng(seed))
                        for c in configs[1:]]
    if any(not np.array_equal(a.treated, first.treated) for a in arrays):
        raise RuntimeError("outcome populations drifted apart")
    index_days = np.array([next(d for d, k, _ in p["events"] if k == "drug_claim")
                           for p in patients])
    _merge_outcomes(patients, index_days, arrays, outcome_codes)
    return patients


def write_claims(shape: ClaimsShape, seed: int, out_dir: Path) -> dict:
    """Claims DB, vocabulary and reference set for an evaluate workload.

    Returns a summary with the entry count and the DB size.
    """
    if shape.single_config is not None:
        return _write_single(shape, seed, out_dir)
    root = np.random.SeedSequence([seed, 1])
    plan_rng = np.random.default_rng(root.spawn(1)[0])

    n_study = round(shape.n_patients * (1.0 - shape.background_frac))
    per_pair = n_study // shape.n_pairs
    outcome_codes = [f"OUT{j}" for j in range(shape.n_outcomes)]
    pair_seeds = root.generate_state(shape.n_pairs + N_BACKGROUND_GROUPS)
    lambdas = plan_rng.uniform(*shape.hazard_range, size=shape.n_outcomes)
    records, entries = [], []
    for k in range(shape.n_pairs):
        strong = plan_rng.random(shape.n_outcomes) < 0.5
        sign = np.where(plan_rng.random(shape.n_outcomes) < 0.5, -1.0, 1.0)
        betas = np.where(strong, sign * plan_rng.uniform(*STRONG_LOG_HR, shape.n_outcomes), 0.0)
        base = synth.ScenarioConfig(
            n_patients=per_pair, n_dense_features=0, n_code_features=shape.n_code_features,
            n_noise_codes=shape.n_noise_codes, gamma=GAMMA[:shape.n_code_features],
            eta=ETA[:shape.n_code_features],
            censoring_rate=0.001, drug_a=f"DA{k}", drug_b=f"DB{k}")
        pats = _pair_population(base, betas, lambdas, outcome_codes, int(pair_seeds[k]))
        for rec in pats:
            rec["patient_id"] = f"K{k:02d}-{rec['patient_id']}"
        records += pats
        for j, code in enumerate(outcome_codes):
            label = "strong" if strong[j] else "weak"
            direction = "none" if not strong[j] else ("a_higher" if betas[j] > 0 else "b_higher")
            entries.append({"drug_a": base.drug_a, "drug_b": base.drug_b,
                            "outcome_code": code, "label": label, "direction": direction})

    n_background = shape.n_patients - len(records)
    for g in range(N_BACKGROUND_GROUPS):
        n = n_background // N_BACKGROUND_GROUPS + (g < n_background % N_BACKGROUND_GROUPS)
        if n == 0:
            continue
        config = synth.ScenarioConfig(
            n_patients=n, n_dense_features=0, n_code_features=shape.n_code_features,
            n_noise_codes=shape.n_noise_codes, gamma=GAMMA[:shape.n_code_features],
            eta=ETA[:shape.n_code_features],
            lambda0=float(lambdas[g % shape.n_outcomes]), censoring_rate=0.001,
            drug_a=f"BGA{g}", drug_b=f"BGB{g}", outcome_code=outcome_codes[g % shape.n_outcomes])
        pats, _, _ = synth.gen_claims(config, np.random.default_rng(int(pair_seeds[shape.n_pairs + g])))
        for rec in pats:
            rec["patient_id"] = f"BG{g}-{rec['patient_id']}"
        records += pats

    order = plan_rng.permutation(len(records))
    vocab = ([f"DA{k}" for k in range(shape.n_pairs)] + [f"DB{k}" for k in range(shape.n_pairs)]
             + outcome_codes + [f"COV{j}" for j in range(shape.n_code_features)]
             + [f"NOISE{j}" for j in range(shape.n_noise_codes)])
    _write_files(out_dir, [records[i] for i in order], vocab, entries)
    return {"entries": len(entries), "patients": len(records)}


def _write_single(shape: ClaimsShape, seed: int, out_dir: Path) -> dict:
    config = synth.ScenarioConfig.from_dict(dict(shape.single_config, n_patients=shape.n_patients))
    records, _, _ = synth.gen_claims(config, np.random.default_rng(seed))
    entries = [{"drug_a": config.drug_a, "drug_b": config.drug_b,
                "outcome_code": config.outcome_code, "label": "strong",
                "direction": "a_higher" if config.beta > 0 else "b_higher"}]
    _write_files(out_dir, records, synth.vocabulary(config), entries)
    return {"entries": 1, "patients": len(records)}


def _write_files(out_dir: Path, records, vocab, entries):
    with open(out_dir / "claims.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(_dump_line(rec) + "\n")
        fh.flush()
        os.fsync(fh.fileno())  # no write-back competes with the first timed repeat
    (out_dir / "vocab.txt").write_text("\n".join(vocab) + "\n", encoding="utf-8")
    header = {"kind": "reference_set", "provenance": {"source": "perfbench planted effects"}}
    with open(out_dir / "refset.jsonl", "w", encoding="utf-8") as fh:
        for obj in [header] + entries:
            fh.write(_dump_line(obj) + "\n")


def planted_comparisons(shape: TrialShape, seed: int) -> list[synth.PlantedComparison]:
    """Distinct (drug pair, outcome) comparisons with weak and strong odds ratios."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    drugs = [f"RX{i:03d}" for i in range(shape.n_drugs)]
    n_keys = shape.n_drugs * (shape.n_drugs - 1) // 2 * shape.n_outcomes
    picks = np.sort(rng.choice(n_keys, size=shape.n_comparisons, replace=False))
    pairs = [(a, b) for i, a in enumerate(drugs) for b in drugs[i + 1:]]
    out = []
    for key in picks:
        drug_a, drug_b = pairs[key // shape.n_outcomes]
        p_b = rng.uniform(0.02, 0.3)
        kind = rng.random()
        if kind < 0.4:       # inside (0.8, 1.25)
            odds_ratio = rng.uniform(0.9, 1.1)
        elif kind < 0.7:     # protective, outside
            odds_ratio = rng.uniform(0.4, 0.75)
        else:                # harmful, outside
            odds_ratio = rng.uniform(1.35, 2.5)
        odds_a = odds_ratio * p_b / (1.0 - p_b)
        out.append(synth.PlantedComparison(
            drug_a=drug_a, drug_b=drug_b, outcome=f"AE{key % shape.n_outcomes:02d}",
            p_a=float(odds_a / (1.0 + odds_a)), p_b=float(p_b),
            n_a=int(rng.integers(shape.min_arm, shape.max_arm + 1)),
            n_b=int(rng.integers(shape.min_arm, shape.max_arm + 1)),
            n_trials=int(rng.choice([1, 2, 3], p=[0.6, 0.3, 0.1]))))
    return out


def write_trials(shape: TrialShape, seed: int, out_dir: Path) -> dict:
    """Trial dump and dictionaries for a build-refset workload."""
    planted = planted_comparisons(shape, seed)
    lines = synth.gen_trial_dump(planted, seed=seed)
    (out_dir / "trial_dump.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    drugs = {c.drug_a for c in planted} | {c.drug_b for c in planted}
    outcomes = {c.outcome for c in planted}
    (out_dir / "drug_dict.tsv").write_text(
        "\n".join(synth.make_drug_dictionary_rows(drugs)) + "\n", encoding="utf-8")
    (out_dir / "outcome_dict.tsv").write_text(
        "\n".join(synth.make_outcome_dictionary_rows(outcomes)) + "\n", encoding="utf-8")
    return {"arms": len(lines), "expected_tables": expected_tables(lines)}


def expected_tables(dump_lines) -> dict:
    """Pooled (a, n1, b, n2) per (drug_a, drug_b, outcome), computed independently."""
    trials: dict[str, list[dict]] = {}
    for line in dump_lines:
        rec = json.loads(line)
        trials.setdefault(rec["trial_id"], []).append(rec)
    pooled: dict[tuple, list[int]] = {}
    for arms in trials.values():
        arm_a, arm_b = sorted(arms, key=lambda r: r["drug_text"])
        (ev_a,), (ev_b,) = arm_a["outcome_events"], arm_b["outcome_events"]
        key = (arm_a["drug_text"], arm_b["drug_text"], ev_a["term"])
        cell = pooled.setdefault(key, [0, 0, 0, 0])
        cell[0] += ev_a["count"]
        cell[1] += arm_a["participant_count"]
        cell[2] += ev_b["count"]
        cell[3] += arm_b["participant_count"]
    return pooled


def odds_ratio(a: int, n1: int, b: int, n2: int) -> float:
    num, den = a * (n2 - b), (n1 - a) * b
    if num == 0 and den == 0:
        return 1.0
    return math.inf if den == 0 else num / den
