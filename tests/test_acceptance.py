"""Acceptance suite: one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete. Each criterion is a separate test so a single failure never
hides the others.
"""

import functools
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from oracles import (breslow_loglik, golden_section_max, lgamma_family_p_all, naive_bh,
                     nchg_weights)
from trialbench import exact, synth
from trialbench.cli import main as cli_main
from trialbench.cohort import Cohort
from trialbench.estimators.methods import RunSettings, rmst_aipw, run_all_methods
from trialbench.estimators.propensity import compute_weights, fit_logistic
from trialbench.estimators.survival import SurvivalCurve, aft_fit, cox_fit, km_curve, rmst
from trialbench.exact import (
    _live_log_pmf,
    _log_binomials,
    _tail,
    bh_reject,
    support,
)
from trialbench.ingest import (
    ContingencyTable,
    DrugDictionary,
    OutcomeDictionary,
    aggregate,
    filter_arms,
    map_outcomes,
    parse_dump,
)
from trialbench.metrics import ScoredEffect, score
from trialbench.refset import (
    DEFAULT_ALPHA,
    DIRECTION_A,
    DIRECTION_B,
    DIRECTION_NONE,
    LABEL_STRONG,
    LABEL_WEAK,
    ReferenceEntry,
    ReferenceSet,
    bucket,
    build_from_tables,
    prefilter,
)
from trialbench.synth import PlantedComparison, ScenarioConfig, gen_survival_arrays


def _verdict(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# 1 ------------------------------------------------------------------

PSI_RATIONALS = {0.8: (4, 5), 1.0: (1, 1), 1.25: (5, 4)}


def test_criterion_01_exact_test_oracle():
    worst = 0.0
    for n1 in range(1, 21):
        for n2 in range(1, 21):
            for m in range(0, n1 + n2 + 1):
                lo, hi = support(n1, n2, m)
                k, base = _log_binomials(n1, n2, m)
                assert k.tolist() == list(range(lo, hi + 1)), (n1, n2, m)
                for psi, (num, den) in PSI_RATIONALS.items():
                    _, weights = nchg_weights(n1, n2, m, num, den)
                    total = sum(weights)
                    lower = _tail(k, base, psi, "lower")
                    upper = _tail(k, base, psi, "upper")
                    prefix = 0
                    for i in range(len(weights)):
                        prefix += weights[i]
                        worst = max(
                            worst,
                            abs(lower[i] - float(Fraction(prefix, total))),
                            abs(upper[i] - float(Fraction(total - prefix + weights[i], total))),
                        )
    norm_worst = 0.0
    for n1 in range(1, 51):
        for n2 in range(1, 51):
            for m in range(0, n1 + n2 + 1, 3):  # stride keeps this under a minute
                k, base = _log_binomials(n1, n2, m)
                for psi in PSI_RATIONALS:
                    total = float(np.exp(_live_log_pmf(k, base, psi, 1)[1]).sum())
                    norm_worst = max(norm_worst, abs(total - 1.0))
    ok = worst < 1e-12 and norm_worst < 1e-12
    _verdict(1, "exact one-sided tests match rational enumeration", ok,
             f"max tail err {worst:.2e}, max normalization err {norm_worst:.2e}")


# 2 ------------------------------------------------------------------

def test_criterion_02_prefilter_soundness(monkeypatch):
    """The prefilter keeps a table exactly when the oracle's minimum p over its margins'
    cells is below alpha, and reads the kept table's p off the oracle's vector: at
    alpha 0.05 and 0.001, and at each table's minimum itself, where it must drop it."""
    # the library's vector of one margins is computed once and read at every alpha
    monkeypatch.setattr(exact, "_family_p_all", functools.lru_cache(maxsize=128)(
        exact._family_p_all))
    violations = tables = kept = 0
    for n1 in range(1, 31):
        for n2 in range(1, 31):
            cells = {"weak": [], "strong": []}  # (table, its p, the minimum p) per m
            for m in range(0, n1 + n2 + 1):
                lo, hi = support(n1, n2, m)
                k = lo + (n1 + 2 * n2 + 3 * m) % (hi - lo + 1)  # spread over the supports
                table = ContingencyTable("DRUG_A", "DRUG_B", "OUTCOME", k, n1, m - k, n2)
                for family, cell in cells.items():
                    oracle = lgamma_family_p_all(n1, n2, m, family)
                    cell.append((table, float(oracle[k - lo]), oracle.min()))
            tables += n1 + n2 + 1
            for family, cell in cells.items():
                for alpha in (0.05, 0.001):
                    expected = [(t, p) for t, p, floor in cell if floor < alpha]
                    violations += prefilter([t for t, _, _ in cell], family, alpha,
                                            Counter()) != expected
                    kept += len(expected)
                for t, _, floor in cell:  # a minimum is not below itself
                    violations += prefilter([t], family, floor, Counter()) != []
    _verdict(2, "prefilter keeps exactly the tables whose min achievable p is below alpha",
             violations == 0, f"{violations} wrong decisions over {tables} margins "
                              f"x 2 families x 3 alphas, {kept} kept")


# 3 ------------------------------------------------------------------

def test_criterion_03_bh_oracle_equivalence():
    rng = np.random.default_rng(42)
    mismatches = 0
    for _ in range(1000):
        m = int(rng.integers(1, 201))
        p = rng.random(m) ** float(rng.uniform(0.3, 3.0))
        if rng.random() < 0.3:
            p = np.round(p, 2)  # force ties
        alpha = float(rng.uniform(0.01, 0.25))
        if bh_reject(p, alpha) != naive_bh(p.tolist(), alpha):
            mismatches += 1
    _verdict(3, "BH matches the naive quadratic step-up on 1,000 vectors",
             mismatches == 0, f"{mismatches} mismatching rejection sets")


# 4 ------------------------------------------------------------------

def _refset_from_dump(lines, drug_dict, outcome_dict):
    parsed = parse_dump(lines)
    arms = filter_arms([(a, drug_dict.lookup(a.drug_text)) for a in parsed.arms], Counter())
    return aggregate([(ing, map_outcomes(a, outcome_dict)) for ing, a in arms])


def test_criterion_04_refset_fdr_and_recovery():
    nulls = [PlantedComparison(f"DA{i:02d}", f"DB{i:02d}", "E1", 0.1, 0.1, 2000, 2000)
             for i in range(30)]
    drugs = [c.drug_a for c in nulls] + [c.drug_b for c in nulls] + ["DRUGX", "DRUGY"]
    drug_dict = DrugDictionary([(d, d, 100) for d in drugs])
    outcome_dict = OutcomeDictionary([("E1", "E1")])
    fractions = []
    for seed in range(200):
        tables = _refset_from_dump(synth.gen_trial_dump(nulls, seed=seed),
                                   drug_dict, outcome_dict)
        strong_cand, _ = bucket(tables)
        if not strong_cand:
            continue
        refset = build_from_tables(tables, DEFAULT_ALPHA, {}, Counter())
        calls = sum(1 for e in refset.entries if e.label == LABEL_STRONG)
        fractions.append(calls / len(strong_cand))
    mean_fraction = float(np.mean(fractions))

    planted = [PlantedComparison("DRUGX", "DRUGY", "E1", 0.4, 0.1, 1000, 1000)]
    recovered = 0
    for seed in range(200):
        tables = _refset_from_dump(synth.gen_trial_dump(planted, seed=10_000 + seed),
                                   drug_dict, outcome_dict)
        refset = build_from_tables(tables, DEFAULT_ALPHA, {}, Counter())
        recovered += any(e.label == LABEL_STRONG and e.direction == DIRECTION_A
                         for e in refset.entries)
    ok = mean_fraction <= 0.075 and recovered >= 0.95 * 200
    _verdict(4, "null strong-call rate bounded; planted OR=6 recovered", ok,
             f"null fraction {mean_fraction:.3f} (<=0.075), "
             f"recovery {recovered}/200 (>=190)")


# 5 ------------------------------------------------------------------

def test_criterion_05_cox_recovery():
    lam, n = 0.01, 20_000
    hits, cens_rates = 0, []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        treated = np.concatenate([np.ones(n), np.zeros(n)])
        rates = np.where(treated > 0, 2 * lam, lam)
        t_event = rng.exponential(1.0 / rates)
        t_cens = rng.exponential(1.0 / (0.35 * lam), size=2 * n)
        times = np.minimum(t_event, t_cens)
        events = t_event <= t_cens
        cens_rates.append(1.0 - events.mean())
        res = cox_fit(times, events, treated, None)
        hits += res.converged and abs(res.beta - math.log(2)) <= 0.05
    big_ok = hits >= 45 and 0.1 < float(np.mean(cens_rates)) < 0.3

    rng = np.random.default_rng(123)
    checked, worst, unconverged = 0, 0.0, 0
    while checked < 40:
        n_tiny = int(rng.integers(4, 9))
        times = rng.integers(1, 6, size=n_tiny).astype(float)
        events = rng.random(n_tiny) < 0.7
        x = (rng.random(n_tiny) < 0.5).astype(float)
        if not ((events & (x > 0)).any() and (events & (x == 0)).any()):
            continue
        best = golden_section_max(lambda b: breslow_loglik(b, times, events, x), -8, 8)
        if abs(best) > 6:
            continue
        res = cox_fit(times, events, x, None)
        worst = max(worst, abs(res.beta - best))
        unconverged += not res.converged
        checked += 1
    tiny_ok = worst < 1e-6 and unconverged == 0
    _verdict(5, "Cox recovers HR=2 at scale and matches brute force on tiny data",
             big_ok and tiny_ok,
             f"{hits}/50 seeds within 0.05 of ln 2, "
             f"mean censoring {np.mean(cens_rates):.2f}, "
             f"tiny max dev {worst:.1e} over {checked} cases, {unconverged} not converged")


# 6 / 7 --------------------------------------------------------------

CONFOUNDED = ScenarioConfig(n_patients=4000, n_dense_features=2, n_code_features=0,
                            gamma=[1.0, 1.0], beta=0.0, eta=[0.8, 0.8],
                            lambda0=0.002, censoring_rate=0.001)


def test_criterion_06_confounding_correction():
    truth = synth.ground_truth(CONFOUNDED).marginal_log_hr
    unadjusted, overlap, standard = [], [], []
    for seed in range(50):
        arrays = gen_survival_arrays(CONFOUNDED, np.random.default_rng(seed))
        settings = RunSettings(seed=seed, methods=("cox_unadjusted",
                                                   "cox_ipw_overlap",
                                                   "cox_ipw_standard"))
        pair = Cohort([], arrays.treated, arrays.features, [], [(arrays.time, arrays.event)])
        ests = {e.method_id: e for e in run_all_methods(pair, settings)[0]}
        unadjusted.append(ests["cox_unadjusted"].point)
        overlap.append(ests["cox_ipw_overlap"].point)
        standard.append(ests["cox_ipw_standard"].point)
    unadjusted, overlap, standard = map(np.asarray, (unadjusted, overlap, standard))
    bias = float(np.mean(np.abs(unadjusted - truth)))
    overlap_hits = float(np.mean(np.abs(overlap - truth) <= 0.10))
    unadjusted_misses = float(np.mean(np.abs(unadjusted - truth) > 0.10))
    var_ok = overlap.var() <= standard.var()
    ok = bias >= 0.26 and overlap_hits >= 0.90 and unadjusted_misses >= 0.90 and var_ok
    _verdict(6, "overlap weighting removes confounding the raw Cox cannot", ok,
             f"unadjusted bias {bias:.2f} (>=0.26), overlap within 0.10 in "
             f"{overlap_hits:.0%}, unadjusted outside in {unadjusted_misses:.0%}, "
             f"var overlap {overlap.var():.4f} <= standard {standard.var():.4f}"
             f" (ablation arm)")


def test_criterion_07_overlap_exact_balance():
    configs = [
        CONFOUNDED,
        ScenarioConfig(n_patients=1500, gamma=[0.7, -0.4, 0.5, 0.2],
                       beta=0.3, eta=[0.2, 0.2, 0.2, 0.2], lambda0=0.003),
        ScenarioConfig(n_patients=800, n_dense_features=1, n_code_features=1,
                       gamma=[1.2, -0.8], beta=-0.4, eta=[0.5, 0.5],
                       lambda0=0.002, censoring_rate=0.001),
    ]
    worst = 0.0
    checked = 0
    for ci, config in enumerate(configs):
        for seed in range(10):
            arrays = gen_survival_arrays(config, np.random.default_rng(1000 * ci + seed))
            fit = fit_logistic(arrays.features, arrays.treated, RunSettings.ridge)
            if not fit.converged:
                continue
            w = compute_weights(fit.scores, arrays.treated, "overlap")
            trt = arrays.treated
            mean_t = (w[trt, None] * arrays.features[trt]).sum(0) / w[trt].sum()
            mean_c = (w[~trt, None] * arrays.features[~trt]).sum(0) / w[~trt].sum()
            worst = max(worst, float(np.max(np.abs(mean_t - mean_c))))
            checked += 1
    _verdict(7, "overlap weights balance covariate means exactly",
             checked >= 25 and worst <= 1e-6,
             f"max imbalance {worst:.1e} over {checked} converged fits")


# 8 ------------------------------------------------------------------

def test_criterion_08_rmst():
    rng = np.random.default_rng(0)
    times = rng.exponential(10.0, size=50_000)
    value = rmst(km_curve(times, np.ones(50_000, dtype=bool)), 10.0)
    target = (1 - math.exp(-1)) / 0.1
    large_ok = abs(value - target) / target <= 0.01

    fixture = SurvivalCurve(times=np.array([1.0, 2.0, 3.0, 4.0]),
                            survival=np.array([0.75, 0.5, 0.25, 0.0]))
    fixture_ok = rmst(fixture, 4.0) == pytest.approx(2.5, abs=1e-12)
    _verdict(8, "KM RMST accurate at scale and exact on the step fixture",
             large_ok and fixture_ok,
             f"large-sample {value:.4f} vs {target:.4f}, fixture {rmst(fixture, 4.0)}")


# 9 ------------------------------------------------------------------

def test_criterion_09_double_robustness():
    config = ScenarioConfig(n_patients=50_000, n_dense_features=1, n_code_features=0,
                            gamma=[0.8], beta=-1.0, eta=[0.8],
                            lambda0=0.002, censoring_rate=0.0005, horizon_days=2000)
    gt = synth.ground_truth(config)
    truth, tau = gt.marginal_rmst_diff, gt.tau
    arrays = gen_survival_arrays(config, np.random.default_rng(7))
    n = config.n_patients
    no_features = np.empty((n, 0))
    order = np.argsort(arrays.time, kind="stable")

    def aipw(features, propensity, outcome):
        m1, m0 = (outcome.predicted_rmst(features, np.full(n, arm), tau) for arm in (1.0, 0.0))
        return rmst_aipw(arrays.time, arrays.event, arrays.treated, propensity, m1, m0, tau,
                         order)

    # (a) outcome model ignores the confounder; propensity is correct
    outcome_wrong = aft_fit(no_features, arrays.treated, arrays.time, arrays.event)
    propensity_right = fit_logistic(arrays.features, arrays.treated, RunSettings.ridge)
    est_a = aipw(no_features, propensity_right, outcome_wrong)

    # (b) outcome model is correct; propensity is intercept-only
    outcome_right = aft_fit(arrays.features, arrays.treated, arrays.time, arrays.event)
    propensity_wrong = fit_logistic(no_features, arrays.treated, RunSettings.ridge)
    est_b = aipw(arrays.features, propensity_wrong, outcome_right)

    rel_a = abs(est_a.point - truth) / abs(truth)
    rel_b = abs(est_b.point - truth) / abs(truth)
    ok = (outcome_wrong.converged and outcome_right.converged
          and rel_a <= 0.05 and rel_b <= 0.05)
    _verdict(9, "AIPW stays near truth under either single misspecification", ok,
             f"truth {truth:.1f}d, wrong-outcome err {rel_a:.1%}, "
             f"wrong-propensity err {rel_b:.1%} (<=5%)")


# 10 -----------------------------------------------------------------

def _entry(i, label, direction):
    return ReferenceEntry("A", "B", f"E{i:05d}", label, direction, 1.0, 0.01, 0.02)


def test_criterion_10_metrics_baseline():
    rng = np.random.default_rng(2024)
    entries = []
    for i in range(1000):
        if i < 500:
            direction = DIRECTION_A if i % 2 == 0 else DIRECTION_B
            entries.append(_entry(i, LABEL_STRONG, direction))
        else:
            entries.append(_entry(i, LABEL_WEAK, DIRECTION_NONE))
    refset = ReferenceSet(entries)
    precisions, recalls = [], []
    for _ in range(20):
        effects = {e.key: ScoredEffect(True,
                                       DIRECTION_A if rng.random() < 0.5 else DIRECTION_B,
                                       1.0)
                   for e in entries}  # every entry called strong, coin-flip direction
        [row] = score(effects, refset, [0.5])
        precisions.append(row.weighted_precision)
        recalls.append(row.recall)
    mean_precision = float(np.mean(precisions))
    mean_recall = float(np.mean(recalls))
    random_ok = abs(mean_precision - 0.25) <= 0.03 and mean_recall <= 0.53

    fixture_entries = [
        _entry(0, LABEL_STRONG, DIRECTION_A),
        _entry(1, LABEL_STRONG, DIRECTION_B),
        _entry(2, LABEL_WEAK, DIRECTION_NONE),
        _entry(3, LABEL_WEAK, DIRECTION_NONE),
    ]
    fixture_effects = {
        fixture_entries[0].key: ScoredEffect(True, DIRECTION_A, 2.0),  # TP
        fixture_entries[1].key: ScoredEffect(True, DIRECTION_B, 0.1),  # miss
        fixture_entries[2].key: ScoredEffect(True, DIRECTION_A, 2.0),  # FP
        fixture_entries[3].key: ScoredEffect(True, DIRECTION_B, 2.0),  # FP
    }
    [row] = score(fixture_effects, ReferenceSet(fixture_entries), [1.0])
    fixture_ok = row.weighted_precision == pytest.approx(1 / 3, abs=1e-12) \
        and row.recall == pytest.approx(1 / 2, abs=1e-12)
    _verdict(10, "random guessing scores 25% precision / <=50% recall; fixture exact",
             random_ok and fixture_ok,
             f"precision {mean_precision:.3f} (0.25±0.03), recall {mean_recall:.3f} "
             f"(<=0.53), fixture precision {row.weighted_precision:.4f} "
             f"recall {row.recall:.4f}")


# 11 -----------------------------------------------------------------

PIPELINE_SCENARIO = {
    "claims": {
        "n_patients": 2500,
        "gamma": [0.5, 0.5, 0.3, 0.3],
        "beta": 0.5,
        "eta": [0.4, 0.4, 0.2, 0.2],
        "lambda0": 0.003,
        "censoring_rate": 0.001,
    },
    "trials": [
        {"drug_a": "DRUG_A", "drug_b": "DRUG_B", "outcome": "OUTCOME",
         "p_a": 0.35, "p_b": 0.1, "n_a": 2000, "n_b": 2000, "n_trials": 2},
    ],
}


def _simulate(root):
    """Simulate PIPELINE_SCENARIO (seed 99) into root/sim and build its reference set
    there; returns root/sim."""
    root.mkdir(parents=True, exist_ok=True)
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(PIPELINE_SCENARIO))
    sim = root / "sim"
    assert cli_main(["simulate", "--scenario", str(scenario), "--seed", "99",
                     "--out-dir", str(sim)]) == 0
    assert cli_main(["build-refset", "--dump", str(sim / "trial_dump.jsonl"),
                     "--drug-dict", str(sim / "drug_dict.tsv"),
                     "--outcome-dict", str(sim / "outcome_dict.tsv"),
                     "--out", str(sim / "refset.jsonl")]) == 0
    return sim


def _evaluate_and_report(sim, variant, out_dir):
    """Evaluate (seed 7) and report (`--rmst-thresholds 30`) sim's reference set into
    out_dir: with the dense features, with count features, or with count features under
    a `min_per_arm` that skips the cohort, as variant is dense, counts or skipped."""
    out_dir.mkdir(parents=True, exist_ok=True)
    extra = []
    if variant == "dense":
        extra = ["--dense-features", str(sim / "dense_features.jsonl")]
    elif variant == "skipped":
        config = out_dir / "run.cfg"
        config.write_text("min_per_arm = 2000\n")
        extra = ["--config", str(config)]
    estimates = out_dir / "estimates.jsonl"
    assert cli_main(["evaluate", "--refset", str(sim / "refset.jsonl"),
                     "--db", str(sim / "claims.jsonl"), "--vocab", str(sim / "vocab.txt"),
                     *extra, "--seed", "7", "--out", str(estimates)]) == 0
    assert cli_main(["report", "--estimates", str(estimates),
                     "--refset", str(sim / "refset.jsonl"),
                     "--rmst-thresholds", "30", "--out", str(out_dir / "report")]) == 0


def test_criterion_11_end_to_end_determinism(tmp_path):
    written = []  # every file of each run, by its path under the run's directory
    for run in (tmp_path / "run1", tmp_path / "run2"):
        _evaluate_and_report(_simulate(run), "dense", run)
        written.append({p.relative_to(run).as_posix(): p.read_bytes()
                        for p in run.rglob("*") if p.is_file()})
    differing = sorted(name for name in written[0].keys() | written[1].keys()
                       if written[0].get(name) != written[1].get(name))
    _verdict(11, "full pipeline is byte-identical across reruns",
             not differing, f"{len(written[0])} artifacts compared"
             + (f", differing: {differing}" if differing else ""))
