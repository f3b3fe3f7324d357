import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from trialbench.cli import main
from trialbench.formats import iter_jsonl, read_jsonl, sha256_file, write_jsonl
from trialbench.ingest import MAX_POOLED_ARM
from trialbench.refset import load as load_refset

SCENARIO = {
    "claims": {
        "n_patients": 1500,
        "gamma": [0.4, 0.4, 0.3, 0.3],
        "beta": 0.5,
        "eta": [0.3, 0.3, 0.2, 0.2],
        "lambda0": 0.003,
        "censoring_rate": 0.001,
    },
    "trials": [
        {"drug_a": "DRUG_A", "drug_b": "DRUG_B", "outcome": "OUTCOME",
         "p_a": 0.35, "p_b": 0.1, "n_a": 2000, "n_b": 2000, "n_trials": 2},
    ],
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full pipeline once; individual tests inspect the outputs."""
    root = tmp_path_factory.mktemp("pipeline")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    sim = root / "sim"
    assert main(["simulate", "--scenario", str(scenario),
                 "--seed", "17", "--out-dir", str(sim)]) == 0
    refset = root / "refset.jsonl"
    assert main(["build-refset", "--dump", str(sim / "trial_dump.jsonl"),
                 "--drug-dict", str(sim / "drug_dict.tsv"),
                 "--outcome-dict", str(sim / "outcome_dict.tsv"),
                 "--out", str(refset)]) == 0
    estimates = root / "estimates.jsonl"
    assert main(["evaluate", "--refset", str(refset),
                 "--db", str(sim / "claims.jsonl"),
                 "--vocab", str(sim / "vocab.txt"),
                 "--dense-features", str(sim / "dense_features.jsonl"),
                 "--seed", "23", "--out", str(estimates)]) == 0
    report = root / "report"
    assert main(["report", "--estimates", str(estimates), "--refset", str(refset),
                 "--rmst-thresholds", "30", "--out", str(report)]) == 0
    return root, sim, refset, estimates, report


def _run_python(code, *args, **env):
    """Run code in a fresh interpreter that imports trialbench from src/, with the
    environment variables in env set."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)


def test_import_leaves_scipy_out():
    run = _run_python("import sys, trialbench.cli; "
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


# An AFT fit large enough for OpenBLAS to split its products across threads: the
# information matrix is 32 x 32 over 1,125 rows. The import comes before numpy's.
AFT_FIT_BYTES = """
from trialbench.estimators.survival import aft_fit
import numpy as np
rng = np.random.default_rng(1)
features = rng.poisson(0.3, size=(1125, 30)).astype(float)
treated = rng.random(1125) < 0.5
time = np.ceil(rng.exponential(300, size=1125))
event = rng.random(1125) < 0.6
model = aft_fit(features, treated, time, event)
print(model.theta.tobytes().hex(), np.float64(model.log_sigma).tobytes().hex())
"""


def test_aft_fit_bytes_do_not_depend_on_the_blas_thread_count():
    """Importing trialbench runs BLAS on one thread, so a fit writes the same bytes at
    OPENBLAS_NUM_THREADS=1 and =2. On a one-core machine OpenBLAS runs one thread
    whatever the variable says, so there this test cannot fail."""
    runs = [_run_python(AFT_FIT_BYTES, OPENBLAS_NUM_THREADS=n) for n in ("1", "2")]
    for run in runs:
        assert run.returncode == 0, run.stderr
    assert runs[0].stdout == runs[1].stdout


def test_pipeline_runs_with_scipy_blocked(pipeline, tmp_path):
    """numpy is the only runtime dependency: with every scipy import made to fail, the
    four stages exit 0 and write the same files as the pipeline fixture's run."""
    root, _, _, _, _ = pipeline
    sim, refset = tmp_path / "sim", tmp_path / "refset.jsonl"
    estimates = tmp_path / "estimates.jsonl"
    stages = [
        ["simulate", "--scenario", str(root / "scenario.json"), "--seed", "17",
         "--out-dir", str(sim)],
        ["build-refset", "--dump", str(sim / "trial_dump.jsonl"),
         "--drug-dict", str(sim / "drug_dict.tsv"),
         "--outcome-dict", str(sim / "outcome_dict.tsv"), "--out", str(refset)],
        ["evaluate", "--refset", str(refset), "--db", str(sim / "claims.jsonl"),
         "--vocab", str(sim / "vocab.txt"), "--dense-features", str(sim / "dense_features.jsonl"),
         "--seed", "23", "--out", str(estimates)],
        ["report", "--estimates", str(estimates), "--refset", str(refset),
         "--rmst-thresholds", "30", "--out", str(tmp_path / "report")],
    ]
    run = _run_python(
        "import json, sys\n"
        "sys.modules['scipy'] = None  # every scipy import now raises ImportError\n"
        "from trialbench.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv[0]\n", json.dumps(stages))
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""  # a warning on stderr would go unexplained
    written = [p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file()]
    assert {"sim/claims.jsonl", "refset.jsonl", "estimates.jsonl",
            "report.table.tsv"} <= {p.as_posix() for p in written}
    assert [p for p in written if (tmp_path / p).read_bytes() != (root / p).read_bytes()] == []


def test_simulate_outputs(pipeline):
    _, sim, _, _, _ = pipeline
    for name in ("claims.jsonl", "dense_features.jsonl", "vocab.txt",
                 "ground_truth.json", "trial_dump.jsonl",
                 "drug_dict.tsv", "outcome_dict.tsv"):
        assert (sim / name).is_file(), name
    truth = json.loads((sim / "ground_truth.json").read_text())
    assert {"marginal_log_hr", "tau", "marginal_rmst_diff"} <= set(truth)


def test_refset_contents(pipeline):
    _, _, refset_path, _, _ = pipeline
    refset = load_refset(refset_path)
    assert len(refset.entries) == 1
    entry = refset.entries[0]
    assert entry.label == "strong" and entry.direction == "a_higher"
    assert (refset_path.parent / "refset.jsonl.drops.tsv").is_file()


def test_estimates_file(pipeline):
    _, _, refset_path, estimates, _ = pipeline
    header, records = read_jsonl(estimates)
    assert header["kind"] == "estimates"
    assert header["refset_sha256"] == sha256_file(refset_path)
    assert header["seed"] == 23
    assert len(records) == 9
    assert sorted({r["method_id"] for r in records}) == sorted(header["methods"])
    converged = [r for r in records if r["converged"]]
    assert len(converged) >= 8
    cox = next(r for r in records if r["method_id"] == "cox_unadjusted")
    assert cox["point"] is not None and cox["point"] > 0  # planted harm on drug A


def test_report_files(pipeline):
    _, _, _, _, report = pipeline
    table = (report.parent / "report.table.tsv").read_text().splitlines()
    assert table[0].startswith("method_id\tscale\tthreshold")
    assert len(table) > 1
    curve = (report.parent / "report.pr_curve.tsv").read_text().splitlines()
    assert len(curve) > 1


def test_evaluate_resume_reuses_parts(pipeline):
    root, sim, refset_path, estimates, _ = pipeline
    original = estimates.read_bytes()
    estimates.unlink()
    assert main(["evaluate", "--refset", str(refset_path),
                 "--db", str(sim / "claims.jsonl"),
                 "--vocab", str(sim / "vocab.txt"),
                 "--dense-features", str(sim / "dense_features.jsonl"),
                 "--seed", "23", "--resume", "--out", str(estimates)]) == 0
    assert estimates.read_bytes() == original


def test_evaluate_resume_recomputes_stale_parts(pipeline, tmp_path):
    _, sim, refset_path, _, _ = pipeline
    base = ["evaluate", "--refset", str(refset_path), "--db", str(sim / "claims.jsonl"),
            "--vocab", str(sim / "vocab.txt"),
            "--dense-features", str(sim / "dense_features.jsonl")]
    fresh = tmp_path / "fresh.jsonl"
    assert main(base + ["--seed", "99", "--out", str(fresh)]) == 0
    resumed = tmp_path / "resumed.jsonl"
    # parts from a run with another seed and method set must not be reused
    assert main(base + ["--seed", "3", "--methods", "cox_unadjusted",
                        "--out", str(resumed)]) == 0
    assert main(base + ["--seed", "99", "--resume", "--out", str(resumed)]) == 0
    assert resumed.read_bytes() == fresh.read_bytes()
    # a part without a provenance header is recomputed too
    for part in (tmp_path / "resumed.jsonl.parts").iterdir():
        header, records = read_jsonl(part)
        assert header["seed"] == 99
        write_jsonl(part, records[:1])
    resumed.unlink()
    assert main(base + ["--seed", "99", "--resume", "--out", str(resumed)]) == 0
    assert resumed.read_bytes() == fresh.read_bytes()


def _write_refset(path, keys):
    """A reference set of strong a_higher entries, one per (drug_a, drug_b, outcome_code)."""
    write_jsonl(path, [{"drug_a": a, "drug_b": b, "outcome_code": o, "label": "strong",
                        "direction": "a_higher"} for a, b, o in keys],
                header={"kind": "reference_set", "provenance": {}})
    return path


def _evaluate_keys(db_dir, keys, out, *extra):
    """Evaluate a reference set of keys over db_dir; the estimate rows by (entry, method)."""
    refset = _write_refset(out.parent / (out.name + ".refset.jsonl"), keys)
    config = out.parent / "run.cfg"
    config.write_text("max_per_arm = 500\n")  # arms of ~1,250: both random steps run
    assert main(["evaluate", "--refset", str(refset), "--db", str(db_dir / "claims.jsonl"),
                 "--vocab", str(db_dir / "vocab.txt"), "--config", str(config),
                 "--seed", "23", *extra, "--out", str(out)]) == 0
    _, rows = read_jsonl(out)
    return {(r["drug_a"], r["drug_b"], r["outcome_code"], r["method_id"]): r for r in rows}


# two drug pairs of two outcomes each, and an entry whose outcome the db does not know
PAIR_KEYS = [("DRUG_A", "DRUG_B", "OUTCOME"), ("DRUG_B", "DRUG_A", "OUTCOME2"),
             ("DRUG_A", "DRUG_B", "UNKNOWN"), ("DRUG_A", "DRUG_B", "OUTCOME2"),
             ("DRUG_B", "DRUG_A", "OUTCOME")]


@pytest.fixture(scope="module")
def two_outcome_db(pipeline, tmp_path_factory):
    """The pipeline's claims with a second outcome, OUTCOME2, on the last observed day
    of every third patient."""
    _, sim, _, _, _ = pipeline
    root = tmp_path_factory.mktemp("two_outcomes")
    patients = list(iter_jsonl(sim / "claims.jsonl"))
    for patient in patients[::3]:
        patient["events"].append([patient["observation_end"], "diagnosis", "OUTCOME2"])
    write_jsonl(root / "claims.jsonl", patients)
    (root / "vocab.txt").write_text((sim / "vocab.txt").read_text() + "OUTCOME2\n")
    return root


def test_evaluate_rows_do_not_depend_on_the_other_entries(two_outcome_db, tmp_path):
    """Seeds come from the drug pair, not the entry's position: reordering the reference
    set, or removing an entry, leaves every shared entry's rows as they were."""
    full = _evaluate_keys(two_outcome_db, PAIR_KEYS, tmp_path / "full.jsonl")
    for name, keys in [("reversed", PAIR_KEYS[::-1]), ("subset", PAIR_KEYS[1:]),
                       ("one_entry", PAIR_KEYS[3:4])]:
        rows = _evaluate_keys(two_outcome_db, keys, tmp_path / f"{name}.jsonl")
        assert rows and {key: full[key] for key in rows} == rows, name


def test_evaluate_fits_each_pair_once(two_outcome_db, tmp_path, monkeypatch):
    from trialbench import cohort as cohort_mod
    from trialbench.estimators import methods as methods_mod

    calls = Counter()
    for owner, name in [(cohort_mod, "build_cohort"), (methods_mod, "fit_logistic"),
                        (methods_mod, "match_pairs")]:
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    rows = _evaluate_keys(two_outcome_db, PAIR_KEYS, tmp_path / "e.jsonl")
    # two pairs, and the entry with an unknown code on its own
    assert calls == {"build_cohort": 3, "fit_logistic": 2, "match_pairs": 2}
    for a, b in [("DRUG_A", "DRUG_B"), ("DRUG_B", "DRUG_A")]:
        psm = [rows[(a, b, outcome, "cox_psm")] for outcome in ("OUTCOME", "OUTCOME2")]
        assert psm[0]["converged"] and psm[0]["n_used"] == psm[1]["n_used"]
    # the unknown code skips only its own entry, with the cohort's note
    unknown = rows[("DRUG_A", "DRUG_B", "UNKNOWN", "cox_psm")]
    assert unknown["note"] == "cohort skipped: codes not in db vocabulary: ['UNKNOWN']"
    assert not unknown["converged"] and unknown["n_used"] == 0


def _part(parts_dir, key):
    """The part file of a group key: a drug pair, or the entry key of an unknown code."""
    return parts_dir / (hashlib.sha256(json.dumps(key, separators=(",", ":")).encode("utf-8"))
                        .hexdigest() + ".jsonl")


def test_evaluate_resume_recomputes_one_part_of_a_pair(two_outcome_db, tmp_path, monkeypatch):
    """One part per drug pair and one for the entry with an unknown code, each holding
    every row of its group; after one pair's part is lost, --resume rebuilds that pair
    alone and writes the same estimates."""
    from trialbench import cohort as cohort_mod

    out = tmp_path / "e.jsonl"
    _evaluate_keys(two_outcome_db, PAIR_KEYS, out)
    fresh = out.read_bytes()
    parts_dir = tmp_path / "e.jsonl.parts"
    entries = {("DRUG_A", "DRUG_B"): 2, ("DRUG_B", "DRUG_A"): 2,
               ("DRUG_A", "DRUG_B", "UNKNOWN"): 1}  # per group key
    assert set(parts_dir.iterdir()) == {_part(parts_dir, list(key)) for key in entries}
    for key, n_entries in entries.items():
        _, rows = read_jsonl(_part(parts_dir, list(key)))
        assert len(rows) == 9 * n_entries
        assert {(r["drug_a"], r["drug_b"]) for r in rows} == {key[:2]}
    _part(parts_dir, ["DRUG_A", "DRUG_B"]).unlink()
    out.unlink()
    built = []
    real_build_cohort = cohort_mod.build_cohort

    def counted(db, drug_a, drug_b, *args, **kwargs):
        built.append((drug_a, drug_b))
        return real_build_cohort(db, drug_a, drug_b, *args, **kwargs)

    monkeypatch.setattr(cohort_mod, "build_cohort", counted)
    _evaluate_keys(two_outcome_db, PAIR_KEYS, out, "--resume")
    assert built == [("DRUG_A", "DRUG_B")]
    assert out.read_bytes() == fresh


def _part_with_rows(part, rows, extra=""):
    """The part's header line, then its rows at the indices in rows, then extra."""
    header, *lines = part.read_text().splitlines(keepends=True)
    assert len(lines) == 9  # one entry, nine methods
    return (header + "".join(lines[i] for i in rows) + extra).encode()


def _part_with_first_row(**fields):
    """A damage: the part with fields set in its first row."""
    def damage(part):
        header, first, *rest = part.read_text().splitlines(keepends=True)
        return (header + json.dumps({**json.loads(first), **fields}) + "\n"
                + "".join(rest)).encode()
    return damage


@pytest.mark.parametrize("damage", [
    lambda _: b"\xff\xfe",
    lambda _: b"not json\n",
    lambda part: _part_with_rows(part, [], "[1,2]\n"),
    lambda part: _part_with_rows(part, range(4)),
    lambda part: _part_with_rows(part, [*range(8), 0]),
    lambda part: _part_with_rows(part, [], '{"point": 1.0}\n'),
    _part_with_first_row(point="x"),
    _part_with_first_row(converged=1),
    _part_with_first_row(scale="risk_difference"),
    lambda part: _part_with_rows(part, range(9)).replace(b"log_hazard_ratio",
                                                         b"rmst_difference_days"),
], ids=["not_utf8", "not_json", "list_row_under_matching_header", "four_of_nine_rows",
        "a_row_twice", "row_without_keys", "string_point", "integer_converged",
        "unknown_scale", "scale_not_the_methods"])
def test_evaluate_resume_recomputes_unreadable_parts(pipeline, tmp_path, damage):
    """A part is reused only when it reads cleanly under the run's header and holds one
    whole estimate row for each (entry, method) of its group, each a row report reads."""
    _, sim, refset_path, _, _ = pipeline
    argv = ["evaluate", "--refset", str(refset_path), "--db", str(sim / "claims.jsonl"),
            "--vocab", str(sim / "vocab.txt"), "--seed", "23", "--out", str(tmp_path / "e.jsonl")]
    assert main(argv) == 0
    fresh = (tmp_path / "e.jsonl").read_bytes()
    [part] = (tmp_path / "e.jsonl.parts").iterdir()
    part.write_bytes(damage(part))
    (tmp_path / "e.jsonl").unlink()
    assert main(argv + ["--resume"]) == 0
    assert (tmp_path / "e.jsonl").read_bytes() == fresh
    assert read_jsonl(part)[1]  # the part was rewritten


def _evaluate_unknown_codes(sim, keys, out, *extra):
    """Evaluate entries of codes the db does not know; the estimates file's bytes."""
    refset = _write_refset(out.parent / "refset.jsonl", keys)
    assert main(["evaluate", "--refset", str(refset), "--db", str(sim / "claims.jsonl"),
                 "--vocab", str(sim / "vocab.txt"), "--seed", "23", *extra,
                 "--out", str(out)]) == 0
    return out.read_bytes()


def test_evaluate_resume_keeps_keys_that_join_to_one_name_apart(pipeline, tmp_path):
    _, sim, _, _, _ = pipeline
    keys = [("X__Y", "Z", "O"), ("X", "Y__Z", "O")]
    out = tmp_path / "e.jsonl"
    fresh = _evaluate_unknown_codes(sim, keys, out)
    assert len(list((tmp_path / "e.jsonl.parts").iterdir())) == 2
    out.unlink()
    assert _evaluate_unknown_codes(sim, keys, out, "--resume") == fresh


def test_evaluate_writes_parts_inside_the_parts_dir(pipeline, tmp_path):
    _, sim, _, _, _ = pipeline
    out = tmp_path / "a" / "b" / "e.jsonl"
    out.parent.mkdir(parents=True)
    _evaluate_unknown_codes(sim, [("../../escaped", "Q", "O")], out)
    written = {p for p in tmp_path.rglob("*") if p.is_file()}
    parts = set((out.parent / "e.jsonl.parts").iterdir())
    assert len(parts) == 1 and written == {out, out.parent / "refset.jsonl", *parts}


def test_evaluate_method_filters(pipeline, tmp_path):
    """A method subset writes, byte for byte, the full run's rows of those methods."""
    _, sim, refset_path, estimates, _ = pipeline
    methods = ["cox_ipw_overlap", "cox_ipw_standard", "cox_psm", "rmst_aipw"]
    out = tmp_path / "subset.jsonl"
    assert main(["evaluate", "--refset", str(refset_path),
                 "--db", str(sim / "claims.jsonl"),
                 "--vocab", str(sim / "vocab.txt"),
                 "--dense-features", str(sim / "dense_features.jsonl"),
                 "--seed", "23", "--methods", ",".join(methods),
                 "--out", str(out)]) == 0
    _, records = read_jsonl(out)
    assert sorted({r["method_id"] for r in records}) == methods
    full = [line for line in estimates.read_text().splitlines()[1:]
            if json.loads(line)["method_id"] in methods]
    assert out.read_text().splitlines()[1:] == full


def test_input_error_exit_codes(pipeline, tmp_path, capsys):
    assert main(["build-refset", "--dump", str(tmp_path / "nope.jsonl"),
                 "--drug-dict", "x", "--outcome-dict", "y",
                 "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    capsys.readouterr()
    assert main(["simulate", "--scenario", str(bad), "--seed", "1",
                 "--out-dir", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["simulate", "--scenario", str(empty), "--seed", "1",
                 "--out-dir", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {empty}: ")
    _, _, refset_path, estimates, _ = pipeline
    for flag, value in (("--thresholds", "abc"), ("--thresholds", "0.5"),
                        ("--thresholds", "2,nan"), ("--rmst-thresholds", "0"),
                        ("--thresholds", ""), ("--rmst-thresholds", "")):
        capsys.readouterr()
        assert main(["report", "--estimates", str(estimates), "--refset", str(refset_path),
                     flag, value, "--out", str(tmp_path / "r")]) == 2, (flag, value)
        assert flag in capsys.readouterr().err


# the truth is exact, so mc_samples is no longer a scenario key
@pytest.mark.parametrize("key", ["bogus", "seed", "Claims", "mc_samples"])
def test_simulate_rejects_unknown_scenario_keys(tmp_path, capsys, key):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({**SCENARIO, key: 1}))
    capsys.readouterr()
    assert main(["simulate", "--scenario", str(scenario), "--seed", "1",
                 "--out-dir", str(tmp_path / "sim")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {scenario}: unknown scenario key {key!r}")
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("section, change", [
    ("trials", {"n_a": -100}),
    ("trials", {"n_a": 100.5}),
    ("trials", {"n_trials": 0}),
    ("claims", {"n_patients": -1}),
    ("claims", {"code_prob": 2}),
    ("claims", {"seed": 3}),
    ("claims", {"n_patients": 1}),
    ("claims", {"horizon_days": -5}),
    ("claims", {"horizon_days": 0}),
    ("claims", {"censoring_rate": -1}),
    ("claims", {"censoring_rate": 1e400}),
    ("claims", {"shape": math.inf}),
    ("claims", {"gamma": [math.inf, 0, 0, 0]}),
    ("claims", {"lambda0": math.nan}),
    ("claims", {"beta": math.nan}),
    ("claims", {"eta": [0.3, math.nan, 0.2, 0.2]}),
    ("claims", {"eta": [3.0, 3.0, 0.2, 0.2]}),
    ("claims", {"n_dense_features": -1}),
    ("claims", {"n_noise_codes": True}),
    ("trials", {"drug_a": 5}),
    ("trials", {"outcome": 7}),
    ("trials", {"p_a": True}),
    ("claims", {"drug_a": 5}),
    ("claims", {"outcome_code": 7}),
    ("claims", {"beta": True}),
    ("claims", {"lambda0": True}),
    ("claims", {"code_prob": True}),
    ("claims", {"gamma": [True, 0, 0, 0]}),
    ("claims", {"eta": [0.3, 0.3, False, 0.2]}),
    ("claims", {"lambda0": 1e30}),
    ("claims", {"eta": [0.3, 0.3, 800, 0.2]}),
    ("trials", {"n_a": 10**30}),
    ("trials", {"n_trials": 10**9}),
    ("trials", {"n_trials": 2001}),
    ("claims", {"n_patients": 10**12}),
], ids=["negative_arm_size", "fractional_arm_size", "zero_trials", "negative_patients",
        "code_prob_above_one", "unknown_claims_key", "single_arm_draw", "negative_horizon",
        "zero_horizon", "negative_censoring_rate", "infinite_censoring_rate",
        "infinite_shape", "infinite_gamma", "nan_lambda0", "nan_beta", "nan_eta_entry",
        "dense_effect_above_bound", "negative_dense_features", "boolean_noise_codes",
        "numeric_trial_drug", "numeric_trial_outcome", "boolean_probability",
        "numeric_claims_drug", "numeric_claims_outcome", "boolean_beta", "boolean_lambda0",
        "boolean_code_prob", "boolean_gamma_entry", "boolean_eta_entry",
        "hazard_too_fast_for_the_truth", "code_effect_too_fast_for_the_truth",
        "arm_size_beyond_a_pooled_arm", "trials_past_the_larger_arm",
        "one_trial_past_the_larger_arm", "patients_past_the_bound"])
def test_simulate_checks_the_whole_scenario_first(tmp_path, capsys, section, change):
    scenario = json.loads(json.dumps(SCENARIO))
    (scenario["trials"][0] if section == "trials" else scenario["claims"]).update(change)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))  # a non-finite float is written as NaN or Infinity
    capsys.readouterr()
    assert main(["simulate", "--scenario", str(path), "--seed", "1",
                 "--out-dir", str(tmp_path / "sim")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    (key, value), = change.items()
    if not all(map(math.isfinite, value if isinstance(value, list) else [value])):
        assert f"{key} must be finite" in err  # a non-finite value is named by its field
    if change != {"n_patients": 1}:  # a draw that leaves one arm empty is no field's fault
        assert key in err
    assert not (tmp_path / "sim").exists()  # nothing written before the scenario is checked


def test_simulate_takes_a_treatment_logit_whose_exp_overflows(tmp_path, capsys):
    """exp(-logit) = inf gives a treatment probability of exactly 0, without a warning."""
    scenario = json.loads(json.dumps(SCENARIO))
    scenario["claims"]["gamma"] = [800, 0, 0, 0]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    capsys.readouterr()
    assert main(["simulate", "--scenario", str(path), "--seed", "1",
                 "--out-dir", str(tmp_path / "sim")]) == 0
    assert capsys.readouterr().err == ""


def test_build_refset_checks_summed_counts_against_participants(tmp_path, capsys):
    dump = tmp_path / "dump.jsonl"
    drugs = tmp_path / "drugs.tsv"
    drugs.write_text("text_pattern\tingredient_id\tmatch_score\n"
                     "DRUG_A\tDRUG_A\t100\nDRUG_B\tDRUG_B\t100\n")
    outcomes = tmp_path / "outcomes.tsv"
    outcomes.write_text("source_term_code\ttarget_outcome_code\nT1\tE1\nT2\tE1\n")

    def build(arm_a_terms):
        arms = [("a", "DRUG_A", arm_a_terms), ("b", "DRUG_B", ["T1"])]
        dump.write_text("".join(
            json.dumps({"trial_id": "NCT1", "arm_id": arm, "arm_name": f"{drug} arm",
                        "drug_text": drug, "participant_count": 100,
                        "outcome_events": [{"term": t, "count": 60} for t in terms]}) + "\n"
            for arm, drug, terms in arms))
        capsys.readouterr()
        return main(["build-refset", "--dump", str(dump), "--drug-dict", str(drugs),
                     "--outcome-dict", str(outcomes), "--out", str(tmp_path / "refset.jsonl")])

    # two terms that map to one code: an input error naming the dump, trial and arm
    assert build(["T1", "T2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {dump}: ") and "trial NCT1 arm a" in err
    assert not (tmp_path / "refset.jsonl").exists()
    # one term reported twice is summed on its line: a line diagnostic
    assert build(["T1", "T1"]) == 0
    diagnostics = (tmp_path / "refset.jsonl.diagnostics.tsv").read_text().splitlines()
    assert diagnostics[1].startswith("1\t") and "participant_count" in diagnostics[1]


@pytest.mark.parametrize("trials", [(MAX_POOLED_ARM + 1,), (MAX_POOLED_ARM // 2 + 1,) * 2],
                         ids=["one_arm", "pooled_over_two_trials"])
def test_build_refset_bounds_the_pooled_arm(tmp_path, capsys, trials):
    dump = tmp_path / "dump.jsonl"
    dump.write_text("".join(
        json.dumps({"trial_id": f"NCT{t}", "arm_id": arm, "arm_name": f"{drug} arm",
                    "drug_text": drug, "participant_count": n,
                    "outcome_events": [{"term": "T1", "count": 9}]}) + "\n"
        for t, n_a in enumerate(trials) for arm, drug, n in (("a", "DRUG_A", n_a),
                                                             ("b", "DRUG_B", 100))))
    drugs = tmp_path / "drugs.tsv"
    drugs.write_text("text_pattern\tingredient_id\tmatch_score\n"
                     "DRUG_A\tDRUG_A\t100\nDRUG_B\tDRUG_B\t100\n")
    outcomes = tmp_path / "outcomes.tsv"
    outcomes.write_text("source_term_code\ttarget_outcome_code\nT1\tE1\n")
    capsys.readouterr()
    assert main(["build-refset", "--dump", str(dump), "--drug-dict", str(drugs),
                 "--outcome-dict", str(outcomes), "--out", str(tmp_path / "refset.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {dump}: ") and "DRUG_A vs DRUG_B" in err
    assert not (tmp_path / "refset.jsonl").exists()


@pytest.mark.parametrize("where", ["evaluate_flag", "evaluate_config", "simulate_flag"])
def test_negative_seeds_exit_2(pipeline, tmp_path, capsys, where):
    root, sim, refset_path, _, _ = pipeline
    config = tmp_path / "run.cfg"
    config.write_text("seed = -1\n")
    evaluate = ["evaluate", "--refset", str(refset_path),
                "--db", str(sim / "claims.jsonl"), "--vocab", str(sim / "vocab.txt"),
                "--out", str(tmp_path / "o.jsonl")]
    argv = {"evaluate_flag": evaluate + ["--seed", "-3"],
            "evaluate_config": evaluate + ["--config", str(config)],
            "simulate_flag": ["simulate", "--scenario", str(root / "scenario.json"),
                              "--seed", "-1", "--out-dir", str(tmp_path / "sim")]}[where]
    capsys.readouterr()
    assert main(argv) == 2
    assert ("--seed" if where.endswith("flag") else str(config)) in capsys.readouterr().err


def test_seed_flag_overrides_config_seed(pipeline, tmp_path):
    _, sim, refset_path, _, _ = pipeline
    config = tmp_path / "run.cfg"
    config.write_text("seed = 7\n")
    out = tmp_path / "o.jsonl"
    evaluate = ["evaluate", "--refset", str(refset_path), "--db", str(sim / "claims.jsonl"),
                "--vocab", str(sim / "vocab.txt"), "--methods", "cox_unadjusted",
                "--config", str(config), "--out", str(out)]
    for extra, seed in (([], 7), (["--seed", "23"], 23)):
        assert main(evaluate + extra) == 0
        assert read_jsonl(out)[0]["seed"] == seed


@pytest.mark.parametrize("alpha", ["nan", "inf", "-1", "0", "2"])
def test_alpha_outside_unit_interval_exits_2(pipeline, tmp_path, capsys, alpha):
    _, sim, _, _, _ = pipeline
    out = tmp_path / "refset.jsonl"
    capsys.readouterr()
    assert main(["build-refset", "--dump", str(sim / "trial_dump.jsonl"),
                 "--drug-dict", str(sim / "drug_dict.tsv"),
                 "--outcome-dict", str(sim / "outcome_dict.tsv"),
                 "--alpha", alpha, "--out", str(out)]) == 2
    assert "--alpha" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_requires_seed_and_known_methods(pipeline, tmp_path, capsys):
    _, sim, refset_path, _, _ = pipeline
    base = ["evaluate", "--refset", str(refset_path),
            "--db", str(sim / "claims.jsonl"), "--vocab", str(sim / "vocab.txt"),
            "--out", str(tmp_path / "o.jsonl")]
    assert main(base) == 2  # no seed anywhere
    for methods in ("cox_deluxe", "cox_psm,cox_psm", ""):
        capsys.readouterr()
        assert main(base + ["--seed", "1", "--methods", methods]) == 2
        assert "--methods" in capsys.readouterr().err


def test_provenance_mismatches(pipeline, tmp_path):
    root, sim, refset_path, estimates, _ = pipeline
    # report against a reference set with different bytes -> exit 3
    other = tmp_path / "other_refset.jsonl"
    header, records = read_jsonl(refset_path)
    header["provenance"]["tweak"] = 1
    write_jsonl(other, records, header=header)
    assert main(["report", "--estimates", str(estimates), "--refset", str(other),
                 "--out", str(tmp_path / "r")]) == 3
    # evaluate with a vocab hash pinned in the refset provenance -> exit 3
    header2, records2 = read_jsonl(refset_path)
    header2["provenance"]["db_vocab_sha256"] = "0" * 64
    pinned = tmp_path / "pinned_refset.jsonl"
    write_jsonl(pinned, records2, header=header2)
    assert main(["evaluate", "--refset", str(pinned),
                 "--db", str(sim / "claims.jsonl"),
                 "--vocab", str(sim / "vocab.txt"), "--seed", "1",
                 "--out", str(tmp_path / "e.jsonl")]) == 3


def test_report_rejects_non_estimates_file(pipeline, tmp_path):
    _, _, refset_path, _, _ = pipeline
    fake = tmp_path / "fake.jsonl"
    write_jsonl(fake, [{"x": 1}], header={"kind": "something_else"})
    assert main(["report", "--estimates", str(fake), "--refset", str(refset_path),
                 "--out", str(tmp_path / "r")]) == 2


def test_report_rejects_empty_reference_set(pipeline, tmp_path, capsys):
    _, _, refset_path, estimates, _ = pipeline
    header, _ = read_jsonl(refset_path)
    empty = tmp_path / "empty_refset.jsonl"
    write_jsonl(empty, [], header=header)
    estimates_header, rows = read_jsonl(estimates)
    estimates_header["refset_sha256"] = sha256_file(empty)
    matching = tmp_path / "estimates.jsonl"
    write_jsonl(matching, rows, header=estimates_header)
    capsys.readouterr()
    assert main(["report", "--estimates", str(matching), "--refset", str(empty),
                 "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {empty}: ")


def test_a_repeated_reference_key_exits_2(pipeline, tmp_path, capsys):
    """A key given twice would be scored twice against its one estimate, so evaluate and
    report exit 2 naming the file and the key, and write nothing."""
    _, sim, refset_path, estimates, _ = pipeline
    header, [strong] = read_jsonl(refset_path)
    repeated = tmp_path / "repeated_refset.jsonl"
    write_jsonl(repeated, [strong, strong, {**strong, "label": "weak", "direction": "none"}],
                header=header)
    key = (strong["drug_a"], strong["drug_b"], strong["outcome_code"])
    estimates_header, rows = read_jsonl(estimates)
    estimates_header["refset_sha256"] = sha256_file(repeated)
    matching = tmp_path / "estimates.jsonl"
    write_jsonl(matching, rows, header=estimates_header)
    for argv in (["evaluate", "--refset", str(repeated), "--db", str(sim / "claims.jsonl"),
                  "--vocab", str(sim / "vocab.txt"), "--seed", "23",
                  "--out", str(tmp_path / "e.jsonl")],
                 ["report", "--estimates", str(matching), "--refset", str(repeated),
                  "--out", str(tmp_path / "r")]):
        capsys.readouterr()
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(f"error: {repeated}: ") and repr(key) in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["estimates.jsonl",
                                                          "repeated_refset.jsonl"]


def _edit_record(change, line=0):
    """Edit for a JSONL text: apply change(record) to the record on the given line."""
    def edit(text):
        lines = text.splitlines()
        record = json.loads(lines[line])
        change(record)
        lines[line] = json.dumps(record)
        return "\n".join(lines) + "\n"
    return edit


def _without(key, line=0):
    return _edit_record(lambda record: record.pop(key), line)


def _edit_first_event(change):
    """Edit for a claims JSONL text: replace the first patient's first event by change(event)."""
    return _edit_record(lambda record: record["events"].__setitem__(0, change(record["events"][0])))


def _first_dense_feature_as(literal):
    """Edit for a dense-features JSONL text: the first row's first value written as the
    JSON text literal."""
    def edit(text):
        text = _edit_record(lambda record: record["features"].__setitem__(0, "<value>"))(text)
        return text.replace('"<value>"', literal, 1)
    return edit


def _every_dense_row(change):
    """Edit for a dense-features JSONL text: replace each row's features by change(features)."""
    def edit(text):
        records = [json.loads(line) for line in text.splitlines()]
        return "".join(json.dumps({**r, "features": change(r["features"])}) + "\n"
                       for r in records)
    return edit


# case -> (evaluate flag whose file is broken, edit of that file's text)
MALFORMED_INPUTS = {
    "truncated_claims_line": ("--db", lambda text: text.rstrip("\n")[:-5] + "\n"),
    "patient_without_observation_start": ("--db", _without("observation_start")),
    "patient_without_dense_row": ("--dense-features", lambda text: text.split("\n", 1)[1]),
    "duplicate_patient_id": ("--db", lambda text: text + text.split("\n", 1)[0] + "\n"),
    "fractional_event_day": ("--db", _edit_first_event(lambda ev: [ev[0] + 0.5, *ev[1:]])),
    "fractional_observation_end": (
        "--db", _edit_record(lambda record: record.update(
            observation_end=record["observation_end"] + 0.5))),
    "numeric_event_code": ("--db", _edit_first_event(lambda ev: [*ev[:2], 7])),
    "boolean_event_day": ("--db", _edit_first_event(lambda ev: [True, *ev[1:]])),
    "boolean_observation_start": (
        "--db", _edit_record(lambda record: record.update(observation_start=False))),
    # without events, a true read as day 1 would still hold a valid window
    "boolean_observation_end": (
        "--db", _edit_record(lambda record: record.update(observation_end=True, events=[]))),
    "dense_rows_of_unequal_length": (
        "--dense-features", _edit_record(lambda record: record["features"].append(0.0))),
    "duplicate_dense_row": ("--dense-features", lambda text: text + text.split("\n", 1)[0] + "\n"),
    "boolean_dense_feature": (
        "--dense-features", _edit_record(lambda record: record["features"].__setitem__(0, True))),
    "string_number_dense_feature": ("--dense-features", _first_dense_feature_as('"1.5"')),
    "nan_dense_feature": ("--dense-features", _first_dense_feature_as("NaN")),
    "overflowing_dense_feature": ("--dense-features", _first_dense_feature_as("1e400")),
    "infinite_dense_feature": ("--dense-features", _first_dense_feature_as("-Infinity")),
    "integer_dense_feature_beyond_float": ("--dense-features",
                                           _first_dense_feature_as("9" * 400)),
    "nested_dense_rows": ("--dense-features", _every_dense_row(lambda f: [[v] for v in f])),
    # a string of digits given as each whole row reads as one number per row
    "dense_rows_strings": ("--dense-features", _every_dense_row(lambda _: "12")),
    "config_line_without_equals": ("--config", lambda _: "ridge 1e-6\n"),
    "non_numeric_config_value": ("--config", lambda _: "ridge = abc\n"),
    "tau_percentile_above_one": ("--config", lambda _: "tau_percentile = 1.5\n"),
    "tau_percentile_nan": ("--config", lambda _: "tau_percentile = nan\n"),
    "negative_max_per_arm": ("--config", lambda _: "max_per_arm = -5\n"),
    # every estimate compares two arms, so an arm of no patients is never enough
    "zero_min_per_arm": ("--config", lambda _: "min_per_arm = 0\n"),
    "ridge_nan": ("--config", lambda _: "ridge = nan\n"),
    "misspelt_config_key": ("--config", lambda _: "calipr_sd_logit = 0.0001\n"),
    "methods_config_key": ("--config", lambda _: "methods = cox_psm\n"),
    "repeated_config_key": ("--config", lambda _: "max_per_arm = 5\nmax_per_arm = 500\n"),
    # the run passes --seed too, which must not keep the config seed from being checked
    "negative_config_seed": ("--config", lambda _: "seed = -1\n"),
    "non_numeric_config_seed": ("--config", lambda _: "seed = abc\n"),
    "refset_record_without_label": ("--refset", _without("label", line=1)),
    "refset_header_a_list": ("--refset", lambda text: "[1]\n" + text.split("\n", 1)[1]),
    "refset_provenance_a_list": ("--refset", _edit_record(lambda record: record.update(
        provenance=[1]))),
    "refset_numeric_drug_code": ("--refset", _edit_record(lambda record: record.update(drug_a=7),
                                                          line=1)),
    "refset_strong_entry_direction_up": (
        "--refset", _edit_record(lambda record: record.update(direction="up"), line=1)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_parsing_exits_2(pipeline, tmp_path, capsys, case):
    _, sim, refset_path, _, _ = pipeline
    inputs = {"--refset": refset_path, "--db": sim / "claims.jsonl",
              "--vocab": sim / "vocab.txt", "--dense-features": sim / "dense_features.jsonl"}
    flag, edit = MALFORMED_INPUTS[case]
    broken = tmp_path / "broken_input"
    broken.write_text(edit(inputs[flag].read_text() if flag in inputs else ""))
    inputs[flag] = broken
    argv = ["evaluate", "--seed", "1", "--out", str(tmp_path / "e.jsonl")]
    for name, path in inputs.items():
        argv += [name, str(path)]
    assert main(argv) == 2
    assert str(broken) in capsys.readouterr().err


def _dense_row_for(patient_id):
    """Edit for a dense-features JSONL text: one more row, the first row's features for
    patient_id, an id no patient has."""
    def edit(text):
        row = json.loads(text.split("\n", 1)[0])
        return text + json.dumps({**row, "patient_id": patient_id}) + "\n"
    return edit


# case -> (evaluate flag whose file is broken, edit of that file's text, the field the
# message names); str() or float() read each of these values as another one
COERCED_INPUTS = {
    "null_patient_id": ("--db", _edit_record(lambda record: record.update(patient_id=None)),
                        "patient_id"),
    "numeric_patient_id": ("--db", _edit_record(lambda record: record.update(patient_id=7)),
                           "patient_id"),
    "null_dense_patient_id": ("--dense-features", _dense_row_for(None), "patient_id"),
    "numeric_dense_patient_id": ("--dense-features", _dense_row_for(7), "patient_id"),
    "refset_boolean_p_value": (
        "--refset", _edit_record(lambda record: record.update(p_value=True), line=1), "p_value"),
    "refset_string_q_value": (
        "--refset", _edit_record(lambda record: record.update(q_value="0.01"), line=1),
        "q_value"),
    "refset_boolean_pooled_or": (
        "--refset", _edit_record(lambda record: record.update(pooled_or=False), line=1),
        "pooled_or"),
}


@pytest.mark.parametrize("case", sorted(COERCED_INPUTS))
def test_coerced_inputs_exit_2(pipeline, tmp_path, capsys, case):
    _, sim, refset_path, _, _ = pipeline
    flag, edit, field = COERCED_INPUTS[case]
    inputs = {"--refset": refset_path, "--db": sim / "claims.jsonl", "--vocab": sim / "vocab.txt"}
    if flag == "--dense-features":
        inputs[flag] = sim / "dense_features.jsonl"
    broken = tmp_path / "broken_input"
    broken.write_text(edit(inputs[flag].read_text()))
    inputs[flag] = broken
    argv = ["evaluate", "--seed", "1", "--out", str(tmp_path / "e.jsonl")]
    for name, path in inputs.items():
        argv += [name, str(path)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {broken}: ") and f" {field} " in err, err


@pytest.mark.parametrize("field, value", [("drug_a", 7), ("drug_b", None),
                                          ("outcome_code", ["OUTCOME"])])
def test_report_rejects_codes_that_are_not_strings(pipeline, tmp_path, capsys, field, value):
    # a number matched no entry and exited 0; a list exited 2 only through a TypeError
    _, _, refset_path, estimates, _ = pipeline
    broken = tmp_path / "estimates.jsonl"
    broken.write_text(_edit_record(lambda record: record.update({field: value}), line=1)(
        estimates.read_text()))
    capsys.readouterr()
    assert main(["report", "--estimates", str(broken), "--refset", str(refset_path),
                 "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {broken}: ") and f"{field} {value!r} is not a string" in err


def test_invalid_claims_line_is_reported_once(pipeline, tmp_path, capsys):
    _, sim, refset_path, _, _ = pipeline
    lines = (sim / "claims.jsonl").read_text().splitlines()
    broken = tmp_path / "claims.jsonl"
    broken.write_text("\n".join(lines[:-1] + [lines[-1][:-5]]) + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--refset", str(refset_path), "--db", str(broken),
                 "--vocab", str(sim / "vocab.txt"), "--seed", "1",
                 "--out", str(tmp_path / "e.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.count("invalid JSON") == 1
    assert f"{broken}: line {len(lines)}: invalid JSON" in err
    assert "malformed content" not in err


@pytest.mark.parametrize("flag, text", [
    ("--drug-dict", "text_pattern\tingredient_id\tmatch_score\nalphazine\tALPHA\tabc\n"),
    ("--outcome-dict", "source_term_code\ttarget_outcome_code\nT1\tMI\nT1\tSTROKE\n"),
    ("--drug-dict", "text_pattern\tingredient_id\tmatch_score\nalphazine\tALPHA\n"),
], ids=["bad_match_score", "conflicting_outcome_targets", "wrong_column_count"])
def test_dictionary_errors_name_the_file(pipeline, tmp_path, capsys, flag, text):
    _, sim, _, _, _ = pipeline
    inputs = {"--dump": sim / "trial_dump.jsonl", "--drug-dict": sim / "drug_dict.tsv",
              "--outcome-dict": sim / "outcome_dict.tsv"}
    inputs[flag] = tmp_path / "dictionary.tsv"
    inputs[flag].write_text(text)
    argv = ["build-refset", "--out", str(tmp_path / "refset.jsonl")]
    for name, path in inputs.items():
        argv += [name, str(path)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {inputs[flag]}: ")


def _second_row_on_other_scale(text):
    """Edit for an estimates text: repeat the first row's method for another entry,
    on the other effect scale."""
    record = json.loads(text.splitlines()[1])
    other = {"log_hazard_ratio": "rmst_difference_days"}.get(record["scale"], "log_hazard_ratio")
    record.update(outcome_code="OTHER_OUTCOME", scale=other)
    return text + json.dumps(record) + "\n"


# case -> edit of the estimates text; each row still shares the reference set of its header
MALFORMED_ESTIMATES = {
    "boolean_point": _edit_record(lambda record: record.update(point=True), line=1),
    "nan_point": _edit_record(lambda record: record.update(point=float("nan")), line=1),
    "infinite_point": _edit_record(lambda record: record.update(point=float("inf")), line=1),
    "string_converged": _edit_record(lambda record: record.update(converged="false"), line=1),
    "unknown_scale": _edit_record(
        lambda record: record.update(scale="risk_difference", point=None), line=1),
    "mixed_scales_in_one_method": _second_row_on_other_scale,
    "header_a_list": lambda text: "[1]\n" + text.split("\n", 1)[1],
    "integer_method_id": _edit_record(lambda record: record.update(method_id=5), line=1),
    "header_without_rows": lambda text: text.split("\n", 1)[0] + "\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ESTIMATES))
def test_report_estimate_rows_exit_2(pipeline, tmp_path, capsys, case):
    _, _, refset_path, estimates, _ = pipeline
    broken = tmp_path / "estimates.jsonl"
    broken.write_text(MALFORMED_ESTIMATES[case](estimates.read_text()))
    capsys.readouterr()
    assert main(["report", "--estimates", str(broken), "--refset", str(refset_path),
                 "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {broken}: ")


# every (subcommand, input flag) pair
INPUT_FLAGS = [("build-refset", "--dump"), ("build-refset", "--drug-dict"),
               ("build-refset", "--outcome-dict"), ("simulate", "--scenario"),
               ("evaluate", "--refset"), ("evaluate", "--db"), ("evaluate", "--vocab"),
               ("evaluate", "--dense-features"), ("evaluate", "--config"),
               ("report", "--estimates"), ("report", "--refset")]


@pytest.mark.parametrize("command, flag", INPUT_FLAGS)
def test_non_utf8_input_exits_2(pipeline, tmp_path, capsys, command, flag):
    root, sim, refset_path, estimates, _ = pipeline
    config = tmp_path / "run.cfg"
    config.write_text("ridge = 1e-6\n")
    inputs = {
        "build-refset": {"--dump": sim / "trial_dump.jsonl", "--drug-dict": sim / "drug_dict.tsv",
                         "--outcome-dict": sim / "outcome_dict.tsv"},
        "simulate": {"--scenario": root / "scenario.json", "--seed": "1"},
        "evaluate": {"--refset": refset_path, "--db": sim / "claims.jsonl",
                     "--vocab": sim / "vocab.txt",
                     "--dense-features": sim / "dense_features.jsonl",
                     "--config": config, "--seed": "1"},
        "report": {"--estimates": estimates, "--refset": refset_path},
    }[command]
    broken = tmp_path / "not_utf8"
    broken.write_bytes(b"\xff\n")
    inputs[flag] = broken
    if (command, flag) == ("report", "--refset"):  # estimates made against the broken set
        header, rows = read_jsonl(estimates)
        header["refset_sha256"] = sha256_file(broken)
        inputs["--estimates"] = tmp_path / "estimates.jsonl"
        write_jsonl(inputs["--estimates"], rows, header=header)
    out_flag = "--out-dir" if command == "simulate" else "--out"
    argv = [command, out_flag, str(tmp_path / "out")]
    for name, value in inputs.items():
        argv += [name, str(value)]
    capsys.readouterr()
    assert main(argv) == 2
    assert str(broken) in capsys.readouterr().err
