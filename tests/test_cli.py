import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from trialbench.cli import main
from trialbench.formats import iter_jsonl, read_jsonl, sha256_file, write_jsonl
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


def _pipeline_stages(root):
    """The README's four commands on root/scenario.json, each writing under root."""
    sim, refset, estimates = root / "sim", root / "refset.jsonl", root / "estimates.jsonl"
    return [
        ["simulate", "--scenario", str(root / "scenario.json"), "--seed", "17",
         "--out-dir", str(sim)],
        ["build-refset", "--dump", str(sim / "trial_dump.jsonl"),
         "--drug-dict", str(sim / "drug_dict.tsv"),
         "--outcome-dict", str(sim / "outcome_dict.tsv"), "--out", str(refset)],
        ["evaluate", "--refset", str(refset), "--db", str(sim / "claims.jsonl"),
         "--vocab", str(sim / "vocab.txt"), "--dense-features", str(sim / "dense_features.jsonl"),
         "--seed", "23", "--out", str(estimates)],
        ["report", "--estimates", str(estimates), "--refset", str(refset),
         "--rmst-thresholds", "30", "--out", str(root / "report")],
    ]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full pipeline once; individual tests inspect the outputs."""
    root = tmp_path_factory.mktemp("pipeline")
    (root / "scenario.json").write_text(json.dumps(SCENARIO))
    for argv in _pipeline_stages(root):
        assert main(argv) == 0, argv[0]
    return root, root / "sim", root / "refset.jsonl", root / "estimates.jsonl", root / "report"


def _run_python(code, *args, **env):
    """Run code in a fresh interpreter that imports trialbench from src/, with the
    environment variables in env set."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)


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
    (tmp_path / "scenario.json").write_text(json.dumps(SCENARIO))
    run = _run_python(
        "import json, sys\n"
        "sys.modules['scipy'] = None  # every scipy import now raises ImportError\n"
        "from trialbench.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv[0]\n", json.dumps(_pipeline_stages(tmp_path)))
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


@pytest.mark.parametrize("exc", [RuntimeError("boom"), BrokenPipeError(32, "Broken pipe")],
                         ids=["runtime_error", "os_error_of_no_file"])
def test_an_unexpected_exception_exits_4(pipeline, tmp_path, capsys, monkeypatch, exc):
    """An exception that is no input error, or an OSError that names no path, exits 4,
    naming its type."""
    from trialbench import metrics as metrics_mod

    _, _, refset_path, estimates, _ = pipeline

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(metrics_mod, "pr_curve", fail)
    capsys.readouterr()
    assert main(["report", "--estimates", str(estimates), "--refset", str(refset_path),
                 "--out", str(tmp_path / "r")]) == 4
    assert capsys.readouterr().err == f"internal error: {type(exc).__name__}: {exc}\n"


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


def test_alpha_is_the_reference_sets_provenance_alpha(pipeline, tmp_path):
    _, sim, _, _, _ = pipeline
    out = tmp_path / "refset.jsonl"
    assert main(["build-refset", "--dump", str(sim / "trial_dump.jsonl"),
                 "--drug-dict", str(sim / "drug_dict.tsv"),
                 "--outcome-dict", str(sim / "outcome_dict.tsv"),
                 "--alpha", "0.01", "--out", str(out)]) == 0
    assert load_refset(out).provenance["alpha"] == 0.01


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
