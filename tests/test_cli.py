import json

import pytest

from trialbench.cli import main
from trialbench.formats import read_jsonl, sha256_file, write_jsonl
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
    "mc_samples": 20_000,
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
    header, records = read_jsonl(estimates, expect_header=True)
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
        header, records = read_jsonl(part, expect_header=True)
        assert header["seed"] == 99
        write_jsonl(part, records[:1])
    resumed.unlink()
    assert main(base + ["--seed", "99", "--resume", "--out", str(resumed)]) == 0
    assert resumed.read_bytes() == fresh.read_bytes()


def test_evaluate_method_filters(pipeline, tmp_path):
    root, sim, refset_path, _, _ = pipeline
    out = tmp_path / "ipw.jsonl"
    assert main(["evaluate", "--refset", str(refset_path),
                 "--db", str(sim / "claims.jsonl"),
                 "--vocab", str(sim / "vocab.txt"),
                 "--dense-features", str(sim / "dense_features.jsonl"),
                 "--seed", "23", "--methods", "cox_ipw_overlap,cox_ipw_standard",
                 "--out", str(out)]) == 0
    _, records = read_jsonl(out, expect_header=True)
    assert sorted({r["method_id"] for r in records}) == [
        "cox_ipw_overlap", "cox_ipw_standard"]


def test_input_error_exit_codes(pipeline, tmp_path, capsys):
    assert main(["build-refset", "--dump", str(tmp_path / "nope.jsonl"),
                 "--drug-dict", "x", "--outcome-dict", "y",
                 "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["simulate", "--scenario", str(bad), "--seed", "1",
                 "--out-dir", str(tmp_path / "d")]) == 2
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["simulate", "--scenario", str(empty), "--seed", "1",
                 "--out-dir", str(tmp_path / "d")]) == 2
    _, _, refset_path, estimates, _ = pipeline
    for flag, value in (("--thresholds", "abc"), ("--thresholds", "0.5"),
                        ("--thresholds", "2,nan"), ("--rmst-thresholds", "0")):
        capsys.readouterr()
        assert main(["report", "--estimates", str(estimates), "--refset", str(refset_path),
                     flag, value, "--out", str(tmp_path / "r")]) == 2, (flag, value)
        assert flag in capsys.readouterr().err


def test_evaluate_requires_seed_and_known_methods(pipeline, tmp_path):
    _, sim, refset_path, _, _ = pipeline
    base = ["evaluate", "--refset", str(refset_path),
            "--db", str(sim / "claims.jsonl"), "--vocab", str(sim / "vocab.txt"),
            "--out", str(tmp_path / "o.jsonl")]
    assert main(base) == 2  # no seed anywhere
    assert main(base + ["--seed", "1", "--methods", "cox_deluxe"]) == 2


def test_provenance_mismatches(pipeline, tmp_path):
    root, sim, refset_path, estimates, _ = pipeline
    # report against a reference set with different bytes -> exit 3
    other = tmp_path / "other_refset.jsonl"
    header, records = read_jsonl(refset_path, expect_header=True)
    header["provenance"]["tweak"] = 1
    write_jsonl(other, records, header=header)
    assert main(["report", "--estimates", str(estimates), "--refset", str(other),
                 "--out", str(tmp_path / "r")]) == 3
    # evaluate with a vocab hash pinned in the refset provenance -> exit 3
    header2, records2 = read_jsonl(refset_path, expect_header=True)
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


# case -> (evaluate flag whose file is broken, edit of that file's text)
MALFORMED_INPUTS = {
    "truncated_claims_line": ("--db", lambda text: text.rstrip("\n")[:-5] + "\n"),
    "patient_without_observation_start": ("--db", _without("observation_start")),
    "patient_without_dense_row": ("--dense-features", lambda text: text.split("\n", 1)[1]),
    "config_line_without_equals": ("--config", lambda _: "ridge 1e-6\n"),
    "non_numeric_config_value": ("--config", lambda _: "ridge = abc\n"),
    "refset_record_without_label": ("--refset", _without("label", line=1)),
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
