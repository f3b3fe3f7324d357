"""Golden guard: `build-refset`, `evaluate` and `report` outputs must not move.

The evaluate/report files under tests/golden/ come from the criterion-11
pipeline (simulate seed 99, evaluate seed 7, `--rmst-thresholds 30`),
run with dense features, with count features, and with count features
under a `min_per_arm` that skips the cohort, which pins the
failed-estimate rows and the report of a method without available
estimates. A mismatch names the method ids whose rows moved.

The files under tests/golden/refset/default/ come from `build-refset` on
the trial dump of REFSET_SCENARIO (simulate seed 5). The scenario has
strong comparisons in both directions, weak comparisons with large arms,
comparisons split over several trials, a table the pre-filter keeps but
BH does not reject, small tables the pre-filter drops from each family,
and an arm below the enrollment floor.

Regenerate only for an intended output change:
`PYTHONPATH=src python tests/test_golden.py`.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from test_acceptance import _evaluate_and_report, _simulate
from trialbench.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
OUTPUTS = ("estimates.jsonl", "report.table.tsv", "report.pr_curve.tsv")
VARIANTS = ("dense", "counts", "skipped")
REFSET_OUTPUTS = ("refset.jsonl", "refset.jsonl.drops.tsv")

REFSET_SCENARIO = {"trials": [
    {"drug_a": "DRUG_C", "drug_b": "DRUG_D", "outcome": "NAUSEA",        # strong, a_higher
     "p_a": 0.30, "p_b": 0.10, "n_a": 400, "n_b": 400},
    {"drug_a": "DRUG_C", "drug_b": "DRUG_E", "outcome": "RASH",          # strong, b_higher
     "p_a": 0.04, "p_b": 0.20, "n_a": 500, "n_b": 500},
    {"drug_a": "DRUG_D", "drug_b": "DRUG_E", "outcome": "HEADACHE",      # strong, 3 trials
     "p_a": 0.25, "p_b": 0.12, "n_a": 3000, "n_b": 3000, "n_trials": 3},
    {"drug_a": "DRUG_C", "drug_b": "DRUG_D", "outcome": "RASH",          # weak, large n
     "p_a": 0.10, "p_b": 0.10, "n_a": 8000, "n_b": 8000},
    {"drug_a": "DRUG_D", "drug_b": "DRUG_E", "outcome": "NAUSEA",        # weak, 2 trials
     "p_a": 0.20, "p_b": 0.20, "n_a": 6000, "n_b": 6000, "n_trials": 2},
    {"drug_a": "DRUG_C", "drug_b": "DRUG_E", "outcome": "NAUSEA",        # pre-filter, strong
     "p_a": 0.01, "p_b": 0.0, "n_a": 100, "n_b": 100},
    {"drug_a": "DRUG_C", "drug_b": "DRUG_E", "outcome": "HEADACHE",      # pre-filter, weak
     "p_a": 0.10, "p_b": 0.10, "n_a": 100, "n_b": 100},
    {"drug_a": "DRUG_C", "drug_b": "DRUG_D", "outcome": "HEADACHE",      # small, certified
     "p_a": 0.02, "p_b": 0.01, "n_a": 120, "n_b": 120},
    {"drug_a": "DRUG_D", "drug_b": "DRUG_E", "outcome": "RASH",          # kept, not rejected
     "p_a": 0.18, "p_b": 0.13, "n_a": 250, "n_b": 250},
    {"drug_a": "DRUG_C", "drug_b": "DRUG_F", "outcome": "RASH",          # arm below 100
     "p_a": 0.10, "p_b": 0.10, "n_a": 60, "n_b": 200},
]}


def _build_refset(root: Path) -> None:
    """Simulate REFSET_SCENARIO's dump and build its reference set under root."""
    scenario = root / "refset_scenario.json"
    scenario.write_text(json.dumps(REFSET_SCENARIO))
    sim = root / "refset_sim"
    assert main(["simulate", "--scenario", str(scenario), "--seed", "5",
                 "--out-dir", str(sim)]) == 0
    assert main(["build-refset", "--dump", str(sim / "trial_dump.jsonl"),
                 "--drug-dict", str(sim / "drug_dict.tsv"),
                 "--outcome-dict", str(sim / "outcome_dict.tsv"),
                 "--out", str(root / "refset.jsonl")]) == 0


def _method_of(name: str, line: str) -> str:
    if name.endswith(".jsonl"):
        return json.loads(line).get("method_id", "<header>")
    return line.split("\t", 1)[0]


def _moved_methods(name: str, got: str, want: str) -> list[str]:
    """Method ids whose rows differ between two versions of one output file."""
    rows_got = Counter((_method_of(name, ln), ln) for ln in got.splitlines())
    rows_want = Counter((_method_of(name, ln), ln) for ln in want.splitlines())
    return sorted({method for method, _ in (rows_got - rows_want) + (rows_want - rows_got)})


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    return _simulate(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("variant", VARIANTS)
def test_outputs_match_golden(sim, variant, tmp_path):
    _evaluate_and_report(sim, variant, tmp_path)
    moved = {}
    for name in OUTPUTS:
        got = (tmp_path / name).read_text(encoding="utf-8")
        want = (GOLDEN / variant / name).read_text(encoding="utf-8")
        if got != want:
            moved[name] = _moved_methods(name, got, want) or ["<row order>"]
    assert not moved, f"{variant} outputs moved, by file and method_id: {moved}"


def test_unused_vocabulary_codes_change_no_estimate(sim, tmp_path):
    """A cohort's count features are the codes its patients have pre-index, so codes no
    patient has, appended to the vocabulary, leave every estimate byte as it was."""
    wide = tmp_path / "vocab.txt"
    wide.write_text((sim / "vocab.txt").read_text(encoding="utf-8")
                    + "".join(f"UNUSED{i}\n" for i in range(40)), encoding="utf-8")
    written = []
    for name, vocab in [("narrow", sim / "vocab.txt"), ("wide", wide)]:
        estimates = tmp_path / name / "estimates.jsonl"
        assert main(["evaluate", "--refset", str(sim / "refset.jsonl"),
                     "--db", str(sim / "claims.jsonl"), "--vocab", str(vocab),
                     "--seed", "7", "--out", str(estimates)]) == 0
        written.append(estimates.read_text(encoding="utf-8"))
    assert written[0] == written[1], _moved_methods("estimates.jsonl", *written)


def test_refset_matches_golden(tmp_path):
    _build_refset(tmp_path)
    moved = [name for name in REFSET_OUTPUTS if (tmp_path / name).read_text(encoding="utf-8")
             != (GOLDEN / "refset" / "default" / name).read_text(encoding="utf-8")]
    assert not moved, f"build-refset outputs moved: {moved}"


if __name__ == "__main__":
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        built = _simulate(Path(tmp))
        for v in VARIANTS:
            _evaluate_and_report(built, v, Path(tmp) / v)
            (GOLDEN / v).mkdir(parents=True, exist_ok=True)
            for name in OUTPUTS:
                shutil.copyfile(Path(tmp) / v / name, GOLDEN / v / name)
        _build_refset(Path(tmp))
        for name in REFSET_OUTPUTS:
            shutil.copyfile(Path(tmp) / name, GOLDEN / "refset" / "default" / name)
