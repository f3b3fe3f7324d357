"""Type-swap check over every typed field of every JSON input.

A tiny seeded pipeline (simulate, build-refset, evaluate, report) gives one valid copy of
each input. Each typed field of it, one at a time, is swapped to every JSON kind it does
not take, or dropped, and the stage that reads the file is run again:

- a trial dump line with a bad field is a line diagnostic naming the field (the run goes
  on, as for any malformed dump line);
- any other file makes the stage exit 2 with a message that starts `error: <file>: `
  and names the field, and write no output;
- except for the mutations in TOLERATED, which exit 0 and write the same bytes.

No mutation may exit 4 or leave a *.tmp file. A field is a key of an object, or a number
or code inside a list (a gamma entry, a dense feature, an event's day, kind or code), or an
object inside a list (a trials entry, a dump outcome_events entry).
"""

import json
import shutil
from pathlib import Path

import pytest

from trialbench.cli import main

SCENARIO = {  # every optional key at its default, so dropping it changes no byte
    "claims": {"n_patients": 400, "n_dense_features": 2, "n_code_features": 2,
               "code_prob": 0.3, "gamma": [0.0] * 4, "beta": 0.0, "eta": [0.0] * 4,
               "lambda0": 0.002, "shape": 1.0, "censoring_rate": 0.0, "horizon_days": 1000.0,
               "drug_a": "DRUG_A", "drug_b": "DRUG_B", "outcome_code": "OUTCOME",
               "n_noise_codes": 2},
    "trials": [{"drug_a": "DRUG_A", "drug_b": "DRUG_B", "outcome": "OUTCOME", "p_a": 0.35,
                "p_b": 0.1, "n_a": 400, "n_b": 400, "n_trials": 1}],
}

KINDS = {"string": "7", "integer": 7, "float": 7.5, "boolean": True, "null": None,
         "list": [7], "object": {"7": 7}, "dropped": ...}
NUMBER = {"integer", "float"}
LIST_ELEMENT = {"dropped"}  # a list of any length takes one element fewer

# file -> [(path into the record, the kinds the field takes, the name its errors use)];
# a path starts with the line index of a JSONL file
FIELDS = {
    "scenario.json": [
        (("claims",), {"object"}, "claims"),
        (("trials",), {"list"}, "trials"),
        *[(("claims", key), kinds, key) for key, kinds in [
            ("n_patients", {"integer"}), ("n_dense_features", {"integer"}),
            ("n_code_features", {"integer"}), ("n_noise_codes", {"integer"}),
            ("code_prob", NUMBER), ("beta", NUMBER), ("lambda0", NUMBER), ("shape", NUMBER),
            ("censoring_rate", NUMBER), ("horizon_days", NUMBER), ("gamma", {"list"}),
            ("eta", {"list"}), ("drug_a", {"string"}), ("drug_b", {"string"}),
            ("outcome_code", {"string"})]],
        (("trials", 0), {"object"} | LIST_ELEMENT, "trials"),
        (("claims", "gamma", 0), NUMBER, "gamma"),
        (("claims", "eta", 3), NUMBER, "eta"),
        *[(("trials", 0, key), kinds, key) for key, kinds in [
            ("drug_a", {"string"}), ("drug_b", {"string"}), ("outcome", {"string"}),
            ("p_a", NUMBER), ("p_b", NUMBER), ("n_a", {"integer"}), ("n_b", {"integer"}),
            ("n_trials", {"integer"})]],
    ],
    "trial_dump.jsonl": [
        *[((0, key), kinds, key) for key, kinds in [
            ("trial_id", {"string"}), ("arm_id", {"string"}), ("arm_name", {"string"}),
            ("drug_text", {"string"}), ("participant_count", {"integer"}),
            ("outcome_events", {"list"})]],
        ((0, "outcome_events", 0), {"object"} | LIST_ELEMENT, "outcome_events"),
        ((0, "outcome_events", 0, "term"), {"string"}, "term"),
        ((0, "outcome_events", 0, "count"), {"integer"}, "count"),
    ],
    "claims.jsonl": [
        ((0, "patient_id"), {"string"}, "patient_id"),
        ((0, "observation_start"), {"integer"}, "observation_start"),
        ((0, "observation_end"), {"integer"}, "observation_end"),
        ((0, "events"), {"list"}, "events"),
        ((0, "events", 0, 0), {"integer"}, "day"),
        ((0, "events", 0, 1), {"string"}, "kind"),
        ((0, "events", 0, 2), {"string"}, "code"),
    ],
    "dense_features.jsonl": [
        ((0, "patient_id"), {"string"}, "patient_id"),
        ((0, "features"), {"list"}, "features"),
        ((0, "features", 0), NUMBER, "features"),
    ],
    "refset.jsonl": [
        ((0, "kind"), {"string"}, "kind"),
        ((0, "provenance"), {"object"}, "provenance"),
        *[((1, key), kinds, key) for key, kinds in [
            ("drug_a", {"string"}), ("drug_b", {"string"}), ("outcome_code", {"string"}),
            ("label", {"string"}), ("direction", {"string"}), ("pooled_or", NUMBER),
            ("p_value", NUMBER), ("q_value", NUMBER)]],
    ],
    "estimates.jsonl": [
        ((0, "kind"), {"string"}, "kind"),
        ((0, "refset_sha256"), {"string"}, "refset_sha256"),
        *[((1, key), kinds, key) for key, kinds in [
            ("drug_a", {"string"}), ("drug_b", {"string"}), ("outcome_code", {"string"}),
            ("method_id", {"string"}), ("scale", {"string"}), ("point", NUMBER | {"null"}),
            ("converged", {"boolean"}), ("std_error", NUMBER | {"null"}),
            ("n_used", {"integer"}), ("note", {"string"})]],
    ],
}

# (file, path, kind) -> why the stage exits 0 and writes the same bytes
TOLERATED = {
    **{("scenario.json", ("claims", key), "dropped"): "a claims key defaults to the value given"
       for key in SCENARIO["claims"] if key != "n_patients"},
    ("scenario.json", ("trials", 0, "n_trials"), "dropped"): "n_trials defaults to the 1 given",
    ("scenario.json", ("claims",), "dropped"): "a scenario may hold trials alone",
    ("scenario.json", ("trials",), "dropped"): "a scenario may hold claims alone",
    ("refset.jsonl", (0, "provenance"), "dropped"): "provenance defaults to {}",
    ("refset.jsonl", (1, "direction"), "dropped"): "a strong entry defaults to a_higher",
    **{("refset.jsonl", (1, key), "dropped"): "a missing statistic reads as NaN"
       for key in ("pooled_or", "p_value", "q_value")},
    **{("estimates.jsonl", (1, key), kind): "report does not read it"
       for key, takes in (("std_error", NUMBER | {"null"}), ("n_used", {"integer"}),
                          ("note", {"string"}))
       for kind in KINDS if kind not in takes},
}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The valid pipeline's inputs and outputs, each file by name."""
    root = tmp_path_factory.mktemp("kinds")
    (root / "scenario.json").write_text(json.dumps(SCENARIO))
    assert main(["simulate", "--scenario", str(root / "scenario.json"), "--seed", "3",
                 "--out-dir", str(root)]) == 0
    assert main(["build-refset", "--dump", str(root / "trial_dump.jsonl"),
                 "--drug-dict", str(root / "drug_dict.tsv"),
                 "--outcome-dict", str(root / "outcome_dict.tsv"),
                 "--out", str(root / "refset.jsonl")]) == 0
    assert _evaluate(root, root) == 0
    assert _report(root, root) == 0
    return root


def _evaluate(inputs: Path, out: Path) -> int:
    return main(["evaluate", "--refset", str(inputs / "refset.jsonl"),
                 "--db", str(inputs / "claims.jsonl"), "--vocab", str(inputs / "vocab.txt"),
                 "--dense-features", str(inputs / "dense_features.jsonl"),
                 "--methods", "cox_unadjusted,rmst_km_unadjusted", "--seed", "5",
                 "--out", str(out / "estimates.jsonl")])


def _report(inputs: Path, out: Path) -> int:
    return main(["report", "--estimates", str(inputs / "estimates.jsonl"),
                 "--refset", str(inputs / "refset.jsonl"), "--out", str(out / "report")])


def _mutated(obj, path, value):
    """A deep copy of obj with the field at path set to value, or dropped if value is
    the Ellipsis."""
    obj = json.loads(json.dumps(obj))
    *parents, last = path
    holder = obj
    for step in parents:
        holder = holder[step]
    if value is ...:
        del holder[last]
    else:
        holder[last] = value
    return obj


def _outputs(directory: Path, names) -> dict:
    return {name: (directory / name).read_bytes() for name in names
            if (directory / name).exists()}


SIM_OUTPUTS = ("claims.jsonl", "dense_features.jsonl", "vocab.txt", "ground_truth.json",
               "trial_dump.jsonl", "drug_dict.tsv", "outcome_dict.tsv")


def _stage(name: str, base: Path, work: Path):
    """Run the stage that reads the input file name from work, where it has been written,
    the other inputs coming from base; returns (exit code, outputs by file name)."""
    if name == "scenario.json":
        status = main(["simulate", "--scenario", str(work / name), "--seed", "3",
                       "--out-dir", str(work / "sim")])
        return status, _outputs(work / "sim", SIM_OUTPUTS)
    if name == "trial_dump.jsonl":
        status = main(["build-refset", "--dump", str(work / name),
                       "--drug-dict", str(base / "drug_dict.tsv"),
                       "--outcome-dict", str(base / "outcome_dict.tsv"),
                       "--out", str(work / "refset.jsonl")])
        return status, _outputs(work, ["refset.jsonl.diagnostics.tsv"])
    if name == "estimates.jsonl":
        shutil.copyfile(base / "refset.jsonl", work / "refset.jsonl")
        status = _report(work, work)
        return status, _outputs(work, ["report.table.tsv", "report.pr_curve.tsv"])
    for other in ("claims.jsonl", "dense_features.jsonl", "vocab.txt", "refset.jsonl"):
        if not (work / other).exists():
            shutil.copyfile(base / other, work / other)
    status = _evaluate(work, work)
    written = _outputs(work, ["estimates.jsonl"])
    if status != 0:
        return status, written
    # the header holds the reference set's SHA-256, so only the rows must match
    written["estimates.jsonl"] = written["estimates.jsonl"].split(b"\n", 1)[1]
    if name == "refset.jsonl":  # report reads the reference set too
        assert _report(work, work) == 0
        written.update(_outputs(work, ["report.table.tsv", "report.pr_curve.tsv"]))
    return status, written


def _base_outputs(name: str, base: Path) -> dict:
    if name == "scenario.json":
        return _outputs(base, SIM_OUTPUTS)
    if name == "estimates.jsonl":
        return _outputs(base, ["report.table.tsv", "report.pr_curve.tsv"])
    written = {"estimates.jsonl": (base / "estimates.jsonl").read_bytes().split(b"\n", 1)[1]}
    if name == "refset.jsonl":
        written.update(_outputs(base, ["report.table.tsv", "report.pr_curve.tsv"]))
    return written


CASES = [(name, path, kinds, field) for name, fields in FIELDS.items()
         for path, kinds, field in fields]


@pytest.mark.parametrize("name,path,kinds,field", CASES,
                         ids=[f"{name}:{'/'.join(map(str, path))}" for name, path, _, _ in CASES])
def test_every_type_swap_exits_2_naming_the_field_or_is_a_documented_tolerance(
        base, tmp_path, capsys, name, path, kinds, field):
    text = (base / name).read_text(encoding="utf-8")
    jsonl = name.endswith(".jsonl")
    records = [json.loads(line) for line in text.splitlines()] if jsonl else json.loads(text)
    want = _base_outputs(name, base)
    failures = []
    for kind, value in KINDS.items():
        if kind in kinds:
            continue
        work = tmp_path / kind  # names no field
        work.mkdir()
        mutated = _mutated(records, path, value)
        (work / name).write_text("\n".join(map(json.dumps, mutated)) + "\n" if jsonl
                                 else json.dumps(mutated), encoding="utf-8")
        capsys.readouterr()
        status, written = _stage(name, base, work)
        err = capsys.readouterr().err
        case = f"{name} {'/'.join(map(str, path))} -> {kind}"
        if list(work.rglob("*.tmp")):
            failures.append(f"{case}: left a .tmp file")
        reason = TOLERATED.get((name, path, kind))
        if name == "trial_dump.jsonl":
            diagnostics = written.get("refset.jsonl.diagnostics.tsv", b"").decode()
            if status != 0 or not any(line.startswith("1\t") and field in line
                                      for line in diagnostics.splitlines()):
                failures.append(f"{case}: exit {status}, diagnostics {diagnostics!r}")
        elif reason is not None:
            # a dropped section writes the other section's outputs alone
            expect = want if len(path) > 1 else {k: want.get(k) for k in written}
            if status != 0 or not written or written != expect:
                failures.append(f"{case}: exit {status}, tolerated ({reason}) but "
                                f"the outputs moved: {err!r}")
        elif (status != 2 or written or not err.startswith(f"error: {work / name}: ")
              or field not in err):
            failures.append(f"{case}: exit {status}: {err.strip()!r}")
    assert not failures, "\n".join(failures)


def test_every_tolerance_is_a_swap_that_a_case_makes():
    made = {(name, path, kind) for name, path, kinds, _ in CASES
            if name != "trial_dump.jsonl" for kind in KINDS if kind not in kinds}
    assert set(TOLERATED) <= made
