"""The input contract, checked through one stage runner and one assertion.

A tiny seeded pipeline (simulate, build-refset, evaluate, report) gives one valid copy of
each input. A case breaks one input file or flag and runs the stage that reads it
(`_stage`), every other input coming from the valid pipeline. It must exit 2 with a message
that starts `error: <file>: ` and names the field, key, trial or arm at fault (a flag
error names the flag), write no output and leave no *.tmp file (`_assert_input_error`).
Two tables hold the cases:

- FIELDS: each typed field of each JSON input is swapped to every JSON kind it does not
  take, or dropped. A trial dump line with a bad field is a line diagnostic naming the
  field instead (the run goes on, as for any malformed dump line), and the swaps in
  TOLERATED exit 0 and write the same bytes.
- CASES: wrong values and structures, one row each.

Each JSONL input, and evaluate's --resume part file, is also run with its last line
repeated, dropped, or cut in the middle (LINE_EDITS); the cases in LINE_TOLERATED exit 0.

A field is a key of an object, or a number or code inside a list (a gamma entry, a dense
feature, an event's day, kind or code), or an object inside a list (a trials entry, a dump
outcome_events entry).
"""

import errno
import json
import math
import os

import pytest

from trialbench import formats
from trialbench.cli import main
from trialbench.formats import read_jsonl, sha256_file, write_jsonl
from trialbench.ingest import MAX_POOLED_ARM

SCENARIO = {  # every optional key at its default, so dropping it changes no byte
    "claims": {"n_patients": 400, "n_dense_features": 2, "n_code_features": 2,
               "code_prob": 0.3, "gamma": [0.0] * 4, "beta": 0.0, "eta": [0.0] * 4,
               "lambda0": 0.002, "shape": 1.0, "censoring_rate": 0.0, "horizon_days": 1000.0,
               "drug_a": "DRUG_A", "drug_b": "DRUG_B", "outcome_code": "OUTCOME",
               "n_noise_codes": 2},
    "trials": [{"drug_a": "DRUG_A", "drug_b": "DRUG_B", "outcome": "OUTCOME", "p_a": 0.35,
                "p_b": 0.1, "n_a": 400, "n_b": 400, "n_trials": 1}],
}

# subcommand -> {input flag: the file of the valid pipeline it reads}, in pipeline order
INPUTS = {
    "simulate": {"--scenario": "scenario.json"},
    "build-refset": {"--dump": "trial_dump.jsonl", "--drug-dict": "drug_dict.tsv",
                     "--outcome-dict": "outcome_dict.tsv"},
    "evaluate": {"--refset": "refset.jsonl", "--db": "claims.jsonl", "--vocab": "vocab.txt",
                 "--dense-features": "dense_features.jsonl", "--config": "run.cfg"},
    "report": {"--estimates": "estimates.jsonl", "--refset": "refset.jsonl"},
}
# subcommand -> its other flags; an output flag's value is relative to the output directory
FLAGS = {
    "simulate": {"--seed": "3", "--out-dir": ""},
    "build-refset": {"--out": "refset.jsonl"},
    "evaluate": {"--methods": "cox_unadjusted,rmst_km_unadjusted", "--seed": "5",
                 "--out": "estimates.jsonl"},
    "report": {"--out": "report"},
}
OUT_FLAGS = ("--out", "--out-dir")
OUTPUTS = {
    "simulate": ("claims.jsonl", "dense_features.jsonl", "vocab.txt", "ground_truth.json",
                 "trial_dump.jsonl", "drug_dict.tsv", "outcome_dict.tsv"),
    "build-refset": ("refset.jsonl", "refset.jsonl.drops.tsv", "refset.jsonl.diagnostics.tsv"),
    "evaluate": ("estimates.jsonl",),
    "report": ("report.table.tsv", "report.pr_curve.tsv"),
}


def _main(command, inputs, out, changes) -> int:
    """main() on command with each input file from inputs and each output under out, the
    values in changes put in (None leaves a flag out, True gives it alone)."""
    values = {**{flag: inputs / name for flag, name in INPUTS[command].items()},
              **{flag: out / value if flag in OUT_FLAGS else value
                 for flag, value in FLAGS[command].items()}, **changes}
    return main([command, *(part for flag, value in values.items() if value is not None
                            for part in ((flag,) if value is True else (flag, str(value))))])


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The valid pipeline's inputs and outputs, each file by name."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "scenario.json").write_text(json.dumps(SCENARIO))
    (root / "run.cfg").write_text("# every setting at its default\n")
    for command in INPUTS:
        assert _main(command, root, root, {}) == 0, command
    return root


def _stage(command, changes, base, work):
    """Run command with changes made to its inputs, each other input coming from base and
    each output going under work/out. changes maps an input flag to an edit of its file's
    valid text, giving the broken text or bytes (None: no file); --resume to such an edit
    of the valid run's part file, put in the output directory; an output flag to a
    function that makes an obstacle in the output directory and returns (the flag's value,
    the path the error names); any other flag to its value. The broken files are written
    in work; report's --refset gets base's estimates, headed with the broken set's SHA-256.
    Returns (exit code, the path the error names, or None for a flag)."""
    values, path = {}, None
    for flag, change in changes.items():
        if flag in OUT_FLAGS:  # the output path, and the path its error names
            values[flag], path = change(work / "out")
            continue
        if flag == "--resume":  # base's part file, changed, where the run looks for it
            [part] = (base / "estimates.jsonl.parts").iterdir()
            path = work / "out" / "estimates.jsonl.parts" / part.name
            path.parent.mkdir(parents=True)
            path.write_text(change(part.read_text(encoding="utf-8")), encoding="utf-8")
            values[flag] = True
            continue
        if flag not in INPUTS[command]:
            values[flag] = change
            continue
        name = INPUTS[command][flag]
        broken = change((base / name).read_text(encoding="utf-8"))
        values[flag] = work / name
        if isinstance(broken, bytes):
            values[flag].write_bytes(broken)
        elif broken is not None:
            values[flag].write_text(broken, encoding="utf-8")
        path = path or values[flag]
    if command == "report" and "--refset" in changes and values["--refset"].exists():
        header, rows = read_jsonl(base / "estimates.jsonl")
        values["--estimates"] = work / "estimates.jsonl"
        write_jsonl(values["--estimates"], rows,
                    header={**header, "refset_sha256": sha256_file(values["--refset"])})
    return _main(command, base, work / "out", values), path


def _outputs(command, directory) -> dict:
    """The files command wrote in directory, by name; the estimates without their header,
    which holds the reference set's SHA-256."""
    written = {name: (directory / name).read_bytes() for name in OUTPUTS[command]
               if (directory / name).exists()}
    if command == "evaluate" and written:
        written["estimates.jsonl"] = written["estimates.jsonl"].split(b"\n", 1)[1]
    return written


class Leading(str):
    """A name that the message must start with, right after its `error: <path>: ` prefix."""


def _assert_input_error(status, err, work, path, names):
    """Exit 2 with a message that starts `error: <path>: ` (any message for a flag, path
    None) and holds each of names, a Leading one right after the prefix; nothing under
    work/out but an output path's obstacle, the path at fault or a directory above it; no
    *.tmp under work."""
    prefix = "" if path is None else f"error: {path}: "
    assert status == 2, f"exit {status}: {err!r}"
    assert err.startswith(prefix), err
    # a name must follow the prefix, whose path may hold it too; a usage text names every flag
    message = err[len(prefix):] if path else err.strip().split("\n")[-1]
    assert [name for name in names if name not in message] == [], err
    assert all(message.startswith(name) for name in names if isinstance(name, Leading)), err
    out = work / "out"
    assert [p for p in [out, *out.rglob("*")] if p.exists()
            and not (path and (p == path or p in path.parents))] == []
    assert list(work.rglob("*.tmp")) == []


# ---- FIELDS: every JSON kind of every typed field ----

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
        ((0, "methods"), {"list"}, "methods"),
        *[((1, key), kinds, key) for key, kinds in [
            ("drug_a", {"string"}), ("drug_b", {"string"}), ("outcome_code", {"string"}),
            ("method_id", {"string"}), ("scale", {"string"}), ("point", NUMBER | {"null"}),
            ("converged", {"boolean"}), ("std_error", NUMBER | {"null"}),
            ("n_used", {"integer"}), ("note", {"string"})]],
    ],
}

# (file, path, kind) -> why each stage that reads it exits 0 and writes the same bytes
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


def _swap(name, path, value):
    """Edit of the text of file name: the field at path set to value, or dropped."""
    def edit(text):
        if not name.endswith(".jsonl"):
            return json.dumps(_mutated(json.loads(text), path, value))
        records = [json.loads(line) for line in text.splitlines()]
        return "".join(json.dumps(record) + "\n" for record in _mutated(records, path, value))
    return edit


FIELD_CASES = [(name, path, kinds, field) for name, fields in FIELDS.items()
               for path, kinds, field in fields]


@pytest.mark.parametrize(
    "name,path,kinds,field", FIELD_CASES,
    ids=[f"{name}:{'/'.join(map(str, path))}" for name, path, _, _ in FIELD_CASES])
def test_every_type_swap_exits_2_naming_the_field_or_is_a_documented_tolerance(
        base, tmp_path, capsys, name, path, kinds, field):
    routes = [(command, flag) for command, files in INPUTS.items()
              for flag, file in files.items() if file == name]
    failures = []
    for kind, value in KINDS.items():
        if kind in kinds:
            continue
        for command, flag in routes:
            work = tmp_path / kind / command  # names no field
            work.mkdir(parents=True)
            capsys.readouterr()
            status, broken = _stage(command, {flag: _swap(name, path, value)}, base, work)
            err = capsys.readouterr().err
            written = _outputs(command, work / "out")
            case = f"{command} {name} {'/'.join(map(str, path))} -> {kind}"
            reason = TOLERATED.get((name, path, kind))
            if name == "trial_dump.jsonl":
                diagnostics = written.get("refset.jsonl.diagnostics.tsv", b"").decode()
                if status != 0 or not any(line.startswith("1\t") and field in line
                                          for line in diagnostics.splitlines()):
                    failures.append(f"{case}: exit {status}, diagnostics {diagnostics!r}")
            elif reason is not None:
                want = _outputs(command, base)
                # a dropped section writes the other section's outputs alone
                expect = want if len(path) > 1 else {k: want.get(k) for k in written}
                if status != 0 or not written or written != expect:
                    failures.append(f"{case}: exit {status}, tolerated ({reason}) but "
                                    f"the outputs moved: {err!r}")
            else:
                try:
                    _assert_input_error(status, err, work, broken, [field])
                except AssertionError as exc:
                    failures.append(f"{case}: {exc}")
            if list(work.rglob("*.tmp")):
                failures.append(f"{case}: left a .tmp file")
    assert not failures, "\n".join(failures)


def test_every_tolerance_is_a_swap_that_a_case_makes():
    made = {(name, path, kind) for name, path, kinds, _ in FIELD_CASES
            if name != "trial_dump.jsonl" for kind in KINDS if kind not in kinds}
    assert set(TOLERATED) <= made


# ---- CASES: wrong values and structures ----

KEY = ("DRUG_A", "DRUG_B", "OUTCOME")  # the valid reference set's one entry


def _record(change, line=0):
    """Edit of a JSONL text: change(record) applied to the record on the given line."""
    def edit(text):
        lines = text.splitlines()
        record = json.loads(lines[line])
        change(record)
        lines[line] = json.dumps(record)
        return "\n".join(lines) + "\n"
    return edit


def _first_line_again(text):
    return text + text.split("\n", 1)[0] + "\n"


def _first_line_dropped(text):
    return text.split("\n", 1)[1]


def _header_only(text):
    return text.split("\n", 1)[0] + "\n"


def _header_a_list(text):
    return "[1]\n" + text.split("\n", 1)[1]


def _first_dense_feature_as(literal):
    """Edit of a dense-features text: the first row's first value written as the JSON
    text literal."""
    def edit(text):
        text = _record(lambda record: record["features"].__setitem__(0, "<value>"))(text)
        return text.replace('"<value>"', literal, 1)
    return edit


def _dense_row_for(patient_id):
    """Edit of a dense-features text: one more row, the first row's features for
    patient_id, an id no patient has."""
    def edit(text):
        row = json.loads(text.split("\n", 1)[0])
        return text + json.dumps({**row, "patient_id": patient_id}) + "\n"
    return edit


def _scenario(section, **change):
    """Edit of the scenario text: change made to its claims or first trials entry (a
    non-finite float is written as NaN or Infinity)."""
    def edit(text):
        scenario = json.loads(text)
        (scenario["trials"][0] if section == "trials" else scenario["claims"]).update(change)
        return json.dumps(scenario)
    return edit


def _scenario_case(section, **change):
    """A scenario row: its key is named, and so is its finiteness if its value is not."""
    (key, value), = change.items()
    finite = all(map(math.isfinite, value if isinstance(value, list) else [value]))
    return "simulate", {"--scenario": _scenario(section, **change)}, [
        key, *([] if finite else [f"{key} must be finite"])]


def _second_row_on_other_scale(text):
    """Edit of an estimates text: the first row's method once more for another entry, on
    the other effect scale."""
    record = json.loads(text.splitlines()[1])
    other = {"log_hazard_ratio": "rmst_difference_days"}.get(record["scale"], "log_hazard_ratio")
    record.update(outcome_code="OTHER_OUTCOME", scale=other)
    return text + json.dumps(record) + "\n"


def _first_row_again_negated(text):
    """Edit of an estimates text: the first row once more, its point negated."""
    record = json.loads(text.splitlines()[1])
    return text + json.dumps({**record, "point": -record["point"]}) + "\n"


def _key_repeated(text):
    """Edit of a reference-set text: its strong entry twice, then as a weak one."""
    header, strong = text.splitlines()
    weak = json.dumps({**json.loads(strong), "label": "weak", "direction": "none"})
    return "\n".join([header, strong, strong, weak]) + "\n"


def _pooled_arm_of(*counts):
    """Edit of a trial dump text: one trial per count, each a copy of the first, whose
    DRUG_A arm holds count participants."""
    def edit(text):
        lines = [json.loads(line) for line in text.splitlines()]
        return "".join(json.dumps({**arm, "trial_id": f"T{t}", **(
            {"participant_count": n} if arm["drug_text"] == "DRUG_A" else {})}) + "\n"
            for t, n in enumerate(counts) for arm in lines)
    return edit


def _term_added(term, count):
    """Edit of a trial dump text: the first arm reports term too, with count events."""
    return _record(lambda arm: arm["outcome_events"].append({"term": term, "count": count}))


def _under_a_file(value, at_fault="afile"):
    """Change of an output flag: value under afile, a regular file in the output
    directory; the error names at_fault."""
    def change(out):
        out.mkdir()
        (out / "afile").write_text("a file, not a directory\n")
        return out / "afile" / value, out / at_fault
    return change


def _a_directory(value, made):
    """Change of an output flag: value, where made, a file the stage writes, is a directory."""
    def change(out):
        (out / made).mkdir(parents=True)
        return out / value, out / made
    return change


# case -> (subcommand, {flag: edit of its file's text, or the flag's value}, the names the
# message holds, a Leading one first); the first file changed is the one the message names
CASES = {
    "scenario_not_json": ("simulate", {"--scenario": lambda _: "{broken"}, []),
    "scenario_of_no_section": ("simulate", {"--scenario": lambda _: "{}"},
                               ["'claims'", "'trials'"]),
    # the truth is exact, so mc_samples is no longer a scenario key
    **{f"unknown_scenario_key_{key}": (
        "simulate", {"--scenario": lambda text, key=key: json.dumps({**json.loads(text), key: 1})},
        [Leading(f"unknown scenario key {key!r}")])
       for key in ("bogus", "seed", "Claims", "mc_samples")},
    "negative_arm_size": _scenario_case("trials", n_a=-100),
    "zero_trials": _scenario_case("trials", n_trials=0),
    "negative_patients": _scenario_case("claims", n_patients=-1),
    "code_prob_above_one": _scenario_case("claims", code_prob=2),
    "unknown_claims_key": _scenario_case("claims", seed=3),
    # a draw that leaves one arm empty is no field's fault
    "single_arm_draw": ("simulate", {"--scenario": _scenario("claims", n_patients=1)}, []),
    "negative_horizon": _scenario_case("claims", horizon_days=-5),
    "zero_horizon": _scenario_case("claims", horizon_days=0),
    "negative_censoring_rate": _scenario_case("claims", censoring_rate=-1),
    "infinite_censoring_rate": _scenario_case("claims", censoring_rate=1e400),
    "infinite_shape": _scenario_case("claims", shape=math.inf),
    "infinite_gamma": _scenario_case("claims", gamma=[math.inf, 0, 0, 0]),
    "nan_lambda0": _scenario_case("claims", lambda0=math.nan),
    "nan_beta": _scenario_case("claims", beta=math.nan),
    "nan_eta_entry": _scenario_case("claims", eta=[0.3, math.nan, 0.2, 0.2]),
    "dense_effect_above_bound": _scenario_case("claims", eta=[3.0, 3.0, 0.2, 0.2]),
    "negative_dense_features": _scenario_case("claims", n_dense_features=-1),
    "hazard_too_fast_for_the_truth": _scenario_case("claims", lambda0=1e30),
    "code_effect_too_fast_for_the_truth": _scenario_case("claims", eta=[0.3, 0.3, 800, 0.2]),
    "arm_size_beyond_a_pooled_arm": _scenario_case("trials", n_a=10**30),
    "trials_past_the_larger_arm": _scenario_case("trials", n_trials=10**9),
    "one_trial_past_the_larger_arm": _scenario_case("trials", n_trials=401),
    "patients_past_the_bound": _scenario_case("claims", n_patients=10**12),
    "summed_terms_past_the_participants": (
        "build-refset", {"--dump": _term_added("T2", 300),
                         "--outcome-dict": lambda text: text + "T2\tOUTCOME\n"},
        ["trial T00000 arm T00000-a"]),
    "pooled_arm_past_the_bound": ("build-refset", {"--dump": _pooled_arm_of(MAX_POOLED_ARM + 1)},
                                  ["DRUG_A vs DRUG_B"]),
    "pooled_arm_past_the_bound_over_two_trials": (
        "build-refset", {"--dump": _pooled_arm_of(*[MAX_POOLED_ARM // 2 + 1] * 2)},
        ["DRUG_A vs DRUG_B"]),
    "match_score_not_a_number": ("build-refset", {"--drug-dict": lambda _: (
        "text_pattern\tingredient_id\tmatch_score\nalphazine\tALPHA\tabc\n")}, ["match_score"]),
    "conflicting_outcome_targets": ("build-refset", {"--outcome-dict": lambda _: (
        "source_term_code\ttarget_outcome_code\nT1\tMI\nT1\tSTROKE\n")}, ["'T1'"]),
    "dictionary_row_of_two_columns": ("build-refset", {"--drug-dict": lambda _: (
        "text_pattern\tingredient_id\tmatch_score\nalphazine\tALPHA\n")}, ["bad row"]),
    "truncated_claims_line": ("evaluate", {"--db": lambda text: text.rstrip("\n")[:-5] + "\n"},
                              ["line 400", "invalid JSON"]),
    "duplicate_patient_id": ("evaluate", {"--db": _first_line_again}, ["P0000000"]),
    # without events, a true read as day 1 would still hold a valid window
    "boolean_observation_end": ("evaluate", {"--db": _record(
        lambda record: record.update(observation_end=True, events=[]))}, ["observation_end"]),
    "patient_without_dense_row": ("evaluate", {"--dense-features": _first_line_dropped},
                                  ["no dense-feature row", "P0000000"]),
    "dense_rows_of_unequal_length": ("evaluate", {"--dense-features": _record(
        lambda record: record["features"].append(0.0))}, ["P0000001", "dense features"]),
    "duplicate_dense_row": ("evaluate", {"--dense-features": _first_line_again},
                            ["P0000000", "duplicate patient_id"]),
    "nan_dense_feature": ("evaluate", {"--dense-features": _first_dense_feature_as("NaN")},
                          ["P0000000", "dense features"]),
    **{f"{name}_dense_feature": ("evaluate", {"--dense-features": _first_dense_feature_as(
        literal)}, ["P0000000", "dense features"])
       for name, literal in (("overflowing", "1e400"), ("infinite", "-Infinity"))},
    "integer_dense_feature_beyond_float": (
        "evaluate", {"--dense-features": _first_dense_feature_as("9" * 400)}, []),
    # a string of digits given as each whole row reads as one number per row
    "dense_rows_strings": ("evaluate", {"--dense-features": lambda text: "".join(
        json.dumps({**json.loads(line), "features": "12"}) + "\n" for line in text.splitlines())},
        ["features"]),
    # str() would read these ids as "None" and "7"
    "null_dense_patient_id": ("evaluate", {"--dense-features": _dense_row_for(None)},
                              [" patient_id "]),
    "numeric_dense_patient_id": ("evaluate", {"--dense-features": _dense_row_for(7)},
                                 [" patient_id "]),
    "config_line_without_equals": ("evaluate", {"--config": lambda _: "ridge 1e-6\n"},
                                   ["ridge 1e-6"]),
    "non_numeric_config_value": ("evaluate", {"--config": lambda _: "ridge = abc\n"}, ["abc"]),
    "tau_percentile_above_one": ("evaluate", {"--config": lambda _: "tau_percentile = 1.5\n"},
                                 ["tau_percentile"]),
    "tau_percentile_nan": ("evaluate", {"--config": lambda _: "tau_percentile = nan\n"},
                           ["tau_percentile"]),
    "negative_max_per_arm": ("evaluate", {"--config": lambda _: "max_per_arm = -5\n"},
                             ["max_per_arm"]),
    # every estimate compares two arms, so an arm of no patients is never enough
    "zero_min_per_arm": ("evaluate", {"--config": lambda _: "min_per_arm = 0\n"},
                         ["min_per_arm"]),
    "ridge_nan": ("evaluate", {"--config": lambda _: "ridge = nan\n"}, ["ridge"]),
    "misspelt_config_key": ("evaluate", {"--config": lambda _: "calipr_sd_logit = 0.0001\n"},
                            ["'calipr_sd_logit'"]),
    "methods_config_key": ("evaluate", {"--config": lambda _: "methods = cox_psm\n"},
                           ["'methods'"]),
    "repeated_config_key": ("evaluate", {"--config": lambda _: (
        "max_per_arm = 5\nmax_per_arm = 500\n")}, ["'max_per_arm'"]),
    # the run passes --seed too, which must not keep the config seed from being checked
    "negative_config_seed": ("evaluate", {"--config": lambda _: "seed = -1\n"}, ["seed"]),
    "non_numeric_config_seed": ("evaluate", {"--config": lambda _: "seed = abc\n"}, ["abc"]),
    "refset_header_a_list": ("evaluate", {"--refset": _header_a_list}, ["line 1"]),
    "refset_strong_entry_direction_up": ("evaluate", {"--refset": _record(
        lambda record: record.update(direction="up"), line=1)}, ["direction", "'up'"]),
    **{f"repeated_reference_key_in_{command}": (command, {"--refset": _key_repeated}, [repr(KEY)])
       for command in ("evaluate", "report")},
    "reference_set_without_entries": ("report", {"--refset": _header_only},
                                      ["no reference entries"]),
    "estimates_of_another_kind": ("report", {"--estimates": lambda _: (
        '{"kind": "something_else"}\n{"x": 1}\n')}, ["kind 'estimates'"]),
    "estimates_header_a_list": ("report", {"--estimates": _header_a_list}, ["line 1"]),
    "estimates_header_without_rows": ("report", {"--estimates": _header_only},
                                      ["no estimate rows"]),
    "nan_point": ("report", {"--estimates": _record(
        lambda record: record.update(point=math.nan), line=1)}, ["point"]),
    "infinite_point": ("report", {"--estimates": _record(
        lambda record: record.update(point=math.inf), line=1)}, ["point"]),
    "unknown_scale": ("report", {"--estimates": _record(
        lambda record: record.update(scale="risk_difference", point=None), line=1)},
        ["'risk_difference'"]),
    "mixed_scales_in_one_method": ("report", {"--estimates": _second_row_on_other_scale},
                                   ["cox_unadjusted", "both"]),
    # the later row would replace the first, which it contradicts
    "estimates_row_twice": ("report", {"--estimates": _first_row_again_negated},
                            ["cox_unadjusted", repr(KEY)]),
    "estimates_row_dropped": ("report", {"--estimates": lambda text: "".join(
        line for i, line in enumerate(text.splitlines(keepends=True)) if i != 1)},
        ["no row", repr((*KEY, "cox_unadjusted"))]),
    "estimates_row_of_no_reference_entry": ("report", {"--estimates": lambda text: text + (
        text.splitlines()[1].replace('"OUTCOME"', '"OTHER_OUTCOME"') + "\n")},
        [repr(("DRUG_A", "DRUG_B", "OTHER_OUTCOME", "cox_unadjusted"))]),
    **{f"not_utf8_{command}_{flag[2:]}": (command, {flag: lambda _: b"\xff\n"}, ["utf-8"])
       for command, flags in INPUTS.items() for flag in flags},
    **{f"missing_{command}_{flag[2:]}": (command, {flag: lambda _: None}, ["No such file"])
       for command, flags in INPUTS.items() for flag in flags},
    "simulate_out_dir_a_file": ("simulate", {"--out-dir": _under_a_file("")}, ["File exists"]),
    "build_refset_out_under_a_file": ("build-refset", {"--out": _under_a_file("refset.jsonl")},
                                      ["File exists"]),
    "evaluate_out_under_a_file": ("evaluate", {"--out": _under_a_file(
        "estimates.jsonl", "afile/estimates.jsonl.parts")}, ["Not a directory"]),
    "report_out_under_a_file": ("report", {"--out": _under_a_file("report")}, ["File exists"]),
    # found before the estimation work, not after it
    "evaluate_out_a_directory": ("evaluate", {"--out": _a_directory(
        "estimates.jsonl", "estimates.jsonl")}, ["directory"]),
    "report_table_a_directory": ("report", {"--out": _a_directory("report", "report.table.tsv")},
                                 ["Is a directory"]),
    "thresholds_not_a_number": ("report", {"--thresholds": "abc"}, []),
    "hr_threshold_below_one": ("report", {"--thresholds": "0.5"}, []),
    "nan_threshold": ("report", {"--thresholds": "2,nan"}, []),
    "zero_rmst_threshold": ("report", {"--rmst-thresholds": "0"}, []),
    "empty_thresholds": ("report", {"--thresholds": ""}, []),
    "empty_rmst_thresholds": ("report", {"--rmst-thresholds": ""}, []),
    **{f"alpha_{alpha}": ("build-refset", {"--alpha": alpha}, [])
       for alpha in ("nan", "inf", "-1", "0", "2")},
    "negative_simulate_seed": ("simulate", {"--seed": "-1"}, []),
    "negative_evaluate_seed": ("evaluate", {"--seed": "-3"}, []),
    "no_seed": ("evaluate", {"--seed": None}, []),
    "unknown_method": ("evaluate", {"--methods": "cox_deluxe"}, ["cox_deluxe"]),
    "repeated_method": ("evaluate", {"--methods": "cox_psm,cox_psm"}, []),
    "no_method": ("evaluate", {"--methods": ""}, []),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_broken_input_exits_2_naming_it(base, tmp_path, capsys, case):
    command, changes, names = CASES[case]
    capsys.readouterr()
    status, path = _stage(command, changes, base, tmp_path)
    # a flag error names the flag, not a file
    _assert_input_error(status, capsys.readouterr().err, tmp_path, path,
                        names if path else [*changes, *names])


def test_invalid_claims_line_is_reported_once(base, tmp_path, capsys):
    command, changes, names = CASES["truncated_claims_line"]
    capsys.readouterr()
    status, path = _stage(command, changes, base, tmp_path)
    err = capsys.readouterr().err
    _assert_input_error(status, err, tmp_path, path, names)
    assert err.count("invalid JSON") == 1
    assert f"{path}: line 400: invalid JSON" in err
    assert "malformed content" not in err


def test_a_write_that_fails_of_no_file_names_the_output(base, tmp_path, capsys, monkeypatch):
    """A full disk raises an OSError that names no file; the message names the output."""
    def no_space(text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def full_disk_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        fh.write = no_space
        return fh

    monkeypatch.setattr(formats, "open", full_disk_open, raising=False)
    capsys.readouterr()
    status, _ = _stage("report", {}, base, tmp_path)
    _assert_input_error(status, capsys.readouterr().err, tmp_path,
                        tmp_path / "out" / "report.table.tsv", [Leading("No space left on device")])


def test_a_term_reported_twice_is_summed_on_its_line(base, tmp_path):
    """One term reported twice on an arm, above its participants once summed: a line
    diagnostic, and the run goes on."""
    assert _stage("build-refset", {"--dump": _term_added("OUTCOME", 300)}, base, tmp_path)[0] == 0
    diagnostics = (tmp_path / "out" / "refset.jsonl.diagnostics.tsv").read_text().splitlines()
    assert diagnostics[1].startswith("1\t") and "participant_count" in diagnostics[1]


# ---- Line mutations: a JSONL input, or a --resume part, with its last line repeated or lost

LINE_EDITS = {
    "line_again": lambda text: text + text.splitlines(keepends=True)[-1],
    "cut_at_a_line": lambda text: "".join(text.splitlines(keepends=True)[:-1]),
    "cut_mid_line": lambda text: text[:len(text) - len(text.splitlines()[-1]) // 2 - 1],
}
LINE_CASES = [(command, flag, edit) for command, files in INPUTS.items()
              for flag, name in files.items() if name.endswith(".jsonl") for edit in LINE_EDITS]
LINE_CASES += [("evaluate", "--resume", edit) for edit in LINE_EDITS]
# (subcommand, flag, edit) -> why it exits 0, writing other bytes unless it is a part's edit
LINE_TOLERATED = {
    ("build-refset", "--dump", "cut_at_a_line"): "a trial of one arm compares nothing",
    ("build-refset", "--dump", "cut_mid_line"): "a malformed dump line is a line diagnostic",
    ("evaluate", "--db", "cut_at_a_line"):
        "the claims may hold any patients; a dense row of none is checked, then dropped",
    **{("evaluate", "--resume", edit): "a part that is not whole is recomputed"
       for edit in LINE_EDITS},
}


@pytest.mark.parametrize("command,flag,edit", LINE_CASES,
                         ids=[f"{c}_{f[2:]}_{e}" for c, f, e in LINE_CASES])
def test_a_line_repeated_or_lost_exits_2_or_is_a_documented_tolerance(
        base, tmp_path, capsys, command, flag, edit):
    capsys.readouterr()
    status, path = _stage(command, {flag: LINE_EDITS[edit]}, base, tmp_path)
    err = capsys.readouterr().err
    reason = LINE_TOLERATED.get((command, flag, edit))
    if reason is None:
        _assert_input_error(status, err, tmp_path, path, [])
        return
    assert status == 0, f"tolerated ({reason}), but exit {status}: {err!r}"
    assert list(tmp_path.rglob("*.tmp")) == []
    if flag == "--resume":
        assert _outputs(command, tmp_path / "out") == _outputs(command, base)
