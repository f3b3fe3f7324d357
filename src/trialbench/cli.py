"""Command-line pipeline: build-refset, simulate, evaluate, report.

Exit codes: 0 ok, 2 input error, 3 provenance mismatch, 4 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import operator
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import cohort as cohort_mod
from . import metrics as metrics_mod
from . import refset as refset_mod
from . import synth
from .estimators import (EffectEstimate, METHOD_REGISTRY, RunSettings, failed_estimates,
                         run_all_methods)
from .formats import (InputError, dump_json_line, json_list, json_object, json_objects, json_str,
                      parsing, read_jsonl, read_kv_config, sha256_file, write_jsonl, write_lines)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PROVENANCE = 3
EXIT_INTERNAL = 4


class ProvenanceError(Exception):
    pass


def cmd_build_refset(args) -> int:
    built, drops, parsed = refset_mod.build(args.dump, args.drug_dict, args.outcome_dict,
                                            alpha=args.alpha)
    refset_mod.save(built, args.out)
    refset_mod.save_drop_report(drops, str(args.out) + ".drops.tsv")
    if parsed.diagnostics:
        write_lines(str(args.out) + ".diagnostics.tsv", ["line_number\tmessage", *(
            f"{d.line_number}\t{d.message}" for d in parsed.diagnostics)])
    print(f"wrote {len(built.entries)} reference entries to {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario_path = Path(args.scenario)
    with parsing(scenario_path):  # the whole scenario is checked before any output
        scenario = json.loads(scenario_path.read_text(encoding="utf-8"))
        unknown = [key for key in scenario if key not in ("claims", "trials")]
        if unknown:
            raise InputError(f"{scenario_path}: unknown scenario key {unknown[0]!r}; "
                             f"the keys are ['claims', 'trials']")
        config = (synth.ScenarioConfig.from_dict(json_object(scenario, "claims"))
                  if "claims" in scenario else None)
        planted = ([synth.PlantedComparison(**comp) for comp in json_objects(scenario, "trials")]
                   if "trials" in scenario else None)
        if config is None and not planted:
            raise ValueError("scenario defines neither 'claims' nor 'trials'")
        if config is not None:  # raises ValueError on a draw that leaves one arm empty
            patients, dense_rows, _ = synth.gen_claims(config, np.random.default_rng(args.seed))
    out_dir = Path(args.out_dir)

    drugs, outcomes = set(), set()
    if config is not None:
        write_jsonl(out_dir / "claims.jsonl", patients)
        write_jsonl(out_dir / "dense_features.jsonl", dense_rows)
        write_lines(out_dir / "vocab.txt", synth.vocabulary(config))
        truth = synth.ground_truth(config)
        write_jsonl(out_dir / "ground_truth.json", [dataclasses.asdict(truth)])
        drugs |= {config.drug_a, config.drug_b}
        outcomes.add(config.outcome_code)
    if planted is not None:
        drugs |= {drug for comp in planted for drug in (comp.drug_a, comp.drug_b)}
        outcomes |= {comp.outcome for comp in planted}
        write_lines(out_dir / "trial_dump.jsonl",
                    synth.gen_trial_dump(planted, seed=args.seed + 1))
    write_lines(out_dir / "drug_dict.tsv", synth.make_drug_dictionary_rows(drugs))
    write_lines(out_dir / "outcome_dict.tsv", synth.make_outcome_dictionary_rows(outcomes))
    print(f"simulation outputs written to {out_dir}")
    return EXIT_OK


def _part_name(key) -> str:
    """A group's part file name: the SHA-256 of its key, so no two keys share a part
    and no code can point outside the parts directory."""
    return hashlib.sha256(dump_json_line(key).encode("utf-8")).hexdigest() + ".jsonl"


# the fields of an estimate row, and the key that orders the rows of an estimates file
_ROW_FIELDS = {*EffectEstimate._fields, "drug_a", "drug_b", "outcome_code"}
_row_key = operator.itemgetter("drug_a", "drug_b", "outcome_code", "method_id")


def _unmatched_rows(rows, entries, methods) -> tuple[set, set]:
    """The (drug_a, drug_b, outcome_code, method_id) keys of entries x methods that no row
    has, and the row keys of no entry and method; a repeated row is effects_by_method's to
    reject."""
    want = {(*entry.key, method) for entry in entries for method in methods}
    have = set(map(_row_key, rows))
    return want - have, have - want


def _holds_group(rows, entries, methods) -> bool:
    """Whether rows are one whole estimate row for each (entry, method) of a group, each
    on its method's scale and read by report."""
    if any(row.keys() != _ROW_FIELDS for row in rows):
        return False
    try:
        metrics_mod.effects_by_method(rows)
    except (KeyError, TypeError, ValueError, OverflowError):
        return False
    return (not any(_unmatched_rows(rows, entries, methods))
            and all(row["scale"] == METHOD_REGISTRY[row["method_id"]].scale for row in rows))


def _estimate_record(entry, est: EffectEstimate) -> dict:
    return {
        **est._asdict(),
        "drug_a": entry.drug_a,
        "drug_b": entry.drug_b,
        "outcome_code": entry.outcome_code,
        "point": est.point if math.isfinite(est.point) else None,
        "std_error": est.std_error if math.isfinite(est.std_error) else None,
        "converged": bool(est.converged),
        "n_used": int(est.n_used),
    }


def cmd_evaluate(args) -> int:
    out_path = Path(args.out)
    if out_path.is_dir():  # found before the estimation work, not after it
        raise InputError(f"{out_path}: is a directory")
    reference = refset_mod.load(args.refset)
    db = cohort_mod.load_patient_db(args.db, args.vocab, dense_features_path=args.dense_features)

    methods = tuple(METHOD_REGISTRY) if args.methods is None else tuple(args.methods.split(","))
    unknown = [m for m in methods if m not in METHOD_REGISTRY]
    if unknown:
        raise InputError(f"--methods: unknown {unknown}; registry: {tuple(METHOD_REGISTRY)}")
    if len(set(methods)) < len(methods):
        raise InputError(f"--methods {args.methods!r}: a method id is repeated")

    with parsing(args.config):
        settings_kv = read_kv_config(args.config) if args.config else {}
        default = {f.name: f.default for f in dataclasses.fields(RunSettings)
                   if f.name != "methods"}  # the config keys; methods come from --methods
        unknown = [key for key in settings_kv if key not in default]
        if unknown:
            raise InputError(f"{args.config}: unknown config key {unknown[0]!r}; "
                             f"the keys are {list(default)}")
        seed = seed_value(settings_kv["seed"]) if "seed" in settings_kv else None
        seed = args.seed if args.seed is not None else seed  # checked, then overridden
        # each config key is parsed as its default's type; RunSettings checks it
        settings = RunSettings(methods=methods, **{
            key: type(default[key])(value) for key, value in settings_kv.items()
            if key != "seed"})
    if seed is None:
        raise InputError("an explicit --seed (or seed= in the run config) is required")

    vocab_sha256 = sha256_file(args.vocab)
    expected_vocab = reference.provenance.get("db_vocab_sha256")
    if expected_vocab is not None and expected_vocab != vocab_sha256:
        raise ProvenanceError("reference set was built against a different db vocabulary")

    header = {
        "kind": "estimates",
        "tool_version": __version__,
        "refset_sha256": sha256_file(args.refset),
        "config_sha256": sha256_file(args.config) if args.config else None,
        "seed": seed,
        "methods": list(methods),
    }
    # A part is reused on --resume only if it was written under this exact header.
    part_header = {
        **header,
        "db_sha256": sha256_file(args.db),
        "vocab_sha256": vocab_sha256,
        "dense_features_sha256": sha256_file(args.dense_features) if args.dense_features else None,
    }
    parts_dir = Path(str(out_path) + ".parts")

    groups: dict[tuple, list] = {}  # the entries by drug pair
    for entry in reference.entries:
        # an entry with a code the db does not know is a group of its own, skipped alone
        key = entry.key[:2] if all(c in db.vocabulary_set for c in entry.key) else entry.key
        groups.setdefault(key, []).append(entry)
    records = []
    for key, entries in groups.items():
        part = parts_dir / _part_name(key)
        try:  # a missing or unreadable part is recomputed
            found, rows = read_jsonl(part) if args.resume else (None, [])
        except (OSError, ValueError):  # InputError and UnicodeDecodeError are ValueErrors
            found = None
        if found != part_header or not _holds_group(rows, entries, methods):
            drug_a, drug_b = key[:2]
            # 256 is no byte value, so it separates the two codes
            cohort_seed, match_seed = np.random.SeedSequence(
                [seed, *drug_a.encode("utf-8"), 256, *drug_b.encode("utf-8")]).spawn(2)
            built = cohort_mod.build_cohort(
                db, drug_a, drug_b, [e.outcome_code for e in entries], cohort_seed,
                max_per_arm=settings.max_per_arm, min_per_arm=settings.min_per_arm)
            if isinstance(built, cohort_mod.SkipSignal):
                skipped = failed_estimates(methods, 0, f"cohort skipped: {built.reason}")
                per_entry = [skipped] * len(entries)
            else:
                per_entry = run_all_methods(built, dataclasses.replace(settings, seed=match_seed))
            rows = [_estimate_record(entry, est)
                    for entry, estimates in zip(entries, per_entry) for est in estimates]
            write_jsonl(part, rows, header=part_header)
        records.extend(rows)

    records.sort(key=_row_key)
    write_jsonl(out_path, records, header=header)
    print(f"wrote {len(records)} estimate rows to {out_path}")
    return EXIT_OK


def _thresholds(flag: str, text: str | None, scale: str) -> list[float]:
    """Comma-separated thresholds, each finite and in its scale's range; [] when the
    flag is not given (an empty value is rejected)."""
    if text is None:
        return []
    try:
        values = [float(t) for t in text.split(",")]
        for value in values:
            if not math.isfinite(value):
                raise ValueError("thresholds must be finite")
            metrics_mod.threshold_to_magnitude(scale, value)
    except ValueError as exc:
        raise InputError(f"{flag} {text!r}: {exc}") from exc
    return values


def cmd_report(args) -> int:
    hr_thresholds = (_thresholds("--thresholds", args.thresholds, metrics_mod.SCALE_LOG_HR)
                     or list(metrics_mod.FIXED_HR_THRESHOLDS))
    rmst_thresholds = _thresholds("--rmst-thresholds", args.rmst_thresholds,
                                  metrics_mod.SCALE_RMST_DAYS)
    with parsing(args.estimates):  # the reference set's own errors name it
        header, records = read_jsonl(args.estimates)
        if header is None or header.get("kind") != "estimates":
            raise InputError(f"{args.estimates}: line 1 is no header of kind 'estimates'")
        if not records:
            raise InputError(f"{args.estimates}: no estimate rows")
        if json_str(header, "refset_sha256") != sha256_file(args.refset):
            raise ProvenanceError("estimates were produced against a different reference set")
        reference = refset_mod.load(args.refset)
        by_method = metrics_mod.effects_by_method(records)
        # a row lost or added would drop or add a method's call silently
        missing, extra = _unmatched_rows(records, reference.entries, json_list(header, "methods"))
        if missing or extra:
            raise InputError(f"{args.estimates}: " + (
                f"no row for {min(missing, key=repr)!r}" if missing else
                f"a row for {min(extra, key=repr)!r}, of no reference entry and header method"))

    metric_columns = "precision\trecall\trecall_evaluable\ttp\tfp\tfn\tn_evaluable"
    table_lines = [f"method_id\tscale\tthreshold\tthreshold_magnitude\t{metric_columns}"]
    curve_lines = [f"method_id\tscale\tthreshold_magnitude\t{metric_columns}"]

    def fmt(value):
        return "" if value is None else f"{value:.6g}"

    def line(*lead, row):
        return "\t".join([*lead, fmt(row.weighted_precision), fmt(row.recall),
                          fmt(row.recall_evaluable), str(row.tp), str(row.fp), str(row.fn),
                          str(row.n_evaluable)])

    for method_id, (scale, effects) in sorted(by_method.items()):
        raw_thresholds = hr_thresholds if scale == metrics_mod.SCALE_LOG_HR else rmst_thresholds
        rows = metrics_mod.score(effects, reference, [
            metrics_mod.threshold_to_magnitude(scale, raw) for raw in raw_thresholds])
        table_lines += [line(method_id, scale, fmt(raw), fmt(row.threshold), row=row)
                        for raw, row in zip(raw_thresholds, rows)]
        curve_lines += [line(method_id, scale, fmt(row.threshold), row=row)
                        for row in metrics_mod.pr_curve(effects, reference, scale)]

    write_lines(args.out + ".table.tsv", table_lines)
    write_lines(args.out + ".pr_curve.tsv", curve_lines)
    print(f"wrote report files with prefix {args.out}")
    return EXIT_OK


def seed_value(text) -> int:
    """A --seed or config seed: an integer numpy accepts, so not negative."""
    seed = int(text)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {text!r}")
    return seed


def alpha_value(text) -> float:
    """A --alpha: a finite family-wise level in (0, 1]."""
    alpha = float(text)
    if not 0 < alpha <= 1:  # NaN fails every comparison
        raise ValueError(f"alpha must be in (0, 1], got {text!r}")
    return alpha


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trialbench",
        description="Reference-set construction and observational-method benchmarking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-refset", help="build a reference set from a trial dump")
    p.add_argument("--dump", required=True)
    p.add_argument("--drug-dict", required=True)
    p.add_argument("--outcome-dict", required=True)
    p.add_argument("--alpha", type=alpha_value, default=refset_mod.DEFAULT_ALPHA)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_refset)

    p = sub.add_parser("simulate", help="generate synthetic claims and/or trial dumps")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--seed", type=seed_value, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="run the estimator suite over a reference set")
    p.add_argument("--refset", required=True)
    p.add_argument("--db", required=True, help="patient event-stream jsonl")
    p.add_argument("--vocab", required=True)
    p.add_argument("--dense-features", default=None)
    p.add_argument("--config", default=None, help="key=value run configuration file")
    p.add_argument("--seed", type=seed_value, default=None)
    p.add_argument("--methods", default=None, help="comma-separated method ids")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="score estimates against a reference set")
    p.add_argument("--estimates", required=True)
    p.add_argument("--refset", required=True)
    p.add_argument("--thresholds", default=None, help="comma-separated HR thresholds")
    p.add_argument("--rmst-thresholds", default=None, help="comma-separated day thresholds")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ProvenanceError as exc:
        print(f"provenance error: {exc}", file=sys.stderr)
        return EXIT_PROVENANCE
    except Exception as exc:  # noqa: BLE001
        if isinstance(exc, OSError) and exc.filename is not None:
            # a path that cannot be read or written; a rename names its target
            print(f"error: {exc.filename2 or exc.filename}: {exc.strerror}", file=sys.stderr)
            return EXIT_INPUT
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
