"""Command-line pipeline: build-refset, simulate, evaluate, report.

Exit codes: 0 ok, 2 input error, 3 provenance mismatch, 4 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import cohort as cohort_mod
from . import metrics as metrics_mod
from . import refset as refset_mod
from . import synth
from .estimators import (EffectEstimate, METHOD_REGISTRY, RunSettings, failed_estimate,
                         run_all_methods)
from .formats import (InputError, dump_json_line, parsing, read_jsonl, read_kv_config,
                      sha256_file, write_jsonl)

TOOL_VERSION = "0.1.0"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PROVENANCE = 3
EXIT_INTERNAL = 4


class ProvenanceError(Exception):
    pass


def _require_file(path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"missing input file: {p}")
    return p


def cmd_build_refset(args) -> int:
    dump = _require_file(args.dump)
    drug_dict = _require_file(args.drug_dict)
    outcome_dict = _require_file(args.outcome_dict)
    built, drops, parsed = refset_mod.build(
        dump, drug_dict, outcome_dict,
        alpha=args.alpha, use_prefilter=not args.no_prefilter,
    )
    refset_mod.save(built, args.out)
    refset_mod.save_drop_report(drops, str(args.out) + ".drops.tsv")
    if parsed.diagnostics:
        diag_path = Path(str(args.out) + ".diagnostics.tsv")
        lines = ["line_number\tmessage"]
        lines += [f"{d.line_number}\t{d.message}" for d in parsed.diagnostics]
        diag_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(built.entries)} reference entries to {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario_path = _require_file(args.scenario)
    try:
        scenario = json.loads(scenario_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid scenario JSON: {exc}") from exc
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)

    drugs, outcomes = set(), set()
    if "claims" in scenario:
        try:
            config = synth.ScenarioConfig.from_dict(scenario["claims"])
        except (TypeError, ValueError) as exc:
            raise InputError(f"invalid claims scenario: {exc}") from exc
        patients, dense_rows, _ = synth.gen_claims(config, rng)
        write_jsonl(out_dir / "claims.jsonl", patients)
        write_jsonl(out_dir / "dense_features.jsonl", dense_rows)
        (out_dir / "vocab.txt").write_text(
            "\n".join(synth.vocabulary(config)) + "\n", encoding="utf-8")
        n_mc = int(scenario.get("mc_samples", 1_000_000))
        truth = synth.ground_truth(config, rng, n_mc=n_mc)
        (out_dir / "ground_truth.json").write_text(
            dump_json_line(dataclasses.asdict(truth)) + "\n", encoding="utf-8")
        drugs |= {config.drug_a, config.drug_b}
        outcomes.add(config.outcome_code)
    if "trials" in scenario:
        planted = []
        for comp in scenario["trials"]:
            try:
                planted.append(synth.PlantedComparison(**comp))
            except (TypeError, ValueError) as exc:
                raise InputError(f"invalid planted comparison: {exc}") from exc
            drugs |= {comp["drug_a"], comp["drug_b"]}
            outcomes.add(comp["outcome"])
        lines = synth.gen_trial_dump(planted, seed=args.seed + 1)
        (out_dir / "trial_dump.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if drugs:
        (out_dir / "drug_dict.tsv").write_text(
            "\n".join(synth.make_drug_dictionary_rows(drugs)) + "\n", encoding="utf-8")
        (out_dir / "outcome_dict.tsv").write_text(
            "\n".join(synth.make_outcome_dictionary_rows(outcomes)) + "\n", encoding="utf-8")
    if not drugs:
        raise InputError("scenario defines neither 'claims' nor 'trials'")
    print(f"simulation outputs written to {out_dir}")
    return EXIT_OK


def _entry_id(entry) -> str:
    return f"{entry.drug_a}__{entry.drug_b}__{entry.outcome_code}"


def _estimate_record(entry, est: EffectEstimate) -> dict:
    return {
        "drug_a": entry.drug_a,
        "drug_b": entry.drug_b,
        "outcome_code": entry.outcome_code,
        "method_id": est.method_id,
        "scale": est.scale,
        "point": est.point if math.isfinite(est.point) else None,
        "std_error": est.std_error if math.isfinite(est.std_error) else None,
        "converged": bool(est.converged),
        "n_used": int(est.n_used),
        "note": est.note,
    }


def cmd_evaluate(args) -> int:
    refset_path = _require_file(args.refset)
    db_path = _require_file(args.db)
    vocab_path = _require_file(args.vocab)
    dense_path = _require_file(args.dense_features) if args.dense_features else None
    reference = refset_mod.load(refset_path)
    db = cohort_mod.load_patient_db(db_path, vocab_path, dense_features_path=dense_path)

    methods = tuple(METHOD_REGISTRY)
    if args.methods:
        requested = tuple(args.methods.split(","))
        unknown = [m for m in requested if m not in METHOD_REGISTRY]
        if unknown:
            raise InputError(f"unknown methods: {unknown}; registry: {tuple(METHOD_REGISTRY)}")
        methods = requested

    settings_kv = read_kv_config(_require_file(args.config)) if args.config else {}
    with parsing(args.config):
        seed = args.seed if args.seed is not None else (
            int(settings_kv["seed"]) if "seed" in settings_kv else None)
        settings_base = RunSettings(
            ridge=float(settings_kv.get("ridge", 1e-6)),
            caliper_sd_logit=float(settings_kv.get("caliper_sd_logit", 0.2)),
            weight_cap=float(settings_kv.get("weight_cap", 100.0)),
            tau_percentile=float(settings_kv.get("tau_percentile", 0.8)),
            methods=methods,
        )
        max_per_arm = int(settings_kv.get("max_per_arm", cohort_mod.MAX_ARM_SIZE))
        min_per_arm = int(settings_kv.get("min_per_arm", cohort_mod.MIN_ARM_SIZE))
    if seed is None:
        raise InputError("an explicit --seed (or seed= in the run config) is required")

    expected_vocab = reference.provenance.get("db_vocab_sha256")
    if expected_vocab is not None and expected_vocab != sha256_file(vocab_path):
        raise ProvenanceError("reference set was built against a different db vocabulary")

    header = {
        "kind": "estimates",
        "tool_version": TOOL_VERSION,
        "refset_sha256": sha256_file(refset_path),
        "config_sha256": sha256_file(args.config) if args.config else None,
        "seed": seed,
        "methods": list(methods),
    }
    # A part is reused on --resume only if it was written under this exact header.
    part_header = {
        **header,
        "db_sha256": sha256_file(db_path),
        "vocab_sha256": sha256_file(vocab_path),
        "dense_features_sha256": sha256_file(dense_path) if dense_path else None,
    }
    out_path = Path(args.out)
    parts_dir = Path(str(out_path) + ".parts")
    parts_dir.mkdir(parents=True, exist_ok=True)

    root = np.random.SeedSequence(seed)
    entry_seeds = root.generate_state(2 * max(len(reference.entries), 1))
    records = []
    for i, entry in enumerate(reference.entries):
        part = parts_dir / f"{_entry_id(entry)}.jsonl"
        if args.resume and part.is_file():
            found, recs = read_jsonl(part, expect_header=True)
            if found == part_header:
                records.extend(recs)
                continue
        cohort_seed = int(entry_seeds[2 * i])
        method_seed = int(entry_seeds[2 * i + 1])
        built = cohort_mod.build_cohort(db, entry, seed=cohort_seed,
                                        max_per_arm=max_per_arm, min_per_arm=min_per_arm)
        if isinstance(built, cohort_mod.SkipSignal):
            estimates = [failed_estimate(m, METHOD_REGISTRY[m].scale, 0,
                                         f"cohort skipped: {built.reason}") for m in methods]
        else:
            settings = dataclasses.replace(settings_base, seed=method_seed)
            estimates = run_all_methods(built, settings)
        entry_records = [_estimate_record(entry, est) for est in estimates]
        write_jsonl(part, entry_records, header=part_header)
        records.extend(entry_records)

    records.sort(key=lambda r: (r["drug_a"], r["drug_b"], r["outcome_code"], r["method_id"]))
    write_jsonl(out_path, records, header=header)
    print(f"wrote {len(records)} estimate rows to {out_path}")
    return EXIT_OK


def _thresholds(flag: str, text: str | None, scale: str) -> list[float]:
    """Comma-separated thresholds, each finite and in its scale's range."""
    if not text:
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
    estimates_path = _require_file(args.estimates)
    refset_path = _require_file(args.refset)
    header, records = read_jsonl(estimates_path, expect_header=True)
    if header is None or header.get("kind") != "estimates":
        raise InputError(f"{estimates_path}: not an estimates file")
    if not records:
        raise InputError(f"{estimates_path}: no estimate rows")
    if header.get("refset_sha256") != sha256_file(refset_path):
        raise ProvenanceError("estimates were produced against a different reference set")
    reference = refset_mod.load(refset_path)
    with parsing(estimates_path):
        by_method = metrics_mod.effects_by_method(records)

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
        for raw in raw_thresholds:
            mag = metrics_mod.threshold_to_magnitude(scale, raw)
            row = metrics_mod.score(effects, reference, mag, method_id)
            table_lines.append(line(method_id, scale, fmt(raw), fmt(mag), row=row))
        try:
            curve = metrics_mod.pr_curve(effects, reference, scale, method_id)
        except ValueError:
            continue
        curve_lines += [line(method_id, scale, fmt(row.threshold), row=row) for row in curve]

    out_prefix = Path(args.out)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    Path(str(out_prefix) + ".table.tsv").write_text(
        "\n".join(table_lines) + "\n", encoding="utf-8")
    Path(str(out_prefix) + ".pr_curve.tsv").write_text(
        "\n".join(curve_lines) + "\n", encoding="utf-8")
    print(f"wrote report files with prefix {out_prefix}")
    return EXIT_OK


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
    p.add_argument("--alpha", type=float, default=refset_mod.DEFAULT_ALPHA)
    p.add_argument("--no-prefilter", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_refset)

    p = sub.add_parser("simulate", help="generate synthetic claims and/or trial dumps")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="run the estimator suite over a reference set")
    p.add_argument("--refset", required=True)
    p.add_argument("--db", required=True, help="patient event-stream jsonl")
    p.add_argument("--vocab", required=True)
    p.add_argument("--dense-features", default=None)
    p.add_argument("--config", default=None, help="key=value run configuration file")
    p.add_argument("--seed", type=int, default=None)
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
    except (InputError, refset_mod.ingest.DumpError,
            refset_mod.ingest.DictionaryError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ProvenanceError as exc:
        print(f"provenance error: {exc}", file=sys.stderr)
        return EXIT_PROVENANCE
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
