"""trialbench benchmark: seeded workloads for evaluate/report and build-refset.

Usage (from the repository root):

    python3 perfbench/run.py --workload evaluate-many-entries --seed 1 \\
        --seconds 36 --trace 0

Generates the workload's inputs from --seed, then repeats the workload
for about --seconds, every CLI stage in a fresh child process calling
``trialbench.cli.main``. Every repeat's outputs are checked. The last
stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` (stage invocations), and ``metrics`` -- the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The line
before it holds the details: per-repeat values, output SHA-256 and the
environment. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

RUN_DEADLINE_S = 165.0      # the whole run must end within 180 s
MIN_REPEATS = 3             # untraced repeats in a --trace 0 run
MIN_TRACE_PAIRS = 2         # untraced + traced repeats in a --trace 1 run
SETUP_SAMPLES = 5           # repeats of a --trace 0 run that replay the set-up
ALPHA = 0.05                # build-refset default
# Mean time of one child.HostSampler tick at full host speed, taken on a
# 2-vCPU Xeon VM at 2.1 GHz.
TICK_REF_S = 0.00095
# Share of a stage's time that slows down as much as the tick loop when the
# host slows; the rest is memory-bound and barely slows. Least-squares fits
# over ~300 repeats per workload on that VM gave 0.68 for both evaluate
# workloads and 0.88 for refset-large-tables.
HOST_SENSITIVITY = 0.75
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
LAYERS = ("cli", "formats", "cohort", "propensity", "survival", "methods",
          "ingest", "exact", "refset", "metrics")


@dataclass(frozen=True)
class Workload:
    kind: str               # "evaluate" or "build-refset"
    why: str
    claims: object = None   # inputs.ClaimsShape for evaluate workloads
    trials: object = None   # inputs.TrialShape for build-refset workloads
    report: bool = False    # follow evaluate with report


def workloads(inputs):
    calib_claims = {"n_dense_features": 2, "n_code_features": 2,
                    "gamma": [0.5, 0.5, 0.3, 0.3], "beta": 0.5,
                    "eta": [0.4, 0.4, 0.2, 0.2], "lambda0": 0.003,
                    "censoring_rate": 0.001}
    return {
        "evaluate-many-entries": Workload(
            "evaluate",
            "every entry scans the whole DB but keeps ~2% of it: the many-entries-"
            "over-one-DB shape, where the cohort layer does most of the work",
            claims=inputs.ClaimsShape(n_patients=60_000, n_pairs=8, n_outcomes=5,
                                      background_frac=0.85),
            report=True),
        "evaluate-large-cohort": Workload(
            "evaluate",
            "each cohort is the whole DB (~18k per arm), so the estimator "
            "layers do most of the work and the cohort layer featurizes, not scans",
            claims=inputs.ClaimsShape(n_patients=36_000, n_pairs=1, n_outcomes=6,
                                      background_frac=0.0, hazard_range=(0.002, 0.005),
                                      n_code_features=2, n_noise_codes=1)),
        "refset-large-tables": Workload(
            "build-refset",
            "large pooled 2x2 tables with weak and strong planted odds ratios, so "
            "the exact-test layer does most of the work; evaluate bypasses it",
            trials=inputs.TrialShape(n_comparisons=1_500, n_drugs=60, n_outcomes=12,
                                     min_arm=2_000, max_arm=30_000)),
        # Calibration against the ROADMAP baselines; not part of BENCHMARK.json.
        "calibrate-evaluate-40k": Workload(
            "evaluate", "ROADMAP baseline: 40k patients x 1 entry, count features",
            claims=inputs.ClaimsShape(n_patients=40_000, n_pairs=1, n_outcomes=1,
                                      background_frac=0.0, single_config=calib_claims)),
        "calibrate-refset-2k": Workload(
            "build-refset", "ROADMAP baseline: about 2,000 large pooled tables",
            trials=inputs.TrialShape(n_comparisons=2_000, n_drugs=60, n_outcomes=12,
                                     min_arm=2_000, max_arm=30_000)),
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def nearest_rank(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def ratio(num, den):
    return num / den if den else 0.0


class CheckFailed(Exception):
    pass


class Runner:
    def __init__(self, workload: Workload, seed: int, work: Path, deadline: float,
                 setup_samples: int):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.inputs = work / "in"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.hashes: dict[str, str] = {}
        self.summary: dict = {}
        self.env = dict(os.environ)
        # One BLAS thread: the program's matrices are small, and spinning
        # BLAS threads on a shared 2-core machine turn contention into noise.
        for var in BLAS_ENV:
            self.env.setdefault(var, "1")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.n_repeat = 0
        self.setups_left = setup_samples  # repeats that still replay the set-up

    # -- inputs -------------------------------------------------------
    def generate(self, inputs):
        self.inputs.mkdir(parents=True)
        if self.workload.kind == "evaluate":
            self.summary = inputs.write_claims(self.workload.claims, self.seed, self.inputs)
        else:
            self.summary = inputs.write_trials(self.workload.trials, self.seed, self.inputs)

    def stages(self, out: Path):
        """(argv, set-up paths) per CLI stage of one repeat."""
        i = self.inputs
        if self.workload.kind == "build-refset":
            return [(["build-refset", "--dump", str(i / "trial_dump.jsonl"),
                      "--drug-dict", str(i / "drug_dict.tsv"),
                      "--outcome-dict", str(i / "outcome_dict.tsv"),
                      "--out", str(out / "refset.jsonl")],
                     {"dump": str(i / "trial_dump.jsonl"),
                      "drug_dict": str(i / "drug_dict.tsv"),
                      "outcome_dict": str(i / "outcome_dict.tsv")})]
        out_stages = [(["evaluate", "--refset", str(i / "refset.jsonl"),
                        "--db", str(i / "claims.jsonl"), "--vocab", str(i / "vocab.txt"),
                        "--seed", str(self.seed), "--out", str(out / "estimates.jsonl")],
                       {"refset": str(i / "refset.jsonl"), "db": str(i / "claims.jsonl"),
                        "vocab": str(i / "vocab.txt")})]
        if self.workload.report:
            out_stages.append((["report", "--estimates", str(out / "estimates.jsonl"),
                                "--refset", str(i / "refset.jsonl"),
                                "--rmst-thresholds", "30", "--out", str(out / "report")],
                               None))
        return out_stages

    def warm_up(self):
        """Compile the program's bytecode once, as an installed program has it."""
        subprocess.run([sys.executable, "-c", "import trialbench.cli"], env=self.env,
                       cwd=self.work, check=True, timeout=max(1.0, self.deadline - time.time()))

    # -- one repeat ---------------------------------------------------
    def child(self, argv, setup, trace: bool, out: Path, k: int):
        job = {"argv": argv, "trace": trace, "setup": setup,
               "result": str(out / f"stage{k}.result.json")}
        job_path = out / f"stage{k}.job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        self.attempted += 1
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path)],
                                  env=self.env, cwd=out, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.time()))
        except subprocess.TimeoutExpired:
            raise CheckFailed(f"{argv[0]}: timed out")
        if proc.returncode != 0 or not Path(job["result"]).is_file():
            raise CheckFailed(f"{argv[0]}: child failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
        if result["exit_code"] != 0:
            raise CheckFailed(f"{argv[0]}: exit code {result['exit_code']}: "
                              f"{proc.stderr.strip()[-500:]}")
        return result

    def repeat(self, trace: bool):
        """Run every stage once in a fresh output directory; None if any failed."""
        self.n_repeat += 1
        out = self.work / f"r{self.n_repeat}"
        out.mkdir()
        results = []
        replay = self.setups_left > 0
        try:
            for k, (argv, setup) in enumerate(self.stages(out)):
                results.append(self.child(argv, setup if replay else None, trace, out, k))
                self.check_stage(argv[0], out)
        except CheckFailed as exc:
            self.failed += 1
            self.failures.append(str(exc))
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self.setups_left -= replay
        return results

    # -- output checks ------------------------------------------------
    def check_stage(self, stage: str, out: Path):
        if stage == "evaluate":
            files = [out / "estimates.jsonl"]
            self.check_estimates(files[0])
        elif stage == "report":
            files = [out / "report.table.tsv", out / "report.pr_curve.tsv"]
            self.check_report(files)
        else:
            files = [out / "refset.jsonl", out / "refset.jsonl.drops.tsv"]
            self.check_refset(files[0])
        for f in files:
            if self.hashes.setdefault(f.name, sha256(f)) != sha256(f):
                raise CheckFailed(f"{stage}: {f.name} differs from the first repeat")

    def check_estimates(self, path: Path):
        from trialbench.estimators import METHOD_REGISTRY

        lines = path.read_text(encoding="utf-8").splitlines()
        header, rows = json.loads(lines[0]), [json.loads(x) for x in lines[1:]]
        if header.get("seed") != self.seed or header.get("methods") != list(METHOD_REGISTRY):
            raise CheckFailed("evaluate: estimates header lacks the run's seed or methods")
        entries = self.summary["entries"]
        if len(rows) != entries * len(METHOD_REGISTRY):
            raise CheckFailed(f"evaluate: {len(rows)} rows, expected "
                              f"{entries} x {len(METHOD_REGISTRY)}")
        refset = [json.loads(x) for x in
                  (self.inputs / "refset.jsonl").read_text(encoding="utf-8").splitlines()[1:]]
        expected = {(e["drug_a"], e["drug_b"], e["outcome_code"], m)
                    for e in refset for m in METHOD_REGISTRY}
        got = {(r["drug_a"], r["drug_b"], r["outcome_code"], r["method_id"]) for r in rows}
        if got != expected:
            raise CheckFailed("evaluate: estimate rows do not cover entries x methods")
        available = sum(1 for r in rows if r["converged"] and r["point"] is not None)
        self.summary["estimates_available_frac"] = available / len(rows)

    def check_report(self, files):
        for f in files:
            text = f.read_text(encoding="utf-8") if f.is_file() else ""
            if not text.startswith("method_id\tscale\t") or len(text.splitlines()) < 2:
                raise CheckFailed(f"report: {f.name} missing or empty")

    def check_refset(self, path: Path):
        import inputs

        lines = path.read_text(encoding="utf-8").splitlines()
        header, entries = json.loads(lines[0]), [json.loads(x) for x in lines[1:]]
        expected = self.summary["expected_tables"]
        if header.get("kind") != "reference_set" or \
                header["provenance"].get("n_tables") != len(expected):
            raise CheckFailed("build-refset: header or table count wrong")
        if not entries or [(e["drug_a"], e["drug_b"], e["outcome_code"]) for e in entries] \
                != sorted((e["drug_a"], e["drug_b"], e["outcome_code"]) for e in entries):
            raise CheckFailed("build-refset: no entries, or entries not sorted")
        for e in entries:
            cell = expected.get((e["drug_a"], e["drug_b"], e["outcome_code"]))
            if cell is None:
                raise CheckFailed(f"build-refset: unplanted entry {e}")
            pooled = inputs.odds_ratio(*cell)
            weak = 0.8 < pooled < 1.25
            direction = "none" if weak else ("a_higher" if pooled > 1 else "b_higher")
            if not (math.isclose(e["pooled_or"], pooled, rel_tol=1e-12)
                    and e["label"] == ("weak" if weak else "strong")
                    and e["direction"] == direction
                    and 0.0 < e["p_value"] <= e["q_value"] <= ALPHA):
                raise CheckFailed(f"build-refset: entry disagrees with its pooled table: {e}")
        self.summary["refset_entries"] = len(entries)


# -- metrics ---------------------------------------------------------------

def at_reference_speed(seconds, ticks):
    """A measured time scaled to the reference host speed.

    The host's slowdown is the mean tick over TICK_REF_S; the
    HOST_SENSITIVITY share of the time is taken to have slowed with it.
    """
    slowdown = statistics.fmean(ticks) / TICK_REF_S
    return seconds / (1.0 + HOST_SENSITIVITY * (slowdown - 1.0))


def end_to_end(repeats):
    """Per-run medians of the repeats' times at the reference host speed.

    The rows also keep the measured times (``raw_*``) and the host's
    slowdown, the repeat's mean tick time over TICK_REF_S.
    """
    rows = [{"wall_s": sum(at_reference_speed(r["wall_s"], r["ticks_s"]) for r in rep),
             "setup_s": next((at_reference_speed(r["setup_s"], r["setup_ticks_s"])
                              for r in rep if "setup_s" in r), None),
             "cpu_s": sum(at_reference_speed(r["cpu_s"], r["ticks_s"]) for r in rep),
             "peak_rss_mb": max(r["peak_rss_mb"] for r in rep),
             "main_s": at_reference_speed(rep[0]["wall_s"], rep[0]["ticks_s"]),
             "raw_wall_s": sum(r["wall_s"] for r in rep),
             "raw_setup_s": next((r["setup_s"] for r in rep if "setup_s" in r), None),
             "raw_cpu_s": sum(r["cpu_s"] for r in rep),
             "host_slowdown": statistics.fmean(t for r in rep for t in r["ticks_s"]) / TICK_REF_S}
            for rep in repeats]
    units = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    return {k: {"value": median([row[k] for row in rows if row[k] is not None]), "unit": u}
            for k, u in units.items()}, rows


def span_metrics(rep):
    """Per-layer numbers from one traced repeat (all of its stages)."""
    totals, selfs, calls = {}, dict.fromkeys(LAYERS, 0.0), {}
    counts: dict[str, float] = {}
    wall = covered = 0.0
    for result in rep:
        spans = result["spans"]
        wall += result["wall_s"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                covered += end - start
        for (name, start, end, _), inner in zip(spans, child_time):
            dur = end - start
            totals[name] = totals.get(name, 0.0) + dur
            calls.setdefault(name, []).append(dur)
            selfs[name.split(".", 1)[0]] += dur - inner
            if name == "methods.run_all_methods":
                totals["methods.run_all_methods_self"] = \
                    totals.get("methods.run_all_methods_self", 0.0) + dur - inner
        for key, value in result["counts"].items():
            counts[key] = counts.get(key, 0) + value
    m = {f"{layer}.self_s": selfs[layer] for layer in LAYERS}
    m["other_s"] = wall - covered
    m["trace.wall_s"] = wall
    for metric, span in [
        ("cli.evaluate_s", "cli.evaluate"), ("cli.report_s", "cli.report"),
        ("cli.build_refset_s", "cli.build_refset"),
        ("cohort.load_patient_db_s", "cohort.load_patient_db"),
        ("formats.read_jsonl_s", "formats.read_jsonl"),
        ("formats.write_jsonl_s", "formats.write_jsonl"),
        ("cohort.build_cohort_s", "cohort.build_cohort"),
        ("methods.run_all_methods_self_s", "methods.run_all_methods_self"),
        ("methods.rmst_regression_s", "methods.rmst_regression"),
        ("methods.rmst_aipw_s", "methods.rmst_aipw"),
        ("propensity.fit_logistic_s", "propensity.fit_logistic"),
        ("propensity.match_pairs_s", "propensity.match_pairs"),
        ("propensity.compute_weights_s", "propensity.compute_weights"),
        ("survival.cox_fit_s", "survival.cox_fit"), ("survival.km_s", "survival.km"),
        ("survival.aft_fit_s", "survival.aft_fit"),
        ("ingest.parse_dump_s", "ingest.parse_dump"),
        ("ingest.filter_arms_s", "ingest.filter_arms"),
        ("ingest.map_outcomes_s", "ingest.map_outcomes"),
        ("ingest.aggregate_s", "ingest.aggregate"),
        ("exact.min_achievable_p_s", "exact.min_achievable_p"),
        ("exact.p_value_s", "exact.p_value"), ("exact.bh_s", "exact.bh"),
        ("refset.prefilter_s", "refset.prefilter"), ("refset.save_s", "refset.save"),
        ("metrics.score_s", "metrics.score"), ("metrics.pr_curve_s", "metrics.pr_curve"),
    ]:
        m[metric] = totals.get(span, 0.0)
    cohort_ms = [d * 1000.0 for d in calls.get("cohort.build_cohort", [])]
    m["cohort.build_cohort_p50_ms"] = median(cohort_ms)
    m["cohort.build_cohort_p90_ms"] = nearest_rank(cohort_ms, 0.9)
    for key in ("cohort.patients_loaded", "formats.bytes_read", "formats.bytes_written",
                "cohort.patients_scanned", "cohort.rows_kept", "cohort.skipped_entries",
                "propensity.fit_logistic_iters", "survival.cox_fit_calls",
                "survival.cox_fit_iters", "survival.aft_fit_calls", "survival.aft_fit_iters",
                "ingest.arms_parsed", "ingest.tables", "exact.family_p_evals",
                "exact.support_cells", "refset.entries", "trace.count_errors"):
        m[key] = counts.get(key, 0)
    m["cohort.kept_ratio"] = ratio(m["cohort.rows_kept"], m["cohort.patients_scanned"])
    m["propensity.matched_frac"] = ratio(counts.get("propensity.matched_rows", 0),
                                         counts.get("propensity.offered_rows", 0))
    m["survival.aft_converged_frac"] = ratio(counts.get("survival.aft_converged", 0),
                                             m["survival.aft_fit_calls"])
    m["refset.prefilter_kept_ratio"] = ratio(counts.get("refset.prefilter_kept", 0),
                                             counts.get("refset.prefilter_in", 0))
    for layer in LAYERS:
        m[f"numpy_warnings.{layer}"] = counts.get(f"numpy_warnings.{layer}", 0)
    m["numpy_warnings"] = sum(m[f"numpy_warnings.{layer}"] for layer in LAYERS)
    return m


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_frac", "ratio"),
                         ("_ratio", "ratio"), ("bytes_read", "bytes"),
                         ("bytes_written", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(untraced, traced, runner):
    _, rows = end_to_end(untraced)
    # All layer figures come from the traced repeat with the median wall
    # time, so its self times and other_s add up to its trace.wall_s.
    layer_rows = sorted((span_metrics(rep) for rep in traced), key=lambda r: r["trace.wall_s"])
    m = layer_rows[(len(layer_rows) - 1) // 2]
    m["trace.overhead_s"] = m["trace.wall_s"] - median([row["raw_wall_s"] for row in rows])
    m["trace.missing_hooks"] = len(traced[0][0].get("missing_hooks", []))
    s = runner.summary
    mains = [row["main_s"] for row in rows]
    if runner.workload.kind == "evaluate":
        m["entries_per_s"] = median([s["entries"] / t for t in mains])
        m["patient_entries_per_s"] = median([s["entries"] * s["patients"] / t for t in mains])
        m["tables_per_s"] = 0.0
        m["estimates_available_frac"] = s["estimates_available_frac"]
    else:
        m["entries_per_s"] = m["patient_entries_per_s"] = 0.0
        m["tables_per_s"] = median([len(s["expected_tables"]) / t for t in mains])
        m["estimates_available_frac"] = 0.0
    m["failed_frac"] = ratio(runner.failed, runner.attempted)
    return {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(m.items())}


# -- main ------------------------------------------------------------------

def environment(env):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_env": {k: env[k] for k in BLAS_ENV if k in env},
            "platform": platform.platform()}


def measure(runner: Runner, seconds: float, trace: bool):
    """Repeat until --seconds is used up; the minimum counts always run."""
    start = time.time()
    untraced, traced, durations = [], [], []
    kinds = [False, True] if trace else [False]
    minimum = MIN_TRACE_PAIRS if trace else MIN_REPEATS
    while True:
        for kind in kinds:
            t = time.time()
            rep = runner.repeat(kind)
            durations.append(time.time() - t)
            if rep is not None:
                (traced if kind else untraced).append(rep)
        done = min(len(untraced), len(traced)) if trace else len(untraced)
        elapsed = time.time() - start
        step = median(durations) * len(kinds)
        if time.time() + step > runner.deadline:
            break
        if done >= minimum and elapsed + step > seconds:
            break
        if runner.failed > runner.attempted // 2 + 1:
            break
    return untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.time()
    # SIGTERM unwinds like an exception: subprocess.run kills and waits for
    # the running child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "trialbench" / "cli.py").is_file():
        print(f"error: no trialbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs

    table = workloads(inputs)
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(table)}",
              file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(table[args.workload], args.seed, work, deadline=t_start + RUN_DEADLINE_S,
                    setup_samples=0 if args.trace else SETUP_SAMPLES)
    try:
        t = time.time()
        runner.generate(inputs)
        generate_s = time.time() - t
        runner.warm_up()
        untraced, traced = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if not untraced or (args.trace and not traced):
        print("error: no repeat passed its checks: " + "; ".join(runner.failures[:3]),
              file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(untraced, traced, runner)
    else:
        metrics, _ = end_to_end(untraced)
    details = {
        "workload": args.workload, "why": runner.workload.why, "seed": args.seed,
        "trace": args.trace, "generate_s": generate_s,
        "inputs": {k: v for k, v in runner.summary.items() if k != "expected_tables"},
        "repeats": {"untraced": len(untraced), "traced": len(traced)},
        "per_repeat": end_to_end(untraced)[1],
        "output_sha256": runner.hashes, "failures": runner.failures,
        "missing_hooks": traced[0][0].get("missing_hooks", []) if traced else [],
        "environment": environment(runner.env),
    }
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
