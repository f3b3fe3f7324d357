"""Span tracer installed from outside the program, for the traced runs only.

Each hook replaces a public function at the name its caller resolves
(``trialbench.estimators.methods.cox_fit``, not ``survival.cox_fit``,
because ``methods.py`` imports it by name). A hook records one span --
name, start, end, parent -- and the counts derived from the call's
arguments and return value, and counts the numpy RuntimeWarnings raised
while it is the innermost span. Spans stay in memory until the
process writes them out.
"""

from __future__ import annotations

import importlib
import os
import time
import warnings
from collections import Counter


def _support(n1, n2, m) -> int:
    return min(m, n1) - max(0, m - n2) + 1


def _count_read(t, args, kw, result):
    t.counts["formats.bytes_read"] += os.path.getsize(args[0])


def _count_written(t, args, kw, result):
    t.counts["formats.bytes_written"] += os.path.getsize(args[0])


def _count_db(t, args, kw, result):
    t.counts["cohort.patients_loaded"] += len(result.patients)


def _count_cohort(t, args, kw, result):
    t.counts["cohort.patients_scanned"] += len(args[0].patients)
    if hasattr(result, "patient_ids"):
        t.counts["cohort.rows_kept"] += len(result.patient_ids)
    else:
        t.counts["cohort.skipped_entries"] += 1


def _count_logistic(t, args, kw, result):
    t.counts["propensity.fit_logistic_iters"] += result.iterations


def _count_match(t, args, kw, result):
    t.counts["propensity.matched_rows"] += 2 * len(result)
    t.counts["propensity.offered_rows"] += len(args[0])


def _count_cox(t, args, kw, result):
    t.counts["survival.cox_fit_calls"] += 1
    t.counts["survival.cox_fit_iters"] += result.iterations


def _count_aft(t, args, kw, result):
    t.counts["survival.aft_fit_calls"] += 1
    t.counts["survival.aft_fit_iters"] += result.iterations
    t.counts["survival.aft_converged"] += bool(result.converged)


def _count_arms(t, args, kw, result):
    t.counts["ingest.arms_parsed"] += len(result.arms)


def _count_tables(t, args, kw, result):
    t.counts["ingest.tables"] += len(result)


def _count_family_p(t, args, kw, result):
    n1, n2, m = args[:3]
    t.counts["exact.family_p_evals"] += 1
    t.counts["exact.support_cells"] += _support(n1, n2, m)


def _count_prefilter(t, args, kw, result):
    t.counts["refset.prefilter_in"] += len(args[0])
    t.counts["refset.prefilter_kept"] += len(result)


def _count_entries(t, args, kw, result):
    t.counts["refset.entries"] += len(args[0].entries)


# (module, attribute, span name, counter). The span name's first part is
# the layer the time is charged to.
HOOKS = [
    ("trialbench.cohort", "read_jsonl", "formats.read_jsonl", _count_read),
    ("trialbench.refset", "read_jsonl", "formats.read_jsonl", _count_read),
    ("trialbench.cli", "read_jsonl", "formats.read_jsonl", _count_read),
    ("trialbench.cli", "write_jsonl", "formats.write_jsonl", _count_written),
    ("trialbench.refset", "write_jsonl", "formats.write_jsonl", _count_written),
    ("trialbench.cli", "sha256_file", "formats.sha256_file", None),
    ("trialbench.refset", "sha256_file", "formats.sha256_file", None),
    ("trialbench.cohort", "load_patient_db", "cohort.load_patient_db", _count_db),
    ("trialbench.cohort", "build_cohort", "cohort.build_cohort", _count_cohort),
    ("trialbench.cli", "run_all_methods", "methods.run_all_methods", None),
    ("trialbench.estimators.methods", "rmst_regression", "methods.rmst_regression", None),
    ("trialbench.estimators.methods", "rmst_aipw", "methods.rmst_aipw", None),
    ("trialbench.estimators.methods", "fit_logistic", "propensity.fit_logistic", _count_logistic),
    ("trialbench.estimators.methods", "match_pairs", "propensity.match_pairs", _count_match),
    ("trialbench.estimators.methods", "compute_weights", "propensity.compute_weights", None),
    ("trialbench.estimators.methods", "cox_fit", "survival.cox_fit", _count_cox),
    ("trialbench.estimators.methods", "km_curve", "survival.km", None),
    ("trialbench.estimators.methods", "rmst", "survival.km", None),
    ("trialbench.estimators.methods", "event_time_horizon", "survival.event_time_horizon", None),
    ("trialbench.estimators.methods", "aft_fit", "survival.aft_fit", _count_aft),
    ("trialbench.ingest", "parse_dump", "ingest.parse_dump", _count_arms),
    ("trialbench.ingest", "map_drug", "ingest.map_drug", None),
    ("trialbench.ingest", "filter_arms", "ingest.filter_arms", None),
    ("trialbench.ingest", "map_outcomes", "ingest.map_outcomes", None),
    ("trialbench.ingest", "aggregate", "ingest.aggregate", _count_tables),
    ("trialbench.ingest.DrugDictionary", "load", "ingest.load_dictionary", None),
    ("trialbench.ingest.OutcomeDictionary", "load", "ingest.load_dictionary", None),
    ("trialbench.exact", "min_achievable_p", "exact.min_achievable_p", None),
    ("trialbench.exact", "p_weak", "exact.p_value", None),
    ("trialbench.exact", "p_strong", "exact.p_value", None),
    ("trialbench.exact", "_family_p_all", "exact.family_p_all", _count_family_p),
    ("trialbench.exact", "bh_reject", "exact.bh", None),
    ("trialbench.exact", "bh_qvalues", "exact.bh", None),
    ("trialbench.refset", "load", "refset.load", None),
    ("trialbench.refset", "build", "refset.build", None),
    ("trialbench.refset", "prefilter", "refset.prefilter", _count_prefilter),
    ("trialbench.refset", "save", "refset.save", _count_entries),
    ("trialbench.refset", "save_drop_report", "refset.save", None),
    ("trialbench.metrics", "score", "metrics.score", None),
    ("trialbench.metrics", "pr_curve", "metrics.pr_curve", None),
]


def _resolve(path: str):
    """Import a module path, or a class inside one ("pkg.mod.Class")."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, counter):
        layer = name.split(".", 1)[0]

        def hooked(*args, **kwargs):
            idx = self.begin(name)
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self.counts[f"numpy_warnings.{layer}"] += sum(
                issubclass(w.category, RuntimeWarning) for w in caught)
            if counter is not None:
                try:
                    counter(self, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    self.counts["trace.count_errors"] += 1
            return result

        hooked.__wrapped__ = fn
        return hooked

    def install(self):
        """Replace every hooked name; a name the program no longer has is noted."""
        for owner_path, attr, name, counter in HOOKS:
            try:
                owner = _resolve(owner_path)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            hooked = self.wrap(fn, name, counter)
            setattr(owner, attr, staticmethod(hooked) if isinstance(owner, type) else hooked)
