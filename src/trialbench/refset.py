"""Reference-set construction.

Orchestrates ingestion and the exact 2x2 statistics into a classified
strong/weak reference set: odds-ratio bucketing, one exact-test pass per
table that applies the minimum-achievable p-value pre-filter and reads
the observed p-value off the same composite p-value vector, per-family
Benjamini-Hochberg control, and a canonical line-delimited serialization
with embedded provenance.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from . import exact, ingest
from .exact import WEAK_OR_LOW, WEAK_OR_HIGH
from .formats import (InputError, json_number, json_object, json_str, parsing, read_jsonl,
                      sha256_file, write_jsonl, write_lines)

DEFAULT_ALPHA = 0.05

LABEL_STRONG = "strong"
LABEL_WEAK = "weak"

DIRECTION_A = "a_higher"
DIRECTION_B = "b_higher"
DIRECTION_NONE = "none"


@dataclass(frozen=True)
class ReferenceEntry:
    drug_a: str
    drug_b: str
    outcome_code: str
    label: str
    direction: str
    pooled_or: float
    p_value: float
    q_value: float

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.drug_a, self.drug_b, self.outcome_code)


@dataclass
class ReferenceSet:
    entries: list[ReferenceEntry]
    provenance: dict = field(default_factory=dict)


def bucket(tables) -> tuple[list, list]:
    """Partition tables into (strong_candidates, weak_candidates) by pooled OR.

    The weak bucket is the open interval (0.8, 1.25); a point estimate
    exactly on a boundary lands in the strong family.
    """
    strong, weak = [], []
    for table in tables:
        pooled = exact.odds_ratio(table.a, table.n1, table.b, table.n2)
        if WEAK_OR_LOW < pooled < WEAK_OR_HIGH:
            weak.append(table)
        else:
            strong.append(table)
    return strong, weak


def prefilter(candidates, family: str, alpha: float, drop_report: Counter) -> list[tuple]:
    """Test each candidate once, keeping those whose margins can reach p < alpha.

    One composite p-value vector per table gives both the floor over every
    realizable cell and the observed cell's p-value. Returns (table,
    p_value) pairs.
    """
    kept = []
    for table in candidates:
        m = table.a + table.b
        p_all = exact._family_p_all(table.n1, table.n2, m, family)
        if p_all.min() < alpha:
            lo, _ = exact.support(table.n1, table.n2, m)
            kept.append((table, float(p_all[table.a - lo])))
        else:
            drop_report[f"prefilter_{family}"] += 1
    return kept


def _entries_for_family(tested, family: str, alpha: float) -> list[ReferenceEntry]:
    """BH-control one family's (table, p_value) pairs into reference entries."""
    pvals = [p for _, p in tested]
    rejected = exact.bh_reject(pvals, alpha)
    qvals = exact.bh_qvalues(pvals)
    entries = []
    for i in sorted(rejected):
        table = tested[i][0]
        pooled = exact.odds_ratio(table.a, table.n1, table.b, table.n2)
        if family == LABEL_STRONG:
            direction = DIRECTION_A if pooled > 1 else DIRECTION_B
        else:
            direction = DIRECTION_NONE
        entries.append(
            ReferenceEntry(
                drug_a=table.drug_a,
                drug_b=table.drug_b,
                outcome_code=table.outcome_code,
                label=family,
                direction=direction,
                pooled_or=pooled,
                p_value=pvals[i],
                q_value=float(qvals[i]),
            )
        )
    return entries


def build_from_tables(tables, alpha: float, provenance: dict,
                      drop_report: Counter) -> ReferenceSet:
    """Bucket, pre-filter, test, and BH-control pooled tables into a set."""
    strong_cand, weak_cand = bucket(tables)
    strong = prefilter(strong_cand, LABEL_STRONG, alpha, drop_report)
    weak = prefilter(weak_cand, LABEL_WEAK, alpha, drop_report)
    entries = _entries_for_family(strong, LABEL_STRONG, alpha)
    entries += _entries_for_family(weak, LABEL_WEAK, alpha)
    entries.sort(key=lambda e: e.key)
    return ReferenceSet(entries=entries, provenance={
        **provenance, "alpha": alpha, "or_thresholds": [WEAK_OR_LOW, WEAK_OR_HIGH],
        "n_strong_candidates": len(strong), "n_weak_candidates": len(weak)})


def build(dump_path, drug_dict_path, outcome_dict_path, alpha: float):
    """Full pipeline from files: returns (ReferenceSet, drop counts per rule, ParseResult).
    A malformed dump or dictionary raises InputError naming the file."""
    drug_dict = ingest.DrugDictionary.load(drug_dict_path)
    outcome_dict = ingest.OutcomeDictionary.load(outcome_dict_path)
    drops = Counter()
    with parsing(dump_path), open(dump_path, encoding="utf-8") as fh:
        parsed = ingest.parse_dump(fh)
        # arms repeat drug texts, so each distinct text is mapped once
        ingredients = {text: ingest.map_drug(text, drug_dict)
                       for text in dict.fromkeys(arm.drug_text for arm in parsed.arms)}
        mapped = [(arm, ingredients[arm.drug_text]) for arm in parsed.arms]
        arms = [(ingredient, ingest.map_outcomes(arm, outcome_dict))
                for ingredient, arm in ingest.filter_arms(mapped, drops)]
        tables = ingest.aggregate(arms)
    provenance = {
        "dump_sha256": sha256_file(dump_path),
        "drug_dict_sha256": sha256_file(drug_dict_path),
        "outcome_dict_sha256": sha256_file(outcome_dict_path),
        "n_arms_parsed": len(parsed.arms),
        "n_parse_diagnostics": len(parsed.diagnostics),
        "n_tables": len(tables),
    }
    refset = build_from_tables(tables, alpha=alpha, provenance=provenance, drop_report=drops)
    return refset, drops, parsed


def save(refset: ReferenceSet, path):
    header = {"kind": "reference_set", "provenance": refset.provenance}
    write_jsonl(path, map(vars, refset.entries), header=header)


def load(path) -> ReferenceSet:
    """Load a reference set; also accepts externally supplied sets.

    External sets (OMOP/EU-ADR style) only need label strong/weak per
    entry; missing direction defaults to a_higher for strong entries and
    none for weak, missing statistics to NaN. A strong entry's direction
    must be a_higher or b_higher and a weak entry's none. Drug and outcome
    codes must be JSON strings, statistics numbers and the provenance an object.
    Each (drug_a, drug_b, outcome_code) key appears once: a copy would be scored
    once more against the same estimate.
    """
    entries, keys = [], set()
    with parsing(path):
        header, records = read_jsonl(path)
        if header is None or header.get("kind") != "reference_set":
            raise InputError(f"{path}: line 1 is no header of kind 'reference_set'")
        for rec in records:
            label = rec["label"]
            if label not in (LABEL_STRONG, LABEL_WEAK):
                raise ValueError(f"bad label {label!r}")
            allowed = (DIRECTION_A, DIRECTION_B) if label == LABEL_STRONG else (DIRECTION_NONE,)
            direction = rec.get("direction", allowed[0])
            if direction not in allowed:
                raise ValueError(f"bad direction {direction!r} for a {label} entry")
            codes = {key: json_str(rec, key) for key in ("drug_a", "drug_b", "outcome_code")}
            stats = {key: json_number(rec, key) if key in rec else math.nan
                     for key in ("pooled_or", "p_value", "q_value")}
            entry = ReferenceEntry(**codes, label=label, direction=direction, **stats)
            if entry.key in keys:
                raise ValueError(f"duplicate entry {entry.key!r}")
            keys.add(entry.key)
            entries.append(entry)
        provenance = json_object(header, "provenance") if "provenance" in header else {}
    return ReferenceSet(entries=entries, provenance=provenance)


def save_drop_report(drops: Counter, path):
    write_lines(path, ["rule\tcount", *(f"{rule}\t{drops[rule]}" for rule in sorted(drops))])
