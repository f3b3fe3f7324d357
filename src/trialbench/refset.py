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
from dataclasses import dataclass, field, asdict
from pathlib import Path

from . import exact, ingest
from .exact import WEAK_OR_LOW, WEAK_OR_HIGH
from .formats import InputError, parsing, read_jsonl, sha256_file, write_jsonl

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


def prefilter(candidates, family: str, alpha: float, drop_report=None) -> list[tuple]:
    """Test each candidate once, keeping those whose margins can reach p < alpha.

    One composite p-value vector per table gives both the floor over every
    realizable cell and the observed cell's p-value. Returns (table,
    p_value) pairs; alpha=math.inf keeps every table.
    """
    kept = []
    for table in candidates:
        m = table.a + table.b
        p_all = exact._family_p_all(table.n1, table.n2, m, family)
        if p_all.min() < alpha:
            lo, _ = exact.support(table.n1, table.n2, m)
            kept.append((table, float(p_all[table.a - lo])))
        elif drop_report is not None:
            drop_report.bump(f"prefilter_{family}")
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


def build_from_tables(tables, alpha: float = DEFAULT_ALPHA, provenance: dict | None = None,
                      drop_report=None, use_prefilter: bool = True) -> ReferenceSet:
    """Bucket, pre-filter, test, and BH-control pooled tables into a set."""
    strong_cand, weak_cand = bucket(tables)
    floor_alpha = alpha if use_prefilter else math.inf
    strong = prefilter(strong_cand, LABEL_STRONG, floor_alpha, drop_report)
    weak = prefilter(weak_cand, LABEL_WEAK, floor_alpha, drop_report)
    entries = _entries_for_family(strong, LABEL_STRONG, alpha)
    entries += _entries_for_family(weak, LABEL_WEAK, alpha)
    entries.sort(key=lambda e: e.key)
    prov = dict(provenance or {})
    prov.setdefault("alpha", alpha)
    prov.setdefault("or_thresholds", [WEAK_OR_LOW, WEAK_OR_HIGH])
    prov["n_strong_candidates"] = len(strong)
    prov["n_weak_candidates"] = len(weak)
    return ReferenceSet(entries=entries, provenance=prov)


def build(dump_path, drug_dict_path, outcome_dict_path,
          alpha: float = DEFAULT_ALPHA, use_prefilter: bool = True):
    """Full pipeline from files: returns (ReferenceSet, DropReport, ParseResult)."""
    drug_dict = ingest.DrugDictionary.load(drug_dict_path)
    outcome_dict = ingest.OutcomeDictionary.load(outcome_dict_path)
    with open(dump_path, encoding="utf-8") as fh:
        parsed = ingest.parse_dump(fh)
    drops = ingest.DropReport()
    mapped = [(arm, ingest.map_drug(arm.drug_text, drug_dict)) for arm in parsed.arms]
    arms = ingest.filter_arms(mapped, drops)
    arms = [ingest.map_outcomes(arm, outcome_dict) for arm in arms]
    tables = ingest.aggregate(arms)
    provenance = {
        "dump_sha256": sha256_file(dump_path),
        "drug_dict_sha256": sha256_file(drug_dict_path),
        "outcome_dict_sha256": sha256_file(outcome_dict_path),
        "n_arms_parsed": len(parsed.arms),
        "n_parse_diagnostics": len(parsed.diagnostics),
        "n_tables": len(tables),
    }
    refset = build_from_tables(tables, alpha=alpha, provenance=provenance,
                               drop_report=drops, use_prefilter=use_prefilter)
    return refset, drops, parsed


def save(refset: ReferenceSet, path):
    header = {"kind": "reference_set", "provenance": refset.provenance}
    write_jsonl(path, (asdict(e) for e in refset.entries), header=header)


def load(path) -> ReferenceSet:
    """Load a reference set; also accepts externally supplied sets.

    External sets (OMOP/EU-ADR style) only need label strong/weak per
    entry; missing direction defaults to a_higher for strong entries and
    none for weak, missing statistics to NaN. A strong entry's direction
    must be a_higher or b_higher and a weak entry's none.
    """
    header, records = read_jsonl(path, expect_header=True)
    if header is None or header.get("kind") != "reference_set":
        raise InputError(f"{path}: missing reference_set header line")
    entries = []
    with parsing(path):
        for rec in records:
            label = rec["label"]
            if label not in (LABEL_STRONG, LABEL_WEAK):
                raise ValueError(f"bad label {label!r}")
            allowed = (DIRECTION_A, DIRECTION_B) if label == LABEL_STRONG else (DIRECTION_NONE,)
            direction = rec.get("direction", allowed[0])
            if direction not in allowed:
                raise ValueError(f"bad direction {direction!r} for a {label} entry")
            entries.append(
                ReferenceEntry(
                    drug_a=rec["drug_a"],
                    drug_b=rec["drug_b"],
                    outcome_code=rec["outcome_code"],
                    label=label,
                    direction=direction,
                    pooled_or=float(rec.get("pooled_or", math.nan)),
                    p_value=float(rec.get("p_value", math.nan)),
                    q_value=float(rec.get("q_value", math.nan)),
                )
            )
    return ReferenceSet(entries=entries, provenance=header.get("provenance", {}))


def save_drop_report(drops: ingest.DropReport, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["rule\tcount"]
    for rule in sorted(drops.counts):
        lines.append(f"{rule}\t{drops.counts[rule]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
