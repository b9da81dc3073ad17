"""Threshold-based system indices and the multi-system target.

Four organ systems (kidney, lipid, inflammation, metabolic) each carry a
small set of clinical threshold rules.  A system's grade counts how many of
its rules fire; its flag is grade >= 1; the burden score sums the four
grades; the binary target is concurrent abnormality in two or more systems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import MultisysError, check_keys, is_finite, read_file, repeated
from .ingest import FeatureMatrix

class SystemsError(MultisysError):
    """Raised for a malformed threshold rule, system definition or systems config."""


class MissingAnalyteError(MultisysError):
    """Raised when a rule references a column absent from the matrix."""


@dataclass(frozen=True)
class ThresholdRule:
    analyte: str
    direction: str  # "above" | "below" | "at-or-above"
    cutoff: float

    def __post_init__(self):
        if type(self.analyte) is not str:
            raise SystemsError(f"analyte must be a string, got {self.analyte!r}")
        if self.direction not in ("above", "below", "at-or-above"):
            raise SystemsError(f"unknown direction {self.direction!r}")
        if not is_finite(self.cutoff):
            raise SystemsError(f"cutoff must be a finite number, got {self.cutoff!r}")

    @property
    def key(self) -> str:
        """The rule's name in prevalence.json, unique within its system."""
        return f"{self.analyte} {self.direction} {self.cutoff:g}"


@dataclass(frozen=True)
class SystemDefinition:
    name: str
    rules: tuple[ThresholdRule, ...]

    def __post_init__(self):
        if type(self.name) is not str:
            raise SystemsError(f"system name must be a string, got {self.name!r}")
        if len(self.rules) not in (2, 3):
            raise SystemsError(
                f"system {self.name}: expected 2 or 3 rules, got {len(self.rules)}")
        if twice := repeated(rule.key for rule in self.rules):
            raise SystemsError(f"system {self.name}: more than one rule {', '.join(twice)}")


def default_systems() -> list[SystemDefinition]:
    """Standard clinical reference thresholds for the four systems.

    Upper-bound comparisons are strict (">"); urinalysis comparisons are
    inclusive (">= 1+"), so a trace result (0.5) does not fire the rule.
    """
    r = ThresholdRule
    return [
        SystemDefinition("kidney", (
            r("Cr", "above", 110.0),
            r("BUN", "above", 8.2),
            r("PRO", "at-or-above", 1.0),
        )),
        SystemDefinition("lipid", (
            r("TG", "above", 1.70),
            r("LDL-c", "above", 3.37),
            r("HDL-c", "below", 1.04),
        )),
        SystemDefinition("inflamm", (
            r("WBC", "above", 10.0),
            r("LEU", "at-or-above", 1.0),
            r("NIT", "at-or-above", 1.0),
        )),
        SystemDefinition("metabolic", (
            r("GLU", "above", 7.0),
            r("KET", "at-or-above", 1.0),
        )),
    ]


def systems_from_json(path: str) -> list[SystemDefinition]:
    """Load system definitions; a bad file, an unknown key, a malformed entry,
    an empty list or a repeated system name raises SystemsError.  A rule's
    keys are the ThresholdRule fields."""
    def decode(cfg: dict) -> list[SystemDefinition]:
        check_keys(cfg, ("systems",), "systems config")
        systems = [SystemDefinition(check_keys(entry, ("name", "rules"), "system")["name"],
                                    tuple(ThresholdRule(**rule) for rule in entry["rules"]))
                   for entry in cfg["systems"]]
        if not systems:
            raise SystemsError("systems config lists no systems")
        if twice := repeated(s.name for s in systems):
            raise SystemsError(f"more than one system named {', '.join(twice)}")
        return systems
    return read_file(path, decode, SystemsError)


@dataclass
class SystemIndices:
    """Per-patient flags, grades, burden score and binary target."""

    systems: list[str]
    flags: dict[str, np.ndarray]  # name -> (n,) bool
    grades: dict[str, np.ndarray]  # name -> (n,) int
    burden_score: np.ndarray  # (n,) int
    affected_systems: np.ndarray  # (n,) int
    target_multi: np.ndarray  # (n,) bool
    rule_counts: dict[str, dict[str, int]]  # name -> rule key -> patients it fires on

    def __len__(self) -> int:
        return len(self.burden_score)


def evaluate_rule(value: float | np.ndarray, rule: ThresholdRule) -> bool | np.ndarray:
    """Apply one threshold rule; works elementwise on arrays."""
    if rule.direction == "above":
        return value > rule.cutoff
    if rule.direction == "below":
        return value < rule.cutoff
    return value >= rule.cutoff


def compute_indices(matrix: FeatureMatrix, systems: list[SystemDefinition]) -> SystemIndices:
    names = set(matrix.names)
    n = matrix.values.shape[0]
    flags: dict[str, np.ndarray] = {}
    grades: dict[str, np.ndarray] = {}
    rule_counts: dict[str, dict[str, int]] = {}
    burden = np.zeros(n, dtype=int)
    affected = np.zeros(n, dtype=int)
    for system in systems:
        grade = np.zeros(n, dtype=int)
        counts = rule_counts[system.name] = {}
        for rule in system.rules:
            if rule.analyte not in names:
                raise MissingAnalyteError(
                    f"system {system.name}: column {rule.analyte!r} not in matrix")
            fired = evaluate_rule(matrix.column(rule.analyte), rule)
            counts[rule.key] = int(np.count_nonzero(fired))
            grade += fired.astype(int)
        flags[system.name] = grade >= 1
        grades[system.name] = grade
        burden += grade
        affected += (grade >= 1).astype(int)
    return SystemIndices(
        systems=[s.name for s in systems],
        flags=flags,
        grades=grades,
        burden_score=burden,
        affected_systems=affected,
        target_multi=affected >= 2,
        rule_counts=rule_counts,
    )


def prevalence_summary(indices: SystemIndices) -> dict:
    """Cohort-level prevalences plus burden statistics.

    The summary also breaks each system's prevalence down per rule, so the
    relative contribution of e.g. the glucose tail versus urine ketones is
    visible from data.
    """
    n = len(indices)
    if n == 0:
        raise ValueError("empty cohort")
    return {
        "n": n,
        "target_prevalence": float(np.mean(indices.target_multi)),
        "target_count": int(np.sum(indices.target_multi)),
        "systems": {name: {
            "prevalence": float(np.mean(indices.flags[name])),
            "mean_grade": float(np.mean(indices.grades[name])),
            "per_rule": {key: count / n for key, count in indices.rule_counts[name].items()},
        } for name in indices.systems},
        "burden_mean": float(np.mean(indices.burden_score)),
        "burden_sd": float(np.std(indices.burden_score, ddof=1)) if n > 1 else 0.0,
    }
