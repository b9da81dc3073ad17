"""Threshold rules, system grades and the multi-system target."""

import numpy as np
import pytest

from conftest import make_matrix
from multisys.indices import (
    MissingAnalyteError, SystemDefinition, SystemsError, ThresholdRule,
    compute_indices, default_systems, evaluate_rule, prevalence_summary,
    systems_from_json,
)
from multisys.ingest import ColumnSchema, default_schema


def _schemas(*names):
    out = []
    for n in names:
        kind = "semiquant" if n in ("PRO", "LEU", "NIT", "KET", "ERY") else "continuous"
        fill = "mode" if kind == "semiquant" else "median"
        out.append(ColumnSchema(n, kind, fill_policy=fill))
    return out


def test_rule_directions():
    above = ThresholdRule("X", "above", 7.0)
    below = ThresholdRule("X", "below", 1.04)
    at_or_above = ThresholdRule("X", "at-or-above", 1.0)
    assert not evaluate_rule(7.0, above)       # strict
    assert evaluate_rule(7.0001, above)
    assert not evaluate_rule(1.04, below)      # strict
    assert evaluate_rule(1.0399, below)
    assert evaluate_rule(1.0, at_or_above)     # inclusive: 1+ fires
    assert not evaluate_rule(0.5, at_or_above)  # trace does not


def test_rule_validation():
    with pytest.raises(SystemsError):
        ThresholdRule("X", "equals", 1.0)
    with pytest.raises(SystemsError):
        ThresholdRule("X", "above", float("nan"))
    with pytest.raises(SystemsError):
        SystemDefinition("s", (ThresholdRule("X", "above", 1.0),))  # needs 2-3
    # both would be "GLU above 7" in prevalence.json's per_rule breakdown
    with pytest.raises(SystemsError, match="more than one rule GLU above 7$"):
        SystemDefinition("s", (ThresholdRule("GLU", "above", 7.0000001),
                               ThresholdRule("GLU", "above", 7.0000002)))


def test_hand_computed_indices():
    names = ("Cr", "BUN", "PRO", "TG", "LDL-c", "HDL-c",
             "WBC", "LEU", "NIT", "GLU", "KET")
    # row 0: all normal; row 1: kidney 2 + lipid 1; row 2: metabolic max grade
    rows = [
        [70, 5.0, 0.0, 1.0, 2.0, 1.5, 6.0, 0.0, 0.0, 5.0, 0.0],
        [120, 9.0, 0.0, 2.0, 2.0, 1.5, 6.0, 0.0, 0.0, 5.0, 0.0],
        [70, 5.0, 0.0, 1.0, 2.0, 1.5, 6.0, 0.0, 0.0, 8.0, 2.0],
    ]
    matrix = make_matrix(rows, _schemas(*names))
    idx = compute_indices(matrix, default_systems())
    assert list(idx.grades["kidney"]) == [0, 2, 0]
    assert list(idx.grades["lipid"]) == [0, 1, 0]
    assert list(idx.grades["metabolic"]) == [0, 0, 2]
    assert list(idx.burden_score) == [0, 3, 2]
    assert list(idx.affected_systems) == [0, 2, 1]
    assert list(idx.target_multi) == [False, True, False]
    assert list(idx.flags["kidney"]) == [False, True, False]


def test_metabolic_grade_caps_at_two():
    # The metabolic system has exactly two rules, so its grade cannot exceed 2.
    systems = default_systems()
    metabolic = [s for s in systems if s.name == "metabolic"][0]
    assert len(metabolic.rules) == 2


def test_missing_analyte_raises():
    matrix = make_matrix([[70.0]], _schemas("Cr"))
    with pytest.raises(MissingAnalyteError, match="BUN"):
        compute_indices(matrix, default_systems())


def test_default_systems_thresholds():
    by_name = {s.name: s for s in default_systems()}
    kidney = {r.analyte: (r.direction, r.cutoff) for r in by_name["kidney"].rules}
    assert kidney["Cr"] == ("above", 110.0)
    assert kidney["BUN"] == ("above", 8.2)
    assert kidney["PRO"] == ("at-or-above", 1.0)
    lipid = {r.analyte: (r.direction, r.cutoff) for r in by_name["lipid"].rules}
    assert lipid["TG"] == ("above", 1.70)
    assert lipid["LDL-c"] == ("above", 3.37)
    assert lipid["HDL-c"] == ("below", 1.04)
    inflamm = {r.analyte: (r.direction, r.cutoff) for r in by_name["inflamm"].rules}
    assert inflamm["WBC"] == ("above", 10.0)
    metabolic = {r.analyte: (r.direction, r.cutoff) for r in by_name["metabolic"].rules}
    assert metabolic["GLU"] == ("above", 7.0)
    assert metabolic["KET"] == ("at-or-above", 1.0)


def test_prevalence_summary_counts():
    names = ("Cr", "BUN", "PRO", "TG", "LDL-c", "HDL-c",
             "WBC", "LEU", "NIT", "GLU", "KET")
    rows = [
        [120, 9.0, 0.0, 2.0, 2.0, 1.5, 6.0, 0.0, 0.0, 5.0, 0.0],
        [70, 5.0, 0.0, 1.0, 2.0, 1.5, 6.0, 0.0, 0.0, 5.0, 0.0],
    ]
    matrix = make_matrix(rows, _schemas(*names))
    summary = prevalence_summary(compute_indices(matrix, default_systems()))
    assert summary["n"] == 2
    assert summary["target_prevalence"] == 0.5
    assert summary["target_count"] == 1
    assert summary["systems"]["kidney"]["prevalence"] == 0.5
    assert summary["systems"]["kidney"]["per_rule"]["Cr above 110"] == 0.5


def test_systems_from_json_roundtrip(tmp_path):
    import json
    cfg = {"systems": [
        {"name": "a", "rules": [
            {"analyte": "X", "direction": "above", "cutoff": 1.0},
            {"analyte": "Y", "direction": "below", "cutoff": 2.0}]},
    ]}
    path = tmp_path / "systems.json"
    path.write_text(json.dumps(cfg))
    systems = systems_from_json(str(path))
    assert systems[0].name == "a"
    assert systems[0].rules[0] == ThresholdRule("X", "above", 1.0)


def test_default_schema_supports_default_systems():
    names = {s.name for s in default_schema()}
    for system in default_systems():
        for rule in system.rules:
            assert rule.analyte in names
