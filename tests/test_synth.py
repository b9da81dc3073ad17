"""Synthetic cohort generator: determinism, marginals and formatting."""

import json
import math

import numpy as np
import pytest

from multisys.synth import (
    ORDINAL_TOKENS, AnalyteSpec, GeneratorSpec, SynthError, default_analytes,
    generate, spec_from_json,
)


def test_generation_is_byte_deterministic():
    assert generate(GeneratorSpec(n=50, seed=123)) == generate(GeneratorSpec(n=50, seed=123))


def test_different_seeds_differ():
    _, rows_a = generate(GeneratorSpec(n=20, seed=1))
    _, rows_b = generate(GeneratorSpec(n=20, seed=2))
    assert rows_a != rows_b


def test_header_matches_analyte_order():
    spec = GeneratorSpec(n=1, seed=0)
    header, _ = generate(spec)
    assert header == [a.name for a in spec.analytes]


def test_continuous_cells_have_units():
    header, rows = generate(GeneratorSpec(n=5, seed=3))
    cr = rows[0][header.index("Cr")]
    assert cr.endswith("μmol/L")
    float(cr.split()[0])  # leading magnitude parses


def test_ordinal_cells_use_tokens():
    header, rows = generate(GeneratorSpec(n=200, seed=4))
    j = header.index("PRO")
    seen = {row[j] for row in rows}
    assert seen <= set(ORDINAL_TOKENS.values())
    assert "negative" in seen


def test_lognormal_median_calibration():
    spec = GeneratorSpec(n=4000, seed=5)
    header, rows = generate(spec)
    by_name = {a.name: a for a in spec.analytes}
    j = header.index("Cr")
    values = np.array([float(row[j].split()[0]) for row in rows])
    assert np.median(values) == pytest.approx(math.exp(by_name["Cr"].mu), rel=0.05)


def test_ordinal_marginals_match_probs():
    # The copula thresholds must leave the level probabilities exact.
    spec = GeneratorSpec(n=8000, seed=6)
    header, rows = generate(spec)
    by_name = {a.name: a for a in spec.analytes}
    j = header.index("LEU")
    counts = {}
    for row in rows:
        counts[row[j]] = counts.get(row[j], 0) + 1
    p_negative = counts.get("negative", 0) / len(rows)
    assert p_negative == pytest.approx(by_name["LEU"].probs[0], abs=0.01)


def test_latent_factor_induces_correlation():
    # TG and HDL-c share the lipid factor with opposite signs.
    spec = GeneratorSpec(n=3000, seed=7)
    header, rows = generate(spec)
    tg = np.array([float(r[header.index("TG")].split()[0]) for r in rows])
    hdl = np.array([float(r[header.index("HDL-c")].split()[0]) for r in rows])
    r = np.corrcoef(np.log(tg), np.log(hdl))[0, 1]
    assert r < -0.15


def test_truncation_bounds_respected():
    spec = GeneratorSpec(n=2000, seed=8)
    header, rows = generate(spec)
    by_name = {a.name: a for a in spec.analytes}
    for name in ("Cr", "GLU", "HCT"):
        j = header.index(name)
        values = np.array([float(row[j].split()[0]) for row in rows])
        a = by_name[name]
        assert values.min() >= a.lower
        assert values.max() <= a.upper


def test_spec_validation():
    with pytest.raises(SynthError):
        AnalyteSpec("X", "weibull")
    with pytest.raises(SynthError):
        AnalyteSpec("X", "normal", sigma=0.0)
    with pytest.raises(SynthError):
        AnalyteSpec("X", "categorical", probs=(0.5, 0.5))  # needs 5 levels
    with pytest.raises(SynthError):
        AnalyteSpec("X", "categorical", probs=(0.5, 0.2, 0.2, 0.2, 0.2))
    with pytest.raises(SynthError):
        AnalyteSpec("X", "normal", lower=5, upper=1)
    with pytest.raises(SynthError):
        AnalyteSpec("X", "normal", loading=1.5)
    with pytest.raises(SynthError):
        GeneratorSpec(n=0, seed=0)
    with pytest.raises(SynthError):
        AnalyteSpec("X", "normal", mu="5")  # would fail only when drawing
    with pytest.raises(SynthError):
        GeneratorSpec(n=3.5, seed=0)


def test_default_analytes_cover_default_schema():
    from multisys.ingest import default_schema
    names = {a.name for a in default_analytes()}
    assert {s.name for s in default_schema()} <= names


def test_spec_from_json(tmp_path):
    cfg = {
        "n": 10, "seed": 99,
        "analytes": [
            {"name": "A", "dist": "normal", "mu": 5.0, "sigma": 1.0,
             "lower": 0, "upper": 10, "unit": "mmol/L"},
            {"name": "P", "dist": "categorical",
             "probs": [0.9, 0.05, 0.03, 0.01, 0.01], "factor": "k",
             "loading": 0.5},
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(cfg))
    spec = spec_from_json(str(path))
    assert spec.n == 10 and spec.seed == 99
    assert spec.analytes[1].factor == "k"
    header, rows = generate(spec)
    assert header == ["A", "P"]
    assert len(rows) == 10
