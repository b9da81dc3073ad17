"""Synthetic cohort generator: determinism, marginals and formatting."""

import hashlib
import json
import math

import numpy as np
import pytest

from multisys.cli import run_subcommand
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
    with pytest.raises(SynthError):
        AnalyteSpec("X", "normal", decimals=-1)
    for bad in ({"mu": math.inf}, {"mu": 10**400}, {"sigma": math.nan}, {"upper": math.nan},
                {"factor": "k", "loading": math.nan}):
        with pytest.raises(SynthError, match="must be finite numbers"):
            AnalyteSpec("X", "normal", **bad)
    with pytest.raises(SynthError):
        AnalyteSpec("X", "categorical", probs=(math.nan,) * 5)
    with pytest.raises(SynthError, match="must be >= 0"):
        AnalyteSpec("X", "categorical", probs=(0.5, -0.2, 0.3, 0.2, 0.2))
    with pytest.raises(SynthError):
        GeneratorSpec(n=1, seed=0, analytes=[])
    with pytest.raises(SynthError, match="A"):
        GeneratorSpec(n=1, seed=0, analytes=[AnalyteSpec("A", "normal")] * 2)
    # a field the distribution draws without is rejected, not ignored
    for unused in ({"mu": 1.0}, {"sigma": 2.0}, {"lower": 5}, {"upper": 5},
                   {"unit": "g/L"}, {"decimals": 1}):
        with pytest.raises(SynthError, match=f"categorical analyte takes no {[*unused][0]}"):
            AnalyteSpec("X", "categorical", probs=(1, 0, 0, 0, 0), **unused)
    for dist in ("normal", "lognormal"):
        with pytest.raises(SynthError, match=f"{dist} analyte takes no probs"):
            AnalyteSpec("X", dist, probs=(1, 0, 0, 0, 0))


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


# sha256 of cohort.csv, recorded when each normal was one scalar `normal()`
# call, which the block draw must reproduce bit for bit.  The spec file mixes
# every distribution, bounds, units and loadings, and its 333 rows of 2
# factors and 5 analytes draw an odd number of normals.
ODD_SPEC = {"n": 333, "seed": 7, "analytes": [
    {"name": "A", "dist": "lognormal", "mu": 1.0, "sigma": 0.5, "lower": 1, "upper": 5,
     "unit": "U/L", "decimals": 1, "factor": "f", "loading": -0.4},
    {"name": "B", "dist": "normal", "mu": 0.0, "sigma": 1.0, "lower": -1, "upper": 1,
     "decimals": 3},
    {"name": "C", "dist": "categorical", "probs": [0.5, 0.2, 0.15, 0.1, 0.05],
     "factor": "g", "loading": 0.6},
    {"name": "D", "dist": "categorical", "probs": [0, 0.5, 0.5, 0, 0],
     "factor": "f", "loading": 0.9},
    {"name": "E", "dist": "normal", "mu": 100, "sigma": 15, "decimals": 0, "unit": "g/L"},
]}
PINNED_COHORTS = {
    "default-1195": ({"n": 1195, "seed": 42}, None,
                     "e41bb665b56819abcb93e3add81690725c845e8ed7db786b1c4905714260a137"),
    "odd-spec": ({}, ODD_SPEC,
                 "af3f9f0dffe9464fd139121f3003ff26f5852552c6363b5a557c9803eb9c5dc8"),
}


@pytest.mark.parametrize("name", PINNED_COHORTS)
def test_cohort_bytes_are_pinned(tmp_path, name):
    synth, spec, digest = PINNED_COHORTS[name]
    if spec is not None:
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        synth = {**synth, "spec_path": str(tmp_path / "spec.json")}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": synth}))
    assert run_subcommand("simulate", str(config), str(tmp_path / "run")) == 0
    assert hashlib.sha256((tmp_path / "run" / "cohort.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("analyte", [
    {"name": "BIG", "dist": "lognormal", "mu": 800.0},  # math.exp overflows
    {"name": "BIG", "dist": "normal", "sigma": 1e308, "lower": 0},  # sigma * z is inf
    {"name": "BIG", "dist": "normal", "mu": -1e308, "sigma": 1e308},
])
def test_non_finite_draw_raises_naming_the_analyte(analyte):
    spec = GeneratorSpec(n=50, seed=1, analytes=[AnalyteSpec(**analyte)])
    with pytest.raises(SynthError, match="BIG: a drawn value is not finite"):
        generate(spec)


def test_spec_file_without_analytes_uses_the_defaults(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": 3, "seed": 1}))
    assert spec_from_json(str(path)).analytes == default_analytes()
    path.write_text(json.dumps({"n": 3, "seed": 1, "analytes": []}))
    with pytest.raises(SynthError, match="analytes must not be empty"):
        spec_from_json(str(path))


def test_ordinal_levels_follow_the_cut_points():
    # A level whose running probability is 0 takes no row, one that reaches 1
    # takes every remaining row.
    cases = {(0.0, 0.5, 0.5, 0.0, 0.0): {"±", "1+"},
             (0.0, 0.0, 0.0, 0.0, 1.0): {"3+"},
             (1.0, 0.0, 0.0, 0.0, 0.0): {"negative"}}
    for probs, levels in cases.items():
        spec = GeneratorSpec(n=400, seed=3, analytes=[
            AnalyteSpec("P", "categorical", probs=probs, factor="k", loading=0.5)])
        _, rows = generate(spec)
        assert {row[0] for row in rows} == levels, probs
