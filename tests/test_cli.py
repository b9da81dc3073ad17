"""Pipeline orchestration: stage wiring, manifests and error handling."""

import csv
import hashlib
import io
import json
import math
import multiprocessing.pool
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import FAST_CONFIG, NIT_SYSTEMS

import multisys
from multisys import (cli as cli_mod, indices as indices_mod, ingest as ingest_mod,
                      synth as synth_mod)
from multisys.base import MultisysError
from multisys.cli import STAGES, CliError, RunConfig, Workspace, main, run_subcommand
from multisys.indices import default_systems
from multisys.ingest import default_schema
from multisys.models import (GradientBoostingClassifier, LogisticRegressionClassifier,
                             RandomForestClassifier)


def _run(sub, out, config=None, **kw):
    return run_subcommand(sub, config, out, **kw)


def test_config_defaults_to_synth():
    cfg = RunConfig.load(None)
    assert cfg["synth"] == {"n": 1195, "seed": 42}
    assert cfg["split"]["ratios"] == [0.70, 0.15, 0.15]
    assert cfg["cv_folds"] == 5
    assert cfg["models"]["gradient_boosting"]["learning_rate"] == 0.05
    assert cfg["models"]["random_forest"]["n_estimators"] == 200


def test_readme_configuration_block_is_the_default_config():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as fh:
        readme = fh.read()
    block = readme[readme.index("```json\n", readme.index("## Configuration")) + 8:]
    block = block[:block.index("```")]
    assert json.loads(block) == RunConfig.load(None)


def test_config_rejects_both_sources(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"input_csv": "x.csv", "synth": {"n": 5, "seed": 0}}))
    with pytest.raises(CliError):
        RunConfig.load(str(path))


def test_config_hash_stable_and_sensitive(fast_config):
    a = RunConfig.load(fast_config)
    b = RunConfig.load(fast_config)
    assert a.hash() == b.hash()
    assert len(a.hash()) == 16
    c = RunConfig.load(fast_config, seed_override=99)
    assert c.hash() != a.hash()


def test_seed_override_propagates(fast_config):
    cfg = RunConfig.load(fast_config, seed_override=31)
    assert cfg["split"]["seed"] == 31
    assert cfg["synth"]["seed"] == 31
    assert cfg["models"]["random_forest"]["seed"] == 31


def test_stagewise_pipeline(tmp_path, fast_config):
    out = str(tmp_path / "run")
    for stage, artifacts in [
        ("simulate", ["cohort.csv"]),
        ("ingest", ["matrix.csv", "audit.json"]),
        ("features", ["indices.csv", "prevalence.json"]),
        ("split", ["partition.json", "folds.json"]),
        ("train", ["model_lr.json", "model_rf.json", "model_gb.json"]),
        ("evaluate", ["metrics.json", "metrics.csv", "roc.json"]),
        ("explain", ["importance.csv", "beeswarm.csv", "explain_meta.json"]),
        ("report", ["table1.csv", "figures/roc.svg", "figures/beeswarm.svg"]),
    ]:
        assert _run(stage, out, fast_config) == 0, stage
        for name in artifacts:
            assert os.path.exists(os.path.join(out, name)), (stage, name)

    manifest = json.loads(Path(out, "manifest.json").read_text())
    assert manifest["config_hash"] == RunConfig.load(fast_config).hash()
    assert "metrics.json" in manifest["artifacts"]

    metrics = json.loads(Path(out, "metrics.json").read_text())
    for model in ("logistic_regression", "random_forest", "gradient_boosting"):
        assert 0.0 <= metrics["models"][model]["test"]["auc"] <= 1.0


# sha256 of the fast config's models and metrics.  A refactor of the split
# search, the tree layout or the logistic model must leave them byte-identical.
# The digests were recorded with numpy 2.4.6.  model_lr.json's bytes are the
# last iterate of the logistic model's Newton fit, which another solver, or
# another order of its floating-point operations, does not reproduce bit for
# bit.
PINNED_MODELS = {
    "model_rf.json": "52384418b3ccf68394c2cc3311d0960ddbc83c85c215010a297260238ebe76ef",
    "model_gb.json": "82dd576a8d8d90097c86cd76d6750325024c20630bd5497280de66202214aca5",
    "model_lr.json": "dde0e797c5f075c750fa0fbd6cab51737dcf1146803a620c4617af624bc2f520",
    "metrics.json": "b17cf8df208208d1af028803b09d39a6fc7717738615ccd739c4c7358a4aedd1",
}

# sha256 of the fast config's Shapley artifacts.  A change to the TreeSHAP
# walk must leave every value bit-identical.
PINNED_EXPLAIN = {
    "beeswarm.csv": "dc70711a24e086985c688f183b8629da048ec2fcfce9cf50d7cf4ee29ee049b6",
    "importance.csv": "94498f322f866392e99aaa80bb1da9fc63faac5a421c8cd6618340e2183d2073",
}


def _assert_pinned(tmp_path, fast_config, stages, pinned):
    out = str(tmp_path / "run")
    for stage in stages:
        assert _run(stage, out, fast_config) == 0, stage
    for name, digest in pinned.items():
        with open(os.path.join(out, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name


def test_fast_config_trees_are_pinned(tmp_path, fast_config):
    _assert_pinned(tmp_path, fast_config,
                   ("simulate", "ingest", "features", "split", "train", "evaluate"),
                   PINNED_MODELS)


def test_fast_config_explain_artifacts_are_pinned(tmp_path, fast_config):
    _assert_pinned(tmp_path, fast_config,
                   ("simulate", "ingest", "features", "split", "train", "explain"),
                   PINNED_EXPLAIN)


# sha256 of ingest's output on a cohort with fixed corrupted cells.  The fast
# config's cohort is entirely clean, so only this input pins the unparsed,
# implausible and zero-policy paths of the cleaning pass.
PINNED_INGEST = {
    "matrix.csv": "42c50fcd395d8a75eb40b938beeaf5cbf173da699c6ff1a706640407cc33886c",
    "audit.json": "7115920189eadd71aa937a09f85439895b2ff51816c73a4ab60d70db2651f993",
}

CORRUPTED_CELLS = [
    (0, "Cr", ""), (5, "GLU", "   "), (13, "ALB", ""),  # blank
    (1, "UA", "n/a"), (7, "WBC", "pending"), (9, "Hb", "g/L"),  # no number
    (2, "Cr", "9999"), (3, "TG", "-1.2 mmol/L"), (14, "HCT", "41"),  # implausible
    (4, "PRO", "4+"), (6, "LEU", "??"), (8, "KET", " 2 + "),  # bad, bad, restyled token
    *((i, "BUN", "garbled") for i in range(10, 20)),  # zero-policy columns
    (11, "AST", ""), (12, "ALT", "99999 U/L"),
]


def _corrupted_config(tmp_path, n, cells):
    """A config whose input is the n-row synthetic cohort (seed 11) with
    `cells` set: (row, column, cell) triples."""
    from multisys.synth import GeneratorSpec, generate
    header, rows = generate(GeneratorSpec(n=n, seed=11))
    for i, name, cell in cells:
        rows[i][header.index(name)] = cell
    path = tmp_path / "corrupted.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    return _write_config(tmp_path, {"input_csv": str(path)})


def test_corrupted_input_ingest_is_pinned(tmp_path):
    cfg = _corrupted_config(tmp_path, 60, CORRUPTED_CELLS)
    _assert_pinned(tmp_path, cfg, ("ingest",), PINNED_INGEST)
    audit = json.loads((tmp_path / "run" / "audit.json").read_text())["columns"]
    assert [audit["Cr"][k] for k in ("unparsed", "implausible", "imputed")] == [1, 1, 2]
    assert audit["BUN"]["unparsed"] == 10 and audit["BUN"]["fill"] == 0.0


# sha256 of ingest, features and split on a 9,000-row cohort, more than two of
# the readers' blocks, with the corrupted cells above repeated in six places.
# A change to how the CSVs are read or written a block at a time must leave
# every artifact byte-identical.
PINNED_PREP = {
    "matrix.csv": "92dba246bdc0ea8866c4aae386b7713274a4527f22456a164bc87ba01b05be8d",
    "audit.json": "5572850d34210cbdad41d237185ed8eb68fc95e425824c14599f2ffb28390c4c",
    "indices.csv": "a79a7a2486377d34466d308b0f4e70dc84ee507d8a0bf09cfdbeee4e7a11cc98",
    "partition.json": "bd13d77cfd61f1a35e72e4a564bbccce7705843625e076c7afabd14fc0d8e977",
}


def test_corrupted_input_over_several_blocks_is_pinned(tmp_path):
    cells = [(i + k * 1790, name, cell) for k in range(6) for i, name, cell in CORRUPTED_CELLS]
    cfg = _corrupted_config(tmp_path, 9000, cells)
    _assert_pinned(tmp_path, cfg, ("ingest", "features", "split"), PINNED_PREP)
    audit = json.loads((tmp_path / "run" / "audit.json").read_text())
    assert audit["n_rows"] == 9000
    assert [audit["columns"]["Cr"][k] for k in ("unparsed", "implausible")] == [6, 6]


def test_missing_upstream_artifact(tmp_path, fast_config, capsys):
    out = str(tmp_path / "run")
    status = _run("train", out, fast_config)
    assert status == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "missing-artifact"


@pytest.mark.parametrize("manifest", ["{", "[]", '{"config_hash": "x"}', '{"artifacts": []}'])
def test_malformed_manifest_exits_2(tmp_path, fast_config, capsys, manifest):
    out = tmp_path / "run"
    out.mkdir()
    (out / "manifest.json").write_text(manifest)
    assert _run("simulate", str(out), fast_config) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "manifest" in err["message"]
    assert sorted(os.listdir(out)) == ["manifest.json"]


def test_config_hash_mismatch_blocks_and_force_overrides(tmp_path, fast_config):
    out = str(tmp_path / "run")
    assert _run("simulate", out, fast_config) == 0
    # Same directory, different config (seed override changes the hash).
    assert _run("simulate", out, fast_config, seed=99) == 2
    assert _run("simulate", out, fast_config, seed=99, force=True) == 0
    manifest = json.loads(Path(out, "manifest.json").read_text())
    assert manifest["config_hash"] == RunConfig.load(fast_config, seed_override=99).hash()


def test_simulate_requires_synth(tmp_path, write_csv, capsys):
    path = write_csv(["Cr"], [["77"]], name="input.csv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_csv": path}))
    assert _run("simulate", str(tmp_path / "run"), str(cfg)) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_input_csv_mode(tmp_path, fast_config):
    # Generate a cohort with one config, then ingest that CSV as external input.
    gen_out = str(tmp_path / "gen")
    assert _run("simulate", gen_out, fast_config) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "input_csv": os.path.join(gen_out, "cohort.csv"),
        "split": {"ratios": [0.70, 0.15, 0.15], "seed": 7},
    }))
    out = str(tmp_path / "run")
    assert _run("ingest", out, str(cfg)) == 0
    assert os.path.exists(os.path.join(out, "matrix.csv"))


def test_missing_input_csv(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_csv": "/does/not/exist.csv"}))
    assert _run("ingest", str(tmp_path / "run"), str(cfg)) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "missing-input"


@pytest.mark.parametrize("header, columns, message", [
    (["Cr", "Cr", "GLU"], [{"name": "Cr"}, {"name": "GLU"}], "column headed Cr"),
    (["Cr", "GLU"], [{"name": "Cr"}, {"name": "Cr", "source": "GLU"}], "column with name Cr"),
    (["Cr", "GLU"], [{"name": "Cr"}, {"name": "Cr2", "source": "Cr"}],
     "column with source header Cr"),
], ids=["repeated-header", "repeated-schema-name", "repeated-schema-source"])
def test_ambiguous_column_mapping_exits_2(tmp_path, capsys, header, columns, message):
    # Each would otherwise lose the first Cr column's cells, or fail with a KeyError.
    cells = ["70 μmol/L", "900 μmol/L", "5.0"][-len(header):]
    (tmp_path / "in.csv").write_text(",".join(header) + "\n" + ",".join(cells) + "\n",
                                     encoding="utf-8")
    (tmp_path / "schema.json").write_text(json.dumps({"columns": columns}))
    cfg = _write_config(tmp_path, {"input_csv": str(tmp_path / "in.csv"),
                                   "schema_config": str(tmp_path / "schema.json")})
    assert _run("ingest", str(tmp_path / "run"), cfg) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IngestError" and err["message"].endswith(message)
    assert not os.path.exists(tmp_path / "run" / "matrix.csv")


def _cohort_text(n=60, seed=11):
    """A synthetic cohort as CSV text."""
    from multisys.synth import GeneratorSpec, generate
    header, rows = generate(GeneratorSpec(n=n, seed=seed))
    out = io.StringIO()
    csv.writer(out).writerows([header, *rows])
    return out.getvalue()


def _error_line(capsys):
    """The JSON error line on stderr, as bytes, and its decoded message."""
    line = capsys.readouterr().err.encode("utf-8")
    return line, json.loads(line)


def test_header_only_input_csv_exits_2_before_any_artifact(tmp_path, capsys):
    # zero fill, so no column is 100% missing: the error names the empty file
    schema, systems, cohort = (tmp_path / n for n in ("schema.json", "systems.json", "in.csv"))
    schema.write_text(json.dumps({"columns": [{"name": "Cr", "fill": "zero"},
                                              {"name": "GLU", "fill": "zero"}]}))
    systems.write_text(json.dumps({"systems": [{"name": "s", "rules": [
        {"analyte": "Cr", "direction": "above", "cutoff": 1},
        {"analyte": "GLU", "direction": "above", "cutoff": 1}]}]}))
    cohort.write_text("Cr,GLU\n")
    cfg = _write_config(tmp_path, {"input_csv": str(cohort), "schema_config": str(schema),
                                   "systems_config": str(systems)})
    out = tmp_path / "run"
    assert _run("ingest", str(out), cfg) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "IngestError", "message": f"cannot read {cohort}: no data rows"}
    assert os.listdir(out) == []


def test_latin1_input_csv_exits_2(tmp_path, capsys):
    # An export saved as Latin-1: the micro sign is byte 0xb5, no UTF-8.
    text = _cohort_text().replace("μ", "µ")
    path = tmp_path / "latin1.csv"
    path.write_bytes(text.encode("latin-1", errors="replace"))
    cfg = _write_config(tmp_path, {"input_csv": str(path)})
    assert _run("ingest", str(tmp_path / "run"), cfg) == 2
    line, err = _error_line(capsys)
    assert err["error"] == "IngestError"
    assert str(path) in err["message"] and "UnicodeDecodeError" in err["message"]
    assert len(line) < 500
    assert "mol/L" not in err["message"]  # no cell text
    assert not os.path.exists(tmp_path / "run" / "matrix.csv")


def test_bom_before_quoted_first_header_ingests_as_without_bom(tmp_path):
    text = _cohort_text()
    first = text[:text.index(",")]
    quoted = '"' + first + '"' + text[len(first):]
    outputs = []
    for name, data in (("plain.csv", text), ("bom.csv", "\ufeff" + quoted)):
        (tmp_path / name).write_text(data, encoding="utf-8")
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"input_csv": str(tmp_path / name)}))
        out = tmp_path / f"run-{name}"
        assert _run("ingest", str(out), str(cfg)) == 0, name
        outputs.append([(out / a).read_bytes() for a in ("matrix.csv", "audit.json")])
    assert (tmp_path / "bom.csv").read_bytes()[:4] == b'\xef\xbb\xbf"'
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("inside", [False, True], ids=["out-is-a-file", "out-under-a-file"])
def test_out_naming_a_file_exits_2(tmp_path, fast_config, capsys, inside):
    path = tmp_path / "notes.txt"
    path.write_bytes(b"keep me\n")
    out = path / "run" if inside else path
    assert _run("simulate", str(out), fast_config) == 2
    line, err = _error_line(capsys)
    assert err["error"] == "config" and str(out) in err["message"]
    assert len(line) < 500
    assert path.read_bytes() == b"keep me\n"


def test_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert _run("split", str(tmp_path / "run"), str(cfg)) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 100_000 + "]" * 100_000)
    assert _run("simulate", str(tmp_path / "run"), str(cfg)) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_all_writes_summary(tmp_path, fast_config):
    out = str(tmp_path / "run")
    assert _run("all", out, fast_config) == 0
    summary = json.loads(Path(out, "summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["n"] == 160
    sizes = summary["split_sizes"]
    assert sizes["train"] + sizes["validation"] + sizes["test"] == 160
    assert len(summary["importance_top10"]) == 10
    assert summary["config_hash"] == RunConfig.load(fast_config).hash()


def _trained_run(tmp_path, config, last: str = "train") -> str:
    out = str(tmp_path / "run")
    stages = ("simulate", "ingest", "features", "split", "train")
    for stage in stages[:stages.index(last) + 1]:
        assert _run(stage, out, config) == 0, stage
    return out


def _counted(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that appends each call to the list it returns."""
    calls, inner = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_each_named_file_is_parsed_once_per_run(tmp_path, monkeypatch):
    (tmp_path / "spec.json").write_text(json.dumps({"n": 160, "seed": 7}))
    (tmp_path / "schema.json").write_text(json.dumps({"columns": [
        {"name": c.name, "kind": c.kind, "unit": c.unit_hint, "lower": c.lower,
         "upper": c.upper, "fill": c.fill_policy} for c in default_schema()]}))
    (tmp_path / "systems.json").write_text(json.dumps({"systems": [
        {"name": s.name, "rules": [vars(r) for r in s.rules]} for s in default_systems()]}))
    config = _write_config(tmp_path, {
        **FAST_CONFIG, "synth": {"spec_path": str(tmp_path / "spec.json")},
        "schema_config": str(tmp_path / "schema.json"),
        "systems_config": str(tmp_path / "systems.json")})
    parsers = [_counted(monkeypatch, module, name) for module, name in (
        (synth_mod, "spec_from_json"), (ingest_mod, "schema_from_json"),
        (indices_mod, "systems_from_json"))]
    assert _run("all", str(tmp_path / "run"), config) == 0
    assert [len(calls) for calls in parsers] == [1, 1, 1]


def test_all_reads_the_shared_inputs_once_and_each_stage_alone_as_before(
        tmp_path, fast_config, monkeypatch):
    matrices = _counted(monkeypatch, ingest_mod, "read_matrix_csv")
    files = _counted(monkeypatch, cli_mod, "read_file")

    def reads(stage: str, out: str) -> tuple:
        """(matrix.csv parses, partition.json decodes) of one run of `stage`."""
        matrices.clear(), files.clear()
        assert _run(stage, out, fast_config) == 0, stage
        partition = os.path.join(out, "partition.json")
        return len(matrices), [path for path, *_ in files].count(partition)

    assert reads("all", str(tmp_path / "all")) == (1, 1)
    # split reads no matrix: perfbench's prep-50k-messy times it as a process of its own
    staged = str(tmp_path / "staged")
    assert {stage: reads(stage, staged) for stage in STAGES if stage != "all"} == {
        "simulate": (0, 0), "ingest": (0, 0), "features": (1, 0), "split": (0, 0),
        "train": (1, 1), "evaluate": (1, 1), "explain": (1, 1), "report": (1, 0)}


def test_the_kept_matrix_is_read_only(tmp_path, fast_config):
    # a write into it would change a later stage's input in all, and in all alone
    out = _trained_run(tmp_path, fast_config, last="ingest")
    ws = Workspace(out, RunConfig.load(fast_config))
    STAGES["features"](ws)
    with pytest.raises(ValueError, match="read-only"):
        ws.matrix.values[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        ws.matrix.column("GLU")[:] = 0.0


def test_features_evaluates_each_rule_once(tmp_path, fast_config, monkeypatch):
    out = _trained_run(tmp_path, fast_config, last="ingest")
    calls = _counted(monkeypatch, indices_mod, "evaluate_rule")
    assert _run("features", out, fast_config) == 0
    assert len(calls) == sum(len(system.rules) for system in default_systems())


@pytest.fixture
def pool_widths(monkeypatch) -> list:
    """The width of each process pool started from here on, in order."""
    widths = []

    class RecordingPool(multiprocessing.pool.Pool):
        def __init__(self, processes=None, *args, **kwargs):
            widths.append(processes)
            super().__init__(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool, "Pool", RecordingPool)
    return widths


def test_evaluate_outputs_are_the_same_at_any_pool_width(tmp_path, fast_config, monkeypatch,
                                                          pool_widths):
    out = _trained_run(tmp_path, fast_config)
    outputs = []
    for cpus in ({0}, {0, 1}):
        run = tmp_path / f"cpus{len(cpus)}"
        shutil.copytree(out, run)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        assert _run("evaluate", str(run), fast_config) == 0
        outputs.append({name: (run / name).read_bytes()
                        for name in ("metrics.json", "roc.json", "metrics.csv")})
    assert pool_widths == [2]  # width 1 starts no pool
    assert outputs[0] == outputs[1]


def _run_files(run) -> dict:
    """Every file under the run directory `run`, by relative path, as bytes."""
    return {str(path.relative_to(run)): path.read_bytes()
            for path in sorted(run.rglob("*")) if path.is_file()}


def test_all_writes_what_its_stages_write_one_by_one(tmp_path, fast_config, monkeypatch,
                                                      pool_widths):
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        staged, whole = tmp_path / f"staged{len(cpus)}", tmp_path / f"all{len(cpus)}"
        for stage in STAGES:
            if stage != "all":
                assert _run(stage, str(staged), fast_config) == 0, stage
        pool_widths.clear()
        assert _run("all", str(whole), fast_config) == 0
        # one pool: evaluate's refits run on it while train and explain run here
        assert pool_widths == ([2] if len(cpus) == 2 else [])
        expected, written = _run_files(staged), _run_files(whole)
        del written["summary.json"]
        manifest = json.loads(written.pop("manifest.json"))
        del manifest["artifacts"]["summary.json"]
        assert manifest == json.loads(expected.pop("manifest.json"))
        assert written == expected


def test_fit_failure_exits_2_before_any_model_file(tmp_path, fast_config, monkeypatch,
                                                   capsys):
    out = _trained_run(tmp_path, fast_config, last="split")

    def fail(self, X, y):
        raise MultisysError(f"no fit on {len(y)} rows", kind="ModelError")

    # the last of the three fits, so the first two have ended
    monkeypatch.setattr(GradientBoostingClassifier, "fit", fail)
    assert _run("train", out, fast_config) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "ModelError",
                                                   "message": "no fit on 112 rows"}
    assert not list((tmp_path / "run").glob("model_*.json"))


def test_fit_failure_in_all_ends_the_refits(tmp_path, monkeypatch, capsys):
    # five folds: 15 refits, each held in its worker until train has failed;
    # the block then terminates both workers, so at most the two refits they
    # hold go on, and no later one starts
    config = _write_config(tmp_path, {**FAST_CONFIG, "cv_folds": 5})
    parent, failed, started = os.getpid(), tmp_path / "failed", tmp_path / "started"
    started.mkdir()

    def held(cls):
        fit = cls.fit

        def fit_here_or_after_the_failure(self, X, y):
            if os.getpid() == parent:
                if cls is GradientBoostingClassifier:
                    failed.touch()
                    raise MultisysError(f"no fit on {len(y)} rows", kind="ModelError")
                return fit(self, X, y)
            # a pool worker's refit: held until train has failed, then counted
            deadline = time.monotonic() + 60
            while not failed.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            (started / f"{os.getpid()}-{time.monotonic_ns()}").touch()
            return fit(self, X, y)
        monkeypatch.setattr(cls, "fit", fit_here_or_after_the_failure)

    for cls in (LogisticRegressionClassifier, RandomForestClassifier,
                GradientBoostingClassifier):
        held(cls)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert _run("all", str(tmp_path / "run"), config) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "ModelError",
                                                   "message": "no fit on 112 rows"}
    assert not list((tmp_path / "run").glob("model_*.json"))
    assert multiprocessing.active_children() == []
    assert len(os.listdir(started)) <= 2


def _fresh_interpreter(script: str) -> None:
    """Run `script` in a new Python process that imports this checkout's
    multisys, so no module this process has loaded is loaded there."""
    src = os.path.dirname(os.path.dirname(multisys.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_no_stage_needs_scipy(tmp_path, fast_config):
    # None in sys.modules makes every `import scipy` raise ImportError
    _fresh_interpreter(f"""
import os, sys
sys.modules["scipy"] = None
import multisys.cli

def run(stage, out):
    assert multisys.cli.run_subcommand(stage, {fast_config!r}, out) == 0, stage

affinity = os.sched_getaffinity
os.sched_getaffinity = lambda pid: {{0}}  # no pool: every fit in this process
for stage in multisys.cli.STAGES:
    if stage != "all":
        run(stage, {str(tmp_path / "staged")!r})
os.sched_getaffinity = affinity
run("all", {str(tmp_path / "all")!r})
""")


def test_refit_failure_in_a_worker_exits_2(tmp_path, fast_config, monkeypatch, capsys):
    run = tmp_path / "run"
    _trained_run(tmp_path, fast_config)
    with open(run / "indices.csv", newline="") as fh:
        y = [int(row["target_multi"]) for row in csv.DictReader(fh)]
    folds = json.loads((run / "folds.json").read_text())
    # every positive row in fold 0: the other folds hold out one class only
    folds["assignments"] = [0 if y[i] else i % folds["k"] for i in folds["train_indices"]]
    (run / "folds.json").write_text(json.dumps(folds))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert _run("evaluate", str(run), fast_config) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MetricError"
    assert err["message"].startswith("logistic_regression fold "), err
    assert not (run / "metrics.json").exists()


def test_failed_write_keeps_the_previous_artifact(tmp_path, fast_config, monkeypatch):
    run = tmp_path / "run"
    ws = Workspace(str(run), RunConfig.load(fast_config))
    ws.write("metrics.json", {"old": 1})
    before = (run / "metrics.json").read_bytes()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"new": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="disk full"):
        ws.write("metrics.json", {"new": 2})
    assert (run / "metrics.json").read_bytes() == before
    assert sorted(os.listdir(run)) == ["manifest.json", "metrics.json"]


def test_main_argparse_and_log_env(tmp_path, fast_config, monkeypatch):
    monkeypatch.setenv("MULTISYS_LOG", "ERROR")
    status = main(["simulate", "--config", fast_config,
                   "--out", str(tmp_path / "run"), "--seed", "7"])
    assert status == 0
    assert os.path.exists(tmp_path / "run" / "cohort.csv")


def test_main_rejects_unknown_subcommand(tmp_path):
    with pytest.raises(SystemExit):
        main(["frobnicate", "--out", str(tmp_path / "run")])


def _write_config(tmp_path, cfg) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_library_errors_exit_2_with_json(tmp_path, capsys):
    # A 12-row cohort has too few positives to split: a SplitError, not a traceback.
    cfg = _write_config(tmp_path, {"synth": {"n": 12, "seed": 1}})
    assert _run("all", str(tmp_path / "run"), cfg) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SplitError"
    assert "member" in err["message"]


def test_split_that_leaves_a_subset_empty_exits_2_before_writing(tmp_path, capsys):
    # floor(19 * 0.05) = 0 validation rows, which evaluate could not score
    cfg = _write_config(tmp_path, {"synth": {"n": 19, "seed": 1},
                                   "split": {"ratios": [0.9, 0.05, 0.05]}, "cv_folds": 2})
    out = tmp_path / "run"
    assert _run("all", str(out), cfg) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SplitError"
    assert "validation" in err["message"]
    assert not (out / "partition.json").exists()


def test_split_of_a_single_class_target_exits_2_before_writing(tmp_path, capsys):
    # one system never fires together with another, so no row is a positive
    systems = tmp_path / "systems.json"
    systems.write_text(json.dumps({"systems": [{"name": "kidney", "rules": [
        {"analyte": "Cr", "direction": "above", "cutoff": 110},
        {"analyte": "BUN", "direction": "above", "cutoff": 8.2}]}]}))
    cfg = _write_config(tmp_path, {**FAST_CONFIG, "systems_config": str(systems)})
    out = tmp_path / "run"
    for stage in ("simulate", "ingest", "features"):
        assert _run(stage, str(out), cfg) == 0, stage
    assert _run("split", str(out), cfg) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SplitError"
    assert "class 0" in err["message"]
    assert not (out / "partition.json").exists()


def _cohort_config(tmp_path, edit) -> str:
    """A config for the fast config's cohort after `edit(header, rows)` has
    changed its data rows in place."""
    gen = tmp_path / "gen"
    assert _run("simulate", str(gen), _write_config(tmp_path, FAST_CONFIG)) == 0
    with open(gen / "cohort.csv", encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    edit(header, rows)
    cohort = tmp_path / "cohort.csv"
    with open(cohort, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    config = {key: value for key, value in FAST_CONFIG.items() if key != "synth"}
    config["input_csv"] = str(cohort)
    return _write_config(tmp_path, config)


def test_report_leaves_out_a_column_that_never_varies(tmp_path):
    # A constant median-filled ALB has no histogram spread, and its NaN
    # correlations would be drawn as r = +1.
    def constant_alb(header, rows):
        for row in rows:
            row[header.index("ALB")] = "40.0 g/L"

    out = tmp_path / "run"
    assert _run("all", str(out), _cohort_config(tmp_path, constant_alb)) == 0
    for figure in ("correlation.svg", "histograms.svg"):
        svg = (out / "figures" / figure).read_text(encoding="utf-8")
        assert ">ALB<" not in svg and ">UA<" in svg, figure


def _freeze(header, rows, keep=()) -> None:
    """Set every continuous column but those in `keep` to its first row's cell."""
    for column in default_schema():
        if column.kind == "continuous" and column.name not in keep:
            i = header.index(column.name)
            for row in rows:
                row[i] = rows[0][i]


def test_report_of_one_varying_column_draws_a_one_cell_heatmap(tmp_path, capsys):
    def only_glu_varies(header, rows):
        _freeze(header, rows, keep={"GLU"})
        # urine protein and leukocytes at 2+ in every third and fifth row, so
        # that the trees use three features and explain has three to plot
        for k, row in enumerate(rows):
            row[header.index("PRO")] = "2+" if k % 3 == 0 else "negative"
            row[header.index("LEU")] = "2+" if k % 5 == 0 else "negative"

    out = tmp_path / "run"
    assert _run("all", str(out), _cohort_config(tmp_path, only_glu_varies)) == 0, \
        capsys.readouterr().err
    assert 0 < json.loads((out / "prevalence.json").read_text())["target_prevalence"] < 1
    svg = (out / "figures" / "correlation.svg").read_text(encoding="utf-8")
    assert svg.count("<rect") == 1 and svg.count(">GLU<") == 2


def test_report_of_no_varying_column_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert _run("all", str(out), _cohort_config(tmp_path, _freeze)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ReportError", "message": "no columns to plot"}


def test_explain_draws_only_features_with_importance(tmp_path, capsys):
    # The trees split on GLU alone; the constant Cr, ranked second at 0.0
    # mean |SHAP|, has no partial dependence grid to draw.
    out = tmp_path / "run"
    config = _cohort_config(tmp_path, lambda header, rows: _freeze(header, rows, keep={"GLU"}))
    assert _run("all", str(out), config) == 0, capsys.readouterr().err
    with open(out / "importance.csv", encoding="utf-8", newline="") as fh:
        ranking = [(r["feature"], float(r["mean_abs_shap"])) for r in csv.DictReader(fh)]
    assert ranking[0][0] == "GLU" and ranking[1][1] == 0.0
    meta = json.loads((out / "explain_meta.json").read_text())
    assert meta["top_features"] == [f for f, value in ranking if value > 0][:3]
    assert meta["pdp_files"] == [f"pdp_{f}.csv" for f in meta["top_features"]]


def test_explain_skips_a_feature_whose_pdp_grid_is_one_point(tmp_path, capsys):
    systems = tmp_path / "systems.json"
    systems.write_text(json.dumps(NIT_SYSTEMS))
    config = _write_config(tmp_path, {"systems_config": str(systems), "models": {
        "random_forest": {"n_estimators": 20}, "gradient_boosting": {"n_estimators": 40}}})
    out = _trained_run(tmp_path, config)
    assert _run("explain", out, config) == 0, capsys.readouterr().err
    with open(os.path.join(out, "importance.csv"), encoding="utf-8", newline="") as fh:
        ranking = [(r["feature"], float(r["mean_abs_shap"])) for r in csv.DictReader(fh)]
    assert ranking[2][0] == "NIT" and ranking[2][1] > 0
    with open(os.path.join(out, "explain_meta.json"), encoding="utf-8") as fh:
        assert json.load(fh)["top_features"] == ["GLU", "TG", "Cr"]


def test_explain_of_no_feature_with_importance_exits_2(tmp_path, capsys):
    # No node holds two 1,000-row leaves, so every boosting tree is one leaf
    # and every Shapley value is 0.
    config = _write_config(tmp_path, {**FAST_CONFIG, "models": {
        **FAST_CONFIG["models"],
        "gradient_boosting": {**FAST_CONFIG["models"]["gradient_boosting"],
                              "min_samples_leaf": 1000}}})
    out = _trained_run(tmp_path, config)
    assert _run("explain", out, config) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ExplainError", "message": "no feature has a non-zero mean |SHAP| "
                                            "and a PDP grid of two or more points"}
    for name in ("importance.csv", "beeswarm.csv", "explain_meta.json"):
        assert not os.path.exists(os.path.join(out, name)), name


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"split_seed": 3})
    assert _run("simulate", str(tmp_path / "run"), cfg) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "config",
        "message": f"cannot read {cfg}: ValueError: unknown config key(s): split_seed"}
    assert not os.path.exists(tmp_path / "run")


def test_unknown_model_parameter_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"models": {"random_forest": {"n_trees": 5}}})
    assert _run("train", str(tmp_path / "run"), cfg) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "n_trees" in err["message"]


@pytest.mark.parametrize("raw", [
    {"split": {"ratio": [0.7, 0.15, 0.15]}},
    {"models": {"boosting": {}}},
    {"models": {"logistic": {"penalty": "l1"}}},
    {"models": []},
    [],
])
def test_config_validator_rejects_unknown_sections(tmp_path, raw):
    with pytest.raises(CliError) as info:
        RunConfig.load(_write_config(tmp_path, raw))
    assert info.value.kind == "config"


@pytest.mark.parametrize("raw, where", [
    ({"models": {"random_forest": {"n_estimators": "5"}}}, "models.random_forest.n_estimators"),
    ({"cv_folds": "3"}, "cv_folds"),
    ({"split": {"ratios": [0.5, 0.5]}}, "split.ratios"),
    ({"synth": {"n": "300", "seed": 1}}, "synth.n"),
    ({"synth": {"n": 300, "seed": 1.5}}, "synth.seed"),
    ({"synth": {"spec_path": ["spec.json"]}}, "synth.spec_path"),
    ({"synth": {"n": 300, "sead": 1}}, "synth key(s): sead"),
    ({"input_csv": 7}, "input_csv"),
    ({"schema_config": {"columns": []}}, "schema_config"),
    ({"systems_config": True}, "systems_config"),
    # out of range: each would otherwise fail, or write artifacts, mid-run
    ({"models": {"logistic": {"C": 0}}}, "models.logistic.C"),
    ({"models": {"logistic": {"tol": -1e-6}}}, "models.logistic.tol"),
    ({"models": {"gradient_boosting": {"learning_rate": 0}}},
     "models.gradient_boosting.learning_rate"),
    ({"models": {"gradient_boosting": {"learning_rate": 1.5}}},
     "models.gradient_boosting.learning_rate"),
    ({"models": {"random_forest": {"n_estimators": 0}}}, "models.random_forest.n_estimators"),
    ({"models": {"random_forest": {"min_samples_leaf": -2}}},
     "models.random_forest.min_samples_leaf"),
    ({"models": {"gradient_boosting": {"max_depth": 0}}}, "models.gradient_boosting.max_depth"),
    ({"split": {"ratios": [1.2, -0.1, -0.1]}}, "split.ratios"),
    ({"split": {"ratios": [1.0, 0.0, 0.0]}}, "split.ratios"),
    ({"cv_folds": 1}, "cv_folds"),
    # not JSON, though Python's parser reads it: no bound's top lets it through
    ({"models": {"logistic": {"C": math.inf}}}, "models.logistic.C"),
    ({"models": {"logistic": {"tol": math.nan}}}, "models.logistic.tol"),
    # an integer literal past the float range is no finite number
    ({"models": {"logistic": {"C": 10**400}}}, "models.logistic.C"),
    ({"split": {"ratios": [0.5, 0.3, 0.3]}}, "split ratios must sum to 1"),
    # a size key past its bound, which would otherwise fit or draw until killed
    ({"models": {"gradient_boosting": {"n_estimators": 2**70}}},
     "models.gradient_boosting.n_estimators"),
    ({"models": {"random_forest": {"n_estimators": 10_001}}},
     "models.random_forest.n_estimators"),
    ({"models": {"random_forest": {"max_depth": 2**70}}}, "models.random_forest.max_depth"),
    ({"models": {"gradient_boosting": {"min_samples_leaf": 2**70}}},
     "models.gradient_boosting.min_samples_leaf"),
    ({"models": {"logistic": {"max_iter": 2**70}}}, "models.logistic.max_iter"),
    ({"cv_folds": 2**70}, "cv_folds"),
    ({"synth": {"n": 2**70, "seed": 1}}, "synth.n"),
])
def test_config_value_types_checked(tmp_path, capsys, raw, where):
    assert _run("all", str(tmp_path / "run"), _write_config(tmp_path, raw)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert where in err["message"]
    assert not os.path.exists(tmp_path / "run")


SIDEWAYS_SYSTEM = {"systems": [{"name": "kidney", "rules": [
    {"analyte": "Cr", "direction": "sideways", "cutoff": 110},
    {"analyte": "BUN", "direction": "above", "cutoff": 8.2}]}]}


@pytest.mark.parametrize("key, content, kind", [
    ("spec_path", None, "SynthError"),  # no such file
    ("spec_path", {"n": 10, "analytes": []}, "SynthError"),  # no seed
    ("systems_config", None, "SystemsError"),
    ("systems_config", SIDEWAYS_SYSTEM, "SystemsError"),
    ("systems_config", {"systems": [{"name": "k", "rules": [
        {"analyte": "Cr", "direction": "above", "cutoff": "110"}] * 2}]}, "SystemsError"),
    ("schema_config", {"columns": [{"kind": "continuous"}]}, "IngestError"),  # no name
    ("schema_config", {"columns": [{"name": "Cr", "lower": "10"}]}, "IngestError"),
    # an unknown key, or a value of the wrong type, is rejected, not dropped or coerced
    ("spec_path", {"n": 10, "seed": 1, "analytes": [
        {"name": "Cr", "dist": "normal", "mu": 70.0, "sigam": 5.0}]}, "SynthError"),
    ("spec_path", {"n": 10, "seed": 1, "analyts": []}, "SynthError"),
    ("schema_config", {"columns": [{"name": "Cr", "lowr": 10}]}, "IngestError"),
    ("schema_config", {"column": [{"name": "Cr"}]}, "IngestError"),
    ("schema_config", {"columns": [{"name": "PRO", "kind": "semiquant"}],
                       "semiquant_tokens": {"positive": True}}, "IngestError"),
    ("systems_config", {"systems": [{"name": "k", "rules": [
        {"analyte": "Cr", "direction": "above", "cutoff": 110, "unit": "umol/L"}] * 2}]},
     "SystemsError"),
    ("schema_config", {}, "IngestError"),  # no columns
    ("schema_config", {"columns": []}, "IngestError"),
    # only an absent analytes key means the default analytes
    ("spec_path", {"n": 10, "seed": 1, "analytes": []}, "SynthError"),
    ("spec_path", {"n": 10, "seed": 1, "analytes": [
        {"name": "A", "dist": "normal", "decimals": -1}]}, "SynthError"),
    ("spec_path", {"n": 10, "seed": 1, "analytes": [
        {"name": "A", "dist": "normal"}, {"name": "A", "dist": "lognormal"}]}, "SynthError"),
    # a key the analyte's distribution draws without, even at its default value
    ("spec_path", {"n": 10, "seed": 1, "analytes": [
        {"name": "P", "dist": "categorical", "probs": [1, 0, 0, 0, 0], "lower": 5,
         "unit": "g/L"}]}, "SynthError"),
    ("spec_path", {"n": 10, "seed": 1, "analytes": [
        {"name": "A", "dist": "normal", "probs": [1, 0, 0, 0, 0]}]}, "SynthError"),
    ("spec_path", {"n": 10, "seed": 1, "analytes": [
        {"name": "P", "dist": "categorical", "probs": [1, 0, 0, 0, 0], "sigma": 1.0}]},
     "SynthError"),
    ("spec_path", {"n": 10, "seed": 1, "analytes": [
        {"name": "A", "dist": "lognormal", "probs": []}]}, "SynthError"),
    # no systems, or two of one name (two flag columns in indices.csv)
    ("systems_config", {"systems": []}, "SystemsError"),
    ("systems_config", {"systems": [{"name": "kidney", "rules": [
        {"analyte": "Cr", "direction": "above", "cutoff": 110},
        {"analyte": "BUN", "direction": "above", "cutoff": 8.2}]}] * 2}, "SystemsError"),
    # two rules of one system under one prevalence.json key
    ("systems_config", {"systems": [{"name": "metabolic", "rules": [
        {"analyte": "GLU", "direction": "above", "cutoff": 7.0000001},
        {"analyte": "GLU", "direction": "above", "cutoff": 7.0000002}]}]}, "SystemsError"),
    ("schema_config", {"columns": [{"name": "Cr", "fill": "mean"}]}, "IngestError"),
    # json.load reads NaN, Infinity and -Infinity; each would switch the bound off
    ("schema_config", {"columns": [{"name": "Cr", "upper": math.nan}]}, "IngestError"),
    ("schema_config", {"columns": [{"name": "Cr", "upper": math.inf}]}, "IngestError"),
    ("schema_config", {"columns": [{"name": "Cr", "lower": -math.inf}]}, "IngestError"),
    # a cohort size past synth.MAX_ROWS, which would draw until memory ran out
    ("spec_path", {"n": 2**70, "seed": 1}, "SynthError"),
    # a name or other text that is not a string, or more decimals than a cell format takes
    ("spec_path", {"n": 10, "seed": 1, "analytes": [
        {"name": "A", "dist": "normal", "factor": 0, "loading": 0.5}]}, "SynthError"),
    ("spec_path", {"n": 10, "seed": 1, "analytes": [
        {"name": "A", "dist": "normal", "decimals": 2**70}]}, "SynthError"),
    ("systems_config", {"systems": [{"name": 0, "rules": [
        {"analyte": "Cr", "direction": "above", "cutoff": 110},
        {"analyte": "BUN", "direction": "above", "cutoff": 8.2}]}]}, "SystemsError"),
    ("systems_config", {"systems": [{"name": "k", "rules": [
        {"analyte": [], "direction": "above", "cutoff": 110},
        {"analyte": "BUN", "direction": "above", "cutoff": 8.2}]}]}, "SystemsError"),
    ("schema_config", {"columns": [{"name": "Cr", "unit": 0}]}, "IngestError"),
])
def test_bad_config_files_exit_2_before_any_artifact(tmp_path, capsys, key, content, kind):
    path = tmp_path / "file.json"
    if content is not None:
        path.write_text(json.dumps(content))
    raw = {"synth": {"spec_path": str(path)}} if key == "spec_path" else {key: str(path)}
    assert _run("simulate", str(tmp_path / "run"), _write_config(tmp_path, raw)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == kind and str(path) in err["message"]  # the NaN bound's too
    assert not os.path.exists(tmp_path / "run")


def test_boundary_config_values_accepted(tmp_path):
    # The bounds are (0, 1] for learning_rate, >= 2 for cv_folds, > 0 for the
    # rest; a model seed may be any integer.
    cfg = RunConfig.load(_write_config(tmp_path, {
        "cv_folds": 2, "models": {"gradient_boosting": {"learning_rate": 1},
                                  "random_forest": {"seed": -3}}}))
    assert cfg["cv_folds"] == 2
    assert cfg["models"]["gradient_boosting"]["learning_rate"] == 1
    assert cfg["models"]["random_forest"]["seed"] == -3


def test_model_parameters_merge_onto_their_defaults(tmp_path):
    cfg = RunConfig.load(_write_config(tmp_path, {"models": {"logistic": {"tol": 1e-8}}}))
    assert cfg["models"]["logistic"] == {"C": 1.0, "max_iter": 2000, "tol": 1e-8}


# Config hashes recorded before the run config became one checked JSON
# document: (without --seed, with --seed 99).  Every artifact carries its
# config's hash, so a change to how the config is stored must leave them as
# they are.  "spec.json" is read from the working directory.
PINNED_CONFIG_HASHES = {
    "default": (None, ("3d053a57276410e6", "a9b7241e6bf132cb")),
    "fast": (FAST_CONFIG, ("ca56f22d38f082c3", "d8b34e4491a12c0e")),
    "empty": ({}, ("3d053a57276410e6", "a9b7241e6bf132cb")),
    "synth-null": ({"synth": None}, ("3d053a57276410e6", "a9b7241e6bf132cb")),
    "synth-n-only": ({"synth": {"n": 500}}, ("df6a9ce6d600a848", "df2c6bd8d02ad768")),
    "input-csv": ({"input_csv": "cohort.csv"}, ("5660a86fc5cf1c98", "4618c5b96d09aaff")),
    "logistic-tol": ({"models": {"logistic": {"tol": 1e-8}}},
                     ("629dd5b257db0418", "2dd615fbbba216a4")),
    "integer-floats": ({"cv_folds": 2, "models": {"gradient_boosting": {"learning_rate": 1}}},
                       ("4e1e795d2bc39900", "9a9059b2c45d623d")),
    "spec-path": ({"synth": {"spec_path": "spec.json"}},
                  ("14d8824b51a988c6", "eb0c32fb1e3c0d73")),
}


@pytest.mark.parametrize("seed", [None, 99])
@pytest.mark.parametrize("name", PINNED_CONFIG_HASHES)
def test_valid_configs_keep_their_hash(tmp_path, monkeypatch, name, seed):
    raw, digests = PINNED_CONFIG_HASHES[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps({"n": 50, "seed": 1}))
    path = None if raw is None else _write_config(tmp_path, raw)
    assert RunConfig.load(path, seed_override=seed).hash() == digests[seed is not None]


def test_non_finite_draw_exits_2_naming_the_analyte(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 10, "seed": 1, "analytes": [
        {"name": "TG", "dist": "lognormal", "mu": 800.0}]}))
    cfg = _write_config(tmp_path, {"synth": {"spec_path": str(spec)}})
    assert _run("simulate", str(tmp_path / "run"), cfg) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SynthError"
    assert err["message"].startswith("TG: a drawn value is not finite")
    assert not os.path.exists(tmp_path / "run" / "cohort.csv")


def test_inline_analytes_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"synth": {"n": 50, "seed": 1, "analytes": []}})
    assert _run("simulate", str(tmp_path / "run"), cfg) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "unknown synth key(s): analytes" in err["message"]


JSON_KEYS = {
    "audit.json": ["columns", "n_rows"],
    "explain_meta.json": ["base_value", "config_hash", "pdp_files", "top_features"],
    "folds.json": ["assignments", "k", "train_indices"],
    "manifest.json": ["artifacts", "config_hash"],
    "metrics.json": ["config_hash", "models", "threshold"],
    "model_gb.json": ["base_score", "config_hash", "kind", "schema_version",
                      "shrinkage", "train_deviance", "trees"],
    "model_lr.json": ["config_hash", "gradient_max_norm", "intercept", "kind",
                      "standardizer", "weights"],
    "model_rf.json": ["base_score", "config_hash", "kind", "schema_version",
                      "shrinkage", "trees"],
    "partition.json": ["seed", "test", "train", "validation"],
    "prevalence.json": ["burden_mean", "burden_sd", "n", "systems", "target_count",
                        "target_prevalence"],
    "roc.json": ["config_hash", "curves"],
    "summary.json": ["config_hash", "importance_top10", "metrics", "n", "prevalence",
                     "schema_version", "split_sizes"],
}

CSV_HEADERS = {
    "indices.csv": ["kidney_flag", "lipid_flag", "inflamm_flag", "metabolic_flag",
                    "kidney_grade", "lipid_grade", "inflamm_grade", "metabolic_grade",
                    "burden_score", "affected_systems", "target_multi"],
    "metrics.csv": ["model", "cv_auc_mean", "cv_auc_sd", "auc", "accuracy",
                    "sensitivity", "specificity", "f1"],
    "importance.csv": ["rank", "feature", "mean_abs_shap"],
    "beeswarm.csv": ["row", "feature", "shap", "value", "rank"],
    "table1.csv": ["analyte", "mean", "median", "iqr", "min", "max"],
}


def test_run_directory_layout(tmp_path, fast_config):
    import csv

    out = tmp_path / "run"
    assert _run("all", str(out), fast_config) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    meta = json.loads((out / "explain_meta.json").read_text())
    pdp_files = [f"pdp_{f}.csv" for f in meta["top_features"]]
    assert meta["pdp_files"] == pdp_files
    figures = [f"figures/{n}.svg" for n in ("beeswarm", "burden", "correlation",
                                            "histograms", "importance", "pdp", "roc")]
    expected = sorted([*JSON_KEYS, *CSV_HEADERS, *pdp_files, *figures,
                       "cohort.csv", "matrix.csv"])
    expected.remove("manifest.json")
    assert sorted(manifest["artifacts"]) == expected

    for name, keys in JSON_KEYS.items():
        text = (out / name).read_text(encoding="utf-8")
        assert text.endswith("}\n"), name
        assert sorted(json.loads(text)) == keys, name
    assert sorted(json.loads((out / "model_lr.json").read_text())["standardizer"]) == [
        "mean", "scale"]

    def rows(name):
        with open(out / name, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))

    for name, header in CSV_HEADERS.items():
        assert rows(name)[0] == header, name
    for feature, name in zip(meta["top_features"], pdp_files):
        assert rows(name)[0] == [feature, "probability"]
    assert (out / "metrics.csv").read_bytes().startswith(b"model,cv_auc_mean,")
    assert b"\r\n" in (out / "metrics.csv").read_bytes()
    # Floats are written with repr(), so they read back bit for bit.
    for row in rows("beeswarm.csv")[1:]:
        for cell in row[2:4]:
            assert repr(float(cell)) == cell


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """(config path, run directory) of the fast config run through train."""
    base = tmp_path_factory.mktemp("trained")
    config = base / "config.json"
    config.write_text(json.dumps(FAST_CONFIG))
    for stage in ("simulate", "ingest", "features", "split", "train"):
        assert _run(stage, str(base / "run"), str(config)) == 0, stage
    return str(config), base / "run"


def _corrupt(trained_run, tmp_path, name, edit):
    """A copy of the trained run with `edit(text) -> text` applied to `name`."""
    config, source = trained_run
    out = tmp_path / "run"
    shutil.copytree(source, out)
    (out / name).write_text(edit((out / name).read_text()))
    return config, str(out)


def _exit_kind(capsys, stage, config, out):
    status = _run(stage, out, config)
    return status, json.loads(capsys.readouterr().err)["error"] if status else None


def _edit_json(edit):
    def apply(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return apply


def _point_back(doc):
    nodes = doc["trees"][0]["nodes"]
    inner = [i for i, node in enumerate(nodes) if i > 0 and node["feature"] != -1]
    nodes[inner[0]]["right"] = 0  # a child that is the root, an ancestor


def _point_past(doc):
    nodes = doc["trees"][0]["nodes"]
    nodes[0]["left"] = len(nodes)


def _nan_base_score(doc):
    doc["base_score"] = math.nan  # written as NaN, which json.load reads back


@pytest.mark.parametrize("edit", [_point_back, _point_past, _nan_base_score])
def test_malformed_tree_file_exits_2(trained_run, tmp_path, capsys, edit):
    # explain first: without the load check, a cyclic tree makes explain
    # recurse until RecursionError but evaluate's routing loop never ends.
    config, out = _corrupt(trained_run, tmp_path, "model_gb.json", _edit_json(edit))
    assert _exit_kind(capsys, "explain", config, out) == (2, "TreeError")
    assert _exit_kind(capsys, "evaluate", config, out) == (2, "TreeError")


def test_integer_base_score_loads_as_a_float(trained_run, tmp_path):
    # json.load reads 0 as an int, which the margin must not take as its dtype
    config, source = trained_run
    beeswarms = []
    for base_score in (0, 0.0):
        out = tmp_path / repr(base_score)
        shutil.copytree(source, out)
        doc = json.loads((out / "model_gb.json").read_text())
        (out / "model_gb.json").write_text(json.dumps({**doc, "base_score": base_score}))
        for stage in ("explain", "evaluate"):
            assert _run(stage, str(out), config) == 0, stage
        beeswarms.append((out / "beeswarm.csv").read_bytes())
    assert beeswarms[0] == beeswarms[1]


@pytest.mark.parametrize("edit", [
    lambda doc: doc.pop("intercept"),
    lambda doc: doc["standardizer"].pop("scale"),
    lambda doc: doc["weights"].pop(),
    lambda doc: doc.update(intercept=math.nan),
    lambda doc: doc.update(weights=[str(w) for w in doc["weights"]]),
    lambda doc: doc["standardizer"]["scale"].__setitem__(0, 0.0),
], ids=["no-intercept", "no-scale", "short-weights", "nan-intercept", "string-weights",
        "zero-scale"])
def test_malformed_logistic_file_exits_2(trained_run, tmp_path, capsys, edit):
    config, out = _corrupt(trained_run, tmp_path, "model_lr.json", _edit_json(edit))
    assert _exit_kind(capsys, "evaluate", config, out) == (2, "ModelError")


def _edit_columns(edit):
    """An edit of a CSV: `edit(cells) -> cells` applied to every line."""
    def apply(text):
        return "".join(",".join(edit(line.split(","))) + "\n" for line in text.splitlines())
    return apply


def _replace_cell(text, cell):
    """The CSV with the first cell of its second data row replaced by `cell`."""
    lines = text.splitlines(keepends=True)
    lines[2] = cell + lines[2][lines[2].index(","):]
    return "".join(lines)


@pytest.mark.parametrize("edit", [
    lambda text: "",
    lambda text: _replace_cell(text, "1.0,2.0"),
    lambda text: _replace_cell(text, "abc"),
    lambda text: _replace_cell(text, "nan"),
    lambda text: _replace_cell(text, "inf"),
    lambda text: text.replace("Cr,UA,", "Cr,Cr,", 1),
    _edit_columns(lambda cells: cells[:-1]),
    _edit_columns(lambda cells: cells[1::-1] + cells[2:]),
    lambda text: text[:text.index("\n") + 1],
], ids=["empty", "ragged", "non-numeric", "nan", "inf", "duplicate-column", "missing-column",
        "reordered-columns", "header-only"])
def test_corrupted_matrix_csv_exits_2(trained_run, tmp_path, capsys, edit):
    config, out = _corrupt(trained_run, tmp_path, "matrix.csv", edit)
    assert _exit_kind(capsys, "features", config, out) == (2, "IngestError")


def test_latin1_matrix_csv_exits_2(trained_run, tmp_path, capsys):
    config, out = _corrupt(trained_run, tmp_path, "matrix.csv", lambda text: text)
    path = os.path.join(out, "matrix.csv")
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    lines[-1] = lines[-1].replace(b",", "µ,".encode("latin-1"), 1)  # byte 0xb5
    with open(path, "wb") as fh:
        fh.write(b"".join(lines))
    assert _run("features", out, config) == 2
    line, err = _error_line(capsys)
    assert err["error"] == "IngestError"
    assert path in err["message"] and "UnicodeDecodeError" in err["message"]
    assert len(line) < 500
    assert lines[1].split(b",")[0].decode() not in err["message"]  # no cell text


def _swap_in_test_rows(doc, partition):
    doc["train_indices"][:5] = partition["test"][:5]


@pytest.mark.parametrize("edit", [
    lambda doc, _: doc.pop("k"),
    lambda doc, _: doc.pop("assignments"),
    lambda doc, _: doc.pop("train_indices"),
    lambda doc, _: doc["assignments"].pop(),
    lambda doc, _: doc.update(k="3"),
    lambda doc, _: doc["train_indices"].__setitem__(0, 10**6),
    lambda doc, _: doc.update(k=0),
    lambda doc, _: doc["assignments"].__setitem__(0, 9),
    _swap_in_test_rows,
    lambda doc, _: doc.update(train_indices=[float(i) for i in doc["train_indices"]]),
    # evaluate builds one task per (model, fold) before the first refit
    lambda doc, _: doc.update(k=doc["k"] + 1),
], ids=["no-k", "no-assignments", "no-train-indices", "short-assignments", "string-k",
        "index-out-of-range", "zero-k", "fold-past-k", "test-rows-as-train", "float-rows",
        "k-past-cv-folds"])
def test_malformed_folds_file_exits_2(trained_run, tmp_path, capsys, edit):
    # evaluate's CV rows are partition.json's train rows, which folds.json must list
    partition = json.loads((trained_run[1] / "partition.json").read_text())
    config, out = _corrupt(trained_run, tmp_path, "folds.json",
                           _edit_json(lambda doc: edit(doc, partition)))
    assert _exit_kind(capsys, "evaluate", config, out) == (2, "malformed-artifact")


@pytest.mark.parametrize("edit", [
    lambda doc: doc.pop("test"),
    lambda doc: doc["test"].__setitem__(0, 10**6),
    lambda doc: doc["validation"].__setitem__(0, "3"),
    lambda doc: doc.update(train=5),
], ids=["no-test", "index-past-matrix", "string-index", "train-not-a-list"])
@pytest.mark.parametrize("stage", ["evaluate", "explain"])
def test_malformed_partition_file_exits_2(trained_run, tmp_path, capsys, edit, stage):
    config, out = _corrupt(trained_run, tmp_path, "partition.json", _edit_json(edit))
    assert _exit_kind(capsys, stage, config, out) == (2, "malformed-artifact")


@pytest.mark.parametrize("name, stage", [
    ("folds.json", "evaluate"),
    ("model_gb.json", "explain"),
    ("roc.json", "report"),
    ("explain_meta.json", "report"),
])
def test_unparseable_json_artifact_exits_2(trained_run, tmp_path, capsys, name, stage):
    config, source = trained_run
    out = tmp_path / "run"
    shutil.copytree(source, out)
    if stage == "report":
        for upstream in ("evaluate", "explain"):
            assert _run(upstream, str(out), config) == 0, upstream
    (out / name).write_text("{")  # truncated
    assert _exit_kind(capsys, stage, config, str(out)) == (2, "malformed-artifact")


@pytest.fixture(scope="module")
def explained_run(trained_run, tmp_path_factory):
    """(config path, run directory) of the fast config run through explain."""
    config, source = trained_run
    out = tmp_path_factory.mktemp("explained") / "run"
    shutil.copytree(source, out)
    for stage in ("evaluate", "explain"):
        assert _run(stage, str(out), config) == 0, stage
    return config, out


def _set_cell(row, column, value):
    """An edit of a CSV artifact: the cell of `column` in `row` (0 is the
    header) set to `value`."""
    def apply(text):
        rows = list(csv.reader(io.StringIO(text)))
        rows[row][rows[0].index(column)] = value
        out = io.StringIO()
        csv.writer(out).writerows(rows)
        return out.getvalue()
    return apply


def _extra_row(text):
    return text + text.splitlines(keepends=True)[-1]


@pytest.mark.parametrize("pattern, edit, stages", [
    ("indices.csv", _set_cell(0, "target_multi", "target"), ("split",)),
    ("indices.csv", _set_cell(0, "target_multi", "target"), ("train",)),
    ("indices.csv", _set_cell(1, "target_multi", "x"), ("split",)),
    ("indices.csv", _set_cell(1, "target_multi", "x"), ("train",)),
    ("indices.csv", _set_cell(1, "target_multi", "2"), ("train",)),
    ("indices.csv", _set_cell(0, "burden_score", "burden"), ("report",)),
    ("indices.csv", _set_cell(1, "burden_score", "-1"), ("report",)),
    # split does not read matrix.csv, so it passes and writes a partition of n + 1 rows
    ("indices.csv", _extra_row, ("split", "train")),
    ("indices.csv", _extra_row, ("split", "evaluate")),
    ("indices.csv", _extra_row, ("report",)),
    ("roc.json", lambda text: "{}", ("report",)),
    ("explain_meta.json", lambda text: "{}", ("report",)),
    ("explain_meta.json", _edit_json(lambda doc: doc["pdp_files"].__setitem__(0, 5)),
     ("report",)),
    ("explain_meta.json", _edit_json(lambda doc: doc["pdp_files"].pop()), ("report",)),
    ("importance.csv", _set_cell(0, "feature", "name"), ("report",)),
    ("beeswarm.csv", _set_cell(0, "row", "id"), ("report",)),
    ("beeswarm.csv", _set_cell(1, "shap", "big"), ("report",)),
    ("pdp_*.csv", _set_cell(0, "probability", "p"), ("report",)),
    # each number read back is finite, and a curve's lists are lists of one length
    ("roc.json", _edit_json(lambda doc: doc["curves"]["random_forest"].update(fpr=0.5)),
     ("report",)),
    ("roc.json", _edit_json(lambda doc: doc["curves"]["random_forest"]["tpr"].pop()),
     ("report",)),
    ("beeswarm.csv", _set_cell(1, "value", "inf"), ("report",)),
    ("pdp_*.csv", _set_cell(1, "probability", "nan"), ("report",)),
    ("indices.csv", _set_cell(1, "target_multi", str(2**70)), ("split",)),  # past int64
], ids=["indices-no-target-split", "indices-no-target-train", "indices-bad-target-split",
        "indices-bad-target-train", "indices-target-2-train", "indices-no-burden-report",
        "indices-negative-burden-report", "indices-extra-row-train",
        "indices-extra-row-evaluate", "indices-extra-row-report", "roc-empty-report",
        "explain-meta-empty-report", "explain-meta-pdp-file-not-a-string-report",
        "explain-meta-pdp-file-missing-report", "importance-header-report", "beeswarm-header-report",
        "beeswarm-bad-shap-report", "pdp-header-report", "roc-scalar-fpr-report",
        "roc-short-tpr-report", "beeswarm-inf-value-report", "pdp-nan-probability-report",
        "indices-huge-target-split"])
def test_malformed_artifact_exits_2(explained_run, tmp_path, capsys, pattern, edit, stages):
    config, source = explained_run
    out = tmp_path / "run"
    shutil.copytree(source, out)
    paths = list(out.glob(pattern))
    assert paths
    for path in paths:
        path.write_text(edit(path.read_text()))
    *upstream, stage = stages
    for name in upstream:
        assert _run(name, str(out), config) == 0, name
    assert _exit_kind(capsys, stage, config, str(out)) == (2, "malformed-artifact")


@pytest.mark.parametrize("column, value", [("burden_score", "12"),
                                            ("affected_systems", "5")])
def test_indices_past_the_config_s_systems_exit_2(explained_run, tmp_path, capsys, column,
                                                   value):
    # report draws a bar for each burden score up to the largest: the default
    # systems hold 11 rules in 4 systems
    config, source = explained_run
    out = tmp_path / "run"
    shutil.copytree(source, out)
    (out / "indices.csv").write_text(_set_cell(1, column, value)(
        (out / "indices.csv").read_text()))
    assert _run("report", str(out), config) == 2
    _, err = _error_line(capsys)
    assert err["error"] == "malformed-artifact"
    assert "indices.csv" in err["message"] and column in err["message"]


def _drop_last_column(doc):
    for values in (doc["weights"], doc["standardizer"]["mean"], doc["standardizer"]["scale"]):
        values.pop()


def _split_on_column_99(doc):
    nodes = doc["trees"][0]["nodes"]
    nodes[0]["feature"] = 99


@pytest.mark.parametrize("name, edit, stages", [
    ("model_lr.json", _drop_last_column, ("evaluate",)),
    ("model_gb.json", _split_on_column_99, ("evaluate", "explain")),
    ("model_rf.json", _split_on_column_99, ("evaluate",)),
], ids=["lr-one-weight-short", "gb-feature-99", "rf-feature-99"])
def test_model_file_wider_than_matrix_exits_2(trained_run, tmp_path, capsys, name, edit,
                                              stages):
    config, out = _corrupt(trained_run, tmp_path, name, _edit_json(edit))
    for stage in stages:
        assert _exit_kind(capsys, stage, config, out) == (2, "malformed-artifact"), stage


def test_spec_path_takes_n_and_seed_from_the_config(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 50, "seed": 1}))
    cohorts = []
    for i, (synth, seed) in enumerate([({"spec_path": str(spec)}, None),
                                       ({"spec_path": str(spec), "n": 80, "seed": 5}, None),
                                       ({"spec_path": str(spec), "n": 80, "seed": 5}, 7),
                                       ({"spec_path": str(spec), "n": 80, "seed": 5}, 8)]):
        out = tmp_path / f"run{i}"
        assert _run("simulate", str(out), _write_config(tmp_path, {"synth": synth}),
                    seed=seed) == 0
        cohorts.append(tuple((out / "cohort.csv").read_text().splitlines()))
    assert [len(rows) - 1 for rows in cohorts] == [50, 80, 80, 80]
    assert len(set(cohorts)) == 4
