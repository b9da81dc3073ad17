"""Pipeline orchestration: stage wiring, manifests and error handling."""

import concurrent.futures
import csv
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np
import pytest
from conftest import FAST_CONFIG

from multisys.cli import CliError, RunConfig, Workspace, main, run_subcommand


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

    manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert manifest["config_hash"] == RunConfig.load(fast_config).hash()
    assert "metrics.json" in manifest["artifacts"]

    metrics = json.loads(open(os.path.join(out, "metrics.json")).read())
    for model in ("logistic_regression", "random_forest", "gradient_boosting"):
        assert 0.0 <= metrics["models"][model]["test"]["auc"] <= 1.0


# sha256 of the fast config's models and metrics.  A refactor of the split
# search, the tree layout or the logistic model must leave them byte-identical.
# The digests were recorded with numpy 2.4.6 and scipy 1.17.1, whose L-BFGS
# the logistic weights depend on.
PINNED_MODELS = {
    "model_rf.json": "52384418b3ccf68394c2cc3311d0960ddbc83c85c215010a297260238ebe76ef",
    "model_gb.json": "82dd576a8d8d90097c86cd76d6750325024c20630bd5497280de66202214aca5",
    "model_lr.json": "7a3fef6ad61a87ed6fd45db0b2f75849bc35686e77851a07db60c62ebae74089",
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


def test_corrupted_input_ingest_is_pinned(tmp_path):
    from multisys.synth import GeneratorSpec, generate
    header, rows = generate(GeneratorSpec(n=60, seed=11))
    for i, name, cell in CORRUPTED_CELLS:
        rows[i][header.index(name)] = cell
    path = tmp_path / "corrupted.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    cfg = _write_config(tmp_path, {"input_csv": str(path)})
    _assert_pinned(tmp_path, cfg, ("ingest",), PINNED_INGEST)
    audit = json.loads((tmp_path / "run" / "audit.json").read_text())["columns"]
    assert [audit["Cr"][k] for k in ("unparsed", "implausible", "imputed")] == [1, 1, 2]
    assert audit["BUN"]["unparsed"] == 10 and audit["BUN"]["fill"] == 0.0


def test_missing_upstream_artifact(tmp_path, fast_config, capsys):
    out = str(tmp_path / "run")
    status = _run("train", out, fast_config)
    assert status == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "missing-artifact"


@pytest.mark.parametrize("manifest", ["{", "[]", '{"config_hash": "x"}'])
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
    manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
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
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert summary["schema_version"] == 1
    assert summary["n"] == 160
    sizes = summary["split_sizes"]
    assert sizes["train"] + sizes["validation"] + sizes["test"] == 160
    assert len(summary["importance_top10"]) == 10
    assert summary["config_hash"] == RunConfig.load(fast_config).hash()


def _trained_run(tmp_path, config) -> str:
    out = str(tmp_path / "run")
    for stage in ("simulate", "ingest", "features", "split", "train"):
        assert _run(stage, out, config) == 0, stage
    return out


def test_evaluate_outputs_are_the_same_at_any_pool_width(tmp_path, fast_config, monkeypatch):
    out = _trained_run(tmp_path, fast_config)
    widths = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, width, **kwargs):
            widths.append(width)
            super().__init__(width, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    outputs = []
    for cpus in ({0}, {0, 1}):
        run = tmp_path / f"cpus{len(cpus)}"
        shutil.copytree(out, run)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        assert _run("evaluate", str(run), fast_config) == 0
        outputs.append({name: (run / name).read_bytes()
                        for name in ("metrics.json", "roc.json", "metrics.csv")})
    assert widths == [2]  # width 1 starts no pool
    assert outputs[0] == outputs[1]


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


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"split_seed": 3})
    assert _run("simulate", str(tmp_path / "run"), cfg) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "split_seed" in err["message"]
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
])
def test_bad_config_files_exit_2_before_any_artifact(tmp_path, capsys, key, content, kind):
    path = tmp_path / "file.json"
    if content is not None:
        path.write_text(json.dumps(content))
    raw = {"synth": {"spec_path": str(path)}} if key == "spec_path" else {key: str(path)}
    assert _run("simulate", str(tmp_path / "run"), _write_config(tmp_path, raw)) == 2
    assert json.loads(capsys.readouterr().err)["error"] == kind
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
], ids=["empty", "ragged", "non-numeric", "nan", "inf", "duplicate-column", "missing-column",
        "reordered-columns"])
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


@pytest.mark.parametrize("edit", [
    lambda doc: doc.pop("k"),
    lambda doc: doc.pop("assignments"),
    lambda doc: doc.pop("train_indices"),
    lambda doc: doc["assignments"].pop(),
    lambda doc: doc.update(k="3"),
    lambda doc: doc["train_indices"].__setitem__(0, 10**6),
    lambda doc: doc.update(k=0),
    lambda doc: doc["assignments"].__setitem__(0, 9),
], ids=["no-k", "no-assignments", "no-train-indices", "short-assignments", "string-k",
        "index-out-of-range", "zero-k", "fold-past-k"])
def test_malformed_folds_file_exits_2(trained_run, tmp_path, capsys, edit):
    config, out = _corrupt(trained_run, tmp_path, "folds.json", _edit_json(edit))
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
], ids=["indices-no-target-split", "indices-no-target-train", "indices-bad-target-split",
        "indices-bad-target-train", "indices-target-2-train", "indices-no-burden-report",
        "indices-negative-burden-report", "indices-extra-row-train",
        "indices-extra-row-evaluate", "indices-extra-row-report", "roc-empty-report",
        "explain-meta-empty-report", "explain-meta-pdp-file-not-a-string-report",
        "explain-meta-pdp-file-missing-report", "importance-header-report", "beeswarm-header-report",
        "beeswarm-bad-shap-report", "pdp-header-report"])
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
