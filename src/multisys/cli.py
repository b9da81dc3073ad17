"""End-to-end pipeline orchestration.

Each subcommand reads its upstream artifacts from the run directory and
writes its own through ``Workspace.read`` / ``Workspace.write``, so every
stage is independently inspectable and replayable.  Every artifact is
registered in ``manifest.json`` together with the hash of the configuration
that produced it; stages refuse to mix artifacts from different
configurations unless ``--force`` is given.

``RunConfig.load`` checks the config in one walk over its declared shape
(``_shape``): unknown keys, wrongly typed values and out-of-range numbers
exit with status 2 before any stage writes.  The checked file merged onto
``DEFAULTS`` is the run config: one JSON document, which stages index and
the config hash digests as it is.

Subcommands: simulate, ingest, features, split, train, evaluate, explain,
report, all.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import functools
import hashlib
import inspect
import json
import logging
import math
import os
import sys
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from . import explain as explain_mod
from . import indices as indices_mod
from . import ingest as ingest_mod
from . import metrics as metrics_mod
from . import report as report_mod
from . import synth as synth_mod
from .base import MultisysError, csv_rows, read_file, write_file
from .models import (GradientBoostingClassifier, RandomForestClassifier,
                     LogisticRegressionClassifier, TreeEnsemble)
from .split import FoldPlan, Partition, stratified_kfold, stratified_split

log = logging.getLogger("multisys.cli")

SUMMARY_SCHEMA_VERSION = 1


class CliError(MultisysError):
    """Bad invocation, config or run directory; `kind` says which."""


config_error = functools.partial(CliError, kind="config")
artifact_error = functools.partial(CliError, kind="malformed-artifact")


class ModelKind(NamedTuple):
    artifact: str
    config_field: str  # the "models" key holding the parameters
    cls: type
    load: Callable[[dict], object]  # fitted model from the artifact's JSON


# Keyed by report name; the order is the fitting and reporting order.
MODELS = {
    "logistic_regression": ModelKind("model_lr.json", "logistic", LogisticRegressionClassifier,
                                     LogisticRegressionClassifier.from_dict),
    "random_forest": ModelKind("model_rf.json", "random_forest", RandomForestClassifier,
                               TreeEnsemble.from_dict),
    "gradient_boosting": ModelKind("model_gb.json", "gradient_boosting",
                                   GradientBoostingClassifier, TreeEnsemble.from_dict),
}

# The config a run uses where its file is silent: the block in README
# "Configuration".  A top-level key whose default is null may be set to null;
# an object is merged key by key, anything else is replaced whole.
DEFAULTS = {
    "input_csv": None,
    "synth": None,  # DEFAULT_SYNTH when input_csv is null too
    "schema_config": None,
    "systems_config": None,
    "split": {"ratios": [0.70, 0.15, 0.15], "seed": 42},
    "cv_folds": 5,
    "models": {
        "logistic": {"C": 1.0, "max_iter": 2000},
        "random_forest": {"n_estimators": 200, "max_depth": 8,
                          "min_samples_leaf": 10, "seed": 42},
        "gradient_boosting": {"n_estimators": 200, "learning_rate": 0.05,
                              "max_depth": 4, "min_samples_leaf": 10},
    },
}

# The synthetic cohort of a config without input_csv; a synth section without
# spec_path takes the n or seed it leaves out from here.
DEFAULT_SYNTH = {"n": 1195, "seed": 42}


class Bound(NamedTuple):
    """A numeric config leaf: the type of `default`, in (above, most]."""
    default: int | float
    above: float
    most: float = math.inf


def _shape() -> dict:
    """Everything a config may hold; see `_validate` for the notation.

    Model parameters are the model constructors' arguments; all but `seed`
    must be positive, and `learning_rate` at most 1.
    """
    models = {kind.config_field: {
                  key: p.default if key == "seed"
                  else Bound(p.default, 0, 1 if key == "learning_rate" else math.inf)
                  for key, p in inspect.signature(kind.cls).parameters.items()}
              for kind in MODELS.values()}
    return {"input_csv": "", "synth": {**DEFAULT_SYNTH, "spec_path": ""},
            "schema_config": "", "systems_config": "",
            "split": {"ratios": [Bound(0.0, 0)] * 3, "seed": DEFAULTS["split"]["seed"]},
            "cv_folds": Bound(DEFAULTS["cv_folds"], 1), "models": models}


def _validate(value, shape, where: str = "") -> None:
    """Raise a config CliError unless `value` fits `shape`.

    A dict shape lists the allowed keys, a list shape holds that many
    numbers, and any other shape is a default (or a `Bound`) whose type the
    value must have: an int may stand for a float, a bool never for a
    number.  The top-level keys whose default is null may also be null.
    """
    name = where or "config"
    if value is None and where in DEFAULTS and DEFAULTS[where] is None:
        return
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise CliError(f"{name} must be a JSON object", kind="config")
        unknown = sorted(set(value) - set(shape))
        if unknown:
            raise CliError(f"unknown {name} key(s): {', '.join(unknown)}", kind="config")
        for key, item in value.items():
            _validate(item, shape[key], f"{where}.{key}" if where else key)
    elif isinstance(shape, list):
        if not isinstance(value, list) or len(value) != len(shape):
            raise CliError(f"{name} is {value!r}, expected {len(shape)} numbers", kind="config")
        for item, item_shape in zip(value, shape):
            _validate(item, item_shape, name)
    else:
        default = shape.default if isinstance(shape, Bound) else shape
        allowed = (int, float) if isinstance(default, float) else type(default)
        if not isinstance(value, allowed) or isinstance(value, bool) != isinstance(default, bool):
            raise CliError(f"{name} is {value!r}, expected {type(default).__name__}",
                           kind="config")
        if isinstance(shape, Bound) and not shape.above < value <= shape.most:
            raise CliError(f"{name} is {value!r}, outside ({shape.above:g}, {shape.most:g}]",
                           kind="config")


def _merge(into: dict, update: dict) -> None:
    """Merge `update` onto `into`: objects key by key, other values whole."""
    for key, value in update.items():
        if isinstance(into.get(key), dict):
            _merge(into[key], value)
        else:
            into[key] = value


class RunConfig(dict):
    """The checked run config: DEFAULTS with the config file merged onto it."""

    @classmethod
    def load(cls, path: str | None, seed_override: int | None = None) -> "RunConfig":
        raw = {} if path is None else read_file(path, lambda doc: doc, config_error)
        _validate(raw, _shape())
        cfg = cls(copy.deepcopy(DEFAULTS))
        _merge(cfg, raw)
        if cfg["input_csv"] is None and cfg["synth"] is None:
            cfg["synth"] = dict(DEFAULT_SYNTH)
        if cfg["input_csv"] is not None and cfg["synth"] is not None:
            raise config_error("config must set exactly one of input_csv / synth")
        if abs(sum(cfg["split"]["ratios"]) - 1.0) > 1e-9:
            raise config_error("split ratios must sum to 1")
        if seed_override is not None:
            cfg["split"]["seed"] = cfg["models"]["random_forest"]["seed"] = seed_override
            if cfg["synth"] is not None:
                cfg["synth"]["seed"] = seed_override
        # Read every file the config names, so a bad one fails before any stage writes.
        if cfg["synth"] is not None:
            cfg.spec()
        cfg.schemas()
        cfg.systems()
        return cfg

    def hash(self) -> str:
        text = json.dumps(self, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def spec(self) -> synth_mod.GeneratorSpec:
        synth = self["synth"]
        if synth is None:
            raise config_error("simulate requires a synth spec in the config")
        spec = (synth_mod.spec_from_json(synth["spec_path"]) if "spec_path" in synth
                else synth_mod.GeneratorSpec(**DEFAULT_SYNTH))
        # the config's n and seed override the spec file's
        return replace(spec, **{k: synth[k] for k in ("n", "seed") if k in synth})

    def schemas(self):
        if self["schema_config"] is not None:
            return ingest_mod.schema_from_json(self["schema_config"])
        return ingest_mod.default_schema(), dict(ingest_mod.DEFAULT_SEMIQUANT_TOKENS)

    def systems(self):
        if self["systems_config"] is not None:
            return indices_mod.systems_from_json(self["systems_config"])
        return indices_mod.default_systems()

    def fitter(self, kind: ModelKind) -> Callable:
        """`fitter(X, y)` returning a fresh model of `kind` fitted on X, y;
        it pickles, so a process pool can run it."""
        return functools.partial(_fit, kind.cls, self["models"][kind.config_field])


def _fit(cls: type, params: dict, X, y):
    return cls(**params).fit(X, y)


def _check_manifest(doc: dict) -> dict:
    if not isinstance(doc["artifacts"], dict):
        raise ValueError("artifacts is not an object")
    return doc


class Workspace:
    """The run directory: artifact I/O and the config-hash manifest."""

    def __init__(self, out_dir: str, cfg: RunConfig, force: bool = False):
        self.out_dir = out_dir
        self.cfg = cfg
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise config_error(f"cannot use {out_dir} as the run directory: {exc}") from exc
        self.manifest = {"config_hash": cfg.hash(), "artifacts": {}}
        path = self.path("manifest.json")
        if os.path.exists(path):
            found = read_file(path, _check_manifest, config_error)
            if found.get("config_hash") == cfg.hash():
                self.manifest = found
            elif not force:
                raise CliError(
                    f"run directory {out_dir} holds artifacts for config "
                    f"{found.get('config_hash')}, current config is "
                    f"{cfg.hash()}; pass --force to overwrite",
                    kind="config-hash-mismatch")

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def _put(self, name: str, content) -> None:
        """Write `path(name)` atomically, so a failed write leaves the
        previous bytes."""
        path = self.path(name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with write_file(path) as fh:
            if isinstance(content, dict):
                json.dump(content, fh, sort_keys=True, indent=1)
                fh.write("\n")
            elif isinstance(content, list):
                csv.writer(fh).writerows(content)
            else:
                fh.write(content)

    def register(self, name: str) -> None:
        """Record an artifact written at `path(name)` in the manifest."""
        self.manifest["artifacts"][name] = self.cfg.hash()
        self._put("manifest.json", self.manifest)

    def write(self, name: str, content) -> None:
        """Write and register an artifact: a dict as JSON, a list as CSV
        rows (header first), a str verbatim."""
        self._put(name, content)
        self.register(name)

    def require(self, name: str) -> str:
        path = self.path(name)
        if not os.path.exists(path) or name not in self.manifest["artifacts"]:
            raise CliError(f"missing {name} artifact; run the upstream stage first",
                           kind="missing-artifact")
        return path

    def read(self, name: str, decode=lambda doc: doc):
        """`decode` of a registered artifact's parsed JSON, or of its CSV rows
        as dicts; kind malformed-artifact if it does not parse or decode."""
        path = self.require(name)
        if name.endswith(".json"):
            return read_file(path, decode, artifact_error)
        return read_file(path, decode, artifact_error, parse=csv_rows)


def _table(records: list[dict]) -> list[list]:
    """CSV rows, header first, of records that share their keys."""
    return [list(records[0]), *(list(r.values()) for r in records)]


# ---------------------------------------------------------------------------
# stages

def stage_simulate(ws: Workspace) -> None:
    spec = ws.cfg.spec()
    header, rows = synth_mod.generate(spec)
    ws.write("cohort.csv", [header, *rows])
    log.info("simulate: wrote %d-row cohort", spec.n)


def stage_ingest(ws: Workspace) -> None:
    if ws.cfg["input_csv"] is not None:
        source = ws.cfg["input_csv"]
        if not os.path.exists(source):
            raise CliError(f"input CSV {source} does not exist", kind="missing-input")
    else:
        source = ws.require("cohort.csv")
    schemas, tokens = ws.cfg.schemas()
    cohort = ingest_mod.load_cohort(source, schemas)
    matrix, audit = ingest_mod.clean_cohort(cohort, schemas, tokens)
    ingest_mod.write_matrix_csv(matrix, ws.path("matrix.csv"))
    ws.register("matrix.csv")
    ws.write("audit.json", audit)
    log.info("ingest: %d rows, %d columns", *matrix.values.shape)


def _load_matrix(ws: Workspace) -> ingest_mod.FeatureMatrix:
    schemas, _ = ws.cfg.schemas()
    return ingest_mod.read_matrix_csv(ws.require("matrix.csv"), schemas)


def stage_features(ws: Workspace) -> None:
    matrix = _load_matrix(ws)
    systems = ws.cfg.systems()
    idx = indices_mod.compute_indices(matrix, systems)
    names = idx.systems
    header = ([f"{s}_flag" for s in names] + [f"{s}_grade" for s in names]
              + ["burden_score", "affected_systems", "target_multi"])
    columns = ([idx.flags[s] for s in names] + [idx.grades[s] for s in names]
               + [idx.burden_score, idx.affected_systems, idx.target_multi])
    ws.write("indices.csv", [header, *np.column_stack(columns).astype(int).tolist()])
    summary = indices_mod.prevalence_summary(idx, systems, matrix)
    ws.write("prevalence.json", summary)
    log.info("features: target prevalence %.3f", summary["target_prevalence"])


def _load_indices(ws: Workspace, n_rows: int | None, *columns: str) -> list[np.ndarray]:
    """The integer `columns` of indices.csv, which must have n_rows rows if given:
    target_multi 0 or 1, every other column at least 0."""
    def decode(reader):
        header, *rows = reader
        if n_rows is not None and len(rows) != n_rows:
            raise ValueError(f"{len(rows)} rows, matrix.csv has {n_rows}")
        decoded = [np.asarray([int(row[i]) for row in rows]) for i in map(header.index, columns)]
        for c, values in zip(columns, decoded):
            top = 1 if c == "target_multi" else np.inf
            if ((values < 0) | (values > top)).any():
                raise ValueError(f"{c} has a value outside [0, {top}]")
        return decoded
    return read_file(ws.require("indices.csv"), decode, artifact_error, parse=csv.reader)


def stage_split(ws: Workspace) -> None:
    [y] = _load_indices(ws, None, "target_multi")
    partition = stratified_split(y, ws.cfg["split"]["ratios"], ws.cfg["split"]["seed"])
    ws.write("partition.json", partition.to_json() + "\n")
    train_idx = np.asarray(partition.train)
    folds = stratified_kfold(y[train_idx], ws.cfg["cv_folds"], ws.cfg["split"]["seed"])
    ws.write("folds.json", {"k": folds.k, "train_indices": partition.train,
                            "assignments": folds.assignments})
    log.info("split: %d/%d/%d", len(partition.train), len(partition.validation),
             len(partition.test))


def _check_ints(name: str, values, below: int) -> None:
    """ValueError unless `values` is a list of integers in [0, below)."""
    if not isinstance(values, list) or not all(type(i) is int and 0 <= i < below for i in values):
        raise ValueError(f"{name} is not a list of integers in [0, {below})")


def _load_partition(ws: Workspace, n_rows: int) -> Partition:
    """partition.json, checked against the matrix's n_rows."""
    def decode(doc):
        partition = Partition(**doc)
        for subset in ("train", "validation", "test"):
            _check_ints(subset, getattr(partition, subset), n_rows)
        return partition
    return ws.read("partition.json", decode)


def _load_folds(ws: Workspace, n_rows: int) -> tuple[np.ndarray, FoldPlan]:
    """folds.json's train indices, checked against the matrix's n_rows, and
    its fold plan: k >= 2 folds, one assignment in [0, k) per train index."""
    def decode(doc):
        k, train_idx, assignments = doc["k"], doc["train_indices"], doc["assignments"]
        if type(k) is not int or k < 2:
            raise ValueError(f"k is {k!r}, expected an integer >= 2")
        _check_ints("train_indices", train_idx, n_rows)
        _check_ints("assignments", assignments, k)
        if len(assignments) != len(train_idx):
            raise ValueError(f"{len(assignments)} fold assignments for "
                             f"{len(train_idx)} train_indices")
        return np.asarray(train_idx), FoldPlan(k=k, assignments=assignments)
    return ws.read("folds.json", decode)


def _load_model(ws: Workspace, kind: ModelKind, n_columns: int):
    """The fitted model in kind.artifact; CliError unless its weights, or its
    split features, fit the matrix's n_columns."""
    model = ws.read(kind.artifact, kind.load)
    if not (model.splits_within(n_columns) if isinstance(model, TreeEnsemble)
            else len(model.coef_) == n_columns):
        raise artifact_error(f"{kind.artifact} does not fit the {n_columns} columns of matrix.csv")
    return model


def stage_train(ws: Workspace) -> None:
    matrix = _load_matrix(ws)
    [y] = _load_indices(ws, len(matrix.values), "target_multi")
    train_idx = np.asarray(_load_partition(ws, len(y)).train)
    X_train, y_train = matrix.values[train_idx], y[train_idx]
    for kind in MODELS.values():
        model = ws.cfg.fitter(kind)(X_train, y_train)
        ws.write(kind.artifact, {**model.to_dict(), "config_hash": ws.cfg.hash()})
    log.info("train: fitted %d models on %d rows", len(MODELS), len(train_idx))


@contextlib.contextmanager
def _task_map(n_tasks: int):
    """An ordered map for `n_tasks` independent tasks: a fork process pool's,
    as wide as the CPU affinity allows, or the builtin at width 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    width = min(cpus, n_tasks)
    if width == 1:
        yield map
        return
    # Imported here, so that a run that starts no pool does not load them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, named because Python 3.14 changes the default: workers start with
    # the parent's imports and do not re-run __main__, and a fork pool starts
    # every worker before its own thread.
    with ProcessPoolExecutor(width, mp_context=multiprocessing.get_context("fork")) as pool:
        yield pool.map


def stage_evaluate(ws: Workspace) -> None:
    matrix = _load_matrix(ws)
    [y] = _load_indices(ws, len(matrix.values), "target_multi")
    partition = _load_partition(ws, len(y))
    train_idx, fold_plan = _load_folds(ws, len(y))
    # every model file is loaded, and so checked, before the first refit
    fitted = {name: _load_model(ws, kind, matrix.values.shape[1])
              for name, kind in MODELS.items()}

    fitters = {name: ws.cfg.fitter(kind) for name, kind in MODELS.items()}
    with _task_map(len(fitters) * fold_plan.k) as task_map:
        results = metrics_mod.cv_evaluate(fitters, matrix.values[train_idx], y[train_idx],
                                          fold_plan, task_map)
    roc_doc = {}
    for name, model in fitted.items():
        entry = results[name]
        for subset, rows in (("validation", partition.validation),
                             ("test", partition.test)):
            rows = np.asarray(rows)
            scores = model.predict_proba(matrix.values[rows])
            curve = metrics_mod.roc_curve(scores, y[rows])
            entry[subset] = {"auc": curve.auc, **metrics_mod.confusion_at(scores, y[rows])}
            if subset == "test":
                roc_doc[name] = {"fpr": [float(v) for v in curve.fpr],
                                 "tpr": [float(v) for v in curve.tpr],
                                 "auc": curve.auc}
    ws.write("metrics.json", {"config_hash": ws.cfg.hash(), "threshold": 0.5,
                              "models": results})
    ws.write("roc.json", {"config_hash": ws.cfg.hash(), "curves": roc_doc})
    rows = [["model", "cv_auc_mean", "cv_auc_sd", "auc", "accuracy",
             "sensitivity", "specificity", "f1"]]
    for name, entry in results.items():
        test = entry["test"]
        rows.append([name] + [f"{v:.3f}" for v in (
            entry["cv_auc_mean"], entry["cv_auc_sd"], test["auc"], test["accuracy"],
            test["sensitivity"], test["specificity"], test["f1"])])
    ws.write("metrics.csv", rows)
    log.info("evaluate: GB test AUC %.4f", results["gradient_boosting"]["test"]["auc"])


def stage_explain(ws: Workspace) -> None:
    matrix = _load_matrix(ws)
    partition = _load_partition(ws, len(matrix.values))
    gb = _load_model(ws, MODELS["gradient_boosting"], matrix.values.shape[1])
    X_test = matrix.values[np.asarray(partition.test)]
    names = matrix.names

    attribution = explain_mod.tree_shap(gb, X_test)
    ranking = explain_mod.global_importance(attribution, names)
    ws.write("importance.csv", [["rank", "feature", "mean_abs_shap"]]
             + [[r, feature, value] for r, (feature, value) in enumerate(ranking, 1)])
    records = explain_mod.beeswarm_export(attribution, X_test, names)
    ws.write("beeswarm.csv", _table(records))

    X_train = matrix.values[np.asarray(partition.train)]
    pdp_files = []
    for feature, _ in ranking[:3]:
        curve = explain_mod.partial_dependence(gb, X_train, matrix.column_index(feature))
        fname = f"pdp_{feature}.csv"
        ws.write(fname, [[feature, "probability"]]
                 + [[float(g), float(r)] for g, r in zip(curve.grid, curve.response)])
        pdp_files.append(fname)
    ws.write("explain_meta.json", {"config_hash": ws.cfg.hash(),
                                   "base_value": attribution.base_value,
                                   "top_features": [f for f, _ in ranking[:3]],
                                   "pdp_files": pdp_files})
    log.info("explain: top feature %s", ranking[0][0])


def stage_report(ws: Workspace) -> None:
    matrix = _load_matrix(ws)
    figures = {}
    continuous = [(c.name, matrix.column(c.name)) for c in matrix.columns
                  if c.kind == "continuous" and c.name not in matrix.zero_filled][:12]
    figures["histograms"] = report_mod.render_histogram_grid(continuous)

    figures["burden"] = report_mod.render_burden_distribution(
        *_load_indices(ws, len(matrix.values), "burden_score", "affected_systems"))

    names = [name for name, _ in continuous]
    corr = np.corrcoef(np.column_stack([matrix.column(n) for n in names]), rowvar=False)
    figures["correlation"] = report_mod.render_correlation_heatmap(names, corr)

    figures["roc"] = report_mod.render_roc(ws.read("roc.json", lambda doc: [
        (name, np.asarray(c["fpr"], dtype=float), np.asarray(c["tpr"], dtype=float),
         float(c["auc"])) for name, c in sorted(doc["curves"].items())]))

    figures["beeswarm"] = report_mod.render_beeswarm(ws.read("beeswarm.csv", lambda rows: [
        {"row": int(r["row"]), "feature": r["feature"], "shap": float(r["shap"]),
         "value": float(r["value"]), "rank": int(r["rank"])} for r in rows]))

    figures["importance"] = report_mod.render_importance_bar(ws.read(
        "importance.csv", lambda rows: [(r["feature"], float(r["mean_abs_shap"])) for r in rows]))

    # read inside explain_meta.json's decode, so a bad pdp file name is that file's error
    def pdp_curves(meta: dict) -> list:
        curves = []
        for feature, fname in zip(meta["top_features"], meta["pdp_files"], strict=True):
            curves.append((feature, *ws.read(fname, lambda rows: (
                np.asarray([float(r[feature]) for r in rows]),
                np.asarray([float(r["probability"]) for r in rows])))))
        return curves
    figures["pdp"] = report_mod.render_pdp_panel(ws.read("explain_meta.json", pdp_curves))

    for name, svg in figures.items():
        ws.write(f"figures/{name}.svg", svg)
    ws.write("table1.csv", _table(report_mod.table_summary(matrix)))
    log.info("report: wrote %d figures", len(figures))


def stage_all(ws: Workspace) -> None:
    if ws.cfg["synth"] is not None:
        stage_simulate(ws)
    stage_ingest(ws)
    stage_features(ws)
    stage_split(ws)
    stage_train(ws)
    stage_evaluate(ws)
    stage_explain(ws)
    stage_report(ws)

    n, prevalence = ws.read("prevalence.json", lambda doc: (doc["n"], doc))
    ws.write("summary.json", {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "config_hash": ws.cfg.hash(),
        "n": n,
        "split_sizes": ws.read("partition.json", lambda doc: {
            subset: len(doc[subset]) for subset in ("train", "validation", "test")}),
        "prevalence": prevalence,
        "metrics": ws.read("metrics.json", lambda doc: doc["models"]),
        "importance_top10": ws.read("importance.csv", lambda rows: [
            {"rank": int(r["rank"]), "feature": r["feature"],
             "mean_abs_shap": float(r["mean_abs_shap"])} for r in rows[:10]]),
    })
    log.info("all: summary written")


STAGES = {
    "simulate": stage_simulate,
    "ingest": stage_ingest,
    "features": stage_features,
    "split": stage_split,
    "train": stage_train,
    "evaluate": stage_evaluate,
    "explain": stage_explain,
    "report": stage_report,
    "all": stage_all,
}


def run_subcommand(name: str, config_path: str | None, out_dir: str,
                   seed: int | None = None, force: bool = False) -> int:
    """Run one pipeline stage; returns a process exit status."""
    try:
        cfg = RunConfig.load(config_path, seed_override=seed)
        ws = Workspace(out_dir, cfg, force=force)
        STAGES[name](ws)
        return 0
    except MultisysError as exc:
        json.dump({"error": exc.kind, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="multisys",
        description="Multi-system abnormality prediction pipeline")
    parser.add_argument("subcommand", choices=sorted(STAGES))
    parser.add_argument("--config", default=None, help="path to a run config JSON")
    parser.add_argument("--out", default="runs/default", help="run directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seeds")
    parser.add_argument("--force", action="store_true",
                        help="allow mixing artifacts from different config hashes")
    args = parser.parse_args(argv)

    level = os.environ.get("MULTISYS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s %(levelname)s %(message)s")
    return run_subcommand(args.subcommand, args.config, args.out,
                          seed=args.seed, force=args.force)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
