"""End-to-end pipeline orchestration.

Each subcommand reads its upstream artifacts from the run directory and
writes its own through ``Workspace.read`` / ``Workspace.write``, so every
stage is independently inspectable and replayable; ``all`` reads the matrix,
labels and partition that several stages share once (``Workspace.matrix``
etc.), and a stage run on its own reads them as before.  Every artifact is
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
from .base import MultisysError, check_keys, is_finite, numbers, read_file, write_file
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


# The largest value of each bounded model parameter.  The size keys' bounds lie
# far past any run of this pipeline, but keep a fit from running until killed.
MOST = {"learning_rate": 1, "n_estimators": 10_000, "max_depth": 100,
        "min_samples_leaf": synth_mod.MAX_ROWS, "max_iter": 100_000}


def _shape() -> dict:
    """Everything a config may hold; see `_validate` for the notation.

    Model parameters are the model constructors' arguments; all but `seed`
    must be positive, and at most their `MOST` value.
    """
    models = {kind.config_field: {
                  key: p.default if key == "seed"
                  else Bound(p.default, 0, MOST.get(key, math.inf))
                  for key, p in inspect.signature(kind.cls).parameters.items()}
              for kind in MODELS.values()}
    synth = {"n": Bound(DEFAULT_SYNTH["n"], 0, synth_mod.MAX_ROWS),
             "seed": DEFAULT_SYNTH["seed"], "spec_path": ""}
    return {"input_csv": "", "synth": synth, "schema_config": "", "systems_config": "",
            "split": {"ratios": [Bound(0.0, 0)] * 3, "seed": DEFAULTS["split"]["seed"]},
            "cv_folds": Bound(DEFAULTS["cv_folds"], 1, 100), "models": models}


def _validate(value, shape, where: str = ""):
    """`value` itself; ValueError unless it fits `shape`.

    A dict shape lists the allowed keys, a list shape holds that many
    numbers, and any other shape is a default (or a `Bound`) whose type the
    value must have: a float default takes any finite number (an int, never
    a bool), any other default a value of exactly its type.  The top-level
    keys whose default is null may also be null.
    """
    name = where or "config"
    if value is None and where in DEFAULTS and DEFAULTS[where] is None:
        return value
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be a JSON object")
        for key, item in check_keys(value, shape, name).items():
            _validate(item, shape[key], f"{where}.{key}" if where else key)
    elif isinstance(shape, list):
        if not isinstance(value, list) or len(value) != len(shape):
            raise ValueError(f"{name} is {value!r}, expected {len(shape)} numbers")
        for item, item_shape in zip(value, shape):
            _validate(item, item_shape, name)
    else:
        default = shape.default if isinstance(shape, Bound) else shape
        if not (is_finite(value) if isinstance(default, float) else type(value) is type(default)):
            expected = "a finite number" if isinstance(default, float) else type(default).__name__
            raise ValueError(f"{name} is {value!r}, expected {expected}")
        if isinstance(shape, Bound) and not shape.above < value <= shape.most:
            raise ValueError(f"{name} is {value!r}, outside ({shape.above:g}, {shape.most:,}]")
    return value


def _merge(into: dict, update: dict) -> None:
    """Merge `update` onto `into`: objects key by key, other values whole."""
    for key, value in update.items():
        if isinstance(into.get(key), dict):
            _merge(into[key], value)
        else:
            into[key] = value


class RunConfig(dict):
    """The checked run config: DEFAULTS with the config file merged onto it,
    and the files it names, parsed once by `load`, as attributes the config
    hash does not see: `spec` (None without synth), `schemas`, `tokens`, `systems`."""

    @classmethod
    def load(cls, path: str | None, seed_override: int | None = None) -> "RunConfig":
        raw = {} if path is None else read_file(path, lambda doc: _validate(doc, _shape()),
                                                config_error)
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
        # Parse every file the config names here, so a bad one fails before any stage writes.
        synth = cfg["synth"]
        cfg.spec = None if synth is None else replace(
            synth_mod.spec_from_json(synth["spec_path"]) if "spec_path" in synth
            else synth_mod.GeneratorSpec(**DEFAULT_SYNTH),
            # the config's n and seed override the spec file's
            **{k: synth[k] for k in ("n", "seed") if k in synth})
        cfg.schemas, cfg.tokens = (
            ingest_mod.schema_from_json(cfg["schema_config"]) if cfg["schema_config"] is not None
            else (ingest_mod.default_schema(), dict(ingest_mod.DEFAULT_SEMIQUANT_TOKENS)))
        cfg.systems = (indices_mod.systems_from_json(cfg["systems_config"])
                       if cfg["systems_config"] is not None else indices_mod.default_systems())
        return cfg

    def hash(self) -> str:
        text = json.dumps(self, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

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
    """The run directory: artifact I/O, the config-hash manifest, and the
    shared inputs `matrix`, `labels` and `partition`, each read the first time
    a stage uses it and kept.  No stage uses one before the stage that writes
    it has run, so a kept value is what a stage run alone would decode.  The
    matrix's values are read-only: a write would change a later stage's input."""

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
        """Write `path(name)` as `write` says, atomically: a failed write
        leaves the previous bytes."""
        path = self.path(name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with write_file(path) as fh:
            if isinstance(content, str):
                fh.write(content)
            elif name.endswith(".csv"):
                ingest_mod.write_table(fh, content)
            else:
                json.dump(content, fh, sort_keys=True, indent=1)
                fh.write("\n")

    def register(self, name: str) -> None:
        """Record an artifact written at `path(name)` in the manifest."""
        self.manifest["artifacts"][name] = self.cfg.hash()
        self._put("manifest.json", self.manifest)

    def write(self, name: str, content) -> None:
        """Write and register an artifact: a str verbatim; a `.csv` table, a dict
        of equal-length columns keyed by header, through `ingest.write_table`;
        anything else as JSON."""
        self._put(name, content)
        self.register(name)

    def require(self, name: str) -> str:
        path = self.path(name)
        if not os.path.exists(path) or name not in self.manifest["artifacts"]:
            raise CliError(f"missing {name} artifact; run the upstream stage first",
                           kind="missing-artifact")
        return path

    def read(self, name: str, decode=lambda doc: doc, kinds: dict | None = None):
        """`decode` of a registered artifact's parsed JSON, or of its CSV columns named
        in `kinds` (`ingest.csv_columns`); kind malformed-artifact if parse or decode fails."""
        parse = (json.load if name.endswith(".json")
                 else functools.partial(ingest_mod.csv_columns, kinds=kinds))
        return read_file(self.require(name), decode, artifact_error, parse=parse)

    @functools.cached_property
    def matrix(self) -> ingest_mod.FeatureMatrix:
        matrix = ingest_mod.read_matrix_csv(self.require("matrix.csv"), self.cfg.schemas)
        matrix.values.setflags(write=False)
        return matrix

    @functools.cached_property
    def labels(self) -> np.ndarray:
        """indices.csv's target_multi, one per matrix row."""
        return _load_indices(self, len(self.matrix.values), "target_multi")[0]

    @functools.cached_property
    def partition(self) -> Partition:
        """partition.json, its subsets int arrays of rows below the matrix's row count."""
        n_rows = len(self.matrix.values)
        return self.read("partition.json", lambda doc: Partition(**{**doc, **{
            subset: numbers(doc[subset], subset, below=n_rows)
            for subset in ("train", "validation", "test")}}))


# ---------------------------------------------------------------------------
# stages

def stage_simulate(ws: Workspace) -> None:
    spec = ws.cfg.spec
    if spec is None:
        raise config_error("simulate requires a synth spec in the config")
    header, rows = synth_mod.generate(spec)
    ws.write("cohort.csv", dict(zip(header, zip(*rows))))
    log.info("simulate: wrote %d-row cohort", spec.n)


def stage_ingest(ws: Workspace) -> None:
    if ws.cfg["input_csv"] is not None:
        source = ws.cfg["input_csv"]
        if not os.path.exists(source):
            raise CliError(f"input CSV {source} does not exist", kind="missing-input")
    else:
        source = ws.require("cohort.csv")
    cohort = ingest_mod.load_cohort(source, ws.cfg.schemas)
    matrix, audit = ingest_mod.clean_cohort(cohort, ws.cfg.schemas, ws.cfg.tokens)
    ingest_mod.write_matrix_csv(matrix, ws.path("matrix.csv"))
    ws.register("matrix.csv")
    ws.write("audit.json", audit)
    log.info("ingest: %d rows, %d columns", *matrix.values.shape)


def stage_features(ws: Workspace) -> None:
    idx = indices_mod.compute_indices(ws.matrix, ws.cfg.systems)
    ws.write("indices.csv", {**{f"{s}_flag": idx.flags[s].view(np.int8) for s in idx.systems},
                             **{f"{s}_grade": idx.grades[s] for s in idx.systems},
                             "burden_score": idx.burden_score,
                             "affected_systems": idx.affected_systems,
                             "target_multi": idx.target_multi.view(np.int8)})
    summary = indices_mod.prevalence_summary(idx)
    ws.write("prevalence.json", summary)
    log.info("features: target prevalence %.3f", summary["target_prevalence"])


def _load_indices(ws: Workspace, n_rows: int | None, *columns: str) -> list[np.ndarray]:
    """The integer `columns` of indices.csv, which must have n_rows rows if given:
    target_multi 0 or 1, burden_score at most the config's rules and
    affected_systems at most its systems, each at least 0."""
    top = {"target_multi": 1, "burden_score": sum(len(s.rules) for s in ws.cfg.systems),
           "affected_systems": len(ws.cfg.systems)}

    def decode(table):
        if n_rows is not None and len(table[columns[0]]) != n_rows:
            raise ValueError(f"{len(table[columns[0]])} rows, matrix.csv has {n_rows}")
        return [numbers(table[c].tolist(), c, below=top[c] + 1) for c in columns]
    return ws.read("indices.csv", decode, kinds=dict.fromkeys(columns, int))


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


def _load_folds(ws: Workspace, train: np.ndarray, n_rows: int) -> FoldPlan:
    """folds.json's fold plan of partition.json's `train` rows: the config's
    cv_folds as k, one assignment in [0, k) per row, and `train` as its
    train_indices."""
    def decode(doc):
        k = doc["k"]
        if type(k) is not int or k != ws.cfg["cv_folds"]:
            raise ValueError(f"k is {k!r}, expected cv_folds {ws.cfg['cv_folds']}")
        if not np.array_equal(numbers(doc["train_indices"], "train_indices", below=n_rows), train):
            raise ValueError("train_indices are not partition.json's train rows")
        return FoldPlan(k=k, assignments=numbers(doc["assignments"], "assignments", len(train), k))
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
    train_idx = ws.partition.train
    X_train, y_train = ws.matrix.values[train_idx], ws.labels[train_idx]
    # every fit ends before the first model file is written
    fitted = [ws.cfg.fitter(kind)(X_train, y_train) for kind in MODELS.values()]
    for kind, model in zip(MODELS.values(), fitted):
        ws.write(kind.artifact, {**model.to_dict(), "config_hash": ws.cfg.hash()})
    log.info("train: fitted %d models on %d rows", len(MODELS), len(train_idx))


def _cv_refits(ws: Workspace):
    """A `metrics.cv_refits` block of evaluate's refits on folds.json's plan."""
    train, y = ws.partition.train, ws.labels
    fitters = {name: ws.cfg.fitter(kind) for name, kind in MODELS.items()}
    return metrics_mod.cv_refits(fitters, ws.matrix.values[train], y[train],
                                 _load_folds(ws, train, len(y)))


def stage_evaluate(ws: Workspace, refits: metrics_mod.Refits | None = None) -> None:
    """Score every model on the validation and test rows and by CV refits: those
    of `all`'s open block, or of one opened here and ended before any write."""
    matrix, y, partition = ws.matrix, ws.labels, ws.partition
    # every model file is loaded, and so checked, before the first refit this call starts
    fitted = {name: _load_model(ws, kind, matrix.values.shape[1])
              for name, kind in MODELS.items()}
    with _cv_refits(ws) if refits is None else contextlib.nullcontext(refits) as refits:
        results = metrics_mod.cv_evaluate(refits)
    roc_doc = {}
    for name, model in fitted.items():
        entry = results[name]
        for subset, rows in (("validation", partition.validation),
                             ("test", partition.test)):
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
    entries = results.values()
    ws.write("metrics.csv", {
        "model": list(results),
        **{key: [f"{e[key]:.3f}" for e in entries] for key in ("cv_auc_mean", "cv_auc_sd")},
        **{key: [f"{e['test'][key]:.3f}" for e in entries]
           for key in ("auc", "accuracy", "sensitivity", "specificity", "f1")}})
    log.info("evaluate: GB test AUC %.4f", results["gradient_boosting"]["test"]["auc"])


def stage_explain(ws: Workspace) -> None:
    matrix, partition = ws.matrix, ws.partition
    gb = _load_model(ws, MODELS["gradient_boosting"], matrix.values.shape[1])
    X_test, X_train = matrix.values[partition.test], matrix.values[partition.train]
    names = matrix.names

    attribution = explain_mod.tree_shap(gb, X_test)
    ranking = explain_mod.global_importance(attribution, names)
    # a feature no tree splits on has no importance, and one that is mostly
    # a single value has no curve to draw
    top = [feature for feature, importance in ranking if importance > 0
           and len(explain_mod.pdp_grid(X_train[:, matrix.column_index(feature)])) > 1][:3]
    if not top:
        raise explain_mod.ExplainError(
            "no feature has a non-zero mean |SHAP| and a PDP grid of two or more points")
    features, values = zip(*ranking)
    ws.write("importance.csv", {"rank": range(1, len(features) + 1), "feature": features,
                                "mean_abs_shap": values})
    ws.write("beeswarm.csv", explain_mod.beeswarm_export(attribution, X_test, names))

    pdp_files = []
    for feature in top:
        curve = explain_mod.partial_dependence(gb, X_train, matrix.column_index(feature))
        fname = f"pdp_{feature}.csv"
        ws.write(fname, {feature: curve.grid, "probability": curve.response})
        pdp_files.append(fname)
    ws.write("explain_meta.json", {"config_hash": ws.cfg.hash(),
                                   "base_value": attribution.base_value,
                                   "top_features": top, "pdp_files": pdp_files})
    log.info("explain: top feature %s", top[0])


def _importance(ws: Workspace) -> list[tuple[int, str, float]]:
    """importance.csv's (rank, feature, mean |SHAP|) rows, in file order."""
    return ws.read("importance.csv", lambda t: list(zip(
        numbers(t["rank"].tolist(), "rank", below=len(t["rank"]) + 1).tolist(),
        t["feature"].tolist(), t["mean_abs_shap"].tolist())),
        kinds={"rank": int, "feature": object, "mean_abs_shap": float})


def stage_report(ws: Workspace) -> None:
    matrix = ws.matrix
    figures = {}
    # a column that never varies has no spread to draw and no correlation
    continuous = [(c.name, matrix.column(c.name)) for c in matrix.columns
                  if c.kind == "continuous" and np.ptp(matrix.column(c.name)) > 0][:12]
    figures["histograms"] = report_mod.render_histogram_grid(continuous)

    figures["burden"] = report_mod.render_burden_distribution(
        *_load_indices(ws, len(matrix.values), "burden_score", "affected_systems"))

    names = [name for name, _ in continuous]
    # at least 2-d: corrcoef of one column is a 0-d 1.0
    corr = np.atleast_2d(np.corrcoef(np.column_stack([c for _, c in continuous]), rowvar=False))
    figures["correlation"] = report_mod.render_correlation_heatmap(names, corr)

    figures["roc"] = report_mod.render_roc(ws.read("roc.json", lambda doc: [
        (name, numbers(c["fpr"], "fpr"), numbers(c["tpr"], "tpr", len(c["fpr"])),
         numbers([c["auc"]], "auc").item()) for name, c in sorted(doc["curves"].items())]))

    figures["beeswarm"] = report_mod.render_beeswarm(*ws.read("beeswarm.csv", lambda t: (
        t["feature"], t["shap"], t["value"],
        *(numbers(t[key].tolist(), key, below=len(t[key]) + 1) for key in ("row", "rank"))),
        kinds={"feature": object, "shap": float, "value": float, "row": int, "rank": int}))

    figures["importance"] = report_mod.render_importance_bar(
        [(feature, value) for _, feature, value in _importance(ws)])

    # read inside explain_meta.json's decode, so a bad pdp file name is that file's error
    figures["pdp"] = report_mod.render_pdp_panel(ws.read("explain_meta.json", lambda meta: [
        (feature, *ws.read(fname, lambda t: (t[feature], t["probability"]),
                           kinds=dict.fromkeys((feature, "probability"), float)))
        for feature, fname in zip(meta["top_features"], meta["pdp_files"], strict=True)]))

    for name, svg in figures.items():
        ws.write(f"figures/{name}.svg", svg)
    ws.write("table1.csv", report_mod.table_summary(matrix))
    log.info("report: wrote %d figures", len(figures))


def stage_all(ws: Workspace) -> None:
    """Every stage; evaluate's refits run on their block's pool while train and
    explain run here, and the block ends its workers, also when a stage fails."""
    if ws.cfg["synth"] is not None:
        stage_simulate(ws)
    stage_ingest(ws)
    stage_features(ws)
    stage_split(ws)
    with _cv_refits(ws) as refits:
        stage_train(ws)
        stage_explain(ws)
        stage_evaluate(ws, refits)
    stage_report(ws)

    n, prevalence = ws.read("prevalence.json", lambda doc: (doc["n"], doc))
    ws.write("summary.json", {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "config_hash": ws.cfg.hash(),
        "n": n,
        "split_sizes": {subset: len(getattr(ws.partition, subset))
                        for subset in ("train", "validation", "test")},
        "prevalence": prevalence,
        "metrics": ws.read("metrics.json", lambda doc: doc["models"]),
        "importance_top10": [{"rank": rank, "feature": feature, "mean_abs_shap": value}
                             for rank, feature, value in _importance(ws)[:10]],
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
