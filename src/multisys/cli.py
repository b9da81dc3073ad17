"""End-to-end pipeline orchestration.

Each subcommand reads its upstream artifacts from the run directory and
writes its own through ``Workspace.read`` / ``Workspace.write``, so every
stage is independently inspectable and replayable.  Every artifact is
registered in ``manifest.json`` together with the hash of the configuration
that produced it; stages refuse to mix artifacts from different
configurations unless ``--force`` is given.

``RunConfig.load`` checks the config in one walk over its declared shape
(``_shape``): unknown keys, wrongly typed values and out-of-range numbers
exit with status 2 before any stage writes.

Subcommands: simulate, ingest, features, split, train, evaluate, explain,
report, all.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import explain as explain_mod
from . import indices as indices_mod
from . import ingest as ingest_mod
from . import metrics as metrics_mod
from . import report as report_mod
from . import synth as synth_mod
from .base import MultisysError
from .models import (GradientBoostingClassifier, RandomForestClassifier,
                     LogisticRegressionClassifier, TreeEnsemble)
from .split import FoldPlan, Partition, stratified_kfold, stratified_split

log = logging.getLogger("multisys.cli")

SUMMARY_SCHEMA_VERSION = 1


class CliError(MultisysError):
    """Bad invocation, config or run directory; `kind` says which."""


class ModelKind(NamedTuple):
    artifact: str
    config_field: str  # RunConfig attribute and "models" key holding the parameters
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


class Bound(NamedTuple):
    """A numeric config leaf: the type of `default`, in (above, most]."""
    default: int | float
    above: float
    most: float = math.inf


NULLABLE = ("input_csv", "synth", "schema_config", "systems_config")


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
    return {"input_csv": "", "synth": {"n": 1195, "seed": 42, "spec_path": ""},
            "schema_config": "", "systems_config": "",
            "split": {"ratios": [Bound(0.0, 0)] * 3, "seed": 42},
            "cv_folds": Bound(5, 1), "models": models}


def _validate(value, shape, where: str = "") -> None:
    """Raise a config CliError unless `value` fits `shape`.

    A dict shape lists the allowed keys, a list shape holds that many
    numbers, and any other shape is a default (or a `Bound`) whose type the
    value must have: an int may stand for a float, a bool never for a
    number.  The top-level keys in NULLABLE may also be null.
    """
    name = where or "config"
    if value is None and where in NULLABLE:
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


@dataclass
class RunConfig:
    input_csv: str | None = None
    synth: dict | None = None
    schema_config: str | None = None
    systems_config: str | None = None
    split_ratios: tuple[float, float, float] = (0.70, 0.15, 0.15)
    split_seed: int = 42
    cv_folds: int = 5
    logistic: dict = field(default_factory=lambda: {"C": 1.0, "max_iter": 2000})
    random_forest: dict = field(default_factory=lambda: {
        "n_estimators": 200, "max_depth": 8, "min_samples_leaf": 10, "seed": 42})
    gradient_boosting: dict = field(default_factory=lambda: {
        "n_estimators": 200, "learning_rate": 0.05, "max_depth": 4,
        "min_samples_leaf": 10})

    def __post_init__(self):
        if self.input_csv is None and self.synth is None:
            self.synth = {"n": 1195, "seed": 42}
        if self.input_csv is not None and self.synth is not None:
            raise CliError("config must set exactly one of input_csv / synth",
                           kind="config")
        if abs(sum(self.split_ratios) - 1.0) > 1e-9:
            raise CliError("split ratios must sum to 1", kind="config")

    @classmethod
    def load(cls, path: str | None, seed_override: int | None = None) -> "RunConfig":
        raw = {}
        if path is not None:
            try:
                with open(path, encoding="utf-8") as fh:
                    raw = json.load(fh)
            except OSError as exc:
                raise CliError(f"cannot read config {path}: {exc}", kind="config")
            except json.JSONDecodeError as exc:
                raise CliError(f"malformed config {path}: {exc}", kind="config")
        _validate(raw, _shape())
        defaults = cls()
        split, models = raw.get("split", {}), raw.get("models", {})
        cfg = cls(
            **{key: raw.get(key) for key in NULLABLE},
            split_ratios=tuple(split.get("ratios", defaults.split_ratios)),
            split_seed=split.get("seed", defaults.split_seed),
            cv_folds=raw.get("cv_folds", defaults.cv_folds),
            **{kind.config_field: {**getattr(defaults, kind.config_field),
                                   **models.get(kind.config_field, {})}
               for kind in MODELS.values()},
        )
        if seed_override is not None:
            cfg.split_seed = seed_override
            cfg.random_forest["seed"] = seed_override
            if cfg.synth is not None:
                cfg.synth["seed"] = seed_override
        # Read every file the config names, so a bad one fails before any stage writes.
        if cfg.synth is not None:
            cfg.spec()
        cfg.schemas()
        cfg.systems()
        return cfg

    def canonical(self) -> dict:
        return {
            "input_csv": self.input_csv,
            "synth": self.synth,
            "schema_config": self.schema_config,
            "systems_config": self.systems_config,
            "split": {"ratios": list(self.split_ratios), "seed": self.split_seed},
            "cv_folds": self.cv_folds,
            "models": {kind.config_field: getattr(self, kind.config_field)
                       for kind in MODELS.values()},
        }

    def hash(self) -> str:
        text = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def spec(self) -> synth_mod.GeneratorSpec:
        if self.synth is None:
            raise CliError("simulate requires a synth spec in the config", kind="config")
        if "spec_path" in self.synth:  # the config's n and seed override the file's
            return replace(synth_mod.spec_from_json(self.synth["spec_path"]),
                           **{k: self.synth[k] for k in ("n", "seed") if k in self.synth})
        return synth_mod.GeneratorSpec(n=self.synth.get("n", 1195),
                                       seed=self.synth.get("seed", 42))

    def schemas(self):
        if self.schema_config is not None:
            return ingest_mod.schema_from_json(self.schema_config)
        return ingest_mod.default_schema(), dict(ingest_mod.DEFAULT_SEMIQUANT_TOKENS)

    def systems(self):
        if self.systems_config is not None:
            return indices_mod.systems_from_json(self.systems_config)
        return indices_mod.default_systems()

    def fitter(self, kind: ModelKind) -> Callable:
        """`fitter(X, y)` returning a fresh model of `kind` fitted on X, y."""
        return lambda X, y: kind.cls(**getattr(self, kind.config_field)).fit(X, y)


class Workspace:
    """The run directory: artifact I/O and the config-hash manifest."""

    def __init__(self, out_dir: str, cfg: RunConfig, force: bool = False):
        self.out_dir = out_dir
        self.cfg = cfg
        os.makedirs(out_dir, exist_ok=True)
        self.manifest = {"config_hash": cfg.hash(), "artifacts": {}}
        path = self.path("manifest.json")
        if os.path.exists(path):
            try:
                with open(path, encoding="utf-8") as fh:
                    found = json.load(fh)
            except ValueError as exc:
                raise CliError(f"malformed manifest {path}: {exc}", kind="config")
            if not isinstance(found, dict) or not isinstance(found.get("artifacts"), dict):
                raise CliError(f"malformed manifest {path}: no artifacts object", kind="config")
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
        path = self.path(name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
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

    def read(self, name: str):
        """A registered artifact: parsed JSON, or CSV rows as dicts."""
        with open(self.require(name), newline="", encoding="utf-8") as fh:
            if name.endswith(".json"):
                return json.load(fh)
            return list(csv.DictReader(fh))


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
    if ws.cfg.input_csv is not None:
        source = ws.cfg.input_csv
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


def _load_target(ws: Workspace) -> np.ndarray:
    return np.asarray([int(row["target_multi"]) for row in ws.read("indices.csv")])


def stage_split(ws: Workspace) -> None:
    y = _load_target(ws)
    partition = stratified_split(y, ws.cfg.split_ratios, ws.cfg.split_seed)
    ws.write("partition.json", partition.to_json() + "\n")
    train_idx = np.asarray(partition.train)
    folds = stratified_kfold(y[train_idx], ws.cfg.cv_folds, ws.cfg.split_seed)
    ws.write("folds.json", {"k": folds.k, "train_indices": partition.train,
                            "assignments": folds.assignments})
    log.info("split: %d/%d/%d", len(partition.train), len(partition.validation),
             len(partition.test))


def _check_rows(name: str, rows, n_rows: int) -> None:
    """ValueError unless `rows` is a list of integer row indices below n_rows."""
    if not isinstance(rows, list) or not all(type(i) is int and 0 <= i < n_rows for i in rows):
        raise ValueError(f"{name} is not a list of row indices below {n_rows}")


def _load_partition(ws: Workspace, n_rows: int) -> Partition:
    """partition.json, checked against the matrix's n_rows."""
    try:
        partition = Partition(**ws.read("partition.json"))
        for subset in ("train", "validation", "test"):
            _check_rows(subset, getattr(partition, subset), n_rows)
    except (TypeError, ValueError) as exc:
        raise CliError(f"malformed partition.json: {exc!r}", kind="malformed-artifact") from exc
    return partition


def _load_model(ws: Workspace, kind: ModelKind, n_columns: int):
    """The fitted model in kind.artifact; CliError unless its weights, or its
    split features, fit the matrix's n_columns."""
    model = kind.load(ws.read(kind.artifact))
    if isinstance(model, TreeEnsemble):
        fits = max((int(tree.feature.max()) for tree in model.trees), default=-1) < n_columns
    else:
        fits = len(model.coef_) == n_columns
    if not fits:
        raise CliError(f"{kind.artifact} does not fit the {n_columns} columns of matrix.csv",
                       kind="malformed-artifact")
    return model


def stage_train(ws: Workspace) -> None:
    matrix = _load_matrix(ws)
    y = _load_target(ws)
    train_idx = np.asarray(_load_partition(ws, len(y)).train)
    X_train, y_train = matrix.values[train_idx], y[train_idx]
    for kind in MODELS.values():
        model = ws.cfg.fitter(kind)(X_train, y_train)
        ws.write(kind.artifact, {**model.to_dict(), "config_hash": ws.cfg.hash()})
    log.info("train: fitted %d models on %d rows", len(MODELS), len(train_idx))


def stage_evaluate(ws: Workspace) -> None:
    matrix = _load_matrix(ws)
    y = _load_target(ws)
    partition = _load_partition(ws, len(y))
    folds_doc = ws.read("folds.json")
    try:
        fold_plan = FoldPlan(k=folds_doc["k"], assignments=folds_doc["assignments"])
        _check_rows("train_indices", folds_doc["train_indices"], len(y))
        train_idx = np.asarray(folds_doc["train_indices"])
        if len(fold_plan.assignments) != len(train_idx):
            raise ValueError(f"{len(fold_plan.assignments)} fold assignments for "
                             f"{len(train_idx)} train_indices")
        if not isinstance(fold_plan.k, int):
            raise ValueError(f"k {fold_plan.k!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed folds.json: {exc!r}", kind="malformed-artifact") from exc
    # every model file is loaded, and so checked, before the first refit
    fitted = {name: _load_model(ws, kind, matrix.values.shape[1])
              for name, kind in MODELS.items()}

    results, roc_doc = {}, {}
    for name, kind in MODELS.items():
        model = fitted[name]
        cv = metrics_mod.cv_evaluate(ws.cfg.fitter(kind), matrix.values[train_idx],
                                     y[train_idx], fold_plan)
        entry = {"cv_auc_mean": cv.mean, "cv_auc_sd": cv.sd,
                 "cv_fold_aucs": cv.fold_aucs}
        for subset, rows in (("validation", partition.validation),
                             ("test", partition.test)):
            rows = np.asarray(rows)
            scores = model.predict_proba(matrix.values[rows])
            curve = metrics_mod.roc_curve(scores, y[rows])
            confusion = metrics_mod.confusion_at(scores, y[rows])
            entry[subset] = {"auc": curve.auc, **confusion.as_dict()}
            if subset == "test":
                roc_doc[name] = {"fpr": [float(v) for v in curve.fpr],
                                 "tpr": [float(v) for v in curve.tpr],
                                 "auc": curve.auc}
        results[name] = entry
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

    indices = ws.read("indices.csv")
    figures["burden"] = report_mod.render_burden_distribution(
        np.asarray([int(r["burden_score"]) for r in indices]),
        np.asarray([int(r["affected_systems"]) for r in indices]))

    names = [name for name, _ in continuous]
    corr = np.corrcoef(np.column_stack([matrix.column(n) for n in names]), rowvar=False)
    figures["correlation"] = report_mod.render_correlation_heatmap(names, corr)

    roc_doc = ws.read("roc.json")
    figures["roc"] = report_mod.render_roc(
        [(name, np.asarray(c["fpr"]), np.asarray(c["tpr"]), c["auc"])
         for name, c in sorted(roc_doc["curves"].items())])

    figures["beeswarm"] = report_mod.render_beeswarm(
        [{"row": int(r["row"]), "feature": r["feature"], "shap": float(r["shap"]),
          "value": float(r["value"]), "rank": int(r["rank"])}
         for r in ws.read("beeswarm.csv")])

    figures["importance"] = report_mod.render_importance_bar(
        [(r["feature"], float(r["mean_abs_shap"])) for r in ws.read("importance.csv")])

    meta = ws.read("explain_meta.json")
    pdp_curves = []
    for feature, fname in zip(meta["top_features"], meta["pdp_files"]):
        rows = ws.read(fname)
        pdp_curves.append((feature, np.asarray([float(r[feature]) for r in rows]),
                           np.asarray([float(r["probability"]) for r in rows])))
    figures["pdp"] = report_mod.render_pdp_panel(pdp_curves)

    for name, svg in figures.items():
        ws.write(f"figures/{name}.svg", svg)
    ws.write("table1.csv", _table(report_mod.table_summary(matrix)))
    log.info("report: wrote %d figures", len(figures))


def stage_all(ws: Workspace) -> None:
    if ws.cfg.synth is not None:
        stage_simulate(ws)
    stage_ingest(ws)
    stage_features(ws)
    stage_split(ws)
    stage_train(ws)
    stage_evaluate(ws)
    stage_explain(ws)
    stage_report(ws)

    prevalence = ws.read("prevalence.json")
    importance = [{"rank": int(r["rank"]), "feature": r["feature"],
                   "mean_abs_shap": float(r["mean_abs_shap"])}
                  for r in ws.read("importance.csv")[:10]]
    partition = ws.read("partition.json")  # checked by the stages above
    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "config_hash": ws.cfg.hash(),
        "n": prevalence["n"],
        "split_sizes": {subset: len(partition[subset])
                        for subset in ("train", "validation", "test")},
        "prevalence": prevalence,
        "metrics": ws.read("metrics.json")["models"],
        "importance_top10": importance,
    }
    ws.write("summary.json", summary)
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
