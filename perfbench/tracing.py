"""Outside-in tracing of the ``multisys`` layers.

The tracer replaces public functions of each ``src/multisys`` module with
wrappers that record a span (name, start, end, parent span) per call.  Each
function is wrapped at the name its callers look up at call time: for
example ``multisys.models.grow_tree``, because ``models`` imports
``grow_tree`` by name, and both the ``multisys.cli.STAGES`` entries and the
``stage_*`` module attributes, because ``stage_all`` calls the latter.
``multisys.rng`` is not wrapped: it is called once per draw, and a wrapper
would distort every caller.

Spans are kept in memory and written out when the process ends.  The
functions below that derive metrics from spans import nothing from
``multisys`` or numpy, so the benchmark's parent process can use them.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

STAGES = ("simulate", "ingest", "features", "split", "train", "evaluate",
          "explain", "report")

# Per-layer metrics reported by a traced run: (name, unit, better).
PER_LAYER = [
    *[(f"cli.{s}.s", "s", "lower") for s in STAGES],
    ("cli.self_s", "s", "lower"),
    ("synth.generate.s", "s", "lower"),
    ("synth.rows_per_s", "rows/s", "higher"),
    ("ingest.load_cohort.s", "s", "lower"),
    ("ingest.clean_cohort.s", "s", "lower"),
    ("ingest.cells_per_s", "cells/s", "higher"),
    ("ingest.write_matrix_csv.s", "s", "lower"),
    ("ingest.read_matrix_csv.s", "s", "lower"),
    ("ingest.read_matrix_csv.calls", "count", "lower"),
    ("ingest.unparsed_cells", "count", "lower"),
    ("ingest.implausible_cells", "count", "lower"),
    ("ingest.imputed_cells", "count", "lower"),
    ("indices.compute_indices.s", "s", "lower"),
    ("split.stratified_split.s", "s", "lower"),
    ("split.stratified_kfold.s", "s", "lower"),
    ("tree.grow_tree.calls", "count", "lower"),
    ("tree.grow_tree.s", "s", "lower"),
    ("tree.nodes", "count", "lower"),
    ("tree.us_per_node", "us", "lower"),
    ("tree.predict.calls", "count", "lower"),
    ("tree.predict.s", "s", "lower"),
    ("models.fit.calls", "count", "lower"),
    ("models.lr.fit.s", "s", "lower"),
    ("models.lr.n_iter", "count", "lower"),
    ("models.rf.fit.s", "s", "lower"),
    ("models.rf.fit.self_s", "s", "lower"),
    ("models.gb.fit.s", "s", "lower"),
    ("models.gb.fit.self_s", "s", "lower"),
    ("models.predict_proba.s", "s", "lower"),
    ("models.predict_rows", "count", "lower"),
    ("metrics.cv_evaluate.s", "s", "lower"),
    ("metrics.cv_evaluate.self_s", "s", "lower"),
    ("metrics.roc_curve.calls", "count", "lower"),
    ("metrics.roc_curve.s", "s", "lower"),
    ("explain.tree_shap.s", "s", "lower"),
    ("explain.tree_shap.row_trees", "count", "lower"),
    ("explain.us_per_row_tree.gb", "us", "lower"),
    ("explain.us_per_row_tree.rf", "us", "lower"),
    ("explain.partial_dependence.s", "s", "lower"),
    ("explain.local_accuracy_max_abs", "abs", "lower"),
    ("report.render.s", "s", "lower"),
    ("report.svg_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

_PREDICT = ("models.predict_proba", "models.predict_margin")


class Tracer:
    """Records one span per call of each wrapped function, in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.explained: list[tuple] = []  # (ensemble, X, attribution) per tree_shap call
        self.active = True
        self._stack: list[int] = []

    def wrap(self, fn, name: str, attrs=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``attrs(args, kwargs, result)`` may return a dict of counts that is
        stored on the span.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": self._stack[-1] if self._stack else -1}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result
        return traced

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, attrs))

    def install(self) -> None:
        """Wrap the public entry points of every ``multisys`` layer."""
        from multisys import cli, explain, indices, ingest, metrics, models, report, synth, tree

        for stage, fn in list(cli.STAGES.items()):
            wrapped = self.wrap(fn, f"cli.{stage}")
            cli.STAGES[stage] = wrapped
            setattr(cli, fn.__name__, wrapped)

        self.patch(synth, "generate", "synth.generate",
                   lambda a, kw, r: {"rows": len(r[1])})

        self.patch(ingest, "load_cohort", "ingest.load_cohort")
        self.patch(ingest, "clean_cohort", "ingest.clean_cohort", _audit_counts)
        self.patch(ingest, "write_matrix_csv", "ingest.write_matrix_csv")
        self.patch(ingest, "read_matrix_csv", "ingest.read_matrix_csv")
        self.patch(indices, "compute_indices", "indices.compute_indices")
        self.patch(cli, "stratified_split", "split.stratified_split")
        self.patch(cli, "stratified_kfold", "split.stratified_kfold")

        self.patch(models, "grow_tree", "tree.grow_tree",
                   lambda a, kw, r: {"nodes": r.n_nodes})
        self.patch(tree.DecisionTree, "predict", "tree.predict")

        self.patch(models.LogisticRegressionClassifier, "fit", "models.lr.fit",
                   lambda a, kw, r: {"n_iter": r.n_iter_})
        self.patch(models.RandomForestClassifier, "fit", "models.rf.fit")
        self.patch(models.GradientBoostingClassifier, "fit", "models.gb.fit")
        rows = lambda a, kw, r: {"rows": len(r)}  # noqa: E731
        self.patch(models.LogisticRegressionClassifier, "predict_proba",
                   "models.predict_proba", rows)
        self.patch(models.TreeEnsemble, "predict_proba", "models.predict_proba", rows)
        self.patch(models.TreeEnsemble, "predict_margin", "models.predict_margin", rows)

        self.patch(metrics, "cv_evaluate", "metrics.cv_evaluate")
        self.patch(metrics, "roc_curve", "metrics.roc_curve")

        def shap_attrs(args, kwargs, result):
            ensemble, X = args[0], args[1]
            self.explained.append((ensemble, X, result))
            kind = "gb" if ensemble.kind == "gradient-boosting" else "rf"
            return {"kind": kind, "row_trees": len(X) * len(ensemble.trees)}

        self.patch(explain, "tree_shap", "explain.tree_shap", shap_attrs)
        self.patch(explain, "global_importance", "explain.global_importance")
        self.patch(explain, "partial_dependence", "explain.partial_dependence")

        for attr in sorted(vars(report)):
            if attr.startswith("render_"):
                self.patch(report, attr, "report.render",
                           lambda a, kw, r: {"svg_bytes": len(r.encode("utf-8"))})

    def local_accuracy_max_abs(self) -> float:
        """Largest local-accuracy residual over every row explained while tracing."""
        self.active = False
        return max((local_accuracy_residual(*args) for args in self.explained), default=0.0)


def local_accuracy_residual(ensemble, X, attribution) -> float:
    """max |base + sum(phi) - model output| over the rows of X.

    The output is the margin for gradient boosting and the probability for a
    random forest, the scales ``multisys.explain.tree_shap`` attributes.
    """
    if ensemble.kind == "gradient-boosting":
        output = ensemble.predict_margin(X)
    else:
        output = ensemble.predict_proba(X)
    return float(abs(attribution.base_value + attribution.phi.sum(axis=1) - output).max())


def _audit_counts(args, kwargs, result) -> dict:
    audit = result[1]
    cols = audit["columns"].values()
    return {"cells": audit["n_rows"] * len(audit["columns"]),
            "unparsed": sum(c["unparsed"] for c in cols),
            "implausible": sum(c["implausible"] for c in cols),
            "imputed": sum(c["imputed"] for c in cols)}


def merge(span_lists: list[list[dict]]) -> list[dict]:
    """Concatenate the spans of several processes, keeping parent links."""
    merged: list[dict] = []
    for spans in span_lists:
        offset = len(merged)
        for span in spans:
            parent = span["parent"]
            merged.append({**span, "parent": parent + offset if parent >= 0 else -1})
    return merged


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered, cursor = 0.0, start
        for a, b in sorted((max(spans[c]["start"], start), min(spans[c]["end"], end))
                           for c in children[i]):
            a = max(a, cursor)
            if b > a:
                covered += b - a
                cursor = b
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list[dict], extras: dict) -> dict[str, float]:
    """Per-layer metric values from the spans of one traced repetition.

    ``extras`` supplies the values not derived from spans
    (``explain.local_accuracy_max_abs`` and ``trace.overhead_s``).  A layer
    the workload never calls reads 0.
    """
    own = self_times(spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for i, span in enumerate(spans):
        name = span["name"]
        total[name] += span["end"] - span["start"]
        self_total[name] += own[i]
        calls[name] += 1
        for key in ("rows", "cells", "unparsed", "implausible", "imputed", "nodes",
                    "n_iter", "svg_bytes"):
            if key in span:
                counts[f"{name}:{key}"] += span[key]
        if name == "explain.tree_shap":
            total[f"explain.tree_shap.{span['kind']}"] += span["end"] - span["start"]
            counts[f"row_trees.{span['kind']}"] += span["row_trees"]
        if name in _PREDICT and (span["parent"] < 0
                                 or spans[span["parent"]]["name"] not in _PREDICT):
            total["predict.outer"] += span["end"] - span["start"]
            counts["predict.outer:rows"] += span["rows"]

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    m = {f"cli.{s}.s": total[f"cli.{s}"] for s in STAGES}
    m["cli.self_s"] = sum(v for k, v in self_total.items() if k.startswith("cli."))
    m["synth.generate.s"] = total["synth.generate"]
    m["synth.rows_per_s"] = rate(counts["synth.generate:rows"], total["synth.generate"])
    for fn in ("load_cohort", "clean_cohort", "write_matrix_csv", "read_matrix_csv"):
        m[f"ingest.{fn}.s"] = total[f"ingest.{fn}"]
    m["ingest.cells_per_s"] = rate(counts["ingest.clean_cohort:cells"],
                                   total["ingest.clean_cohort"])
    m["ingest.read_matrix_csv.calls"] = calls["ingest.read_matrix_csv"]
    for key in ("unparsed", "implausible", "imputed"):
        m[f"ingest.{key}_cells"] = counts[f"ingest.clean_cohort:{key}"]
    m["indices.compute_indices.s"] = total["indices.compute_indices"]
    m["split.stratified_split.s"] = total["split.stratified_split"]
    m["split.stratified_kfold.s"] = total["split.stratified_kfold"]
    m["tree.grow_tree.calls"] = calls["tree.grow_tree"]
    m["tree.grow_tree.s"] = total["tree.grow_tree"]
    m["tree.nodes"] = counts["tree.grow_tree:nodes"]
    m["tree.us_per_node"] = 1e6 * rate(total["tree.grow_tree"], counts["tree.grow_tree:nodes"])
    m["tree.predict.calls"] = calls["tree.predict"]
    m["tree.predict.s"] = total["tree.predict"]
    m["models.fit.calls"] = sum(calls[f"models.{k}.fit"] for k in ("lr", "rf", "gb"))
    m["models.lr.fit.s"] = total["models.lr.fit"]
    m["models.lr.n_iter"] = counts["models.lr.fit:n_iter"]
    for k in ("rf", "gb"):
        m[f"models.{k}.fit.s"] = total[f"models.{k}.fit"]
        m[f"models.{k}.fit.self_s"] = self_total[f"models.{k}.fit"]
    m["models.predict_proba.s"] = total["predict.outer"]
    m["models.predict_rows"] = counts["predict.outer:rows"]
    m["metrics.cv_evaluate.s"] = total["metrics.cv_evaluate"]
    m["metrics.cv_evaluate.self_s"] = self_total["metrics.cv_evaluate"]
    m["metrics.roc_curve.calls"] = calls["metrics.roc_curve"]
    m["metrics.roc_curve.s"] = total["metrics.roc_curve"]
    m["explain.tree_shap.s"] = total["explain.tree_shap"]
    m["explain.tree_shap.row_trees"] = counts["row_trees.gb"] + counts["row_trees.rf"]
    for k in ("gb", "rf"):
        m[f"explain.us_per_row_tree.{k}"] = 1e6 * rate(total[f"explain.tree_shap.{k}"],
                                                       counts[f"row_trees.{k}"])
    m["explain.partial_dependence.s"] = total["explain.partial_dependence"]
    m["report.render.s"] = total["report.render"]
    m["report.svg_bytes"] = counts["report.render:svg_bytes"]
    m.update(extras)
    return m
