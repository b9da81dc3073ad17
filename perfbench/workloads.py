"""The benchmark's workloads: input set-up, timed section and output checks.

A workload runs in up to two fresh processes per repetition (see
``worker.py``): an optional set-up process that writes the inputs into the
repetition's directory, and the timed process, which loads them, runs the
timed section and then checks the outputs.  The program sees only the
generated CSV and config.

Scale ``full`` is the benchmark; scale ``small`` is a reduced size for the
benchmark's own smoke tests.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np
from multisys import cli, explain, ingest, models

import messy
import tracing

# Model settings of the small scale, sized for seconds rather than minutes.
_SMALL_MODELS = {
    "random_forest": {"n_estimators": 12, "max_depth": 5, "min_samples_leaf": 5, "seed": 42},
    "gradient_boosting": {"n_estimators": 15, "learning_rate": 0.1, "max_depth": 3,
                          "min_samples_leaf": 5},
}


class CheckFailed(Exception):
    """An output differs from what the workload's check expects."""


@dataclass
class Context:
    seed: int
    scale: str  # "full" | "small"
    rows: int  # input rows the workload states at this scale
    rep_dir: str  # this process's fresh directory
    input_dir: str  # where the set-up process wrote the inputs
    ref_dir: str

    def path(self, *parts: str) -> str:
        return os.path.join(self.rep_dir, *parts)

    def input(self, *parts: str) -> str:
        return os.path.join(self.input_dir, *parts)

    def reference(self, workload: str, ext: str) -> str:
        return os.path.join(self.ref_dir, f"{workload}-{self.scale}-seed{self.seed}.{ext}")


def synth_config(ctx: Context) -> dict:
    """The default run config, with the synthetic cohort drawn from the seed."""
    if ctx.scale == "full":
        return {"synth": {"n": 1195, "seed": ctx.seed}}
    return {"synth": {"n": 160, "seed": ctx.seed}, "cv_folds": 3, "models": _SMALL_MODELS}


def write_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(*argv: str) -> None:
    status = cli.main(list(argv))
    if status != 0:
        raise CheckFailed(f"multisys {argv[0]} exited with status {status}")


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_dir_digest(out: str) -> str:
    """sha256 over every artifact of a run directory except the manifest.

    The manifest holds the config hash, which covers the input CSV's path
    and so differs between repetitions that read a per-repetition input.
    """
    h = hashlib.sha256()
    for base, dirs, files in os.walk(out):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            if os.path.relpath(path, out) == "manifest.json":
                continue
            h.update(os.path.relpath(path, out).encode("utf-8") + b"\0")
            h.update(file_digest(path).encode("ascii"))
    return h.hexdigest()


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class ReferenceRun:
    """``multisys all`` with the default config on a fresh run directory."""

    name = "reference-1195"
    blocks = ("metrics", "split_sizes", "prevalence", "importance_top10")

    def load(self, ctx: Context):
        write_json(synth_config(ctx), ctx.path("config.json"))

    def run(self, ctx: Context, state) -> None:
        run_cli("all", "--config", ctx.path("config.json"), "--out", ctx.path("run"))

    def _blocks(self, ctx: Context) -> dict:
        summary = read_json(ctx.path("run", "summary.json"))
        return {key: summary[key] for key in self.blocks}

    def check(self, ctx: Context, state) -> str:
        blocks = self._blocks(ctx)
        n = ctx.rows
        expect(sum(blocks["split_sizes"].values()) == n, "split sizes do not sum to n")
        expect(blocks["prevalence"]["n"] == n, "prevalence block has the wrong n")
        expect(sorted(blocks["metrics"]) == ["gradient_boosting", "logistic_regression",
                                             "random_forest"], "models missing in metrics")
        for name, entry in blocks["metrics"].items():
            expect(0.0 <= entry["test"]["auc"] <= 1.0, f"{name}: test AUC out of [0, 1]")
        shap = [e["mean_abs_shap"] for e in blocks["importance_top10"]]
        expect(len(shap) == 10 and shap == sorted(shap, reverse=True),
               "importance_top10 is not ten features by descending mean |SHAP|")
        ref = ctx.reference(self.name, "json")
        if os.path.exists(ref):
            expected = read_json(ref)
            for key in self.blocks:
                expect(blocks[key] == expected[key], f"summary.json block {key!r} "
                       "differs from the reference")
        return run_dir_digest(ctx.path("run"))

    def record(self, ctx: Context, state) -> None:
        write_json(self._blocks(ctx), ctx.reference(self.name, "json"))


class MessyPrep:
    """``ingest -> features -> split`` through the CLI on a corrupted cohort."""

    name = "prep-50k-messy"

    def setup(self, ctx: Context) -> None:
        csv_path = ctx.path("cohort_messy.csv")
        counts = messy.write_messy_cohort(ctx.rows, ctx.seed, csv_path)
        write_json(counts, ctx.path("injected.json"))
        write_json({"input_csv": os.path.abspath(csv_path)}, ctx.path("config.json"))

    def load(self, ctx: Context):
        return None

    def run(self, ctx: Context, state) -> None:
        for stage in ("ingest", "features", "split"):
            run_cli(stage, "--config", ctx.input("config.json"), "--out", ctx.path("run"))

    def _digests(self, ctx: Context) -> dict:
        return {name: file_digest(ctx.path("run", name))
                for name in ("indices.csv", "partition.json")}

    def check(self, ctx: Context, state) -> str:
        n = ctx.rows
        audit = read_json(ctx.path("run", "audit.json"))
        injected = read_json(ctx.input("injected.json"))
        expect(audit["n_rows"] == n, "audit.json has the wrong row count")
        expect(sorted(audit["columns"]) == sorted(injected), "audit.json columns differ")
        for col, want in injected.items():
            got = audit["columns"][col]
            for key in ("unparsed", "implausible"):
                expect(got[key] == want[key],
                       f"{col}: {got[key]} {key} cells in audit.json, {want[key]} injected")
            bad = want["unparsed"] + want["implausible"]
            expect(got["imputed"] == bad, f"{col}: {got['imputed']} imputed, expected {bad}")
            expect(got["parsed"] == n - bad, f"{col}: parsed count is wrong")
        partition = read_json(ctx.path("run", "partition.json"))
        sizes = sum(len(partition[k]) for k in ("train", "validation", "test"))
        expect(sizes == n, "partition does not cover every row")
        ref = ctx.reference(self.name, "json")
        if os.path.exists(ref):
            expect(self._digests(ctx) == read_json(ref),
                   "indices.csv or partition.json differs from the reference")
        return run_dir_digest(ctx.path("run"))

    def record(self, ctx: Context, state) -> None:
        write_json(self._digests(ctx), ctx.reference(self.name, "json"))


class ExplainEnsembles:
    """TreeSHAP, importance and PDP for the default GB and RF ensembles."""

    name = "explain-gb-rf"
    local_accuracy_tol = 1e-6
    reference_tol = 1e-9

    def setup(self, ctx: Context) -> None:
        write_json(synth_config(ctx), ctx.path("config.json"))
        for stage in ("simulate", "ingest", "features", "split", "train"):
            run_cli(stage, "--config", ctx.path("config.json"), "--out", ctx.path("run"))

    def load(self, ctx: Context) -> dict:
        matrix = ingest.read_matrix_csv(ctx.input("run", "matrix.csv"),
                                        ingest.default_schema())
        partition = read_json(ctx.input("run", "partition.json"))
        ensembles = {kind: models.TreeEnsemble.from_dict(
                        read_json(ctx.input("run", f"model_{kind}.json")))
                     for kind in ("gb", "rf")}
        return {"names": matrix.names, "ensembles": ensembles,
                "X_test": matrix.values[np.asarray(partition["test"])],
                "X_train": matrix.values[np.asarray(partition["train"])]}

    def run(self, ctx: Context, state) -> None:
        names = state["names"]
        for kind, ensemble in state["ensembles"].items():
            attribution = explain.tree_shap(ensemble, state["X_test"])
            ranking = explain.global_importance(attribution, names)
            curves = [explain.partial_dependence(ensemble, state["X_train"], names.index(f))
                      for f, _ in ranking[:3]]
            state[kind] = (attribution, curves)

    def check(self, ctx: Context, state) -> str:
        h = hashlib.sha256()
        ref_path = ctx.reference(self.name, "npz")
        ref = None
        if os.path.exists(ref_path):
            with np.load(ref_path) as npz:
                ref = dict(npz)
        X = state["X_test"]
        expect(2 * len(X) == ctx.rows, "test split has the wrong size")
        for kind, ensemble in state["ensembles"].items():
            attribution, curves = state[kind]
            residual = tracing.local_accuracy_residual(ensemble, X, attribution)
            expect(residual <= self.local_accuracy_tol,
                   f"{kind}: local accuracy residual {residual:.3g}")
            if ref is not None:
                expect(attribution.phi.shape == ref[f"phi_{kind}"].shape,
                       f"{kind}: phi has the wrong shape")
                err = float(np.max(np.abs(attribution.phi - ref[f"phi_{kind}"])))
                expect(err <= self.reference_tol,
                       f"{kind}: phi differs from the reference by {err:.3g}")
            h.update(attribution.phi.tobytes())
            for curve in curves:
                h.update(curve.grid.tobytes() + curve.response.tobytes())
        return h.hexdigest()

    def record(self, ctx: Context, state) -> None:
        np.savez_compressed(ctx.reference(self.name, "npz"),
                            **{f"phi_{kind}": state[kind][0].phi for kind in ("gb", "rf")})


WORKLOADS = {w.name: w for w in (ReferenceRun(), MessyPrep(), ExplainEnsembles())}
