"""Classification metrics: ROC/AUC, confusion reports, CV aggregation."""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .base import MultisysError


class MetricError(MultisysError):
    """Raised when labels are degenerate (single class) or shapes mismatch."""


@dataclass
class RocCurve:
    fpr: np.ndarray  # includes leading 0 and trailing 1
    tpr: np.ndarray
    auc: float


def _check_binary(labels: np.ndarray) -> tuple[int, int]:
    pos = int(np.sum(labels == 1))
    neg = int(np.sum(labels == 0))
    if pos + neg != len(labels):
        raise MetricError("labels must be 0/1")
    if pos == 0 or neg == 0:
        raise MetricError("both classes must be present")
    return pos, neg


def roc_curve(scores, labels) -> RocCurve:
    """ROC curve with one point per distinct score, trapezoidal AUC.

    Tied scores are grouped into a single threshold step, which makes the
    trapezoidal area equal the Mann-Whitney statistic
    (concordant + 0.5 * tied) / (P * N).
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if scores.shape != labels.shape:
        raise MetricError("scores and labels must have the same length")
    pos, neg = _check_binary(labels)

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    distinct = np.flatnonzero(np.diff(s)) if len(s) > 1 else np.array([], dtype=int)
    ends = np.concatenate([distinct, [len(s) - 1]])  # last index of each tie group
    tp = np.cumsum(y)[ends]
    fp = (ends + 1) - tp
    tpr = np.concatenate([[0.0], tp / pos, ])
    fpr = np.concatenate([[0.0], fp / neg, ])
    if tpr[-1] != 1.0 or fpr[-1] != 1.0:  # pragma: no cover - cumulative totals
        raise MetricError("ROC endpoints inconsistent")
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(fpr=fpr, tpr=tpr, auc=auc)


def roc_auc(scores, labels) -> float:
    return roc_curve(scores, labels).auc


def confusion_at(scores, labels, threshold: float = 0.5) -> dict:
    """Confusion counts and rates, predicted-positive meaning score >= threshold."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    _check_binary(labels)
    pred = scores >= threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    tn = int(np.sum(~pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    n = tp + fp + tn + fn
    sens = tp / (tp + fn)
    spec = tn / (tn + fp)
    precision = tp / (tp + fp) if tp + fp else 0.0
    f1 = 2 * precision * sens / (precision + sens) if precision + sens else 0.0
    return {"tp": tp, "fp": fp, "tn": tn, "fn": fn, "accuracy": (tp + tn) / n,
            "sensitivity": sens, "specificity": spec, "f1": f1, "threshold": threshold}


# (X, y, ended) of the open cv_refits block, which its fork pool's workers
# inherit; `ended`, the pool's Event, is set as the block ends
_inputs: tuple = (None, None, None)


def _fold_auc(task: tuple) -> float | None:
    """Held-out AUC of one (model, fold) refit; a failure as a picklable MetricError
    naming both; None, and no refit, once the pool's block has ended."""
    name, fitter, held, fold = task
    X, y, ended = _inputs
    if ended is not None and ended.is_set():
        return None
    try:
        model = fitter(X[~held], y[~held])
        return roc_auc(model.predict_proba(X[held]), y[held])
    except Exception as exc:
        raise MetricError(f"{name} fold {fold}: {exc}") from exc


class Refits(NamedTuple):
    """A cross-validation's (model, fold) `tasks`, in model then fold order, and their `aucs`."""
    tasks: list[tuple]
    aucs: Iterator[float]


@contextlib.contextmanager
def cv_refits(fitters: dict[str, Callable], X, y, fold_plan) -> Iterator[Refits]:
    """A block that owns the refits, per model and fold, of `fitters[name](X_train,
    y_train)` (picklable, returning a model with `predict_proba`) on the other
    k-1 folds, scored on the held-out one.  A fork pool as wide as the CPU
    affinity (at most one worker per task) starts with X and y in `_inputs`, so
    no task pickles them; at width 1 the builtin `map` runs each refit here as
    `cv_evaluate` asks.  Either gives the same AUCs.  When the block ends,
    raising or not, the workers start no further refit, the pool is closed and
    joined once the refits already started have returned, and `_inputs` is
    emptied.  The pool is not terminated: a worker killed while it held the
    result queue's lock would leave the pool's task thread, and so the join,
    waiting on that lock for ever."""
    global _inputs
    assignments = np.asarray(fold_plan.assignments)
    tasks = [(name, fitter, assignments == fold, fold)
             for name, fitter in fitters.items() for fold in range(fold_plan.k)]
    width = min(len(os.sched_getaffinity(0)), len(tasks)) if hasattr(os, "sched_getaffinity") else 1
    ended = False

    def in_block(aucs):
        for name, _, _, fold in tasks:
            if ended:
                raise MetricError(f"{name} fold {fold}: its cv_refits block has ended")
            yield next(aucs)

    _inputs = (np.asarray(X, dtype=float), np.asarray(y, dtype=int), None)
    try:
        if width == 1:
            yield Refits(tasks, in_block(map(_fold_auc, tasks)))
            return
        import multiprocessing  # here, so that a run that starts no pool does not load it
        # fork, named because Python 3.14 changes the default: workers keep the parent's imports
        context = multiprocessing.get_context("fork")
        _inputs = (*_inputs[:2], context.Event())
        with context.Pool(width) as pool:
            try:
                yield Refits(tasks, in_block(pool.imap(_fold_auc, tasks)))
            finally:
                _inputs[2].set()
                pool.close()
                pool.join()
    finally:
        ended, _inputs = True, (None, None, None)


def cv_evaluate(refits: Refits) -> dict:
    """Per model, the AUC mean +/- SD (the sample, n-1, standard deviation)
    over its folds' refits, taken in the order they were submitted."""
    folds = {}
    for (name, *_), auc in zip(refits.tasks, refits.aucs, strict=True):
        folds.setdefault(name, []).append(float(auc))
    return {name: {"cv_auc_mean": float(np.mean(aucs)),
                   "cv_auc_sd": float(np.std(aucs, ddof=1)) if len(aucs) > 1 else 0.0,
                   "cv_fold_aucs": aucs}
            for name, aucs in folds.items()}
