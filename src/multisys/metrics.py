"""Classification metrics: ROC/AUC, confusion reports, CV aggregation."""

from __future__ import annotations

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


# (number, X, y) of the latest cv_refits: a fork pool's workers inherit it
# when the pool's first submit forks them, so no task pickles X or y
_inputs: tuple = (0, None, None)


def _fold_auc(task: tuple) -> float:
    """Held-out AUC of one (model, fold) refit on the inputs of cv_refits call
    `number`; any failure as a MetricError naming both, so that it crosses a
    process boundary intact."""
    name, fitter, held, fold, number = task
    current, X, y = _inputs
    try:
        if number != current:
            raise RuntimeError(f"its inputs are those of cv_refits call {current}, "
                               f"not of call {number}")
        model = fitter(X[~held], y[~held])
        return roc_auc(model.predict_proba(X[held]), y[held])
    except Exception as exc:
        raise MetricError(f"{name} fold {fold}: {exc}") from exc


class Refits(NamedTuple):
    """The (model, fold) refits of one cross-validation: `tasks` in model,
    then fold order, and `aucs`, their held-out AUCs in that order."""
    tasks: list[tuple]
    aucs: Iterator[float]


def cv_refits(fitters: dict[str, Callable], X, y, fold_plan, map=map) -> Refits:
    """Per model and fold, a refit on the other k-1 folds scored on the
    held-out one, through one ordered `map`.

    `fitters[name](X_train, y_train)` must return an object with a
    `predict_proba(X) -> (n,) probability vector` method.  X and y go to
    `_inputs` before the first submit, and a task holds its model, fitter,
    held-out rows, fold and the number of this call.  A fork process pool's
    map submits every refit at once, and its first submit forks every
    worker, which so inherits X and y; the fitters must pickle.  The builtin
    runs each refit as `cv_evaluate` asks for its AUC.  Either gives the same
    AUCs; a refit whose process holds another call's inputs (a later call's,
    or an earlier one's in workers forked before this call) fails instead.
    """
    global _inputs
    _inputs = (_inputs[0] + 1, np.asarray(X, dtype=float), np.asarray(y, dtype=int))
    assignments = np.asarray(fold_plan.assignments)
    tasks = [(name, fitter, assignments == fold, fold, _inputs[0])
             for name, fitter in fitters.items() for fold in range(fold_plan.k)]
    return Refits(tasks, map(_fold_auc, tasks))


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
