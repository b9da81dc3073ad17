"""Classification metrics: ROC/AUC, confusion reports, CV aggregation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


def _fold_auc(task: tuple) -> float:
    """Held-out AUC of one (model, fold) refit; any failure as a MetricError
    naming both, so that it crosses a process boundary intact."""
    name, fitter, X, y, held, fold = task
    try:
        model = fitter(X[~held], y[~held])
        return roc_auc(model.predict_proba(X[held]), y[held])
    except Exception as exc:
        raise MetricError(f"{name} fold {fold}: {exc}") from exc


def cv_evaluate(fitters: dict[str, Callable], X, y, fold_plan, map=map) -> dict:
    """Per model, fit on k-1 folds, score the held-out fold, report AUC
    mean +/- SD (the sample, n-1, standard deviation over folds).

    `fitters[name](X_train, y_train)` must return an object with a
    `predict_proba(X) -> (n,) probability vector` method.  The refits of
    every (model, fold) pair run through one ordered `map`, which may be a
    process pool's: then the fitters must pickle, and the results are the
    same as with the builtin.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    assignments = np.asarray(fold_plan.assignments)
    k = fold_plan.k
    aucs = iter(map(_fold_auc, [(name, fitter, X, y, assignments == fold, fold)
                                for name, fitter in fitters.items() for fold in range(k)]))
    results = {}
    for name in fitters:
        folds = [next(aucs) for _ in range(k)]
        results[name] = {"cv_auc_mean": float(np.mean(folds)),
                         "cv_auc_sd": float(np.std(folds, ddof=1)) if k > 1 else 0.0,
                         "cv_fold_aucs": [float(a) for a in folds]}
    return results
