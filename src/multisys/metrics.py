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
    thresholds: np.ndarray  # descending distinct scores
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
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    auc = float(trapezoid(tpr, fpr))
    return RocCurve(thresholds=s[ends], fpr=fpr, tpr=tpr, auc=auc)


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


def cv_evaluate(fitter: Callable, X, y, fold_plan) -> dict:
    """Fit on k-1 folds, score the held-out fold, report AUC mean +/- SD
    (the sample, n-1, standard deviation over folds).

    `fitter(X_train, y_train)` must return an object with a
    `predict_proba(X) -> (n,) probability vector` method.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    aucs = []
    for fold in range(fold_plan.k):
        held = np.asarray(fold_plan.assignments) == fold
        try:
            model = fitter(X[~held], y[~held])
            scores = model.predict_proba(X[held])
            aucs.append(roc_auc(scores, y[held]))
        except Exception as exc:
            raise MetricError(f"fold {fold}: {exc}") from exc
    return {"cv_auc_mean": float(np.mean(aucs)),
            "cv_auc_sd": float(np.std(aucs, ddof=1)) if len(aucs) > 1 else 0.0,
            "cv_fold_aucs": [float(a) for a in aucs]}
