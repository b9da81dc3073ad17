"""From-scratch classifiers, on numpy alone: L2 logistic regression on
standardized inputs (fitted by damped Newton), random forest and gradient
boosting.

Each classifier class holds its parameters, and `fit` returns the fitted
model: the logistic model itself, and a `TreeEnsemble` for the forest and
boosting.  A fitted model has `predict_proba` and a JSON-ready `to_dict`, and
its class's `from_dict` loads that dict back as the same model, which is what
`evaluate` and `explain` use.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .base import MultisysError, check_X, check_X_y, numbers
from .rng import SplitMix64
from .tree import (DecisionTree, TreeError, expectations, flatten, grow_forest, grow_tree,
                   rank_codes, walk)

MODEL_SCHEMA_VERSION = 1


def logistic(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def binomial_deviance(y: np.ndarray, proba: np.ndarray) -> float:
    """Mean negative binomial log-likelihood (x2), clipped for stability."""
    p = np.clip(proba, 1e-15, 1 - 1e-15)
    return float(-2.0 * np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


class LogisticRegressionClassifier:
    """Binary L2 logistic regression on inputs standardized with its own
    training rows, with an unpenalized intercept.

    `fit` scales each column by its training mean and population standard
    deviation (a constant column by its value and 1), then minimizes mean
    negative log-likelihood + (lambda / (2n)) * ||w||^2 with lambda = 1/C,
    starting from zero weights, by damped Newton: each step solves the
    Hessian system once and backtracks from the full step until the
    objective falls enough (Armijo).  It stops when the gradient max-norm is
    <= tol * 1e-2, after max_iter steps, or when no step lowers the objective.
    """

    def __init__(self, C: float = 1.0, max_iter: int = 2000, tol: float = 1e-6):
        self.C = C
        self.max_iter = max_iter
        self.tol = tol

    def _objective(self, params: np.ndarray, X: np.ndarray, y: np.ndarray):
        n = len(y)
        w, b = params[:-1], params[-1]
        z = X @ w + b
        p = logistic(z)
        # log-likelihood via log1p(exp(.)) on the safe side of the exponent
        nll = np.mean(np.logaddexp(0.0, z) - y * z)
        lam = 1.0 / self.C
        obj = nll + lam / (2.0 * n) * float(w @ w)
        grad_w = X.T @ (p - y) / n + lam / n * w
        grad_b = float(np.mean(p - y))
        return obj, np.concatenate([grad_w, [grad_b]])

    def fit(self, X, y) -> "LogisticRegressionClassifier":
        X, y = check_X_y(X, y)
        # A constant column is centred on its value and scaled by 1: its mean
        # need not round back (0.1 over 120 rows has an SD of 2.2e-16).
        constant, sd = np.ptp(X, axis=0) == 0.0, X.std(axis=0)
        self.mean_ = np.where(constant, X[0], X.mean(axis=0))
        self.scale_ = np.where(constant | (sd == 0.0), 1.0, sd)
        X = self.standardize(X)
        n, d = X.shape
        Xb = np.column_stack([X, np.ones(n)])
        # lambda / n on the weights' diagonal, floored at 1e-12 (which moves the
        # step, not the objective) so that the system stays regular at lambda ~ 0
        # with a constant or repeated column.  An all-zero column's gradient and
        # off-diagonal Hessian entries are 0, so its weight stays exactly 0.0.
        ridge = np.diag(np.append(np.full(d, max(1.0 / self.C / n, 1e-12)), 0.0))
        params = np.zeros(d + 1)
        obj, grad = self._objective(params, X, y)
        self.n_iter_ = 0
        while np.max(np.abs(grad)) > self.tol * 1e-2 and self.n_iter_ < self.max_iter:
            p = logistic(Xb @ params)
            step = np.linalg.solve((Xb.T * (p * (1.0 - p))) @ Xb / n + ridge, -grad)
            for t in 0.5 ** np.arange(40):
                trial, trial_grad = self._objective(params + t * step, X, y)
                if trial <= obj + 1e-4 * t * float(grad @ step):
                    break
            else:
                break  # no step lowers the objective in double precision
            params, obj, grad = params + t * step, trial, trial_grad
            self.n_iter_ += 1
        self.coef_ = params[:-1]
        self.intercept_ = float(params[-1])
        self.gradient_max_norm_ = float(np.max(np.abs(grad)))
        return self

    def standardize(self, X) -> np.ndarray:
        """X scaled with the training mean and standard deviation."""
        X = check_X(X, n_features=len(self.mean_))
        return (X - self.mean_) / self.scale_

    def predict_proba(self, X) -> np.ndarray:
        return logistic(self.standardize(X) @ self.coef_ + self.intercept_)

    def to_dict(self) -> dict:
        return {
            "kind": "logistic",
            "weights": [float(w) for w in self.coef_],
            "intercept": self.intercept_,
            "gradient_max_norm": self.gradient_max_norm_,
            "standardizer": {"mean": [float(v) for v in self.mean_],
                             "scale": [float(v) for v in self.scale_]},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LogisticRegressionClassifier":
        """The model `to_dict` wrote; MultisysError (kind ModelError) unless the
        mean, scale and weights are lists of one length, every number is finite
        and every scale is positive."""
        out = cls()
        try:
            out.coef_ = numbers(d["weights"], "weights")
            out.mean_, out.scale_ = (numbers(d["standardizer"][key], key, len(out.coef_))
                                     for key in ("mean", "scale"))
            out.intercept_, out.gradient_max_norm_ = (
                numbers([d[key]], key).item() for key in ("intercept", "gradient_max_norm"))
            if (out.scale_ <= 0).any():
                raise ValueError("a scale is not positive")
        except (KeyError, TypeError, ValueError) as exc:
            raise MultisysError(f"malformed logistic model: {exc!r}", kind="ModelError") from exc
        return out


@dataclass
class TreeEnsemble:
    """Additive collection of trees plus the aggregation contract.

    kind "gradient-boosting": margin = base_score + shrinkage * sum of leaf
    values; probability = logistic(margin).  kind "random-forest": trees
    store leaf probabilities; probability = mean over trees; margins are
    undefined.  Boosting records its training deviance after each stage.

    `trees` is the tuple of the trees it was given, and `table` their
    flattened node table (`tree.flatten`, None without trees), built when the
    ensemble is made; it serves prediction, the expected output and the
    Shapley walk.
    """

    kind: str  # "gradient-boosting" | "random-forest"
    trees: Sequence[DecisionTree]
    base_score: float = 0.0
    shrinkage: float = 1.0
    train_deviance: list[float] | None = None  # boosting only
    table: SimpleNamespace | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("gradient-boosting", "random-forest"):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.kind == "random-forest" and self.shrinkage != 1.0:
            raise ValueError("random forests use shrinkage 1.0")
        if not 0.0 < self.shrinkage <= 1.0:
            raise ValueError("shrinkage must be in (0, 1]")
        if self.kind == "random-forest" and not self.trees:
            raise ValueError("empty forest")
        if self.kind == "random-forest" and self.train_deviance is not None:
            raise ValueError("random forests have no train_deviance")
        if self.train_deviance is not None and len(self.train_deviance) != len(self.trees):
            raise ValueError("train_deviance does not hold one value per tree")
        self.trees = tuple(self.trees)
        self.table = flatten(self.trees) if self.trees else None

    def splits_within(self, n_columns: int) -> bool:
        """True if every split feature is a column index below n_columns."""
        return self.table is None or int(self.table.feature.max()) < n_columns

    def _leaf_sum(self, X, start: float) -> np.ndarray:
        """start plus shrinkage times each tree's leaf value, added tree by tree
        in model order (a running sum down the trees), the leaves from one
        `walk` over every tree."""
        X = check_X(X)
        total = np.full(len(X), start)
        if self.trees:
            t = self.table
            for rows, leaves in walk(t, X):
                steps = self.shrinkage * t.value.take(leaves)  # (trees, rows)
                steps[0] += total[rows]  # start + the first step: + commutes exactly
                total[rows] = np.add.accumulate(steps, out=steps)[-1]
        return total

    def predict_margin(self, X) -> np.ndarray:
        if self.kind != "gradient-boosting":
            raise ValueError("margins are defined for gradient boosting only")
        return self._leaf_sum(X, self.base_score)

    def predict_proba(self, X) -> np.ndarray:
        if self.kind == "gradient-boosting":
            return logistic(self.predict_margin(X))
        return self._leaf_sum(X, 0.0) / len(self.trees)  # shrinkage 1.0

    def expected_output(self) -> float:
        """Cover-weighted expected ensemble output (margin or probability): the
        trees' expected values (`tree.expectations` at their roots) summed in
        model order."""
        total = 0.0
        if self.trees:
            for value in expectations(self.table)[self.table.root].tolist():
                total += value
        if self.kind == "gradient-boosting":
            return self.base_score + self.shrinkage * total
        return total / len(self.trees)

    def to_dict(self) -> dict:
        doc = {"schema_version": MODEL_SCHEMA_VERSION, "kind": self.kind,
               "base_score": self.base_score, "shrinkage": self.shrinkage,
               "trees": [tree.to_dict() for tree in self.trees]}
        if self.train_deviance is not None:
            doc["train_deviance"] = list(self.train_deviance)
        return doc

    @classmethod
    def from_dict(cls, d: dict) -> "TreeEnsemble":
        """The ensemble `to_dict` wrote; TreeError for a malformed one."""
        try:
            if d["schema_version"] != MODEL_SCHEMA_VERSION:
                raise ValueError(f"schema_version {d['schema_version']!r}, "
                                 f"expected {MODEL_SCHEMA_VERSION}")
            # stored as floats, so that an integer base_score adds into a float margin
            base_score, shrinkage = (numbers([d[key]], key).item()
                                     for key in ("base_score", "shrinkage"))
            deviance = (numbers(d["train_deviance"], "train_deviance").tolist()
                        if "train_deviance" in d else None)
            return cls(d["kind"], [DecisionTree.from_dict(t) for t in d["trees"]],
                       base_score, shrinkage, deviance)
        except (KeyError, TypeError, ValueError) as exc:
            raise TreeError(f"malformed tree ensemble: {exc!r}") from exc


class RandomForestClassifier:
    """Bagged Gini trees with sqrt(p) feature subsampling per node.

    Bootstrap draws and feature picks come from per-tree SplitMix64 streams
    derived from the seed (`root.spawn(t)`), so fitting is deterministic and
    independent of row storage order given a compensating index map.  Since
    each tree draws only from its own stream, `tree.grow_forest` grows all of
    them in lockstep, one batched split search per step, and they are the
    trees grown one at a time, bit for bit: the default 200-tree fit on 836
    rows took 0.448-0.452 s one tree at a time and 0.246-0.252 s in
    lockstep (one CPU, in-process, minimum of five fits).
    """

    def __init__(self, n_estimators: int = 200, max_depth: int = 8,
                 min_samples_leaf: int = 10, seed: int = 0):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed

    def fit(self, X, y) -> TreeEnsemble:
        X, y = check_X_y(X, y)
        root = SplitMix64(self.seed)
        trees = grow_forest(X, y.astype(float), [root.spawn(t) for t in range(self.n_estimators)],
                            max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf,
                            max_features=max(1, int(round(math.sqrt(X.shape[1])))))
        return TreeEnsemble(kind="random-forest", trees=trees)


class GradientBoostingClassifier:
    """Stagewise binomial-deviance boosting with Newton leaf values.

    The base score is logit(prevalence); each stage fits a variance-reduction
    regression tree to the residual y - p and sets leaf values to
    sum(residual) / sum(p * (1 - p)) (denominator floored at 1e-12).  No
    subsampling, so fitting is fully deterministic.
    """

    def __init__(self, n_estimators: int = 200, learning_rate: float = 0.05,
                 max_depth: int = 4, min_samples_leaf: int = 10):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf

    def fit(self, X, y) -> TreeEnsemble:
        X, y = check_X_y(X, y)
        n = len(X)
        prevalence = float(np.mean(y))
        base = logit(prevalence)
        margin = np.full(n, base)
        trees: list[DecisionTree] = []
        deviance: list[float] = []
        y_float = y.astype(float)
        codes, values = rank_codes(X)  # one presort shared by every stage
        ranks = codes, values, np.argsort(codes, axis=1, kind="stable")
        for _ in range(self.n_estimators):
            prob = logistic(margin)
            residual = y_float - prob
            hessian = prob * (1.0 - prob)
            step = np.empty(n)  # each row's leaf value: the tree's output on X

            def newton_leaf(rows: np.ndarray) -> float:
                denom = max(float(np.sum(hessian[rows])), 1e-12)
                step[rows] = leaf = float(np.sum(residual[rows])) / denom
                return leaf

            tree = grow_tree(X, residual, max_depth=self.max_depth,
                             min_samples_leaf=self.min_samples_leaf,
                             leaf_value=newton_leaf, ranks=ranks)
            margin = margin + self.learning_rate * step
            trees.append(tree)
            deviance.append(binomial_deviance(y_float, logistic(margin)))
        return TreeEnsemble(kind="gradient-boosting", trees=trees, base_score=base,
                            shrinkage=self.learning_rate, train_deviance=deviance)
