"""From-scratch classifiers: L2 logistic regression on standardized
inputs, random forest and gradient boosting.

Each pipeline model has `fit`, `predict_proba` and a JSON-ready `to_dict`.
`LogisticRegressionClassifier.from_dict` loads the logistic model back; the
tree models load back as a `TreeEnsemble`, the schema `explain` consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .base import MultisysError, check_fitted, check_X, check_X_y, is_number
from .rng import SplitMix64
from .tree import DecisionTree, TreeError, grow_tree

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
    deviation (a zero-variance column gets divisor 1), then minimizes mean
    negative log-likelihood + (lambda / (2n)) * ||w||^2 with lambda = 1/C,
    starting from zero weights, via L-BFGS.  Converged when the gradient
    max-norm is <= tol or the iteration cap is reached.
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
        if len(np.unique(y)) < 2:
            raise ValueError("y contains a single class")
        self.mean_ = X.mean(axis=0)
        sd = X.std(axis=0)
        self.scale_ = np.where(sd == 0.0, 1.0, sd)
        X = self.standardize(X)
        x0 = np.zeros(X.shape[1] + 1)
        result = minimize(
            self._objective, x0, args=(X, y), jac=True, method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol * 1e-2,
                     "ftol": 1e-16, "maxfun": 10 * self.max_iter},
        )
        params = result.x
        self.coef_ = params[:-1]
        self.intercept_ = float(params[-1])
        _, grad = self._objective(params, X, y)
        self.gradient_max_norm_ = float(np.max(np.abs(grad)))
        self.n_iter_ = int(result.nit)
        return self

    def standardize(self, X) -> np.ndarray:
        """X scaled with the training mean and standard deviation."""
        check_fitted(self, "mean_")
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
        """The model `to_dict` wrote; MultisysError (kind ModelError) if malformed."""
        out = cls()
        try:
            std = d["standardizer"]
            out.mean_, out.scale_, out.coef_ = (np.asarray(v, dtype=float) for v in (
                std["mean"], std["scale"], d["weights"]))
            out.intercept_, out.gradient_max_norm_ = d["intercept"], d["gradient_max_norm"]
            if not (out.mean_.shape == out.scale_.shape == out.coef_.shape == (len(out.coef_),)
                    and is_number(out.intercept_)):
                raise ValueError("mean, scale and weights differ in length, or the "
                                 "intercept is not a number")
        except (KeyError, TypeError, ValueError) as exc:
            raise MultisysError(f"malformed logistic model: {exc!r}", kind="ModelError") from exc
        return out


@dataclass
class TreeEnsemble:
    """Additive collection of trees plus the aggregation contract.

    kind "gradient-boosting": margin = base_score + shrinkage * sum of leaf
    values; probability = logistic(margin).  kind "random-forest": trees
    store leaf probabilities; probability = mean over trees; margins are
    undefined.
    """

    kind: str  # "gradient-boosting" | "random-forest"
    trees: list[DecisionTree]
    base_score: float = 0.0
    shrinkage: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gradient-boosting", "random-forest"):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.kind == "random-forest" and self.shrinkage != 1.0:
            raise ValueError("random forests use shrinkage 1.0")
        if not 0.0 < self.shrinkage <= 1.0:
            raise ValueError("shrinkage must be in (0, 1]")
        if self.kind == "random-forest" and not self.trees:
            raise ValueError("empty forest")

    def predict_margin(self, X) -> np.ndarray:
        if self.kind != "gradient-boosting":
            raise ValueError("margins are defined for gradient boosting only")
        X = check_X(X)
        margin = np.full(len(X), self.base_score)
        for tree in self.trees:
            margin += self.shrinkage * tree.predict(X)
        return margin

    def predict_proba(self, X) -> np.ndarray:
        if self.kind == "gradient-boosting":
            return logistic(self.predict_margin(X))
        X = check_X(X)
        acc = np.zeros(len(X))
        for tree in self.trees:
            acc += tree.predict(X)
        return acc / len(self.trees)

    def expected_output(self) -> float:
        """Cover-weighted expected ensemble output (margin or probability)."""
        total = sum(tree.expected_value() for tree in self.trees)
        if self.kind == "gradient-boosting":
            return self.base_score + self.shrinkage * total
        return total / len(self.trees)

    def to_dict(self) -> dict:
        return {"schema_version": MODEL_SCHEMA_VERSION, "kind": self.kind,
                "base_score": self.base_score, "shrinkage": self.shrinkage,
                "trees": [tree.to_dict() for tree in self.trees]}

    @classmethod
    def from_dict(cls, d: dict) -> "TreeEnsemble":
        """The ensemble `to_dict` wrote; TreeError for a malformed one."""
        try:
            if d["schema_version"] != MODEL_SCHEMA_VERSION:
                raise ValueError(f"schema_version {d['schema_version']!r}, "
                                 f"expected {MODEL_SCHEMA_VERSION}")
            if not is_number(d["base_score"]):
                raise ValueError(f"base_score {d['base_score']!r}")
            return cls(d["kind"], [DecisionTree.from_dict(t) for t in d["trees"]],
                       d["base_score"], d["shrinkage"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TreeError(f"malformed tree ensemble: {exc!r}") from exc


class RandomForestClassifier:
    """Bagged Gini trees with sqrt(p) feature subsampling per node.

    Bootstrap draws and feature picks come from per-tree SplitMix64 streams
    derived from the seed, so fitting is deterministic and independent of
    row storage order given a compensating index map.
    """

    def __init__(self, n_estimators: int = 200, max_depth: int = 8,
                 min_samples_leaf: int = 10, seed: int = 0):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed

    def fit(self, X, y) -> "RandomForestClassifier":
        X, y = check_X_y(X, y)
        if len(X) < 2:
            raise ValueError("need at least two rows")
        if len(np.unique(y)) < 2:
            raise ValueError("y contains a single class")
        n, p = X.shape
        k = max(1, int(round(math.sqrt(p))))
        root = SplitMix64(self.seed)
        y_float = y.astype(float)
        trees = []
        for t in range(self.n_estimators):
            rng = root.spawn(t)
            boot = rng.randints_below(n, n)
            tree = grow_tree(
                X, y_float, criterion="gini",
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                rows=boot, max_features=k, rng=rng,
            )
            trees.append(tree)
        self.ensemble_ = TreeEnsemble(kind="random-forest", trees=trees)
        self.n_features_in_ = p
        return self

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self, "ensemble_")
        return self.ensemble_.predict_proba(check_X(X, n_features=self.n_features_in_))

    def to_dict(self) -> dict:
        return self.ensemble_.to_dict()


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

    def fit(self, X, y) -> "GradientBoostingClassifier":
        X, y = check_X_y(X, y)
        if len(np.unique(y)) < 2:
            raise ValueError("y contains a single class")
        n, p = X.shape
        prevalence = float(np.mean(y))
        base = logit(prevalence)
        margin = np.full(n, base)
        trees: list[DecisionTree] = []
        deviance: list[float] = []
        y_float = y.astype(float)
        order = np.argsort(X, axis=0, kind="stable")  # one sort shared by every stage
        for _ in range(self.n_estimators):
            prob = logistic(margin)
            residual = y_float - prob
            hessian = prob * (1.0 - prob)

            def newton_leaf(rows: np.ndarray) -> float:
                denom = max(float(np.sum(hessian[rows])), 1e-12)
                return float(np.sum(residual[rows])) / denom

            tree = grow_tree(
                X, residual, criterion="variance",
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                leaf_value=newton_leaf, order=order,
            )
            margin = margin + self.learning_rate * tree.predict(X)
            trees.append(tree)
            deviance.append(binomial_deviance(y_float, logistic(margin)))
        self.ensemble_ = TreeEnsemble(
            kind="gradient-boosting", trees=trees,
            base_score=base, shrinkage=self.learning_rate,
        )
        self.train_deviance_ = deviance
        self.n_features_in_ = p
        return self

    def predict_margin(self, X) -> np.ndarray:
        check_fitted(self, "ensemble_")
        return self.ensemble_.predict_margin(check_X(X, n_features=self.n_features_in_))

    def predict_proba(self, X) -> np.ndarray:
        return logistic(self.predict_margin(X))

    def to_dict(self) -> dict:
        return {**self.ensemble_.to_dict(), "train_deviance": self.train_deviance_}
