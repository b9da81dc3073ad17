"""Exact tree-ensemble Shapley attribution, importance ranking and partial
dependence.

The attribution is the path-dependent variant: conditional expectations at
internal nodes are weighted by training covers, and the per-tree values are
computed exactly in polynomial time by carrying, along each root-to-leaf
path, the weighted count of feature-subset permutations ("path weights")
that would route a row through that path.  Per-tree values add across the
ensemble (scaled by shrinkage for boosting), and the base value is the
cover-weighted expected ensemble output, so base + sum(phi) reproduces the
model output exactly (local accuracy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import MultisysError, check_X
from .models import TreeEnsemble
from .tree import DecisionTree


class ExplainError(MultisysError):
    pass


@dataclass
class ShapAttribution:
    phi: np.ndarray  # (n, p) Shapley values on the model's output scale
    base_value: float

    @property
    def n_features(self) -> int:
        return self.phi.shape[1]


@dataclass
class PdpCurve:
    feature: int
    grid: np.ndarray  # strictly ascending
    response: np.ndarray  # predicted probability at each grid point


class _PathElement:
    __slots__ = ("feature", "zero_fraction", "one_fraction", "pweight")

    def __init__(self, feature: int, zero_fraction: float,
                 one_fraction: float, pweight: float):
        self.feature = feature
        self.zero_fraction = zero_fraction
        self.one_fraction = one_fraction
        self.pweight = pweight

    def copy(self) -> "_PathElement":
        return _PathElement(self.feature, self.zero_fraction,
                            self.one_fraction, self.pweight)


def _extend(path: list[_PathElement], zero_fraction: float,
            one_fraction: float, feature: int) -> list[_PathElement]:
    path = [e.copy() for e in path]
    length = len(path)
    path.append(_PathElement(feature, zero_fraction, one_fraction,
                             1.0 if length == 0 else 0.0))
    for i in range(length - 1, -1, -1):
        path[i + 1].pweight += one_fraction * path[i].pweight * (i + 1) / (length + 1)
        path[i].pweight = zero_fraction * path[i].pweight * (length - i) / (length + 1)
    return path


def _unwind(path: list[_PathElement], index: int) -> list[_PathElement]:
    path = [e.copy() for e in path]
    last = len(path) - 1
    one = path[index].one_fraction
    zero = path[index].zero_fraction
    carry = path[last].pweight
    for j in range(last - 1, -1, -1):
        if one != 0.0:
            tmp = path[j].pweight
            path[j].pweight = carry * (last + 1) / ((j + 1) * one)
            carry = tmp - path[j].pweight * zero * (last - j) / (last + 1)
        else:
            path[j].pweight = path[j].pweight * (last + 1) / (zero * (last - j))
    for j in range(index, last):
        path[j].feature = path[j + 1].feature
        path[j].zero_fraction = path[j + 1].zero_fraction
        path[j].one_fraction = path[j + 1].one_fraction
    path.pop()
    return path


def _unwound_sum(path: list[_PathElement], index: int) -> float:
    last = len(path) - 1
    one = path[index].one_fraction
    zero = path[index].zero_fraction
    total = 0.0
    if one != 0.0:
        carry = path[last].pweight
        for j in range(last - 1, -1, -1):
            tmp = carry * (last + 1) / ((j + 1) * one)
            total += tmp
            carry = path[j].pweight - tmp * zero * (last - j) / (last + 1)
    else:
        for j in range(last - 1, -1, -1):
            total += path[j].pweight * (last + 1) / (zero * (last - j))
    return total


def _tree_shap_row(tree: DecisionTree, x: np.ndarray, phi: np.ndarray) -> None:
    """Accumulate one tree's Shapley values for row x into phi."""

    def recurse(node: int, path: list[_PathElement],
                zero_fraction: float, one_fraction: float, feature: int) -> None:
        path = _extend(path, zero_fraction, one_fraction, feature)
        if tree.is_leaf(node):
            value = float(tree.value[node])
            for i in range(1, len(path)):
                phi[path[i].feature] += (
                    _unwound_sum(path, i)
                    * (path[i].one_fraction - path[i].zero_fraction)
                    * value
                )
            return
        f = int(tree.feature[node])
        left, right = int(tree.left[node]), int(tree.right[node])
        cl, cr = int(tree.cover[left]), int(tree.cover[right])
        cn = int(tree.cover[node])
        if cn <= 0 or cl <= 0 or cr <= 0:
            raise ExplainError(f"zero-cover node {node} in tree")
        hot, cold = (left, right) if x[f] <= tree.threshold[node] else (right, left)
        hot_cover = cl if hot == left else cr
        cold_cover = cl + cr - hot_cover

        incoming_zero, incoming_one = 1.0, 1.0
        found = -1
        for i in range(1, len(path)):
            if path[i].feature == f:
                found = i
                break
        if found >= 0:
            incoming_zero = path[found].zero_fraction
            incoming_one = path[found].one_fraction
            path = _unwind(path, found)
        recurse(hot, path, incoming_zero * hot_cover / cn, incoming_one, f)
        recurse(cold, path, incoming_zero * cold_cover / cn, 0.0, f)

    recurse(0, [], 1.0, 1.0, -1)


def shap_values_tree(tree: DecisionTree, x: np.ndarray, n_features: int) -> np.ndarray:
    """Exact path-dependent Shapley values of a single tree for one row."""
    phi = np.zeros(n_features + 1)  # slot -1 absorbs the root dummy element
    _tree_shap_row(tree, np.asarray(x, dtype=float), phi)
    return phi[:n_features]


def tree_shap(ensemble: TreeEnsemble, X) -> ShapAttribution:
    """Shapley attribution for every row of X.

    Boosting: values on the margin scale, per-tree contributions scaled by
    shrinkage.  Forest: values on the probability scale, averaged over trees.
    """
    X = check_X(X)
    n, p = X.shape
    if ensemble.kind == "gradient-boosting":
        scale = ensemble.shrinkage
    else:
        if not ensemble.trees:
            raise ExplainError("empty forest")
        scale = 1.0 / len(ensemble.trees)
    phi = np.zeros((n, p))
    for tree in ensemble.trees:
        for i in range(n):
            phi[i] += scale * shap_values_tree(tree, X[i], p)
    return ShapAttribution(phi=phi, base_value=ensemble.expected_output())


def global_importance(attribution: ShapAttribution,
                      feature_names: list[str] | None = None
                      ) -> list[tuple[str, float]]:
    """Mean |phi| per feature, sorted descending; ties keep feature order."""
    if attribution.phi.shape[0] == 0:
        raise ExplainError("no rows to rank")
    mean_abs = np.mean(np.abs(attribution.phi), axis=0)
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(len(mean_abs))]
    order = sorted(range(len(mean_abs)), key=lambda i: (-mean_abs[i], i))
    return [(feature_names[i], float(mean_abs[i])) for i in order]


def beeswarm_export(attribution: ShapAttribution, X,
                    feature_names: list[str] | None = None) -> list[dict]:
    """Long-format records (row, feature, shap, value, rank) for replotting."""
    X = check_X(X)
    if X.shape != attribution.phi.shape:
        raise ExplainError(
            f"feature values {X.shape} do not match attributions {attribution.phi.shape}"
        )
    ranking = global_importance(attribution, feature_names)
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(X.shape[1])]
    rank_of = {name: r + 1 for r, (name, _) in enumerate(ranking)}
    records = []
    for i in range(X.shape[0]):
        for j, name in enumerate(feature_names):
            records.append({
                "row": i,
                "feature": name,
                "shap": float(attribution.phi[i, j]),
                "value": float(X[i, j]),
                "rank": rank_of[name],
            })
    return records


def partial_dependence(model, X_train, feature: int, grid_size: int = 50,
                       lower_pct: float = 2.5, upper_pct: float = 97.5,
                       average: bool = False) -> PdpCurve:
    """Model response as one feature sweeps a quantile grid.

    The grid spans equally spaced quantiles of the training feature between
    the 2.5th and 97.5th percentiles (tails suppressed).  By default all
    other features sit at their training means; `average=True` instead
    averages predictions over the training rows at each grid value.
    """
    X_train = check_X(X_train)
    if grid_size < 2:
        raise ExplainError("grid_size must be >= 2")
    col = X_train[:, feature]
    levels = np.linspace(lower_pct / 100.0, upper_pct / 100.0, grid_size)
    grid = np.unique(np.quantile(col, levels))
    if len(grid) < 2:
        raise ExplainError(f"feature {feature} is (near-)constant; PDP grid degenerate")
    responses = np.empty(len(grid))
    if average:
        for g, value in enumerate(grid):
            X_mod = X_train.copy()
            X_mod[:, feature] = value
            responses[g] = float(np.mean(model.predict_proba(X_mod)))
    else:
        profile = np.tile(X_train.mean(axis=0), (len(grid), 1))
        profile[:, feature] = grid
        responses = np.asarray(model.predict_proba(profile), dtype=float)
    return PdpCurve(feature=feature, grid=grid, response=responses)
