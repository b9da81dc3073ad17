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

Each tree is walked once per block of rows: path features and zero fractions
are scalars, one fractions and path weights are arrays over the rows, and
each row gets the floating-point operations of its own walk.  That walk takes
the row's own child ("hot") first, so each row sums its leaf contributions in
its hot-first order, and phi is bit-identical to explaining rows one by one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .base import MultisysError, check_X
from .models import TreeEnsemble
from .tree import LEAF, DecisionTree

_ROW_BLOCK = 512  # rows per walk; a tree's leaf contributions are held per block
PDP_GRID_SIZE = 50  # quantile levels per partial-dependence curve


class ExplainError(MultisysError):
    pass


@dataclass
class ShapAttribution:
    phi: np.ndarray  # (n, p) Shapley values on the model's output scale
    base_value: float


@dataclass
class PdpCurve:
    feature: int
    grid: np.ndarray  # strictly ascending
    response: np.ndarray  # predicted probability at each grid point


@dataclass
class _Path:
    """Root-to-node path; row-dependent fields are (len, n) arrays."""

    features: list[int]
    zeros: list[float]
    ones: np.ndarray
    pweights: np.ndarray

    def extend(self, zero_fraction: float, one_fraction: np.ndarray,
               feature: int) -> "_Path":
        length = len(self.features)
        pw = np.empty((length + 1, len(one_fraction)))
        pw[length] = 1.0 if length == 0 else 0.0
        i = np.arange(length, dtype=float)[:, None]
        pw[:length] = zero_fraction * self.pweights * (length - i) / (length + 1)
        pw[1:] += one_fraction * self.pweights * (i + 1) / (length + 1)
        return _Path(self.features + [feature], self.zeros + [zero_fraction],
                     np.vstack([self.ones, one_fraction]), pw)

    def unwind(self, index: int) -> "_Path":
        """The path without element `index` (both branches, selected per row)."""
        last = len(self.features) - 1
        one, zero = self.ones[index], self.zeros[index]
        pw = np.empty((last, self.pweights.shape[1]))
        carry = self.pweights[last]
        for j in range(last - 1, -1, -1):
            hot = carry * (last + 1) / ((j + 1) * one)
            cold = self.pweights[j] * (last + 1) / (zero * (last - j))
            carry = self.pweights[j] - hot * zero * (last - j) / (last + 1)
            pw[j] = np.where(one != 0.0, hot, cold)
        keep = [k for k in range(last + 1) if k != index]
        return _Path([self.features[k] for k in keep], [self.zeros[k] for k in keep],
                     self.ones[keep], pw)

    def leaf_contributions(self, value: float) -> np.ndarray:
        """(len - 1, n) contribution of elements 1.. at a leaf of this value."""
        last = len(self.features) - 1
        one = self.ones[1:]
        zero = np.array(self.zeros[1:])[:, None]
        hot_total = np.zeros(one.shape)
        cold_total = np.zeros(one.shape)
        carry = self.pweights[last]
        for j in range(last - 1, -1, -1):
            tmp = carry * (last + 1) / ((j + 1) * one)
            hot_total += tmp
            carry = self.pweights[j] - tmp * zero * (last - j) / (last + 1)
            cold_total += self.pweights[j] * (last + 1) / (zero * (last - j))
        return np.where(one != 0.0, hot_total, cold_total) * (one - zero) * value


def _leaf_counts(tree: DecisionTree) -> list[int]:
    counts = [1] * tree.n_nodes
    for node in np.flatnonzero(tree.feature != LEAF)[::-1]:  # children first
        counts[node] = counts[tree.left[node]] + counts[tree.right[node]]
    return counts


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # unselected branches
def _tree_phi(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """One tree's Shapley values (n, p) for every row of X."""
    n, p = X.shape
    leaf_counts = _leaf_counts(tree)
    by_feature: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    # node, the path above it, the element it adds, and per row the number of
    # leaves visited before the node's subtree in that row's hot-first order
    stack = [(0, _Path([], [], np.empty((0, n)), np.empty((0, n))),
              1.0, np.ones(n), -1, np.zeros(n, dtype=np.int64))]
    while stack:
        node, path, zero_fraction, one_fraction, feature, rank = stack.pop()
        path = path.extend(zero_fraction, one_fraction, feature)
        if tree.feature[node] == LEAF:
            if len(path.features) > 1:
                contrib = path.leaf_contributions(float(tree.value[node]))
                for f, values in zip(path.features[1:], contrib):
                    by_feature.setdefault(f, []).append((values, rank))
            continue
        f = int(tree.feature[node])
        left, right = int(tree.left[node]), int(tree.right[node])
        cl, cr, cn = (int(tree.cover[i]) for i in (left, right, node))
        goes_left = X[:, f] <= tree.threshold[node]
        incoming_zero, incoming_one = 1.0, np.ones(n)
        if f in path.features[1:]:
            found = path.features.index(f, 1)
            incoming_zero, incoming_one = path.zeros[found], path.ones[found]
            path = path.unwind(found)
        stack.append((left, path, incoming_zero * cl / cn,
                      np.where(goes_left, incoming_one, 0.0), f,
                      np.where(goes_left, rank, rank + leaf_counts[right])))
        stack.append((right, path, incoming_zero * cr / cn,
                      np.where(goes_left, 0.0, incoming_one), f,
                      np.where(goes_left, rank + leaf_counts[left], rank)))

    phi = np.zeros((n, p))
    for f, items in by_feature.items():
        values = np.array([v for v, _ in items])
        order = np.argsort(np.array([r for _, r in items]), axis=0)
        values = np.take_along_axis(values, order, axis=0)
        values[0] += 0.0  # the per-row sum starts from +0.0
        phi[:, f] = np.add.accumulate(values, axis=0)[-1]
    return phi


def tree_shap(ensemble: TreeEnsemble, X) -> ShapAttribution:
    """Shapley attribution for every row of X.

    Boosting: values on the margin scale, per-tree contributions scaled by
    shrinkage.  Forest: values on the probability scale, averaged over trees.
    """
    X = check_X(X)
    n, p = X.shape
    boosting = ensemble.kind == "gradient-boosting"
    scale = ensemble.shrinkage if boosting else 1.0 / len(ensemble.trees)
    if not ensemble.splits_within(p):
        raise ExplainError(f"X has {p} columns, fewer than the model splits on")
    phi = np.zeros((n, p))
    for start in range(0, n, _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        for tree in ensemble.trees:
            phi[block] += scale * _tree_phi(tree, X[block])
    return ShapAttribution(phi=phi, base_value=ensemble.expected_output())


def global_importance(attribution: ShapAttribution,
                      feature_names: Sequence[str] = ()) -> list[tuple[str, float]]:
    """Mean |phi| per feature, sorted descending; ties keep feature order."""
    if attribution.phi.shape[0] == 0:
        raise ExplainError("no rows to rank")
    mean_abs = np.mean(np.abs(attribution.phi), axis=0)
    if len(feature_names) != len(mean_abs):
        raise ExplainError(f"{len(feature_names)} feature names for "
                           f"{len(mean_abs)} attributed features")
    order = sorted(range(len(mean_abs)), key=lambda i: (-mean_abs[i], i))
    return [(feature_names[i], float(mean_abs[i])) for i in order]


def beeswarm_export(attribution: ShapAttribution, X,
                    feature_names: Sequence[str] = ()) -> list[dict]:
    """Long-format records (row, feature, shap, value, rank) for replotting."""
    X = check_X(X)
    if X.shape != attribution.phi.shape:
        raise ExplainError(
            f"feature values {X.shape} do not match attributions {attribution.phi.shape}"
        )
    ranking = global_importance(attribution, feature_names)
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


def partial_dependence(model, X_train, feature: int) -> PdpCurve:
    """Model response as one feature sweeps a quantile grid.

    The grid spans PDP_GRID_SIZE equally spaced quantiles of the training
    feature between the 2.5th and 97.5th percentiles (tails suppressed); all
    other features sit at their training means.
    """
    X_train = check_X(X_train)
    if not 0 <= feature < X_train.shape[1]:
        raise ExplainError(f"feature {feature} is outside 0..{X_train.shape[1] - 1}")
    col = X_train[:, feature]
    levels = np.linspace(0.025, 0.975, PDP_GRID_SIZE)
    grid = np.unique(np.quantile(col, levels))
    if len(grid) < 2:
        raise ExplainError(f"feature {feature} is (near-)constant; PDP grid degenerate")
    profile = np.tile(X_train.mean(axis=0), (len(grid), 1))
    profile[:, feature] = grid
    responses = np.asarray(model.predict_proba(profile), dtype=float)
    return PdpCurve(feature=feature, grid=grid, response=responses)
