"""Binary decision trees: growth, prediction, serialization.

A tree is stored as parallel flat arrays indexed by node id.  Internal nodes
carry (feature, threshold, left, right, cover); leaves carry (value, cover).
Cover is the exact count of training rows routed through the node; it is the
empirical weight used by the Shapley attribution in `explain`.  Growth writes
the node dicts of `to_dict` and loads them with `from_dict`.

Split search is exact greedy with one scan per node: the node's rows of all
candidate features are sorted as one 2-D block, column by column, and prefix
sums score every threshold of every candidate at once.  Thresholds are
midpoints between adjacent distinct sorted feature values, children must
satisfy min_samples_leaf, and ties among equal-quality splits resolve to the
lowest feature index, then the lowest threshold.  A row that appears more
than once in `rows`, as in a bootstrap sample, counts once per appearance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import MultisysError
from .rng import SplitMix64

LEAF = -1


class TreeError(MultisysError):
    pass


@dataclass
class DecisionTree:
    feature: np.ndarray  # (m,) int, LEAF for leaves
    threshold: np.ndarray  # (m,) float, NaN for leaves
    left: np.ndarray  # (m,) int, -1 for leaves
    right: np.ndarray  # (m,) int, -1 for leaves
    value: np.ndarray  # (m,) float, leaf output (NaN for internal nodes)
    cover: np.ndarray  # (m,) int

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def is_leaf(self, node: int) -> bool:
        return self.feature[node] == LEAF

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.leaf_ids(X)]

    def expected_value(self) -> float:
        """Cover-weighted expectation of the tree output."""
        def walk(node: int) -> float:
            if self.is_leaf(node):
                return float(self.value[node])
            cl = self.cover[self.left[node]]
            cr = self.cover[self.right[node]]
            return (cl * walk(self.left[node]) + cr * walk(self.right[node])) / (cl + cr)
        return walk(0)

    def leaf_ids(self, X: np.ndarray) -> np.ndarray:
        """Route rows to leaves; x goes left iff x[feature] <= threshold."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        node = np.zeros(len(X), dtype=int)
        active = self.feature[node] != LEAF
        while np.any(active):
            idx = np.flatnonzero(active)
            nd = node[idx]
            go_left = X[idx, self.feature[nd]] <= self.threshold[nd]
            node[idx] = np.where(go_left, self.left[nd], self.right[nd])
            active = self.feature[node] != LEAF
        return node

    def to_dict(self) -> dict:
        nodes = []
        for i in range(self.n_nodes):
            if self.is_leaf(i):
                nodes.append({"feature": -1, "threshold": None, "left": None,
                              "right": None, "cover": int(self.cover[i]),
                              "value": float(self.value[i])})
            else:
                nodes.append({"feature": int(self.feature[i]),
                              "threshold": float(self.threshold[i]),
                              "left": int(self.left[i]), "right": int(self.right[i]),
                              "cover": int(self.cover[i]), "value": None})
        return {"nodes": nodes}

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTree":
        nodes = d["nodes"]
        m = len(nodes)
        tree = cls(
            feature=np.full(m, LEAF, dtype=int),
            threshold=np.full(m, np.nan),
            left=np.full(m, -1, dtype=int),
            right=np.full(m, -1, dtype=int),
            value=np.full(m, np.nan),
            cover=np.zeros(m, dtype=int),
        )
        for i, node in enumerate(nodes):
            tree.cover[i] = node["cover"]
            if node["feature"] == -1:
                tree.value[i] = node["value"]
            else:
                tree.feature[i] = node["feature"]
                tree.threshold[i] = node["threshold"]
                tree.left[i] = node["left"]
                tree.right[i] = node["right"]
        return tree


def _improves(score: float, f: int, best) -> bool:
    """Strictly better score, or an equal score on a lower feature index."""
    if best is None:
        return True
    if score < best[0] - 1e-12:
        return True
    return abs(score - best[0]) <= 1e-12 and f < best[1]


def _best_split(X: np.ndarray, target: np.ndarray, rows: np.ndarray,
                criterion: str, min_samples_leaf: int,
                max_features: int | None = None,
                rng: SplitMix64 | None = None):
    """Best (score, feature, threshold) over candidate features, or None.

    With `max_features` set, candidates are drawn without replacement from
    `rng`; features that are constant within the node do not count toward
    the quota, so a node only becomes a leaf when no sampled feature admits
    a valid split.  All candidates are then scored in one scan: column j of
    `scores` holds the count-weighted impurity (lower is better) of the
    split after each sorted position of candidate j.  Ties resolve to the
    lowest feature index, then to the lowest threshold.
    """
    X_node = X[rows]
    p = X.shape[1]
    if max_features is None or max_features >= p:
        candidates = list(range(p))
    else:
        candidates, pool = [], list(range(p))
        while pool and len(candidates) < max_features:
            f = pool.pop(rng.randint_below(len(pool)))
            v = X_node[:, f]
            if np.max(v) != np.min(v):  # a feature constant in the node is redrawn
                candidates.append(f)
    v = X_node[:, candidates]
    order = np.argsort(v, axis=0, kind="stable")
    vs = np.take_along_axis(v, order, axis=0)
    ts = target[rows][order]
    n = len(rows)
    csum = np.cumsum(ts, axis=0)
    nl = np.arange(1, n)[:, None]
    nr = n - nl
    sl = csum[:-1]
    sr = csum[-1] - sl
    if criterion == "gini":
        # binary targets: weighted gini = 2 * s * (n - s) / n per child
        left = 2.0 * sl * (nl - sl) / nl
        right = 2.0 * sr * (nr - sr) / nr
    elif criterion == "variance":
        csq = np.cumsum(ts * ts, axis=0)
        sql = csq[:-1]
        left = sql - sl * sl / nl
        right = (csq[-1] - sql) - sr * sr / nr
    else:
        raise TreeError(f"unknown criterion {criterion!r}")
    valid = (vs[1:] > vs[:-1]) & (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
    if not valid.any():
        return None
    scores = np.where(valid, left + right, np.inf)
    cut = np.argmin(scores, axis=0)  # first, i.e. lowest threshold, on ties
    best = None
    for j, f in enumerate(candidates):
        c = cut[j]
        if valid[c, j] and _improves(float(scores[c, j]), f, best):
            best = (float(scores[c, j]), f, float(0.5 * (vs[c, j] + vs[c + 1, j])))
    return best


def grow_tree(X: np.ndarray, target: np.ndarray, *, criterion: str,
              max_depth: int, min_samples_leaf: int,
              leaf_value=None, rows: np.ndarray | None = None,
              max_features: int | None = None,
              rng: SplitMix64 | None = None) -> DecisionTree:
    """Grow a binary tree by greedy exact splitting.

    `leaf_value(row_indices) -> float` computes the leaf output; by default
    the mean of `target` over the leaf.  `max_features`, when set, draws that
    many candidate features per node without replacement from `rng`.
    """
    X = np.asarray(X, dtype=float)
    target = np.asarray(target, dtype=float)
    if rows is None:
        rows = np.arange(len(X))
    if len(rows) == 0:
        raise TreeError("cannot grow a tree on zero rows")
    if leaf_value is None:
        leaf_value = lambda idx: float(np.mean(target[idx]))
    if max_features is not None and rng is None:
        raise TreeError("max_features requires an rng")

    nodes = []  # in the format of `DecisionTree.to_dict`, in pre-order

    def build(rows: np.ndarray, depth: int) -> int:
        node = {"feature": LEAF, "threshold": None, "left": None, "right": None,
                "cover": len(rows), "value": None}
        index = len(nodes)
        nodes.append(node)
        best = None
        if (depth < max_depth and len(rows) >= 2 * min_samples_leaf
                and np.ptp(target[rows]) > 0):
            best = _best_split(X, target, rows, criterion, min_samples_leaf,
                               max_features=max_features, rng=rng)
        if best is None:
            node["value"] = leaf_value(rows)
        else:
            _, f, thr = best
            go_left = X[rows, f] <= thr
            node.update(feature=f, threshold=thr,
                        left=build(rows[go_left], depth + 1),
                        right=build(rows[~go_left], depth + 1))
        return index

    build(np.asarray(rows, dtype=int), 0)
    return DecisionTree.from_dict({"nodes": nodes})
