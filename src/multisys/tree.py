"""Binary decision trees: growth, prediction, serialization.

A tree is stored as parallel flat arrays indexed by node id.  Internal nodes
carry (feature, threshold, left, right, cover); leaves carry (value, cover).
Cover is the exact count of training rows routed through the node; it is the
empirical weight used by the Shapley attribution in `explain`.

Split search is exact greedy: thresholds are midpoints between adjacent
distinct sorted feature values, children must satisfy min_samples_leaf, and
ties among equal-quality splits resolve to the lowest feature index, then
the lowest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def used_features(self) -> set[int]:
        return {int(f) for f in self.feature if f != LEAF}

    def max_depth(self) -> int:
        def depth(node: int) -> int:
            if self.is_leaf(node):
                return 0
            return 1 + max(depth(self.left[node]), depth(self.right[node]))
        return depth(0)

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


@dataclass
class _Growth:
    """Mutable node arrays during growth; frozen into a DecisionTree at the end."""
    feature: list = field(default_factory=list)
    threshold: list = field(default_factory=list)
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    value: list = field(default_factory=list)
    cover: list = field(default_factory=list)

    def add(self) -> int:
        self.feature.append(LEAF)
        self.threshold.append(np.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(np.nan)
        self.cover.append(0)
        return len(self.feature) - 1

    def freeze(self) -> DecisionTree:
        return DecisionTree(
            feature=np.asarray(self.feature, dtype=int),
            threshold=np.asarray(self.threshold, dtype=float),
            left=np.asarray(self.left, dtype=int),
            right=np.asarray(self.right, dtype=int),
            value=np.asarray(self.value, dtype=float),
            cover=np.asarray(self.cover, dtype=int),
        )


def _node_impurity_terms(t_sorted: np.ndarray, criterion: str):
    """Prefix statistics for evaluating every split of a sorted target vector.

    Returns (left_score, right_score) arrays where entry i scores the split
    after position i (0-based), as count-weighted impurities.  Lower is
    better for both gini and variance criteria.
    """
    n = len(t_sorted)
    csum = np.cumsum(t_sorted)
    total = csum[-1]
    nl = np.arange(1, n)
    nr = n - nl
    sl = csum[:-1]
    sr = total - sl
    if criterion == "gini":
        # binary targets: weighted gini = 2 * s * (n - s) / n per child
        left = 2.0 * sl * (nl - sl) / nl
        right = 2.0 * sr * (nr - sr) / nr
    elif criterion == "variance":
        csq = np.cumsum(t_sorted * t_sorted)
        sql = csq[:-1]
        sqr = csq[-1] - sql
        left = sql - sl * sl / nl
        right = sqr - sr * sr / nr
    else:
        raise TreeError(f"unknown criterion {criterion!r}")
    return left + right


def _score_feature(X: np.ndarray, t_node: np.ndarray, rows: np.ndarray,
                   f: int, criterion: str, min_samples_leaf: int):
    """Best (score, threshold) for one feature, or None if unsplittable."""
    v = X[rows, f]
    order = np.argsort(v, kind="stable")
    vs = v[order]
    ts = t_node[order]
    scores = _node_impurity_terms(ts, criterion)
    pos = np.arange(1, len(rows))
    valid = (vs[1:] > vs[:-1]) & (pos >= min_samples_leaf) & (len(rows) - pos >= min_samples_leaf)
    if not np.any(valid):
        return None
    idx = np.flatnonzero(valid)
    local = idx[np.argmin(scores[idx])]  # argmin takes the first (lowest threshold) on ties
    return float(scores[local]), 0.5 * (vs[local] + vs[local + 1])


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
    a valid split.  Ties resolve to the lowest feature index, then to the
    lowest threshold.
    """
    best = None  # (score, feature, threshold)
    t_node = target[rows]
    p = X.shape[1]
    if max_features is None or max_features >= p:
        for f in range(p):
            found = _score_feature(X, t_node, rows, f, criterion, min_samples_leaf)
            if found is not None and _improves(found[0], f, best):
                best = (found[0], f, float(found[1]))
    else:
        pool = list(range(p))
        informative = 0
        while pool and informative < max_features:
            f = pool.pop(rng.randint_below(len(pool)))
            v = X[rows, f]
            if np.max(v) == np.min(v):
                continue  # constant in this node: draw a replacement
            informative += 1
            found = _score_feature(X, t_node, rows, f, criterion, min_samples_leaf)
            if found is not None and _improves(found[0], f, best):
                best = (found[0], f, float(found[1]))
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
    p = X.shape[1]
    if leaf_value is None:
        leaf_value = lambda idx: float(np.mean(target[idx]))
    if max_features is not None and rng is None:
        raise TreeError("max_features requires an rng")

    g = _Growth()

    def build(rows: np.ndarray, depth: int) -> int:
        node = g.add()
        g.cover[node] = len(rows)
        t_node = target[rows]
        splittable = (
            depth < max_depth
            and len(rows) >= 2 * min_samples_leaf
            and np.ptp(t_node) > 0
        )
        best = None
        if splittable:
            best = _best_split(X, target, rows, criterion, min_samples_leaf,
                               max_features=max_features, rng=rng)
        if best is None:
            g.value[node] = leaf_value(rows)
            return node
        _, f, thr = best
        go_left = X[rows, f] <= thr
        g.feature[node] = f
        g.threshold[node] = thr
        g.left[node] = build(rows[go_left], depth + 1)
        g.right[node] = build(rows[~go_left], depth + 1)
        return node

    build(np.asarray(rows, dtype=int), 0)
    return g.freeze()
