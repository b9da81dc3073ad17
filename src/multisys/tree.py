"""Binary decision trees: growth, prediction, serialization.

A tree is stored as parallel flat arrays indexed by node id.  Internal nodes
carry (feature, threshold, left, right, cover); leaves carry (value, cover).
Cover is the exact count of training rows routed through the node; it is the
empirical weight used by the Shapley attribution in `explain`.  Growth
appends each node's fields to these arrays in pre-order, so every child's id
is above its parent's; `from_dict` checks that order on a tree read from disk,
so a bottom-up pass such as `expected_value` is a reverse sweep over ids.

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
from itertools import chain
from operator import itemgetter

import numpy as np

from .base import MultisysError
from .rng import SplitMix64

LEAF = -1
FIELDS = {"feature": int, "threshold": float, "left": int, "right": int,
          "value": float, "cover": int}  # node fields and their dtypes


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

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.leaf_ids(X)]

    def expected_value(self) -> float:
        """Cover-weighted expectation of the tree output."""
        ev = self.value.copy()
        for node in np.flatnonzero(self.feature != LEAF)[::-1]:  # children first
            cl, cr = self.cover[self.left[node]], self.cover[self.right[node]]
            ev[node] = (cl * ev[self.left[node]] + cr * ev[self.right[node]]) / (cl + cr)
        return float(ev[0])

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
        """One dict per node; the fields a node's kind lacks are None."""
        leaf = self.feature == LEAF
        columns = [getattr(self, key).astype(object) for key in FIELDS]
        for column, blank in zip(columns[1:5], (leaf, leaf, leaf, ~leaf)):
            column[blank] = None
        return {"nodes": [dict(zip(FIELDS, node)) for node in zip(*columns)]}

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTree":
        """The tree `to_dict` wrote, and the one check of a tree read from disk:
        TreeError unless the nodes form a binary tree in pre-order (children
        after their parent and before the end), every cover is a positive
        integer and every leaf value is finite."""
        try:
            rows = list(map(itemgetter(*FIELDS), d["nodes"]))
            numeric = set(map(type, chain.from_iterable(rows))) <= {int, float, type(None)}
            t = np.array(rows, dtype=float).reshape(-1, len(FIELDS)).T  # None is NaN
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise TreeError(f"malformed tree: {exc!r}") from exc
        if not numeric or not t.shape[1]:
            raise TreeError("malformed tree: no nodes, or a field not a number or null")
        feature, threshold, left, right, value, cover = t
        ids, leaf = np.arange(len(feature)), feature == LEAF
        whole = np.isfinite(t) & (t == np.floor(t))
        for problem, ok in {
            "no column index and finite threshold":
                leaf | (feature >= 0) & whole[0] & np.isfinite(threshold),
            "a child before it or past the last node": leaf | np.all(
                whole[2:4] & (ids < t[2:4]) & (t[2:4] < len(ids)), axis=0),
            "a cover that is not a positive integer": (cover > 0) & whole[5],
            "a leaf value that is not finite": np.isfinite(value) | ~leaf,
        }.items():
            if not ok.all():
                raise TreeError(f"malformed tree: node {np.argmin(ok)} has {problem}")
        threshold[leaf], value[~leaf] = np.nan, np.nan
        left[leaf], right[leaf] = -1, -1
        return cls(*(column.astype(dtype) for column, dtype in zip(t, FIELDS.values())))


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

    feature, threshold, left, right, value, _ = table = [[] for _ in FIELDS]  # pre-order

    def build(rows: np.ndarray, depth: int) -> int:
        index = len(feature)
        for column, blank in zip(table, (LEAF, np.nan, -1, -1, np.nan, len(rows))):
            column.append(blank)
        best = None
        if (depth < max_depth and len(rows) >= 2 * min_samples_leaf
                and np.ptp(target[rows]) > 0):
            best = _best_split(X, target, rows, criterion, min_samples_leaf,
                               max_features=max_features, rng=rng)
        if best is None:
            value[index] = leaf_value(rows)
        else:
            _, f, thr = best
            go_left = X[rows, f] <= thr
            feature[index], threshold[index] = f, thr
            left[index] = build(rows[go_left], depth + 1)
            right[index] = build(rows[~go_left], depth + 1)
        return index

    build(np.asarray(rows, dtype=int), 0)
    return DecisionTree(*(np.array(column, dtype=dtype)
                          for column, dtype in zip(table, FIELDS.values())))
