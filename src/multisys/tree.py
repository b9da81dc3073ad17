"""Binary decision trees: growth, prediction, serialization.

A tree is stored as parallel flat arrays indexed by node id.  Internal nodes
carry (feature, threshold, left, right, cover); leaves carry (value, cover).
Cover is the exact count of training rows routed through the node; it is the
empirical weight used by the Shapley attribution in `explain`.  Growth
appends each node's fields to these arrays in pre-order, so every child's id
is above its parent's; `from_dict` checks that order on a tree read from disk.
`flatten` lays the node arrays of several trees end to end as one table, and
`walk` is the one traversal of it: every (tree, row) pair of a block of rows
moves down one level per step.  It serves `DecisionTree.predict` and ensemble
prediction; `expectations` sweeps the same table bottom-up, one level at a
time, and the Shapley walk in `explain` runs over it too.

Split search is exact greedy over one presort of X, `rank_codes`: each
column's dense rank codes, its sorted distinct values and the stable order of
its codes, computed once per fit and shared by every tree.  Each node lays
its candidate features out as rows of a 2-D block, each holding the node's
rank codes in sorted order, and one scoring routine scores every legal cut of
every candidate from prefix sums, at most _CHUNK elements of the block at a
time: a legal cut leaves at least min_samples_leaf rows on each side and
falls between distinct codes.  The path is chosen from `rows` and
`max_features`.  Growth on all rows and all features (gradient boosting)
takes the block from the presort's order, without the columns that are
constant over X, which have no legal cut: a split partitions the parent's
block with one boolean mask and its negation, stably, and since the node's
rows are an ascending subsequence of all rows this is the order a stable
sort of the node's rows gives.  Any other growth (random forests, with
`rows` and `max_features`) sorts small integer keys in each node: the codes
shifted left past a tag.  A 0/1 target is the tag,
since prefix counts of it do not depend on the order within a tie; any other
target is fetched by its row's position in the node, which is the tag then.
Such a node partitions only its own rows.  Thresholds are midpoints between
adjacent distinct sorted feature values, and ties among equal-quality splits
resolve to the lowest feature index, then the lowest threshold.  A row that
appears more than once in `rows`, as in a bootstrap sample, counts once per
appearance.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from .base import MultisysError
from .rng import SplitMix64

LEAF = -1
_WALK_PAIRS = 1 << 14  # (tree, row) pairs a walk routes at once
_CHUNK = 8192  # elements of the block a split search scores at once
FIELDS = {"feature": np.int32, "threshold": float, "left": np.int32, "right": np.int32,
          "value": float, "cover": np.int32}  # node fields and their dtypes


class TreeError(MultisysError):
    pass


@dataclass
class DecisionTree:
    feature: np.ndarray  # (m,) int32, LEAF for leaves
    threshold: np.ndarray  # (m,) float, NaN for leaves
    left: np.ndarray  # (m,) int32, -1 for leaves
    right: np.ndarray  # (m,) int32, -1 for leaves
    value: np.ndarray  # (m,) float, leaf output (NaN for internal nodes)
    cover: np.ndarray  # (m,) int32

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Each row's leaf value: `walk` over this one tree."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty(len(X))
        for rows, leaves in walk(flatten([self]), X):
            out[rows] = self.value[leaves[0]]
        return out

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
        # an exact integer that the int32 fields hold
        whole = (t == np.floor(t)) & (np.abs(t) <= np.iinfo(np.int32).max)
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
        parents = np.bincount(t[2:4, ~leaf].astype(np.intp).ravel(), minlength=len(ids))
        if (parents[1:] != 1).any():
            node = np.argmax(parents[1:] != 1) + 1
            raise TreeError(f"malformed tree: node {node} is the child of "
                            f"{parents[node]} nodes, not of one")
        threshold[leaf], value[~leaf] = np.nan, np.nan
        left[leaf], right[leaf] = -1, -1
        return cls(*(column.astype(dtype) for column, dtype in zip(t, FIELDS.values())))


def flatten(trees: Sequence[DecisionTree]) -> SimpleNamespace:
    """The one flattened node table: the trees' node features, thresholds,
    values and covers end to end, with the roots, the number of leaves below
    each node, the depth of the deepest tree, and each node's (right, left)
    children, ids offset to match, itself twice for a leaf; `left` and
    `right` are views of those pairs."""
    sizes = [tree.n_nodes for tree in trees]
    t = SimpleNamespace(**{name: np.concatenate([getattr(tree, name) for tree in trees])
                           for name in ("feature", "threshold", "value", "cover")})
    t.root = np.cumsum([0] + sizes[:-1])
    # built in place: each node's (right, left), offset to the table's ids,
    # int32 like the trees' own node fields
    kids = np.empty((len(t.feature), 2), dtype=np.int32)
    t.leaves = np.ones(len(t.feature), dtype=np.int32)
    for column, side in enumerate(("right", "left")):
        np.concatenate([getattr(tree, side) for tree in trees], out=kids[:, column])
    kids += np.repeat(t.root, sizes)[:, None]
    leaf = np.flatnonzero(t.feature == LEAF)
    kids[leaf] = leaf[:, None]
    t.kids = kids.ravel()
    t.right, t.left = t.kids[0::2], t.kids[1::2]
    bottom_up = list(levels(t))[::-1]
    for level in bottom_up:
        t.leaves[level] = t.leaves[t.left[level]] + t.leaves[t.right[level]]
    t.depth = len(bottom_up)
    return t


def levels(t: SimpleNamespace):
    """The internal nodes of the table t, one level at a time from the roots
    down."""
    level = t.root
    while len(level := level[t.feature[level] != LEAF]):
        yield level
        level = np.concatenate([t.left[level], t.right[level]])


def expectations(t: SimpleNamespace) -> np.ndarray:
    """Each node's cover-weighted expected output over the table t: a leaf's
    value, and an internal node's (cl * left + cr * right) / (cl + cr) of its
    children's covers and expectations, swept bottom-up one level at a time."""
    ev = t.value.copy()
    for level in list(levels(t))[::-1]:
        left, right = t.left[level], t.right[level]
        cl, cr = t.cover[left], t.cover[right]
        ev[level] = (cl * ev[left] + cr * ev[right]) / (cl + cr)
    return ev


def walk(t: SimpleNamespace, X: np.ndarray):
    """The one tree traversal: route every (tree, row) pair of the table t and
    the rows of X at once, level by level, x going left iff x[feature] <=
    threshold (a leaf loops to itself).  Yields, per block of at most
    _WALK_PAIRS // trees rows (one row at least), the block's slice of X and
    the leaf of each pair, shape (trees, block rows); TreeError if X has too
    few columns."""
    n, p = X.shape
    if t.feature.max(initial=0) >= p:  # else a flat index would read the next row
        raise TreeError(f"X has {p} columns, fewer than the trees split on")
    block = max(1, _WALK_PAIRS // len(t.root))
    for start in range(0, n, block):
        rows = np.ascontiguousarray(X[start:start + block])
        first = np.arange(len(rows)) * p  # each row's first cell in the flat rows
        node = np.repeat(t.root[:, None], len(rows), axis=1)
        for _ in range(t.depth):
            # a leaf's column -1 reads any cell: both its children are itself
            go_left = rows.take(first + t.feature.take(node)) <= t.threshold.take(node)
            node = t.kids.take(2 * node + go_left).astype(np.intp)  # take's own type
        yield slice(start, start + len(rows)), node


def rank_codes(X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """The one presort of X: each column's dense rank codes, shape (p, n), its
    sorted distinct values, so that `values[f][codes[f]]` is `X[:, f]`, and
    the stable order of each column's codes, shape (p, n), which is
    `np.argsort(X, axis=0, kind="stable").T`.  The codes are int16 when twice
    the most distinct values of a column fits int16, so that every key
    `code << 1 | 1` does, and int32 otherwise."""
    uniques = [np.unique(column, return_inverse=True) for column in X.T]
    values = [distinct for distinct, _ in uniques]
    wide = 2 * max(map(len, values), default=0) > np.iinfo(np.int16).max
    codes = np.array([code for _, code in uniques], dtype=np.int32 if wide else np.int16)
    codes = codes.reshape(len(values), len(X))
    return codes, values, np.argsort(codes, axis=1, kind="stable")


def _improves(score: float, f: int, best) -> bool:
    """Strictly better score, or an equal score on a lower feature index."""
    if best is None:
        return True
    if score < best[0] - 1e-12:
        return True
    return abs(score - best[0]) <= 1e-12 and f < best[1]


def _best_cut(ordered: np.ndarray, ts: np.ndarray, candidates, values: list[np.ndarray],
              criterion: str, min_samples_leaf: int):
    """The one scoring routine: the best (score, feature, threshold) or None.

    Row j of `ordered` holds the node's rank codes of feature candidates[j] in
    ascending order, and row j of `ts` the targets in that order.  Only legal
    cuts are scored: a cut after position c leaves min_samples_leaf rows, and
    at least one, on each side, and falls between distinct codes.  Scores are
    count-weighted impurities, lower is better; ties resolve to the lowest
    feature index, then to the lowest c.  The threshold is the midpoint of the
    feature's values at the codes either side of the cut.  Features are
    scored a chunk of rows of the block at a time, at most _CHUNK elements
    (one feature at least), and each keeps its first best cut; one chain of
    `_improves` then runs over all features in order, since its tie tolerance
    is not transitive and chunk winners compared alone could pick another.
    """
    n = ts.shape[1]
    # left counts lo+1 .. hi
    lo = max(min_samples_leaf, 1) - 1
    hi = n - 1 - lo
    if hi <= lo:
        return None
    if criterion not in ("gini", "variance"):
        raise TreeError(f"unknown criterion {criterion!r}")
    nl = np.arange(lo + 1, hi + 1, dtype=float)
    nr = n - nl
    step = max(1, _CHUNK // n)
    cuts, legal, best_scores = [], [], []
    for first in range(0, len(ts), step):
        chunk = ts[first:first + step]
        # integer counts stay exact in float64, and float-only arithmetic is faster
        csum = np.cumsum(chunk, axis=1, dtype=float)
        sl = csum[:, lo:hi]
        sr = csum[:, -1:] - sl
        if criterion == "gini":
            # binary targets: weighted gini = 2 * s * (n - s) / n per child
            left = 2.0 * sl * (nl - sl) / nl
            right = 2.0 * sr * (nr - sr) / nr
        else:
            csq = np.cumsum(chunk * chunk, axis=1)
            sql = csq[:, lo:hi]
            left = sql - sl * sl / nl
            right = (csq[:, -1:] - sql) - sr * sr / nr
        codes = ordered[first:first + step]
        valid = codes[:, lo + 1:hi + 1] > codes[:, lo:hi]
        scores = np.where(valid, left + right, np.inf)
        cut = np.argmin(scores, axis=1)  # first, i.e. lowest threshold, on ties
        columns = np.arange(len(cut))
        cuts += cut.tolist()
        legal += valid[columns, cut].tolist()
        best_scores += scores[columns, cut].tolist()
    at, best = None, None
    for j, (f, ok, score) in enumerate(zip(candidates, legal, best_scores)):
        if ok and _improves(score, f, best):
            best, at = (score, f), j
    if best is None:
        return None
    score, f = best
    c = lo + cuts[at]
    return score, f, float(0.5 * (values[f][ordered[at, c]] + values[f][ordered[at, c + 1]]))


def _best_split(ranks: tuple, target: np.ndarray, rows: np.ndarray,
                criterion: str, min_samples_leaf: int,
                max_features: int | None = None,
                rng: SplitMix64 | None = None):
    """Best (score, feature, threshold) of a node, or None, from the sorted
    keys of its rows' rank codes; `ranks` is `rank_codes(X)`.  With
    `max_features` set, candidates are drawn without replacement from `rng`,
    as many at a time as are still missing; a feature constant within the
    node does not count toward the quota and is redrawn, so a node only
    becomes a leaf when no sampled feature admits a valid split.
    """
    codes, values, _ = ranks
    if criterion == "gini":  # the 0/1 target is the tag
        shift, tag = 1, target[rows].astype(codes.dtype)
    else:  # the row's position in the node is the tag, and fetches its target
        shift, tag = len(rows).bit_length(), np.arange(len(rows))

    def sorted_keys(features: list[int]) -> np.ndarray:
        keys = codes[features].take(rows, axis=1).astype(tag.dtype, copy=False)
        keys <<= shift
        keys |= tag
        keys.sort(axis=1)  # equal integer keys are interchangeable
        return keys

    p = len(codes)
    if max_features is None or max_features >= p:
        candidates = list(range(p))
        keys = sorted_keys(candidates)
    else:
        candidates, pool, blocks = [], list(range(p)), [np.empty((0, len(rows)), tag.dtype)]
        while pool and len(candidates) < max_features:
            drawn = [pool.pop(rng.randint_below(len(pool)))
                     for _ in range(min(max_features - len(candidates), len(pool)))]
            keys = sorted_keys(drawn)
            varies = keys[:, -1] >> shift != keys[:, 0] >> shift  # else redrawn
            candidates += [f for f, keep in zip(drawn, varies.tolist()) if keep]
            blocks.append(keys[varies])
        keys = np.concatenate(blocks)
    ordered, low = keys >> shift, keys & ((1 << shift) - 1)
    return _best_cut(ordered, low if criterion == "gini" else target[rows].take(low),
                     candidates, values, criterion, min_samples_leaf)


def grow_tree(X: np.ndarray, target: np.ndarray, *, criterion: str,
              max_depth: int, min_samples_leaf: int,
              leaf_value=None, rows: np.ndarray | None = None,
              max_features: int | None = None,
              rng: SplitMix64 | None = None,
              ranks: tuple | None = None) -> DecisionTree:
    """Grow a binary tree by greedy exact splitting.

    `target` holds 0/1 values for the gini criterion.  `leaf_value(row_indices)
    -> float` computes the leaf output; by default the mean of `target` over
    the leaf.  `max_features`, when set, draws that many candidate features
    per node without replacement from `rng`.  `ranks`, `rank_codes(X)`, is
    the one presort of X, may be shared by every tree grown on X, and is
    computed here when not given.  Growth on all rows and all features
    (`rows` and `max_features` both None) scores each node's stable partition
    of its order; any other growth sorts the rank codes of each node's rows.
    Both paths stay, each the faster for its growth, with bit-identical trees
    either way (one CPU): random forests on the partition took 1.38-1.61 s
    against 1.03-1.23 s on the sort (836 rows), and boosting on the sort
    12.7/13.3 s against 10.2/11.3 s on the partition (7,000 rows).
    """
    X = np.asarray(X, dtype=float)
    target = np.asarray(target, dtype=float)
    presorted = rows is None and max_features is None
    if rows is None:
        rows = np.arange(len(X))
    if len(rows) == 0:
        raise TreeError("cannot grow a tree on zero rows")
    if criterion == "gini" and not np.isin(target, (0.0, 1.0)).all():
        raise TreeError("the gini criterion needs 0/1 targets")
    if leaf_value is None:
        leaf_value = lambda idx: float(np.mean(target[idx]))
    if max_features is not None and rng is None:
        raise TreeError("max_features requires an rng")
    if ranks is None:
        ranks = rank_codes(X)
    codes, values, order = ranks
    block = None
    if presorted:
        # the block keeps only the columns that vary over X (no other column
        # has a legal cut), each as one contiguous row of row ids in sorted order
        live = [f for f, distinct in enumerate(values) if len(distinct) > 1]
        block, offsets = order[live], np.array(live, dtype=int)[:, None] * codes.shape[1]

    feature, threshold, left, right, value, _ = table = [[] for _ in FIELDS]  # pre-order
    # nodes still to grow, as (rows, block, depth, the parent's child slot);
    # a left child is popped, and so grown with its subtree, before its sibling
    stack = [(np.asarray(rows, dtype=int), block, 0, None)]
    while stack:
        rows, block, depth, slot = stack.pop()
        index = len(feature)
        if slot is not None:
            slot[0][slot[1]] = index
        for column, blank in zip(table, (LEAF, np.nan, -1, -1, np.nan, len(rows))):
            column.append(blank)
        best = None
        if (depth < max_depth and len(rows) >= 2 * min_samples_leaf
                and np.ptp(target[rows]) > 0):
            if block is None:
                best = _best_split(ranks, target, rows, criterion, min_samples_leaf,
                                   max_features=max_features, rng=rng)
            else:  # a flat take of each live column's codes in its block order
                best = _best_cut(codes.take(block + offsets), target.take(block), live,
                                 values, criterion, min_samples_leaf)
        if best is None:
            value[index] = leaf_value(rows)
            continue
        _, f, thr = best
        feature[index], threshold[index] = f, thr
        if block is None:  # a node grown from its own rows partitions only them
            goes_left = X[rows, f] <= thr
            halves = (rows[goes_left], None, left), (rows[~goes_left], None, right)
        else:  # one block mask and its negation: a stable partition of every row
            side = X[:, f] <= thr
            mask = side.take(block)
            halves = ((rows[side[rows]], block[mask], left),
                      (rows[~side[rows]], block[~mask], right))
        for part, sub, children in halves[::-1]:
            stack.append((part, None if sub is None else sub.reshape(-1, len(part)),
                          depth + 1, (children, index)))
    return DecisionTree(*(np.array(column, dtype=dtype)
                          for column, dtype in zip(table, FIELDS.values())))
