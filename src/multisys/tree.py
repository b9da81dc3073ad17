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
column's dense rank codes and its sorted distinct values, computed once per
fit and shared by every tree.  A legal cut leaves at least min_samples_leaf
rows on each side and falls between distinct codes; each model kind has one
growth path, and only legal cuts are scored.  `grow_tree` is gradient
boosting's variance tree, grown on all rows and all features over the stable
order of each column's codes, which boosting adds to the presort: each node
lays the live columns out as rows of a 2-D block, each holding the node's
rank codes in sorted order, and `_best_cut` scores every legal cut of every
column from prefix sums, at most _CHUNK elements of the block at a time.
The block leaves out the columns constant over X, which have no legal cut,
and a split partitions it with one boolean mask and its negation, stably:
since the node's rows are an ascending subsequence of all rows, this is the
order a stable sort of the node's rows gives.  `grow_forest` (random forests)
grows every tree of a forest in lockstep, each on its bootstrap: step s grows
the s-th pre-order node of every tree that still has one, and `_gini_splits`
scores the step's drawn candidates in calls of at most _BUDGET elements.  A
call sorts one array of integer keys (segment, rank code, 0/1 target), so its
prefix counts of the target are exact and do not depend on the order within a
tie.  A threshold lies between adjacent distinct sorted feature values a < b
(`_threshold`), and ties among equal-quality splits resolve to the lowest
feature index, then the lowest threshold.  A row that appears more than once
in a bootstrap counts once per appearance.
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
_BUDGET = 1 << 15  # (segment, row) elements a batched Gini search scores at once
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


def rank_codes(X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The one presort of X: each column's dense rank codes, shape (p, n), and
    its sorted distinct values, so that `values[f][codes[f]]` is `X[:, f]`.
    The codes are int16 when twice the most distinct values of a column fits
    int16, so that every key `code << 1 | 1` does, and int32 otherwise."""
    uniques = [np.unique(column, return_inverse=True) for column in X.T]
    values = [distinct for distinct, _ in uniques]
    wide = 2 * max(map(len, values), default=0) > np.iinfo(np.int16).max
    codes = np.array([code for _, code in uniques], dtype=np.int32 if wide else np.int16)
    return codes.reshape(len(values), len(X)), values


def _threshold(a: float, b: float) -> float:
    """The threshold between adjacent distinct values a < b: their midpoint
    0.5 * a + 0.5 * b, which cannot overflow, or a where it rounds to b, so
    that a <= threshold < b."""
    mid = 0.5 * a + 0.5 * b
    return float(a if mid >= b else mid)


def _improves(score: float, f: int, best) -> bool:
    """Strictly better score, or an equal score on a lower feature index."""
    if best is None:
        return True
    if score < best[0] - 1e-12:
        return True
    return abs(score - best[0]) <= 1e-12 and f < best[1]


def _best_cut(ordered: np.ndarray, ts: np.ndarray, candidates, values: list[np.ndarray],
              min_samples_leaf: int):
    """`grow_tree`'s variance scoring: the best (score, feature, threshold) or None.

    Row j of `ordered` holds the node's rank codes of feature candidates[j] in
    ascending order, and row j of `ts` the residuals in that order.  Only
    legal cuts are scored: a cut after position c leaves min_samples_leaf
    rows, and at least one, on each side, and falls between distinct codes.
    Scores are the children's summed squared deviations, lower is better;
    ties resolve to the lowest feature index, then to the lowest c.  The
    threshold lies between the feature's values at the codes either side of
    the cut.  Features are scored a chunk of rows of the block at a time, at
    most _CHUNK elements (one feature at least), and each keeps its first best
    cut; one chain of `_improves` then runs over all features in order, since
    its tie tolerance is not transitive and chunk winners compared alone could
    pick another.
    """
    n = ts.shape[1]
    # left counts lo+1 .. hi
    lo = max(min_samples_leaf, 1) - 1
    hi = n - 1 - lo
    if hi <= lo:
        return None
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
    return score, f, _threshold(values[f][ordered[at, c]], values[f][ordered[at, c + 1]])


def _gini_cuts(tagged: np.ndarray, cbits: int, rows: np.ndarray, size: np.ndarray,
               feature: np.ndarray, min_samples_leaf: int):
    """One batched Gini search over segments: segment s is feature[s] on the
    next size[s] node rows of `rows`, and `tagged`, shape (p, n), holds each
    row's rank code, below 2 ** cbits, shifted left past its 0/1 target.

    One sort of integer keys (segment, rank code, target) orders every
    segment; prefix counts of the target, less each segment's start count,
    give exact counts, and the weighted gini 2 * s * (n - s) / n of each
    child scores the legal cuts only.  Per segment: whether its codes vary,
    whether it has a legal cut, the first minimum score (inf without a legal
    cut) and the codes either side of that cut.  The keys are int32 while the
    segment number, the code and the target fit 31 bits, and int64 past that.
    """
    first = np.cumsum(size, dtype=np.int32) - size
    keys = tagged.take(np.repeat(feature * tagged.shape[1], size) + rows)
    if (len(size) - 1).bit_length() + cbits + 1 > 31:
        keys = keys.astype(np.int64)
    keys += np.repeat(np.arange(len(size), dtype=keys.dtype) << cbits + 1, size)
    keys.sort()
    counts = np.cumsum(keys & 1, dtype=np.int32)
    last = first + size - 1
    before = counts[first] - (keys[first] & 1)
    keys >>= 1  # (segment, code)
    # a cut after position c falls between distinct codes; one between two
    # segments lies past the last legal cut of the first
    cut = np.flatnonzero(keys[1:] != keys[:-1]).astype(np.int32)
    owner = keys[cut] >> cbits
    pos = cut - first[owner]
    lo = max(min_samples_leaf, 1) - 1  # a cut after pos leaves pos + 1 rows on the left
    legal = (pos >= lo) & (pos < (size - 1 - lo)[owner])
    cut, owner, nl = cut[legal], owner[legal], (pos[legal] + 1).astype(float)
    ones = (counts[last] - before)[owner]
    sl = (counts[cut] - before[owner]).astype(float)
    del counts, pos  # the float arrays below are the kernel's largest
    # binary targets: weighted gini = 2 * s * (n - s) / n per child, the
    # right's added to the left's, each operation in place
    score = 2.0 * sl
    score *= nl - sl
    score /= nl
    nr, sr = np.subtract(size[owner], nl, out=nl), np.subtract(ones, sl, out=sl)
    right = 2.0 * sr
    right *= nr - sr
    right /= nr
    score += right
    best = np.full(len(size), np.inf)
    low, high = np.zeros((2, len(size)), dtype=keys.dtype)
    if len(cut):
        starts = np.ones(len(cut), dtype=bool)
        np.not_equal(owner[1:], owner[:-1], out=starts[1:])
        group = np.flatnonzero(starts)
        segments = owner[group]
        best[segments] = np.minimum.reduceat(score, group)
        hits = np.flatnonzero(score == best[owner])
        chosen = cut[hits[np.searchsorted(hits, group)]]  # each segment's first minimum
        mask = (1 << cbits) - 1
        low[segments], high[segments] = keys[chosen] & mask, keys[chosen + 1] & mask
    return keys[first] != keys[last], np.isfinite(best), best, low, high


def _gini_splits(tagged: np.ndarray, values: list[np.ndarray], nodes: Sequence[np.ndarray],
                 min_samples_leaf: int, max_features: int,
                 rngs: Sequence[SplitMix64]) -> list:
    """Best (score, feature, threshold), or None, of each node (an array of
    row ids, a repeated row counting once per appearance) under the gini
    criterion, with `_best_cut`'s tie rules.  `values` are
    `rank_codes(X)`'s sorted distinct values, and `tagged` its codes shifted
    left past the 0/1 target, `codes << 1 | target`, as int32.

    With `max_features` below the number of features p, node i draws its
    candidates without replacement from rngs[i], as many at a time as are
    still missing; a feature constant within the node does not count toward
    the quota and is redrawn, so a node only becomes a leaf when no drawn
    feature admits a legal cut.  Each round's draws of every node are scored
    together, in calls of at most _BUDGET (segment, row) elements (one
    segment at least), and `_improves` chains each node's candidates in draw
    order.
    """
    if not nodes:
        return []
    p = len(values)
    cbits = (max(map(len, values)) - 1).bit_length()
    if tagged.size > np.iinfo(np.int32).max:  # the int32 element indices
        raise TreeError("X has more than 2**31 - 1 cells")
    size = np.array([len(rows) for rows in nodes], dtype=np.int32)
    draw = max_features < p
    pools = [list(range(p)) for _ in nodes]
    kept = [0] * len(nodes)  # drawn features that vary within the node
    found: list = [None] * len(nodes)  # (score, feature, low code, high code)
    pending = range(len(nodes))
    while pending:
        owner, feature = [], []
        for i in pending:
            if draw:
                pool, rng = pools[i], rngs[i]
                drawn = [pool.pop(rng.randint_below(len(pool)))
                         for _ in range(min(max_features - kept[i], len(pool)))]
            else:
                drawn = range(p)
            owner += [i] * len(drawn)
            feature += drawn
        owner, feature = np.array(owner), np.array(feature, dtype=np.int32)
        ends = np.cumsum(size[owner], dtype=np.int64)
        start = 0
        while start < len(owner):  # one call per budget of elements
            stop = max(start + 1, int(np.searchsorted(
                ends, (ends[start - 1] if start else 0) + _BUDGET, side="right")))
            part = owner[start:stop].tolist()
            results = _gini_cuts(tagged, cbits, np.concatenate([nodes[i] for i in part]),
                                 size[part], feature[start:stop], min_samples_leaf)
            for i, f, varies, ok, score, low, high in zip(
                    part, feature[start:stop].tolist(),
                    *(column.tolist() for column in results)):
                kept[i] += varies
                if ok and _improves(score, f, found[i]):
                    found[i] = (score, f, low, high)
            start = stop
        pending = [i for i in pending if draw and pools[i] and kept[i] < max_features]
    return [None if best is None else
            (best[0], best[1], _threshold(values[best[1]][best[2]], values[best[1]][best[3]]))
            for best in found]


def grow_forest(X: np.ndarray, target: np.ndarray, rngs: Sequence[SplitMix64], *,
                max_depth: int, min_samples_leaf: int, max_features: int) -> list[DecisionTree]:
    """Grow one gini tree per stream of `rngs`, in lockstep.

    Every tree's bootstrap, n row ids drawn with replacement from its stream
    (`randints_below(n, n)`), is drawn first.  Tree t then grows on its
    bootstrap by greedy exact splitting, scoring `max_features` candidates
    per node drawn from rngs[t] (`_gini_splits`), and its leaves hold the
    mean of the 0/1 `target`.  Step s grows the s-th pre-order node of every
    tree that still has one, and scores all of them with one batched search,
    so each tree keeps its own pre-order and its own draws: the trees are
    those grown one at a time.  A step's nodes are kept as arrays, and each
    tree's nodes are gathered from them at the end.  The pending nodes' row
    ids are int32, so the stacks of all the trees hold at most trees * n of
    them.
    """
    X = np.asarray(X, dtype=float)
    if not np.isin(target, (0.0, 1.0)).all():
        raise TreeError("the gini criterion needs 0/1 targets")
    if not rngs:
        return []
    ybits = np.asarray(target).astype(np.int8)
    codes, values = rank_codes(X)  # one presort shared by every tree
    tagged = codes.astype(np.int32) << 1 | ybits
    # per tree, nodes still to grow as (rows, depth, link), where link is
    # 2 * the parent's place among all grown nodes + 1 for a left child, or -1;
    # a left child is popped, and so grown with its subtree, before its sibling
    stacks = [[(rng.randints_below(len(X), len(X)).astype(np.int32), 0, -1)] for rng in rngs]
    steps = []  # per step: the tree, link, feature, threshold, value and cover of its nodes
    grown = 0
    while step := [(t, *stack.pop()) for t, stack in enumerate(stacks) if stack]:
        tree, node_rows, depth, link = zip(*step)
        size = np.array([len(part) for part in node_rows], dtype=np.int32)
        ones = np.array([np.count_nonzero(ybits.take(part)) for part in node_rows])
        grows = np.flatnonzero((np.array(depth) < max_depth) & (size >= 2 * min_samples_leaf)
                               & (ones > 0) & (ones < size)).tolist()
        feature = np.full(len(step), LEAF, dtype=np.int32)
        threshold = np.full(len(step), np.nan)
        value = ones / size  # the mean of the 0/1 target, exactly rounded
        for j, best in zip(grows, _gini_splits(tagged, values, [node_rows[j] for j in grows],
                                               min_samples_leaf, max_features,
                                               [rngs[tree[j]] for j in grows])):
            if best is None:
                continue
            _, f, thr = best
            feature[j], threshold[j], value[j] = f, thr, np.nan
            goes_left = X[node_rows[j], f] <= thr
            stacks[tree[j]] += [(node_rows[j][~goes_left], depth[j] + 1, 2 * (grown + j)),
                                (node_rows[j][goes_left], depth[j] + 1, 2 * (grown + j) + 1)]
        steps.append((np.array(tree, dtype=np.int32), np.array(link), feature, threshold,
                      value, size))
        grown += len(step)
    # a node's id in its tree is its step
    index = np.repeat(np.arange(len(steps), dtype=np.int32), [len(s[0]) for s in steps])
    tree, link, feature, threshold, value, cover = map(np.concatenate, zip(*steps))
    del steps  # freed before the gather copies every node again
    kids = np.full((grown, 2), -1, dtype=np.int32)  # each node's (right, left) child ids
    child = np.flatnonzero(link >= 0)
    kids.ravel()[link[child]] = index[child]
    order = np.argsort(tree, kind="stable")
    ends = np.cumsum(np.bincount(tree, minlength=len(rngs)))[:-1]
    columns = (feature, threshold, kids[:, 1], kids[:, 0], value, cover)
    return [DecisionTree(*fields) for fields in zip(*(
        np.split(column[order], ends) for column in columns))]


def grow_tree(X: np.ndarray, residual: np.ndarray, *, max_depth: int, min_samples_leaf: int,
              leaf_value, ranks: tuple) -> DecisionTree:
    """Grow gradient boosting's regression tree on every row of the float
    array X and every feature by greedy exact splitting under the variance
    criterion: the float `residual` is the target.

    `leaf_value(row_indices) -> float` computes the leaf output.  `ranks` is
    the presort of X that every tree of a fit shares: `rank_codes(X)` and the
    stable order of each column's codes, `np.argsort(codes, axis=1,
    kind="stable")`.  Each node scores (`_best_cut`) its block: one row per
    column that varies over X, holding the node's row ids in sorted order, the
    stable partition of its parent's block.  A child that can only become a
    leaf, at max_depth or with fewer than 2 * min_samples_leaf rows, gets no
    block.
    """
    codes, values, order = ranks
    # the block keeps only the columns that vary over X (no other column has a
    # legal cut), each as one contiguous row of row ids in sorted order
    live = [f for f, distinct in enumerate(values) if len(distinct) > 1]
    block, offsets = order[live], np.array(live, dtype=int)[:, None] * codes.shape[1]

    feature, threshold, left, right, value, _ = table = [[] for _ in FIELDS]  # pre-order
    # nodes still to grow, as (rows, block, depth, the parent's child slot);
    # a left child is popped, and so grown with its subtree, before its sibling
    stack = [(np.arange(len(X)), block, 0, None)]
    while stack:
        rows, block, depth, slot = stack.pop()
        index = len(feature)
        if slot is not None:
            slot[0][slot[1]] = index
        for column, blank in zip(table, (LEAF, np.nan, -1, -1, np.nan, len(rows))):
            column.append(blank)
        best = None
        if (depth < max_depth and len(rows) >= 2 * min_samples_leaf
                and np.ptp(residual[rows]) > 0):
            # a flat take of each live column's codes in its block order
            best = _best_cut(codes.take(block + offsets), residual.take(block), live,
                             values, min_samples_leaf)
        if best is None:
            value[index] = leaf_value(rows)
            continue
        _, f, thr = best
        feature[index], threshold[index] = f, thr
        # one block mask and its negation: a stable partition of every row
        side = X[:, f] <= thr
        mask = None
        for part, goes_left, children in ((rows[~side[rows]], False, right),
                                          (rows[side[rows]], True, left)):
            sub = None  # a child that can only become a leaf takes its row ids alone
            if depth + 1 < max_depth and len(part) >= 2 * min_samples_leaf:
                if mask is None:
                    mask = side.take(block)
                sub = block[mask if goes_left else ~mask].reshape(-1, len(part))
            stack.append((part, sub, depth + 1, (children, index)))
    return DecisionTree(*(np.array(column, dtype=dtype)
                          for column, dtype in zip(table, FIELDS.values())))
