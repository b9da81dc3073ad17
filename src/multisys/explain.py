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

Rows are explained in blocks and trees in chunks of consecutive trees,
packed by each tree's own leaf count so that a walk holds at most _BUDGET
rows x the chunk's leaves, and a chunk's trees are walked together, level by
level, over the ensemble's one flattened node table (`TreeEnsemble.table`).
A row's arithmetic depends only on the 0/1 one fractions on its path, so path
weights are held per unit (a node and one such history) and each row holds
its unit at each node.  One unwinding recurrence, in the scalar algorithm's
operation order, unwinds repeated features and sums at leaves; each row adds
its leaves' contributions, in the model's feature columns, in its own
hot-first order from +0.0, tree by tree, so phi is bit-identical to
explaining rows one by one.  A leaf of value 0.0 adds +-0.0, which leaves a
sum from +0.0 unchanged, so the walk leaves such leaves out.  Temporaries
over units or rows are made a slice at a time, about _BUDGET / _SHARE
elements each.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .base import MultisysError, check_X
from .models import TreeEnsemble
from .tree import LEAF

_BUDGET = 56_000  # rows x the chunk's leaves in a walk's per-row arrays
_SHARE = 16  # a slice's temporaries hold about _BUDGET / _SHARE elements each
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


# The nodes at one depth of some trees, with their units.  Node fields (N, ...):
# ids, path features, path zero fractions; unit fields (U, ...): one fractions
# (each 1.0 or 0.0, held as bool), path weights, the unit's node; row fields
# (N, n), int32 like the node fields in `tree.FIELDS`: each row's unit and rank
# (the row of `order` of the first leaf it visits in the subtree).  Paths are
# right-aligned: a length-L path fills the last L columns, from the root's
# dummy (feature -1); the padding before it has feature -2 and path weight
# +0.0, so it adds +0.0 when a path is extended or unwound.
_Group = namedtuple("_Group", "node feat zero one pw unode unit rank")


def _slices(count: int, width: int):
    """range(count) in consecutive slices of about _BUDGET / _SHARE / width
    items (one at least), each item width elements wide."""
    step = max(1, _BUDGET // (_SHARE * width))
    return (slice(start, start + step) for start in range(0, count, step))


def _last(g: _Group) -> np.ndarray:
    """(U, 1) index of each unit's last path element, as a float, so that the
    arithmetic on it casts nothing (its values are small whole numbers)."""
    return np.count_nonzero(g.feat > -2, axis=1)[g.unode, None] - 1.0


def _select(g: _Group, keep: np.ndarray) -> _Group:
    """g's nodes where keep holds, with their units renumbered."""
    if keep.all():
        return g
    ukeep = keep[g.unode]
    return _Group(g.node[keep], g.feat[keep], g.zero[keep], g.one[ukeep], g.pw[ukeep],
                  (np.cumsum(keep) - 1)[g.unode[ukeep]],
                  (np.cumsum(ukeep, dtype=np.int32) - 1)[g.unit[keep]], g.rank[keep])


def _unwound(pw: np.ndarray, last: np.ndarray, hot: np.ndarray, zero: np.ndarray):
    """The scalar unwinding recurrence: for c = 0, 1, ..., the weight of the
    path element last - 1 - c (column -2 - c of pw) once the element with
    zero fraction zero and one fraction 1.0 where hot (else 0.0) is unwound.
    Past the path it takes the cold step over +0.0 padding, which yields
    +0.0."""
    carry, length = pw[..., -1], last + 1
    for c in range(pw.shape[-1] - 1):
        # the scalar step divides by (last - c) * one, and one is 1.0 where hot
        tmp = carry * length / (last - c)
        carry = pw[..., -2 - c] - tmp * zero * (c + 1) / length
        yield np.where(hot & (c < last), tmp, pw[..., -2 - c] * length / (zero * (c + 1)))


def _unwind(g: _Group, f: np.ndarray) -> tuple[_Group, np.ndarray, np.ndarray]:
    """g with the element of feature f[node] unwound from each path holding
    one, and that element's zero (per node) and one (per unit, as bool)
    fractions, 1.0 where there is none."""
    hit = g.feat == f[:, None]
    repeated = hit.any(axis=1)
    if not repeated.any():
        return g, np.ones(len(g.node)), np.ones(len(g.one), dtype=bool)
    found = hit.argmax(axis=1)
    one = g.one[np.arange(len(g.one)), found[g.unode]]
    incoming_zero = np.where(repeated, g.zero[np.arange(len(g.node)), found], 1.0)
    unwound = repeated[g.unode]
    units = np.flatnonzero(unwound)
    weights = np.zeros((len(units), g.pw.shape[1]))  # column 0 becomes padding
    for c, weight in enumerate(_unwound(g.pw[units], _last(g)[units, 0], one[units],
                                        incoming_zero[g.unode[units]])):
        weights[:, -1 - c] = weight
    pw = g.pw.copy()
    pw[units] = weights
    cols = np.arange(g.feat.shape[1])
    source = cols - (repeated[:, None] & (cols <= found[:, None]))  # -1 wraps to padding
    feat = np.take_along_axis(g.feat, source, axis=1)
    feat[repeated, 0] = -2
    return (g._replace(feat=feat, zero=np.take_along_axis(g.zero, source, axis=1),
                       one=np.take_along_axis(g.one, source[g.unode], axis=1), pw=pw),
            incoming_zero, one | ~unwound)


def _children(t: SimpleNamespace, g: _Group, incoming_zero: np.ndarray,
              incoming_one: np.ndarray, XT: np.ndarray) -> _Group:
    """The children of g's nodes, left ones first, their paths extended.  A
    child's units are the distinct (parent unit, nonzero one fraction) pairs
    of its rows.  The row fields are built in place, one (2N, n) array each."""
    (n_nodes, width), (n_units, n) = g.feat.shape, (len(g.one), XT.shape[1])
    f, left, right = t.feature[g.node], t.left[g.node], t.right[g.node]
    goes_left, threshold = np.empty((n_nodes, n), dtype=bool), t.threshold[g.node]
    for nodes in _slices(n_nodes, n):
        np.less_equal(XT[f[nodes]], threshold[nodes, None], out=goes_left[nodes])
    carries = incoming_one[g.unit]
    # key: 2 x (the parent unit, + n_units in a right child) + 1 where the
    # row carries a nonzero one fraction into the child; it becomes the unit
    unit = np.empty((2 * n_nodes, n), dtype=np.int32)
    lower, upper = unit[:n_nodes], unit[n_nodes:]
    np.multiply(g.unit, 2, out=lower)
    np.add(lower, 2 * n_units, out=upper)
    lower += goes_left & carries
    upper += carries > goes_left
    del carries
    seen = np.zeros(4 * n_units, dtype=bool)
    seen[unit] = True
    kept = np.flatnonzero(seen)
    renumber = np.cumsum(seen, dtype=np.int32) - 1
    for half in (lower, upper):
        half[...] = renumber[half]
    # a child comes after its sibling's leaves where the row takes the sibling
    rank = np.empty((2 * n_nodes, n), dtype=np.int32)
    np.multiply(goes_left, t.leaves[right, None], out=rank[:n_nodes])
    np.subtract(t.leaves[right, None], rank[:n_nodes], out=rank[:n_nodes])
    np.multiply(goes_left, t.leaves[left, None], out=rank[n_nodes:])
    del goes_left
    rank[:n_nodes] += g.rank
    rank[n_nodes:] += g.rank
    parent = (kept >> 1) % n_units
    unode = g.unode[parent] + n_nodes * (kept >= 2 * n_units)
    one = (kept & 1).astype(float)  # bool once the paths are extended
    children = np.concatenate([left, right])
    zero = (incoming_zero * t.cover[children].reshape(2, -1) / t.cover[g.node]).ravel()
    # element k of a length-m path is in column width - m + k, of width + 1
    # after; the units' paths are extended a slice at a time
    last, cols = _last(g), np.arange(width, dtype=float)
    pw = np.zeros((len(kept), width + 1))
    for units in _slices(len(kept), width):
        pweights, m = g.pw[parent[units]], last[parent[units]] + 1
        pw[units, :width] = zero[unode[units], None] * pweights * (width - cols) / (m + 1)
        pw[units, 1:] += one[units, None] * pweights * (cols + 1 - (width - m)) / (m + 1)
    feat = np.column_stack([g.feat, f])
    return _Group(children, np.concatenate([feat, feat]),
                  np.column_stack([np.concatenate([g.zero, g.zero]), zero]),
                  np.column_stack([g.one[parent], one != 0.0]), pw, unode, unit, rank)


def _leaf_contributions(g: _Group, units: np.ndarray, value: np.ndarray) -> np.ndarray:
    """(len(units), width - 1) contribution of the path element in each
    column but the first, for g's units `units` at leaves of the values
    `value` (one per node of g); columns off the path hold garbage.  The
    units are unwound a slice at a time."""
    hot, zero, last = g.one[:, 1:], g.zero[:, 1:], _last(g)  # elements along the last axis
    out = np.empty((len(units), hot.shape[1]))
    for rows in _slices(len(units), hot.shape[1]):
        unit = units[rows]
        node = g.unode[unit]
        z = zero[node]
        total = sum(_unwound(g.pw[unit, None, :], last[unit], hot[unit], z), np.zeros(z.shape))
        out[rows] = total * (hot[unit] - z) * value[node, None]
    return out


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # unselected branches
def _add_shap(t: SimpleNamespace, trees: range, XT: np.ndarray, phi: np.ndarray,
              scale: float) -> None:
    """Add scale times the Shapley values of the trees in range trees of the
    node table t on the rows of XT (p, n) to phi (n, p), tree by tree."""
    p, n = XT.shape
    roots = t.root[trees.start:trees.stop]
    counts = t.leaves[roots]
    # order[first[tree] + s, row]: the leaf unit the row meets at rank s in the
    # tree, numbered within the tree from 1 (at most its leaves x rows), whose
    # leaves are packed end to end; unit 0 adds nothing
    first = np.cumsum(counts, dtype=np.int32) - counts
    order = np.zeros((int(counts.sum()), n), dtype=np.int32)
    columns, k = np.arange(n), len(roots)
    units = np.zeros(k, dtype=np.int32)  # each tree's leaf units so far
    # per level with leaves, its leaf units grouped by tree: their
    # contributions and leaves, the leaves' features, and each tree's count
    # and first place in the group
    parts = []
    g = _Group(roots, np.full((k, 1), -1), np.ones((k, 1)), np.ones((k, 1), dtype=bool),
               np.ones((k, 1)), np.arange(k),
               np.repeat(np.arange(k, dtype=np.int32)[:, None], n, axis=1),
               np.repeat(first[:, None], n, axis=1))
    while len(g.node):
        is_leaf = t.feature[g.node] == LEAF
        # a 0.0 leaf adds +-0.0 on its path, and a row's total, which starts at
        # +0.0, never becomes -0.0, so the row meets unit 0 there instead
        live = is_leaf & (t.value[g.node] != 0.0)
        if live.any() and g.feat.shape[1] > 1:  # a root leaf adds nothing
            leaf_units = np.flatnonzero(live[g.unode])
            tree = np.searchsorted(roots, g.node, side="right")[g.unode[leaf_units]] - 1
            by_tree = np.argsort(tree, kind="stable")
            leaf_units, tree = leaf_units[by_tree], tree[by_tree]
            count = np.bincount(tree, minlength=k)
            offset = np.cumsum(count) - count
            unit = np.zeros(len(g.one), dtype=np.int32)  # numbered within the tree
            unit[leaf_units] = np.arange(1, len(tree) + 1) + (units - offset)[tree]
            at = np.flatnonzero(live)
            for nodes in _slices(len(at), n):
                order[g.rank[at[nodes]], columns] = unit[g.unit[at[nodes]]]
            feat = g.feat[:, 1:]  # the spare column p takes padding and the root dummy
            parts.append((_leaf_contributions(g, leaf_units, t.value[g.node]),
                          g.unode[leaf_units], np.where(feat < 0, p, feat), count, offset))
            units += count
            del unit
        g = _select(g, ~is_leaf)
        if len(g.node):
            g = _children(t, *_unwind(g, t.feature[g.node]), XT)
    # Each row adds its leaves' contributions in its own hot-first order, rank
    # by rank from +0.0, tree by tree, from a table of the tree's units whose
    # row 0 adds +0.0 and whose others add +0.0 off the leaf's path.
    for j, (start, leaves) in enumerate(zip(first, counts)):
        if not units[j]:
            continue
        table, row = np.zeros((units[j] + 1, p + 1)), 1
        for values, node, feature, count, offset in parts:
            if count[j]:
                rows = slice(offset[j], offset[j] + count[j])
                table[np.arange(row, row + count[j])[:, None], feature[node[rows]]] = values[rows]
                row += count[j]
        total = np.zeros((n, p + 1))
        for leaf_units in order[start:start + leaves].astype(np.intp):  # take's own type
            total += table.take(leaf_units, axis=0)
        phi += scale * total[:, :p]


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
    if not ensemble.trees:  # boosting's base score alone: nothing to attribute
        return ShapAttribution(phi, ensemble.expected_output())
    t = ensemble.table
    leaves = t.leaves[t.root].tolist()
    block = max(1, min(n, _BUDGET // max(leaves)))
    # chunks of consecutive trees, each as many as keep block x their leaves
    # within the budget (one tree at least)
    cuts, room = [0], _BUDGET // block
    for k, count in enumerate(leaves):
        if k > cuts[-1] and count > room:
            cuts.append(k)
            room = _BUDGET // block
        room -= count
    cuts.append(len(leaves))
    for start in range(0, n, block):
        XT = np.ascontiguousarray(X[start:start + block].T)
        for first, end in zip(cuts, cuts[1:]):
            _add_shap(t, range(first, end), XT, phi[start:start + block], scale)
    return ShapAttribution(phi, ensemble.expected_output())


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
                    feature_names: Sequence[str] = ()) -> dict:
    """Long-format columns row, feature, shap, value and rank for replotting,
    one entry per (row, feature), row by row: arrays, and a list of names."""
    X = check_X(X)
    if X.shape != attribution.phi.shape:
        raise ExplainError(
            f"feature values {X.shape} do not match attributions {attribution.phi.shape}"
        )
    ranking = global_importance(attribution, feature_names)
    rank_of = {name: r + 1 for r, (name, _) in enumerate(ranking)}
    n, p = X.shape
    return {"row": np.repeat(np.arange(n), p), "feature": list(feature_names) * n,
            "shap": attribution.phi.ravel(), "value": X.ravel(),
            "rank": np.tile([rank_of[name] for name in feature_names], n)}


def pdp_grid(column) -> np.ndarray:
    """The distinct values of PDP_GRID_SIZE equally spaced quantiles of a training
    column from its 2.5th to its 97.5th percentile; a curve needs two or more."""
    return np.unique(np.quantile(column, np.linspace(0.025, 0.975, PDP_GRID_SIZE)))


def partial_dependence(model, X_train, feature: int) -> PdpCurve:
    """Model response as one feature sweeps its `pdp_grid`; all other
    features sit at their training means."""
    X_train = check_X(X_train)
    if not 0 <= feature < X_train.shape[1]:
        raise ExplainError(f"feature {feature} is outside 0..{X_train.shape[1] - 1}")
    grid = pdp_grid(X_train[:, feature])
    if len(grid) < 2:
        raise ExplainError(f"feature {feature} is (near-)constant; PDP grid degenerate")
    profile = np.tile(X_train.mean(axis=0), (len(grid), 1))
    profile[:, feature] = grid
    return PdpCurve(feature, grid, np.asarray(model.predict_proba(profile), dtype=float))
