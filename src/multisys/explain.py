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
level, over their flattened node table (`tree.flatten`).  A row's arithmetic
depends only on the 0/1 one fractions on its path, so path weights are held
per unit (a node and one such history) and each row holds its unit at each
node.  One unwinding recurrence, in the scalar algorithm's operation order,
unwinds repeated features and sums at leaves; each row adds its leaves'
contributions, in the model's feature columns, in its own hot-first order
from +0.0, tree by tree, so phi is bit-identical to explaining rows one by
one.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .base import MultisysError, check_X
from .models import TreeEnsemble
from .tree import LEAF, DecisionTree, flatten

_BUDGET = 28_000  # rows x the chunk's leaves in a walk's per-row arrays
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
# ids, path features, path zero fractions; unit fields (U, ...): one fractions,
# path weights, the unit's node; row fields (N, n): each row's unit and rank
# (leaves it visits before the subtree).  Paths are right-aligned: a
# length-L path fills the last L columns, from the root's dummy (feature -1);
# the padding before it has feature -2 and path weight +0.0, so it adds +0.0
# when a path is extended or unwound.
_Group = namedtuple("_Group", "node feat zero one pw unode unit rank")


def _last(g: _Group) -> np.ndarray:
    """(U, 1) index of each unit's last path element."""
    return np.count_nonzero(g.feat > -2, axis=1)[g.unode, None] - 1


def _select(g: _Group, keep: np.ndarray) -> _Group:
    """g's nodes where keep holds, with their units renumbered."""
    if keep.all():
        return g
    ukeep = keep[g.unode]
    return _Group(g.node[keep], g.feat[keep], g.zero[keep], g.one[ukeep], g.pw[ukeep],
                  (np.cumsum(keep) - 1)[g.unode[ukeep]],
                  (np.cumsum(ukeep, dtype=np.int32) - 1)[g.unit[keep]], g.rank[keep])


def _unwound(pw: np.ndarray, last: np.ndarray, one: np.ndarray, zero: np.ndarray):
    """The scalar unwinding recurrence: for c = 0, 1, ..., the weight of the
    path element last - 1 - c (column -2 - c of pw) once the element with
    fractions one and zero is unwound.  Past the path it takes the cold step
    over +0.0 padding, which yields +0.0."""
    hot = one != 0.0
    carry = pw[..., -1]
    for c in range(pw.shape[-1] - 1):
        tmp = carry * (last + 1) / ((last - c) * one)
        carry = pw[..., -2 - c] - tmp * zero * (c + 1) / (last + 1)
        yield np.where(hot & (c < last), tmp, pw[..., -2 - c] * (last + 1) / (zero * (c + 1)))


def _unwind(g: _Group, f: np.ndarray) -> tuple[_Group, np.ndarray, np.ndarray]:
    """g with the element of feature f[node] unwound from each path holding
    one, and that element's zero (per node) and one (per unit) fractions,
    1.0 where there is none."""
    hit = g.feat == f[:, None]
    repeated = hit.any(axis=1)
    if not repeated.any():
        return g, np.ones(len(g.node)), np.ones(len(g.one))
    found = hit.argmax(axis=1)
    one = g.one[np.arange(len(g.one)), found[g.unode]]
    incoming_zero = np.where(repeated, g.zero[np.arange(len(g.node)), found], 1.0)
    pw = np.zeros(g.pw.shape)  # column 0 becomes padding
    for c, weight in enumerate(_unwound(g.pw, _last(g)[:, 0], one, incoming_zero[g.unode])):
        pw[:, -1 - c] = weight
    cols = np.arange(g.feat.shape[1])
    source = cols - (repeated[:, None] & (cols <= found[:, None]))  # -1 wraps to padding
    feat = np.take_along_axis(g.feat, source, axis=1)
    feat[repeated, 0] = -2
    unwound = repeated[g.unode]
    return (g._replace(feat=feat, zero=np.take_along_axis(g.zero, source, axis=1),
                       one=np.take_along_axis(g.one, source[g.unode], axis=1),
                       pw=np.where(unwound[:, None], pw, g.pw)),
            incoming_zero, np.where(unwound, one, 1.0))


def _children(t: SimpleNamespace, g: _Group, incoming_zero: np.ndarray,
              incoming_one: np.ndarray, XT: np.ndarray) -> _Group:
    """The children of g's nodes, left ones first, their paths extended.  A
    child's units are the distinct (parent unit, nonzero one fraction) pairs
    of its rows."""
    (n_nodes, width), n_units = g.feat.shape, len(g.one)
    f, left, right = t.feature[g.node], t.left[g.node], t.right[g.node]
    goes_left = XT[f] <= t.threshold[g.node][:, None]
    carries = (incoming_one != 0.0)[g.unit]
    key = 2 * np.concatenate([g.unit, g.unit + n_units])
    key += np.concatenate([goes_left & carries, carries & ~goes_left])
    seen = np.zeros(4 * n_units, dtype=bool)
    seen[key] = True
    kept = np.flatnonzero(seen)
    parent = (kept >> 1) % n_units
    unode = g.unode[parent] + n_nodes * (kept >= 2 * n_units)
    one = np.where(kept & 1, incoming_one[parent], 0.0)
    children = np.concatenate([left, right])
    zero = np.tile(incoming_zero, 2) * t.cover[children] / np.tile(t.cover[g.node], 2)
    rank = np.concatenate([g.rank + np.where(goes_left, 0, t.leaves[right, None]),
                           g.rank + np.where(goes_left, t.leaves[left, None], 0)])
    # element k of a length-m path is in column width - m + k, of width + 1 after
    pweights, m = g.pw[parent], _last(g)[parent] + 1
    cols = np.arange(width, dtype=float)
    pw = np.zeros((len(kept), width + 1))
    pw[:, :width] = zero[unode, None] * pweights * (width - cols) / (m + 1)
    pw[:, 1:] += one[:, None] * pweights * (cols + 1 - (width - m)) / (m + 1)
    feat = np.column_stack([g.feat, f])
    return _Group(children, np.concatenate([feat, feat]),
                  np.column_stack([np.tile(g.zero, (2, 1)), zero]),
                  np.column_stack([g.one[parent], one]), pw, unode,
                  (np.cumsum(seen, dtype=np.int32) - 1)[key], rank)


def _leaf_contributions(g: _Group, value: np.ndarray) -> np.ndarray:
    """(U, width - 1) contribution of the path element in each column but the
    first, at leaves of these values; columns off the path hold garbage."""
    one, zero = g.one[:, 1:], g.zero[g.unode, 1:]  # each element's, along the last axis
    total = sum(_unwound(g.pw[:, None, :], _last(g), one, zero), np.zeros(one.shape))
    return total * (one - zero) * value[g.unode, None]


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # unselected branches
def _add_shap(trees: Sequence[DecisionTree], XT: np.ndarray, phi: np.ndarray,
              scale: float) -> None:
    """Add scale times each tree's Shapley values on the rows of XT (p, n) to
    phi (n, p), tree by tree."""
    p, n = XT.shape
    t = flatten(trees)
    # order[first[tree] + s, row]: the leaf unit the row meets at rank s in the
    # tree, whose leaves are packed end to end; unit 0 adds nothing
    first = np.cumsum(t.leaves[t.root]) - t.leaves[t.root]
    order = np.zeros((int(t.leaves[t.root].sum()), n), dtype=np.int32)
    parts = []  # (first unit, contributions, each unit's leaf, each leaf's features)
    n_units, k = 1, len(trees)
    g = _Group(t.root, np.full((k, 1), -1), np.ones((k, 1)), np.ones((k, 1)), np.ones((k, 1)),
               np.arange(k), np.repeat(np.arange(k, dtype=np.int32)[:, None], n, axis=1),
               np.zeros((k, n), dtype=np.int32))
    while len(g.node):
        is_leaf = t.feature[g.node] == LEAF
        if is_leaf.any() and g.feat.shape[1] > 1:  # a root leaf adds nothing
            leaf = _select(g, is_leaf)
            order[first[t.tree[leaf.node], None] + leaf.rank, np.arange(n)] = leaf.unit + n_units
            parts.append((n_units, _leaf_contributions(leaf, t.value[leaf.node]), leaf.unode,
                          leaf.feat[:, 1:]))
            n_units += len(leaf.one)
            del leaf  # its rows go before the next level's are made
        g = _select(g, ~is_leaf)
        if len(g.node):
            g = _children(t, *_unwind(g, t.feature[g.node]), XT)
    # Each row adds its leaves' contributions in its own hot-first order, rank
    # by rank from +0.0; a leaf adds +0.0 to the features off its path.  The
    # spare column p takes the padding's and the root dummy's (-2, -1).
    contrib = np.zeros((n_units, p + 1))
    while parts:
        start, values, unode, feat = parts.pop()
        units = np.arange(start, start + len(values))[:, None]
        contrib[units, np.maximum(feat, -1)[unode]] = values
    for start, count in zip(first, t.leaves[t.root]):
        total = np.zeros((n, p + 1))
        for units in order[start:start + count]:
            total += contrib[units]
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
    leaves = [int(np.count_nonzero(tree.feature == LEAF)) for tree in ensemble.trees]
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
    phi = np.zeros((n, p))
    for start in range(0, n, block):
        XT = np.ascontiguousarray(X[start:start + block].T)
        for first, end in zip(cuts, cuts[1:]):
            _add_shap(ensemble.trees[first:end], XT, phi[start:start + block], scale)
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
                    feature_names: Sequence[str] = ()) -> list[dict]:
    """Long-format records (row, feature, shap, value, rank) for replotting."""
    X = check_X(X)
    if X.shape != attribution.phi.shape:
        raise ExplainError(
            f"feature values {X.shape} do not match attributions {attribution.phi.shape}"
        )
    ranking = global_importance(attribution, feature_names)
    rank_of = {name: r + 1 for r, (name, _) in enumerate(ranking)}
    return [{"row": i, "feature": name, "shap": float(attribution.phi[i, j]),
             "value": float(X[i, j]), "rank": rank_of[name]}
            for i in range(X.shape[0]) for j, name in enumerate(feature_names)]


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
