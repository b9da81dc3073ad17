"""Decision tree growth, prediction and serialization."""

import copy
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import mean_tree

from multisys import tree as tree_mod
from multisys.models import GradientBoostingClassifier, RandomForestClassifier, TreeEnsemble
from multisys.rng import SplitMix64
from multisys.tree import (FIELDS, LEAF, DecisionTree, TreeError, _best_cut, _gini_splits,
                           _improves, _threshold, expectations, flatten, grow_forest,
                           rank_codes, walk)


def _gini_cut(ordered, ones, candidates, values, min_samples_leaf):
    """The per-node gini scoring that the batched `_gini_splits` replaced,
    kept as its oracle: `_best_cut` with each child scored by the weighted
    gini 2 * s * (n - s) / n of its prefix count s of the 0/1 targets
    `ones`, the formula `_gini_cuts` reproduces bit for bit."""
    n = ones.shape[1]
    lo = max(min_samples_leaf, 1) - 1  # left counts lo+1 .. hi
    hi = n - 1 - lo
    if hi <= lo:
        return None
    nl = np.arange(lo + 1, hi + 1, dtype=float)
    nr = n - nl
    csum = np.cumsum(ones, axis=1, dtype=float)
    sl = csum[:, lo:hi]
    sr = csum[:, -1:] - sl
    valid = ordered[:, lo + 1:hi + 1] > ordered[:, lo:hi]
    scores = np.where(valid, 2.0 * sl * (nl - sl) / nl + 2.0 * sr * (nr - sr) / nr, np.inf)
    best = None
    for j, f in enumerate(candidates):
        c = int(np.argmin(scores[j]))  # first, i.e. lowest threshold, on ties
        if valid[j, c] and _improves(scores[j, c], f, best):
            best, at = (float(scores[j, c]), f), lo + c
            low, high = ordered[j, at], ordered[j, at + 1]
    return None if best is None else (*best, _threshold(values[best[1]][low],
                                                        values[best[1]][high]))


def _split_per_node(ranks, target, rows, criterion, min_samples_leaf, max_features=None,
                    rng=None, stats=None):
    """The per-node split search that lockstep growth replaced, kept as its
    oracle: one node's best (score, feature, threshold), or None, from the
    sorted keys of its rows' rank codes, scored by `_gini_cut` or, for the
    variance criterion, `_best_cut`.  With
    `max_features` set, candidates are drawn without replacement from `rng`,
    as many at a time as are still missing; a feature constant within the
    node does not count toward the quota and is redrawn (counted in
    stats["redrawn"])."""
    codes, values = ranks
    if criterion == "gini":  # the 0/1 target is the tag
        shift, tag = 1, target[rows].astype(codes.dtype)
    else:  # the row's position in the node is the tag, and fetches its target
        shift, tag = len(rows).bit_length(), np.arange(len(rows))

    def sorted_keys(features):
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
            if stats is not None:
                stats["redrawn"] += int(np.count_nonzero(~varies))
        keys = np.concatenate(blocks)
    ordered, low = keys >> shift, keys & ((1 << shift) - 1)
    if criterion == "gini":
        return _gini_cut(ordered, low, candidates, values, min_samples_leaf)
    return _best_cut(ordered, target[rows].take(low), candidates, values, min_samples_leaf)


def _grow_per_node(X, target, rows, *, criterion, max_depth, min_samples_leaf,
                   max_features=None, rng=None, stats=None):
    """One tree grown node by node on `rows` (repeats count once per
    appearance), each node sorting its own rows' codes (`_split_per_node`)
    and partitioning only them, with mean leaves: the growth that the
    lockstep forest and the presorted `grow_tree` replaced, kept as the
    oracle of both.  `stats` counts the nodes with exactly 2 *
    min_samples_leaf rows ("edge"), and the leaves left unsplit for too few
    rows ("small") or one class ("pure")."""
    ranks = rank_codes(X)
    feature, threshold, left, right, value, _ = table = [[] for _ in FIELDS]
    stats = Counter() if stats is None else stats
    stack = [(np.asarray(rows, dtype=int), 0, None)]
    while stack:
        rows, depth, slot = stack.pop()
        index = len(feature)
        if slot is not None:
            slot[0][slot[1]] = index
        for column, blank in zip(table, (LEAF, np.nan, -1, -1, np.nan, len(rows))):
            column.append(blank)
        best = None
        stats["edge"] += len(rows) == 2 * min_samples_leaf
        if len(rows) < 2 * min_samples_leaf:
            stats["small"] += 1
        elif np.ptp(target[rows]) == 0:
            stats["pure"] += 1
        elif depth < max_depth:
            best = _split_per_node(ranks, target, rows, criterion, min_samples_leaf,
                                   max_features, rng, stats)
        if best is None:
            value[index] = float(np.mean(target[rows]))
            continue
        _, f, thr = best
        feature[index], threshold[index] = f, thr
        goes_left = X[rows, f] <= thr
        stack.append((rows[~goes_left], depth + 1, (right, index)))
        stack.append((rows[goes_left], depth + 1, (left, index)))
    return DecisionTree(*(np.array(column, dtype=dtype)
                          for column, dtype in zip(table, FIELDS.values())))


def _tagged(X, y):
    """`rank_codes(X)`'s sorted values, and its codes shifted left past the
    0/1 target y, as `_gini_splits` takes them."""
    codes, values = rank_codes(X)
    return codes.astype(np.int32) << 1 | np.asarray(y).astype(np.int32), values


def _gini_weighted(y):
    y = np.asarray(y, dtype=float)
    n = len(y)
    s = y.sum()
    return 2.0 * s * (n - s) / n


def _variance_weighted(y):
    y = np.asarray(y, dtype=float)
    return float(np.sum((y - y.mean()) ** 2))


IMPURITY = {"gini": _gini_weighted, "variance": _variance_weighted}


def _brute_force_best(X, y, min_leaf, impurity):
    """Exhaustive split search oracle over all features and midpoints."""
    best = None
    for f in range(X.shape[1]):
        vals = np.unique(X[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = (a + b) / 2
            left = X[:, f] <= thr
            if left.sum() < min_leaf or (~left).sum() < min_leaf:
                continue
            score = impurity(y[left]) + impurity(y[~left])
            key = (score, f, thr)
            if best is None or key < best:
                best = key
    return best


@pytest.mark.parametrize("criterion", ["gini", "variance"])
def test_best_split_matches_brute_force(criterion):
    rng = SplitMix64(0)
    no_cut = 0
    for trial in range(30):
        n = 20 + rng.randint_below(30)
        p = 1 + rng.randint_below(4)
        X = np.array([[rng.random() for _ in range(p)] for _ in range(n)])
        if criterion == "gini":
            y = np.array([float(rng.randint_below(2)) for _ in range(n)])
        else:
            y = np.array([rng.random() - 0.5 for _ in range(n)])
        # All rows once, and bootstrap samples whose repeated rows count once
        # per appearance.
        nodes = [np.arange(n)] + [np.array([rng.randint_below(n) for _ in range(n)])
                                  for _ in range(3)]
        nodes = [rows for rows in nodes if len(np.unique(y[rows])) > 1]
        # 0 acts as 1; n // 2 + 1 and n leave no legal cut at all.
        for min_leaf in (0, 1, 2, 1 + rng.randint_below(n // 2), n // 2 + 1, n):
            if criterion == "gini":  # every node in one batched search
                found = _gini_splits(*_tagged(X, y), nodes, min_leaf, p, [])
            else:  # one node at a time, through _best_cut
                found = [_split_per_node(rank_codes(X), y, rows, criterion, min_leaf)
                         for rows in nodes]
            for rows, best in zip(nodes, found):
                oracle = _brute_force_best(X[rows], y[rows], min_leaf, IMPURITY[criterion])
                # On all rows boosting's growth scores the presorted block instead.
                grown = criterion == "variance" and rows is nodes[0] and len(rows) == n
                root = mean_tree(X, y, max_depth=1, min_samples_leaf=min_leaf) if grown else None
                if oracle is None:
                    assert best is None
                    assert root is None or root.n_nodes == 1
                    no_cut += 1
                    continue
                score, f, thr = best
                assert score == pytest.approx(oracle[0], abs=1e-9)
                assert (f, thr) == (oracle[1], pytest.approx(oracle[2]))
                if root is not None:
                    assert (root.feature[0], root.threshold[0]) == (oracle[1],
                                                                    pytest.approx(oracle[2]))
    assert no_cut >= 120


def test_presorted_growth_equals_node_local_sorting():
    # Integer features with few levels make many ties, so the stable order
    # among equal values decides every prefix sum.
    rng = SplitMix64(8)
    deep = wide_leaves = all_dead = 0
    for trial in range(120):
        n = 2 + rng.randint_below(60)
        p = 1 + rng.randint_below(5)
        X = np.array([[float(rng.randint_below(1 + trial % 6)) for _ in range(p)]
                      for _ in range(n)])
        if trial % 2:  # real residuals, and 0/1 targets on every other trial
            y = np.array([float(rng.randint_below(5)) - rng.random() for _ in range(n)])
        else:
            y = np.array([float(rng.randint_below(2)) for _ in range(n)])
        # small leaves on two trials in three, up to above n / 2 on the third
        min_leaf = 1 + rng.randint_below(4 if trial % 3 else n // 2 + 2)
        kwargs = dict(max_depth=1 + trial % 6, min_samples_leaf=min_leaf)
        presorted = mean_tree(X, y, **kwargs)
        assert presorted.to_dict() == _grow_per_node(X, y, np.arange(n), criterion="variance",
                                                     **kwargs).to_dict(), trial
        deep += presorted.n_nodes >= 7
        wide_leaves += 2 * min_leaf > n
        # A column constant over X, first, in the middle or last, is left out
        # of the presorted block; the trees keep the original feature ids.
        at = (0, p // 2, p)[trial % 3]
        X_dead = np.insert(X, at, 7.0, axis=1)
        with_dead = mean_tree(X_dead, y, **kwargs)
        assert with_dead.to_dict() == _grow_per_node(
            X_dead, y, np.arange(n), criterion="variance", **kwargs).to_dict(), trial
        shifted = presorted.feature + (presorted.feature >= at)
        np.testing.assert_array_equal(with_dead.feature, np.where(
            presorted.feature == LEAF, LEAF, shifted))
        np.testing.assert_array_equal(with_dead.threshold, presorted.threshold)
        if trial % 6 == 0:  # every column of X is constant
            assert with_dead.n_nodes == presorted.n_nodes == 1
            all_dead += 1
    assert deep >= 50 and wide_leaves >= 10 and all_dead >= 20


def _redrawn_candidates(X_node, k, rng):
    """The features a node scores: popped from a pool by `rng` until k of them
    vary within the node, none drawn when k >= p; and how many were skipped."""
    p = X_node.shape[1]
    if k >= p:
        return list(range(p)), 0
    candidates, pool, skipped = [], list(range(p)), 0
    while pool and len(candidates) < k:
        f = pool.pop(rng.randint_below(len(pool)))
        if np.ptp(X_node[:, f]) > 0:
            candidates.append(f)
        else:
            skipped += 1
    return candidates, skipped


def _brute_force_gini(X, y, features, min_leaf):
    """Exhaustive gini oracle over `features`: every midpoint between distinct
    values routes every row by comparison, a block of midpoints at a time.
    The lowest (score, feature, threshold), and how many splits share its
    score."""
    best, ties = None, 0
    ones = y == 1
    for f in sorted(features):
        vals = np.unique(X[:, f])
        midpoints = (vals[:-1] + vals[1:]) / 2
        for start in range(0, len(midpoints), 256):
            thr = midpoints[start:start + 256]
            left = X[:, f] <= thr[:, None]
            nl, sl = left.sum(axis=1), (left & ones).sum(axis=1)
            nr, sr = len(y) - nl, ones.sum() - sl
            score = 2.0 * sl * (nl - sl) / nl + 2.0 * sr * (nr - sr) / nr
            score = score[(nl >= min_leaf) & (nr >= min_leaf)]
            thr = thr[(nl >= min_leaf) & (nr >= min_leaf)]
            if not len(score):
                continue
            i = np.argmin(score)
            if best is None or (score[i], f) < best[:2]:
                best, ties = (score[i], f, thr[i]), 0
            ties += np.count_nonzero(score == best[0])
    return best, ties


def _check_forest_splits(X, y, nodes, k, min_leaf, seed):
    """Each node's split, all found in one batched search, equals the
    oracle's over its redrawn candidates, and each node's stream draws
    exactly as often as the redraw.  Returns (skipped, ties) per node."""
    draws = [SplitMix64(seed + i) for i in range(len(nodes))]
    again = [SplitMix64(seed + i) for i in range(len(nodes))]
    found = _gini_splits(*_tagged(X, y), nodes, min_leaf, k, draws)
    counts = []
    for rows, best, draw, redraw in zip(nodes, found, draws, again):
        candidates, skipped = _redrawn_candidates(X[rows], k, redraw)
        assert draw.next_u64() == redraw.next_u64()
        oracle, ties = _brute_force_gini(X[rows], y[rows], candidates, max(min_leaf, 1))
        if oracle is None:
            assert best is None
        else:
            score, f, thr = best
            assert score == pytest.approx(oracle[0], abs=1e-9)
            assert (f, thr) == (oracle[1], oracle[2])
        counts.append((skipped, ties))
    return counts


def test_forest_split_matches_brute_force_over_redrawn_candidates():
    rng = SplitMix64(11)
    redrawn = tied = no_draws = checked = 0
    for trial in range(60):
        n = 20 + rng.randint_below(40)
        p = 2 + rng.randint_below(6)
        levels = (2, 4, 1000)[trial % 3]  # few levels make many ties
        X = np.array([[float(rng.randint_below(levels)) for _ in range(p)] for _ in range(n)])
        X[:, rng.randint_below(p)] = X[:, rng.randint_below(p)]  # equal scores across features
        X[:, rng.randint_below(p)] = 3.0  # constant: redrawn when drawn
        y = np.array([float(rng.randint_below(2)) for _ in range(n)])
        nodes = [rows for rows in (np.arange(n), rng.randints_below(n, n),
                                   rng.randints_below(n, n)[:n // 2])
                 if len(np.unique(y[rows])) > 1]
        k = 1 + rng.randint_below(p + 1)  # k >= p: every feature, no draws
        for min_leaf in (0, 1, 1 + rng.randint_below(n // 3)):
            for skipped, ties in _check_forest_splits(X, y, nodes, k, min_leaf,
                                                      rng.next_u64() >> 8):
                redrawn += skipped > 0
                tied += ties > 1
                no_draws += k >= p
                checked += 1
    assert checked >= 400 and redrawn >= 40 and tied >= 30 and no_draws >= 40


def test_forest_split_with_int32_keys_matches_brute_force():
    # More than 16,383 distinct values: a key code << 1 | 1 no longer fits int16.
    rng = SplitMix64(12)
    n = 16_400
    x = np.array([rng.random() for _ in range(n)])
    X = np.column_stack([np.full(n, 2.0), x])
    y = ((x > 0.3) ^ (rng.randints_below(10, n) == 0)).astype(float)  # 10% of labels flipped
    assert rank_codes(X[:16_383])[0].dtype == np.int16
    assert rank_codes(X)[0].dtype == np.int32
    for rows, min_leaf in ((np.arange(n), 1), (rng.randints_below(n, n), 50)):
        _check_forest_splits(X, y, [rows], 1, min_leaf, rng.next_u64() >> 8)


def test_batched_gini_keys_widen_past_31_bits():
    # The batched search matches the per-node sort (i) for rank codes either
    # side of the int16 -> int32 switch and (ii) for a batch whose segment
    # numbers push its keys past 31 bits, where int32 keys would wrap and
    # merge segments.
    rng = SplitMix64(21)
    for n, dtype in ((16_383, np.int16), (16_400, np.int32)):
        x = np.array([rng.random() for _ in range(n)])
        X = np.column_stack([x, np.floor(4 * x), np.full(n, 2.0)])
        y = ((x > 0.4) ^ (rng.randints_below(8, n) == 0)).astype(float)
        assert rank_codes(X)[0].dtype == dtype
        nodes = [np.arange(n), rng.randints_below(n, n), rng.randints_below(n, 500)]
        ranks = rank_codes(X)
        for min_leaf in (1, 40):
            assert _gini_splits(*_tagged(X, y), nodes, min_leaf, 3, []) == [
                _split_per_node(ranks, y, rows, "gini", min_leaf) for rows in nodes]
    # 16,400 distinct codes take 15 bits, the target one: 2**15 + 1 segments
    # or more need a 16th bit for the segment number
    p, size, nodes = 8, 3, []
    while len(nodes) < 2**15 // p + 8:  # nodes of both classes
        rows = rng.randints_below(n, size)
        if np.ptp(y[rows]) > 0:
            nodes.append(rows)
    X = np.column_stack([x] + [np.floor(x * 2 ** (3 + f)) for f in range(p - 1)])
    ranks = rank_codes(X)
    assert (len(nodes) * p - 1).bit_length() + (len(ranks[1][0]) - 1).bit_length() + 1 > 31
    with pytest.MonkeyPatch.context() as patch:  # one call for the whole batch
        patch.setattr(tree_mod, "_BUDGET", len(nodes) * p * size)
        found = _gini_splits(*_tagged(X, y), nodes, 1, p, [])
    assert found == [_split_per_node(ranks, y, rows, "gini", 1) for rows in nodes]
    assert sum(best is not None for best in found) >= len(nodes) // 2


def test_variance_criterion_matches_brute_force():
    X = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]])
    y = np.array([0.1, 0.2, 0.15, 0.9, 1.0, 0.95])
    found = _split_per_node(rank_codes(X), y, np.arange(6), "variance", 1)
    # Best cut is clearly between 3 and 4.
    assert found[1] == 0
    assert found[2] == 3.5
    assert mean_tree(X, y, max_depth=1, min_samples_leaf=1).threshold[0] == 3.5


def test_tie_resolves_to_lowest_feature():
    # Duplicate column: identical split quality on features 0 and 1.
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    [(_, f, thr)] = _gini_splits(*_tagged(X, y), [np.arange(4)], 1, 2, [])
    assert f == 0
    assert thr == 1.5


@pytest.mark.parametrize("a, b", [
    (1.0000000000000002, 1.0000000000000004),  # 0.5 * (a + b) rounds up to b
    (1e308, 1.5e308),  # a + b overflows
])
def test_fits_split_adjacent_and_huge_values_with_rows_on_both_sides(a, b):
    X = np.repeat([[a], [b]], 10, axis=0)
    y = np.repeat([0, 1], 10)
    for model in (GradientBoostingClassifier(n_estimators=3, min_samples_leaf=1),
                  RandomForestClassifier(n_estimators=8, min_samples_leaf=1, seed=3)):
        ensemble = model.fit(X, y)
        split = np.concatenate([tree.threshold[tree.feature != LEAF] for tree in ensemble.trees])
        assert len(split) and np.all((a <= split) & (split < b))
        assert all((tree.cover > 0).all() for tree in ensemble.trees)
        again = TreeEnsemble.from_dict(ensemble.to_dict())
        assert again.to_dict() == ensemble.to_dict()
        np.testing.assert_array_equal(again.predict_proba(X), ensemble.predict_proba(X))


_TINY = float(np.nextafter(0.0, 1.0))  # the least subnormal
_MAX = float(np.finfo(float).max)


@settings(deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(-4, 4))
@example(1.0000000000000002, 1)
@example(1e308, 1)
@example(_MAX, -1)
@example(-_MAX, 1)
@example(_TINY, 1)
@example(3 * _TINY, 1)
@example(_TINY, 4)
@example(-_TINY, 2)
@example(float(np.finfo(float).smallest_normal), -1)
def test_threshold_lies_between_adjacent_values(x, steps):
    # a < b: x and the double `steps` places above it (below it if negative)
    b = x
    for _ in range(abs(steps)):
        b = math.nextafter(b, math.copysign(math.inf, steps))
    a, b = sorted((x, b))
    if not a < b or not np.isfinite(b):
        return
    threshold = _threshold(a, b)
    assert a <= threshold < b
    # where halving is exact, it is the old midpoint unless that overflowed
    # or reached b
    old = 0.5 * (a + b)
    if 2 * (0.5 * a) == a and 2 * (0.5 * b) == b and -np.inf < old < b:
        assert threshold == old


def _forest_per_tree(X, y, seed, n_trees, **kwargs):
    """The trees of `grow_forest(X, y, streams of seed)`, grown one at a time
    by the per-node oracle on each stream's bootstrap; each stream's next
    draw after its tree; and the oracle's counts."""
    root, stats, trees, after = SplitMix64(seed), Counter(), [], []
    for t in range(n_trees):
        rng = root.spawn(t)
        boot = rng.randints_below(len(X), len(X))
        trees.append(_grow_per_node(X, y, boot, criterion="gini", rng=rng, stats=stats, **kwargs))
        after.append(rng.next_u64())
    return trees, after, stats


def test_lockstep_forest_equals_trees_grown_one_at_a_time():
    rng = SplitMix64(31)
    stats, wide = Counter(), 0
    for trial in range(36):
        n = 4 + rng.randint_below(70)
        p = 1 + rng.randint_below(7)
        levels = (2, 3, 1000)[trial % 3]  # few levels leave columns constant in small nodes
        X = np.array([[float(rng.randint_below(levels)) for _ in range(p)] for _ in range(n)])
        if p > 2:
            X[:, rng.randint_below(p)] = 5.0  # constant: redrawn whenever drawn
        positives = (2, 10, 50)[trial % 4 % 3]  # percent: rare positives make one-class nodes
        y = (rng.randints_below(100, n) < positives).astype(float)
        y[rng.randint_below(n)] = 1.0
        k = (1, 2, p, p + 2)[trial % 4]  # k >= p: every feature, no draws
        # min_samples_leaf 0 acts as 1; n // 4 lets nodes of exactly twice it split
        min_leaf = (0, 1, 2, max(1, n // 4))[trial // 4 % 4]
        kwargs = dict(max_depth=1 + trial % 9, min_samples_leaf=min_leaf, max_features=k)
        seed = rng.next_u64()
        streams = [SplitMix64(seed).spawn(t) for t in range(7)]
        forest = grow_forest(X, y, streams, **kwargs)
        trees, after, counts = _forest_per_tree(X, y, seed, 7, **kwargs)
        assert [tree.to_dict() for tree in forest] == [tree.to_dict() for tree in trees], trial
        # each stream drew as often as its tree did, one at a time
        assert [stream.next_u64() for stream in streams] == after
        stats += counts
        wide += k >= p
    assert min(stats["redrawn"], stats["edge"], stats["small"], stats["pure"]) >= 20, stats
    assert wide >= 12


def test_forest_fit_memory_is_bounded_by_the_budget():
    # Scoring a whole step at once would hold megabytes of keys and counts;
    # the fit holds the pending rows of every tree (int32), a few budgets of
    # elements and the trees it returns.
    rng = SplitMix64(13)
    X = np.array([[rng.random() for _ in range(9)] for _ in range(1000)])
    y = (X[:, 0] + X[:, 1] * X[:, 2] > 0.8).astype(int)
    model = RandomForestClassifier(n_estimators=100, max_depth=8, min_samples_leaf=2, seed=4)
    model.fit(X[:50], y[:50])  # imports and first-call caches before the count
    tracemalloc.start()
    try:
        forest = model.fit(X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(tree.n_nodes for tree in forest.trees) > 10_000
    rows_bytes = model.n_estimators * len(X) * 4
    assert peak < 48 * tree_mod._BUDGET + 3 * rows_bytes


def test_grow_respects_depth_and_leaf_size():
    rng = SplitMix64(1)
    X = np.array([[rng.random()] for _ in range(100)])
    y = (X[:, 0] > 0.5).astype(float)
    tree = mean_tree(X, y, max_depth=2, min_samples_leaf=10)

    def depth(node):
        if tree.feature[node] == LEAF:
            return 0
        return 1 + max(depth(tree.left[node]), depth(tree.right[node]))

    assert depth(0) <= 2
    leaves = [i for i in range(tree.n_nodes) if tree.feature[i] == LEAF]
    assert all(tree.cover[i] >= 10 for i in leaves)


def test_pure_node_becomes_leaf():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.zeros(4)
    tree = mean_tree(X, y, max_depth=5, min_samples_leaf=1)
    assert tree.n_nodes == 1
    assert tree.value[0] == 0.0


def test_prediction_routes_left_on_equality():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = mean_tree(X, y, max_depth=1, min_samples_leaf=1)
    thr = tree.threshold[0]
    assert tree.predict(np.array([[thr]]))[0] == tree.value[tree.left[0]]


def test_predict_matches_leaf_means():
    rng = SplitMix64(2)
    X = np.array([[rng.random(), rng.random()] for _ in range(80)])
    y = np.array([float(x0 > 0.3) for x0, _ in X])
    tree = mean_tree(X, y, max_depth=4, min_samples_leaf=5)
    [(_, [leaf])] = walk(flatten([tree]), X)
    for node in np.unique(leaf):
        members = leaf == node
        assert tree.value[node] == pytest.approx(np.mean(y[members]))


def test_cover_totals_consistent():
    rng = SplitMix64(3)
    X = np.array([[rng.random()] for _ in range(60)])
    y = np.array([float(rng.randint_below(2)) for _ in range(60)])
    tree = mean_tree(X, y, max_depth=6, min_samples_leaf=2)
    assert tree.cover[0] == 60
    for i in range(tree.n_nodes):
        if tree.feature[i] != LEAF:
            assert tree.cover[i] == tree.cover[tree.left[i]] + tree.cover[tree.right[i]]


def test_expected_value_is_cover_weighted_mean():
    rng = SplitMix64(4)
    X = np.array([[rng.random()] for _ in range(50)])
    y = np.array([float(rng.randint_below(2)) for _ in range(50)])
    tree = mean_tree(X, y, max_depth=4, min_samples_leaf=3)
    # With leaf values = training means and covers = training counts, the
    # cover-weighted expectation equals the overall training mean.
    assert expectations(flatten([tree]))[0] == pytest.approx(np.mean(y))


def test_max_features_sampling_deterministic():
    rng_data = SplitMix64(5)
    X = np.array([[rng_data.random() for _ in range(6)] for _ in range(80)])
    y = np.array([float(x[0] + x[3] > 1.0) for x in X])
    t1, t2 = (grow_forest(X, y, [SplitMix64(9), SplitMix64(10)], max_depth=4,
                          min_samples_leaf=3, max_features=2) for _ in range(2))
    assert [t.to_dict() for t in t1] == [t.to_dict() for t in t2]
    assert t1[0].to_dict() != t1[1].to_dict()
    assert set(t1[0].feature[t1[0].feature != LEAF]) <= set(range(6))


def test_gini_needs_binary_targets():
    # the forest's sort keys carry the target in their lowest bit
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    with pytest.raises(TreeError, match="0/1"):
        grow_forest(X, np.array([0.0, 2.0, 1.0, 1.0]), [SplitMix64(1)], max_depth=2,
                    min_samples_leaf=1, max_features=1)


def test_serialization_roundtrip():
    rng = SplitMix64(6)
    X = np.array([[rng.random(), rng.random()] for _ in range(40)])
    y = np.array([float(rng.randint_below(2)) for _ in range(40)])
    tree = mean_tree(X, y, max_depth=3, min_samples_leaf=2)
    again = DecisionTree.from_dict(tree.to_dict())
    np.testing.assert_array_equal(again.feature, tree.feature)
    np.testing.assert_array_equal(again.left, tree.left)
    np.testing.assert_array_equal(again.cover, tree.cover)
    np.testing.assert_array_equal(again.predict(X), tree.predict(X))


def recursive_expected_value(tree: DecisionTree) -> float:
    """The recursive walk `expectations` replaced, kept as its oracle."""
    def walk(node: int) -> float:
        if tree.feature[node] == LEAF:
            return float(tree.value[node])
        cl = tree.cover[tree.left[node]]
        cr = tree.cover[tree.right[node]]
        return (cl * walk(tree.left[node]) + cr * walk(tree.right[node])) / (cl + cr)
    return walk(0)


def test_expected_value_sweep_bit_equal_to_recursion():
    rng = SplitMix64(7)
    trees = []
    for trial in range(60):
        n = 10 + rng.randint_below(80)
        X = np.array([[rng.random() for _ in range(3)] for _ in range(n)])
        y = np.array([rng.random() - 0.5 if trial else 0.0 for _ in range(n)])
        trees.append(mean_tree(X, y, max_depth=1 + trial % 7, min_samples_leaf=1 + trial % 3))
    X = np.array([[rng.random() for _ in range(4)] for _ in range(150)])
    y = (X[:, 0] + 0.3 * X[:, 1] > 0.6).astype(int)
    for model in (GradientBoostingClassifier(n_estimators=20, max_depth=4, min_samples_leaf=3),
                  RandomForestClassifier(n_estimators=20, max_depth=8, min_samples_leaf=2)):
        trees += model.fit(X, y).trees
    assert any(tree.n_nodes == 1 for tree in trees)
    assert max(tree.n_nodes for tree in trees) > 30
    for tree in trees:
        assert expectations(flatten([tree]))[0] == recursive_expected_value(tree)
    # the ensemble sweeps all its trees at once and sums them in model order
    # (a pairwise sum, as np.sum makes, rounds differently)
    total = 0.0
    for tree in trees:
        total += recursive_expected_value(tree)
    assert TreeEnsemble("random-forest", trees).expected_output() == total / len(trees)
    boosting = TreeEnsemble("gradient-boosting", trees, base_score=-0.7, shrinkage=0.3)
    assert boosting.expected_output() == -0.7 + 0.3 * total


def _stump() -> dict:
    return {"nodes": [
        {"feature": 0, "threshold": 0.5, "left": 1, "right": 2, "cover": 5, "value": None},
        {"feature": -1, "threshold": None, "left": None, "right": None, "cover": 2,
         "value": 0.25},
        {"feature": -1, "threshold": None, "left": None, "right": None, "cover": 3,
         "value": 0.75},
    ]}


def test_from_dict_reads_back_to_dict():
    tree = DecisionTree.from_dict(_stump())
    assert tree.to_dict() == _stump()
    np.testing.assert_array_equal(tree.left, [1, -1, -1])
    assert {tree.feature.dtype, tree.left.dtype, tree.right.dtype, tree.cover.dtype} == {
        np.dtype(np.int32)}
    big = DecisionTree.from_dict(_edited(_stump(), 2, cover=2**31 - 1))
    assert big.cover[2] == 2**31 - 1
    assert expectations(flatten([tree]))[0] == (2 * 0.25 + 3 * 0.75) / 5


def _two_level() -> dict:
    d = _stump()
    d["nodes"][1:2] = [
        {"feature": 1, "threshold": 0.0, "left": 2, "right": 3, "cover": 2, "value": None},
        {"feature": -1, "threshold": None, "left": None, "right": None, "cover": 1,
         "value": 0.0},
        {"feature": -1, "threshold": None, "left": None, "right": None, "cover": 1,
         "value": 0.5},
    ]
    d["nodes"][0]["right"] = 4
    return d


def _edited(base, node, **fields):
    d = copy.deepcopy(base)
    d["nodes"][node].update(fields)
    return d


@pytest.mark.parametrize("d, problem", [
    (_edited(_two_level(), 1, right=0), "child"),  # back to an ancestor
    (_edited(_two_level(), 1, left=1), "child"),  # to itself
    (_edited(_stump(), 0, right=3), "child"),  # past the last node
    (_edited(_stump(), 0, left=1.5), "child"),
    (_edited(_stump(), 2, cover=0), "cover"),
    (_edited(_stump(), 1, value=float("nan")), "leaf value"),
    (_edited(_stump(), 1, value=None), "leaf value"),
    (_edited(_stump(), 0, threshold=None), "threshold"),
    (_edited(_stump(), 0, feature=-2), "column index"),
    (_edited(_stump(), 2, cover="3"), "not a number"),
    ({"nodes": []}, "no nodes"),
    ({"nodes": [{"feature": -1, "left": None, "right": None, "cover": 1, "value": 0.0}]},
     "threshold"),
    ({}, "nodes"),
    # past the int32 range of the node fields, so that casting it would wrap
    (_edited(_stump(), 2, cover=2**70), "cover"),
    (_edited(_stump(), 0, feature=2**70), "column index"),
    # node 2 shared by nodes 0 and 1, and node 4 no node's child
    (_edited(_two_level(), 0, right=2), "node 2 is the child of 2 nodes"),
    # just past the int32 range
    (_edited(_stump(), 2, cover=2**31), "cover"),
    (_edited(_stump(), 0, feature=2**31), "column index"),
])
def test_from_dict_rejects_malformed_trees(d, problem):
    with pytest.raises(TreeError, match=problem):
        DecisionTree.from_dict(d)
