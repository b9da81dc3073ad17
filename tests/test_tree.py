"""Decision tree growth, prediction and serialization."""

import copy
import itertools

import numpy as np
import pytest

from multisys.models import GradientBoostingClassifier, RandomForestClassifier
from multisys.rng import SplitMix64
from multisys.tree import LEAF, DecisionTree, TreeError, _best_split, grow_tree


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
        # All rows once, and a bootstrap sample whose repeated rows count
        # once per appearance.
        bootstrap = np.array([rng.randint_below(n) for _ in range(n)])
        # 0 acts as 1; n // 2 + 1 and n leave no legal cut at all.
        leaf_sizes = (0, 1, 2, 1 + rng.randint_below(n // 2), n // 2 + 1, n)
        for rows, min_leaf in itertools.product((np.arange(n), bootstrap), leaf_sizes):
            if len(np.unique(y[rows])) < 2:
                continue
            found = _best_split(X, y, rows, criterion, min_leaf)
            oracle = _brute_force_best(X[rows], y[rows], min_leaf, IMPURITY[criterion])
            if oracle is None:
                assert found is None
                no_cut += 1
                continue
            score, f, thr = found
            assert score == pytest.approx(oracle[0], abs=1e-9)
            assert (f, thr) == (oracle[1], pytest.approx(oracle[2]))
    assert no_cut >= 60


def test_presorted_growth_equals_node_local_sorting():
    # Integer features with few levels make many ties, so the stable order
    # among equal values decides every prefix sum.
    rng = SplitMix64(8)
    deep = wide_leaves = 0
    for trial in range(120):
        n = 2 + rng.randint_below(60)
        p = 1 + rng.randint_below(5)
        X = np.array([[float(rng.randint_below(1 + trial % 6)) for _ in range(p)]
                      for _ in range(n)])
        criterion = ("gini", "variance")[trial % 2]
        if criterion == "gini":
            y = np.array([float(rng.randint_below(2)) for _ in range(n)])
        else:
            y = np.array([float(rng.randint_below(5)) - rng.random() for _ in range(n)])
        # small leaves on two trials in three, up to above n / 2 on the third
        min_leaf = 1 + rng.randint_below(4 if trial % 3 else n // 2 + 2)
        kwargs = dict(criterion=criterion, max_depth=1 + trial % 6, min_samples_leaf=min_leaf)
        presorted = grow_tree(X, y, order=np.argsort(X, axis=0, kind="stable"), **kwargs)
        assert presorted.to_dict() == grow_tree(X, y, **kwargs).to_dict(), trial
        deep += presorted.n_nodes >= 7
        wide_leaves += 2 * min_leaf > n
    assert deep >= 50 and wide_leaves >= 10


def test_presorted_order_serves_only_full_growth():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    order = np.argsort(X, axis=0, kind="stable")
    for extra in ({"rows": np.arange(4)}, {"max_features": 1, "rng": SplitMix64(0)}):
        with pytest.raises(TreeError):
            grow_tree(X, y, criterion="gini", max_depth=1, min_samples_leaf=1,
                      order=order, **extra)


def test_variance_criterion_matches_brute_force():
    X = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]])
    y = np.array([0.1, 0.2, 0.15, 0.9, 1.0, 0.95])
    found = _best_split(X, y, np.arange(6), "variance", 1)
    # Best cut is clearly between 3 and 4.
    assert found[1] == 0
    assert found[2] == 3.5


def test_tie_resolves_to_lowest_feature():
    # Duplicate column: identical split quality on features 0 and 1.
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    _, f, thr = _best_split(X, y, np.arange(4), "gini", 1)
    assert f == 0
    assert thr == 1.5


def test_grow_respects_depth_and_leaf_size():
    rng = SplitMix64(1)
    X = np.array([[rng.random()] for _ in range(100)])
    y = (X[:, 0] > 0.5).astype(float)
    tree = grow_tree(X, y, criterion="gini", max_depth=2, min_samples_leaf=10)

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
    tree = grow_tree(X, y, criterion="gini", max_depth=5, min_samples_leaf=1)
    assert tree.n_nodes == 1
    assert tree.value[0] == 0.0


def test_prediction_routes_left_on_equality():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = grow_tree(X, y, criterion="gini", max_depth=1, min_samples_leaf=1)
    thr = tree.threshold[0]
    assert tree.predict(np.array([[thr]]))[0] == tree.value[tree.left[0]]


def test_predict_matches_leaf_means():
    rng = SplitMix64(2)
    X = np.array([[rng.random(), rng.random()] for _ in range(80)])
    y = np.array([float(x0 > 0.3) for x0, _ in X])
    tree = grow_tree(X, y, criterion="gini", max_depth=4, min_samples_leaf=5)
    leaf = tree.leaf_ids(X)
    for node in np.unique(leaf):
        members = leaf == node
        assert tree.value[node] == pytest.approx(np.mean(y[members]))


def test_cover_totals_consistent():
    rng = SplitMix64(3)
    X = np.array([[rng.random()] for _ in range(60)])
    y = np.array([float(rng.randint_below(2)) for _ in range(60)])
    tree = grow_tree(X, y, criterion="gini", max_depth=6, min_samples_leaf=2)
    assert tree.cover[0] == 60
    for i in range(tree.n_nodes):
        if tree.feature[i] != LEAF:
            assert tree.cover[i] == tree.cover[tree.left[i]] + tree.cover[tree.right[i]]


def test_expected_value_is_cover_weighted_mean():
    rng = SplitMix64(4)
    X = np.array([[rng.random()] for _ in range(50)])
    y = np.array([float(rng.randint_below(2)) for _ in range(50)])
    tree = grow_tree(X, y, criterion="gini", max_depth=4, min_samples_leaf=3)
    # With leaf values = training means and covers = training counts, the
    # cover-weighted expectation equals the overall training mean.
    assert tree.expected_value() == pytest.approx(np.mean(y))


def test_max_features_sampling_deterministic():
    rng_data = SplitMix64(5)
    X = np.array([[rng_data.random() for _ in range(6)] for _ in range(80)])
    y = np.array([float(x[0] + x[3] > 1.0) for x in X])
    t1 = grow_tree(X, y, criterion="gini", max_depth=4, min_samples_leaf=3,
                   max_features=2, rng=SplitMix64(9))
    t2 = grow_tree(X, y, criterion="gini", max_depth=4, min_samples_leaf=3,
                   max_features=2, rng=SplitMix64(9))
    assert t1.to_dict() == t2.to_dict()
    assert set(t1.feature[t1.feature != LEAF]) <= set(range(6))


def test_max_features_requires_rng():
    X = np.array([[0.0], [1.0]])
    with pytest.raises(TreeError):
        grow_tree(X, np.array([0.0, 1.0]), criterion="gini", max_depth=1,
                  min_samples_leaf=1, max_features=1)


def test_zero_rows_errors():
    with pytest.raises(TreeError):
        grow_tree(np.zeros((3, 1)), np.zeros(3), criterion="gini",
                  max_depth=1, min_samples_leaf=1, rows=np.array([], dtype=int))


def test_unknown_criterion_errors():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    with pytest.raises(TreeError):
        grow_tree(X, y, criterion="entropy", max_depth=2, min_samples_leaf=1)


def test_serialization_roundtrip():
    rng = SplitMix64(6)
    X = np.array([[rng.random(), rng.random()] for _ in range(40)])
    y = np.array([float(rng.randint_below(2)) for _ in range(40)])
    tree = grow_tree(X, y, criterion="gini", max_depth=3, min_samples_leaf=2)
    again = DecisionTree.from_dict(tree.to_dict())
    np.testing.assert_array_equal(again.feature, tree.feature)
    np.testing.assert_array_equal(again.left, tree.left)
    np.testing.assert_array_equal(again.cover, tree.cover)
    np.testing.assert_array_equal(again.predict(X), tree.predict(X))


def recursive_expected_value(tree: DecisionTree) -> float:
    """The recursive walk `expected_value` replaced, kept as its oracle."""
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
        trees.append(grow_tree(X, y, criterion="variance", max_depth=1 + trial % 7,
                               min_samples_leaf=1 + trial % 3))
    X = np.array([[rng.random() for _ in range(4)] for _ in range(150)])
    y = (X[:, 0] + 0.3 * X[:, 1] > 0.6).astype(int)
    for model in (GradientBoostingClassifier(n_estimators=20, max_depth=4, min_samples_leaf=3),
                  RandomForestClassifier(n_estimators=20, max_depth=8, min_samples_leaf=2)):
        trees += model.fit(X, y).ensemble_.trees
    assert any(tree.n_nodes == 1 for tree in trees)
    assert max(tree.n_nodes for tree in trees) > 30
    for tree in trees:
        assert tree.expected_value() == recursive_expected_value(tree)


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
    assert tree.expected_value() == (2 * 0.25 + 3 * 0.75) / 5


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
])
def test_from_dict_rejects_malformed_trees(d, problem):
    with pytest.raises(TreeError, match=problem):
        DecisionTree.from_dict(d)
