"""Shapley attribution: exactness against brute-force enumeration and the
scalar one-row-at-a-time algorithm, local accuracy, ranking, export and
partial dependence."""

import itertools
import math

import numpy as np
import pytest

from multisys.explain import (
    ExplainError, ShapAttribution, beeswarm_export, global_importance,
    partial_dependence, tree_shap,
)
from multisys.models import (
    GradientBoostingClassifier, RandomForestClassifier, TreeEnsemble,
)
from multisys.rng import SplitMix64
from multisys.tree import LEAF, DecisionTree, grow_tree


def _conditional_expectation(tree: DecisionTree, x, known: set) -> float:
    """Expected tree output when only the features in `known` are fixed.

    Unknown features are marginalized with cover-weighted branch
    probabilities, matching the path-dependent convention.
    """

    def walk(node):
        if tree.feature[node] == LEAF:
            return float(tree.value[node])
        f = int(tree.feature[node])
        left, right = int(tree.left[node]), int(tree.right[node])
        if f in known:
            branch = left if x[f] <= tree.threshold[node] else right
            return walk(branch)
        cl, cr = tree.cover[left], tree.cover[right]
        return (cl * walk(left) + cr * walk(right)) / (cl + cr)

    return walk(0)


def brute_force_shap(tree: DecisionTree, x, n_features: int) -> np.ndarray:
    """Exhaustive Shapley values over all feature subsets."""
    phi = np.zeros(n_features)
    players = list(range(n_features))
    for j in players:
        others = [f for f in players if f != j]
        for r in range(len(others) + 1):
            for subset in itertools.combinations(others, r):
                s = set(subset)
                weight = (math.factorial(len(s))
                          * math.factorial(n_features - len(s) - 1)
                          / math.factorial(n_features))
                gain = (_conditional_expectation(tree, x, s | {j})
                        - _conditional_expectation(tree, x, s))
                phi[j] += weight * gain
    return phi


class _PathElement:
    __slots__ = ("feature", "zero_fraction", "one_fraction", "pweight")

    def __init__(self, feature, zero_fraction, one_fraction, pweight):
        self.feature = feature
        self.zero_fraction = zero_fraction
        self.one_fraction = one_fraction
        self.pweight = pweight

    def copy(self):
        return _PathElement(self.feature, self.zero_fraction,
                            self.one_fraction, self.pweight)


def _extend(path, zero_fraction, one_fraction, feature):
    path = [e.copy() for e in path]
    length = len(path)
    path.append(_PathElement(feature, zero_fraction, one_fraction,
                             1.0 if length == 0 else 0.0))
    for i in range(length - 1, -1, -1):
        path[i + 1].pweight += one_fraction * path[i].pweight * (i + 1) / (length + 1)
        path[i].pweight = zero_fraction * path[i].pweight * (length - i) / (length + 1)
    return path


def _unwind(path, index):
    path = [e.copy() for e in path]
    last = len(path) - 1
    one = path[index].one_fraction
    zero = path[index].zero_fraction
    carry = path[last].pweight
    for j in range(last - 1, -1, -1):
        if one != 0.0:
            tmp = path[j].pweight
            path[j].pweight = carry * (last + 1) / ((j + 1) * one)
            carry = tmp - path[j].pweight * zero * (last - j) / (last + 1)
        else:
            path[j].pweight = path[j].pweight * (last + 1) / (zero * (last - j))
    for j in range(index, last):
        path[j].feature = path[j + 1].feature
        path[j].zero_fraction = path[j + 1].zero_fraction
        path[j].one_fraction = path[j + 1].one_fraction
    path.pop()
    return path


def _unwound_sum(path, index):
    last = len(path) - 1
    one = path[index].one_fraction
    zero = path[index].zero_fraction
    total = 0.0
    if one != 0.0:
        carry = path[last].pweight
        for j in range(last - 1, -1, -1):
            tmp = carry * (last + 1) / ((j + 1) * one)
            total += tmp
            carry = path[j].pweight - tmp * zero * (last - j) / (last + 1)
    else:
        for j in range(last - 1, -1, -1):
            total += path[j].pweight * (last + 1) / (zero * (last - j))
    return total


def _scalar_tree_row(tree: DecisionTree, x, phi) -> None:
    """Lundberg et al.'s Algorithm 2 for one row: recurse into the child x
    takes first, then the other one, accumulating into phi (slot -1 absorbs
    the root's dummy element)."""

    def recurse(node, path, zero_fraction, one_fraction, feature):
        path = _extend(path, zero_fraction, one_fraction, feature)
        if tree.feature[node] == LEAF:
            value = float(tree.value[node])
            for i in range(1, len(path)):
                phi[path[i].feature] += (
                    _unwound_sum(path, i)
                    * (path[i].one_fraction - path[i].zero_fraction)
                    * value
                )
            return
        f = int(tree.feature[node])
        left, right = int(tree.left[node]), int(tree.right[node])
        cl, cr = int(tree.cover[left]), int(tree.cover[right])
        cn = int(tree.cover[node])
        hot, cold = (left, right) if x[f] <= tree.threshold[node] else (right, left)
        hot_cover = cl if hot == left else cr
        cold_cover = cl + cr - hot_cover
        incoming_zero, incoming_one = 1.0, 1.0
        for i in range(1, len(path)):
            if path[i].feature == f:
                incoming_zero = path[i].zero_fraction
                incoming_one = path[i].one_fraction
                path = _unwind(path, i)
                break
        recurse(hot, path, incoming_zero * hot_cover / cn, incoming_one, f)
        recurse(cold, path, incoming_zero * cold_cover / cn, 0.0, f)

    recurse(0, [], 1.0, 1.0, -1)


def scalar_tree_shap(ensemble: TreeEnsemble, X) -> np.ndarray:
    """The row-by-row oracle for `tree_shap`'s phi."""
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if ensemble.kind == "gradient-boosting":
        scale = ensemble.shrinkage
    else:
        scale = 1.0 / len(ensemble.trees)
    phi = np.zeros((n, p))
    for tree in ensemble.trees:
        for i in range(n):
            row_phi = np.zeros(p + 1)
            _scalar_tree_row(tree, X[i], row_phi)
            phi[i] += scale * row_phi[:p]
    return phi


def one_tree_shap(tree: DecisionTree, X) -> np.ndarray:
    """Production `tree_shap` values of a single tree."""
    return tree_shap(TreeEnsemble("gradient-boosting", [tree], shrinkage=1.0), X).phi


def _random_tree(rng: SplitMix64, n_features: int, depth: int):
    n = 30 + rng.randint_below(30)
    X = np.array([[rng.random() for _ in range(n_features)] for _ in range(n)])
    y = np.array([rng.random() for _ in range(n)])
    tree = grow_tree(X, y, criterion="variance", max_depth=depth,
                     min_samples_leaf=2)
    return tree, X


def test_shap_matches_exhaustive_enumeration():
    rng = SplitMix64(0)
    checked = 0
    for trial in range(120):
        p = 1 + rng.randint_below(4)  # <= 4 features
        depth = 1 + rng.randint_below(3)  # <= 3
        tree, X = _random_tree(rng, p, depth)
        x = X[rng.randint_below(len(X))]
        fast = one_tree_shap(tree, x)[0]
        slow = brute_force_shap(tree, x, p)
        np.testing.assert_allclose(fast, slow, atol=1e-9)
        checked += 1
    assert checked >= 100


def test_stump_analytic_formula():
    # For a single split on feature 0, phi_0 = f(x) - E[f] and all other
    # features get exactly zero.
    X = np.array([[0.0, 9.0], [1.0, 9.0], [2.0, 9.0], [3.0, 9.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    stump = grow_tree(X, y, criterion="variance", max_depth=1, min_samples_leaf=1)
    expected_value = stump.expected_value()
    for row in X:
        phi = one_tree_shap(stump, row)[0]
        prediction = stump.predict(row.reshape(1, -1))[0]
        assert phi[0] == pytest.approx(prediction - expected_value)
        assert phi[1] == 0.0


def _has_repeated_feature(tree: DecisionTree, node=0, seen=()) -> bool:
    if tree.feature[node] == LEAF:
        return False
    f = int(tree.feature[node])
    if f in seen:
        return True
    return any(_has_repeated_feature(tree, int(child), seen + (f,))
               for child in (tree.left[node], tree.right[node]))


def test_tree_shap_bit_identical_to_scalar_oracle():
    rng = SplitMix64(5)
    repeated = 0
    for trial in range(150):
        # Integer features tie heavily; half-integer rows land exactly on the
        # midpoint thresholds.
        p = 1 + rng.randint_below(4)
        n = 20 + rng.randint_below(60)
        X = np.array([[float(rng.randint_below(4)) for _ in range(p)] for _ in range(n)])
        y = np.array([rng.random() for _ in range(n)])
        tree = grow_tree(X, y, criterion="variance", max_depth=1 + rng.randint_below(6),
                         min_samples_leaf=1 + rng.randint_below(3))
        repeated += _has_repeated_feature(tree)
        rows = np.array([[rng.randint_below(7) / 2.0 for _ in range(p)]
                         for _ in range(1 + rng.randint_below(80))])
        ensemble = TreeEnsemble("gradient-boosting", [tree], shrinkage=1.0)
        assert np.array_equal(tree_shap(ensemble, rows).phi,
                              scalar_tree_shap(ensemble, rows))
    assert repeated >= 50

    X = np.array([[rng.random() for _ in range(6)] for _ in range(120)])
    X[:, 3] = np.round(X[:, 3] * 3)
    y = (X[:, 0] + X[:, 1] * X[:, 3] > 1.2).astype(int)
    models = [GradientBoostingClassifier(n_estimators=8, max_depth=4,
                                         min_samples_leaf=3).fit(X, y),
              RandomForestClassifier(n_estimators=6, max_depth=6,
                                     min_samples_leaf=2, seed=3).fit(X, y)]
    many = np.vstack([X] * 5)  # more rows than one walk block
    for model in models:
        for rows in (X[:0], X[:1], many):
            assert np.array_equal(tree_shap(model, rows).phi,
                                  scalar_tree_shap(model, rows))


def test_tree_shap_rejects_too_few_columns():
    rng = SplitMix64(6)
    X = np.array([[rng.random() for _ in range(5)] for _ in range(60)])
    y = (X[:, 4] > 0.5).astype(int)
    model = GradientBoostingClassifier(n_estimators=3, max_depth=2,
                                       min_samples_leaf=3).fit(X, y)
    with pytest.raises(ExplainError):
        tree_shap(model, np.zeros((2, 3)))


def test_local_accuracy_gradient_boosting():
    rng = SplitMix64(1)
    X = np.array([[rng.random() for _ in range(4)] for _ in range(80)])
    y = (X[:, 0] + X[:, 2] > 1.0).astype(int)
    model = GradientBoostingClassifier(n_estimators=10, max_depth=3,
                                       min_samples_leaf=3).fit(X, y)
    attribution = tree_shap(model, X[:20])
    margins = model.predict_margin(X[:20])
    recon = attribution.base_value + attribution.phi.sum(axis=1)
    np.testing.assert_allclose(recon, margins, atol=1e-9)


def test_local_accuracy_random_forest():
    rng = SplitMix64(2)
    X = np.array([[rng.random() for _ in range(3)] for _ in range(60)])
    y = (X[:, 1] > 0.5).astype(int)
    model = RandomForestClassifier(n_estimators=8, max_depth=4,
                                   min_samples_leaf=3, seed=0).fit(X, y)
    attribution = tree_shap(model, X[:15])
    proba = model.predict_proba(X[:15])
    recon = attribution.base_value + attribution.phi.sum(axis=1)
    np.testing.assert_allclose(recon, proba, atol=1e-9)


def test_global_importance_ranking():
    phi = np.array([[1.0, -0.5, 0.0], [-1.0, 0.5, 0.0]])
    attribution = ShapAttribution(phi=phi, base_value=0.0)
    ranking = global_importance(attribution, ["a", "b", "c"])
    assert ranking == [("a", 1.0), ("b", 0.5), ("c", 0.0)]


def test_global_importance_tie_keeps_feature_order():
    phi = np.array([[0.5, 0.5]])
    ranking = global_importance(ShapAttribution(phi=phi, base_value=0.0), ["f0", "f1"])
    assert [name for name, _ in ranking] == ["f0", "f1"]


def test_global_importance_empty_errors():
    with pytest.raises(ExplainError):
        global_importance(ShapAttribution(phi=np.zeros((0, 2)), base_value=0.0))


def test_beeswarm_export_and_csv_roundtrip():
    phi = np.array([[0.25, -0.125], [0.5, 0.0625]])
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    records = beeswarm_export(ShapAttribution(phi=phi, base_value=0.1), X, ["u", "v"])
    assert len(records) == 4
    assert records[0] == {"row": 0, "feature": "u", "shap": 0.25,
                          "value": 1.0, "rank": 1}
    assert records[1]["feature"] == "v" and records[1]["shap"] == -0.125


def test_feature_name_count_mismatch_errors():
    attribution = ShapAttribution(phi=np.zeros((2, 3)), base_value=0.0)
    with pytest.raises(ExplainError):
        global_importance(attribution, ["a", "b"])
    with pytest.raises(ExplainError):
        beeswarm_export(attribution, np.zeros((2, 3)), ["a", "b", "c", "d"])


def test_beeswarm_shape_mismatch_errors():
    phi = np.zeros((2, 2))
    with pytest.raises(ExplainError):
        beeswarm_export(ShapAttribution(phi=phi, base_value=0.0), np.zeros((2, 3)))


def test_partial_dependence_grid_and_response():
    rng = SplitMix64(3)
    X = np.array([[rng.random(), rng.random()] for _ in range(100)])
    y = (X[:, 0] > 0.5).astype(int)
    model = GradientBoostingClassifier(n_estimators=10, max_depth=2,
                                       min_samples_leaf=5).fit(X, y)
    curve = partial_dependence(model, X, feature=0)
    assert np.all(np.diff(curve.grid) > 0)
    assert curve.grid[0] >= np.quantile(X[:, 0], 0.025) - 1e-12
    assert curve.grid[-1] <= np.quantile(X[:, 0], 0.975) + 1e-12
    # Manual check: response is the model at (grid value, mean of others).
    profile = np.tile(X.mean(axis=0), (len(curve.grid), 1))
    profile[:, 0] = curve.grid
    np.testing.assert_allclose(curve.response, model.predict_proba(profile))


def test_partial_dependence_degenerate_feature_errors():
    X = np.ones((30, 2))
    X[:, 1] = np.arange(30)
    model = GradientBoostingClassifier(n_estimators=2, max_depth=1,
                                       min_samples_leaf=2)
    y = (X[:, 1] > 15).astype(int)
    model.fit(X, y)
    with pytest.raises(ExplainError):
        partial_dependence(model, X, feature=0)


@pytest.mark.parametrize("feature", [3, 5, -1])
def test_partial_dependence_rejects_feature_out_of_range(feature):
    # A negative index must not silently sweep the last column.
    rng = SplitMix64(5)
    X = np.array([[rng.random() for _ in range(3)] for _ in range(40)])
    y = (X[:, 0] > 0.5).astype(int)
    model = GradientBoostingClassifier(n_estimators=2, max_depth=2,
                                       min_samples_leaf=2).fit(X, y)
    with pytest.raises(ExplainError, match="outside 0..2"):
        partial_dependence(model, X, feature=feature)
