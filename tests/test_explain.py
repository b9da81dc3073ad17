"""Shapley attribution: exactness against brute-force enumeration, local
accuracy, ranking, export and partial dependence."""

import itertools
import math

import numpy as np
import pytest

from multisys.explain import (
    ExplainError, ShapAttribution, beeswarm_export, global_importance,
    partial_dependence, shap_values_tree, tree_shap,
)
from multisys.models import GradientBoostingClassifier, RandomForestClassifier
from multisys.rng import SplitMix64
from multisys.tree import DecisionTree, grow_tree


def _conditional_expectation(tree: DecisionTree, x, known: set) -> float:
    """Expected tree output when only the features in `known` are fixed.

    Unknown features are marginalized with cover-weighted branch
    probabilities, matching the path-dependent convention.
    """

    def walk(node):
        if tree.is_leaf(node):
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
        fast = shap_values_tree(tree, x, p)
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
        phi = shap_values_tree(stump, row, 2)
        prediction = stump.predict(row.reshape(1, -1))[0]
        assert phi[0] == pytest.approx(prediction - expected_value)
        assert phi[1] == 0.0


def test_local_accuracy_gradient_boosting():
    rng = SplitMix64(1)
    X = np.array([[rng.random() for _ in range(4)] for _ in range(80)])
    y = (X[:, 0] + X[:, 2] > 1.0).astype(int)
    model = GradientBoostingClassifier(n_estimators=10, max_depth=3,
                                       min_samples_leaf=3).fit(X, y)
    attribution = tree_shap(model.ensemble_, X[:20])
    margins = model.predict_margin(X[:20])
    recon = attribution.base_value + attribution.phi.sum(axis=1)
    np.testing.assert_allclose(recon, margins, atol=1e-9)


def test_local_accuracy_random_forest():
    rng = SplitMix64(2)
    X = np.array([[rng.random() for _ in range(3)] for _ in range(60)])
    y = (X[:, 1] > 0.5).astype(int)
    model = RandomForestClassifier(n_estimators=8, max_depth=4,
                                   min_samples_leaf=3, seed=0).fit(X, y)
    attribution = tree_shap(model.ensemble_, X[:15])
    proba = model.ensemble_.predict_proba(X[:15])
    recon = attribution.base_value + attribution.phi.sum(axis=1)
    np.testing.assert_allclose(recon, proba, atol=1e-9)


def test_global_importance_ranking():
    phi = np.array([[1.0, -0.5, 0.0], [-1.0, 0.5, 0.0]])
    attribution = ShapAttribution(phi=phi, base_value=0.0)
    ranking = global_importance(attribution, ["a", "b", "c"])
    assert ranking == [("a", 1.0), ("b", 0.5), ("c", 0.0)]


def test_global_importance_tie_keeps_feature_order():
    phi = np.array([[0.5, 0.5]])
    ranking = global_importance(ShapAttribution(phi=phi, base_value=0.0))
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
    curve = partial_dependence(model, X, feature=0, grid_size=20)
    assert np.all(np.diff(curve.grid) > 0)
    assert curve.grid[0] >= np.quantile(X[:, 0], 0.025) - 1e-12
    assert curve.grid[-1] <= np.quantile(X[:, 0], 0.975) + 1e-12
    # Manual check: response is the model at (grid value, mean of others).
    profile = np.tile(X.mean(axis=0), (len(curve.grid), 1))
    profile[:, 0] = curve.grid
    np.testing.assert_allclose(curve.response, model.predict_proba(profile))


def test_partial_dependence_average_mode():
    rng = SplitMix64(4)
    X = np.array([[rng.random(), rng.random()] for _ in range(50)])
    y = (X[:, 0] > 0.5).astype(int)
    model = GradientBoostingClassifier(n_estimators=5, max_depth=2,
                                       min_samples_leaf=5).fit(X, y)
    curve = partial_dependence(model, X, feature=0, grid_size=5, average=True)
    X_mod = X.copy()
    X_mod[:, 0] = curve.grid[0]
    assert curve.response[0] == pytest.approx(float(np.mean(model.predict_proba(X_mod))))


def test_partial_dependence_degenerate_feature_errors():
    X = np.ones((30, 2))
    X[:, 1] = np.arange(30)
    model = GradientBoostingClassifier(n_estimators=2, max_depth=1,
                                       min_samples_leaf=2)
    y = (X[:, 1] > 15).astype(int)
    model.fit(X, y)
    with pytest.raises(ExplainError):
        partial_dependence(model, X, feature=0)
    with pytest.raises(ExplainError):
        partial_dependence(model, X, feature=1, grid_size=1)
