"""Logistic regression (with its standardization), random forest and
gradient boosting."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import mean_tree

from multisys.base import check_X, check_X_y
from multisys.models import (
    GradientBoostingClassifier, LogisticRegressionClassifier,
    RandomForestClassifier, TreeEnsemble, binomial_deviance, logistic, logit,
)
from multisys.rng import SplitMix64
from multisys import tree as tree_mod
from multisys.tree import LEAF, DecisionTree, TreeError


def _blobs(n=120, seed=0, gap=2.0):
    """Two well-separated Gaussian clusters with binary labels."""
    rng = SplitMix64(seed)
    X, y = [], []
    for i in range(n):
        label = i % 2
        X.append([rng.normal(mu=gap * label), rng.normal(mu=gap * label)])
        y.append(label)
    return np.asarray(X), np.asarray(y)


# ---------------------------------------------------------------------------
# link functions

def test_logistic_extremes_stable():
    z = np.array([-800.0, 0.0, 800.0])
    p = logistic(z)
    assert p[0] == 0.0 and p[1] == 0.5 and p[2] == 1.0


def test_logit_inverts_logistic():
    for p in (0.01, 0.3, 0.5, 0.9):
        assert logistic(np.array([logit(p)]))[0] == pytest.approx(p)


def test_binomial_deviance_perfect_prediction():
    y = np.array([0.0, 1.0])
    assert binomial_deviance(y, y) < 1e-10
    assert binomial_deviance(y, np.array([0.5, 0.5])) == pytest.approx(2 * math.log(2))


# ---------------------------------------------------------------------------
# standardization inside the logistic model

def test_standardizer_population_sd_oracle():
    X = np.array([[1.0], [2.0], [3.0]])
    scaled = LogisticRegressionClassifier().fit(X, [0, 0, 1]).standardize(X)
    # mean 2, population sd sqrt(2/3); z = +/- 1/sqrt(2/3) = +/- 1.224744...
    expected = (X[:, 0] - 2.0) / math.sqrt(2.0 / 3.0)
    np.testing.assert_allclose(scaled[:, 0], expected)
    assert scaled[2, 0] == pytest.approx(1.224744871391589)


def test_standardizer_constant_feature():
    X = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    model = LogisticRegressionClassifier().fit(X, [0, 1, 1])
    assert list(model.scale_) == [1.0, math.sqrt(2.0 / 3.0)]
    scaled = model.standardize(X)
    assert np.all(scaled[:, 0] == 0.0)  # divisor 1, mean removed


# ---------------------------------------------------------------------------
# logistic regression

def test_lr_gradient_matches_finite_differences():
    X, y = _blobs(60, seed=1)
    model = LogisticRegressionClassifier(C=1.0)
    rng = SplitMix64(2)
    for _ in range(5):
        params = np.array([rng.normal() for _ in range(X.shape[1] + 1)])
        _, grad = model._objective(params, X, y)
        eps = 1e-6
        for j in range(len(params)):
            bump = np.zeros_like(params)
            bump[j] = eps
            hi, _ = model._objective(params + bump, X, y)
            lo, _ = model._objective(params - bump, X, y)
            fd = (hi - lo) / (2 * eps)
            assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_lr_converges_to_stationary_point():
    X, y = _blobs(200, seed=3)
    model = LogisticRegressionClassifier().fit(X, y)
    assert model.gradient_max_norm_ <= 1e-5
    assert model.n_iter_ >= 1


def test_lr_separates_blobs():
    X, y = _blobs(200, seed=4, gap=4.0)
    model = LogisticRegressionClassifier().fit(X, y)
    assert np.mean((model.predict_proba(X) >= 0.5) == y) > 0.97
    proba = model.predict_proba(X)
    assert np.all((proba >= 0) & (proba <= 1))


def test_lr_regularization_shrinks_weights():
    X, y = _blobs(100, seed=5, gap=6.0)
    loose = LogisticRegressionClassifier(C=1e6).fit(X, y)
    tight = LogisticRegressionClassifier(C=1e-2).fit(X, y)
    assert np.linalg.norm(tight.coef_) < np.linalg.norm(loose.coef_)


@pytest.mark.parametrize("C", [1e308, math.inf])
def test_lr_constant_column_keeps_weight_zero_without_penalty(C):
    # At lambda 1/C ~ 0 the constant column's Hessian row is all but empty; the
    # Newton system must stay solvable and leave that weight at exactly 0.
    X, y = _blobs(120, seed=6)
    X = np.column_stack([X[:, 0], np.full(len(X), 5.0), X[:, 1]])
    model = LogisticRegressionClassifier(C=C).fit(X, y)
    assert model.coef_[1] == 0.0
    assert np.all(np.isfinite(model.coef_)) and math.isfinite(model.intercept_)
    assert model.gradient_max_norm_ <= 1e-8


def test_lr_column_constant_at_an_inexact_mean_keeps_weight_zero():
    # 0.1 over 120 rows has a mean that does not round back to 0.1 and an SD
    # of 2.2e-16; scaled by that SD, a predict-time 0.2 would move the margin
    # by about 245.
    X, y = _blobs(120, seed=3)
    X = np.column_stack([X, np.full(len(X), 0.1)])
    model = LogisticRegressionClassifier(C=1e6).fit(X, y)
    assert (model.mean_[2], model.scale_[2], model.coef_[2]) == (0.1, 1.0, 0.0)
    assert np.all(model.standardize(X)[:, 2] == 0.0)
    shifted = np.column_stack([X[:, :2], np.full(len(X), 0.2)])
    assert model.predict_proba(shifted).tolist() == model.predict_proba(X).tolist()


def test_lr_converges_on_separable_blobs():
    # 60 SDs apart, so only the 1e-6 penalty keeps the weights finite; the
    # fit must not overflow or divide by zero on the way (RuntimeWarning).
    X, y = _blobs(100, seed=7, gap=60.0)
    model = LogisticRegressionClassifier(C=1e6).fit(X, y)
    assert model.gradient_max_norm_ <= 1e-8 and model.n_iter_ < model.max_iter
    assert np.all(np.isfinite(model.coef_)) and math.isfinite(model.intercept_)
    assert np.all((model.predict_proba(X) >= 0.5) == y)


def test_lr_max_iter_caps_newton_steps():
    X, y = _blobs(120, seed=8)
    model = LogisticRegressionClassifier(max_iter=1).fit(X, y)
    assert model.n_iter_ == 1
    assert model.gradient_max_norm_ > model.tol * 1e-2  # one step is not enough


@pytest.mark.parametrize("cls", [LogisticRegressionClassifier, RandomForestClassifier,
                                 GradientBoostingClassifier], ids=lambda cls: cls.__name__)
def test_lr_rejects_single_class(cls):
    X = np.zeros((5, 2))
    with pytest.raises(ValueError):
        cls().fit(X, np.zeros(5))


@pytest.mark.parametrize("X, n_features, message", [
    (np.zeros((2, 2, 2)), None, "expected a 2-d matrix, got ndim=3"),
    ([[0.0, math.nan]], None, "X contains non-finite values"),
    ([[0.0, math.inf]], 2, "X contains non-finite values"),
    (np.zeros((3, 2)), 3, "X has 2 features, expected 3"),
])
def test_check_X_rejects(X, n_features, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_X(X, n_features)


def test_check_X_y_rejects_a_length_mismatch():
    with pytest.raises(ValueError, match="y length does not match X"):
        check_X_y(np.zeros((3, 1)), [0, 1])


def test_fractional_labels_rejected_not_truncated():
    # 0.5 must not be cast to 0 before the 0/1 check.
    with pytest.raises(ValueError, match="binary"):
        check_X_y(np.zeros((3, 1)), [0.5, 1, 0])


# ---------------------------------------------------------------------------
# tree ensembles

def test_ensemble_validation():
    with pytest.raises(ValueError):
        TreeEnsemble(kind="stacking", trees=[])
    with pytest.raises(ValueError):
        TreeEnsemble(kind="random-forest", trees=[], shrinkage=0.5)
    with pytest.raises(ValueError):
        TreeEnsemble(kind="gradient-boosting", trees=[], shrinkage=0.0)


def test_forest_deterministic_given_seed():
    X, y = _blobs(80, seed=6)
    a = RandomForestClassifier(n_estimators=5, seed=1).fit(X, y)
    b = RandomForestClassifier(n_estimators=5, seed=1).fit(X, y)
    c = RandomForestClassifier(n_estimators=5, seed=2).fit(X, y)
    np.testing.assert_array_equal(a.predict_proba(X), b.predict_proba(X))
    assert not np.array_equal(a.predict_proba(X), c.predict_proba(X))


def test_forest_probabilities_and_accuracy():
    X, y = _blobs(200, seed=7, gap=3.0)
    model = RandomForestClassifier(n_estimators=25, max_depth=6,
                                   min_samples_leaf=2, seed=0).fit(X, y)
    proba = model.predict_proba(X)
    assert np.all((proba >= 0) & (proba <= 1))
    assert np.mean((model.predict_proba(X) >= 0.5) == y) > 0.95


def test_forest_margin_undefined():
    X, y = _blobs(40, seed=8)
    model = RandomForestClassifier(n_estimators=3, seed=0).fit(X, y)
    with pytest.raises(ValueError):
        model.predict_margin(X)


def test_gb_base_score_is_logit_prevalence():
    X, y = _blobs(100, seed=9)
    model = GradientBoostingClassifier(n_estimators=3).fit(X, y)
    assert model.base_score == pytest.approx(logit(float(np.mean(y))))


def test_gb_training_deviance_nonincreasing():
    X, y = _blobs(150, seed=10)
    model = GradientBoostingClassifier(n_estimators=40, max_depth=3,
                                       min_samples_leaf=5).fit(X, y)
    dev = model.train_deviance
    assert len(dev) == 40
    assert all(b <= a + 1e-12 for a, b in zip(dev, dev[1:]))


def test_gb_zero_rows_errors():
    # grow_tree's one caller rejects zero rows before any tree is grown
    with pytest.raises(ValueError, match="fewer than two classes"):
        GradientBoostingClassifier().fit(np.zeros((0, 1)), np.zeros(0))


def test_gb_deterministic():
    X, y = _blobs(80, seed=11)
    a = GradientBoostingClassifier(n_estimators=5).fit(X, y)
    b = GradientBoostingClassifier(n_estimators=5).fit(X, y)
    np.testing.assert_array_equal(a.predict_proba(X), b.predict_proba(X))


def test_gb_margin_probability_consistent():
    X, y = _blobs(100, seed=12)
    model = GradientBoostingClassifier(n_estimators=10).fit(X, y)
    np.testing.assert_allclose(model.predict_proba(X),
                               logistic(model.predict_margin(X)))


def _per_tree(model: TreeEnsemble, X) -> np.ndarray:
    """The per-tree loop the forest walk replaced, over DecisionTree.predict:
    the margin for boosting, the probability for a forest."""
    if model.kind == "gradient-boosting":
        margin = np.full(len(X), model.base_score)
        for tree in model.trees:
            margin += model.shrinkage * tree.predict(X)
        return margin
    acc = np.zeros(len(X))
    for tree in model.trees:
        acc += tree.predict(X)
    return acc / len(model.trees)


def _scalar_leaf(tree: DecisionTree, x) -> int:
    node = 0
    while tree.feature[node] != LEAF:
        go_left = x[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return int(node)


def _walk_cases():
    """Random GB and RF ensembles, one with a root-leaf tree in it, and rows
    of which every other one sits exactly on a threshold."""
    rng = SplitMix64(21)
    X = np.array([[float(rng.randint_below(5)) for _ in range(4)] for _ in range(150)])
    X[:, 1] += np.array([rng.random() for _ in range(150)])
    y = (X[:, 0] + X[:, 1] > 3.5).astype(int)
    gb = GradientBoostingClassifier(n_estimators=30, max_depth=3, min_samples_leaf=2).fit(X, y)
    rf = RandomForestClassifier(n_estimators=40, max_depth=7, min_samples_leaf=1,
                                seed=4).fit(X, y)
    leaf = mean_tree(X, np.full(len(X), 0.25), max_depth=3, min_samples_leaf=1)
    assert leaf.n_nodes == 1
    mixed = [TreeEnsemble("gradient-boosting", [leaf, *gb.trees[:5], leaf], base_score=-0.3,
                          shrinkage=0.5),
             TreeEnsemble("random-forest", [leaf, *rf.trees[:5]])]
    rows = np.vstack([X] * 3)
    for i, tree in enumerate(rf.trees[:len(rows) // 2]):
        if tree.n_nodes > 1:
            rows[2 * i, tree.feature[0]] = tree.threshold[0]
    return [gb, rf, *mixed], rows


def test_forest_walk_matches_the_per_tree_loop(monkeypatch):
    models, rows = _walk_cases()
    on_threshold = 0
    for tree in models[1].trees:
        on_threshold += int(np.sum(rows[:, tree.feature[0]] == tree.threshold[0]))
        [(_, [leaves])] = tree_mod.walk(tree_mod.flatten([tree]), rows[:40])
        assert leaves.tolist() == [_scalar_leaf(tree, x) for x in rows[:40]]
    assert on_threshold >= 40
    # the default block, then blocks of a few rows, then of one row
    default = tree_mod._WALK_PAIRS
    for pairs in (default, 97, 1):
        monkeypatch.setattr(tree_mod, "_WALK_PAIRS", pairs)
        for model in models:
            blocks = list(tree_mod.walk(tree_mod.flatten(model.trees), rows))
            assert len(blocks) > 1 or pairs == default
            expected = _per_tree(model, rows)
            if model.kind == "gradient-boosting":
                assert model.predict_margin(rows).tobytes() == expected.tobytes()
                expected = logistic(expected)
            assert model.predict_proba(rows).tobytes() == expected.tobytes()
            assert model.predict_proba(rows[:0]).shape == (0,)
    with pytest.raises(TreeError, match="1 columns"):
        models[0].predict_proba(rows[:, :1])


def test_forest_walk_memory_is_bounded_by_its_block():
    # Routing every (tree, row) pair at once would hold 8 MiB per array here.
    rng = SplitMix64(22)
    X = np.array([[rng.random() for _ in range(3)] for _ in range(300)])
    y = (X[:, 0] + X[:, 1] > 1.0).astype(int)
    model = RandomForestClassifier(n_estimators=50, max_depth=6, min_samples_leaf=3,
                                   seed=5).fit(X, y)
    rows = np.tile(X, (70, 1))  # 21,000 rows, 1,050,000 pairs
    tracemalloc.start()
    try:
        proba = model.predict_proba(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert proba.tobytes() == _per_tree(model, rows).tobytes()
    assert peak < 64 * tree_mod._WALK_PAIRS + 2 * rows.nbytes


def test_ensembles_that_share_trees_keep_their_own_nodes():
    # An ensemble holds the trees it was given and a table of its own: trees
    # given to two ensembles, or twice to one, are left as they were.
    X, y = _blobs(seed=7)
    given = RandomForestClassifier(n_estimators=3, max_depth=3, seed=2).fit(X, y).trees
    arrays = [vars(tree).copy() for tree in given]
    twice = TreeEnsemble("random-forest", [given[1], given[1], given[0]])
    pair = TreeEnsemble("gradient-boosting", given[:2], base_score=0.2, shrinkage=0.5)
    for tree, fields in zip(given, arrays):
        assert all(getattr(tree, name) is array for name, array in fields.items())
    for ensemble, trees in ((twice, [given[1], given[1], given[0]]), (pair, given[:2])):
        assert isinstance(ensemble.trees, tuple)
        assert all(ensemble.trees[i] is tree for i, tree in enumerate(trees))
    steps = [tree.predict(X) for tree in given]
    assert twice.predict_proba(X).tobytes() == ((steps[1] + steps[1] + steps[0]) / 3).tobytes()
    margin = 0.2 + 0.5 * steps[0] + 0.5 * steps[1]
    assert pair.predict_margin(X).tobytes() == margin.tobytes()


def test_ensemble_json_roundtrip():
    # Every model kind survives to_dict -> JSON text -> its loader exactly.
    X, y = _blobs(60, seed=13)
    X = X * [1.0, 50.0] + [0.0, 100.0]  # give the standardizer work to do
    fitted = [
        (LogisticRegressionClassifier(C=0.5).fit(X, y), LogisticRegressionClassifier.from_dict),
        (RandomForestClassifier(n_estimators=3, min_samples_leaf=3, seed=2).fit(X, y),
         TreeEnsemble.from_dict),
        (GradientBoostingClassifier(n_estimators=4).fit(X, y), TreeEnsemble.from_dict),
    ]
    for model, load in fitted:
        again = load(json.loads(json.dumps(model.to_dict())))
        np.testing.assert_array_equal(again.predict_proba(X), model.predict_proba(X))
        assert type(again) is type(model)  # the reload is the fitted model's class
        assert again.to_dict() == model.to_dict()
    gb = fitted[2][0]
    doc = json.loads(json.dumps(gb.to_dict()))
    assert doc["train_deviance"] == gb.train_deviance
    again = TreeEnsemble.from_dict(doc)
    assert again.base_score == gb.base_score
    assert again.shrinkage == gb.shrinkage


@pytest.mark.parametrize("edit, problem", [
    (lambda doc: doc.pop("kind"), "kind"),
    (lambda doc: doc.pop("trees"), "trees"),
    (lambda doc: doc.update(kind="stacking"), "stacking"),
    (lambda doc: doc.update(schema_version=2), "schema_version 2"),
    (lambda doc: doc.pop("schema_version"), "schema_version"),
    (lambda doc: doc.update(base_score="0.1"), "base_score"),
    (lambda doc: doc.update(trees=[]), "empty forest"),
    (lambda doc: doc["trees"][1]["nodes"][0].update(left=0), "child"),
    (lambda doc: doc.update(base_score=math.nan), "base_score"),
    (lambda doc: doc.update(base_score=-math.inf), "base_score"),
    (lambda doc: doc.update(shrinkage=True), "shrinkage"),
    (lambda doc: doc.update(train_deviance=[0.9, 0.8, 0.7]), "forests have no train_deviance"),
    (lambda doc: doc.update(kind="gradient-boosting", train_deviance=[0.9, math.nan, 0.7]),
     "train_deviance"),
    (lambda doc: doc.update(kind="gradient-boosting", train_deviance=[0.9, "0.8", 0.7]),
     "train_deviance"),
    (lambda doc: doc.update(kind="gradient-boosting", train_deviance=0.9), "train_deviance"),
    (lambda doc: doc.update(kind="gradient-boosting", train_deviance=[0.9]),
     "one value per tree"),
], ids=["no-kind", "no-trees", "unknown-kind", "schema-version-2", "no-schema-version",
        "string-base-score", "no-trees-in-forest", "cyclic-tree", "nan-base-score",
        "inf-base-score", "bool-shrinkage", "forest-train-deviance", "nan-train-deviance",
        "string-train-deviance", "scalar-train-deviance", "short-train-deviance"])
def test_ensemble_from_dict_rejects_malformed(edit, problem):
    X, y = _blobs(60, seed=13)
    doc = RandomForestClassifier(n_estimators=3, min_samples_leaf=3, seed=2).fit(X, y).to_dict()
    edit(doc)
    with pytest.raises(TreeError, match=problem):
        TreeEnsemble.from_dict(doc)


def test_scaled_logistic_matches_manual_pipeline():
    # The model is the L2 fit on inputs standardized by hand with numpy.
    X, y = _blobs(80, seed=15)
    X = X * [3.0, 0.2] + [10.0, -4.0]
    model = LogisticRegressionClassifier(C=2.0).fit(X, y)
    Z = (X - X.mean(axis=0)) / X.std(axis=0)
    np.testing.assert_array_equal(model.standardize(X), Z)
    params = np.append(model.coef_, model.intercept_)
    _, grad = model._objective(params, Z, y)
    assert float(np.max(np.abs(grad))) == model.gradient_max_norm_ <= 1e-5
    np.testing.assert_allclose(model.predict_proba(X),
                               1.0 / (1.0 + np.exp(-(Z @ model.coef_ + model.intercept_))),
                               rtol=1e-12)
    assert sorted(model.to_dict()) == ["gradient_max_norm", "intercept", "kind",
                                       "standardizer", "weights"]


def test_expected_output_matches_mean_prediction_gb():
    # Path-dependent expectations use covers from training, so the ensemble
    # expectation equals the cover-weighted mean; for boosting on its own
    # training set this is close to, but defined independently of, the
    # empirical mean margin.
    X, y = _blobs(80, seed=14)
    model = GradientBoostingClassifier(n_estimators=5).fit(X, y)
    expected = model.expected_output()
    empirical = float(np.mean(model.predict_margin(X)))
    assert expected == pytest.approx(empirical, abs=1e-8)
