"""ROC/AUC, confusion reports and cross-validation aggregation."""

import multiprocessing.pool
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multisys import metrics as metrics_mod
from multisys.cli import MODELS, RunConfig
from multisys.metrics import (
    MetricError, confusion_at, cv_evaluate, cv_refits, roc_auc, roc_curve,
)
from multisys.split import stratified_kfold


def mann_whitney_auc(scores, labels):
    """Pair-counting oracle: (concordant + 0.5 * tied) / (P * N)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_worked_tie_case():
    scores = [0.1, 0.4, 0.4, 0.8]
    labels = [0, 0, 1, 1]
    assert roc_auc(scores, labels) == pytest.approx(0.875)


def test_perfect_and_reversed():
    labels = [0, 0, 1, 1]
    assert roc_auc([0.1, 0.2, 0.8, 0.9], labels) == 1.0
    assert roc_auc([0.9, 0.8, 0.2, 0.1], labels) == 0.0
    assert roc_auc([0.5, 0.5, 0.5, 0.5], labels) == 0.5


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=20),
                          st.integers(min_value=0, max_value=1)),
                min_size=4, max_size=200))
@settings(max_examples=200, deadline=None)
def test_auc_equals_mann_whitney(pairs):
    scores = np.array([s / 20 for s, _ in pairs])
    labels = np.array([l for _, l in pairs])
    if labels.sum() in (0, len(labels)):
        return  # degenerate, covered by the error test
    assert roc_auc(scores, labels) == pytest.approx(
        mann_whitney_auc(scores, labels), abs=1e-12)


def test_roc_curve_endpoints_and_monotone():
    rng = np.random.default_rng(0)
    scores = rng.random(100)
    labels = (rng.random(100) < 0.3).astype(int)
    curve = roc_curve(scores, labels)
    assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
    assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
    assert np.all(np.diff(curve.fpr) >= 0)
    assert np.all(np.diff(curve.tpr) >= 0)
    assert len(curve.fpr) == len(np.unique(scores)) + 1  # one point per distinct score


def test_roc_errors():
    with pytest.raises(MetricError):
        roc_auc([0.5, 0.5], [1, 1])
    with pytest.raises(MetricError):
        roc_auc([0.5], [0, 1])
    with pytest.raises(MetricError):
        roc_auc([0.5, 0.5], [0, 2])


def test_confusion_hand_case():
    scores = [0.9, 0.6, 0.4, 0.1, 0.7]
    labels = [1, 1, 1, 0, 0]
    rep = confusion_at(scores, labels, threshold=0.5)
    assert (rep["tp"], rep["fp"], rep["tn"], rep["fn"]) == (2, 1, 1, 1)
    assert rep["accuracy"] == pytest.approx(3 / 5)
    assert rep["sensitivity"] == pytest.approx(2 / 3)
    assert rep["specificity"] == pytest.approx(1 / 2)
    assert rep["f1"] == pytest.approx(2 * (2 / 3) * (2 / 3) / (2 / 3 + 2 / 3))


def test_confusion_threshold_inclusive():
    rep = confusion_at([0.5, 0.49], [1, 0], threshold=0.5)
    assert rep["tp"] == 1 and rep["tn"] == 1


def test_confusion_f1_zero_division():
    rep = confusion_at([0.1, 0.2, 0.3], [1, 0, 0], threshold=0.9)
    assert rep["tp"] == 0
    assert rep["f1"] == 0.0


def test_confusion_as_dict_keys():
    d = confusion_at([0.9, 0.1], [1, 0])
    assert set(d) == {"tp", "fp", "tn", "fn", "accuracy", "sensitivity",
                      "specificity", "f1", "threshold"}


class _PrevalenceModel:
    """Dummy: scores each row by its first feature."""

    def predict_proba(self, X):
        return np.asarray(X)[:, 0]


def _use_cpus(monkeypatch, n: int) -> None:
    """Give this process an affinity of n CPUs, and so cv_refits a pool that
    wide (no pool at 1)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _cv(fitters, X, y, plan) -> dict:
    with cv_refits(fitters, X, y, plan) as refits:
        return cv_evaluate(refits)


def _first_column(X, y):
    return _PrevalenceModel()


def test_cv_evaluate_with_dummy_fitter(monkeypatch):
    _use_cpus(monkeypatch, 1)
    rng = np.random.default_rng(1)
    n = 100
    X = rng.random((n, 2))
    y = (X[:, 0] > 0.6).astype(int)
    plan = stratified_kfold(y, 4, 0)
    result = _cv({"prevalence": lambda X, y: _PrevalenceModel()}, X, y, plan)["prevalence"]
    assert len(result["cv_fold_aucs"]) == 4
    assert all(a == 1.0 for a in result["cv_fold_aucs"])  # scores are the labels' source
    assert result["cv_auc_mean"] == 1.0
    assert result["cv_auc_sd"] == 0.0


def test_cv_evaluate_wraps_fold_errors(monkeypatch):
    _use_cpus(monkeypatch, 1)
    y = np.array([0, 1] * 10)
    X = np.zeros((20, 1))
    plan = stratified_kfold(y, 2, 0)

    def broken(X, y):
        raise RuntimeError("boom")

    with pytest.raises(MetricError, match="broken fold 0: boom"):
        _cv({"broken": broken}, X, y, plan)


def test_cv_evaluate_is_the_same_through_a_process_pool(fast_config, monkeypatch):
    cfg = RunConfig.load(fast_config)
    fitters = {name: cfg.fitter(kind) for name, kind in MODELS.items()}
    rng = np.random.default_rng(3)
    X = rng.random((90, 5))
    y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.7)).astype(int)
    plan = stratified_kfold(y, 3, 0)
    _use_cpus(monkeypatch, 1)
    serial = _cv(fitters, X, y, plan)
    _use_cpus(monkeypatch, 2)
    pooled = _cv(fitters, X, y, plan)
    assert list(serial) == list(MODELS)
    assert pooled == serial
    assert multiprocessing.active_children() == []  # the block has ended its workers


def _fails_in_worker(X, y):
    raise ValueError(f"raised in process {os.getpid()}")


def test_cv_evaluate_worker_error_names_model_and_fold(monkeypatch):
    _use_cpus(monkeypatch, 2)
    y = np.array([0, 1] * 10)
    X = np.zeros((20, 1))
    plan = stratified_kfold(y, 2, 0)
    with pytest.raises(MetricError, match="broken fold 0: raised") as err:
        _cv({"broken": _fails_in_worker}, X, y, plan)
    assert not str(err.value).endswith(f"process {os.getpid()}")  # it came from a worker
    assert err.value.kind == "MetricError"
    assert multiprocessing.active_children() == []


def test_refit_tasks_leave_X_and_y_to_the_fork_workers(fast_config, monkeypatch):
    # A task names its model, fitter, held-out rows and fold; X and y reach a
    # pool's workers by fork inheritance, so no task pickles them.
    cfg = RunConfig.load(fast_config)
    fitters = {name: cfg.fitter(kind) for name, kind in MODELS.items()}
    rng = np.random.default_rng(4)
    X = rng.random((400, 8))
    y = (X[:, 0] + X[:, 1] > 1.0).astype(int)
    plan = stratified_kfold(y, 3, 0)
    _use_cpus(monkeypatch, 1)
    with cv_refits(fitters, X, y, plan) as refits:
        assert max(len(pickle.dumps(task)) for task in refits.tasks) < X.nbytes / 20
        serial = cv_evaluate(refits)
    _use_cpus(monkeypatch, 2)
    assert _cv(fitters, X, y, plan) == serial


def _refits_of_60_rows():
    rng = np.random.default_rng(5)
    X = rng.random((60, 2))
    y = (X[:, 0] > 0.5).astype(int)
    return cv_refits({"first": _first_column}, X, y, stratified_kfold(y, 3, 0))


@pytest.mark.parametrize("cpus", [1, 2])
def test_aucs_taken_after_the_block_has_ended_raise(monkeypatch, cpus):
    # at width 2 the ended block's workers drop them unstarted, so they must not wait
    _use_cpus(monkeypatch, cpus)
    with _refits_of_60_rows() as refits:
        assert next(refits.aucs) == 1.0
    with pytest.raises(MetricError, match="first fold 1: its cv_refits block has ended"):
        cv_evaluate(refits)


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_block_leaves_no_inputs_behind(monkeypatch, cpus):
    _use_cpus(monkeypatch, cpus)
    with _refits_of_60_rows() as refits:
        assert metrics_mod._inputs[0].shape == (60, 2)
        cv_evaluate(refits)
    assert all(v is None for v in metrics_mod._inputs)
    with pytest.raises(RuntimeError, match="in the block"), _refits_of_60_rows():
        raise RuntimeError("in the block")
    assert all(v is None for v in metrics_mod._inputs)
    assert multiprocessing.active_children() == []


def test_the_block_ends_its_workers_before_the_pool_is_terminated(monkeypatch):
    # Pool.terminate kills the workers where they stand; one killed while it
    # held the result queue's lock leaves the pool's task thread, and so the
    # block's end, waiting on that lock for ever
    alive = []

    class CheckedPool(multiprocessing.pool.Pool):
        def terminate(self):
            alive.append(sum(p.exitcode is None for p in self._pool))
            super().terminate()

    monkeypatch.setattr(multiprocessing.pool, "Pool", CheckedPool)
    _use_cpus(monkeypatch, 2)
    with _refits_of_60_rows() as refits:
        assert next(refits.aucs) == 1.0
    with pytest.raises(RuntimeError, match="in the block"), _refits_of_60_rows():
        raise RuntimeError("in the block")
    assert alive == [0, 0]
