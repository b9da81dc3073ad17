"""Stratified holdout and k-fold partitioning properties."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multisys.rng import SplitMix64
from multisys.split import (
    Partition, SplitError, _apportion, stratified_kfold,
    stratified_split,
)

RATIOS = (0.70, 0.15, 0.15)


def _labels(n, n_pos, seed=0):
    y = np.zeros(n, dtype=int)
    y[:n_pos] = 1
    rng = SplitMix64(seed)
    items = list(y)
    rng.shuffle(items)
    return np.asarray(items)


def test_canonical_sizes_836_179_180():
    y = _labels(1195, 200)
    part = stratified_split(y, RATIOS, 42)
    assert (len(part.train), len(part.validation), len(part.test)) == (836, 179, 180)


@given(st.integers(min_value=3, max_value=400))
@settings(max_examples=30, deadline=None)
def test_canonical_sizes_for_any_composition(n_pos):
    # Subset sizes depend only on n, not on the class composition.
    y = _labels(1195, n_pos, seed=n_pos)
    part = stratified_split(y, RATIOS, 1)
    assert (len(part.train), len(part.validation), len(part.test)) == (836, 179, 180)


def test_partition_covers_disjointly():
    y = _labels(200, 40)
    part = stratified_split(y, RATIOS, 9)
    all_idx = sorted(part.train + part.validation + part.test)
    assert all_idx == list(range(200))


def test_partition_is_stratified():
    y = _labels(1195, 200)
    part = stratified_split(y, RATIOS, 42)
    for subset in (part.train, part.validation, part.test):
        prevalence = np.mean(y[np.asarray(subset)])
        assert abs(prevalence - 200 / 1195) < 0.01


def test_partition_deterministic_and_seed_sensitive():
    y = _labels(300, 60)
    a = stratified_split(y, RATIOS, 5)
    b = stratified_split(y, RATIOS, 5)
    c = stratified_split(y, RATIOS, 6)
    assert a.test == b.test and a.train == b.train
    assert a.test != c.test


def test_split_errors():
    with pytest.raises(SplitError):
        stratified_split([0, 0, 0, 1, 1], RATIOS, 0)  # class 1 too small...
    with pytest.raises(SplitError):
        stratified_split(_labels(100, 20), (0.5, 0.3, 0.3), 0)  # sum > 1
    with pytest.raises(SplitError):
        stratified_split(_labels(100, 20), (1.0, 0.0, 0.0), 0)  # zero ratio


@pytest.mark.parametrize("labels, ratios, subset", [
    (_labels(19, 4), (0.9, 0.05, 0.05), "validation"),  # floor(19 * 0.05) = 0
    ([0, 0, 0], (0.1, 0.4, 0.5), "train"),  # 3 - ceil(1.5) - floor(1.2) = 0
    (_labels(100, 20), (0.5, 0.5 - 1e-12, 1e-12), "test"),  # ceil(1e-10 - 1e-9) = 0
], ids=["validation", "train", "test"])
def test_split_rejects_an_empty_subset(labels, ratios, subset):
    with pytest.raises(SplitError, match=f"the {subset} subset"):
        stratified_split(labels, ratios, 0)


def test_apportion_hand_cases():
    # 10 slots over quotas 6.67/3.33 -> 7/3
    assert _apportion([100, 50], 10) == [7, 3]
    # Exact proportions stay exact.
    assert _apportion([60, 40], 10) == [6, 4]
    # Fractional tie (0.5/0.5) resolves to the lower class position.
    assert _apportion([50, 50], 5) == [3, 2]
    # Cannot exceed the pool.
    with pytest.raises(SplitError):
        _apportion([2, 2], 5)


def test_apportion_total_preserved():
    rng = SplitMix64(1)
    for _ in range(50):
        counts = [rng.randint_below(40) + 1 for _ in range(4)]
        total = rng.randint_below(sum(counts) + 1)
        alloc = _apportion(counts, total)
        assert sum(alloc) == total
        assert all(0 <= a <= c for a, c in zip(alloc, counts))


def test_partition_json_roundtrip():
    y = _labels(100, 20)
    part = stratified_split(y, RATIOS, 3)
    again = Partition(**json.loads(part.to_json()))
    assert again == part


# ---------------------------------------------------------------------------
# k-fold

def test_kfold_balanced_and_stratified():
    y = _labels(500, 100)
    plan = stratified_kfold(y, 5, 42)
    folds = [np.flatnonzero(np.asarray(plan.assignments) == f) for f in range(5)]
    sizes = [len(fold) for fold in folds]
    assert sum(sizes) == 500
    assert max(sizes) - min(sizes) <= 2
    for fold in folds:
        fold_y = y[fold]
        assert abs(np.mean(fold_y) - 0.2) < 0.03


def test_kfold_deterministic():
    y = _labels(100, 30)
    assert stratified_kfold(y, 4, 7).assignments == stratified_kfold(y, 4, 7).assignments


def test_kfold_errors():
    with pytest.raises(SplitError):
        stratified_kfold([0, 1] * 10, 1, 0)
    with pytest.raises(SplitError):
        stratified_kfold([0] * 20 + [1] * 3, 5, 0)  # class 1 smaller than k
