"""Deterministic stratified holdout and k-fold partitioning.

Randomness comes exclusively from a SplitMix64-driven Fisher-Yates shuffle,
so partitions are bit-identical across runs and platforms for a given seed.

Subset size policy: the test subset receives ceil(n * test_ratio) rows and
the validation subset floor(n * val_ratio); the training subset takes the
rest.  Per-class counts inside each subset are apportioned by the
largest-remainder method (ties to the lower class label).  With n = 1195 and
ratios 70:15:15 this yields the canonical 836/179/180 subset sizes for any
label composition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .base import MultisysError
from .rng import SplitMix64


class SplitError(MultisysError):
    """Invalid ratios or class counts too small for the requested split."""


@dataclass
class Partition:
    train: list[int]
    validation: list[int]
    test: list[int]
    seed: int

    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "train": self.train,
            "validation": self.validation,
            "test": self.test,
        })


@dataclass
class FoldPlan:
    k: int
    assignments: list[int]  # per-row fold id in [0, k)


def _class_members(labels: np.ndarray) -> list[tuple[int, list[int]]]:
    """(label, member indices) pairs in ascending label order."""
    labels = np.asarray(labels)
    out = []
    for value in np.unique(labels):
        out.append((int(value), np.flatnonzero(labels == value).tolist()))
    return out


def _apportion(counts: list[int], total: int) -> list[int]:
    """Largest-remainder apportionment of `total` slots over classes.

    Ties in fractional parts resolve to the lower class position, keeping the
    allocation deterministic.
    """
    pool = sum(counts)
    if total > pool:
        raise SplitError("cannot apportion more slots than members")
    if pool == 0:
        return [0 for _ in counts]
    quotas = [c * total / pool for c in counts]
    alloc = [min(math.floor(q), c) for q, c in zip(quotas, counts)]
    remainder = total - sum(alloc)
    order = sorted(range(len(counts)),
                   key=lambda i: (-(quotas[i] - math.floor(quotas[i])), i))
    pos = 0
    while remainder > 0:
        i = order[pos % len(order)]
        if alloc[i] < counts[i]:
            alloc[i] += 1
            remainder -= 1
        pos += 1
    return alloc


def stratified_split(labels, ratios: tuple[float, float, float],
                     seed: int) -> Partition:
    """Deterministic stratified train/validation/test partition.

    Every class must have at least 3 members; ratios must be positive and sum
    to 1 within 1e-9, and leave every subset at least one row; the labels
    must hold two classes or more.
    """
    labels = np.asarray(labels)
    n = len(labels)
    r_train, r_val, r_test = ratios
    if any(r <= 0 for r in ratios):
        raise SplitError("ratios must be positive")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise SplitError(f"ratios sum to {sum(ratios)}, expected 1")
    classes = _class_members(labels)
    for value, members in classes:
        if len(members) < 3:
            raise SplitError(f"class {value} has only {len(members)} member(s), need >= 3")

    n_test = math.ceil(n * r_test - 1e-9)
    n_val = math.floor(n * r_val + 1e-9)
    for subset, size in (("train", n - n_test - n_val), ("validation", n_val), ("test", n_test)):
        if size < 1:
            raise SplitError(f"ratios {list(ratios)} leave the {subset} subset of {n} rows empty")
    if len(classes) < 2:
        raise SplitError(f"every row is of class {classes[0][0]}; a classifier needs two")

    rng = SplitMix64(seed)
    shuffled = []
    for _, members in classes:
        members = list(members)
        rng.shuffle(members)
        shuffled.append(members)

    counts = [len(m) for m in shuffled]
    test_alloc = _apportion(counts, n_test)
    remaining = [c - t for c, t in zip(counts, test_alloc)]
    val_alloc = _apportion(remaining, n_val)

    train: list[int] = []
    validation: list[int] = []
    test: list[int] = []
    for members, t, v in zip(shuffled, test_alloc, val_alloc):
        n_tr = len(members) - t - v
        train.extend(members[:n_tr])
        validation.extend(members[n_tr:n_tr + v])
        test.extend(members[n_tr + v:])
    return Partition(train=sorted(train), validation=sorted(validation),
                     test=sorted(test), seed=seed)


def stratified_kfold(labels, k: int, seed: int) -> FoldPlan:
    """Per-class round-robin fold assignment after a seeded shuffle."""
    labels = np.asarray(labels)
    if k < 2:
        raise SplitError("k must be >= 2")
    classes = _class_members(labels)
    for value, members in classes:
        if len(members) < k:
            raise SplitError(f"class {value} has {len(members)} member(s), fewer than k={k}")
    rng = SplitMix64(seed)
    assignments = [0] * len(labels)
    for _, members in classes:
        members = list(members)
        rng.shuffle(members)
        for pos, row in enumerate(members):
            assignments[row] = pos % k
    return FoldPlan(k=k, assignments=assignments)
