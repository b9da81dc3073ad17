"""Shared fixtures: tiny schemas, raw CSV factories, a fast run config and a
mean-leaf boosting tree."""

import csv
import json

import numpy as np
import pytest
from hypothesis import settings

from multisys.ingest import ColumnSchema, FeatureMatrix
from multisys.tree import grow_tree, rank_codes

# The seeded mutation test's longer run (a CI step):
# pytest tests/test_mutations.py --hypothesis-profile=mutations
settings.register_profile("mutations", max_examples=2000)


@pytest.fixture
def tiny_schemas():
    return [
        ColumnSchema("Cr", "continuous", "μmol/L", 10, 2000),
        ColumnSchema("GLU", "continuous", "mmol/L", 0.5, 60),
        ColumnSchema("PRO", "semiquant", "", fill_policy="mode"),
    ]


@pytest.fixture
def write_csv(tmp_path):
    """Write (header, rows) to a temp CSV and return its path."""

    def _write(header, rows, name="data.csv"):
        path = tmp_path / name
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return str(path)

    return _write


def make_matrix(values, schemas) -> FeatureMatrix:
    """FeatureMatrix around plain numeric values."""
    return FeatureMatrix(columns=list(schemas), values=np.asarray(values, dtype=float))


def mean_tree(X, y, *, max_depth, min_samples_leaf):
    """`grow_tree`, gradient boosting's variance tree, fitted to y with mean
    leaves over the presort boosting computes."""
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    codes, values = rank_codes(X)
    return grow_tree(X, y, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                     leaf_value=lambda rows: float(np.mean(y[rows])),
                     ranks=(codes, values, np.argsort(codes, axis=1, kind="stable")))


# A small-but-complete run config for pipeline tests (seconds, not minutes).
FAST_CONFIG = {
    "synth": {"n": 160, "seed": 7},
    "split": {"ratios": [0.70, 0.15, 0.15], "seed": 7},
    "cv_folds": 3,
    "models": {
        "random_forest": {"n_estimators": 12, "max_depth": 5,
                          "min_samples_leaf": 5, "seed": 7},
        "gradient_boosting": {"n_estimators": 15, "learning_rate": 0.1,
                              "max_depth": 3, "min_samples_leaf": 5},
    },
}

# Systems under which the default cohort's GB (at 40 trees) ranks NIT third by
# mean |SHAP|, though NIT is 0 in more than 97.5% of the train rows, so that
# its partial dependence grid is one point.
NIT_SYSTEMS = {"systems": [
    {"name": name, "rules": [{"analyte": analyte, "direction": direction, "cutoff": cutoff}
                             for analyte, direction, cutoff in rules]}
    for name, rules in (("a", [("NIT", "at-or-above", 1), ("NIT", "at-or-above", 0.5)]),
                        ("b", [("GLU", "above", 7), ("GLU", "above", 8)]),
                        ("c", [("TG", "above", 1.7), ("TG", "above", 2)]))]}


@pytest.fixture
def fast_config(tmp_path):
    """The path of a file holding FAST_CONFIG."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FAST_CONFIG))
    return str(path)
