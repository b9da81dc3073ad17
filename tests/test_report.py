"""Deterministic SVG rendering (golden files) and table statistics."""

import os

import numpy as np
import pytest

from conftest import make_matrix
from multisys.ingest import ColumnSchema
from multisys.report import (
    ReportError, render_beeswarm, render_burden_distribution,
    render_correlation_heatmap, render_histogram_grid, render_importance_bar,
    render_pdp_panel, render_roc, table_summary,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _check_golden(name: str, svg: str):
    path = os.path.join(GOLDEN, name)
    with open(path, encoding="utf-8") as fh:
        assert svg == fh.read(), f"{name} drifted from its golden copy"


def _columns():
    x = np.linspace(0.0, 10.0, 50)
    return [("A", x), ("B", np.sqrt(x)), ("C", x**2)]


def test_histogram_grid_golden():
    svg = render_histogram_grid(_columns())
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    _check_golden("histograms.svg", svg)


def test_histogram_grid_empty_errors():
    with pytest.raises(ReportError):
        render_histogram_grid([])


def test_burden_distribution_golden():
    burden = np.array([0, 0, 1, 2, 2, 3, 5])
    affected = np.array([0, 0, 1, 1, 2, 2, 3])
    svg = render_burden_distribution(burden, affected)
    assert "Burden score" in svg and "Affected systems" in svg
    _check_golden("burden.svg", svg)


def test_correlation_heatmap_golden():
    names = ["A", "B", "C"]
    corr = np.array([[1.0, 0.5, -0.8], [0.5, 1.0, 0.0], [-0.8, 0.0, 1.0]])
    svg = render_correlation_heatmap(names, corr)
    assert "#0000ff" in svg  # diagonal r = 1 is saturated blue
    assert "#ffffff" in svg  # r = 0 is white
    assert "#ff3333" in svg  # r = -0.8 is mostly red
    _check_golden("correlation.svg", svg)


def test_correlation_heatmap_shape_mismatch():
    with pytest.raises(ReportError):
        render_correlation_heatmap(["A"], np.eye(2))


def test_roc_golden():
    fpr = np.array([0.0, 0.0, 0.5, 1.0])
    tpr = np.array([0.0, 0.5, 1.0, 1.0])
    svg = render_roc([("model", fpr, tpr, 0.875)])
    assert "AUC 0.875" in svg
    assert "stroke-dasharray" in svg  # diagonal reference line
    _check_golden("roc.svg", svg)


def test_beeswarm_golden():
    # each patient row's GLU entry, then its TG entry
    rows = np.arange(12)
    shap = np.column_stack([(rows - 6) / 10, (6 - rows) / 20]).ravel()
    value = np.column_stack([rows * 1.0, rows * 2.0]).ravel()
    svg = render_beeswarm(["GLU", "TG"] * 12, shap, value, np.repeat(rows, 2),
                          np.tile([1, 2], 12))
    assert "GLU" in svg and "TG" in svg
    _check_golden("beeswarm.svg", svg)


def test_beeswarm_empty_errors():
    empty = np.zeros(0)
    with pytest.raises(ReportError):
        render_beeswarm([], empty, empty, empty.astype(int), empty.astype(int))


def test_importance_bar_golden():
    svg = render_importance_bar([("GLU", 1.25), ("TG", 0.5), ("Cr", 0.125)])
    assert "1.2500" in svg
    _check_golden("importance.svg", svg)


def test_importance_bar_empty_errors():
    with pytest.raises(ReportError):
        render_importance_bar([])


def test_pdp_panel_golden():
    grid = np.linspace(4.0, 12.0, 10)
    response = 1.0 / (1.0 + np.exp(-(grid - 7.0)))
    svg = render_pdp_panel([("GLU", grid, response)])
    assert "GLU" in svg
    _check_golden("pdp.svg", svg)


def test_pdp_panel_empty_errors():
    with pytest.raises(ReportError):
        render_pdp_panel([])


# ---------------------------------------------------------------------------
# table statistics

def test_table_summary_quantile_oracle():
    schema = [ColumnSchema("A", "continuous")]
    matrix = make_matrix([[1.0], [2.0], [3.0], [4.0]], schema)
    table = table_summary(matrix)
    assert list(table) == ["analyte", "mean", "median", "iqr", "min", "max"]
    # linear-interpolation quartiles of {1,2,3,4}: q1=1.75, q3=3.25
    assert table["analyte"] == ["A"]
    assert table["iqr"] == [pytest.approx(1.5)]
    assert table["median"] == [2.5]
    assert table["mean"] == [2.5]
    assert table["min"] == [1.0] and table["max"] == [4.0]


def test_table_summary_empty_errors():
    schema = [ColumnSchema("A", "continuous")]
    matrix = make_matrix(np.zeros((0, 1)), schema)
    with pytest.raises(ReportError):
        table_summary(matrix)
