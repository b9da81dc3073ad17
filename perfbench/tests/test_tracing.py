"""Span arithmetic and the agreement of the metric lists with BENCHMARK.json."""

import json
import os

import pytest

import run
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def span(name, start, end, parent=-1, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent, **attrs}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),  # overlaps a: the union is [1, 6]
        span("c", 9.0, 12.0, parent=0),  # runs past its parent: clipped to [9, 10]
        span("a1", 2.0, 3.0, parent=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_merge_offsets_parent_links():
    first = [span("x", 0.0, 1.0), span("y", 0.1, 0.2, parent=0)]
    second = [span("z", 2.0, 3.0), span("w", 2.1, 2.2, parent=0)]
    merged = tracing.merge([first, second])
    assert [s["parent"] for s in merged] == [-1, 0, -1, 2]


def test_layer_metrics_on_a_hand_built_fit():
    spans = [
        span("models.gb.fit", 0.0, 1.0),
        span("tree.grow_tree", 0.1, 0.4, parent=0, nodes=15),
        span("tree.predict", 0.4, 0.5, parent=0),
        span("tree.grow_tree", 0.5, 0.8, parent=0, nodes=15),
        span("models.predict_proba", 2.0, 2.5, rows=10),
        span("models.predict_margin", 2.1, 2.4, parent=4, rows=10),
    ]
    m = tracing.layer_metrics(spans, {"trace.overhead_s": 0.25})
    assert m["models.gb.fit.s"] == pytest.approx(1.0)
    assert m["models.gb.fit.self_s"] == pytest.approx(0.3)
    assert m["tree.grow_tree.calls"] == 2
    assert m["tree.nodes"] == 30
    assert m["tree.us_per_node"] == pytest.approx(0.6e6 / 30)
    assert m["models.predict_proba.s"] == pytest.approx(0.5)  # outermost span only
    assert m["models.predict_rows"] == 10
    assert m["explain.tree_shap.s"] == 0.0
    assert m["trace.overhead_s"] == 0.25
    assert set(m) >= {name for name, _, _ in tracing.PER_LAYER} - {
        "explain.local_accuracy_max_abs"}


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [tuple(m) for m in tracing.PER_LAYER]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
