"""Deterministic SVG figures and descriptive tables.

SVG is emitted directly (no plotting library) so output is a pure function
of its inputs: no timestamps, no randomness, fixed float formatting.  Each
figure kind mirrors one of the pipeline's standard visual summaries:
histogram grids, burden distributions, a correlation heatmap, ROC curves,
a Shapley beeswarm, an importance bar chart and partial-dependence panels.
"""

from __future__ import annotations

import numpy as np

from .base import MultisysError
from .ingest import FeatureMatrix


class ReportError(MultisysError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _text(x: float, y: float, s: str, size: int = 10, anchor: str = "start") -> str:
    s = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")  # as XML text
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}">{s}</text>')


def _rect(x, y, w, h, fill, stroke="none") -> str:
    return (f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{fill}" stroke="{stroke}"/>')


def _line(x1, y1, x2, y2, stroke="#000", dash: str | None = None) -> str:
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{stroke}" stroke-width="1"{extra}/>')


def _polyline(points: list[tuple[float, float]], stroke: str) -> str:
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    return f'<polyline points="{pts}" fill="none" stroke="{stroke}" stroke-width="1.5"/>'


def _circle(x, y, r, fill) -> str:
    return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{fill}"/>'


TOP_FEATURES = 10  # features shown in the beeswarm and the importance bar chart
_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def _hist_panel(x0: float, y0: float, w: float, h: float, name: str,
                values: np.ndarray, bins: int) -> list[str]:
    body = [_rect(x0, y0, w, h, "none", stroke="#999"),
            _text(x0 + 4, y0 + 12, name, size=10)]
    lo, hi = float(np.min(values)), float(np.max(values))
    counts = (np.array([len(values)]) if hi == lo
              else np.histogram(values, bins=bins, range=(lo, hi))[0])
    peak = counts.max()
    plot_h = h - 20
    bw = w / len(counts)
    for i, count in enumerate(counts):
        if count == 0:
            continue
        bar_h = plot_h * count / peak
        body.append(_rect(x0 + i * bw, y0 + h - bar_h, bw, bar_h, "#4878a8"))
    body.append(_text(x0 + 4, y0 + h - 2, _fmt(lo), size=7))
    body.append(_text(x0 + w - 4, y0 + h - 2, _fmt(hi), size=7, anchor="end"))
    return body


def render_histogram_grid(columns: list[tuple[str, np.ndarray]],
                          bins: int = 40, per_row: int = 4) -> str:
    """Grid of per-analyte frequency histograms, 40 bins per panel."""
    if not columns:
        raise ReportError("no columns to plot")
    panel_w, panel_h, pad = 220, 160, 10
    rows = (len(columns) + per_row - 1) // per_row
    body = []
    for i, (name, values) in enumerate(columns):
        r, c = divmod(i, per_row)
        body.extend(_hist_panel(pad + c * (panel_w + pad), pad + r * (panel_h + pad),
                                panel_w, panel_h, name, np.asarray(values, dtype=float), bins))
    return _svg(pad + per_row * (panel_w + pad), pad + rows * (panel_h + pad), body)


def _bar_panel(x0, y0, w, h, title, labels, counts) -> list[str]:
    body = [_rect(x0, y0, w, h, "none", stroke="#999"),
            _text(x0 + w / 2, y0 + 14, title, size=11, anchor="middle")]
    peak = max(max(counts), 1)
    plot_h = h - 40
    bw = w / max(len(counts), 1)
    for i, count in enumerate(counts):
        bar_h = plot_h * count / peak
        body.append(_rect(x0 + i * bw + 3, y0 + h - 16 - bar_h, bw - 6, bar_h, "#4878a8"))
        body.append(_text(x0 + (i + 0.5) * bw, y0 + h - 4, str(labels[i]), size=9, anchor="middle"))
        body.append(_text(x0 + (i + 0.5) * bw, y0 + h - 20 - bar_h, str(count), size=8, anchor="middle"))
    return body


def render_burden_distribution(burden_score: np.ndarray,
                               affected_systems: np.ndarray) -> str:
    """Side-by-side distributions of burden score and affected-system count."""
    burden_score = np.asarray(burden_score, dtype=int)
    affected_systems = np.asarray(affected_systems, dtype=int)
    body = []
    b_levels = list(range(int(burden_score.max()) + 1))
    a_levels = list(range(int(affected_systems.max()) + 1))
    b_counts = [int(np.sum(burden_score == v)) for v in b_levels]
    a_counts = [int(np.sum(affected_systems == v)) for v in a_levels]
    body.extend(_bar_panel(10, 10, 320, 220, "Burden score", b_levels, b_counts))
    body.extend(_bar_panel(350, 10, 320, 220, "Affected systems", a_levels, a_counts))
    return _svg(680, 240, body)


def _corr_color(r: float) -> str:
    """Map r in [-1, 1] onto red (negative) .. white .. blue (positive)."""
    r = max(-1.0, min(1.0, r))
    if r >= 0:
        # white -> blue
        other = int(round(255 * (1 - r)))
        return f"#{other:02x}{other:02x}ff"
    other = int(round(255 * (1 + r)))
    return f"#ff{other:02x}{other:02x}"


def render_correlation_heatmap(names: list[str], corr: np.ndarray) -> str:
    corr = np.asarray(corr, dtype=float)
    p = len(names)
    if corr.shape != (p, p):
        raise ReportError("correlation matrix shape does not match names")
    cell, label_w = 18, 60
    size = label_w + p * cell + 20
    body = []
    for i in range(p):
        body.append(_text(label_w - 4, label_w + (i + 0.7) * cell, names[i],
                          size=8, anchor="end"))
        body.append(_text(label_w + (i + 0.5) * cell, label_w - 4, names[i], size=8,
                          anchor="middle"))
        for j in range(p):
            body.append(_rect(label_w + j * cell, label_w + i * cell, cell, cell,
                              _corr_color(corr[i, j]), stroke="#ddd"))
    return _svg(size, size, body)


def render_roc(curves: list[tuple[str, np.ndarray, np.ndarray, float]]) -> str:
    """Labeled ROC curves with the dashed random-classifier diagonal."""
    x0, y0, w, h = 50, 20, 320, 320
    body = [_rect(x0, y0, w, h, "none", stroke="#333"),
            _line(x0, y0 + h, x0 + w, y0, stroke="#888", dash="5,4"),
            _text(x0 + w / 2, y0 + h + 30, "False positive rate", anchor="middle"),
            _text(12, y0 + h / 2, "True positive rate", anchor="middle")]
    for k, (label, fpr, tpr, auc) in enumerate(curves):
        color = _PALETTE[k % len(_PALETTE)]
        points = [(x0 + float(f) * w, y0 + h - float(t) * h) for f, t in zip(fpr, tpr)]
        body.append(_polyline(points, color))
        body.append(_text(x0 + w - 6, y0 + 16 + 14 * k,
                          f"{label} (AUC {auc:.3f})", size=10, anchor="end"))
        body.append(_line(x0 + w - 90, y0 + 12 + 14 * k, x0 + w - 78, y0 + 12 + 14 * k,
                          stroke=color))
    return _svg(x0 + w + 20, y0 + h + 50, body)


def render_beeswarm(feature, shap, value, row, rank) -> str:
    """Per-feature strips of per-patient Shapley values, colored by raw value: a
    point per entry of the columns (names, float and int arrays), one strip per
    (rank, feature), the first TOP_FEATURES in that order."""
    if not len(shap):
        raise ReportError("no records")
    names, code = np.unique(np.asarray(feature, dtype=str), return_inverse=True)
    key = np.asarray(rank) * len(names) + code  # orders strips as (rank, feature) does
    strips = [np.flatnonzero(key == k) for k in np.unique(key)[:TOP_FEATURES]]
    shown = shap[np.concatenate(strips)]
    lo, hi = float(shown.min()), float(shown.max())
    span = (hi - lo) or 1.0
    x0, row_h, w = 90, 34, 420
    height = 20 + row_h * len(strips) + 20
    body = [_line(x0 + (0 - lo) / span * w, 14, x0 + (0 - lo) / span * w,
                  height - 20, stroke="#aaa", dash="3,3")]
    for r, at in enumerate(strips):
        yc = 20 + row_h * r + row_h / 2
        body.append(_text(x0 - 6, yc + 3, names[code[at[0]]], size=10, anchor="end"))
        vlo, vhi = float(value[at].min()), float(value[at].max())
        vspan = (vhi - vlo) or 1.0
        # deterministic vertical stacking: order by shap value within the strip
        at = at[np.lexsort((row[at], shap[at]))]
        for k, (s, v) in enumerate(zip(shap[at].tolist(), value[at].tolist())):
            red = int(round(255 * ((v - vlo) / vspan)))
            body.append(_circle(x0 + (s - lo) / span * w, yc + ((k % 9) - 4) * 2.2, 1.6,
                                f"#{red:02x}40{255 - red:02x}"))
    body.append(_text(x0 + w / 2, height - 4, "Shapley value (impact on model output)",
                      size=10, anchor="middle"))
    return _svg(x0 + w + 20, height, body)


def render_importance_bar(ranking: list[tuple[str, float]]) -> str:
    shown = ranking[:TOP_FEATURES]
    if not shown:
        raise ReportError("empty ranking")
    peak = max(v for _, v in shown) or 1.0
    x0, row_h, w = 90, 24, 380
    height = 20 + row_h * len(shown) + 10
    body = []
    for i, (name, value) in enumerate(shown):
        y = 16 + i * row_h
        bw = w * value / peak
        body.append(_text(x0 - 6, y + 12, name, size=10, anchor="end"))
        body.append(_rect(x0, y, bw, row_h - 8, "#4878a8"))
        body.append(_text(x0 + bw + 4, y + 12, f"{value:.4f}", size=9))
    return _svg(x0 + w + 70, height, body)


def render_pdp_panel(curves: list[tuple[str, np.ndarray, np.ndarray]]) -> str:
    """One panel per feature: probability response over the feature grid."""
    if not curves:
        raise ReportError("no curves")
    panel_w, panel_h, pad = 260, 200, 40
    body = []
    for k, (name, grid, response) in enumerate(curves):
        x0 = pad + k * (panel_w + pad)
        y0 = 20
        body.append(_rect(x0, y0, panel_w, panel_h, "none", stroke="#333"))
        body.append(_text(x0 + panel_w / 2, y0 - 6, name, size=11, anchor="middle"))
        glo, ghi = float(grid[0]), float(grid[-1])
        gspan = (ghi - glo) or 1.0
        points = [
            (x0 + (float(g) - glo) / gspan * panel_w,
             y0 + panel_h - float(r) * panel_h)
            for g, r in zip(grid, response)
        ]
        body.append(_polyline(points, _PALETTE[0]))
        body.append(_text(x0, y0 + panel_h + 14, _fmt(glo), size=8))
        body.append(_text(x0 + panel_w, y0 + panel_h + 14, _fmt(ghi), size=8, anchor="end"))
    return _svg(pad + len(curves) * (panel_w + pad), 270, body)


def table_summary(matrix: FeatureMatrix) -> dict[str, list]:
    """Descriptive statistics per analyte, as columns: analyte, mean, median,
    IQR, min, max.

    Quantiles use linear interpolation between order statistics.  Each
    statistic reduces one column at a time.
    """
    if matrix.values.shape[0] == 0:
        raise ReportError("empty matrix")
    columns = list(matrix.values.T)
    q1, q3 = np.array([np.quantile(col, [0.25, 0.75]) for col in columns]).T
    each = lambda reduce: [float(reduce(col)) for col in columns]  # noqa: E731
    return {"analyte": matrix.names, "mean": each(np.mean), "median": each(np.median),
            "iqr": (q3 - q1).tolist(), "min": each(np.min), "max": each(np.max)}
