"""Static SVG rendering for usability graphs and hypnograms.

Everything is assembled as plain SVG 1.1 text so outputs are byte-stable
across runs and machines. No plotting library is involved.
"""
from __future__ import annotations

import numpy as np

from .aggregate import SleepStage
from .features import acc_norm
from .mobility import MobilityState, TimeInBed
from .signal_io import Recording
from .usability import UsabilityScores

WIDTH = 960
MARGIN_LEFT = 72
MARGIN_RIGHT = 24
TITLE_H = 28
AXIS_H = 26

CLASS_COLORS = {
    0: "#2e7d32",  # usable
    1: "#9e9e9e",  # flat/no data
    2: "#c62828",  # high noise
    3: "#f9a825",  # spiky
    4: "#6a1b9a",  # two-humped
}
CLASS_NAMES = {0: "usable", 1: "no data", 2: "high noise", 3: "spiky", 4: "m-shaped"}
BINARY_COLORS = {0: "#2e7d32", 1: "#c62828"}
BINARY_NAMES = {0: "usable", 1: "unusable"}

# y rank of each stage band, top row first
STAGE_ROWS = (
    (int(SleepStage.WAKE), "W"),
    (int(SleepStage.REM), "REM"),
    (int(SleepStage.N1), "N1"),
    (int(SleepStage.N2), "N2"),
    (int(SleepStage.N3), "N3"),
    (int(SleepStage.UNSCORABLE), "un"),
)

MOBILITY_COLORS = {
    int(MobilityState.IDLE): "#bdbdbd",
    int(MobilityState.LYING): "#1565c0",
    int(MobilityState.STATIONARY): "#26a69a",
    int(MobilityState.MOBILE): "#ef6c00",
}
MOBILITY_NAMES = {0: "idle", 1: "lying", 2: "stationary", 3: "mobile"}

_HEAT_STOPS = ((13, 8, 135), (156, 23, 158), (240, 249, 33))


def _n(v: float) -> str:
    """Format a coordinate: fixed precision, no trailing zeros."""
    s = f"{v:.2f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _heat_colors(t: np.ndarray) -> list[list[str]]:
    """``#rrggbb`` fills of a (rows, cols) array of heat values in [0, 1].

    Red, green and blue are each interpolated linearly between the two
    nearest stops and rounded half to even; values outside [0, 1] take the
    end stops.
    """
    stops = np.asarray(_HEAT_STOPS, dtype=np.float64)
    pos = np.clip(t, 0.0, 1.0) * (len(stops) - 1)
    i = np.minimum(pos.astype(np.int64), len(stops) - 2)
    f = (pos - i)[..., None]
    rgb = np.round(stops[i] + (stops[i + 1] - stops[i]) * f).astype(np.int64)
    codes = (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]
    # a heat map holds far fewer distinct colours than cells: format each once
    distinct, which = np.unique(codes, return_inverse=True)
    names = np.array([f"#{c:06x}" for c in distinct.tolist()])
    return names[which.reshape(codes.shape)].tolist()


def _text(x: float, y: float, s: str, size: int = 12, anchor: str = "start") -> str:
    return (
        f'<text x="{_n(x)}" y="{_n(y)}" font-family="sans-serif" font-size="{size}" '
        f'text-anchor="{anchor}" fill="#212121">{_esc(s)}</text>'
    )


def _rect(x: float, y: float, w: float, h: float, fill: str) -> str:
    return f'<rect x="{_n(x)}" y="{_n(y)}" width="{_n(w)}" height="{_n(h)}" fill="{fill}"/>'


def _runs(values: np.ndarray) -> list[tuple[int, int, int]]:
    """Run-length encode: list of (start, length, value)."""
    out = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] != values[start]:
            out.append((start, i - start, int(values[start])))
            start = i
    return out


def _strip(
    values: np.ndarray, y: float, cell_w: float, h: float, colors: dict[int, str], default=None
) -> list[str]:
    """A rect per run of equal values, ``cell_w`` wide per value, filled with
    the value's colour or ``default``; runs without a colour are not drawn."""
    runs = [(start, length, colors.get(value, default)) for start, length, value in _runs(values)]
    return [_rect(MARGIN_LEFT + a * cell_w, y, n * cell_w, h, c) for a, n, c in runs if c]


def _legend(y: float, names: dict[int, str], colors: dict[int, str]) -> list[str]:
    """A colour swatch and its name for each value, left to right."""
    parts, x = [], MARGIN_LEFT
    for value in sorted(names):
        parts += [_rect(x, y, 12, 12, colors[value]), _text(x + 16, y + 10, names[value], size=11)]
        x += 16 + 8 * len(names[value]) + 24
    return parts


def _time_axis(x0: float, x1: float, y: float, total_s: float) -> list[str]:
    parts = [
        f'<line x1="{_n(x0)}" y1="{_n(y)}" x2="{_n(x1)}" y2="{_n(y)}" '
        'stroke="#616161" stroke-width="1"/>'
    ]
    hours = total_s / 3600.0
    step_h = 1.0 if hours <= 12 else 2.0
    if hours <= 1.0:
        step_h = 0.25
    t = 0.0
    while t <= hours + 1e-9:
        x = x0 + (x1 - x0) * (t * 3600.0 / total_s) if total_s else x0
        parts.append(
            f'<line x1="{_n(x)}" y1="{_n(y)}" x2="{_n(x)}" y2="{_n(y + 4)}" '
            'stroke="#616161" stroke-width="1"/>'
        )
        parts.append(_text(x, y + 16, f"{t:g} h", size=10, anchor="middle"))
        t += step_h
    return parts


def _svg_doc(height: float, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{WIDTH}" '
        f'height="{_n(height)}" viewBox="0 0 {WIDTH} {_n(height)}">\n'
        f'<rect x="0" y="0" width="{WIDTH}" height="{_n(height)}" fill="#ffffff"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def render_usability_graph(
    rec: Recording, scores: UsabilityScores, title: str, binary: bool = False
) -> str:
    """Spectrogram heatmaps, label strips, and the movement trace of one night.

    The heatmaps draw ``scores.spectra``; of ``rec`` only the accelerometer
    is read.
    """
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    n_epochs = scores.n_epochs
    total_s = n_epochs * scores.epoch_len_s
    colors = BINARY_COLORS if binary else CLASS_COLORS
    names = BINARY_NAMES if binary else CLASS_NAMES

    body: list[str] = [_text(MARGIN_LEFT, 19, title, size=15)]
    y = float(TITLE_H)

    heat_h, strip_h, trace_h, gap = 72.0, 14.0, 56.0, 8.0
    col_w = plot_w / n_epochs
    n_rows = 32
    row_h = heat_h / n_rows
    xs = [_n(MARGIN_LEFT + e * col_w) for e in range(n_epochs)]
    cell_size = f'width="{_n(col_w + 0.25)}" height="{_n(row_h + 0.25)}"'

    for name, labels, spectrum in zip(scores.channels, scores.labels, scores.spectra):
        body.append(_text(MARGIN_LEFT - 6, y + heat_h / 2 + 4, name, size=11, anchor="end"))
        power = np.log10(spectrum + 1e-12)  # one column per epoch
        bins = power.shape[1]
        edges = np.linspace(0, bins, n_rows + 1).astype(int)
        rows = np.stack([power[:, a:b].mean(axis=1) for a, b in zip(edges, edges[1:])], axis=1)
        lo, hi = rows.min(), rows.max()
        scale = hi - lo if hi > lo else 1.0
        fills = _heat_colors((rows - lo) / scale)
        # row 0 is the lowest band; draw from the bottom up
        ys = [_n(y + heat_h - (r + 1) * row_h) for r in range(n_rows)]
        for x, column in zip(xs, fills):
            body.extend(
                f'<rect x="{x}" y="{yr}" {cell_size} fill="{fill}"/>'
                for yr, fill in zip(ys, column)
            )
        y += heat_h + 2
        body.extend(_strip(labels, y, col_w, strip_h, colors, "#9e9e9e"))
        y += strip_h + gap

    if rec.acc is not None:
        body.append(_text(MARGIN_LEFT - 6, y + trace_h / 2 + 4, "acc", size=11, anchor="end"))
        buckets = min(len(rec.acc), 1200)
        edges = np.linspace(0, len(rec.acc), buckets + 1).astype(int)
        # the norm of one bucket at a time, not of the whole night
        means = np.array(
            [acc_norm(*rec.acc.physical(a, b)).mean() for a, b in zip(edges, edges[1:])]
        )
        lo, hi = means.min(), means.max()
        span = hi - lo if hi > lo else 1.0
        pts = []
        for i, v in enumerate(means):
            px = MARGIN_LEFT + plot_w * (i + 0.5) / buckets
            py = y + trace_h - trace_h * (v - lo) / span
            pts.append(f"{_n(px)},{_n(py)}")
        body.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="#455a64" '
            'stroke-width="1"/>'
        )
        y += trace_h + gap

    body.extend(_time_axis(MARGIN_LEFT, MARGIN_LEFT + plot_w, y, total_s))
    y += AXIS_H

    body.extend(_legend(y, names, colors))
    return _svg_doc(y + 24, body)


def render_hypnogram(
    scores: np.ndarray,
    epoch_len_s: float,
    title: str,
    mobility: np.ndarray | None = None,
    tib: TimeInBed | None = None,
) -> str:
    """Step chart of artifact-rejected sleep scores, stage W at the top."""
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    n = len(scores)
    total_s = n * epoch_len_s
    row_h = 26.0
    chart_h = row_h * len(STAGE_ROWS)
    y0 = float(TITLE_H)

    row_of = {stage: i for i, (stage, _) in enumerate(STAGE_ROWS)}

    body: list[str] = [_text(MARGIN_LEFT, 19, title, size=15)]
    for i, (stage, label) in enumerate(STAGE_ROWS):
        yy = y0 + (i + 0.5) * row_h
        body.append(_text(MARGIN_LEFT - 8, yy + 4, label, size=11, anchor="end"))
        body.append(
            f'<line x1="{_n(MARGIN_LEFT)}" y1="{_n(yy)}" x2="{_n(MARGIN_LEFT + plot_w)}" '
            f'y2="{_n(yy)}" stroke="#eeeeee" stroke-width="1"/>'
        )

    col_w = plot_w / n if n else plot_w
    # shade unscorable epochs across the whole chart height
    body.extend(_strip(scores, y0, col_w, chart_h, {int(SleepStage.UNSCORABLE): "#f5f5f5"}))

    path = []
    prev_y = None
    for i, s in enumerate(scores):
        yy = y0 + (row_of[int(s)] + 0.5) * row_h
        x_a = MARGIN_LEFT + i * col_w
        x_b = x_a + col_w
        if not path:
            path.append(f"M {_n(x_a)} {_n(yy)}")
        elif yy != prev_y:
            path.append(f"V {_n(yy)}")
        path.append(f"H {_n(x_b)}")
        prev_y = yy
    if path:
        body.append(
            f'<path d="{" ".join(path)}" fill="none" stroke="#263238" stroke-width="1.6"/>'
        )

    y = y0 + chart_h + 10

    if mobility is not None and len(mobility):
        strip_h = 14.0
        body.append(_text(MARGIN_LEFT - 8, y + strip_h - 3, "mob", size=11, anchor="end"))
        m_w = plot_w / len(mobility)
        body.extend(_strip(mobility, y, m_w, strip_h, MOBILITY_COLORS, "#bdbdbd"))
        y += strip_h + 10

    if tib is not None and total_s > 0:
        for label, t_s in (("lights out", tib.lights_out_s), ("lights on", tib.lights_on_s)):
            x = MARGIN_LEFT + plot_w * min(max(t_s / total_s, 0.0), 1.0)
            body.append(
                f'<line x1="{_n(x)}" y1="{_n(y0)}" x2="{_n(x)}" y2="{_n(y)}" '
                'stroke="#c62828" stroke-width="1" stroke-dasharray="4 3"/>'
            )
            body.append(_text(x + 3, y0 + 11, label, size=10))

    body.extend(_time_axis(MARGIN_LEFT, MARGIN_LEFT + plot_w, y, total_s))
    y += AXIS_H

    if mobility is not None and len(mobility):
        body.extend(_legend(y, MOBILITY_NAMES, MOBILITY_COLORS))
        y += 24

    return _svg_doc(y, body)
