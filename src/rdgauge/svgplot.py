"""Tiny deterministic SVG charts.

Reports must be byte-identical across reruns, so plots are emitted by
hand rather than through a plotting library (which embeds timestamps
and hashed element ids). Only what the reports need: line charts for RD
curves and annotated heat maps for comparison grids.
"""

from __future__ import annotations

from typing import Optional, Sequence

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#7f7f7f")

_FONT = 'font-family="sans-serif"'


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def line_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    *,
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Polyline chart with markers; series are (name, xs, ys)."""
    width, height = 720, 480
    ml, mr, mt, mb = 70, 20, 40, 50
    pw, ph = width - ml - mr, height - mt - mb
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    xlo, xhi = (min(xs_all), max(xs_all)) if xs_all else (0.0, 1.0)
    ylo, yhi = (min(ys_all), max(ys_all)) if ys_all else (0.0, 1.0)
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + 1.0

    def px(x: float) -> float:
        return ml + (x - xlo) / (xhi - xlo) * pw

    def py(y: float) -> float:
        return mt + ph - (y - ylo) / (yhi - ylo) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" {_FONT} '
        f'font-size="14">{_esc(title)}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333"/>',
    ]
    for tx in _ticks(xlo, xhi):
        x = px(tx)
        out.append(f'<line x1="{x:.1f}" y1="{mt + ph}" x2="{x:.1f}" '
                   f'y2="{mt + ph + 4}" stroke="#333"/>')
        out.append(f'<text x="{x:.1f}" y="{mt + ph + 16}" text-anchor="middle" '
                   f'{_FONT} font-size="10">{_fmt(tx)}</text>')
    for ty in _ticks(ylo, yhi):
        y = py(ty)
        out.append(f'<line x1="{ml - 4}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" '
                   f'stroke="#333"/>')
        out.append(f'<text x="{ml - 6}" y="{y + 3:.1f}" text-anchor="end" '
                   f'{_FONT} font-size="10">{_fmt(ty)}</text>')
    out.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" '
               f'text-anchor="middle" {_FONT} font-size="12">{_esc(xlabel)}</text>')
    out.append(f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
               f'{_FONT} font-size="12" transform="rotate(-90 16 '
               f'{mt + ph / 2:.1f})">{_esc(ylabel)}</text>')

    for idx, (name, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" '
                       f'fill="{color}"/>')
        ly = mt + 14 + 14 * idx
        out.append(f'<line x1="{ml + 8}" y1="{ly - 4:.1f}" x2="{ml + 28}" '
                   f'y2="{ly - 4:.1f}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{ml + 32}" y="{ly:.1f}" {_FONT} font-size="10">'
                   f'{_esc(name)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _cell_color(value: Optional[float], scale: float) -> str:
    if value is None:
        return "#dddddd"
    if scale <= 0:
        return "#ffffff"
    t = max(-1.0, min(1.0, value / scale))
    if t < 0:  # improvement: toward blue
        frac = -t
        r, g, b = 255 - int(204 * frac), 255 - int(136 * frac), 255
    else:  # regression: toward red
        frac = t
        r, g, b = 255, 255 - int(170 * frac), 255 - int(170 * frac)
    return f"#{r:02x}{g:02x}{b:02x}"


def heatmap(
    labels: Sequence[str],
    cells: Sequence[Sequence[Optional[float]]],
    *,
    title: str,
) -> str:
    """Annotated square heat map; None cells render as grey n/a."""
    n = len(labels)
    cell = 86
    ml, mt = 170, 120
    width = ml + n * cell + 20
    height = mt + n * cell + 20
    finite = [c for row in cells for c in row if c is not None]
    scale = max((abs(c) for c in finite), default=1.0) or 1.0

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" {_FONT} '
        f'font-size="14">{_esc(title)}</text>',
    ]
    for j, label in enumerate(labels):
        x = ml + j * cell + cell / 2
        out.append(f'<text x="{x:.1f}" y="{mt - 8}" text-anchor="start" {_FONT} '
                   f'font-size="10" transform="rotate(-45 {x:.1f} {mt - 8})">'
                   f'{_esc(label)}</text>')
    for i, label in enumerate(labels):
        y = mt + i * cell + cell / 2 + 3
        out.append(f'<text x="{ml - 8}" y="{y:.1f}" text-anchor="end" {_FONT} '
                   f'font-size="10">{_esc(label)}</text>')
    for i in range(n):
        for j in range(n):
            value = cells[i][j]
            x, y = ml + j * cell, mt + i * cell
            out.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                       f'fill="{_cell_color(value, scale)}" stroke="#999"/>')
            text = "n/a" if value is None else f"{value:+.1f}%"
            out.append(f'<text x="{x + cell / 2:.1f}" y="{y + cell / 2 + 4:.1f}" '
                       f'text-anchor="middle" {_FONT} font-size="11">{text}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def scatter_chart(
    points: Sequence[tuple[str, float, float]],
    *,
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Labelled scatter (e.g. coverage vs encode time)."""
    series = [(name, [x], [y]) for name, x, y in points]
    return line_chart(series, title=title, xlabel=xlabel, ylabel=ylabel)
