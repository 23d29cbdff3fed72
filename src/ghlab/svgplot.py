"""Self-contained deterministic SVG line plots (no renderer dependency)."""

from __future__ import annotations

import math


class NonFiniteValue(ValueError):
    pass


_PALETTE = ["#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d35400",
            "#16a085", "#7f8c8d", "#2c3e50"]

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 64, 16, 28, 44


def _fmt(v):
    return f"{v:.6g}"


def _ticks(lo, hi):
    step = (hi - lo) / 4
    return [lo + k * step for k in range(5)]


def emit_svg(series, title, xlabel, ylabel, path):
    """Write a line plot on a linear x axis and a log10 y axis; byte output
    is a pure function of the inputs.

    ``series`` is a list of (label, xs, ys).  Non-finite data and y <= 0 are
    rejected.
    """
    if not series:
        raise ValueError("need at least one series")

    def ty(v):
        if v <= 0:
            raise NonFiniteValue("nonpositive value on log y axis")
        return math.log10(v)

    pts = []
    for label, xs, ys in series:
        if len(xs) != len(ys) or not len(xs):
            raise ValueError(f"series {label!r} is empty or ragged")
        for x, y in zip(xs, ys):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise NonFiniteValue(f"non-finite value in series {label!r}")
            pts.append((float(x), ty(y)))
    xlo = min(p[0] for p in pts)
    xhi = max(p[0] for p in pts)
    ylo = min(p[1] for p in pts)
    yhi = max(p[1] for p in pts)
    if xhi == xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi == ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5

    def px(v):
        return _ML + (v - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (v - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
           f'height="{_H}" viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>',
           f'<text x="{_W // 2}" y="18" text-anchor="middle" '
           f'font-size="14">{title}</text>',
           # frame
           f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
           f'height="{_H - _MT - _MB}" fill="none" stroke="#333333"/>']
    for v in _ticks(xlo, xhi):
        x = px(v)
        out.append(f'<line x1="{_fmt(x)}" y1="{_H - _MB}" x2="{_fmt(x)}" '
                   f'y2="{_H - _MB + 5}" stroke="#333333"/>')
        out.append(f'<text x="{_fmt(x)}" y="{_H - _MB + 18}" '
                   f'text-anchor="middle" font-size="11">{_fmt(v)}</text>')
    for v in _ticks(ylo, yhi):
        y = py(v)
        out.append(f'<line x1="{_ML - 5}" y1="{_fmt(y)}" x2="{_ML}" '
                   f'y2="{_fmt(y)}" stroke="#333333"/>')
        out.append(f'<text x="{_ML - 8}" y="{_fmt(y + 4)}" '
                   f'text-anchor="end" font-size="11">{_fmt(10 ** v)}</text>')
    out.append(f'<text x="{_W // 2}" y="{_H - 8}" text-anchor="middle" '
               f'font-size="12">{xlabel}</text>')
    out.append(f'<text x="14" y="{_H // 2}" text-anchor="middle" '
               f'font-size="12" transform="rotate(-90 14 {_H // 2})">'
               f'{ylabel}</text>')
    for k, (label, xs, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        coords = " ".join(f"{_fmt(px(float(x)))},{_fmt(py(ty(y)))}"
                          for x, y in zip(xs, ys))
        out.append(f'<polyline points="{coords}" fill="none" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 14 * k}" '
                   f'text-anchor="end" font-size="11" fill="{color}">'
                   f'{label}</text>')
    out.append("</svg>")
    data = "\n".join(out) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data)
    return path
