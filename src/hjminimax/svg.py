"""Minimal deterministic SVG emitter for front snapshots.

Index-0 sections render as solid strokes, index-1 as dashed; the minimax
selection is highlighted; cusps get filled glyphs and double points open
markers. All coordinates are printed with fixed precision so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

_COLORS = ["#1f77b4", "#2ca02c", "#9467bd", "#8c564b", "#17becf", "#7f7f7f"]
WIDTH, HEIGHT, PAD = 800, 500, 30.0  # canvas size and front margin in pixels


def _fmt(x):
    return f"{x:.4f}"


def _mapper(q, z):
    """(q, z) -> (x, y) pixel coordinates fitting the front's bounding box."""
    qmin, zmin = float(np.min(q)), float(np.min(z))
    wq = (float(np.max(q)) - qmin) or 1.0
    wz = (float(np.max(z)) - zmin) or 1.0
    return lambda qv, zv: (PAD + (qv - qmin) / wq * (WIDTH - 2 * PAD),
                           HEIGHT - PAD - (zv - zmin) / wz * (HEIGHT - 2 * PAD))


def render_front(analysis, minimax_pieces) -> str:
    f = analysis.front
    m = _mapper(f.q, f.z)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<!-- front at t={f.time:.6g} -->',
    ]
    for s in analysis.sections:
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}"
                       for x, y in (m(f.q[v], f.z[v]) for v in range(s.start, s.end + 1)))
        dash = ' stroke-dasharray="6,4"' if s.index % 2 else ""
        color = _COLORS[s.index % len(_COLORS)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"{dash}/>')
    for sec_id, qlo, qhi in minimax_pieces:
        s = next(s for s in analysis.sections if s.id == sec_id)
        vs = [v for v in range(s.start, s.end + 1) if qlo - 1e-12 <= f.q[v] <= qhi + 1e-12]
        if len(vs) < 2:
            continue
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}"
                       for x, y in (m(f.q[v], f.z[v]) for v in vs))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#d62728" '
                     f'stroke-width="3" stroke-opacity="0.7"/>')
    for c in analysis.cusps:
        x, y = m(c.q, c.z)
        fill = "#d62728" if c.sign > 0 else "#1f77b4"
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="{fill}"/>')
    for d in analysis.doubles:
        x, y = m(d.q, d.z)
        stroke = "#000000" if d.homogeneous else "#888888"
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" fill="none" '
                     f'stroke="{stroke}" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
