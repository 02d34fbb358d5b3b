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


def _pixels(q, z, box):
    """(x, y) pixel arrays of the points (q, z), fitting the bounding box
    (qmin, zmin, wq, wz)."""
    qmin, zmin, wq, wz = box
    return (PAD + (np.asarray(q, dtype=float) - qmin) / wq * (WIDTH - 2 * PAD),
            HEIGHT - PAD - (np.asarray(z, dtype=float) - zmin) / wz * (HEIGHT - 2 * PAD))


def render_front(analysis, minimax_pieces) -> str:
    f = analysis.front
    qmin, zmin = float(np.min(f.q)), float(np.min(f.z))
    box = (qmin, zmin, (float(np.max(f.q)) - qmin) or 1.0, (float(np.max(f.z)) - zmin) or 1.0)
    x, y = _pixels(f.q, f.z, box)
    # every vertex is formatted once; sections and pieces join slices of it
    pts = [f"{xv:.4f},{yv:.4f}" for xv, yv in zip(x.tolist(), y.tolist())]
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<!-- front at t={f.time:.6g} -->',
    ]
    for s in analysis.sections:
        line = " ".join(pts[s.start:s.end + 1])
        dash = ' stroke-dasharray="6,4"' if s.index % 2 else ""
        color = _COLORS[s.index % len(_COLORS)]
        parts.append(f'<polyline points="{line}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"{dash}/>')
    qs = f.q.tolist()
    for sec_id, qlo, qhi in minimax_pieces:
        s = next(s for s in analysis.sections if s.id == sec_id)
        vs = [v for v in range(s.start, s.end + 1) if qlo - 1e-12 <= qs[v] <= qhi + 1e-12]
        if len(vs) < 2:
            continue
        line = " ".join([pts[v] for v in vs])
        parts.append(f'<polyline points="{line}" fill="none" stroke="#d62728" '
                     f'stroke-width="3" stroke-opacity="0.7"/>')
    cx, cy = _pixels([c.q for c in analysis.cusps], [c.z for c in analysis.cusps], box)
    for c, xv, yv in zip(analysis.cusps, cx.tolist(), cy.tolist()):
        fill = "#d62728" if c.sign > 0 else "#1f77b4"
        parts.append(f'<circle cx="{_fmt(xv)}" cy="{_fmt(yv)}" r="4" fill="{fill}"/>')
    dx, dy = _pixels([d.q for d in analysis.doubles], [d.z for d in analysis.doubles], box)
    for d, xv, yv in zip(analysis.doubles, dx.tolist(), dy.tolist()):
        stroke = "#000000" if d.homogeneous else "#888888"
        parts.append(f'<circle cx="{_fmt(xv)}" cy="{_fmt(yv)}" r="5" fill="none" '
                     f'stroke="{stroke}" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
