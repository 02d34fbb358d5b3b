"""Reference versions of the artifact writers, one item at a time.

These are the per-point and per-vertex writers that the whole-array ones in
`hjminimax.selector`, `hjminimax.front` and `hjminimax.svg` replaced, kept
only as test oracles: on the same input the writers must give the same
bytes.
"""

import json

import numpy as np

from hjminimax.svg import _COLORS, HEIGHT, PAD, WIDTH


def to_csv(grid):
    """`GridSolution.to_csv`: one f-string per grid point."""
    qs = [f"{qv:.17g}" for qv in grid.q.tolist()]
    lines = ["t,q,u,branch_id\n"]
    for tv, us, bs in zip(grid.t.tolist(), grid.u.tolist(), grid.branch.tolist()):
        ts = f"{tv:.17g}"
        lines += [f"{ts},{qv},{uv:.17g},{b}\n" for qv, uv, b in zip(qs, us, bs)]
    return "".join(lines)


def front_to_json(analysis):
    """`front.front_to_json`: the whole payload through `json`'s indenting
    encoder, one dict of numpy scalars per vertex."""
    f = analysis.front
    payload = {
        "time": f.time,
        "vertices": [{"q0": a, "q": b, "z": c, "p": d}
                     for a, b, c, d in zip(f.q0, f.q, f.z, f.p)],
        "cusps": [{"q": c.q, "z": c.z, "sign": c.sign, "vertex": c.vertex}
                  for c in analysis.cusps],
        "sections": [{"id": s.id, "start": s.start, "end": s.end,
                      "index": s.index, "kind": s.kind} for s in analysis.sections],
        "double_points": [{"q": d.q, "z": d.z, "sections": list(d.sections),
                           "homogeneous": d.homogeneous} for d in analysis.doubles],
        "triangles": [{"vertex": {"q": t.vertex.q, "z": t.vertex.z},
                       "loop_sections": list(t.loop_sections),
                       "branch_index": t.branch_index} for t in analysis.triangles],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _fmt(x):
    return f"{x:.4f}"


def _mapper(q, z):
    """(q, z) -> (x, y) pixel coordinates fitting the front's bounding box."""
    qmin, zmin = float(np.min(q)), float(np.min(z))
    wq = (float(np.max(q)) - qmin) or 1.0
    wz = (float(np.max(z)) - zmin) or 1.0
    return lambda qv, zv: (PAD + (qv - qmin) / wq * (WIDTH - 2 * PAD),
                           HEIGHT - PAD - (zv - zmin) / wz * (HEIGHT - 2 * PAD))


def render_front(analysis, minimax_pieces):
    """`svg.render_front`: every vertex mapped and formatted as numpy
    scalars, once per polyline it lies on."""
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
