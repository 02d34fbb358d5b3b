"""The elimination loop that tests every triangle on its own, kept only as
a test oracle for `hjminimax.selector.eliminate`: each round runs one
`select_fibers` pass per triangle and `is_vanishing` on every coupled one.
On the same front the production loop must return the same front and the
same surgery log, bit for bit.
"""

import numpy as np

from hjminimax import front as frontmod
from hjminimax import selector
from hjminimax.errors import NoVanishingTriangle
from hjminimax.selector import _PROBE_FRACS, MAX_SURGERIES, Surgery


def triangle_is_coupled(analysis, T):
    """True when the triangle's loop is one of the coupled X_i, from one
    `select_fibers` pass on the loop's own five probes."""
    f = analysis.front
    qx, _ = frontmod._loop_polygon(f, T)
    q_lo, q_hi = float(qx.min()), float(qx.max())
    qs = q_lo + np.array(_PROBE_FRACS) * (q_hi - q_lo)
    order = np.argsort(qs, kind="stable")
    cp = selector.select_fibers(analysis, qs[order])
    seg = cp.fibers.seg
    for k in np.argsort(order).tolist():
        lo, hi = cp.fibers.bounds[k], cp.fibers.bounds[k + 1]
        if k in cp.failed or hi - lo == 1:
            continue
        in_loop = (T.start_seg <= seg) & (seg <= T.end_seg)
        if np.count_nonzero(in_loop[lo:hi]) < 2:
            continue
        return any(in_loop[u] and in_loop[l] for u, l in cp.pairs[k])
    return False


def eliminate(f):
    """Each round: every triangle tested for coupling, every coupled one
    for vanishing; the vanishing ones sorted by their double point's
    (q, z), else the coupled one of least loop area."""
    log = []
    current = f
    for _ in range(MAX_SURGERIES):
        analysis = frontmod.analyze(current)
        if not analysis.cusps:
            return current, log
        coupled = [T for T in analysis.triangles if triangle_is_coupled(analysis, T)]
        candidates = [T for T in coupled
                      if frontmod.is_vanishing(current, T, analysis.sections,
                                               analysis.doubles)]
        strict = bool(candidates)
        if not candidates:
            if not coupled:
                raise NoVanishingTriangle(
                    "front is not smooth but no triangle loop is coupled "
                    f"(cusps={len(analysis.cusps)}, doubles={len(analysis.doubles)}, "
                    f"triangles={len(analysis.triangles)}, t={current.time})")
            candidates = [min(coupled, key=lambda T: selector._loop_area(current, T))]
        candidates.sort(key=lambda T: (T.vertex.q, T.vertex.z))
        T = candidates[0]
        radius = frontmod.default_ball_radius(current, T)
        current, (q_lo, q_hi) = frontmod.remove_triangle(current, T)
        log.append(Surgery(vertex_q=T.vertex.q, vertex_z=T.vertex.z,
                           ball_radius=radius, strict=strict, q_lo=q_lo, q_hi=q_hi))
    raise NoVanishingTriangle("elimination did not terminate")
