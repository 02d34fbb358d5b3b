"""Scalar reference versions of the array passes in `hjminimax.front`.

These are the per-vertex and per-pair loops the array code replaced, kept
only as test oracles: on the same input the array passes must give the
same booleans, the same double points (bit for bit) and the same errors,
and the same cusps with positions to rounding.
"""

import numpy as np

from hjminimax import front as frontmod
from hjminimax.errors import NonGeneric
from hjminimax.front import TIE_TOL, Cusp, DoublePoint


def detect_cusps(f):
    """One cusp per reversal vertex, each refined by `refine_cusp`."""
    dq = np.diff(f.q)
    cusps = []
    for i in np.flatnonzero(dq[:-1] * dq[1:] < 0).tolist():
        v = i + 1
        qc, zc = refine_cusp(f, v)
        sign = 1 if (f.q[v + 1] - f.q[v]) * (f.p[v + 1] - f.p[v - 1]) >= 0 else -1
        cusps.append(Cusp(q=qc, z=zc, sign=sign, vertex=v))
    return cusps


def refine_cusp(f, v):
    """Least-squares quadratic fit (`np.polyfit`) of q(q0) and z(q0) through
    the reversal vertex and its neighbours."""
    lo, hi = max(0, v - 1), min(len(f) - 1, v + 1)
    s = f.q0[lo:hi + 1]
    if len(s) < 3 or len(set(s)) < 3:
        return float(f.q[v]), float(f.z[v])
    cq = np.polyfit(s - f.q0[v], f.q[lo:hi + 1], 2)
    cz = np.polyfit(s - f.q0[v], f.z[lo:hi + 1], 2)
    if cq[0] == 0:
        return float(f.q[v]), float(f.z[v])
    s_star = -cq[1] / (2.0 * cq[0])
    ds = min(abs(f.q0[v] - f.q0[lo]), abs(f.q0[hi] - f.q0[v]))
    s_star = float(np.clip(s_star, -ds, ds))
    return float(np.polyval(cq, s_star)), float(np.polyval(cz, s_star))


def point_in_polygon(qx, zx, q, z):
    """Even-odd test of one point, one edge at a time."""
    inside = False
    n = len(qx) - 1
    for i in range(n):
        q1, z1, q2, z2 = qx[i], zx[i], qx[i + 1], zx[i + 1]
        if (z1 > z) != (z2 > z):
            q_at = q1 + (z - z1) / (z2 - z1) * (q2 - q1)
            if q_at > q:
                inside = not inside
    return inside


def segment_intersection(a0, a1, b0, b1):
    """Intersection params (u, v) in (0,1)x(0,1), or None. Raises NonGeneric
    when the two segments are nearly parallel and their supporting lines
    nearly touch: the caller only passes segments whose boxes overlap."""
    d1 = a1 - a0
    d2 = b1 - b0
    den = d1[0] * d2[1] - d1[1] * d2[0]
    n1 = np.hypot(*d1)
    n2 = np.hypot(*d2)
    if n1 == 0 or n2 == 0:
        return None
    r = b0 - a0
    if abs(den) < frontmod.ANGLE_TOL * n1 * n2:
        if abs(r[0] * d1[1] - r[1] * d1[0]) / n1 < 1e-7 * max(n1, n2):
            raise NonGeneric("tangential self-intersection")
        return None
    u = (r[0] * d2[1] - r[1] * d2[0]) / den
    v = (r[0] * d1[1] - r[1] * d1[0]) / den
    eps = 1e-12
    if eps < u < 1 - eps and eps < v < 1 - eps:
        return float(u), float(v)
    return None


def box_pairs(pts):
    """Segment pairs (i, j), i < j - 1, in order, whose boxes overlap in q and
    z, each box widened by 1e-7 of its segment's length: every segment's box
    tested against all later ones."""
    a, b = pts[:-1], pts[1:]
    pad = 1e-7 * np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1])[:, None]
    lo = np.minimum(a, b) - pad
    hi = np.maximum(a, b) + pad
    pairs = []
    for i in range(len(lo) - 2):
        overlap = (lo[i + 2:] <= hi[i]) & (lo[i] <= hi[i + 2:])
        later = np.flatnonzero(overlap[:, 0] & overlap[:, 1]) + i + 2
        pairs += [(i, j) for j in later.tolist()]
    return pairs


def double_points(f, sections, cusps):
    """`box_pairs`, then one `segment_intersection` per pair."""
    pts = f.scaled_points()
    found = []
    for i, j in box_pairs(pts):
        hit = segment_intersection(pts[i], pts[i + 1], pts[j], pts[j + 1])
        if hit is None:
            continue
        u, _ = hit
        qx = f.q[i] + u * (f.q[i + 1] - f.q[i])
        zx = f.z[i] + u * (f.z[i + 1] - f.z[i])
        found.append((i, u, j, qx, zx))

    wq, wz = f.bbox_scale()
    for c in cusps:
        for i, u, j, qx, zx in found:
            if abs(qx - c.q) / wq < 10 * TIE_TOL and abs(zx - c.z) / wz < 10 * TIE_TOL:
                raise NonGeneric("cusp and double point coincide (degenerate time slice)")

    result = []
    for i, u, j, qx, zx in sorted(found):
        sa = frontmod._section_of_segment(sections, i)
        sb = frontmod._section_of_segment(sections, j)
        result.append(DoublePoint(q=float(qx), z=float(zx), sections=(sa.id, sb.id),
                                  homogeneous=sa.index == sb.index, seg_a=i,
                                  frac_a=float(u), seg_b=j))
    return result


def is_vanishing(f, T, sections, doubles):
    """The vanishing rule with rule (i) one outside vertex at a time."""
    qx, zx = frontmod._loop_polygon(f, T)
    wq, wz = f.bbox_scale()
    lo, hi = T.start_seg, T.end_seg
    # Python floats round as numpy's float64 scalars do, and loop faster
    qx_list, zx_list = qx.tolist(), zx.tolist()

    for v in range(len(f)):
        if lo + 1 <= v <= hi:
            continue
        qv, zv = float(f.q[v]), float(f.z[v])
        on_boundary = np.any((np.abs(qx - qv) / wq < 10 * TIE_TOL)
                             & (np.abs(zx - zv) / wz < 10 * TIE_TOL))
        if not on_boundary and point_in_polygon(qx_list, zx_list, qv, zv):
            return False

    for d in doubles:
        if d is T.vertex:
            continue
        a_in = lo <= d.seg_a <= hi
        b_in = lo <= d.seg_b <= hi
        if a_in == b_in:
            continue
        out_seg = d.seg_b if a_in else d.seg_a
        out_sec = frontmod._section_of_segment(sections, out_seg)
        if d.homogeneous and out_sec.id not in T.loop_sections:
            return False
        if out_sec.index == T.branch_index and out_sec.id not in T.loop_sections:
            return False
    return True


def default_ball_radius(f, T):
    """Nearest non-incident vertex, one vertex at a time."""
    wq, wz = f.bbox_scale()
    d = T.vertex
    vx, vz = d.q / wq, d.z / wz
    pts = f.scaled_points()
    incident = set(range(d.seg_a - 1, d.seg_a + 3)) | set(range(d.seg_b - 1, d.seg_b + 3))
    dists = [np.hypot(pts[i, 0] - vx, pts[i, 1] - vz)
             for i in range(len(f)) if i not in incident and not d.seg_a + 1 <= i <= d.seg_b]
    dmin = min(dists) if dists else 1.0
    return 0.25 * float(dmin)
