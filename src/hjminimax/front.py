"""Combinatorics of flat long wave fronts at a fixed time.

A front is a polyline in (q,z), ordered by the seed coordinate q0, carrying
the momentum p per vertex. This module extracts cusps with signs, sections
with branch indices, transversal double points, triangles hanging from
homogeneous double points, the triangle surgery, and the conservative
vanishing-triangle decision rule. Per-vertex and per-pair tests run as
numpy array passes; a pass of points against edges works in chunks of at
most CHUNK_ELEMENTS point-edge elements.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BallTooLarge, IndexInconsistency, NonGeneric, NotLong

ANGLE_TOL = 1e-6      # radians; smaller intersection angles are non-generic
TIE_TOL = 1e-9        # (q,z) coincidence tolerance after bbox scaling
DEGENERACY_TOL = 1e-4  # |dq/dq0| floor (bbox-scaled) for a vanishing-slope plateau
BLEND_POINTS = 17     # interior vertices of the cubic blend a surgery inserts
CHUNK_ELEMENTS = 4096  # point x edge elements per temporary of an array pass


@dataclass(frozen=True)
class FrontCurve:
    """Polyline (q,z) ordered along the Lagrangian curve (by q0)."""
    time: float
    q: np.ndarray
    z: np.ndarray
    p: np.ndarray
    q0: np.ndarray
    origin: np.ndarray = None  # per-vertex ancestor-vertex id, -1 for synthetic

    def __post_init__(self):
        if self.origin is None:
            object.__setattr__(self, "origin", np.arange(len(self.q)))

    def __len__(self):
        return len(self.q)

    def bbox_scale(self):
        return _width(self.q), _width(self.z)

    def scaled_points(self):
        wq, wz = self.bbox_scale()
        return np.column_stack([self.q / wq, self.z / wz])


def _width(x):
    """The extent of x, or 1.0 where it has none."""
    return float(x.max() - x.min()) or 1.0


@dataclass(frozen=True)
class Cusp:
    q: float
    z: float
    sign: int          # +1: index rises by 1 along the traversal, -1: falls
    vertex: int        # vertex at which dq/dq0 reverses


@dataclass(frozen=True)
class Section:
    id: int
    start: int         # first vertex (inclusive)
    end: int           # last vertex (inclusive)
    index: int         # branch index; 0 on the noncompact ends
    kind: str          # "noncompact" or "compact"


@dataclass(frozen=True)
class DoublePoint:
    q: float
    z: float
    sections: tuple[int, int]
    homogeneous: bool
    seg_a: int         # earlier segment along the curve
    frac_a: float
    seg_b: int
    frac_b: float


@dataclass(frozen=True)
class Triangle:
    vertex: DoublePoint
    start_seg: int     # loop runs from (start_seg, vertex.frac_a) ...
    end_seg: int       # ... to (end_seg, vertex.frac_b)
    cusps: tuple[Cusp, Cusp]
    loop_sections: tuple[int, ...]
    branch_index: int  # shared index of the two branches at the vertex


@dataclass(frozen=True)
class FrontAnalysis:
    front: FrontCurve
    cusps: tuple[Cusp, ...]
    sections: tuple[Section, ...]
    doubles: tuple[DoublePoint, ...]
    triangles: tuple[Triangle, ...]

    def section_of_vertex(self, v: int) -> Section:
        return self.sections[_section_of_vertex(self.sections, v)]


def build_front(q0, q, p, z, time: float) -> FrontCurve:
    """Assemble the isochrone front from seed-sorted final states."""
    f = FrontCurve(time=time, q=q, z=z, p=p, q0=q0)
    dq = np.diff(q)
    if len(dq) and (dq[0] <= 0 or dq[-1] <= 0):
        raise NotLong("front endpoints are not graph-like (dq/dq0 <= 0 at an end)")
    return f


def _check_tangency(f: FrontCurve):
    """NonGeneric on a vanishing-slope plateau without a fold (perestroika).
    Cells touching a surgery blend's vertices (origin < 0) are not tested:
    their q0 is a placeholder, so dq/dq0 there says nothing."""
    dq = np.diff(f.q)
    dq0 = np.diff(f.q0)
    wq, _ = f.bbox_scale()
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(dq0 > 0, dq / np.where(dq0 > 0, dq0, 1.0), 0.0)
    s_abs = np.abs(slope) / wq * (f.q0[-1] - f.q0[0])
    synthetic = f.origin < 0
    seeded = ~(synthetic[:-1] | synthetic[1:])
    # cell i in 1..len(slope)-2 against its neighbours i-1 and i+1
    prev, mid, nxt = slice(None, -2), slice(1, -1), slice(2, None)
    plateau = (seeded[mid] & (s_abs[mid] < DEGENERACY_TOL)
               & (np.sign(dq[prev]) == np.sign(dq[nxt]))
               & (dq[prev] * dq[mid] > 0) & (dq[mid] * dq[nxt] > 0)
               & (s_abs[mid] <= s_abs[prev]) & (s_abs[mid] <= s_abs[nxt]))
    hits = np.flatnonzero(plateau)
    if len(hits):
        i = hits[0] + 1
        raise NonGeneric(
            f"near-vertical tangency at q0~{f.q0[i]:.6g} without a fold "
            "(perestroika instant); shift t by epsilon")


def detect_cusps(f: FrontCurve) -> list[Cusp]:
    """Cusps sit where dq/dq0 changes sign between consecutive cells.

    Positions are refined by a local quadratic fit in q0. The sign follows
    the coorientation rule: positive when the traversal passes onto the
    branch lying above (in +z) the branch it leaves. In the Legendrian
    normal form near a cusp, q = a s^2 and p = p_c + b s, so dz = p dq
    gives the branches z(s) - z(-s) = (4/3) a b s^3: the sign is that of
    a b, read off the vertices around the cusp. Only cusps are found here
    and nothing is raised: the tangency check is `analyze`'s.
    """
    dq = np.diff(f.q)
    cusps = []
    for i in np.flatnonzero(dq[:-1] * dq[1:] < 0).tolist():
        v = i + 1  # vertex where the direction reverses
        qc, zc = _refine_cusp(f, v)
        sign = 1 if (f.q[v + 1] - f.q[v]) * (f.p[v + 1] - f.p[v - 1]) >= 0 else -1
        cusps.append(Cusp(q=qc, z=zc, sign=sign, vertex=v))
    return cusps


def _refine_cusp(f: FrontCurve, v: int):
    """Quadratic fit of q(q0) and z(q0) through the reversal vertex."""
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


def split_sections(f: FrontCurve, cusps: Sequence[Cusp]) -> list[Section]:
    """Cut at cusps and propagate the branch index from the left noncompact
    branch (index 0) using the +-1 cusp-sign rule; both ends must close at 0."""
    bounds = [0] + [c.vertex for c in cusps] + [len(f) - 1]
    sections = []
    index = 0
    for i in range(len(bounds) - 1):
        kind = "noncompact" if i == 0 or i == len(bounds) - 2 else "compact"
        sections.append(Section(id=i, start=bounds[i], end=bounds[i + 1],
                                index=index, kind=kind))
        if i < len(cusps):
            index += cusps[i].sign
    if index != 0:
        raise IndexInconsistency(
            f"index walk ends at {index}, not 0: a cusp was missed or missigned")
    return sections


def double_points(f: FrontCurve, sections: Sequence[Section] | None = None,
                  cusps: Sequence[Cusp] = ()) -> list[DoublePoint]:
    """All transversal self-intersections between non-adjacent segments.

    Candidate pairs are the segments whose bbox-scaled (q,z) boxes share a
    cell of a uniform spatial hash; all candidates are intersected in one
    array pass."""
    pts = f.scaled_points()
    n_seg = len(f) - 1
    if n_seg < 3:
        return []
    cell = max(1e-9, float(np.median(np.linalg.norm(pts[1:] - pts[:-1], axis=1))) * 4.0)
    i, j = _hash_pairs(pts, cell)
    i, u, j, v = _segment_intersections(pts, i, j)
    qx = f.q[i] + u * (f.q[i + 1] - f.q[i])
    zx = f.z[i] + u * (f.z[i + 1] - f.z[i])

    wq, wz = f.bbox_scale()
    for c in cusps:
        if np.any((np.abs(qx - c.q) / wq < 10 * TIE_TOL)
                  & (np.abs(zx - c.z) / wz < 10 * TIE_TOL)):
            raise NonGeneric("cusp and double point coincide (degenerate time slice)")

    if sections is not None:
        sec_i = _section_of_vertex(sections, i + 1)
        sec_j = _section_of_vertex(sections, j + 1)
    result = []
    for k in np.lexsort((j, u, i)):  # along the curve: by seg_a, frac_a, seg_b
        a, b = int(i[k]), int(j[k])
        if sections is not None:
            sa = sections[sec_i[k]]
            sb = sections[sec_j[k]]
            homog = sa.index == sb.index
            ids = (sa.id, sb.id)
        else:
            homog = False
            ids = (-1, -1)
        result.append(DoublePoint(q=float(qx[k]), z=float(zx[k]), sections=ids,
                                  homogeneous=homog, seg_a=a, frac_a=float(u[k]),
                                  seg_b=b, frac_b=float(v[k])))
    return result


def _hash_pairs(pts, cell):
    """Segment pairs (i, j), i < j - 1, whose boxes share a hash cell; each
    pair once, ordered by (i, j)."""
    lo = np.floor(np.minimum(pts[:-1], pts[1:]) / cell).astype(np.int64)
    hi = np.floor(np.maximum(pts[:-1], pts[1:]) / cell).astype(np.int64)
    nx, ny = (hi - lo + 1).T
    # one (cell, segment) entry per cell each segment's box covers
    per_seg = nx * ny
    seg = np.repeat(np.arange(len(lo)), per_seg)
    k = _counting(per_seg)
    cx = lo[seg, 0] + k // ny[seg]
    cy = lo[seg, 1] + k % ny[seg]
    order = np.lexsort((seg, cy, cx))
    cx, cy, seg = cx[order], cy[order], seg[order]
    # within a cell run, pair every entry with each later one
    new_cell = np.r_[True, (cx[1:] != cx[:-1]) | (cy[1:] != cy[:-1])]
    run_end = np.r_[np.flatnonzero(new_cell)[1:], len(seg)]
    later = run_end[np.cumsum(new_cell) - 1] - np.arange(len(seg)) - 1
    first = np.repeat(np.arange(len(seg)), later)
    second = first + 1 + _counting(later)
    i, j = seg[first], seg[second]
    key = np.unique((i * len(lo) + j)[j - i > 1])
    return key // len(lo), key % len(lo)


def _counting(counts):
    """0, 1, ..., c-1 for each c in counts, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _section_of_vertex(sections, v):
    """Positions in `sections` of the section holding each vertex v: the
    first one ending at or after it, so a cusp vertex belongs to the section
    it ends. Segment s lies in the section of its far vertex s + 1. Takes and
    returns an int or an int array; KeyError off the front."""
    ends = np.fromiter((s.end for s in sections), dtype=np.int64, count=len(sections))
    pos = np.searchsorted(ends, v, side="left")
    if np.any(pos == len(sections)) or np.any(np.asarray(v) < sections[0].start):
        raise KeyError(v)
    return pos


def _section_of_segment(sections, seg):
    """The section holding segment seg (vertices seg and seg+1)."""
    return sections[_section_of_vertex(sections, seg + 1)]


def _segment_intersections(pts, i, j):
    """(i, u, j, v) of the pairs of segments i and j of the polyline pts that
    cross at params (u, v) in (0,1)x(0,1). Raises NonGeneric when a pair
    crosses tangentially (near-parallel and overlapping)."""
    a0, b0 = pts[i], pts[j]
    d1 = pts[i + 1] - a0
    d2 = pts[j + 1] - b0
    r = b0 - a0
    den = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    n1 = np.hypot(d1[:, 0], d1[:, 1])
    n2 = np.hypot(d2[:, 0], d2[:, 1])
    cross_r1 = r[:, 0] * d1[:, 1] - r[:, 1] * d1[:, 0]
    live = (n1 != 0) & (n2 != 0)
    parallel = live & (np.abs(den) < ANGLE_TOL * n1 * n2)
    with np.errstate(divide="ignore", invalid="ignore"):
        # near-parallel: tangential only if the supporting lines nearly touch
        touch = parallel & (np.abs(cross_r1) / n1 < 1e-7 * np.maximum(n1, n2))
        u = (r[:, 0] * d2[:, 1] - r[:, 1] * d2[:, 0]) / den
        v = cross_r1 / den
    # the few touching pairs overlap when the projection of b0 lies along a;
    # np.dot keeps the rounding of the per-pair test
    for k in np.flatnonzero(touch):
        if -0.5 <= np.dot(r[k], d1[k]) / (n1[k] * n1[k]) <= 1.5:
            raise NonGeneric("tangential self-intersection")
    eps = 1e-12
    hit = live & ~parallel & (eps < u) & (u < 1 - eps) & (eps < v) & (v < 1 - eps)
    return i[hit], u[hit], j[hit], v[hit]


def find_triangles(f: FrontCurve, cusps: Sequence[Cusp],
                   sections: Sequence[Section],
                   doubles: Sequence[DoublePoint]) -> list[Triangle]:
    """A homogeneous double point whose closed subcurve holds exactly two
    cusps is the vertex of a triangle."""
    triangles = []
    for d in doubles:
        if not d.homogeneous:
            continue
        inside = [c for c in cusps if d.seg_a < c.vertex <= d.seg_b]
        if len(inside) != 2:
            continue
        loop_secs = sorted({sections[k].id for k in np.unique(
            _section_of_vertex(sections, np.arange(d.seg_a + 1, d.seg_b + 2)))})
        branch_index = _section_of_segment(sections, d.seg_a).index
        triangles.append(Triangle(vertex=d, start_seg=d.seg_a, end_seg=d.seg_b,
                                  cusps=(inside[0], inside[1]),
                                  loop_sections=tuple(loop_secs),
                                  branch_index=branch_index))
    return triangles


def _loop_polygon(f: FrontCurve, T: Triangle):
    d = T.vertex
    qx = np.concatenate([[d.q], f.q[d.seg_a + 1: d.seg_b + 1], [d.q]])
    zx = np.concatenate([[d.z], f.z[d.seg_a + 1: d.seg_b + 1], [d.z]])
    return qx, zx


def _row_chunks(n_rows: int, width: int):
    """Row slices covering n_rows, each at most CHUNK_ELEMENTS / width rows."""
    step = max(1, CHUNK_ELEMENTS // max(1, width))
    return (slice(k, k + step) for k in range(0, n_rows, step))


def _point_in_polygon(qx, zx, q, z):
    """Even-odd test of the points (q[k], z[k]) against the closed polygon
    (qx, zx), whose last vertex repeats the first: a point is inside when a
    ray to +q crosses an odd number of edges. Returns a boolean array."""
    q1, z1, q2, z2 = qx[:-1], zx[:-1], qx[1:], zx[1:]
    inside = np.zeros(len(q), dtype=bool)
    for rows in _row_chunks(len(q), len(q1)):
        qv, zv = q[rows, None], z[rows, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            q_at = q1 + (zv - z1) / (z2 - z1) * (q2 - q1)
        crossed = ((z1 > zv) != (z2 > zv)) & (q_at > qv)
        inside[rows] = np.count_nonzero(crossed, axis=1) % 2 == 1
    return inside


def _on_polygon_vertex(qx, zx, q, z, wq, wz):
    """Per point: within 10*TIE_TOL (bbox-scaled) of some polygon vertex."""
    near = np.zeros(len(q), dtype=bool)
    for rows in _row_chunks(len(q), len(qx)):
        near[rows] = np.any((np.abs(qx - q[rows, None]) / wq < 10 * TIE_TOL)
                            & (np.abs(zx - z[rows, None]) / wz < 10 * TIE_TOL), axis=1)
    return near


def is_vanishing(f: FrontCurve, T: Triangle, sections: Sequence[Section],
                 doubles: Sequence[DoublePoint]) -> bool:
    """Conservative combinatorial stand-in for the isotopy condition.

    T is vanishing iff (i) no vertex of an outside section lies strictly
    inside T's bounded region, (ii) no homogeneous double point involving an
    outside section sits on T's arcs, and (iii) no outside section of index
    equal to T's branch index crosses the arcs. Rule (i) tests every outside
    vertex against the loop polygon in one array pass.
    """
    qx, zx = _loop_polygon(f, T)
    wq, wz = f.bbox_scale()
    lo, hi = T.start_seg, T.end_seg

    # (i) outside-section vertices strictly inside the region
    outside = np.r_[0:lo + 1, hi + 1:len(f)]
    qv, zv = f.q[outside], f.z[outside]
    inside = _point_in_polygon(qx, zx, qv, zv)
    if not np.all(_on_polygon_vertex(qx, zx, qv[inside], zv[inside], wq, wz)):
        return False

    for d in doubles:
        if d is T.vertex:
            continue
        a_in = lo <= d.seg_a <= hi
        b_in = lo <= d.seg_b <= hi
        if a_in == b_in:
            continue  # fully inside-loop or fully outside crossings do not block
        out_seg = d.seg_b if a_in else d.seg_a
        out_sec = _section_of_segment(sections, out_seg)
        # (ii) homogeneous crossing with a third section on an arc
        if d.homogeneous and out_sec.id not in T.loop_sections:
            return False
        # (iii) arc crossed by a section of the triangle's branch index
        if out_sec.index == T.branch_index and out_sec.id not in T.loop_sections:
            return False
    return True


def default_ball_radius(f: FrontCurve, T: Triangle) -> float:
    """0.25 x (bbox-scaled) distance from the vertex to the nearest
    non-incident front feature."""
    wq, wz = f.bbox_scale()
    d = T.vertex
    vx, vz = d.q / wq, d.z / wz
    pts = f.scaled_points()
    # the loop seg_a+1..seg_b and the vertices incident to the two crossing
    # segments, seg_a-1..seg_a+2 and seg_b-1..seg_b+2, form one run
    idx = np.arange(len(f))
    far = (idx < d.seg_a - 1) | (idx > d.seg_b + 2)
    dists = np.hypot(pts[far, 0] - vx, pts[far, 1] - vz)
    dmin = dists.min() if len(dists) else 1.0
    return 0.25 * float(dmin)


def remove_triangle(f: FrontCurve, T: Triangle, ball_radius: float):
    """Delete the triangle subcurve and reconnect with a C1 cubic blend
    inside a ball around the vertex. Outside the ball the front is untouched.
    Returns the new front and the q-extent (q_lo, q_hi) of the replaced
    subcurve, cut to cut."""
    wq, wz = f.bbox_scale()
    d = T.vertex
    vx, vz = d.q / wq, d.z / wz

    dist = np.hypot(f.q / wq - vx, f.z / wz - vz)

    # walk outward along the retained branches to the ball boundary
    i1 = d.seg_a
    while i1 > 0 and dist[i1] <= ball_radius:
        i1 -= 1
    i2 = d.seg_b + 1
    while i2 < len(f) - 1 and dist[i2] <= ball_radius:
        i2 += 1
    if dist[i1] <= ball_radius or dist[i2] <= ball_radius:
        raise BallTooLarge("ball swallows a retained noncompact branch")

    # third sections inside the ball: every vertex outside the two cut points
    # (the incident branches and the loop between the cuts are exempt)
    idx = np.arange(len(f))
    third = np.flatnonzero(((idx <= i1) | (idx >= i2)) & (dist < ball_radius))
    if len(third):
        raise BallTooLarge(f"a third section enters the ball (vertex {third[0]})")

    q1, z1 = f.q[i1], f.z[i1]
    q2, z2 = f.q[i2], f.z[i2]
    m1 = _segment_slope(f, i1)
    m2 = _segment_slope(f, i2 - 1 if i2 > 0 else 0)
    if not q1 < q2:
        raise BallTooLarge("ball boundary points are not q-ordered; radius too large")

    qs = np.linspace(q1, q2, BLEND_POINTS + 2)[1:-1]
    h = q2 - q1
    s = (qs - q1) / h
    zs = hermite(s, h, z1, m1, z2, m2)
    # p on the blend is the Hermite derivative dz/dq
    ps = (6 * s ** 2 - 6 * s) / h * z1 + (3 * s ** 2 - 4 * s + 1) * m1 \
        + (-6 * s ** 2 + 6 * s) / h * z2 + (3 * s ** 2 - 2 * s) * m2

    new_q = np.concatenate([f.q[:i1 + 1], qs, f.q[i2:]])
    new_z = np.concatenate([f.z[:i1 + 1], zs, f.z[i2:]])
    new_p = np.concatenate([f.p[:i1 + 1], ps, f.p[i2:]])
    # q0 on the blend is a monotone placeholder; origin=-1 marks it synthetic
    blend_q0 = np.linspace(f.q0[i1], f.q0[i2], len(qs) + 2)[1:-1]
    new_q0 = np.concatenate([f.q0[:i1 + 1], blend_q0, f.q0[i2:]])
    new_origin = np.concatenate([f.origin[:i1 + 1], np.full(len(qs), -1, dtype=int),
                                 f.origin[i2:]])
    out = FrontCurve(time=f.time, q=new_q, z=new_z, p=new_p, q0=new_q0,
                     origin=new_origin)
    return out, (float(q1), float(q2))


def hermite(s, h, z0, m0, z1, m1):
    """Cubic Hermite interpolant at s in [0, 1] of values z0, z1 and slopes
    m0, m1 at the two ends of an abscissa interval of length h."""
    return hermite_powers(s, s ** 2, s ** 3, h, z0, m0, z1, m1)


def hermite_powers(s, s2, s3, h, z0, m0, z1, m1):
    """`hermite` with s ** 2 and s ** 3 given: a caller that must round them
    as Python floats do computes them itself."""
    h00 = 2 * s3 - 3 * s2 + 1
    h10 = s3 - 2 * s2 + s
    h01 = -2 * s3 + 3 * s2
    h11 = s3 - s2
    return h00 * z0 + h10 * h * m0 + h01 * z1 + h11 * h * m1


def _segment_slope(f: FrontCurve, seg: int) -> float:
    dq = f.q[seg + 1] - f.q[seg]
    if dq == 0:
        return float(f.p[seg])
    return float((f.z[seg + 1] - f.z[seg]) / dq)


def analyze(f: FrontCurve) -> FrontAnalysis:
    """Full combinatorial analysis of a front; NonGeneric at a vertical
    tangency without a fold."""
    _check_tangency(f)
    cusps = detect_cusps(f)
    sections = split_sections(f, cusps)
    doubles = double_points(f, sections, cusps)
    triangles = find_triangles(f, cusps, sections, doubles)
    return FrontAnalysis(front=f, cusps=tuple(cusps), sections=tuple(sections),
                         doubles=tuple(doubles), triangles=tuple(triangles))


def front_to_json(analysis: FrontAnalysis) -> str:
    f = analysis.front
    payload = {
        "time": f.time,
        "vertices": [{"q0": _null_nan(a), "q": b, "z": c, "p": d}
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


def _null_nan(x):
    x = float(x)
    return None if np.isnan(x) else x
