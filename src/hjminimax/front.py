"""Combinatorics of flat long wave fronts at a fixed time.

A front is a polyline in (q,z), ordered by the seed coordinate q0, carrying
the momentum p per vertex. This module extracts cusps with signs, sections
with branch indices, transversal double points, triangles hanging from
homogeneous double points, the triangle surgery that cuts a loop out at its
double point, and the conservative vanishing-triangle decision rule. A
front is analysed at exactly its time: the vertical inflection of a
perestroika stands, and only a fold hidden between two seeds is
non-generic. Per-vertex and per-pair tests run as numpy array passes; a
pass of points against edges works in chunks of at most CHUNK_ELEMENTS
point-edge elements.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import IndexInconsistency, NonGeneric, NotLong

ANGLE_TOL = 1e-6      # radians; smaller intersection angles are non-generic
TIE_TOL = 1e-9        # (q,z) coincidence tolerance after bbox scaling
DEGENERACY_TOL = 1e-4  # |dq/dq0| floor (bbox-scaled) for a vanishing-slope plateau
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
    frac_a: float      # where on seg_a the crossing lies, in (0, 1)
    seg_b: int


@dataclass(frozen=True)
class Triangle:
    vertex: DoublePoint
    start_seg: int     # loop runs from the vertex on start_seg ...
    end_seg: int       # ... back to it on end_seg
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
    """NonGeneric on a fold narrower than a seed cell. A plateau cell, where
    |dq/dq0| (bbox-scaled) has a local minimum below DEGENERACY_TOL without
    a sign change, is decided by the cubic through its four vertices q(q0):
    a slope below -TIE_TOL inside the cell is a hidden cusp pair, anything
    else the vertical inflection of a perestroika. Cells touching a surgery's
    corner vertex (origin < 0) are not tested: the slope across a corner is
    not a front slope."""
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
    for i in (np.flatnonzero(plateau) + 1).tolist():
        # the cubic's slope in x = (q0 - q0[i]) / h is least at a cell end
        # or at its one turning point
        h = f.q0[i + 1] - f.q0[i]
        d = np.polyder(np.polyfit((f.q0[i - 1:i + 3] - f.q0[i]) / h,
                                  f.q[i - 1:i + 3] - f.q[i], 3))
        xs = [0.0, 1.0]
        if d[0] != 0:
            xs.append(min(max(-d[1] / (2 * d[0]), 0.0), 1.0))
        least = min(np.sign(dq[i]) * np.polyval(d, xs)) / h
        if least / wq * (f.q0[-1] - f.q0[0]) < -TIE_TOL:
            raise NonGeneric(
                f"fold narrower than a seed cell at q0~{f.q0[i]:.6g}; "
                "more seeds resolve it")


def detect_cusps(f: FrontCurve) -> list[Cusp]:
    """Cusps sit where dq/dq0 changes sign between consecutive cells.

    All reversal vertices v are refined in one array pass. Each is interior,
    and the quadratics through its three vertices v-1, v, v+1 for q(q0) and
    z(q0) come in closed form from divided differences in x = q0 - q0[v].
    The cusp is at the turning point x* = -b/(2a) of q's quadratic, clipped
    to the nearer of the two neighbours' |x|; on coincident q0 or a == 0 it
    is the vertex v itself. The sign follows the coorientation rule: positive when
    the traversal passes onto the branch lying above (in +z) the branch it
    leaves. In the Legendrian normal form near a cusp, q = a s^2 and
    p = p_c + b s, so dz = p dq gives the branches z(s) - z(-s) =
    (4/3) a b s^3: the sign is that of a b, read off the vertices around
    the cusp. Only cusps are found here and nothing is raised: the tangency
    check is `analyze`'s.
    """
    dq = np.diff(f.q)
    v = np.flatnonzero(dq[:-1] * dq[1:] < 0) + 1  # vertices where the direction reverses
    x_lo = f.q0[v - 1] - f.q0[v]
    x_hi = f.q0[v + 1] - f.q0[v]
    with np.errstate(divide="ignore", invalid="ignore"):
        aq, bq = _quadratic(f.q, v, x_lo, x_hi)
        az, bz = _quadratic(f.z, v, x_lo, x_hi)
        flat = (x_lo == 0) | (x_hi == 0) | (x_lo == x_hi) | (aq == 0)
        reach = np.minimum(np.abs(x_lo), np.abs(x_hi))
        x = np.where(flat, 0.0, np.clip(-bq / (2.0 * aq), -reach, reach))
        qc = np.where(flat, f.q[v], (aq * x + bq) * x + f.q[v])
        zc = np.where(flat, f.z[v], (az * x + bz) * x + f.z[v])
    sign = np.where((f.q[v + 1] - f.q[v]) * (f.p[v + 1] - f.p[v - 1]) >= 0, 1, -1)
    return [Cusp(q=a, z=b, sign=c, vertex=d) for a, b, c, d in
            zip(qc.tolist(), zc.tolist(), sign.tolist(), v.tolist())]


def _quadratic(y, v, x_lo, x_hi):
    """(a, b) of the quadratics a x^2 + b x + y[v] through (x_lo, y[v-1]),
    (0, y[v]) and (x_hi, y[v+1]), from divided differences."""
    d_lo = (y[v] - y[v - 1]) / -x_lo
    d_hi = (y[v + 1] - y[v]) / x_hi
    width = x_hi - x_lo
    return (d_hi - d_lo) / width, (d_lo * x_hi - d_hi * x_lo) / width


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


def double_points(f: FrontCurve, sections: Sequence[Section],
                  cusps: Sequence[Cusp]) -> list[DoublePoint]:
    """All transversal self-intersections between non-adjacent segments.

    Candidate pairs are the segments whose bbox-scaled (q,z) boxes overlap
    (`_box_pairs`); all candidates are intersected in one array pass.
    NonGeneric on a tangential crossing, where two candidates are nearly
    collinear (`_segment_intersections`), or on a crossing at a cusp."""
    pts = f.scaled_points()
    i, j = _box_pairs(pts)
    i, u, j = _segment_intersections(pts, i, j)
    qx = f.q[i] + u * (f.q[i + 1] - f.q[i])
    zx = f.z[i] + u * (f.z[i + 1] - f.z[i])

    wq, wz = f.bbox_scale()
    for c in cusps:
        if np.any((np.abs(qx - c.q) / wq < 10 * TIE_TOL)
                  & (np.abs(zx - c.z) / wz < 10 * TIE_TOL)):
            raise NonGeneric("cusp and double point coincide (degenerate time slice)")

    sec_i = _section_of_vertex(sections, i + 1)
    sec_j = _section_of_vertex(sections, j + 1)
    result = []
    for k in np.lexsort((j, u, i)):  # along the curve: by seg_a, frac_a, seg_b
        sa, sb = sections[sec_i[k]], sections[sec_j[k]]
        result.append(DoublePoint(q=float(qx[k]), z=float(zx[k]), sections=(sa.id, sb.id),
                                  homogeneous=sa.index == sb.index, seg_a=int(i[k]),
                                  frac_a=float(u[k]), seg_b=int(j[k])))
    return result


def _box_pairs(pts):
    """Segment pairs (i, j), i < j - 1, of the polyline pts whose boxes
    overlap in both coordinates, each box widened by 1e-7 of its own
    segment's length, the touch tolerance of `_segment_intersections`. A
    sweep over the segments sorted by their lowest q pairs each with the
    later ones whose lowest q does not pass its highest."""
    a, b = pts[:-1], pts[1:]
    pad = 1e-7 * np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1])[:, None]
    lo = np.minimum(a, b) - pad
    hi = np.maximum(a, b) + pad
    order = np.argsort(lo[:, 0], kind="stable")
    pos = np.arange(len(order))
    later = np.searchsorted(lo[order, 0], hi[order, 0], side="right") - pos - 1
    first = np.repeat(pos, later)
    s, t = order[first], order[first + 1 + _counting(later)]
    keep = (np.abs(s - t) > 1) & (lo[s, 1] <= hi[t, 1]) & (lo[t, 1] <= hi[s, 1])
    return np.minimum(s, t)[keep], np.maximum(s, t)[keep]


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
    """(i, u, j) of the candidate pairs of segments i and j of the polyline
    pts that cross at params (u, v) in (0,1)x(0,1). Each candidate's
    widened box reaches its partner's, so a near-parallel pair whose
    supporting lines nearly touch is a tangential crossing: NonGeneric."""
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
        if np.any(parallel & (np.abs(cross_r1) / n1 < 1e-7 * np.maximum(n1, n2))):
            raise NonGeneric("tangential self-intersection")
        u = (r[:, 0] * d2[:, 1] - r[:, 1] * d2[:, 0]) / den
        v = cross_r1 / den
    eps = 1e-12
    hit = live & ~parallel & (eps < u) & (u < 1 - eps) & (eps < v) & (v < 1 - eps)
    return i[hit], u[hit], j[hit]


def find_triangles(f: FrontCurve, cusps: Sequence[Cusp],
                   sections: Sequence[Section],
                   doubles: Sequence[DoublePoint]) -> list[Triangle]:
    """A homogeneous double point whose closed subcurve holds exactly two
    cusps is the vertex of a triangle."""
    triangles = []
    for d in doubles:
        if not d.homogeneous:
            continue
        if sum(d.seg_a < c.vertex <= d.seg_b for c in cusps) != 2:
            continue
        # the set deduplicates; np.unique would also import numpy.ma
        loop_secs = sorted({sections[k].id for k in _section_of_vertex(
            sections, np.arange(d.seg_a + 1, d.seg_b + 2)).tolist()})
        branch_index = _section_of_segment(sections, d.seg_a).index
        triangles.append(Triangle(vertex=d, start_seg=d.seg_a, end_seg=d.seg_b,
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
    ray to +q crosses an odd number of edges. Returns a boolean array.

    Only points in the polygon's box, widened in q, get the even-odd pass:
    every other point crosses an even number of edges, so the pass would
    call it outside too. A point with z outside [zmin, zmax] crosses no
    edge, an exact comparison. A point's level z meets an even number of
    edges, since the polygon closes, and each computed `q_at` lies within
    2 eps*M of its edge's q-span, M the polygon's largest |q|. So a point
    left of qmin - 4 eps*M counts every crossing, and one right of
    qmax + 4 eps*M counts none."""
    q1, z1, q2, z2 = qx[:-1], zx[:-1], qx[1:], zx[1:]
    inside = np.zeros(len(q), dtype=bool)
    widen = 4 * np.finfo(float).eps * np.abs(qx).max()
    box = np.flatnonzero((zx.min() <= z) & (z <= zx.max())
                         & (qx.min() - widen <= q) & (q <= qx.max() + widen))
    for rows in _row_chunks(len(box), len(q1)):
        at = box[rows]
        qv, zv = q[at, None], z[at, None]
        # the edges these flags fire on are not crossed, and are masked out
        with np.errstate(all="ignore"):
            q_at = q1 + (zv - z1) / (z2 - z1) * (q2 - q1)
        crossed = ((z1 > zv) != (z2 > zv)) & (q_at > qv)
        inside[at] = np.count_nonzero(crossed, axis=1) % 2 == 1
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
    equal to T's branch index crosses the arcs. Rule (i) gives the outside
    vertices to `_point_in_polygon`, which runs its even-odd pass only on
    those in the loop polygon's box.
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
    non-incident front feature: the radius of the disc around a surgery's
    corner that `eliminate` logs with its q-extent."""
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


def remove_triangle(f: FrontCurve, T: Triangle):
    """Cut the triangle's loop out at its double point d: the vertices
    seg_a+1 .. seg_b go, and one synthetic vertex (origin -1) at (d.q, d.z)
    joins the two retained branches at a corner, the kink of the minimax
    graph at the shock. It carries the incoming branch's p and q0 at
    d.frac_a; every other vertex is kept as it is. Returns the new front and
    the q-extent (q_lo, q_hi) of the replaced subcurve, the retained
    vertices on either side of the cut."""
    d = T.vertex
    a, b = d.seg_a, d.seg_b

    def cut(x, at_d):
        return np.concatenate([x[:a + 1], [at_d], x[b + 1:]])

    def incoming(x):
        return x[a] + d.frac_a * (x[a + 1] - x[a])

    out = FrontCurve(time=f.time, q=cut(f.q, d.q), z=cut(f.z, d.z),
                     p=cut(f.p, incoming(f.p)), q0=cut(f.q0, incoming(f.q0)),
                     origin=cut(f.origin, -1))
    return out, (float(f.q[a]), float(f.q[b + 1]))


def hermite_powers(s, s2, s3, h, z0, m0, z1, m1):
    """Cubic Hermite interpolant at s in [0, 1] of values z0, z1 and slopes
    m0, m1 at the two ends of an abscissa interval of length h, with s ** 2
    and s ** 3 given: a caller that must round them as Python floats do
    computes them itself."""
    h00 = 2 * s3 - 3 * s2 + 1
    h10 = s3 - 2 * s2 + s
    h01 = -2 * s3 + 3 * s2
    h11 = s3 - s2
    return h00 * z0 + h10 * h * m0 + h01 * z1 + h11 * h * m1


def analyze(f: FrontCurve) -> FrontAnalysis:
    """Full combinatorial analysis of a front; NonGeneric at a fold narrower
    than a seed cell. A vertical inflection (a perestroika instant) is
    analysed like any other front."""
    _check_tangency(f)
    cusps = detect_cusps(f)
    sections = split_sections(f, cusps)
    doubles = double_points(f, sections, cusps)
    triangles = find_triangles(f, cusps, sections, doubles)
    return FrontAnalysis(front=f, cusps=tuple(cusps), sections=tuple(sections),
                         doubles=tuple(doubles), triangles=tuple(triangles))


def front_to_json(analysis: FrontAnalysis) -> str:
    """The analysis as indented JSON with sorted keys. The vertex list,
    the last key and the bulk of the text, is spliced into the dump of the
    rest from one template per vertex, its floats spelled by `json` itself
    (`repr`, `NaN`, `Infinity`) in one C-encoder call per column."""
    f = analysis.front
    payload = {
        "time": f.time,
        "vertices": [],
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
    text = json.dumps(payload, indent=2, sort_keys=True)
    if not len(f):
        return text
    columns = [json.dumps(x.tolist())[1:-1].split(", ") for x in (f.p, f.q, f.q0, f.z)]
    vertex = '    {\n      "p": %s,\n      "q": %s,\n      "q0": %s,\n      "z": %s\n    }'
    vertices = ",\n".join(map(vertex.__mod__, zip(*columns)))
    return text[:-len("[]\n}")] + "[\n" + vertices + "\n  ]\n}"
