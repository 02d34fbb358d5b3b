"""Minimax extraction from fronts, two ways.

The production path selects pointwise: the fiber critical points over each
abscissa are coupled greedily and the free point is the minimax. All fibers
go through one array pass, `fiber_rows`, over the fronts of a batch of grid
rows or over one front (`fiber_crossings`: event fibers, triangle probes or a
single abscissa), and one coupling pass, `couple_fibers`, takes the fibers
of a front or of a whole grid. The geometric validator cuts vanishing
triangles out at their double points until the front is the minimax graph,
with a corner at each shock; both must agree outside the logged surgery
regions. Every front, a grid row or a lone slice, is the long front at
exactly its time, and `default_seeds` gives both their seeds from one
lattice. A slice is built by `_long_front`; `minimax_grid` builds, cuts and
crosses its rows in batches of about BATCH_VERTICES front vertices, each
stage in one pass over the batch, with the same code: `trim_long`,
`front.detect_cusps` and `front.split_sections` are the one-front calls of
the batch passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import characteristics as chars
from . import front as frontmod
from . import morse1d
from .errors import DegenerateFiber, InconsistentSweep, NoVanishingTriangle, OutOfRange
from .front import FrontAnalysis, FrontCurve

MAX_SURGERIES = 64   # rounds `eliminate` may take before giving up
TRIM_FRAC = 0.25     # share of the vertices `trim_long` may drop per end
FIBER_TOL = 1e-9     # bbox-scaled distance of a fiber from a cusp or double point
SEED_ROUNDS = 4      # samples `_seed_window` may take of a Windowed domain's seed window
# front vertices of a `minimax_grid` batch, before trimming: a batch is
# BATCH_VERTICES // len(seeds) rows. With the flow streamed, on the qflow
# 64x64 grid (8,662 vertices a row), 3 or 11 rows a batch took the time of
# 2, and 11 raised the peak RSS by 2.4 MB
BATCH_VERTICES = 3 * 2 ** 13
# where `default_seeds` puts its lattice in each of the n cells of a base
# width, as a fraction of a cell. Not 0: an aligned lattice puts seeds on
# q = 0 and q = pi, the symmetry points of u0 = cos(q), and then the Burgers
# grid of criteria 3 and 4 shows 2 ShockBirths and a ForbiddenA (ROADMAP
# item 6).
SEED_OFFSET = 0.381966
# where `coupled_triangles` probes a loop's q-span, in the order it tries them
_PROBE_FRACS = (0.37, 0.61, 0.23, 0.79, 0.5)


@dataclass
class XCurve:
    """A closed curve of two coupled section pieces, swept over q."""
    id: int
    intervals: list  # (q_lo, q_hi, upper_section, lower_section)

    def q_span(self):
        return self.intervals[0][0], self.intervals[-1][1]


@dataclass
class SectionDecomposition:
    """front = minimax section plus closed coupled curves."""
    minimax_pieces: list  # (section_id, q_lo, q_hi)
    coupled_curves: list[XCurve]


@dataclass
class GridSolution:
    t: np.ndarray
    q: np.ndarray
    u: np.ndarray              # (nt, nq)
    branch: np.ndarray         # (nt, nq) per-slice section ids
    branch_count: np.ndarray   # (nt, nq) fiber crossing counts

    @classmethod
    def start(cls, u0, t_grid, q_grid) -> GridSolution:
        """The solution on the (t, q) grid that every grid solver fills:
        u0(q) on the rows at t = 0, the other rows of u unset, branch 0 and
        branch_count 1 as read-only constants that hold one value each (a
        solver that picks branches puts arrays of its own there).
        ValueError unless the times are sorted and not negative and the
        abscissae strictly increase."""
        t = np.asarray(t_grid, dtype=float)
        q = np.asarray(q_grid, dtype=float)
        if not np.all(np.diff(t) >= 0):
            raise ValueError("times must be sorted")
        if not np.all(t >= 0):
            raise ValueError("times must not be negative")
        if not np.all(np.diff(q) > 0):
            raise ValueError("abscissae must strictly increase")
        shape = (len(t), len(q))
        g = cls(t=t, q=q, u=np.empty(shape), branch=np.broadcast_to(0, shape),
                branch_count=np.broadcast_to(1, shape))
        g.u[t == 0] = u0.eval(q=q)
        return g

    def to_csv(self) -> str:
        """One `t,q,u,branch_id` line per grid point, floats as `%.17g`.
        Each row is one %-format of "t," joined with the per-q cells, whose
        q text is formatted once for the whole grid."""
        cells = [f"{qv:.17g},%.17g,%d\n" for qv in self.q.tolist()]
        vals = [None] * (2 * len(cells))
        lines = ["t,q,u,branch_id\n"]
        for tv, us, bs in zip(self.t.tolist(), self.u.tolist(), self.branch.tolist()):
            ts = f"{tv:.17g},"
            vals[0::2], vals[1::2] = us, bs
            lines.append((ts + ts.join(cells)) % tuple(vals))
        return "".join(lines)


@dataclass(frozen=True)
class Fibers:
    """The crossings of fronts with the vertical lines at sorted abscissae
    q, grouped by fiber in curve order: fiber k holds crossings
    bounds[k]:bounds[k+1], and `seg` each crossing's segment (None in the
    fibers `minimax_grid` stacks, which never read it). `failed` maps each
    fiber that passes within FIBER_TOL of a cusp or double point, or has an
    even crossing count, to the DegenerateFiber it raises."""
    bounds: np.ndarray
    z: np.ndarray
    seg: np.ndarray
    section: np.ndarray   # section id
    index: np.ndarray     # branch index of the section
    failed: dict

    def counts(self) -> np.ndarray:
        return np.diff(self.bounds)


@dataclass(frozen=True)
class FrontRows:
    """Fronts on one seed lattice, with what the fiber pass reads of their
    analysis: the rows of a grid batch, or one front. Front r is the
    vertices lo[r]..hi[r] of row r of q, and wq[r] its q-extent
    (`FrontCurve.bbox_scale`). Vertex c of row r carries z[r, c % m] and
    p[r, c % m], m = z.shape[1], as in `front.row_cusps`. `sections` holds
    the (row, end, id, index) arrays of the sections, by row and then along
    the front; `cusps` and `doubles` the (row, q) arrays of the points no
    fiber over their front may pass within FIBER_TOL of."""
    q: np.ndarray
    z: np.ndarray
    p: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    wq: np.ndarray
    sections: tuple
    cusps: tuple
    doubles: tuple

    def __len__(self):
        return len(self.lo)

    @classmethod
    def of(cls, analysis: FrontAnalysis):
        """The one front of analysis."""
        f = analysis.front

        def column(items, attr, dtype):
            return np.array([getattr(x, attr) for x in items], dtype=dtype)

        def events(points):
            return np.zeros(len(points), dtype=int), column(points, "q", float)

        secs = analysis.sections
        return cls(q=f.q[None], z=f.z[None], p=f.p[None], lo=np.array([0]),
                   hi=np.array([len(f) - 1]), wq=np.array([f.bbox_scale()[0]]),
                   sections=(np.zeros(len(secs), dtype=int),
                             *(column(secs, a, int) for a in ("end", "id", "index"))),
                   cusps=events(analysis.cusps), doubles=events(analysis.doubles))


def fiber_crossings(analysis: FrontAnalysis, q) -> Fibers:
    """Every crossing of the front with the vertical lines at the sorted
    abscissae q: `fiber_rows` of the one front."""
    return fiber_rows(FrontRows.of(analysis), q)


def fiber_rows(rows: FrontRows, q) -> Fibers:
    """Every crossing of each front of rows with the vertical lines at the
    sorted abscissae q, in one array pass over the segments of all the
    fronts: fiber r*len(q) + k is the line at q[k] over front r, and `seg`
    counts in its row. A segment is crossed at the grid points strictly
    inside its q-interval and at those equal to its first vertex's q; a
    front's last vertex adds a crossing of its last segment. z is a cubic
    Hermite using the carried momenta."""
    q = np.asarray(q, dtype=float)
    if np.any(q[1:] < q[:-1]):
        raise ValueError("fiber abscissae must be sorted")
    nq = len(q)
    row, seg, first, count, last = _crossing_runs(q, rows.q, rows.lo, rows.hi)
    row, seg, last = np.repeat(row, count), np.repeat(seg, count), np.repeat(last, count)
    k = np.repeat(first, count) + frontmod._counting(count)  # grid index
    fiber = row * nq + k
    # stable: a last-vertex crossing follows a first-vertex one on its segment
    order = np.lexsort((seg, fiber))
    row, seg, k, fiber, last = row[order], seg[order], k[order], fiber[order], last[order]

    m = rows.z.shape[1]
    z = np.empty(len(seg))
    z[last] = rows.z.ravel()[row[last] * m + (seg[last] + 1) % m]
    z[~last] = _crossing_z(rows, row[~last], seg[~last], q[k[~last]])
    s_row, s_end, s_id, s_index = rows.sections
    pos = np.searchsorted(s_row * rows.q.shape[1] + s_end,
                          row * rows.q.shape[1] + seg + 1, side="left")
    bounds = np.searchsorted(fiber, np.arange(len(rows) * nq + 1), side="left")

    failed = {}
    near_cusp = _near(q, rows.cusps, rows.wq, len(rows))
    near_double = _near(q, rows.doubles, rows.wq, len(rows))
    counts = np.diff(bounds)
    for j in np.flatnonzero(near_cusp | near_double | (counts % 2 == 0)).tolist():
        qk = float(q[j % nq])
        if near_cusp[j]:
            failed[j] = DegenerateFiber(f"fiber at q={qk} passes through a cusp projection")
        elif near_double[j]:
            failed[j] = DegenerateFiber(f"fiber at q={qk} passes through a double point")
        else:
            failed[j] = DegenerateFiber(f"even crossing count ({counts[j]}) at q={qk}")
    return Fibers(bounds=bounds, z=z, seg=seg, section=s_id[pos], index=s_index[pos],
                  failed=failed)


def _crossing_runs(q, fq, lo, hi):
    """(row, segment, first grid index, count, last) of each non-empty run
    of the sorted grid q that crosses a front: front r is the polyline
    through vertices lo[r]..hi[r] of row r of fq. Per segment the grid
    points strictly inside its q-interval, then per vertex those equal to
    its q, on the segment it starts (a front's last vertex: the segment it
    ends, and `last` marks those runs); each part by row, then along it.

    One search per vertex: `cell`, the grid points at or below it. A
    segment whose two ends share a cell and lie on no grid point crosses
    none, so only the others are searched again from the left. The
    abscissae fq must not be NaN."""
    n = fq.shape[1]
    fq = fq.ravel()
    cell = np.searchsorted(q, fq, side="right")
    on_grid = np.concatenate([[-np.inf], q])[cell] == fq
    maybe = cell[:-1] != cell[1:]
    maybe |= on_grid[:-1]
    maybe |= on_grid[1:]

    def in_front(at, past_hi):
        """The flat vertex or segment ids at that lie in their row's front."""
        row, col = np.divmod(at, n)
        keep = (lo[row] <= col) & (col + past_hi <= hi[row])
        return at[keep], row[keep], col[keep]

    seg, r_in, s_in = in_front(np.flatnonzero(maybe), 1)
    first = np.minimum(cell[seg], cell[seg + 1])
    count = np.maximum(np.searchsorted(q, fq[seg], side="left"),
                       np.searchsorted(q, fq[seg + 1], side="left")) - first
    inside = count > 0
    v, r_at, v_at = in_front(np.flatnonzero(on_grid), 0)
    first_at = np.searchsorted(q, fq[v], side="left")
    last = v_at == hi[r_at]
    return (np.concatenate([r_in[inside], r_at]), np.concatenate([s_in[inside], v_at - last]),
            np.concatenate([first[inside], first_at]),
            np.concatenate([count[inside], cell[v] - first_at]),
            np.concatenate([np.zeros(np.count_nonzero(inside), dtype=bool), last]))


def _near(q, events, wq, n_rows):
    """Per fiber of n_rows fronts (fiber r*len(q) + k at q[k] over front r):
    within FIBER_TOL, scaled by its front's wq, of one of the (row, q)
    events of its front."""
    row, event_q = events
    near = np.zeros((n_rows, len(q)), dtype=bool)
    if not len(row):
        return near.ravel()
    e, k = np.nonzero(np.abs(event_q[:, None] - q[None, :]) / wq[row][:, None] < FIBER_TOL)
    near[row[e], k] = True
    return near.ravel()


def _crossing_z(rows: FrontRows, row, seg, q):
    """z at abscissae q on segments seg of rows row: the midpoint on a
    segment shorter than 1e-13 in q, linear where a carried slope is wild
    (right at a fold), the cubic Hermite elsewhere. s ** 2 and s ** 3 are
    libm's pow, as Python floats round them: `np.float_power` calls it,
    while numpy's power rounds some elements differently."""
    n, m = rows.q.shape[1], rows.z.shape[1]
    qf, zf, pf = rows.q.ravel(), rows.z.ravel(), rows.p.ravel()
    a, b = row * m + seg % m, row * m + (seg + 1) % m
    z0, z1 = zf[a], zf[b]
    m0, m1 = pf[a], pf[b]
    qa = qf[row * n + seg]
    h = qf[row * n + seg + 1] - qa
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(h == 0, 0.0, (q - qa) / h)
        lin = (z1 - z0) / h
    dev0, dev1 = np.abs(m0 - lin), np.abs(m1 - lin)
    wild = ~(np.isfinite(m0) & np.isfinite(m1)) \
        | (np.where(dev1 > dev0, dev1, dev0) > 10.0 * (1.0 + np.abs(lin)))
    mid = np.abs(h) < 1e-13
    z = np.where(mid, 0.5 * (z0 + z1), z0 + s * (z1 - z0))
    cubic = ~mid & ~wild
    sc = s[cubic]
    z[cubic] = frontmod.hermite_powers(
        sc, np.float_power(sc, 2.0), np.float_power(sc, 3.0),
        h[cubic], z0[cubic], m0[cubic], z1[cubic], m1[cubic])
    return z


@dataclass(frozen=True)
class Coupling:
    """The coupling of every fiber of `fibers`. `free[k]` is the crossing
    number of fiber k's free point, -1 on a fiber in `failed`, which maps
    each fiber that cannot be coupled to the error it raises. `pairs[k]`
    holds the [upper, lower] crossing numbers of fiber k's coupled pairs, in
    greedy order, for each coupled fiber of three or more crossings; it is
    built from `coupled`, the (fibers, pairs) arrays of each crossing
    count, when first read, and a grid never reads it."""
    fibers: Fibers
    free: np.ndarray
    failed: dict
    coupled: list

    @cached_property
    def pairs(self) -> dict:
        pairs = {}
        for ks, prs in self.coupled:
            pairs.update(zip(ks.tolist(), prs.tolist()))
        return pairs


def couple_fibers(fibers: Fibers) -> Coupling:
    """Greedy coupling of every fiber: one crossing is free. The fibers of
    three or more crossings are grouped by crossing count, and each group
    goes through one `morse1d.couple_rows` call on its crossings' values
    and branch indices. The fibers may come from several fronts, stacked
    by `_stack_fibers`: `minimax_grid` couples a whole grid in one call,
    one `couple_rows` call per distinct crossing count."""
    fb = fibers
    counts = fb.counts()
    failed = dict(fb.failed)
    ok = np.ones(len(counts), dtype=bool)
    ok[list(failed)] = False
    free = np.where(ok & (counts == 1), fb.bounds[:-1], -1)
    coupled = []
    # a set, not np.unique: numpy's unique imports numpy.ma on first call
    for c in sorted(set(counts[ok & (counts >= 3)].tolist())):
        ks = np.flatnonzero(ok & (counts == c))
        lo = fb.bounds[ks]
        at = lo[:, None] + np.arange(c)
        j, prs, bad = morse1d.couple_rows(fb.z[at], fb.index[at])
        for r, exc in bad.items():
            failed[int(ks[r])] = exc
        good = j >= 0
        free[ks[good]] = lo[good] + j[good]
        coupled.append((ks[good], prs[good] + lo[good, None, None]))
    return Coupling(fibers=fb, free=free, failed=failed, coupled=coupled)


def select_fibers(analysis: FrontAnalysis, q) -> Coupling:
    """Crossings and coupling of the fibers at the sorted abscissae q."""
    return couple_fibers(fiber_crossings(analysis, q))


def fiber_points(analysis: FrontAnalysis, q: float) -> Fibers:
    """The crossings of the one fiber at q, ordered along the curve. No
    solver path calls this: it stays only because `perfbench/tracer.py`
    wraps it by name, and goes when the tracer wraps `fiber_crossings`
    instead."""
    fb = fiber_crossings(analysis, [q])
    if fb.failed:
        raise fb.failed[0]
    return fb


def select_pointwise(analysis: FrontAnalysis, q: float):
    """(z, section id) of the free critical point of the fiber at q."""
    cp = select_fibers(analysis, [q])
    if cp.failed:
        raise cp.failed[0]
    free = cp.free[0]
    return float(cp.fibers.z[free]), int(cp.fibers.section[free])


def _event_fibers(analysis: FrontAnalysis):
    """The sorted event abscissae of the front, and (i, free section,
    [(upper, lower) section pairs]) of the fiber at the midpoint of each
    interval events[i]..events[i+1]. The events are the front's end
    abscissae and every cusp and double point between them: the fiber's
    critical points, their order and their coupling change only there. An
    interval no wider than 4*FIBER_TOL*wq (wq the front's q-extent) gets no
    fiber, so every midpoint lies at least twice FIBER_TOL*wq from its ends;
    the others go through one `select_fibers` call, and a fiber that cannot
    be coupled raises."""
    f = analysis.front
    q_lo, q_hi = float(f.q[0]), float(f.q[-1])
    events = np.array(sorted({q_lo, q_hi, *(e.q for e in analysis.cusps + analysis.doubles
                                             if q_lo < e.q < q_hi)}))
    wide = np.flatnonzero(np.diff(events) > 4 * FIBER_TOL * f.bbox_scale()[0])
    cp = select_fibers(analysis, 0.5 * (events[wide] + events[wide + 1]))
    if cp.failed:
        raise cp.failed[min(cp.failed)]
    section = cp.fibers.section.tolist()
    return events.tolist(), [
        (i, section[cp.free[k]], [(section[u], section[l]) for u, l in cp.pairs.get(k, ())])
        for k, i in enumerate(wide.tolist())]


def minimax_pieces(analysis: FrontAnalysis):
    """(section_id, q_lo, q_hi) runs of the minimax section across the
    front, from the same event fibers as `decompose`: each piece ends at an
    event, and an interval too narrow to probe between two pieces of
    different sections is left uncovered."""
    return _stitch_mu(*_event_fibers(analysis))


def decompose(analysis: FrontAnalysis) -> SectionDecomposition:
    """The minimax section and the closed coupled curves X_i, stitched from
    the event fibers. A coupled pair that appears or vanishes away from a
    cusp, or swaps a partner away from a homogeneous double point, raises
    InconsistentSweep."""
    events, fibers = _event_fibers(analysis)
    cusps = {c.q for c in analysis.cusps}
    homog = {d.q for d in analysis.doubles if d.homogeneous}
    return SectionDecomposition(minimax_pieces=_stitch_mu(events, fibers),
                                coupled_curves=_stitch_pairs(events, fibers, cusps, homog))


def _stitch_mu(events, fibers):
    pieces = []
    for i, sec, _ in fibers:
        if pieces and pieces[-1][0] == sec:
            pieces[-1][2] = events[i + 1]
        else:
            pieces.append([sec, events[i], events[i + 1]])
    return [(sec, lo, hi) for sec, lo, hi in pieces]


def _stitch_pairs(events, fibers, cusps, homog):
    """The coupled curves, by q-span. Between the fibers of intervals j < i
    lie the events events[j+1..i]: a pair may appear or vanish there only
    if one is a cusp, and swap a partner only if one is a homogeneous
    double point. Greedy coupling re-links neighbours after each removal,
    so the double point need not be one of the swapped sections'."""
    active = {}   # frozenset of the pair's sections -> its intervals
    done = []
    prev = None
    for i, _, prs in fibers:
        between = set(events[prev + 1:i + 1]) if prev is not None else set()
        lo, hi = events[i], events[i + 1]
        cur = {}
        for upper, lower in prs:
            key = frozenset((upper, lower))
            if key in active:
                x = active.pop(key)
                x[-1] = (x[-1][0], hi, upper, lower)
            else:
                old = next((k for k in active if k & key), None) if between & homog else None
                if old is not None:
                    x = active.pop(old)
                    x.append((lo, hi, upper, lower))
                # a pair at the first fiber starts at the front's end
                elif prev is None or between & cusps:
                    x = [(lo, hi, upper, lower)]
                else:
                    raise InconsistentSweep(
                        f"pair {sorted(key)} appeared at q={lo} away from any cusp")
            cur[key] = x
        if active and not between & cusps:
            raise InconsistentSweep(f"pair {sorted(next(iter(active)))} vanished "
                                    f"at q={events[prev + 1]} away from any cusp")
        done.extend(active.values())
        active, prev = cur, i
    done.extend(active.values())
    done.sort(key=lambda x: (x[0][0], x[-1][1]))
    return [XCurve(id=k, intervals=x) for k, x in enumerate(done)]


@dataclass
class Surgery:
    vertex_q: float
    vertex_z: float
    ball_radius: float   # bbox-scaled, of the surgery region around the corner
    strict: bool     # False when selected by the smallest-loop fallback
    q_lo: float      # q of the retained vertices on either side of the cut:
    q_hi: float      # the q-extent of the replaced subcurve


def coupled_triangles(analysis: FrontAnalysis, triangles) -> list[bool]:
    """Per triangle: True when its loop is one of the coupled X_i. At the
    first of five fibers inside the loop's q-span, in the fixed
    `_PROBE_FRACS` order, that can be coupled and crosses the loop twice,
    the loop's two crossings are coupled with each other. The probes of all
    triangles go through one `select_fibers` pass on their sorted union:
    each fiber's crossings and coupling do not depend on the others."""
    if not triangles:
        return []
    f = analysis.front
    spans = np.array([_loop_q_span(f, T) for T in triangles])
    qs = (spans[:, :1] + np.array(_PROBE_FRACS) * (spans[:, 1:] - spans[:, :1])).ravel()
    order = np.argsort(qs, kind="stable")
    cp = select_fibers(analysis, qs[order])
    at = np.argsort(order).reshape(len(triangles), len(_PROBE_FRACS)).tolist()
    return [_loop_coupled(cp, T, probes) for T, probes in zip(triangles, at)]


def _loop_q_span(f: FrontCurve, T):
    qx, _ = frontmod._loop_polygon(f, T)
    return float(qx.min()), float(qx.max())


def _loop_coupled(cp: Coupling, T, probes) -> bool:
    """The verdict of `coupled_triangles` on T from its fibers `probes`, in
    probe order."""
    for k in probes:
        lo, hi = int(cp.fibers.bounds[k]), int(cp.fibers.bounds[k + 1])
        if k in cp.failed or hi - lo == 1:
            continue
        seg = cp.fibers.seg[lo:hi]
        in_loop = (T.start_seg <= seg) & (seg <= T.end_seg)
        if np.count_nonzero(in_loop) < 2:
            continue
        return any(in_loop[u - lo] and in_loop[l - lo] for u, l in cp.pairs[k])
    return False


def triangle_is_coupled(analysis: FrontAnalysis, T) -> bool:
    """`coupled_triangles` of the one triangle T."""
    return coupled_triangles(analysis, [T])[0]


def _loop_area(f: FrontCurve, T) -> float:
    qs, zs = frontmod._loop_polygon(f, T)
    return 0.5 * abs(np.dot(qs, np.roll(zs, -1)) - np.dot(zs, np.roll(qs, -1)))


def eliminate(f: FrontCurve):
    """Vanishing-triangle elimination loop: returns the minimax graph, a
    front with a corner at each shock, and the ordered surgery log. Each
    surgery cuts one coupled triangle out at its double point, deleting one
    coupled pair.

    When swallowtail loops overlap, their crossings can block each other
    under the strict vanishing rule even though every loop is coupled and
    removable. In that case the coupled triangle with the smallest loop area
    is removed and the surgery is logged with strict=False, so the caller can
    see which steps went through the fallback."""
    log = []
    current = f
    for _ in range(MAX_SURGERIES):
        analysis = frontmod.analyze(current)
        if not analysis.cusps:
            return current, log
        coupled = [T for T, ok in zip(analysis.triangles,
                                      coupled_triangles(analysis, analysis.triangles)) if ok]
        # the first vanishing one in (q, z) order of the double point
        T = next((T for T in sorted(coupled, key=lambda T: (T.vertex.q, T.vertex.z))
                  if frontmod.is_vanishing(current, T, analysis.sections,
                                           analysis.doubles)), None)
        strict = T is not None
        if not strict:
            if not coupled:
                raise NoVanishingTriangle(
                    "front is not smooth but no triangle loop is coupled "
                    f"(cusps={len(analysis.cusps)}, doubles={len(analysis.doubles)}, "
                    f"triangles={len(analysis.triangles)}, t={current.time})")
            T = min(coupled, key=lambda T: _loop_area(current, T))
        radius = frontmod.default_ball_radius(current, T)
        current, (q_lo, q_hi) = frontmod.remove_triangle(current, T)
        log.append(Surgery(vertex_q=T.vertex.q, vertex_z=T.vertex.z,
                           ball_radius=radius, strict=strict, q_lo=q_lo, q_hi=q_hi))
    raise NoVanishingTriangle("elimination did not terminate")


# --- grid assembly ---

def _seed_window(spec: chars.ProblemSpec, t: float | None):
    """(base_lo, base_hi, margin): the base domain, and how far past each of
    its ends the seeds must reach for every fiber over it to be covered up
    to time t (t_max when None): 1.5 t max|H_p| + 0.5, at u0's slopes on
    257 points of one period, or of a window's seed window. That sample
    starts as [qmin, qmax] and grows to twice the margin past each end until
    the margin fits in it; OutOfRange, naming the margin, after SEED_ROUNDS."""
    t = spec.t_max if t is None else t
    d = spec.domain
    periodic = isinstance(d, chars.Periodic)
    base_lo, base_hi = (0.0, d.period) if periodic else (d.qmin, d.qmax)
    sampled = 0.0
    for _ in range(SEED_ROUNDS):
        probe = np.linspace(base_lo - sampled, base_hi + sampled, 257)
        _, p0 = spec.u0.eval_d(q=probe, wrt="q")
        vmax = 0.0
        for tt in np.linspace(0.0, t, 5):
            _, hp = spec.H.eval_d(t=tt, q=probe, p=p0, wrt="p")
            vmax = max(vmax, float(np.max(np.abs(hp))))
        margin = 1.5 * vmax * t + 0.5
        if periodic or margin <= sampled:
            return base_lo, base_hi, margin
        if not math.isfinite(margin):
            break
        sampled = 2.0 * margin
    raise OutOfRange(f"seed margin {margin:.6g} past the window [{base_lo:g}, {base_hi:g}] "
                     f"does not settle in {SEED_ROUNDS} samples at t={t:g}: strands from "
                     "farther out may reach the window")


def default_seeds(spec: chars.ProblemSpec, n: int, t: float | None = None):
    """Seeds for a slice at time t, or for `minimax_grid` when t is None
    (t_max). Over the base domain [base_lo, base_lo + W] (W the period, or
    qmax - qmin), the sorted lattice base_lo + (j + SEED_OFFSET)*W/n + k*W,
    j < n, from the last point at or below the lower end of t's seed window
    to the first at or above its upper end. Slices and grids so share one
    lattice; on a periodic domain `evolve_states` flows one period of it
    and each row is expanded to the whole lattice when it is read.
    ValueError when n < 1."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    base_lo, base_hi, margin = _seed_window(spec, t)
    lo, hi = base_lo - margin, base_hi + margin
    W = base_hi - base_lo
    cell = (np.arange(n) + SEED_OFFSET) * W / n
    periods = base_lo + np.arange(math.floor((lo - base_lo) / W) - 1,
                                  math.floor((hi - base_lo) / W) + 2) * W
    lattice = (periods[:, None] + cell[None, :]).ravel()
    first = int(np.searchsorted(lattice, lo, side="right")) - 1
    last = int(np.searchsorted(lattice, hi, side="left"))
    return lattice[first:last + 1].copy()  # not a view pinning every period


def trim_long(q0, q, p, z):
    """Drop end vertices sitting inside a fold so the front is graph-like at
    both ends. Takes and returns seed-sorted arrays (q0, q, p, z); at most
    TRIM_FRAC of the vertices may go per end: `_trim_rows` of one row."""
    lo, hi = _trim_rows(np.diff(q)[None])
    keep = slice(int(lo[0]), int(hi[0]) + 1)
    return q0[keep], q[keep], p[keep], z[keep]


def _trim_rows(dq):
    """(lo, hi) per row whose q steps are that row of dq: the first and
    last vertex kept once the steps that do not rise at each end, at most
    TRIM_FRAC of the row's vertices per end, are dropped."""
    n = dq.shape[1] + 1
    limit = int(n * TRIM_FRAC)
    stop = np.ones((len(dq), 1), dtype=bool)  # no more than limit steps go
    return (np.argmax(np.hstack([dq[:, :limit] > 0, stop]), axis=1),
            n - 1 - np.argmax(np.hstack([dq[:, ::-1][:, :limit] > 0, stop]), axis=1))


def _long_front(t: float, q0, q, p, z) -> FrontCurve:
    """The long front at time t from seed-sorted states: every slice, on the
    grid or alone, is built here."""
    return frontmod.build_front(*trim_long(q0, q, p, z), time=t)


def slice_analysis(spec: chars.ProblemSpec, t: float, seeds,
                   step: float | None = None):
    """Front analysis at exactly time t, built as a grid row is. A
    non-generic slice raises; it is never moved to another time."""
    return frontmod.analyze(_long_front(t, *chars.evolve(spec, t, seeds, step)))


def minimax_grid(spec: chars.ProblemSpec, t_grid, q_grid,
                 step: float | None = None, n_seeds: int = 4096) -> GridSolution:
    """Minimax solution values on the (t,q) grid via pointwise selection.
    The seeds are `default_seeds(spec, n_seeds)`: on a periodic domain a
    lattice of n_seeds per period, of which `evolve_states` flows one
    period. Each row is the front at exactly its grid time, from that
    time's `evolve_states` row, and each fiber is at exactly its grid q;
    neither is shifted.

    The rows after t = 0 go in batches of BATCH_VERTICES // len(seeds)
    consecutive rows, each drawn from the flow when its batch is built.
    `_grid_rows` tiles, trims and cuts a batch's fronts and `fiber_rows`
    crosses them with q_grid, each in one pass over the batch; the batch's
    fronts are released before the next is built. The fibers of all rows
    are coupled in one `couple_fibers` call. The grid is checked and its
    t = 0 rows written by `GridSolution.start`; their branch ids are 0 and
    their crossing counts 1.

    A flow error beats any other: once a batch fails, the flow is drawn
    to its end. Otherwise the first failing row in grid order raises, with
    its first failing fiber in abscissa order. No batch is built after one
    with a front that cannot be built or a fiber that passes a cusp or has
    an even crossing count; the rows built are coupled, and a failed fiber
    raises before the front's NotLong or IndexInconsistency, whose row
    follows every row built. So a crossing or a coupling failure beats a
    build failure in a later row, and within a row abscissa order decides."""
    g = GridSolution.start(spec.u0, t_grid, q_grid)
    g.branch, g.branch_count = np.zeros(g.u.shape, dtype=int), np.ones(g.u.shape, dtype=int)
    seeds = default_seeds(spec, n_seeds)
    rows = np.flatnonzero(g.t > 0).tolist()
    flow = chars.evolve_states(spec, g.t[rows].tolist(), seeds, step)
    size = max(1, BATCH_VERTICES // len(seeds))
    done, parts, error = [], [], None
    for b in range(0, len(rows), size):
        batch = rows[b:b + size]
        block = (next(flow) for _ in batch)
        built, error = _grid_rows(spec, seeds, *map(np.array, zip(*block)))
        done += batch[:len(built)]
        fibers = fiber_rows(built, g.q)
        del built  # the batch's fronts go before the next batch is built
        parts.append(replace(fibers, seg=None))  # the grid never reads seg
        if fibers.failed or error is not None:
            for _ in flow:  # a flow error beats the batch's
                pass
            break
    cp = couple_fibers(_stack_fibers(parts))
    if cp.failed:
        raise cp.failed[min(cp.failed)]
    if error is not None:
        raise error
    free = cp.free.reshape(len(done), len(g.q))
    g.u[done] = cp.fibers.z[free]
    g.branch[done] = cp.fibers.section[free]
    g.branch_count[done] = cp.fibers.counts().reshape(free.shape)
    return g


def _grid_rows(spec: chars.ProblemSpec, seeds, q, p, z):
    """The fronts of the `evolve_states` rows q, p, z over the sorted seeds,
    each row's q expanded by `tile_q` (p and z stay one period, as
    `front.row_cusps` reads them) and trimmed as `trim_long` trims, with
    their cusps and sections: each stage one pass over the rows. Returns
    the FrontRows of the rows before the first front that cannot be built,
    and that front's error (None when every front is built)."""
    Q = chars.tile_q(spec, len(seeds), q)
    dq = np.diff(Q, axis=1)
    lo, hi = _trim_rows(dq)
    long = frontmod.long_rows(dq, lo, hi)
    c_row, c_vertex, c_q, _, c_sign = frontmod.row_cusps(Q, dq, z, p, seeds, lo, hi)
    del dq
    sections, walk = frontmod.row_sections(hi, c_row, c_vertex, c_sign)
    broken = np.flatnonzero(~long | (walk != 0)).tolist()
    n = broken[0] if broken else len(q)
    error = frontmod.front_error(long[n], int(walk[n])) if broken else None

    Q, lo, hi = Q[:n], lo[:n], hi[:n]
    wq = np.array([frontmod._width(Q[r, a:b + 1])  # as `bbox_scale`
                   for r, (a, b) in enumerate(zip(lo.tolist(), hi.tolist()))])
    c_n = np.searchsorted(c_row, n)
    s_n = np.searchsorted(sections[0], n)
    return FrontRows(q=Q, z=z[:n], p=p[:n], lo=lo, hi=hi, wq=wq,
                     sections=tuple(x[:s_n] for x in sections),
                     cusps=(c_row[:c_n], c_q[:c_n]),
                     doubles=(np.empty(0, dtype=int), np.empty(0))), error


def _stack_fibers(parts) -> Fibers:
    """The fibers of parts as one Fibers, in order: each part's fibers
    follow those of the parts before it. `seg` is not kept."""
    start = np.cumsum([0] + [len(fb.z) for fb in parts])
    first = np.cumsum([0] + [len(fb.bounds) - 1 for fb in parts])
    return Fibers(
        bounds=np.concatenate([fb.bounds[:-1] + s for fb, s in zip(parts, start)]
                              + [start[-1:]]),
        z=np.concatenate([fb.z for fb in parts] + [np.empty(0)]),
        seg=None,
        section=np.concatenate([fb.section for fb in parts] + [np.empty(0, dtype=int)]),
        index=np.concatenate([fb.index for fb in parts] + [np.empty(0, dtype=int)]),
        failed={f + k: exc for fb, f in zip(parts, first) for k, exc in fb.failed.items()})
