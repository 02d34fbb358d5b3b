"""Minimax extraction from fronts, two ways.

The production path selects pointwise: the fiber critical points over each
abscissa are coupled greedily and the free point is the minimax. All fibers
of one front go through one array pass, `fiber_crossings`, and one coupling
pass, `couple_fibers`, whether they are a grid row, a sweep or a single
abscissa. The geometric validator cuts vanishing triangles out at their
double points until the front is the minimax graph, with a corner at each
shock; both must agree outside the logged surgery regions. Every front, a
grid row or a lone slice, is built by `_long_front` at exactly its time,
and `default_seeds` gives both their seeds from one lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import characteristics as chars
from . import front as frontmod
from . import morse1d
from .errors import DegenerateFiber, InconsistentSweep, NoVanishingTriangle
from .front import FrontAnalysis, FrontCurve

SWEEP_FIBERS = 512   # fibers `_sweep` lays across a front
MAX_SURGERIES = 64   # rounds `eliminate` may take before giving up
TRIM_FRAC = 0.25     # share of the vertices `trim_long` may drop per end
FIBER_TOL = 1e-9     # bbox-scaled distance of a fiber from a cusp or double point
# where `default_seeds` puts its lattice in each of the n cells of a base
# width, as a fraction of a cell. Not 0: an aligned lattice puts seeds on
# q = 0 and q = pi, the symmetry points of u0 = cos(q), and then the Burgers
# grid of criteria 3 and 4 shows 2 ShockBirths and a ForbiddenA (ROADMAP
# items 3, 6).
SEED_OFFSET = 0.381966
# where `triangle_is_coupled` probes a loop's q-span, in the order it tries them
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

    def to_csv(self) -> str:
        qs = [f"{qv:.17g}" for qv in self.q.tolist()]
        lines = ["t,q,u,branch_id\n"]
        for tv, us, bs in zip(self.t.tolist(), self.u.tolist(), self.branch.tolist()):
            ts = f"{tv:.17g}"
            lines += [f"{ts},{qv},{uv:.17g},{b}\n" for qv, uv, b in zip(qs, us, bs)]
        return "".join(lines)


@dataclass(frozen=True)
class Fibers:
    """The crossings of a front with the vertical lines at sorted abscissae
    q, grouped by fiber in curve order: fiber k holds crossings
    bounds[k]:bounds[k+1]. `failed` maps each fiber that passes within
    FIBER_TOL of a cusp or double point, or has an even crossing count, to
    the DegenerateFiber it raises."""
    bounds: np.ndarray
    z: np.ndarray
    seg: np.ndarray
    section: np.ndarray   # section id
    index: np.ndarray     # branch index of the section
    failed: dict

    def counts(self) -> np.ndarray:
        return np.diff(self.bounds)


def fiber_crossings(analysis: FrontAnalysis, q) -> Fibers:
    """Every crossing of the front with the vertical lines at the sorted
    abscissae q, in one array pass over the segments. A segment is crossed
    at the grid points strictly inside its q-interval and at those equal to
    its first vertex's q; the last vertex adds a crossing of the last
    segment. z is a cubic Hermite using the carried momenta."""
    f = analysis.front
    q = np.asarray(q, dtype=float)
    if np.any(q[1:] < q[:-1]):
        raise ValueError("fiber abscissae must be sorted")
    wq, _ = f.bbox_scale()
    seg, first, n = _crossing_runs(q, f.q)
    seg = np.repeat(seg, n)
    fiber = np.repeat(first, n) + frontmod._counting(n)
    # stable: a last-vertex crossing follows a first-vertex one on its segment
    order = np.lexsort((seg, fiber))
    seg, fiber = seg[order], fiber[order]
    last = order >= len(order) - np.count_nonzero(q == f.q[-1])

    z = np.full(len(seg), f.z[-1])
    z[~last] = _crossing_z(f, seg[~last], q[fiber[~last]])
    pos = frontmod._section_of_vertex(analysis.sections, seg + 1)
    section = np.array([s.id for s in analysis.sections], dtype=int)[pos]
    index = np.array([s.index for s in analysis.sections], dtype=int)[pos]
    bounds = np.searchsorted(fiber, np.arange(len(q) + 1), side="left")

    failed = {}
    near_cusp = _near(q, [c.q for c in analysis.cusps], wq)
    near_double = _near(q, [d.q for d in analysis.doubles], wq)
    counts = np.diff(bounds)
    for k in np.flatnonzero(near_cusp | near_double | (counts % 2 == 0)).tolist():
        qk = float(q[k])
        if near_cusp[k]:
            failed[k] = DegenerateFiber(f"fiber at q={qk} passes through a cusp projection")
        elif near_double[k]:
            failed[k] = DegenerateFiber(f"fiber at q={qk} passes through a double point")
        else:
            failed[k] = DegenerateFiber(f"even crossing count ({counts[k]}) at q={qk}")
    return Fibers(bounds=bounds, z=z, seg=seg, section=section, index=index,
                  failed=failed)


def _crossing_runs(q, fq):
    """(segment, first grid index, count) of each non-empty run of the
    sorted grid q that crosses the polyline with vertex abscissae fq: per
    segment the grid points strictly inside its q-interval, then per vertex
    those equal to its q, on the segment it starts (the last vertex: the
    segment it ends).

    One search per vertex and side: `searchsorted` is monotone in its key,
    so the search of min(qa, qb) is the smaller of the searches of qa and
    qb. The abscissae fq must not be NaN."""
    lo = np.searchsorted(q, fq, side="left")
    hi = np.searchsorted(q, fq, side="right")
    first = np.minimum(hi[:-1], hi[1:])
    count = np.maximum(lo[:-1], lo[1:]) - first
    inside = np.flatnonzero(count > 0)
    at = np.flatnonzero(hi > lo)  # vertices on grid points
    return (np.concatenate([inside, np.minimum(at, len(fq) - 2)]),
            np.concatenate([first[inside], lo[at]]),
            np.concatenate([count[inside], (hi - lo)[at]]))


def _near(q, event_qs, wq):
    """Per fiber: within FIBER_TOL (q-bbox-scaled) of one of event_qs."""
    if not event_qs:
        return np.zeros(len(q), dtype=bool)
    return np.any(np.abs(np.array(event_qs)[None, :] - q[:, None]) / wq < FIBER_TOL, axis=1)


def _crossing_z(f: FrontCurve, seg, q):
    """z at abscissae q on segments seg: the midpoint on a segment shorter
    than 1e-13 in q, linear where a carried slope is wild (right at a fold),
    the cubic Hermite elsewhere. s ** 2 and s ** 3 are rounded as Python
    floats: numpy's power rounds some elements differently."""
    z0, z1 = f.z[seg], f.z[seg + 1]
    m0, m1 = f.p[seg], f.p[seg + 1]
    h = f.q[seg + 1] - f.q[seg]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(h == 0, 0.0, (q - f.q[seg]) / h)
        lin = (z1 - z0) / h
    dev0, dev1 = np.abs(m0 - lin), np.abs(m1 - lin)
    wild = ~(np.isfinite(m0) & np.isfinite(m1)) \
        | (np.where(dev1 > dev0, dev1, dev0) > 10.0 * (1.0 + np.abs(lin)))
    mid = np.abs(h) < 1e-13
    z = np.where(mid, 0.5 * (z0 + z1), z0 + s * (z1 - z0))
    cubic = ~mid & ~wild
    sc = s[cubic].tolist()
    z[cubic] = frontmod.hermite_powers(
        s[cubic], np.array([x ** 2 for x in sc]), np.array([x ** 3 for x in sc]),
        h[cubic], z0[cubic], m0[cubic], z1[cubic], m1[cubic])
    return z


@dataclass(frozen=True)
class Coupling:
    """The coupling of every fiber of `fibers`. `free[k]` is the crossing
    number of fiber k's free point, -1 on a fiber in `failed`, which maps
    each fiber that cannot be coupled to the error it raises. `pairs[k]`
    holds the [upper, lower] crossing numbers of fiber k's coupled pairs, in
    greedy order, for each coupled fiber of three or more crossings."""
    fibers: Fibers
    free: np.ndarray
    failed: dict
    pairs: dict


def couple_fibers(fibers: Fibers) -> Coupling:
    """Greedy coupling of every fiber: one crossing is free. The fibers of
    three or more crossings are grouped by crossing count, and each group
    goes through one `morse1d.couple_rows` call on its crossings' values
    and branch indices."""
    fb = fibers
    counts = fb.counts()
    failed = dict(fb.failed)
    ok = np.ones(len(counts), dtype=bool)
    ok[list(failed)] = False
    free = np.where(ok & (counts == 1), fb.bounds[:-1], -1)
    pairs = {}
    for c in np.unique(counts[ok & (counts >= 3)]).tolist():
        ks = np.flatnonzero(ok & (counts == c))
        lo = fb.bounds[ks]
        at = lo[:, None] + np.arange(c)
        j, prs, bad = morse1d.couple_rows(fb.z[at], fb.index[at])
        for r, exc in bad.items():
            failed[int(ks[r])] = exc
        good = j >= 0
        free[ks[good]] = lo[good] + j[good]
        pairs.update(zip(ks[good].tolist(),
                         (prs[good] + lo[good, None, None]).tolist()))
    return Coupling(fibers=fb, free=free, failed=failed, pairs=pairs)


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


def _sweep(analysis: FrontAnalysis):
    """The fiber spacing, and (q, free section, [(upper, lower) section
    pairs]) for each of SWEEP_FIBERS fibers across the front. A fiber that
    cannot be coupled is skipped."""
    f = analysis.front
    # sweep between the end vertices: a fold can dip past them in q, where
    # the fiber loses the noncompact branch and its crossing count is even
    q_lo, q_hi = float(f.q[0]), float(f.q[-1])
    pad = (q_hi - q_lo) * 1e-6
    qs = np.linspace(q_lo + pad, q_hi - pad, SWEEP_FIBERS)
    cp = select_fibers(analysis, qs)
    section = cp.fibers.section.tolist()
    fibers = [(qs[k], section[cp.free[k]],
               [(section[u], section[l]) for u, l in cp.pairs.get(k, ())])
              for k in range(len(qs)) if k not in cp.failed]
    return qs[1] - qs[0], fibers


def minimax_pieces(analysis: FrontAnalysis):
    """(section_id, q_lo, q_hi) runs of the minimax section across the
    front, from the same sweep as `decompose`."""
    return _stitch_mu(_sweep(analysis)[1])


def decompose(analysis: FrontAnalysis) -> SectionDecomposition:
    """Sweep fibers across the front, record couplings, and stitch the
    minimax section and the closed coupled curves X_i. A coupled pair that
    appears, vanishes or swaps a partner away from a front event raises
    InconsistentSweep."""
    dq_sweep, fibers = _sweep(analysis)
    cusp_qs = np.array([c.q for c in analysis.cusps])
    homog = [d for d in analysis.doubles if d.homogeneous]
    return SectionDecomposition(
        minimax_pieces=_stitch_mu(fibers),
        coupled_curves=_stitch_pairs(fibers, cusp_qs, homog, dq_sweep))


def _stitch_mu(fibers):
    pieces = []
    for q, sec, _ in fibers:
        if pieces and pieces[-1][0] == sec:
            pieces[-1][2] = q
        else:
            pieces.append([sec, q, q])
    return [(sec, lo, hi) for sec, lo, hi in pieces]


def _stitch_pairs(fibers, cusp_qs, homog, dq_sweep):
    slack = 1.5 * dq_sweep
    active = {}   # key: frozenset of sections -> XCurve
    done = []
    next_id = 0
    started = False
    for q, _, prs in fibers:
        cur = {}
        for upper, lower in prs:
            key = frozenset((upper, lower))
            if key in active:
                x = active.pop(key)
                x.intervals[-1] = (x.intervals[-1][0], q, upper, lower)
            else:
                x = _match_swap(active, key, q, slack, homog)
                if x is not None:
                    x.intervals.append((q, q, upper, lower))
                else:
                    # pairs present at the first fiber did not "appear"
                    if started and not _near_event(q, cusp_qs, slack):
                        raise InconsistentSweep(
                            f"pair {sorted(key)} appeared at q={q} away from any cusp")
                    x = XCurve(id=next_id, intervals=[(q, q, upper, lower)])
                    next_id += 1
            cur[key] = x
        started = True
        for key, x in active.items():
            if not _near_event(x.intervals[-1][1], cusp_qs, 2 * slack) \
                    and not _near_event(x.intervals[-1][1] + dq_sweep, cusp_qs, 2 * slack):
                raise InconsistentSweep(
                    f"pair {sorted(key)} vanished at q={x.intervals[-1][1]} away from any cusp")
            done.append(x)
        active = cur
    done.extend(active.values())
    done.sort(key=lambda x: x.q_span())
    for i, x in enumerate(done):
        x.id = i
    return done


def _match_swap(active, key, q, slack, homog):
    """A pair whose identity changed must have swapped a partner at a
    homogeneous double point between the swapped sections."""
    for old_key in list(active):
        shared = old_key & key
        if not shared or old_key == key:
            continue
        swapped = (old_key | key) - shared
        if any(frozenset(d.sections) == swapped and abs(d.q - q) <= 2 * slack
               for d in homog):
            return active.pop(old_key)
    return None


def _near_event(q, event_qs, slack):
    return len(event_qs) > 0 and np.any(np.abs(event_qs - q) <= slack)


@dataclass
class Surgery:
    vertex_q: float
    vertex_z: float
    ball_radius: float   # bbox-scaled, of the surgery region around the corner
    strict: bool     # False when selected by the smallest-loop fallback
    q_lo: float      # q of the retained vertices on either side of the cut:
    q_hi: float      # the q-extent of the replaced subcurve


def triangle_is_coupled(analysis: FrontAnalysis, T) -> bool:
    """True when the triangle's loop is one of the coupled X_i: at the first
    fiber inside its span (of five, in a fixed order) that can be coupled and
    crosses the loop twice, the loop's two crossings are coupled with each
    other."""
    f = analysis.front
    qx, _ = frontmod._loop_polygon(f, T)
    q_lo, q_hi = float(qx.min()), float(qx.max())
    qs = q_lo + np.array(_PROBE_FRACS) * (q_hi - q_lo)
    order = np.argsort(qs, kind="stable")
    cp = select_fibers(analysis, qs[order])
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
        coupled = [T for T in analysis.triangles if triangle_is_coupled(analysis, T)]
        candidates = [T for T in coupled
                      if frontmod.is_vanishing(current, T, analysis.sections,
                                               analysis.doubles)]
        strict = bool(candidates)
        if not candidates:
            if not coupled:
                raise NoVanishingTriangle(
                    "front is not smooth but no triangle loop is coupled",
                    diagnostics={"cusps": len(analysis.cusps),
                                 "doubles": len(analysis.doubles),
                                 "triangles": len(analysis.triangles),
                                 "time": current.time})
            candidates = [min(coupled, key=lambda T: _loop_area(current, T))]
        candidates.sort(key=lambda T: (T.vertex.q, T.vertex.z))
        T = candidates[0]
        radius = frontmod.default_ball_radius(current, T)
        current, (q_lo, q_hi) = frontmod.remove_triangle(current, T)
        log.append(Surgery(vertex_q=T.vertex.q, vertex_z=T.vertex.z,
                           ball_radius=radius, strict=strict, q_lo=q_lo, q_hi=q_hi))
    raise NoVanishingTriangle("elimination did not terminate", diagnostics={})


# --- grid assembly ---

def _seed_window(spec: chars.ProblemSpec, t: float | None):
    """(base_lo, base_hi, margin): the base domain, and how far past each of
    its ends the seeds must reach for every fiber over it to be covered up
    to time t (t_max when None)."""
    t = spec.t_max if t is None else t
    if isinstance(spec.domain, chars.Periodic):
        base_lo, base_hi = 0.0, spec.domain.period
    else:
        base_lo, base_hi = spec.domain.qmin, spec.domain.qmax
    probe = np.linspace(base_lo, base_hi, 257)
    _, p0 = spec.u0.eval_d(q=probe, wrt="q")
    vmax = 0.0
    for tt in np.linspace(0.0, t, 5):
        _, hp = spec.H.eval_d(t=tt, q=probe, p=p0, wrt="p")
        vmax = max(vmax, float(np.max(np.abs(hp))))
    return base_lo, base_hi, 1.5 * vmax * t + 0.5


def default_seeds(spec: chars.ProblemSpec, n: int, t: float | None = None):
    """Seeds for a slice at time t, or for `minimax_grid` when t is None
    (t_max). Over the base domain [base_lo, base_lo + W] (W the period, or
    qmax - qmin), the sorted lattice base_lo + (j + SEED_OFFSET)*W/n + k*W,
    j < n, from the last point at or below the lower end of t's seed window
    to the first at or above its upper end. Slices and grids so share one
    lattice; on a periodic domain `evolve_states` flows one period of it
    and copies the rest."""
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
    TRIM_FRAC of the vertices may go per end."""
    limit = int(len(q) * TRIM_FRAC)
    lo, hi = 0, len(q) - 1
    for _ in range(limit):
        if q[hi] - q[hi - 1] > 0:
            break
        hi -= 1
    for _ in range(limit):
        if q[lo + 1] - q[lo] > 0:
            break
        lo += 1
    keep = slice(lo, hi + 1)
    return q0[keep], q[keep], p[keep], z[keep]


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
    lattice of n_seeds per period, of which `evolve_states` flows one period
    and copies the rest. Each row is the front at exactly its grid time,
    from that time's `evolve_states` row, and each fiber is at exactly its
    grid q; neither is shifted. A row's fibers are selected in one
    `select_fibers` pass over the sorted q_grid, and scattered back to grid
    order. A fiber that cannot be coupled raises: the first such fiber in
    grid order."""
    t_grid = np.asarray(t_grid, dtype=float)
    q_grid = np.asarray(q_grid, dtype=float)
    seeds = default_seeds(spec, n_seeds)
    times = [float(t) for t in t_grid]
    Q, P, Z = chars.evolve_states(spec, times, seeds, step)

    nt, nq = len(t_grid), len(q_grid)
    u = np.empty((nt, nq))
    branch = np.zeros((nt, nq), dtype=int)
    count = np.ones((nt, nq), dtype=int)

    u0q = spec.u0.eval(q=q_grid)
    order = np.argsort(q_grid, kind="stable")
    q_sorted = q_grid[order]

    for i, t in enumerate(times):
        if t == 0.0:
            u[i] = u0q
            continue
        f = _long_front(t, seeds, Q[i], P[i], Z[i])
        cusps = frontmod.detect_cusps(f)
        analysis = FrontAnalysis(front=f, cusps=tuple(cusps),
                                 sections=tuple(frontmod.split_sections(f, cusps)),
                                 doubles=(), triangles=())
        cp = select_fibers(analysis, q_sorted)
        if cp.failed:
            # the first failing fiber in grid order
            raise cp.failed[min(cp.failed, key=lambda k: order[k])]
        u[i, order] = cp.fibers.z[cp.free]
        branch[i, order] = cp.fibers.section[cp.free]
        count[i, order] = cp.fibers.counts()
    return GridSolution(t=t_grid, q=q_grid, u=u, branch=branch,
                        branch_count=count)
