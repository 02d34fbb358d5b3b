"""Minimax extraction from fronts, two ways.

The production path selects pointwise: the fiber critical points over each
abscissa are coupled greedily and the free point is the minimax. The
geometric validator removes vanishing triangles until the front is a graph;
both must agree outside surgery balls.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import characteristics as chars
from . import front as frontmod
from . import morse1d
from .errors import (DegenerateFiber, InconsistentSweep, IndexInconsistency,
                     MalformedInput, NoVanishingTriangle, NonGeneric)
from .front import FrontAnalysis, FrontCurve

SWEEP_FIBERS = 512   # fibers `_sweep` lays across a front
MAX_SURGERIES = 64   # rounds `eliminate` may take before giving up
TRIM_FRAC = 0.25     # share of the vertices `trim_long` may drop per end
SLICE_SHIFTS = 4     # time shifts of a non-generic slice in `slice_analysis`
FIBER_TOL = 1e-9     # bbox-scaled distance of a fiber from a cusp or double point

# fiber failures on which a sweep skips the fiber; the grid lets them raise
_SKIPPABLE = (DegenerateFiber, NonGeneric, MalformedInput)
# slice failures that a small shift of the slice time may cure: a tangency
# or coincidence at a perestroika, or a cusp missed or missigned just after one
_SLICE_RETRYABLE = (NonGeneric, IndexInconsistency)


@dataclass(frozen=True)
class FiberPoint:
    z: float
    section: int
    index: int       # branch index of the section
    seg: int


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
    provenance: str

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t,q,u,branch_id\n")
        for i, tv in enumerate(self.t):
            for j, qv in enumerate(self.q):
                buf.write(f"{tv:.17g},{qv:.17g},{self.u[i, j]:.17g},"
                          f"{self.branch[i, j]}\n")
        return buf.getvalue()


def fiber_points(analysis: FrontAnalysis, q: float) -> list[FiberPoint]:
    """Crossings of the vertical line at q with every section, ordered along
    the curve. The count is odd on a long front interior abscissa."""
    f = analysis.front
    wq, _ = f.bbox_scale()
    for c in analysis.cusps:
        if abs(c.q - q) / wq < FIBER_TOL:
            raise DegenerateFiber(f"fiber at q={q} passes through a cusp projection")
    for d in analysis.doubles:
        if abs(d.q - q) / wq < FIBER_TOL:
            raise DegenerateFiber(f"fiber at q={q} passes through a double point")
    pts = _raw_crossings(f, q)
    if len(pts) % 2 == 0:
        raise DegenerateFiber(f"even crossing count ({len(pts)}) at q={q}")
    out = []
    for z, seg in pts:
        sec = frontmod._section_of_segment(analysis.sections, seg)
        out.append(FiberPoint(z=z, section=sec.id, index=sec.index, seg=seg))
    return out


def _raw_crossings(f: FrontCurve, q: float):
    """(z, seg) for every segment crossed by the vertical line, z
    interpolated with a cubic Hermite using the carried momenta."""
    qa, qb = f.q[:-1], f.q[1:]
    hit = ((qa - q) * (qb - q) < 0) | (qa == q)
    out = []
    for seg in np.nonzero(hit)[0]:
        dq = qb[seg] - qa[seg]
        frac = 0.0 if dq == 0 else float((q - qa[seg]) / dq)
        out.append((_hermite_z(f, int(seg), frac), int(seg)))
    if len(f) and f.q[-1] == q:
        out.append((float(f.z[-1]), len(f) - 2))
    return out


def _hermite_z(f: FrontCurve, seg: int, s: float) -> float:
    z0, z1 = f.z[seg], f.z[seg + 1]
    h = f.q[seg + 1] - f.q[seg]
    if abs(h) < 1e-13:
        return float(0.5 * (z0 + z1))
    m0, m1 = f.p[seg], f.p[seg + 1]
    # guard against wild slopes right at a fold
    lin = (z1 - z0) / h
    if not (np.isfinite(m0) and np.isfinite(m1)) or \
            max(abs(m0 - lin), abs(m1 - lin)) > 10.0 * (1.0 + abs(lin)):
        return float(z0 + s * (z1 - z0))
    return float(frontmod.hermite(s, h, z0, m0, z1, m1))


def _coupled_fiber(analysis: FrontAnalysis, q: float):
    """Fiber points at exactly q and their coupling (None on a single
    crossing)."""
    pts = fiber_points(analysis, q)
    if len(pts) == 1:
        return pts, None
    return pts, morse1d.couple([
        morse1d.CriticalPoint(xi=float(j), value=pt.z, index=pt.index)
        for j, pt in enumerate(pts)])


def _free_point(pts, dec) -> FiberPoint:
    return pts[0] if dec is None else pts[int(dec.free.xi)]


def select_pointwise(analysis: FrontAnalysis, q: float):
    """(z, section id) of the free critical point of the fiber at q."""
    free = _free_point(*_coupled_fiber(analysis, q))
    return free.z, free.section


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
    fibers = []
    for q in qs:
        try:
            pts, dec = _coupled_fiber(analysis, q)
        except _SKIPPABLE:
            continue
        pairs = [] if dec is None else dec.pairs
        fibers.append((q, _free_point(pts, dec).section,
                       [(pts[int(u.xi)].section, pts[int(l.xi)].section)
                        for u, l in pairs]))
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
    ball_radius: float   # bbox-scaled
    loop_sections: tuple
    strict: bool     # False when selected by the smallest-loop fallback
    q_lo: float      # q-extent of the replaced subcurve (cut to cut)
    q_hi: float


def triangle_is_coupled(analysis: FrontAnalysis, T) -> bool:
    """True when the triangle's loop is one of the coupled X_i: at a fiber
    inside its span, the loop's two crossings are coupled with each other."""
    f = analysis.front
    qx, _ = frontmod._loop_polygon(f, T)
    q_lo, q_hi = float(qx.min()), float(qx.max())
    span = q_hi - q_lo
    for frac in (0.37, 0.61, 0.23, 0.79, 0.5):
        try:
            pts, dec = _coupled_fiber(analysis, q_lo + frac * span)
        except _SKIPPABLE:
            continue
        if dec is None:
            continue
        loop_pts = {k for k, pt in enumerate(pts)
                    if T.start_seg <= pt.seg <= T.end_seg}
        if len(loop_pts) < 2:
            continue
        for u, l in dec.pairs:
            if {int(u.xi), int(l.xi)} <= loop_pts:
                return True
        return False
    return False


def _loop_area(f: FrontCurve, T) -> float:
    qs, zs = frontmod._loop_polygon(f, T)
    return 0.5 * abs(np.dot(qs, np.roll(zs, -1)) - np.dot(zs, np.roll(qs, -1)))


def eliminate(f: FrontCurve):
    """Vanishing-triangle elimination loop (returns the smooth front and the
    ordered surgery log). Each removal deletes one coupled pair.

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
        current, (q_lo, q_hi) = frontmod.remove_triangle(current, T, radius)
        log.append(Surgery(vertex_q=T.vertex.q, vertex_z=T.vertex.z,
                           ball_radius=radius, loop_sections=T.loop_sections,
                           strict=strict, q_lo=q_lo, q_hi=q_hi))
    raise NoVanishingTriangle("elimination did not terminate", diagnostics={})


# --- grid assembly ---

def default_seeds(spec: chars.ProblemSpec, n: int, t: float | None = None):
    """Seed grid wide enough that every fiber over the base domain is covered."""
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
    margin = 1.5 * vmax * t + 0.5
    return np.linspace(base_lo - margin, base_hi + margin,
                       int(n * (base_hi - base_lo + 2 * margin) / (base_hi - base_lo)))


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
    """Front analysis at time t. A non-generic slice, or one whose branch
    indices do not close, is retried at t+k*eps, or at t-k*eps where
    t+SLICE_SHIFTS*eps would pass t_max, so every try stays inside
    [0, t_max]; the last failure is re-raised."""
    eps = max(spec.t_max / 200000.0, 1e-9)
    if t + SLICE_SHIFTS * eps > spec.t_max:
        eps = -eps
    for k in range(SLICE_SHIFTS + 1):
        t_try = t + k * eps
        try:
            f = _long_front(t_try, *chars.evolve(spec, t_try, seeds, step))
            return frontmod.analyze(f)
        except _SLICE_RETRYABLE:
            if k == SLICE_SHIFTS:
                raise


def minimax_grid(spec: chars.ProblemSpec, t_grid, q_grid,
                 step: float | None = None, n_seeds: int = 4096) -> GridSolution:
    """Minimax solution values on the (t,q) grid via pointwise selection.
    Each row is the front at exactly its grid time, from that time's
    `evolve_states` row, and each fiber is at exactly its grid q; neither
    is shifted. A fiber that cannot be coupled raises."""
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

    for i, t in enumerate(times):
        if t == 0.0:
            u[i] = u0q
            continue
        f = _long_front(t, seeds, Q[i], P[i], Z[i])
        cusps = frontmod.detect_cusps(f)
        analysis = FrontAnalysis(front=f, cusps=tuple(cusps),
                                 sections=tuple(frontmod.split_sections(f, cusps)),
                                 doubles=(), triangles=())
        for j, qv in enumerate(q_grid):
            pts, dec = _coupled_fiber(analysis, float(qv))
            free = _free_point(pts, dec)
            u[i, j] = free.z
            branch[i, j] = free.section
            count[i, j] = len(pts)
    return GridSolution(t=t_grid, q=q_grid, u=u, branch=branch,
                        branch_count=count, provenance="minimax")
