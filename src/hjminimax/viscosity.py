"""Independent viscosity-solution oracles.

Lax-Oleinik (variational, convex H(p)) and an explicit monotone
Lax-Friedrichs scheme for general H. Both emit the same GridSolution
schema as the minimax path. `is_convex_in_p` certifies convexity on a
p-window, the one the Lax-Oleinik conjugate is tabulated on.

The conjugate L(v) = sup_p (v p - H(p)) is tabulated in closed parametric
form: for convex H the sup at v = H'(p) is attained at p itself, so
L(H'(p)) = p H'(p) - H(p) at each of the TABLE_P samples p of the
p-window, and L is interpolated linearly between those nodes. The
certificate makes the nodes H'(p) strictly increasing; the first and
last, vmin and vmax, bound the slope range.

Lax-Oleinik minimizes phi(q, q0) = u0(q0) + t L((q - q0)/t) over seeds
q0 on the window [qmin - vmax t, qmax - vmin t], which holds every
admissible foot q0 in [q - vmax t, q - vmin t] of every grid point; phi
is inf outside it. Each time t has its own matrix, grid points by seeds,
and the rows of different times are independent blocks of one search.
No matrix is scanned in full: within a block the leftmost argmin never
decreases down the rows (ascending q), so `_monotone_argmin` finds it by
divide and conquer over the rows (Aggarwal, Klawe, Moran, Shor & Wilber,
Algorithmica 2, 1987). The reasons, which hold in each block on its own,
with its own t and seeds:
- t L((q - q0)/t) is Monge for convex L (so is the tabulated L, which
  interpolates convex samples linearly), and adding u0(q0) keeps it so;
- the admissible band of seeds moves right as q grows, so an inf entry
  never sits between two rows' argmins.
The search scans each block's first row over its admissible band, then
its last row from the first row's argmin to the end of its band, and
divides and conquers between the two, each row's scan clipped to its
band widened by two seeds for rounding. So it asks for no more entries
than the rows' bands hold: 996,545 on the Burgers 128x256 grid, about 31
a grid point, against 2,205,128 when every block started from the seed
window's ends. It takes one level of every block of a batch in one array
pass. A level materializes about a dozen temporaries the size of the
entries it asks for, so a batch holds as many consecutive times as keep a
level within ARGMIN_ENTRIES entries: the Burgers grid peaked at 3.3 MB
traced at 2^15 entries, 5.4 MB at 2^16 and 18 MB in one batch. 2^15 is
about as fast as 2^16, and the `compare` process's resident peak is 0.5
MB lower at it.

Every entry the search looks at is computed elementwise by the dense
matrix's expression, so the argmin, the minimum and the parabolic
refinement around it are the dense scan's bit for bit, unless rounding
reverses the order of two entries that the argument above ranks;
tests/viscosity_oracle.py keeps the dense scan to check that. The seeds
are spaced no wider than 1/BAND_STEPS of the admissible band,
(vmax - vmin) t wide, so every grid point has admissible seeds however
small t is; a band too narrow for MAX_SEED seeds raises OutOfRange.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characteristics import Periodic, ProblemSpec
from .errors import MalformedInput, NonFinite, OutOfRange
from .expr import Expression
from .selector import GridSolution, _seed_window

COURANT = 0.5               # Courant number of the `lax_friedrichs` time step
CONVEXITY_SAMPLES = 2048    # p samples of the second-difference certificate
CONVEXITY_TOL = 1e-8        # floor the sampled H'' must exceed
TABLE_P = 8192              # p samples of the conjugate table, H' strictly increasing on them
N_SEED = 2049               # fewest seed abscissae of the Lax-Oleinik minimization
BAND_STEPS = 6              # fewest seed spacings across the admissible band
MAX_SEED = 16384            # most seed abscissae
ARGMIN_ENTRIES = 1 << 15    # most entries one level of `lax_oleinik_grid`'s argmin asks for


@dataclass(frozen=True)
class ConvexHamiltonian:
    """H depending on p only, convex on the given p-window."""
    H: Expression
    p_window: tuple[float, float]

    def __post_init__(self):
        extra = self.H.variables - {"p"}
        if extra:
            raise MalformedInput(f"convex Hamiltonian must depend on p only, uses {sorted(extra)}")
        if not is_convex_in_p(self.H, self.p_window):
            raise MalformedInput("sampled second differences are not positive or H' is not "
                                 "increasing: H is not convex on the window")


def is_convex_in_p(H: Expression, p_window) -> bool:
    """True when H depends on p only, its second differences sampled at
    CONVEXITY_SAMPLES points of p_window exceed CONVEXITY_TOL, and H'
    strictly increases over the TABLE_P samples the conjugate is tabulated
    on, which `np.interp` needs of the table's nodes."""
    if H.variables - {"p"}:
        return False
    ps = np.linspace(p_window[0], p_window[1], CONVEXITY_SAMPLES)
    vals = H.eval(p=ps)
    dp = ps[1] - ps[0]
    d2 = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / (dp * dp)
    if not np.all(d2 > CONVEXITY_TOL):
        return False
    _, hp = H.eval_d(p=np.linspace(p_window[0], p_window[1], TABLE_P), wrt="p")
    return bool(np.all(np.diff(hp) > 0))


def _monotone_argmin(f, n_rows, lo, hi):
    """Leftmost argmin and minimum of every row of independent matrices,
    block b of n_rows[b] >= 1 rows, each with leftmost argmins that never
    decrease down its rows. The rows of all blocks are numbered in one
    sequence, block by block, and row r's argmin lies in the columns
    lo[r]..hi[r]: f(rows, cols) returns the entries at paired arrays of
    row numbers and of columns within their rows' bounds, none of them NaN.
    Each block's first row is scanned over its bounds, then its last row
    from the first row's argmin on; every later level takes the middle row
    between every two neighbours already found and scans only the columns
    between their argmins that lie within its own bounds. So f is asked for
    no more entries of a block than its rows' bounds hold, nor than its
    first and last rows' bounds plus (a + n_rows) ceil(log2 n_rows), a the
    span of those two rows' argmins; every block's level goes in one call."""
    n_rows = np.asarray(n_rows)
    arg = np.empty(int(n_rows.sum()), dtype=np.intp)
    val = np.empty(len(arg))

    def scan(rows, c0, c1):
        width = c1 - c0 + 1
        start = np.cumsum(width) - width
        cols = np.arange(width.sum()) - np.repeat(start - c0, width)
        vals = f(np.repeat(rows, width), cols)
        m = np.minimum.reduceat(vals, start)
        tie = np.where(vals == np.repeat(m, width), cols, np.iinfo(np.intp).max)
        arg[rows], val[rows] = np.minimum.reduceat(tie, start), m

    first = np.cumsum(n_rows) - n_rows
    last = first + n_rows - 1
    scan(first, lo[first], hi[first])
    two = n_rows > 1
    scan(last[two], np.maximum(arg[first[two]], lo[last[two]]), hi[last[two]])
    # found rows in order; a one-row block lists its row twice, and no gap
    # in `done` spans two blocks
    done = np.column_stack([first, last]).ravel()
    while True:
        gap = np.flatnonzero(np.diff(done) > 1)
        if not len(gap):
            return arg, val
        above, below = done[gap], done[gap + 1]
        mid = (above + below) // 2
        scan(mid, np.maximum(arg[above], lo[mid]), np.minimum(arg[below], hi[mid]))
        done = np.insert(done, gap + 1, mid)


class _LegendreTable:
    """The conjugate L on the nodes v = H'(p) of the TABLE_P samples p of
    the p-window, where L(v) = p v - H(p), interpolated linearly between."""

    def __init__(self, Hc: ConvexHamiltonian):
        self.Hc = Hc
        ps = np.linspace(*Hc.p_window, TABLE_P)
        hs, self.vs = Hc.H.eval_d(p=ps, wrt="p")
        self.Ls = self.vs * ps - hs
        self.vmin, self.vmax = float(self.vs[0]), float(self.vs[-1])

    def __call__(self, v):
        return np.interp(v, self.vs, self.Ls)


def _seed_count(width: float, band: float) -> int:
    """Seeds on a window `width` wide: N_SEED, or more where that spaces
    them wider than band / BAND_STEPS. OutOfRange past MAX_SEED."""
    if BAND_STEPS * width > (MAX_SEED - 1) * band:
        raise OutOfRange(f"no admissible seed grid: the band of admissible feet, "
                         f"{band:.3g} wide, needs more than {MAX_SEED} seeds; "
                         "widen the p-window")
    return max(N_SEED, math.ceil(BAND_STEPS * width / band) + 1)


def _seed_range(table: _LegendreTable, t: float, qs):
    """(lo, hi, count) of the seeds of time t for the sorted grid qs."""
    lo, hi = float(qs[0]) - table.vmax * t, float(qs[-1]) - table.vmin * t
    return lo, hi, _seed_count(hi - lo, (table.vmax - table.vmin) * t)


def _lax_oleinik_rows(table: _LegendreTable, u0: Expression, ts, qs, windows):
    """u(t, q) at the sorted abscissae qs for each of the nonzero times ts,
    row i minimizing over the seeds np.linspace(*windows[i]), with 3-point
    parabolic refinement of the argmin. All rows go through one blocked
    `_monotone_argmin`, one refinement and one `u0.eval` each on the seeds
    and on the refined feet; entry (row, col) reads its row's t and q and
    its seed."""
    vmin, vmax = table.vmin, table.vmax
    nq = len(qs)
    seeds = [np.linspace(*w) for w in windows]
    n_seed = np.array([w[2] for w in windows])
    q0s = np.concatenate(seeds)
    u0s = u0.eval(q=q0s)
    first_seed = np.repeat(np.cumsum(n_seed) - n_seed, nq)
    t_of = np.repeat(np.asarray(ts, dtype=float), nq)
    q_of = np.tile(qs, len(ts))
    dq0 = np.repeat([s[1] - s[0] for s in seeds], nq)
    last = np.repeat(n_seed - 1, nq)
    # each row's admissible band of seeds, q - vmax t <= q0 <= q - vmin t,
    # in columns and widened by two for rounding; phi is inf outside it
    q0_first = q0s[first_seed]
    lo = np.clip(np.floor((q_of - vmax * t_of - q0_first) / dq0) - 2, 0, last).astype(np.intp)
    hi = np.clip(np.ceil((q_of - vmin * t_of - q0_first) / dq0) + 2, 0, last).astype(np.intp)

    def phi(rows, cols):
        # in place, on the gathers' own copies; a NaN v is not ok, so inf
        t = t_of[rows]
        at = first_seed[rows]
        at += cols
        v = q_of[rows]
        v -= q0s[at]
        v /= t
        ok = (v >= vmin) & (v <= vmax)
        val = table(np.clip(v, vmin, vmax, out=v))
        val *= t
        val += u0s[at]
        val[~ok] = np.inf
        return val

    k, u = _monotone_argmin(phi, np.full(len(ts), nq), lo, hi)
    if not np.all(np.isfinite(u)):
        raise OutOfRange("no admissible seed for some grid point; widen the p-window")

    # parabolic refinement of the minimizing seed
    kk = np.clip(k, 1, last - 1)
    rows = np.arange(len(u))
    f0, fm, fp = phi(rows, kk), phi(rows, kk - 1), phi(rows, kk + 1)
    good = np.isfinite(fm) & np.isfinite(fp) & (fm - 2 * f0 + fp > 0)
    off = np.zeros(len(u))
    off[good] = 0.5 * (fm[good] - fp[good]) / (fm[good] - 2 * f0[good] + fp[good])
    off = np.clip(off, -1.0, 1.0)
    q0_star = q0s[first_seed + kk] + off * dq0
    v_star = (q_of - q0_star) / t_of
    ok = good & (v_star >= vmin) & (v_star <= vmax)
    refined = u0.eval(q=q0_star) + t_of * table(np.clip(v_star, vmin, vmax))
    return np.where(ok & (refined < u), refined, u).reshape(len(ts), nq)


def lax_oleinik(Hc: ConvexHamiltonian, u0: Expression, t: float, q_grid):
    """u(t,q) = min_{q0} [u0(q0) + t L((q-q0)/t)] over a seed grid, with
    3-point parabolic refinement of the argmin: the one row of
    `lax_oleinik_grid`. Returns values on q_grid."""
    return lax_oleinik_grid(Hc, u0, [t], q_grid).u[0]


def lax_oleinik_grid(Hc: ConvexHamiltonian, u0: Expression, t_grid, q_grid) -> GridSolution:
    """u on the (t, q) grid, one conjugate table for all rows. The grid is
    checked and its t = 0 rows written by `GridSolution.start`, and an
    empty abscissa grid is solved as it is; the other rows are solved by
    `_lax_oleinik_rows` in blocks of consecutive rows, each as large as
    keeps one level of its `_monotone_argmin` within ARGMIN_ENTRIES entries
    (a level asks a row for at most its seed count plus its grid points)."""
    g = GridSolution.start(u0, t_grid, q_grid)
    if not len(g.q):
        return g
    table = _LegendreTable(Hc)
    rows = np.flatnonzero(g.t > 0)
    windows = [_seed_range(table, float(g.t[i]), g.q) for i in rows]
    cost = [w[2] + len(g.q) for w in windows]
    i = 0
    while i < len(rows):
        j, entries = i + 1, cost[i]
        while j < len(rows) and entries + cost[j] <= ARGMIN_ENTRIES:
            entries += cost[j]
            j += 1
        g.u[rows[i:j]] = _lax_oleinik_rows(table, u0, g.t[rows[i:j]], g.q, windows[i:j])
        i = j
    return g


def lax_friedrichs(spec: ProblemSpec, t_grid, q_grid) -> GridSolution:
    """Explicit monotone scheme
    u+ = u - dt [H(t, q, Dc u) - theta (u_{j+1} - 2 u_j + u_{j-1}) / (2 dq)],
    Dc the centered slope, theta = 1.05 x max |H_p| sampled at five times
    over slopes up to 1.5 max|u0'| + 1, and dt <= COURANT dq / theta. Every
    row is marched from u0 at t = 0, around the period on a periodic domain.
    A window is marched on the line: widened at each end by the whole cells
    of dq that cover `selector._seed_window`'s margin, u extrapolated
    linearly one cell past that, theta sampled there and the window's
    columns reported. The grid is checked by `GridSolution.start`, and the
    stencil needs two abscissae or more, equally spaced: ValueError
    otherwise. Each step checks its own slopes: OutOfRange when
    max |H_p(t, q, Dc u)| exceeds theta, as the scheme is then neither
    monotone nor stable."""
    g = GridSolution.start(spec.u0, t_grid, q_grid)
    steps = np.diff(g.q)
    if not len(steps):
        raise ValueError("Lax-Friedrichs needs two abscissae or more")
    dq = float(steps[0])
    if np.any(np.abs(steps - dq) > 1e-9 * dq):
        raise ValueError("Lax-Friedrichs needs equally spaced abscissae")
    periodic = isinstance(spec.domain, Periodic)
    t_end = g.t.max(initial=0.0)
    q, k = g.q, 0
    if not periodic:
        k = math.ceil(_seed_window(spec, t_end)[2] / dq)
        cells = dq * np.arange(1, k + 1)
        q = np.concatenate([g.q[0] - cells[::-1], g.q, g.q[-1] + cells])

    u = spec.u0.eval(q=q)
    _, du0 = spec.u0.eval_d(q=q, wrt="q")
    pmax = 1.5 * float(np.max(np.abs(du0))) + 1.0
    ps = np.linspace(-pmax, pmax, 513)
    # an H that does not read q is sampled at one q: the same speeds, and
    # no (grid x slopes) array
    qs = q[:, None] if "q" in spec.H.variables else 0.0
    theta = 0.0
    for tt in np.linspace(0.0, t_end, 5):
        _, hp = spec.H.eval_d(t=tt, q=qs, p=ps, wrt="p")
        theta = max(theta, float(np.max(np.abs(hp))))
    theta *= 1.05
    theta = max(theta, 1e-8)
    dt_max = COURANT * dq / theta

    t = 0.0
    for i, t_target in enumerate(g.t.tolist()):
        while t < t_target - 1e-14:
            dt = min(dt_max, t_target - t)
            lo, hi = (u[-1:], u[:1]) if periodic else ([2 * u[0] - u[1]], [2 * u[-1] - u[-2]])
            w = np.concatenate([lo, u, hi])
            dc = (w[2:] - w[:-2]) / (2 * dq)
            diff2 = (w[2:] - 2 * u + w[:-2]) / (2 * dq)
            h, hp = spec.H.eval_d(t=t, q=q, p=dc, wrt="p")
            speed = float(np.max(np.abs(hp)))
            if speed > theta:
                raise OutOfRange(f"Lax-Friedrichs step at t={t}: max|H_p| = {speed:.6g} "
                                 f"exceeds theta = {theta:.6g}, the speed the step was "
                                 "sized for")
            u = u - dt * (h - theta * diff2)
            t += dt
            if not np.all(np.isfinite(u)):
                raise NonFinite(f"Lax-Friedrichs blow-up at t={t}")
        g.u[i] = u[k:k + len(g.q)]
    return g
