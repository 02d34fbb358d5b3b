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
The search takes one level of every block of a batch in one array pass,
and each block keeps two sentinel rows of its own, so no level spans two
blocks. A level materializes about a dozen temporaries the size of the
entries it asks for, so a batch holds as many consecutive times as keep a
level within ARGMIN_ENTRIES entries: the Burgers 128x256 grid in one batch
peaked at 28 MB traced, against 6.6 MB at 2^16 entries, at the same speed.

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
from .selector import GridSolution

COURANT = 0.5               # Courant number of the `lax_friedrichs` time step
CONVEXITY_SAMPLES = 2048    # p samples of the second-difference certificate
CONVEXITY_TOL = 1e-8        # floor the sampled H'' must exceed
TABLE_P = 8192              # p samples of the conjugate table, H' strictly increasing on them
N_SEED = 2049               # fewest seed abscissae of the Lax-Oleinik minimization
BAND_STEPS = 6              # fewest seed spacings across the admissible band
MAX_SEED = 16384            # most seed abscissae
ARGMIN_ENTRIES = 1 << 16    # most entries one level of `lax_oleinik_grid`'s argmin asks for


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


def _monotone_argmin(f, n_rows, n_cols):
    """Leftmost argmin and minimum of every row of independent matrices,
    block b of n_rows[b] x n_cols[b], each with leftmost argmins that never
    decrease down its rows. The rows of all blocks are numbered in one
    sequence, block by block; f(rows, cols) returns the entries at paired
    arrays of those row numbers and of columns of the row's own block, none
    of them NaN. Rows are found level by level: each level takes the middle
    row between every two neighbours already found (or a block's edges) and
    scans only the columns between their argmins, so f is asked for
    O((n_rows + n_cols) log n_rows) entries per block instead of
    n_rows * n_cols, and every block's level in one call."""
    n_rows, n_cols = np.asarray(n_rows), np.asarray(n_cols)
    arg = np.empty(int(n_rows.sum()), dtype=np.intp)
    val = np.empty(len(arg))
    # block b's rows take the slots between two sentinel slots of its own,
    # so no gap in `done` spans two blocks
    slots = n_rows + 2
    edge = np.cumsum(slots) - slots
    row_of = np.arange(int(slots.sum())) - np.repeat(2 * np.arange(len(slots)) + 1, slots)
    done = np.column_stack([edge, edge + n_rows + 1]).ravel()  # slots found so far
    # their argmins; a sentinel's is a column bound of its block
    done_arg = np.column_stack([np.zeros_like(n_cols), n_cols - 1]).ravel()
    past = int(n_cols.max())
    while True:
        gap = np.flatnonzero(np.diff(done) > 1)
        if not len(gap):
            return arg, val
        mid = (done[gap] + done[gap + 1]) // 2
        c0 = done_arg[gap]
        width = done_arg[gap + 1] - c0 + 1
        start = np.cumsum(width) - width
        cols = np.arange(width.sum()) - np.repeat(start - c0, width)
        rows = row_of[mid]
        vals = f(np.repeat(rows, width), cols)
        m = np.minimum.reduceat(vals, start)
        first = np.minimum.reduceat(np.where(vals == np.repeat(m, width), cols, past), start)
        arg[rows], val[rows] = first, m
        done = np.insert(done, gap + 1, mid)
        done_arg = np.insert(done_arg, gap + 1, first)


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

    def phi(rows, cols):
        t = t_of[rows]
        at = first_seed[rows] + cols
        v = (q_of[rows] - q0s[at]) / t
        return np.where((v >= vmin) & (v <= vmax),
                        u0s[at] + t * table(np.clip(v, vmin, vmax)),
                        np.inf)

    k, u = _monotone_argmin(phi, np.full(len(ts), nq), n_seed)
    if not np.all(np.isfinite(u)):
        raise OutOfRange("no admissible seed for some grid point; widen the p-window")

    # parabolic refinement of the minimizing seed
    kk = np.clip(k, 1, np.repeat(n_seed, nq) - 2)
    rows = np.arange(len(u))
    f0, fm, fp = phi(rows, kk), phi(rows, kk - 1), phi(rows, kk + 1)
    good = np.isfinite(fm) & np.isfinite(fp) & (fm - 2 * f0 + fp > 0)
    dq0 = np.repeat([s[1] - s[0] for s in seeds], nq)
    off = np.zeros(len(u))
    off[good] = 0.5 * (fm[good] - fp[good]) / (fm[good] - 2 * f0[good] + fp[good])
    off = np.clip(off, -1.0, 1.0)
    q0_star = q0s[first_seed + kk] + off * dq0
    v_star = (q_of - q0_star) / t_of
    ok = good & (v_star >= vmin) & (v_star <= vmax)
    refined = u0.eval(q=q0_star) + t_of * table(np.clip(v_star, vmin, vmax))
    return np.where(ok & (refined < u), refined, u).reshape(len(ts), nq)


def _lax_oleinik(table: _LegendreTable, u0: Expression, t_grid, q_grid):
    """u on the (t, q) grid: u0 on the rows at t = 0, the others solved by
    `_lax_oleinik_rows` in blocks of consecutive rows, each as large as
    keeps one level of its `_monotone_argmin` within ARGMIN_ENTRIES entries
    (a level asks a row for at most its seed count plus its grid points)."""
    u = np.empty((len(t_grid), len(q_grid)))
    initial = t_grid == 0
    u[initial] = u0.eval(q=q_grid)
    order = np.argsort(q_grid, kind="stable")
    qs = q_grid[order]
    rows = np.flatnonzero(~initial)
    windows = [_seed_range(table, float(t_grid[i]), qs) for i in rows]
    cost = [w[2] + len(qs) for w in windows]
    i = 0
    while i < len(rows):
        j, entries = i + 1, cost[i]
        while j < len(rows) and entries + cost[j] <= ARGMIN_ENTRIES:
            entries += cost[j]
            j += 1
        u[rows[i:j, None], order] = _lax_oleinik_rows(table, u0, t_grid[rows[i:j]], qs,
                                                      windows[i:j])
        i = j
    return u


def lax_oleinik(Hc: ConvexHamiltonian, u0: Expression, t: float, q_grid):
    """u(t,q) = min_{q0} [u0(q0) + t L((q-q0)/t)] over a seed grid, with
    3-point parabolic refinement of the argmin. Returns values on q_grid."""
    q_grid = np.asarray(q_grid, dtype=float)
    return _lax_oleinik(_LegendreTable(Hc), u0, np.array([float(t)]), q_grid)[0]


def lax_oleinik_grid(Hc: ConvexHamiltonian, u0: Expression, t_grid, q_grid) -> GridSolution:
    """`lax_oleinik` on every row of the grid, one conjugate table for all."""
    t_grid = np.asarray(t_grid, dtype=float)
    q_grid = np.asarray(q_grid, dtype=float)
    u = _lax_oleinik(_LegendreTable(Hc), u0, t_grid, q_grid)
    zeros = np.zeros_like(u, dtype=int)
    return GridSolution(t=t_grid, q=q_grid, u=u, branch=zeros,
                        branch_count=np.ones_like(zeros))


def lax_friedrichs(spec: ProblemSpec, t_grid, q_grid) -> GridSolution:
    """Explicit monotone scheme
    u+ = u - dt [H(t, q, Dc u) - theta (u_{j+1} - 2 u_j + u_{j-1}) / (2 dq)],
    Dc the centered slope, theta = 1.05 x max |H_p| sampled at five times
    over slopes up to 1.5 max|u0'| + 1, and dt <= COURANT dq / theta. Each
    step checks its own slopes: OutOfRange when max |H_p(t, q, Dc u)|
    exceeds theta, as the scheme is then neither monotone nor stable."""
    t_grid = np.asarray(t_grid, dtype=float)
    q_grid = np.asarray(q_grid, dtype=float)
    dq = float(q_grid[1] - q_grid[0])
    periodic = isinstance(spec.domain, Periodic)

    u = spec.u0.eval(q=q_grid)
    _, du0 = spec.u0.eval_d(q=q_grid, wrt="q")
    pmax = 1.5 * float(np.max(np.abs(du0))) + 1.0
    ps = np.linspace(-pmax, pmax, 513)
    # an H that does not read q is sampled at one q: the same speeds, and
    # no (grid x slopes) array
    qs = q_grid[:, None] if "q" in spec.H.variables else 0.0
    theta = 0.0
    for tt in np.linspace(float(t_grid[0]), float(t_grid[-1]), 5):
        _, hp = spec.H.eval_d(t=tt, q=qs, p=ps, wrt="p")
        theta = max(theta, float(np.max(np.abs(hp))))
    theta *= 1.05
    theta = max(theta, 1e-8)
    dt_max = COURANT * dq / theta

    out = np.empty((len(t_grid), len(q_grid)))
    t = float(t_grid[0])
    out[0] = u

    for i in range(1, len(t_grid)):
        t_target = float(t_grid[i])
        while t < t_target - 1e-14:
            dt = min(dt_max, t_target - t)
            lo, hi = (u[-1:], u[:1]) if periodic else ([2 * u[0] - u[1]], [2 * u[-1] - u[-2]])
            w = np.concatenate([lo, u, hi])
            dc = (w[2:] - w[:-2]) / (2 * dq)
            diff2 = (w[2:] - 2 * u + w[:-2]) / (2 * dq)
            h, hp = spec.H.eval_d(t=t, q=q_grid, p=dc, wrt="p")
            speed = float(np.max(np.abs(hp)))
            if speed > theta:
                raise OutOfRange(f"Lax-Friedrichs step at t={t}: max|H_p| = {speed:.6g} "
                                 f"exceeds theta = {theta:.6g}, the speed the step was "
                                 "sized for")
            u = u - dt * (h - theta * diff2)
            t += dt
            if not np.all(np.isfinite(u)):
                raise NonFinite(f"Lax-Friedrichs blow-up at t={t}")
        out[i] = u
    zeros = np.zeros(out.shape, dtype=int)
    return GridSolution(t=t_grid, q=q_grid, u=out, branch=zeros,
                        branch_count=np.ones_like(zeros))
