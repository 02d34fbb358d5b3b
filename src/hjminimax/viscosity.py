"""Independent viscosity-solution oracles.

Lax-Oleinik (variational, convex H(p)) and an explicit monotone
Lax-Friedrichs scheme for general H. Both emit the same GridSolution
schema as the minimax path, with a distinguishing provenance tag.

Lax-Oleinik minimizes phi(q, q0) = u0(q0) + t L((q - q0)/t) over seeds
q0 on the window [qmin - vmax t, qmax - vmin t], which holds every
admissible foot q0 in [q - vmax t, q - vmin t] of every grid point;
[vmin, vmax] is the slope range H'(p) on the p-window, and phi is inf
outside it. The conjugate L is tabulated by maximizing v p - H(p) over
p samples. Neither matrix is scanned in full: in both the leftmost
argmin never decreases down the rows (ascending q, ascending v), so
`_monotone_argmin` finds it by divide and conquer over the rows
(Aggarwal, Klawe, Moran, Shor & Wilber, Algorithmica 2, 1987). The
reasons:
- t L((q - q0)/t) is Monge for convex L (so is the tabulated L, which
  interpolates convex samples linearly), and adding u0(q0) keeps it so;
- v p - H(p) is supermodular in (v, p);
- the admissible band of seeds moves right as q grows, so an inf entry
  never sits between two rows' argmins.
Every entry it looks at is computed elementwise by the dense matrix's
expression, so the argmin, the minimum and the parabolic refinement
around it are the dense scan's bit for bit, unless rounding reverses the
order of two entries that the argument above ranks; tests/viscosity_oracle.py
keeps the dense scans to check that. The seeds are spaced no wider than
1/BAND_STEPS of the admissible band, (vmax - vmin) t wide, so every grid
point has admissible seeds however small t is; a band too narrow for
MAX_SEED seeds raises OutOfRange.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characteristics import Periodic, ProblemSpec
from .errors import CFLViolation, MalformedInput, NonFinite, OutOfRange
from .expr import Expression
from .selector import GridSolution

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
CFL_MAX = 0.9               # largest Courant number `lax_friedrichs` accepts
SLOPE_SAMPLES = 4097        # p samples of the attainable slope range H'(p)
CONVEXITY_SAMPLES = 2048    # p samples of the second-difference certificate
CONVEXITY_TOL = 1e-8        # floor the sampled H'' must exceed
CONVEXITY_WINDOW = (-5.0, 5.0)  # p-window `is_convex_in_p` certifies
TABLE_V = TABLE_P = 8192    # tabulated slopes v of L(v), p samples maximized over per v
N_SEED = 2049               # fewest seed abscissae of the Lax-Oleinik minimization
BAND_STEPS = 6              # fewest seed spacings across the admissible band
MAX_SEED = 16384            # most seed abscissae


@dataclass(frozen=True)
class ConvexHamiltonian:
    """H depending on p only, convex on the given p-window."""
    H: Expression
    p_window: tuple[float, float]

    def __post_init__(self):
        extra = self.H.variables - {"p"}
        if extra:
            raise MalformedInput(f"convex Hamiltonian must depend on p only, uses {sorted(extra)}")
        if not _convexity_certificate(self.H, self.p_window):
            raise MalformedInput("sampled second differences are not positive: H is not convex "
                                 "on the window")

    def slope_range(self):
        ps = np.linspace(*self.p_window, SLOPE_SAMPLES)
        _, hp = self.H.eval_d(p=ps, wrt="p")
        return float(hp.min()), float(hp.max())


def _convexity_certificate(H: Expression, window) -> bool:
    """Sampled second-difference positivity: H'' > 0 on the window."""
    ps = np.linspace(window[0], window[1], CONVEXITY_SAMPLES)
    vals = H.eval(p=ps)
    dp = ps[1] - ps[0]
    d2 = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / (dp * dp)
    return bool(np.all(d2 > CONVEXITY_TOL))


def is_convex_in_p(H: Expression) -> bool:
    """Convexity certificate usable on general H(p) candidates."""
    if H.variables - {"p"}:
        return False
    return _convexity_certificate(H, CONVEXITY_WINDOW)


def legendre(Hc: ConvexHamiltonian, v: float) -> float:
    """L(v) = sup_p (v p - H(p)), golden-section refinement; accuracy ~1e-8."""
    lo, hi = Hc.p_window
    smin, smax = Hc.slope_range()
    if not (smin - 1e-12 <= v <= smax + 1e-12):
        raise OutOfRange(f"slope {v} outside attainable range [{smin}, {smax}]")

    def g(p):
        return v * p - float(Hc.H.eval(p=p))

    # coarse bracket around the sampled maximizer
    ps = np.linspace(lo, hi, 2049)
    gs = v * ps - Hc.H.eval(p=ps)
    k = int(np.argmax(gs))
    a = ps[max(0, k - 1)]
    b = ps[min(len(ps) - 1, k + 1)]
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = g(c), g(d)
    for _ in range(80):
        if b - a < 1e-12 * max(1.0, abs(a) + abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = g(d)
    return max(fc, fd)


def _monotone_argmin(f, n_rows, n_cols):
    """Leftmost argmin and minimum of every row of an n_rows x n_cols matrix
    whose leftmost argmins never decrease down the rows. f(rows, cols)
    returns the entries at paired index arrays, none of them NaN. Rows are
    found level by level: each level takes the middle row between every two
    neighbours already found (or the matrix edges) and scans only the
    columns between their argmins, so f is asked for
    O((n_rows + n_cols) log n_rows) entries instead of n_rows * n_cols."""
    arg = np.empty(n_rows, dtype=np.intp)
    val = np.empty(n_rows)
    done = np.array([-1, n_rows])           # rows found so far, with edge sentinels
    done_arg = np.array([0, n_cols - 1])    # their argmins; a sentinel's is a column bound
    while True:
        gap = np.flatnonzero(np.diff(done) > 1)
        if not len(gap):
            return arg, val
        mid = (done[gap] + done[gap + 1]) // 2
        c0 = done_arg[gap]
        width = done_arg[gap + 1] - c0 + 1
        start = np.cumsum(width) - width
        cols = np.arange(width.sum()) - np.repeat(start - c0, width)
        vals = f(np.repeat(mid, width), cols)
        m = np.minimum.reduceat(vals, start)
        first = np.minimum.reduceat(np.where(vals == np.repeat(m, width), cols, n_cols), start)
        arg[mid], val[mid] = first, m
        done = np.insert(done, gap + 1, mid)
        done_arg = np.insert(done_arg, gap + 1, first)


class _LegendreTable:
    """Dense tabulation of the conjugate for vectorized Lax-Oleinik."""

    def __init__(self, Hc: ConvexHamiltonian):
        self.Hc = Hc
        self.vmin, self.vmax = Hc.slope_range()
        self.vs = np.linspace(self.vmin, self.vmax, TABLE_V)
        ps = np.linspace(*Hc.p_window, TABLE_P)
        hs = Hc.H.eval(p=ps)
        dp = ps[1] - ps[0]

        def g(rows, cols):
            return self.vs[rows] * ps[cols] - hs[cols]

        # v p - H(p) is supermodular: its leftmost argmax in p never decreases in v
        k, _ = _monotone_argmin(lambda rows, cols: -g(rows, cols), TABLE_V, TABLE_P)
        k = np.clip(k, 1, TABLE_P - 2)
        rows = np.arange(TABLE_V)
        gm1, g0, gp1 = g(rows, k - 1), g(rows, k), g(rows, k + 1)
        denom = gm1 - 2 * g0 + gp1
        off = np.where(denom < 0, 0.5 * (gm1 - gp1) / denom, 0.0)
        off = np.clip(off, -1.0, 1.0)
        p_star = ps[k] + off * dp
        self.Ls = self.vs * p_star - Hc.H.eval(p=p_star)

    def __call__(self, v):
        out = np.interp(v, self.vs, self.Ls)
        return out


def _seed_count(width: float, band: float) -> int:
    """Seeds on a window `width` wide: N_SEED, or more where that spaces
    them wider than band / BAND_STEPS. OutOfRange past MAX_SEED."""
    if BAND_STEPS * width > (MAX_SEED - 1) * band:
        raise OutOfRange(f"no admissible seed grid: the band of admissible feet, "
                         f"{band:.3g} wide, needs more than {MAX_SEED} seeds; "
                         "widen the p-window")
    return max(N_SEED, math.ceil(BAND_STEPS * width / band) + 1)


def lax_oleinik(Hc: ConvexHamiltonian, u0: Expression, t: float, q_grid,
                table: _LegendreTable | None = None):
    """u(t,q) = min_{q0} [u0(q0) + t L((q-q0)/t)] over a seed grid, with
    3-point parabolic refinement of the argmin. Returns values on q_grid."""
    q_grid = np.asarray(q_grid, dtype=float)
    if t == 0:
        return u0.eval(q=q_grid)
    if table is None:
        table = _LegendreTable(Hc)
    vmin, vmax = table.vmin, table.vmax
    order = np.argsort(q_grid, kind="stable")
    qs = q_grid[order]
    lo, hi = float(qs[0]) - vmax * t, float(qs[-1]) - vmin * t
    n_seed = _seed_count(hi - lo, (vmax - vmin) * t)
    q0s = np.linspace(lo, hi, n_seed)
    u0s = u0.eval(q=q0s)

    def phi(rows, cols):
        v = (qs[rows] - q0s[cols]) / t
        return np.where((v >= vmin) & (v <= vmax),
                        u0s[cols] + t * table(np.clip(v, vmin, vmax)),
                        np.inf)

    k, u = _monotone_argmin(phi, len(qs), n_seed)
    if not np.all(np.isfinite(u)):
        raise OutOfRange("no admissible seed for some grid point; widen the p-window")

    # parabolic refinement of the minimizing seed
    kk = np.clip(k, 1, n_seed - 2)
    rows = np.arange(len(qs))
    f0, fm, fp = phi(rows, kk), phi(rows, kk - 1), phi(rows, kk + 1)
    good = np.isfinite(fm) & np.isfinite(fp) & (fm - 2 * f0 + fp > 0)
    dq0 = q0s[1] - q0s[0]
    off = np.zeros(len(qs))
    off[good] = 0.5 * (fm[good] - fp[good]) / (fm[good] - 2 * f0[good] + fp[good])
    off = np.clip(off, -1.0, 1.0)
    q0_star = q0s[kk] + off * dq0
    v_star = (qs - q0_star) / t
    ok = good & (v_star >= vmin) & (v_star <= vmax)
    refined = u0.eval(q=q0_star) + t * table(np.clip(v_star, vmin, vmax))
    u = np.where(ok & (refined < u), refined, u)
    out = np.empty_like(u)
    out[order] = u
    return out


def lax_oleinik_grid(Hc: ConvexHamiltonian, u0: Expression, t_grid, q_grid) -> GridSolution:
    t_grid = np.asarray(t_grid, dtype=float)
    q_grid = np.asarray(q_grid, dtype=float)
    table = _LegendreTable(Hc)
    u = np.empty((len(t_grid), len(q_grid)))
    for i, t in enumerate(t_grid):
        u[i] = lax_oleinik(Hc, u0, float(t), q_grid, table=table)
    zeros = np.zeros_like(u, dtype=int)
    return GridSolution(t=t_grid, q=q_grid, u=u, branch=zeros,
                        branch_count=np.ones_like(zeros), provenance="viscosity")


def lax_friedrichs(spec: ProblemSpec, t_grid, q_grid, cfl: float = 0.5) -> GridSolution:
    """Explicit monotone scheme
    u+ = u - dt [H(t, q, Dc u) - theta (u_{j+1} - 2 u_j + u_{j-1}) / (2 dq)],
    Dc the centered slope, theta = 1.05 x max sampled |H_p|."""
    if cfl > CFL_MAX:
        raise CFLViolation(f"cfl={cfl} exceeds the {CFL_MAX} bound")
    t_grid = np.asarray(t_grid, dtype=float)
    q_grid = np.asarray(q_grid, dtype=float)
    dq = float(q_grid[1] - q_grid[0])
    periodic = isinstance(spec.domain, Periodic)

    u = np.asarray(spec.u0.eval(q=q_grid), dtype=float) + 0.0 * q_grid
    _, du0 = spec.u0.eval_d(q=q_grid, wrt="q")
    pmax = 1.5 * float(np.max(np.abs(du0))) + 1.0
    ps = np.linspace(-pmax, pmax, 513)
    theta = 0.0
    for tt in np.linspace(float(t_grid[0]), float(t_grid[-1]), 5):
        _, hp = spec.H.eval_d(t=tt, q=q_grid[:, None], p=ps[None, :], wrt="p")
        theta = max(theta, float(np.max(np.abs(hp))))
    theta *= 1.05
    theta = max(theta, 1e-8)
    dt_max = cfl * dq / theta

    out = np.empty((len(t_grid), len(q_grid)))
    t = float(t_grid[0])
    out[0] = u

    def slopes(w):
        if periodic:
            return (np.roll(w, -1) - np.roll(w, 1)) / (2 * dq), \
                   (np.roll(w, -1) - 2 * w + np.roll(w, 1)) / (2 * dq)
        wp = np.concatenate([[2 * w[0] - w[1]], w, [2 * w[-1] - w[-2]]])
        return (wp[2:] - wp[:-2]) / (2 * dq), (wp[2:] - 2 * w + wp[:-2]) / (2 * dq)

    for i in range(1, len(t_grid)):
        t_target = float(t_grid[i])
        while t < t_target - 1e-14:
            dt = min(dt_max, t_target - t)
            dc, diff2 = slopes(u)
            u = u - dt * (spec.H.eval(t=t, q=q_grid, p=dc) - theta * diff2)
            t += dt
            if not np.all(np.isfinite(u)):
                raise NonFinite(f"Lax-Friedrichs blow-up at t={t}")
        out[i] = u
    zeros = np.zeros(out.shape, dtype=int)
    return GridSolution(t=t_grid, q=q_grid, u=out, branch=zeros,
                        branch_count=np.ones_like(zeros), provenance="viscosity")
