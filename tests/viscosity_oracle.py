"""Dense reference versions of the Lax-Oleinik argmins and the former
Lax-Friedrichs stencil of `hjminimax.viscosity`.

These are kept only as test oracles. `LegendreTable` scans every p sample
for every tabulated slope (in chunks of rows), the way the conjugate was
tabulated before its closed parametric form. `lax_oleinik` scans every
seed for every grid point, on the seed count of the solver's rule
(`viscosity._seed_count`); on the same input and table the solver must
give the same rows, bit for bit, and the same errors. `lax_friedrichs`
steps with `np.roll` on a periodic grid and a padded array on a window;
the solver must give the same values bit for bit.
"""

import numpy as np

from hjminimax.characteristics import Periodic, ProblemSpec
from hjminimax.errors import NonFinite, OutOfRange
from hjminimax.selector import GridSolution
from hjminimax.viscosity import COURANT, ConvexHamiltonian, _LegendreTable, _seed_count

SLOPE_SAMPLES = 4097        # p samples of the attainable slope range H'(p)
TABLE_V = TABLE_P = 8192    # tabulated slopes v of L(v), p samples maximized over per v


class LegendreTable:
    """Dense tabulation of the conjugate, one chunk of 512 slopes at a time."""

    def __init__(self, Hc: ConvexHamiltonian):
        self.Hc = Hc
        _, hp = Hc.H.eval_d(p=np.linspace(*Hc.p_window, SLOPE_SAMPLES), wrt="p")
        self.vmin, self.vmax = float(hp.min()), float(hp.max())
        self.vs = np.linspace(self.vmin, self.vmax, TABLE_V)
        ps = np.linspace(*Hc.p_window, TABLE_P)
        hs = Hc.H.eval(p=ps)
        dp = ps[1] - ps[0]
        Ls = np.empty(TABLE_V)
        chunk = 512
        for i0 in range(0, TABLE_V, chunk):
            v = self.vs[i0:i0 + chunk, None]
            g = v * ps[None, :] - hs[None, :]
            k = np.argmax(g, axis=1)
            k = np.clip(k, 1, TABLE_P - 2)
            rows = np.arange(len(k))
            gm1, g0, gp1 = g[rows, k - 1], g[rows, k], g[rows, k + 1]
            denom = gm1 - 2 * g0 + gp1
            off = np.where(denom < 0, 0.5 * (gm1 - gp1) / denom, 0.0)
            off = np.clip(off, -1.0, 1.0)
            p_star = ps[k] + off * dp
            Ls[i0:i0 + chunk] = v[:, 0] * p_star - Hc.H.eval(p=p_star)
        self.Ls = Ls

    def __call__(self, v):
        return np.interp(v, self.vs, self.Ls)


def lax_oleinik(Hc, u0, t, q_grid, table=None):
    """The full seed x grid-point matrix phi and its row argmins, over the
    seed window [qmin - vmax t, qmax - vmin t] that holds every admissible
    foot q0 in [q - vmax t, q - vmin t]. The table defaults to the solver's."""
    q_grid = np.asarray(q_grid, dtype=float)
    if t == 0:
        return u0.eval(q=q_grid)
    if table is None:
        table = _LegendreTable(Hc)
    vmin, vmax = table.vmin, table.vmax
    lo = float(q_grid.min()) - vmax * t
    hi = float(q_grid.max()) - vmin * t
    n_seed = _seed_count(hi - lo, (vmax - vmin) * t)
    q0s = np.linspace(lo, hi, n_seed)
    u0s = u0.eval(q=q0s)
    v = (q_grid[:, None] - q0s[None, :]) / t
    phi = np.where((v >= vmin) & (v <= vmax),
                   u0s[None, :] + t * table(np.clip(v, vmin, vmax)),
                   np.inf)
    if not np.all(np.isfinite(phi).any(axis=1)):
        raise OutOfRange("no admissible seed for some grid point; widen the p-window")
    k = np.argmin(phi, axis=1)
    u = phi[np.arange(len(q_grid)), k]

    kk = np.clip(k, 1, n_seed - 2)
    rows = np.arange(len(q_grid))
    f0, fm, fp = phi[rows, kk], phi[rows, kk - 1], phi[rows, kk + 1]
    good = np.isfinite(fm) & np.isfinite(fp) & (fm - 2 * f0 + fp > 0)
    dq0 = q0s[1] - q0s[0]
    off = np.zeros(len(q_grid))
    off[good] = 0.5 * (fm[good] - fp[good]) / (fm[good] - 2 * f0[good] + fp[good])
    off = np.clip(off, -1.0, 1.0)
    q0_star = q0s[kk] + off * dq0
    v_star = (q_grid - q0_star) / t
    ok = good & (v_star >= vmin) & (v_star <= vmax)
    refined = u0.eval(q=q0_star) + t * table(np.clip(v_star, vmin, vmax))
    return np.where(ok & (refined < u), refined, u)


def lax_friedrichs(spec: ProblemSpec, t_grid, q_grid) -> GridSolution:
    """The Lax-Friedrichs scheme with its stencil written twice: four
    `np.roll`s on a periodic grid, a linearly extrapolated pad on a window."""
    t_grid = np.asarray(t_grid, dtype=float)
    q_grid = np.asarray(q_grid, dtype=float)
    dq = float(q_grid[1] - q_grid[0])
    periodic = isinstance(spec.domain, Periodic)

    u = np.asarray(spec.u0.eval(q=q_grid), dtype=float) + 0.0 * q_grid
    _, du0 = spec.u0.eval_d(q=q_grid, wrt="q")
    pmax = 1.5 * float(np.max(np.abs(du0))) + 1.0
    ps = np.linspace(-pmax, pmax, 513)
    theta = 0.0
    for tt in np.linspace(0.0, float(t_grid[-1]), 5):
        _, hp = spec.H.eval_d(t=tt, q=q_grid[:, None], p=ps[None, :], wrt="p")
        theta = max(theta, float(np.max(np.abs(hp))))
    theta *= 1.05
    theta = max(theta, 1e-8)
    dt_max = COURANT * dq / theta

    out = np.empty((len(t_grid), len(q_grid)))
    t = 0.0

    def slopes(w):
        if periodic:
            return (np.roll(w, -1) - np.roll(w, 1)) / (2 * dq), \
                   (np.roll(w, -1) - 2 * w + np.roll(w, 1)) / (2 * dq)
        wp = np.concatenate([[2 * w[0] - w[1]], w, [2 * w[-1] - w[-2]]])
        return (wp[2:] - wp[:-2]) / (2 * dq), (wp[2:] - 2 * w + wp[:-2]) / (2 * dq)

    for i, t_target in enumerate(t_grid.tolist()):
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
                        branch_count=np.ones_like(zeros))
