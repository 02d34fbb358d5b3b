"""Dense reference versions of the Lax-Oleinik argmins in
`hjminimax.viscosity`.

These scan the full matrices the monotone divide and conquer replaced,
kept only as test oracles: the Legendre table scans every p sample for
every tabulated slope (in chunks of rows), and `lax_oleinik` every seed
for every grid point, on the seed count of the solver's rule
(`viscosity._seed_count`). On the same input the solver must give the
same table and the same rows, bit for bit, and the same errors.
"""

import numpy as np

from hjminimax.errors import OutOfRange
from hjminimax.viscosity import TABLE_P, TABLE_V, ConvexHamiltonian, _seed_count


class LegendreTable:
    """Dense tabulation of the conjugate, one chunk of 512 slopes at a time."""

    def __init__(self, Hc: ConvexHamiltonian):
        self.Hc = Hc
        self.vmin, self.vmax = Hc.slope_range()
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
    foot q0 in [q - vmax t, q - vmin t]."""
    q_grid = np.asarray(q_grid, dtype=float)
    if t == 0:
        return u0.eval(q=q_grid)
    if table is None:
        table = LegendreTable(Hc)
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
