"""Out-of-place reference version of the RK4 flow in `hjminimax.characteristics`.

This is the arithmetic the in-place stages replaced, kept only as a test
oracle: every stage state, slope, stage sum and update is a new array. Its
slopes come from the checked `Expression.eval_d`, as the flow's did before
it ran H's compiled program directly, so every stage raises NonFinite at a
non-finite slope. On the same input `evolve_states` must give the same
strands bit for bit.
"""

import math

import numpy as np

from hjminimax.characteristics import initial_state


def rk4_span(spec, t0, t1, q, p, z, step):
    """Advance all strands from t0 to t1 with uniform classical RK4 substeps."""
    if t1 == t0:
        return q, p, z
    m = max(1, math.ceil((t1 - t0) / step - 1e-12))
    dt = (t1 - t0) / m
    H = spec.H
    for i in range(m):
        t = t0 + i * dt

        def rhs(tt, qq, pp):
            hval, hp, hq = H.eval_d(t=tt, q=qq, p=pp, wrt=("p", "q"))
            return hp, -hq, pp * hp - hval

        k1q, k1p, k1z = rhs(t, q, p)
        k2q, k2p, k2z = rhs(t + 0.5 * dt, q + 0.5 * dt * k1q, p + 0.5 * dt * k1p)
        k3q, k3p, k3z = rhs(t + 0.5 * dt, q + 0.5 * dt * k2q, p + 0.5 * dt * k2p)
        k4q, k4p, k4z = rhs(t + dt, q + dt * k3q, p + dt * k3p)
        q = q + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
        p = p + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        z = z + dt / 6.0 * (k1z + 2 * k2z + 2 * k3z + k4z)
    return q, p, z


def evolve_states(spec, times, seeds, step=None):
    """(Q, P, Z) as `characteristics.evolve_states` gives them for an H that
    reads q or t."""
    step = spec.default_step() if step is None else step
    q, p, z = initial_state(spec, np.asarray(seeds, dtype=float))
    rows, t_prev = [], 0.0
    for t in times:
        q, p, z = rk4_span(spec, t_prev, t, q, p, z, step)
        t_prev = t
        rows.append((q, p, z))
    return tuple(np.array(r) for r in zip(*rows))
