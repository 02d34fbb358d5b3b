"""Characteristic flow of the space-time Hamiltonian tau + H.

Flows dq/dt = H_p, dp/dt = -H_q, dz/dt = p*H_p - H from the initial
1-jet data (q0, du0(q0), u0(q0)), building isochrone slices of the
geometric solution. When H depends on p alone the strands are straight
lines, q = q0 + t*H_p(p0), z = z0 + t*(p0*H_p - H), written in closed form;
any other H is integrated by classical RK4. The RK4 stages are summed in
place, in buffers the flow owns, with the rounding of the textbook
out-of-place update; the slopes come from H's compiled program, whose
arrays never alias the strand state. Strands are independent; both paths
are vectorized over seeds and deterministic for a fixed step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonFinite
from .expr import Expression


@dataclass(frozen=True)
class Periodic:
    period: float

    def __post_init__(self):
        if not 0 < self.period < math.inf:
            raise ValueError("period must be positive and finite")


@dataclass(frozen=True)
class Windowed:
    """u0 constant and H p-independent outside [qmin, qmax].

    A strand that starts outside the window never moves. One inside stops
    where it first meets qmin or qmax: exactly there at its exit time when
    H depends on p alone, within one RK4 substep of it otherwise."""
    qmin: float
    qmax: float

    def __post_init__(self):
        if not -math.inf < self.qmin < self.qmax < math.inf:
            raise ValueError("qmin must be < qmax, both finite")


@dataclass(frozen=True)
class ProblemSpec:
    H: Expression
    u0: Expression
    domain: Periodic | Windowed
    t_max: float

    def __post_init__(self):
        if not 0 < self.t_max < math.inf:
            raise ValueError("t_max must be positive and finite")

    def default_step(self):
        """RK4 substep, used only when H reads q or t."""
        return self.t_max / 2000.0


def char_rhs(H: Expression, t, q, p):
    """(dq, dp, dz) = (H_p, -H_q, p*H_p - H)."""
    hval, hp, hq = H.eval_d(t=t, q=q, p=p, wrt=("p", "q"))
    return hp, -hq, p * hp - hval


def initial_state(spec: ProblemSpec, seeds):
    q0 = np.asarray(seeds, dtype=float)
    u0val, du0 = spec.u0.eval_d(q=q0, wrt="q")
    return q0.copy(), np.asarray(du0, float) + 0.0 * q0, np.asarray(u0val, float) + 0.0 * q0


def _freeze_mask(spec: ProblemSpec, q):
    if isinstance(spec.domain, Windowed):
        return (q >= spec.domain.qmin) & (q <= spec.domain.qmax)
    return None


def _rk4_span(spec, t0, t1, q, p, z, step):
    """Advance all strands from t0 to t1 with uniform classical RK4 substeps.

    Returns new arrays and leaves q, p and z as they are. The stages are
    summed in place, in the order of the textbook update
    x + dt/6 * (((k1 + 2*k2) + 2*k3) + k4), so the bits are its bits."""
    q, p, z = q.copy(), p.copy(), z.copy()
    if t1 == t0:
        return q, p, z
    m = max(1, math.ceil((t1 - t0) / step - 1e-12))
    dt = (t1 - t0) / m
    half = 0.5 * dt
    qs, ps = np.empty_like(q), np.empty_like(p)  # the state a stage reads

    def rhs(t, qq, pp):
        # eval_d returns arrays of its own, so the slopes are ours to change
        k = char_rhs(spec.H, t, qq, pp)
        mask = _freeze_mask(spec, qq)
        if mask is not None:
            for d in k:
                np.copyto(d, 0.0, where=~mask)
        return k

    def stage(h, k):
        """The stage state q + h*kq, p + h*kp, into qs and ps."""
        for out, x, d in ((qs, q, k[0]), (ps, p, k[1])):
            np.multiply(h, d, out=out)
            out += x

    def add_twice(acc, k):
        for a, d in zip(acc, k):
            d *= 2
            a += d

    for i in range(m):
        t = t0 + i * dt
        acc = rhs(t, q, p)
        stage(half, acc)
        k = rhs(t + half, qs, ps)
        stage(half, k)
        add_twice(acc, k)
        k = rhs(t + half, qs, ps)
        stage(dt, k)
        add_twice(acc, k)
        k = rhs(t + dt, qs, ps)
        for x, a, d in zip((q, p, z), acc, k):
            a += d
            a *= dt / 6.0
            x += a
    return q, p, z


def _window_stops(domain: Windowed, q0, hp):
    """(edge, t_exit): where and when each straight strand stops. A strand
    outside the window stops at once where it is; one that never moves
    (hp = 0) has t_exit = inf."""
    outside = (q0 < domain.qmin) | (q0 > domain.qmax)
    edge = np.where(outside, q0, np.where(hp > 0, domain.qmax, domain.qmin))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_exit = (edge - q0) / hp
    t_exit[hp == 0] = np.inf
    t_exit[outside] = 0.0
    return edge, t_exit


def _straight_lines(spec, times, q0, p0, z0, Q, P, Z):
    """Write the exact flow of a p-only H into the rows of Q, P, Z in place."""
    hval, hp = spec.H.eval_d(p=p0, wrt="p")
    dz = p0 * hp - hval
    windowed = isinstance(spec.domain, Windowed)
    if windowed:
        edge, t_exit = _window_stops(spec.domain, q0, hp)
    with np.errstate(over="ignore"):
        for k, t in enumerate(times):
            tau = np.minimum(t, t_exit) if windowed else t
            np.multiply(tau, hp, out=Q[k])
            Q[k] += q0
            P[k] = p0
            np.multiply(tau, dz, out=Z[k])
            Z[k] += z0
            if windowed:
                np.copyto(Q[k], edge, where=t >= t_exit)


def evolve_states(spec: ProblemSpec, times: Sequence[float], seeds,
                  step: float | None = None):
    """Flow all seeds through the sorted output times.

    Returns (Q, P, Z), each of shape (len(times), len(seeds)). When H
    depends on p alone every row is the closed form and step goes unused;
    otherwise each inter-time span is subdivided into uniform RK4 substeps
    of size <= step.
    """
    times = list(times)
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be sorted")
    if times and (times[0] < 0 or times[-1] > spec.t_max + 1e-12):
        raise ValueError("times must lie in [0, t_max]")
    if step is None:
        step = spec.default_step()
    if not 0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    seeds = np.asarray(seeds, dtype=float)

    q, p, z = initial_state(spec, seeds)
    Q = np.empty((len(times), len(seeds)))
    P = np.empty_like(Q)
    Z = np.empty_like(Q)
    if spec.H.variables <= {"p"}:
        _straight_lines(spec, times, q, p, z, Q, P, Z)
    else:
        t_prev = 0.0
        for k, t in enumerate(times):
            q, p, z = _rk4_span(spec, t_prev, t, q, p, z, step)
            t_prev = t
            Q[k], P[k], Z[k] = q, p, z

    bad = ~(np.isfinite(Q) & np.isfinite(P) & np.isfinite(Z))
    if bad.any():
        kt, ks = np.argwhere(bad)[0]
        raise NonFinite(f"strand with seed q0={seeds[ks]} diverged by t={times[kt]}")
    return Q, P, Z


def evolve(spec: ProblemSpec, t: float, seeds: Sequence[float],
           step: float | None = None):
    """Integrate each seed from 0 to t.

    Returns the seed-sorted arrays (q0, q, p, z) of the states at t."""
    q0 = np.sort(np.asarray(seeds, dtype=float))
    Q, P, Z = evolve_states(spec, [t], q0, step)
    return q0, Q[0], P[0], Z[0]
