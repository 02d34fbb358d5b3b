"""Characteristic flow of the space-time Hamiltonian tau + H.

Flows dq/dt = H_p, dp/dt = -H_q, dz/dt = p*H_p - H from the initial
1-jet data (q0, du0(q0), u0(q0)), building isochrone slices of the
geometric solution. When H depends on p alone the strands are straight
lines, q = q0 + t*H_p(p0), z = z0 + t*(p0*H_p - H), written in closed form;
any other H is integrated by classical RK4. Strands are independent; both
paths are vectorized over seeds and deterministic for a fixed step.
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
    """Advance all strands from t0 to t1 with uniform classical RK4 substeps."""
    if t1 == t0:
        return q, p, z
    m = max(1, math.ceil((t1 - t0) / step - 1e-12))
    dt = (t1 - t0) / m
    H = spec.H
    for i in range(m):
        t = t0 + i * dt

        def rhs(tt, qq, pp):
            dq, dp, dz = char_rhs(H, tt, qq, pp)
            mask = _freeze_mask(spec, qq)
            if mask is not None:
                dq = np.where(mask, dq, 0.0)
                dp = np.where(mask, dp, 0.0)
                dz = np.where(mask, dz, 0.0)
            return dq, dp, dz

        k1q, k1p, k1z = rhs(t, q, p)
        k2q, k2p, k2z = rhs(t + 0.5 * dt, q + 0.5 * dt * k1q, p + 0.5 * dt * k1p)
        k3q, k3p, k3z = rhs(t + 0.5 * dt, q + 0.5 * dt * k2q, p + 0.5 * dt * k2p)
        k4q, k4p, k4z = rhs(t + dt, q + dt * k3q, p + dt * k3p)
        q = q + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
        p = p + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        z = z + dt / 6.0 * (k1z + 2 * k2z + 2 * k3z + k4z)
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
    if not step > 0:
        raise ValueError("step must be positive")
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
