"""Characteristic flow of the space-time Hamiltonian tau + H.

Integrates dq/dt = H_p, dp/dt = -H_q, dz/dt = p*H_p - H from the initial
1-jet data (q0, du0(q0), u0(q0)), building isochrone slices of the
geometric solution. Strands are independent; the integrator is vectorized
over seeds and deterministic for a fixed step.
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
        if not self.period > 0:
            raise ValueError("period must be positive")


@dataclass(frozen=True)
class Windowed:
    """u0 constant and H p-independent outside [qmin, qmax]; strands freeze there."""
    qmin: float
    qmax: float

    def __post_init__(self):
        if not self.qmin < self.qmax:
            raise ValueError("qmin must be < qmax")


@dataclass(frozen=True)
class ProblemSpec:
    H: Expression
    u0: Expression
    domain: Periodic | Windowed
    t_max: float

    def __post_init__(self):
        if not self.t_max > 0:
            raise ValueError("t_max must be positive")

    def default_step(self):
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


def evolve_states(spec: ProblemSpec, times: Sequence[float], seeds,
                  step: float | None = None):
    """Integrate all seeds through the sorted output times.

    Returns (Q, P, Z), each of shape (len(times), len(seeds)). Each
    inter-time span is subdivided into uniform RK4 substeps of size <= step.
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
