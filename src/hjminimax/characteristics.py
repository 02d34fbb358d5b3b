"""Characteristic flow of the space-time Hamiltonian tau + H.

Flows dq/dt = H_p, dp/dt = -H_q, dz/dt = p*H_p - H from the initial
1-jet data (q0, du0(q0), u0(q0)), building isochrone slices of the
geometric solution. When H depends on p alone the strands are straight
lines, q = q0 + t*H_p(p0), z = z0 + t*(p0*H_p - H), written in closed form;
any other H is integrated by classical RK4. The RK4 stages are summed in
place, in buffers the flow owns, with the rounding of the textbook
out-of-place update; the slopes come straight from H's compiled program,
unchecked, and the strands are checked for finiteness once per output
span. Strands are independent; both paths are vectorized over seeds. An
explicit step is used as given; without one the RK4 step is chosen by step
doubling on a fixed subsample of the seeds (`_choose_step`), so the strands
depend only on the spec, the times and the seeds.

On a periodic domain the strand from q0 + k*L is the strand from q0 moved
by k*L, with the same p and z, when u0 and H repeat with period L. So when
the sorted seeds repeat one period on and u0 and H agree at the repeats,
only the first period is flowed and returned, and `tile_row` expands one
row to every seed when the row is read; any other seed set is flowed
strand by strand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, NonFinite
from .expr import Expression, own

# relative agreement of u0 and H at seeds one period apart that lets
# `evolve_states` flow one period only
REPEAT_TOL = 1e-12
# error allowed at the last output time, relative to max(1, max|z|), when
# `evolve_states` chooses the RK4 step itself
RK4_TOL = 1e-10


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
        """The finest RK4 substep `evolve_states` chooses by itself, and the
        one it falls back to when no coarser step meets RK4_TOL."""
        return self.t_max / 2000.0


def char_rhs(H: Expression, t, q, p):
    """(dq, dp, dz) = (H_p, -H_q, p*H_p - H) at the states q, p of one shape,
    each a new array of that shape, from H's compiled program: its tangents
    go through `expr.own` as `Expression.eval_d`'s do.

    Unchecked, like the program: call it under
    np.errstate(over="ignore", invalid="ignore") and check what it feeds."""
    hval, hp, hq = H.compiled(("p", "q"))(t, q, p)
    shape = np.shape(q)
    hp = own(hp, shape, (q, p))
    return hp, -own(hq, shape, (q, p)), p * hp - hval


def initial_state(spec: ProblemSpec, seeds):
    q0 = np.asarray(seeds, dtype=float)
    u0val, du0 = spec.u0.eval_d(q=q0, wrt="q")
    return q0.copy(), du0, u0val


def _freeze_mask(spec: ProblemSpec, q):
    if isinstance(spec.domain, Windowed):
        return (q >= spec.domain.qmin) & (q <= spec.domain.qmax)
    return None


def _rk4_span(spec, t0, t1, q, p, z, step):
    """Advance all strands from t0 to t1 with uniform classical RK4 substeps.

    Returns new arrays and leaves q, p and z as they are. The stages are
    summed in place, in the order of the textbook update
    x + dt/6 * (((k1 + 2*k2) + 2*k3) + k4), so the bits are its bits.
    The slopes are unchecked (`char_rhs`): a DomainError of H's program
    raises at the stage that meets it, and NonFinite is raised once, when
    the strands are not finite at t1. A non-finite slope always reaches
    them there, unless a Windowed domain freezes its strand."""
    q, p, z = q.copy(), p.copy(), z.copy()
    if t1 == t0:
        return q, p, z
    m = max(1, math.ceil((t1 - t0) / step - 1e-12))
    dt = (t1 - t0) / m
    half = 0.5 * dt
    qs, ps = np.empty_like(q), np.empty_like(p)  # the state a stage reads

    def rhs(t, qq, pp):
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

    with np.errstate(over="ignore", invalid="ignore"):
        try:
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
        except OverflowError:  # a Python float ** overflows by raising
            raise NonFinite(f"non-finite value in eval of {spec.H.source!r}") from None
    if not (np.isfinite(q).all() and np.isfinite(p).all() and np.isfinite(z).all()):
        raise NonFinite(f"non-finite value in eval of {spec.H.source!r}")
    return q, p, z


def _choose_step(spec: ProblemSpec, t_end, q, p, z):
    """The RK4 step for flowing the strands q, p, z from 0 to t_end.

    Step doubling on every 16th strand: flow them to t_end in m and in 2m
    uniform substeps, m starting at ceil(50 t_end / t_max), and estimate the
    error of the m-substep flow as 16/15 of the largest difference in q, p
    or z. The first step t_end/m whose estimate is at most
    RK4_TOL * max(1, max|z|) is returned; each level's 2m flow is the next
    level's m flow. When no step down to `default_step()` passes, when the
    estimate is not finite, or when a probe leaves H's domain, the result
    is `default_step()`: the chosen step is never finer than that floor."""
    floor = spec.default_step()
    q, p, z = q[::16], p[::16], z[::16]
    m = max(1, math.ceil(50 * t_end / spec.t_max - 1e-12))
    try:
        coarse = _rk4_span(spec, 0.0, t_end, q, p, z, t_end / m)
        while t_end / m >= floor:
            fine = _rk4_span(spec, 0.0, t_end, q, p, z, t_end / (2 * m))
            err = 16 / 15 * float(np.max(np.abs(np.subtract(fine, coarse))))
            if not math.isfinite(err):
                break
            if err <= RK4_TOL * max(1.0, float(np.max(np.abs(fine[2])))):
                return t_end / m
            coarse, m = fine, 2 * m
    except (NonFinite, DomainError):
        pass
    return floor


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
    """Write the exact flow of a p-only H into the rows of Q, P, Z in place;
    NonFinite names the first strand, in time then seed order, that is not
    finite."""
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
    bad = ~(np.isfinite(Q) & np.isfinite(P) & np.isfinite(Z))
    if bad.any():
        k, s = np.argwhere(bad)[0]
        raise NonFinite(f"strand with seed q0={q0[s]} diverged by t={times[k]}")


def _agree(a, b):
    """a equals b to REPEAT_TOL relative to the larger magnitude of both."""
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return bool(np.all(np.abs(a - b) <= REPEAT_TOL * scale))


def _period_width(spec: ProblemSpec, seeds, p0, z0):
    """The number n of seeds in one period when the flow of seeds[:n]
    determines every other strand, len(seeds) otherwise.

    That needs a periodic domain; sorted seeds with seeds[n:] = seeds[:-n] + L
    to a few ulps; u0's value z0 and slope p0 agreeing at the repeats; and,
    when H reads q, H, H_p and H_q agreeing there at the nine times
    k t_max / 8. Those times are a sample: an H that disagrees across a
    period only between them is still tiled."""
    N = len(seeds)
    if not isinstance(spec.domain, Periodic) or N < 2:
        return N
    L = spec.domain.period
    tol = 4 * np.spacing(max(abs(seeds[0]), abs(seeds[-1])))
    n = int(np.searchsorted(seeds, seeds[0] + L - tol))
    if not (0 < n < N and np.all(seeds[1:] >= seeds[:-1])
            and np.all(np.abs(seeds[n:] - seeds[:-n] - L) <= tol)):
        return N
    if not (_agree(z0[n:], z0[:-n]) and _agree(p0[n:], p0[:-n])):
        return N
    if "q" in spec.H.variables:
        for t in (k * spec.t_max / 8 for k in range(9)):
            for h in spec.H.eval_d(t=t, q=seeds, p=p0, wrt=("p", "q")):
                if not _agree(h[n:], h[:-n]):
                    return N
    return n


def tile_row(spec: ProblemSpec, N: int, q, p, z):
    """The N seed-sorted states of one `evolve_states` row q, p, z: the row
    itself when it holds every strand, else its period repeated, period k
    moved by k*L and period 0 left as it is."""
    n = len(q)
    if n == N:
        return q, p, z
    reps = math.ceil(N / n)
    out = np.empty((3, reps, n))
    out[0], out[1], out[2] = q, p, z
    out[0, 1:] += np.arange(1, reps)[:, None] * spec.domain.period
    return tuple(out.reshape(3, -1)[:, :N])


def evolve_states(spec: ProblemSpec, times: Sequence[float], seeds,
                  step: float | None = None):
    """Flow the seeds through the sorted output times.

    Returns (Q, P, Z), each of shape (len(times), n), n the number of
    strands flowed. When H depends on p alone every row is the closed form
    and step goes unused; otherwise each inter-time span is subdivided into
    uniform RK4 substeps of size <= step. Without a step, `_choose_step`
    picks the first of about t_max/50, t_max/100, ... whose step-doubling
    error estimate at times[-1] meets RK4_TOL, and never one finer than
    `spec.default_step()`. When the seeds and the data repeat with the
    period (see `_period_width`), only the first period seeds[:n] is flowed
    and `tile_row` expands a row to every seed; otherwise n = len(seeds).
    """
    times = list(times)
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be sorted")
    if times and (times[0] < 0 or times[-1] > spec.t_max + 1e-12):
        raise ValueError("times must lie in [0, t_max]")
    if step is not None and not 0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    seeds = np.asarray(seeds, dtype=float)

    q, p, z = initial_state(spec, seeds)
    n = _period_width(spec, seeds, p, z)
    q, p, z = q[:n], p[:n], z[:n]
    Q = np.empty((len(times), n))
    P = np.empty_like(Q)
    Z = np.empty_like(Q)
    if spec.H.variables <= {"p"}:
        _straight_lines(spec, times, q, p, z, Q, P, Z)
    else:
        if step is None:
            step = _choose_step(spec, times[-1] if times else 0.0, q, p, z)
        t_prev = 0.0
        for k, t in enumerate(times):
            q, p, z = _rk4_span(spec, t_prev, t, q, p, z, step)
            t_prev = t
            Q[k], P[k], Z[k] = q, p, z
    return Q, P, Z


def evolve(spec: ProblemSpec, t: float, seeds: Sequence[float],
           step: float | None = None):
    """Integrate each seed from 0 to t.

    Returns the seed-sorted arrays (q0, q, p, z) of the states at t, one
    per seed: the flowed period expanded by `tile_row`."""
    q0 = np.sort(np.asarray(seeds, dtype=float))
    Q, P, Z = evolve_states(spec, [t], q0, step)
    return q0, *tile_row(spec, len(q0), Q[0], P[0], Z[0])
