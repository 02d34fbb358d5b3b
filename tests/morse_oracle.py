"""Oracles for the greedy fiber coupling in `hjminimax.morse1d`.

Fiber functions of one variable, their sampled critical points, and a
union-find persistence pass over the sampled sublevel filtration; and
`couple`, the one-fiber scalar loop that `morse1d.couple_rows` replaced.
None of this runs in the solver; the tests check `morse1d` against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from hjminimax.errors import HJError, MalformedInput, NonGeneric
from hjminimax.morse1d import VALUE_TOL

XI_TOL = 1e-8           # bisection tolerance for critical-point abscissae


@dataclass(frozen=True)
class CriticalPoint:
    xi: float
    value: float
    index: int  # 0 = local minimum, 1 = local maximum (1-D Morse normal form)


class ResolutionTooCoarse(HJError):
    """Sampling resolution cannot separate nearby features."""


@dataclass(frozen=True)
class FiberFunction:
    """A function of one variable, quadratic at infinity.

    Only behaviour inside `window` matters: outside it the function is
    declared monotone toward its quadratic tails. infinity_index is the
    Morse index of the quadratic form at infinity (0: bowl up, 1: bowl down).
    """
    values: Callable[[float], float]
    window: tuple[float, float]
    infinity_index: int = 0

    def __post_init__(self):
        if self.infinity_index not in (0, 1):
            raise MalformedInput(f"infinity_index must be 0 or 1, got {self.infinity_index}")
        if not self.window[0] < self.window[1]:
            raise MalformedInput("empty window")


@dataclass(frozen=True)
class OracleResult:
    """Union-find persistence output on a sampled filtration."""
    value: float                  # essential-class critical value (the minimax)
    free_xi: float                # abscissa of the essential minimum/maximum
    pairs: tuple[tuple[float, float], ...] = field(default=())  # (xi_saddle, xi_birth)


def critical_points(f: FiberFunction, resolution: int = 2048) -> list[CriticalPoint]:
    """Locate the Morse critical points of f inside its window.

    Sign changes of the sampled derivative are bisected to |xi error| <= XI_TOL;
    indices come from the sign of the second difference at the root.
    """
    if resolution < 64:
        raise ValueError("resolution must be >= 64")
    a, b = f.window
    width = b - a
    h = width * 1e-7

    def deriv(x):
        return (f.values(x + h) - f.values(x - h)) / (2.0 * h)

    # detect on the refined grid; compare against the coarse grid (every
    # other fine sample) to catch features that a single cell cannot separate
    xs = np.linspace(a, b, 2 * resolution + 1)
    ds = np.array([deriv(x) for x in xs.tolist()])
    coarse_cells = _sign_change_cells(ds[::2])
    fine_cells = _sign_change_cells(ds)
    if len(fine_cells) != len(coarse_cells):
        raise ResolutionTooCoarse(
            f"{len(coarse_cells)} sign changes at resolution {resolution}, "
            f"{len(fine_cells)} after one refinement round")
    for l0, l1 in zip(fine_cells, fine_cells[1:]):
        if l1 - l0 <= 1:
            raise ResolutionTooCoarse("two derivative sign changes share a sample cell")

    points = []
    dx = width / (2 * resolution)
    for cell in fine_cells:
        lo = a + cell * dx
        hi = lo + dx
        xi = _bisect(deriv, lo, hi, XI_TOL)
        d2 = f.values(xi + 10 * XI_TOL) - 2.0 * f.values(xi) + f.values(xi - 10 * XI_TOL)
        index = 0 if d2 > 0 else 1
        points.append(CriticalPoint(xi=xi, value=float(f.values(xi)), index=index))
    points.sort(key=lambda cp: cp.xi)

    vals = sorted(cp.value for cp in points)
    scale = max(abs(v) for v in vals) if vals else 1.0
    for v0, v1 in zip(vals, vals[1:]):
        if abs(v1 - v0) <= VALUE_TOL * max(1.0, scale):
            raise NonGeneric(f"critical values {v0} and {v1} coincide within tolerance")
    return points


def _sign_change_cells(ds):
    """Indices of the sample cells over which the derivative samples ds
    change sign (a zero sample marks the cell to its left)."""
    s = np.sign(ds).tolist()
    cells = []
    for i in range(len(s) - 1):
        if s[i + 1] == 0 or (s[i] != 0 and s[i] != s[i + 1]):
            # collapse duplicates from the zero-sample case
            if not cells or i > cells[-1]:
                cells.append(i)
    return cells


def _bisect(g, lo, hi, tol):
    glo = g(lo)
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0:
            return mid
        if (glo < 0) != (gm < 0):
            hi = mid
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


def persistence_pairs(f: FiberFunction, resolution: int = 4096) -> OracleResult:
    """Union-find persistence over the sampled sublevel filtration.

    Sweeping values upward, a local maximum merging two components pairs
    with the younger component's minimum; the essential class is the free
    point, and its value is the minimax. For infinity_index=1 the
    superlevel (dual) filtration is used.
    """
    a, b = f.window
    xs = np.linspace(a, b, resolution)
    ys = np.array([f.values(x) for x in xs.tolist()], dtype=float)
    if f.infinity_index == 1:
        ys = -ys
    order = np.argsort(ys, kind="stable").tolist()
    y = ys.tolist()

    n = len(y)
    parent = [-1] * n  # -1: sample not yet in the sublevel set
    birth = [0] * n    # root -> sample index of the component minimum

    def find(i):
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    pairs = []
    for i in order:
        parent[i] = i
        birth[i] = i
        roots = [find(j) for j in (i - 1, i + 1) if 0 <= j < n and parent[j] >= 0]
        if len(roots) == 1:
            parent[i] = roots[0]
        elif len(roots) == 2:
            older, younger = roots
            if y[birth[younger]] < y[birth[older]]:
                older, younger = younger, older
            pairs.append((float(xs[i]), float(xs[birth[younger]])))
            parent[i] = older
            parent[younger] = older
    essential = find(int(order[0]))
    free_i = birth[essential]
    sign = -1.0 if f.infinity_index == 1 else 1.0
    return OracleResult(value=float(sign * ys[free_i]), free_xi=float(xs[free_i]),
                        pairs=tuple(pairs))


def perturbed(f: FiberFunction, seed: int) -> FiberFunction:
    """Deterministic tiny smooth bump, for retrying NonGeneric inputs."""
    rng = np.random.default_rng(seed)
    a, b = f.window
    k = 2.0 * math.pi / (b - a) * (1.0 + rng.random())
    phase = rng.random() * 2.0 * math.pi
    xs = np.linspace(a, b, 512)
    vals = np.array([f.values(x) for x in xs])
    eps = 1e-9 * max(1e-12, float(vals.max() - vals.min()))
    base = f.values
    return FiberFunction(values=lambda x: base(x) + eps * math.sin(k * x + phase),
                         window=f.window, infinity_index=f.infinity_index)


def couple(values, index):
    """Greedy coupling of one fiber, one pair per loop turn: repeatedly
    removes the incident (adjacent max/min) pair with the smallest value
    gap, re-linking neighbors, until a single free point remains. Equal
    gaps go to the first pair along the fiber (the sort is stable). Returns
    (free, pairs) as `morse1d.couple` does, and raises what it raises."""
    n = len(values)
    if n % 2 == 0:
        raise MalformedInput(f"expected an odd number of critical points, got {n}")
    if n == 1:
        return 0, []
    for k in range(n - 1):
        if abs(index[k] - index[k + 1]) != 1:
            raise MalformedInput("indices must alternate along xi")
        upper, lower = _upper_lower(index, k, k + 1)
        if not values[upper] > values[lower]:
            raise MalformedInput(
                "adjacent maximum does not dominate its neighbor minimum "
                f"({values[upper]} <= {values[lower]})")

    scale = max(1.0, max(abs(v) for v in values))
    two_level = len(set(index)) == 2
    alive = list(range(n))
    pairs = []
    while len(alive) > 1:
        gaps = []
        for k in range(len(alive) - 1):
            upper, lower = _upper_lower(index, alive[k], alive[k + 1])
            gaps.append((values[upper] - values[lower], k, upper, lower))
        gaps.sort(key=lambda g: g[0])
        if not two_level and len(gaps) > 1 \
                and gaps[1][0] - gaps[0][0] <= VALUE_TOL * scale:
            raise NonGeneric("tied coupling gaps over three or more index levels")
        _, k, upper, lower = gaps[0]
        pairs.append((upper, lower))
        del alive[k:k + 2]
    return alive[0], pairs


def _upper_lower(index, u, v):
    """The positions u and v, the one of higher index first."""
    return (u, v) if index[u] > index[v] else (v, u)
