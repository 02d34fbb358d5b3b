"""Greedy coupling of a fiber's critical points.

The critical points of one fiber, ordered along it, are paired off
adjacent maximum with minimum, smallest value gap first; the one point
left free carries the minimax value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import MalformedInput, NonGeneric

VALUE_TOL = 1e-10       # relative tolerance for value-tie detection


@dataclass(frozen=True)
class CriticalPoint:
    xi: float
    value: float
    index: int  # 0 = local minimum, 1 = local maximum (1-D Morse normal form)


@dataclass(frozen=True)
class CouplingDecomposition:
    """Pairs (upper, lower) in greedy order plus the single free point."""
    pairs: tuple[tuple[CriticalPoint, CriticalPoint], ...]
    free: CriticalPoint


def couple(points: Sequence[CriticalPoint]) -> CouplingDecomposition:
    """Greedy coupling: repeatedly remove the incident (adjacent max/min)
    pair with the smallest value gap, re-linking neighbors, until a single
    free point remains. Equal gaps go to the first pair along the fiber.

    With two index levels the free value is the extreme of the end points'
    level whichever tied pair goes first: the tie is a shock, not a failure.
    With three or more, tie order can change it, and a tie raises NonGeneric."""
    pts = list(points)
    if len(pts) % 2 == 0:
        raise MalformedInput(f"expected an odd number of critical points, got {len(pts)}")
    if len(pts) == 1:
        return CouplingDecomposition(pairs=(), free=pts[0])
    for u, v in zip(pts, pts[1:]):
        if abs(u.index - v.index) != 1:
            raise MalformedInput("indices must alternate along xi")
        upper, lower = (u, v) if u.index > v.index else (v, u)
        if not upper.value > lower.value:
            raise MalformedInput(
                "adjacent maximum does not dominate its neighbor minimum "
                f"({upper.value} <= {lower.value})")

    scale = max(1.0, max(abs(p.value) for p in pts))
    two_level = len({p.index for p in pts}) == 2
    alive = list(range(len(pts)))
    pairs = []
    while len(alive) > 1:
        gaps = []
        for k in range(len(alive) - 1):
            u, v = pts[alive[k]], pts[alive[k + 1]]
            upper, lower = (u, v) if u.index > v.index else (v, u)
            gaps.append((upper.value - lower.value, k, upper, lower))
        gaps.sort(key=lambda g: g[0])
        if not two_level and len(gaps) > 1 \
                and gaps[1][0] - gaps[0][0] <= VALUE_TOL * scale:
            raise NonGeneric("tied coupling gaps over three or more index levels")
        _, k, upper, lower = gaps[0]
        pairs.append((upper, lower))
        del alive[k:k + 2]
    return CouplingDecomposition(pairs=tuple(pairs), free=pts[alive[0]])
