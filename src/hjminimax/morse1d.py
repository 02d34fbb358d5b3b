"""Greedy coupling of a fiber's critical points.

The critical points of one fiber, ordered along it, are paired off
adjacent maximum with minimum, smallest value gap first; the one point
left free carries the minimax value.
"""

from __future__ import annotations

from typing import Sequence

from .errors import MalformedInput, NonGeneric

VALUE_TOL = 1e-10       # relative tolerance for value-tie detection


def couple(values: Sequence[float], index: Sequence[int]):
    """Greedy coupling of one fiber's critical points, given by their values
    and branch indices in order along the fiber; of two neighbours, the one
    of higher index is the maximum (1-D Morse normal form). Repeatedly
    removes the incident (adjacent max/min) pair with the smallest value
    gap, re-linking neighbors, until a single free point remains. Equal
    gaps go to the first pair along the fiber. Returns (free, pairs): the
    free point's position and the (upper, lower) positions of the pairs in
    greedy order.

    With two index levels the free value is the extreme of the end points'
    level whichever tied pair goes first: the tie is a shock, not a failure.
    With three or more, tie order can change it, and a tie raises NonGeneric."""
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
