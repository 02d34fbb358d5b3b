"""Greedy coupling of fiber critical points, one array pass per batch.

The critical points of one fiber, ordered along it, are paired off
adjacent maximum with minimum, smallest value gap first; the one point
left free carries the minimax value. `couple_rows` runs that rule on a
batch of fibers with the same number of points, one round per pair across
every row; `couple` is its one-row call.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import MalformedInput, NonGeneric

VALUE_TOL = 1e-10       # relative tolerance for value-tie detection


def couple(values: Sequence[float], index: Sequence[int]):
    """Greedy coupling of one fiber's critical points, given by their values
    and branch indices in order along the fiber: `couple_rows` on one row.
    Returns (free, pairs): the free point's position and the (upper, lower)
    positions of the pairs in greedy order. Raises the row's MalformedInput
    or NonGeneric."""
    free, pairs, failed = couple_rows(np.array([values], dtype=float),
                                      np.array([index]))
    if failed:
        raise failed[0]
    return int(free[0]), [(u, v) for u, v in pairs[0].tolist()]


def couple_rows(values, index):
    """Greedy coupling of n fibers of c critical points each, given as (n, c)
    arrays of values and branch indices in order along each fiber; of two
    neighbours, the one of higher index is the maximum (1-D Morse normal
    form). Each round removes, in every row, the incident (adjacent max/min)
    pair with the smallest value gap and re-links its neighbours, until one
    free point remains. Equal gaps go to the first pair along the fiber.

    Returns (free, pairs, failed): free[r] is row r's free position, pairs[r]
    the c // 2 (upper, lower) positions of its pairs in greedy order,
    and failed maps each row that cannot be coupled to its error, with free
    and pairs -1 there. A row fails with MalformedInput on an even c, or at
    its first neighbour pair whose indices do not differ by 1 or whose
    maximum does not exceed its minimum.

    With two index levels the free value is the extreme of the end points'
    level whichever tied pair goes first: the tie is a shock, not a failure.
    With three or more, tie order can change it, and a round whose two
    smallest gaps tie within VALUE_TOL fails the row with NonGeneric."""
    values = np.asarray(values, dtype=float)
    index = np.asarray(index)
    n, c = values.shape
    free = np.full(n, -1)
    pairs = np.full((n, c // 2, 2), -1)
    if c % 2 == 0:
        err = f"expected an odd number of critical points, got {c}"
        return free, pairs, {r: MalformedInput(err) for r in range(n)}

    failed = {}
    higher = index[:, :-1] > index[:, 1:]          # the left neighbour is the maximum
    upper = np.where(higher, values[:, :-1], values[:, 1:])
    lower = np.where(higher, values[:, 1:], values[:, :-1])
    alternates = np.abs(index[:, :-1] - index[:, 1:]) == 1
    bad = ~alternates | ~(upper > lower)
    broken = bad.any(axis=1)
    for r in np.flatnonzero(broken).tolist():
        k = int(np.argmax(bad[r]))
        failed[r] = MalformedInput(
            "indices must alternate along xi" if not alternates[r, k] else
            "adjacent maximum does not dominate its neighbor minimum "
            f"({float(upper[r, k])} <= {float(lower[r, k])})")

    rows = np.flatnonzero(~broken)
    if c == 1:
        free[rows] = 0
        return free, pairs, failed
    vals, idx = values[rows], index[rows]
    # rows over three or more index levels, and their tie tolerances
    multi = np.flatnonzero(idx.max(axis=1) - idx.min(axis=1) > 1)
    tol = VALUE_TOL * np.maximum(1.0, np.max(np.abs(vals[multi]), axis=1))
    tied = np.zeros(len(rows), dtype=bool)
    at = np.arange(len(rows))
    alive = np.broadcast_to(np.arange(c), (len(rows), c))
    out = np.empty((len(rows), c // 2, 2), dtype=int)
    for rnd in range(c // 2):
        v, i = vals[at[:, None], alive], idx[at[:, None], alive]
        left_up = i[:, :-1] > i[:, 1:]
        gap = np.where(left_up, v[:, :-1] - v[:, 1:], v[:, 1:] - v[:, :-1])
        if len(multi) and gap.shape[1] > 1:
            least = np.partition(gap[multi], 1, axis=1)
            tied[multi] |= least[:, 1] - least[:, 0] <= tol
        k = np.argmin(gap, axis=1)
        first, second = alive[at, k], alive[at, k + 1]
        up = left_up[at, k]
        out[:, rnd, 0] = np.where(up, first, second)
        out[:, rnd, 1] = np.where(up, second, first)
        keep = np.ones(alive.shape, dtype=bool)
        keep[at, k] = False
        keep[at, k + 1] = False
        alive = alive[keep].reshape(len(rows), c - 2 * rnd - 2)
    free[rows] = alive[:, 0]
    pairs[rows] = out
    for r in rows[tied].tolist():
        failed[r] = NonGeneric("tied coupling gaps over three or more index levels")
        free[r] = -1
        pairs[r] = -1
    return free, pairs, failed
