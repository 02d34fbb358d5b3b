import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morse_oracle
from hjminimax import morse1d
from hjminimax.errors import MalformedInput, NonGeneric
from morse_oracle import FiberFunction


def couple(pts):
    """morse1d.couple on the values and indices of oracle critical points."""
    return morse1d.couple([p.value for p in pts], [p.index for p in pts])


def cubic(eps=1.0):
    """f(xi) = xi^3 - eps*xi: one max, one min for eps > 0."""
    return FiberFunction(values=lambda x: x ** 3 - eps * x,
                         window=(-2.0, 2.0), infinity_index=0)


def random_fiber(seed, n_modes=4, window=4.0):
    """Quadratic bowl plus a few low-frequency bumps; generic for almost
    every seed."""
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.2, 1.0, n_modes) / (np.arange(1, n_modes + 1) ** 2)
    phases = rng.uniform(0, 2 * math.pi, n_modes)
    sign = 1.0

    def values(x):
        s = 0.5 * x * x
        for k in range(n_modes):
            s += amps[k] * math.sin((k + 1) * x + phases[k])
        return sign * s

    return FiberFunction(values=values, window=(-window, window), infinity_index=0)


def test_critical_points_cubic():
    pts = morse_oracle.critical_points(cubic(), resolution=512)
    assert len(pts) == 2
    mx, mn = pts
    assert mx.index == 1 and mn.index == 0
    r = 1.0 / math.sqrt(3.0)
    assert mx.xi == pytest.approx(-r, abs=1e-6)
    assert mn.xi == pytest.approx(+r, abs=1e-6)
    assert mx.value == pytest.approx(2 * r ** 3, abs=1e-9)


def test_couple_single_point():
    assert morse1d.couple([-1.0], [0]) == (0, [])


def test_couple_zigzag_five_points():
    # values: min 0.0, max 2.0, min 1.0, max 3.0, min 0.5
    values = [0.0, 2.0, 1.0, 3.0, 0.5]
    free, pairs = morse1d.couple(values, [0, 1, 0, 1, 0])
    assert len(pairs) == 2
    # smallest gap 1.0 between (2.0, 1.0), then (3.0, 0.5)
    assert pairs[0] == (1, 2)
    assert pairs[1] == (3, 4)
    assert free == 0
    assert values[free] == 0.0


def test_couple_relinks_after_removal():
    # removing the middle pair must couple the outer max with the far min
    free, pairs = morse1d.couple([0.0, 5.0, 4.0, 4.5, -1.0], [0, 1, 0, 1, 0])
    assert pairs[0] == (3, 2)     # gap 0.5 first
    assert pairs[1] == (1, 0)     # relinked gap 5.0
    assert free == 4


def test_couple_rejects_even_count():
    with pytest.raises(MalformedInput):
        morse1d.couple([0.0, 1.0], [0, 1])


def test_couple_rejects_nonalternating():
    with pytest.raises(MalformedInput):
        morse1d.couple([0.0, 1.0, 2.0], [0, 0, 0])


def test_couple_two_level_tie_goes_to_first_pair():
    # every gap is 1: the first pair along the fiber goes first each round
    values = [0.0, 1.0, 0.0, 1.0, 0.0]
    free, _ = morse1d.couple(values, [0, 1, 0, 1, 0])
    assert free == 4
    assert values[free] == 0.0


def test_couple_three_level_tie_raises_nongeneric():
    # gaps 1, 3, 1, 4: taking the first tied pair leaves free value 4,
    # taking the second leaves 3
    with pytest.raises(NonGeneric):
        morse1d.couple([3.0, 4.0, 1.0, 0.0, 4.0], [0, 1, 0, -1, 0])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1), st.integers(1, 4).flatmap(
    lambda m: st.tuples(st.lists(st.integers(0, 3), min_size=m + 1, max_size=m + 1),
                        st.lists(st.integers(1, 3), min_size=m, max_size=m))),
       st.randoms(use_true_random=False))
def test_couple_two_level_free_value_ignores_ties(end_level, levels, rnd):
    # the end points sit on one level, the points between them on the other;
    # small integer values make tied gaps common
    ends, rises = levels
    sign = 1 - 2 * end_level      # an upper end level is a mirrored lower one
    values = []
    for k, e in enumerate(ends):
        values.append(sign * e)
        if k < len(rises):
            values.append(sign * (max(e, ends[k + 1]) + rises[k]))
    indices = [end_level if k % 2 == 0 else 1 - end_level for k in range(len(values))]

    def free_value(vals):
        vals = [float(v) for v in vals]
        return vals[morse1d.couple(vals, indices)[0]]

    tied = free_value(values)
    assert tied == (min(values[::2]) if end_level == 0 else max(values[::2]))
    for _ in range(5):
        bumped = [v + rnd.uniform(-5e-10, 5e-10) for v in values]
        assert tied == pytest.approx(free_value(bumped), abs=1e-9)


def _outcome(fn, values, index):
    """What `fn(values, index)` returns, or the type and message it raises."""
    try:
        return fn(values, index)
    except (MalformedInput, NonGeneric) as exc:
        return type(exc), str(exc)


@st.composite
def coupling_row(draw, c):
    """c critical points over two or three index levels, their values from a
    small set so that gaps tie; some rows break alternation or dominance."""
    levels = draw(st.sampled_from([(0, 1), (-1, 0, 1)]))
    index = [draw(st.sampled_from(levels))]
    for _ in range(c - 1):
        index.append(draw(st.sampled_from(
            [i for i in (index[-1] - 1, index[-1] + 1) if i in levels])))
    if c > 1 and draw(st.integers(0, 5)) == 0:
        k = draw(st.integers(1, c - 1))
        index[k] = index[k - 1]
    # 2*index + {0, 1, 2}: a maximum dominates its minimum unless they meet at 2
    values = [float(2 * i + draw(st.integers(0, 2))) for i in index]
    return values, index


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 3, 5, 7, 9]).flatmap(
    lambda c: st.lists(coupling_row(c), min_size=1, max_size=6)))
def test_couple_rows_matches_scalar_loop(rows):
    values = np.array([v for v, _ in rows])
    index = np.array([i for _, i in rows])
    free, pairs, failed = morse1d.couple_rows(values, index)
    for r, (vals, idx) in enumerate(rows):
        expected = _outcome(morse_oracle.couple, vals, idx)
        if r in failed:
            got = type(failed[r]), str(failed[r])
            assert free[r] == -1 and np.all(pairs[r] == -1)
        else:
            got = int(free[r]), [tuple(p) for p in pairs[r].tolist()]
        assert got == expected, r
        # the same row alone, through couple_rows and through couple
        alone = morse1d.couple_rows(values[r:r + 1], index[r:r + 1])
        assert np.array_equal(alone[0], free[r:r + 1])
        assert np.array_equal(alone[1], pairs[r:r + 1])
        assert [(type(e), str(e)) for e in alone[2].values()] == \
            ([got] if r in failed else [])
        assert _outcome(morse1d.couple, vals, idx) == expected


def test_couple_rows_even_count_fails_every_row():
    free, pairs, failed = morse1d.couple_rows(np.zeros((3, 4)), np.zeros((3, 4), dtype=int))
    assert free.tolist() == [-1, -1, -1]
    assert sorted(failed) == [0, 1, 2]
    assert all(isinstance(e, MalformedInput) for e in failed.values())
    assert str(failed[1]) == "expected an odd number of critical points, got 4"


def double_well(x):
    """Tilted double well, rising at both window ends."""
    return x ** 4 / 4 - x ** 2 + 0.05 * x


def test_persistence_oracle_double_well():
    f = FiberFunction(values=double_well, window=(-3.0, 3.0), infinity_index=0)
    res = morse_oracle.persistence_pairs(f)
    pts = morse_oracle.critical_points(f, resolution=1024)
    free, _ = couple(pts)
    # the essential class is the deeper (left) minimum; the shallow min pairs
    # with the hump
    assert res.free_xi < 0
    assert res.value == pytest.approx(pts[free].value, abs=1e-5)
    assert len(res.pairs) == 1


def test_minimax_bowl_down():
    # bowl-down at infinity: the minimax is the essential maximum
    f = FiberFunction(values=lambda x: -double_well(x), window=(-3.0, 3.0),
                      infinity_index=1)
    pts = morse_oracle.critical_points(f, resolution=1024)
    free, _ = couple(pts)
    v = morse_oracle.persistence_pairs(f).value
    assert v == pytest.approx(pts[free].value, abs=1e-5)
    assert v > 0


def test_greedy_equals_persistence_on_random_fibers():
    hits = 0
    for seed in range(60):
        f = random_fiber(seed)
        try:
            pts = morse_oracle.critical_points(f, resolution=512)
            free, _ = couple(pts)
        except NonGeneric:
            f = morse_oracle.perturbed(f, seed)
            pts = morse_oracle.critical_points(f, resolution=512)
            free, _ = couple(pts)
        res = morse_oracle.persistence_pairs(f, resolution=2048)
        assert pts[free].value == pytest.approx(res.value, abs=1e-5)
        assert pts[free].xi == pytest.approx(res.free_xi, abs=8.0 / 1024)
        hits += 1
    assert hits == 60


def test_perturbation_stability():
    """A generic decomposition is stable under the deterministic bump."""
    f = random_fiber(3)
    pts = morse_oracle.critical_points(f, resolution=512)
    free, pairs = couple(pts)
    g = morse_oracle.perturbed(f, seed=11)
    pts2 = morse_oracle.critical_points(g, resolution=512)
    free2, pairs2 = couple(pts2)
    assert len(pairs) == len(pairs2)
    assert pts[free].xi == pytest.approx(pts2[free2].xi, abs=1e-4)
