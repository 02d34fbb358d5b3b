"""`selector.eliminate` and `coupled_triangles` against the loop that tests
every triangle on its own."""

import numpy as np
import pytest

import elimination_oracle as oracle
import hjminimax as hj
from hjminimax import selector
from hjminimax.errors import HJError
from hjminimax.front import DoublePoint, Triangle

TWO_PI = 2.0 * np.pi

# (u0, t, seeds) with H = p^2/2: overlapping swallowtails, several of whose
# surgeries go through the smallest-loop fallback
EXTRA_SLICES = [
    ("cos(q) + 0.7*cos(2*q)", 2.8, 1600),
    ("cos(q) + 0.7*cos(2*q)", 1.2, 800),
    ("cos(q)", 2.5, 800),
    ("cos(q) + 0.5*sin(3*q)", 1.5, 1200),
]


def _slice(u0, t, n):
    spec = hj.ProblemSpec(H=hj.parse("p^2/2"), u0=hj.parse(u0),
                          domain=hj.Periodic(TWO_PI), t_max=3.0)
    return selector.slice_analysis(spec, t, selector.default_seeds(spec, n, t=t), step=0.005)


def _outcome(eliminate, front):
    try:
        return eliminate(front)
    except HJError as exc:
        return type(exc), str(exc)


def _assert_same_elimination(front):
    expected, got = _outcome(oracle.eliminate, front), _outcome(selector.eliminate, front)
    if isinstance(expected[0], type):
        assert got == expected
        return 0
    (want, want_log), (have, have_log) = expected, got
    assert have_log == want_log
    assert have.time == want.time
    for name in ("q", "z", "p", "q0", "origin"):
        assert getattr(have, name).tobytes() == getattr(want, name).tobytes(), name
    return sum(not s.strict for s in want_log)


def _assert_same_verdicts(analysis):
    tris = list(analysis.triangles)
    expected = [oracle.triangle_is_coupled(analysis, T) for T in tris]
    assert selector.coupled_triangles(analysis, tris) == expected
    assert [selector.triangle_is_coupled(analysis, T) for T in tris] == expected
    # every probe twice, at equal abscissae, and the triangles in reverse
    assert selector.coupled_triangles(analysis, tris + tris) == expected + expected
    assert selector.coupled_triangles(analysis, tris[::-1]) == expected[::-1]


def test_slice_suite_eliminates_as_the_oracle(slice_suite):
    nonstrict = 0
    for analysis in slice_suite.values():
        _assert_same_verdicts(analysis)
        nonstrict += _assert_same_elimination(analysis.front)
    assert nonstrict > 0  # the fallback ran


@pytest.mark.parametrize("u0, t, n", EXTRA_SLICES)
def test_overlapping_swallowtails_eliminate_as_the_oracle(u0, t, n):
    analysis = _slice(u0, t, n)
    assert analysis.triangles
    _assert_same_verdicts(analysis)
    _assert_same_elimination(analysis.front)


def test_verdicts_on_arbitrary_loops_match_the_oracle(slice_suite):
    # loops from any double point and segment range, not only the front's
    # triangles: their five probes often disagree, so the probe order counts
    analysis = slice_suite[("two_hump", 2.8)]
    f = analysis.front
    rng = np.random.default_rng(7)
    loops = []
    for _ in range(300):
        a = int(rng.integers(0, len(f) - 3))
        b = int(rng.integers(a + 2, min(len(f) - 1, a + 400)))
        d = DoublePoint(q=float(f.q[a]), z=float(f.z[a]), sections=(0, 0),
                        homogeneous=True, seg_a=a, frac_a=0.5, seg_b=b)
        loops.append(Triangle(vertex=d, start_seg=a, end_seg=b, loop_sections=(),
                              branch_index=0))
    expected = [oracle.triangle_is_coupled(analysis, T) for T in loops]
    assert 0 < sum(expected) < len(expected)
    assert selector.coupled_triangles(analysis, loops) == expected


def test_coupled_triangles_of_no_triangles(burgers_front_t15):
    assert selector.coupled_triangles(burgers_front_t15, []) == []
