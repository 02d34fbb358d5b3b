"""The array passes of `hjminimax.front` against the scalar loops they replaced."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import front_oracle as oracle
from hjminimax import front as frontmod
from hjminimax import selector
from hjminimax.errors import NonGeneric
from hjminimax.front import Cusp, DoublePoint, FrontCurve, Section, Triangle

# half-integer coordinates: ties between vertices, edges and test points are exact
coord = st.integers(-6, 6).map(lambda k: 0.5 * k)
vertex = st.tuples(coord, coord)
chunk = st.sampled_from([1, 3, 4096])


@st.composite
def polygon_and_points(draw):
    verts = draw(st.lists(vertex, min_size=3, max_size=12))
    qx = np.array([v[0] for v in verts] + [verts[0][0]])
    zx = np.array([v[1] for v in verts] + [verts[0][1]])
    pts = list(verts)                                   # on the vertices
    pts += [(0.5 * (qx[k] + qx[k + 1]), 0.5 * (zx[k] + zx[k + 1]))
            for k in range(len(verts))]                 # on the edges, horizontal ones too
    free = st.floats(-4.0, 4.0, allow_nan=False)
    pts += [(draw(free), z) for z in zx[:-1]]           # at the z of a vertex
    pts += draw(st.lists(st.tuples(free, free), max_size=8))
    return qx, zx, np.array([p[0] for p in pts]), np.array([p[1] for p in pts])


def _with_chunk(elements, fn, *args):
    saved = frontmod.CHUNK_ELEMENTS
    frontmod.CHUNK_ELEMENTS = elements
    try:
        return fn(*args)
    finally:
        frontmod.CHUNK_ELEMENTS = saved


@settings(max_examples=300, deadline=None)
@given(polygon_and_points(), chunk)
def test_point_in_polygon_matches_scalar_loop(case, elements):
    qx, zx, q, z = case
    got = _with_chunk(elements, frontmod._point_in_polygon, qx, zx, q, z)
    expected = [oracle.point_in_polygon(qx, zx, qv, zv) for qv, zv in zip(q, z)]
    assert got.tolist() == expected
    # the on-boundary exemption of rule (i) in `is_vanishing`
    wq, wz = 3.0, 0.5
    near = _with_chunk(elements, frontmod._on_polygon_vertex, qx, zx, q, z, wq, wz)
    assert near.tolist() == [
        bool(np.any((np.abs(qx - qv) / wq < 10 * frontmod.TIE_TOL)
                    & (np.abs(zx - zv) / wz < 10 * frontmod.TIE_TOL)))
        for qv, zv in zip(q, z)]


@st.composite
def float_polygon_and_box_points(draw):
    """A polygon of arbitrary floats, far from q = 0 next to its size, and
    points at and a few ulps around each edge of its box."""
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    verts = draw(st.lists(st.tuples(unit, unit), min_size=3, max_size=10))
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0]))
    shift = draw(st.floats(-1e3, 1e3, allow_nan=False))
    qx = np.array([shift + scale * v[0] for v in verts] + [shift + scale * verts[0][0]])
    zx = np.array([v[1] for v in verts] + [verts[0][1]])
    ulp = np.spacing(np.abs(qx).max())
    near = st.integers(-12, 12)
    step = st.sampled_from([-np.inf, np.inf])
    pts = []
    for k in (int(np.argmin(qx)), int(np.argmax(qx))):
        for _ in range(draw(st.integers(1, 4))):
            # beside the q-extreme vertex, just above, at or below its level
            z = draw(st.sampled_from([zx[k], np.nextafter(zx[k], -np.inf),
                                      np.nextafter(zx[k], np.inf)]))
            pts.append((qx[k] + draw(near) * ulp, z))
            pts.append((np.nextafter(qx[k], draw(step)), z))
    for k in (int(np.argmin(zx)), int(np.argmax(zx))):
        for _ in range(draw(st.integers(1, 3))):
            q = draw(st.just(qx[k]) | st.floats(qx.min(), qx.max()))
            pts.append((q, np.nextafter(zx[k], draw(step))))
            pts.append((q, zx[k]))
    for _ in range(draw(st.integers(0, 6))):
        pts.append((draw(st.floats(qx.min(), qx.max())),
                    draw(st.floats(zx.min(), zx.max()))))
    return qx, zx, np.array([p[0] for p in pts]), np.array([p[1] for p in pts])


def _loop_front(qx, zx, qv, zv):
    """A front whose one outside vertex (qv, zv) precedes a triangle's loop
    around the polygon (qx, zx), its vertex at the polygon's first corner."""
    n = len(qx) - 1
    f = FrontCurve(time=1.0, q=np.r_[qv, qx[1:-1]], z=np.r_[zv, zx[1:-1]],
                   p=np.zeros(n), q0=np.arange(n, dtype=float))
    d = DoublePoint(q=qx[0], z=zx[0], sections=(0, 0), homogeneous=True,
                    seg_a=0, frac_a=0.5, seg_b=n - 1)
    return f, Triangle(vertex=d, start_seg=0, end_seg=n - 1, loop_sections=(0,),
                       branch_index=0)


@settings(max_examples=300, deadline=None)
@given(float_polygon_and_box_points(), chunk)
def test_box_filter_matches_scalar_loop(case, elements):
    qx, zx, q, z = case
    got = _with_chunk(elements, frontmod._point_in_polygon, qx, zx, q, z)
    assert got.tolist() == [oracle.point_in_polygon(qx, zx, qv, zv) for qv, zv in zip(q, z)]
    for qv, zv in zip(q, z):
        f, T = _loop_front(qx, zx, qv, zv)
        # a front narrower than a normal float overflows both tie tests alike
        with np.errstate(over="ignore"):
            assert frontmod.is_vanishing(f, T, (), []) == oracle.is_vanishing(f, T, (), [])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NonGeneric as e:
        return f"NonGeneric: {e}"


# unit and doubled steps: walks retrace, overlap collinearly and meet end to
# end, so both transversal crossings and tangential NonGeneric pairs come up
step = st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1),
                        (2, 0), (0, -2), (-2, -2), (2, 1), (-1, 2), (3, -2)])


def _walk(steps):
    """The lattice walk from (0, 0) as a front with one section."""
    qz = np.cumsum(np.array([(0, 0)] + steps, dtype=float), axis=0)
    f = FrontCurve(time=0.0, q=qz[:, 0], z=qz[:, 1], p=np.zeros(len(qz)),
                   q0=np.arange(len(qz), dtype=float))
    return f, (Section(id=0, start=0, end=len(qz) - 1, index=0, kind="noncompact"),)


@settings(max_examples=300, deadline=None)
@given(st.lists(step, min_size=2, max_size=40))
# the walk closes onto its first segment from behind, end to end and collinear
@example([(2, 0), (0, 1), (-1, 0), (-1, 0), (-1, 0), (0, -1), (1, 0)])
def test_double_points_match_pairwise_loop(steps):
    f, sections = _walk(steps)
    assert (_outcome(frontmod.double_points, f, sections, ())
            == _outcome(oracle.double_points, f, sections, ()))


def test_collinear_segments_apart_do_not_cross():
    # segments 0 and 2 lie on one line, a unit gap apart
    f, sections = _walk([(0, -2), (0, -1), (0, -2)])
    assert frontmod.double_points(f, sections, ()) == []


def test_collinear_segments_meeting_end_to_end_are_tangential():
    # segment 2 runs back onto the end of segment 0, touching it at (1, 0)
    f, sections = _walk([(1, 0), (1, 0), (-1, 0)])
    with pytest.raises(NonGeneric, match="tangential"):
        frontmod.double_points(f, sections, ())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(vertex, st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))),
                min_size=2, max_size=40))
def test_box_pairs_match_all_pairs_test(verts):
    pts = np.array(verts, dtype=float)
    i, j = frontmod._box_pairs(pts)
    assert sorted(zip(i.tolist(), j.tolist())) == oracle.box_pairs(pts)


@pytest.fixture(scope="module")
def two_hump_front_t20(two_hump_spec):
    """Analyzed two-hump front at t=2.0: overlapping swallowtails."""
    seeds = selector.default_seeds(two_hump_spec, 600, t=2.0)
    return selector.slice_analysis(two_hump_spec, 2.0, seeds, step=0.005)


@pytest.mark.parametrize("front_fixture, surgeries", [
    ("burgers_front_t15", 2),
    ("two_hump_front_t20", 5),
])
def test_eliminate_rounds_match_oracles(front_fixture, surgeries, request, monkeypatch):
    analysis = request.getfixturevalue(front_fixture)
    calls = Counter()

    def checked(name, oracle_fn):
        fn = getattr(frontmod, name)

        def wrapper(*args):
            expected = _outcome(oracle_fn, *args)
            got = _outcome(fn, *args)
            assert got == expected, name
            calls[name] += 1
            if isinstance(got, str):
                raise NonGeneric(got)
            return got
        monkeypatch.setattr(frontmod, name, wrapper)

    checked("is_vanishing", oracle.is_vanishing)
    checked("double_points", oracle.double_points)
    checked("default_ball_radius", oracle.default_ball_radius)
    smooth, log = selector.eliminate(analysis.front)
    assert len(log) == surgeries
    assert calls["double_points"] == surgeries + 1  # one analysis per round
    assert calls["default_ball_radius"] == surgeries
    assert calls["is_vanishing"] >= surgeries - sum(not s.strict for s in log)


def _assert_cusps_match_oracle(f):
    """Same cusp vertices and signs as the polyfit oracle, positions within
    1e-12 (bbox-scaled); returns the cusps."""
    got, expected = frontmod.detect_cusps(f), oracle.detect_cusps(f)
    assert [(c.vertex, c.sign) for c in got] == [(c.vertex, c.sign) for c in expected]
    wq, wz = f.bbox_scale()
    for g, e in zip(got, expected):
        assert abs(g.q - e.q) / wq <= 1e-12 and abs(g.z - e.z) / wz <= 1e-12
    return got


@pytest.mark.parametrize("front_fixture, n_cusps", [
    ("burgers_front_t15", 4),
    ("two_hump_front_t20", 10),
])
def test_detect_cusps_matches_polyfit_oracle(front_fixture, n_cusps, request, monkeypatch):
    f = request.getfixturevalue(front_fixture).front

    def no_polyfit(*args, **kwargs):
        raise AssertionError("detect_cusps called np.polyfit")
    monkeypatch.setattr(np, "polyfit", no_polyfit)
    got = frontmod.detect_cusps(f)
    monkeypatch.undo()
    assert len(got) == n_cusps
    assert _assert_cusps_match_oracle(f) == got


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 30).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.25, 4.0), min_size=n - 1, max_size=n - 1),
    st.lists(st.integers(-8, 8), min_size=n, max_size=n),
    st.lists(st.integers(-8, 8), min_size=n, max_size=n),
    st.lists(st.integers(-3, 3), min_size=n, max_size=n))))
def test_detect_cusps_matches_polyfit_oracle_on_random_polylines(data):
    steps, q, z, p = data
    f = FrontCurve(time=1.0, q0=np.cumsum([0.0] + steps), q=0.5 * np.array(q, dtype=float),
                   z=0.5 * np.array(z, dtype=float), p=np.array(p, dtype=float))
    _assert_cusps_match_oracle(f)


def test_detect_cusps_at_a_corner_sharing_its_neighbours_q0():
    # a corner vertex (origin -1) with the q0 of its neighbour: both
    # reversals next to it have coincident q0 and stay at their vertices
    f = FrontCurve(time=1.0, q0=np.array([0.0, 1.0, 1.0, 2.0, 3.0]),
                   q=np.array([0.0, 1.0, 0.5, 1.5, 2.5]),
                   z=np.array([0.0, 0.3, 0.2, 0.7, 0.9]),
                   p=np.array([0.0, 1.0, 2.0, 1.0, 0.0]),
                   origin=np.array([0, 1, -1, 2, 3]))
    cusps = _assert_cusps_match_oracle(f)
    assert [(c.vertex, c.q, c.z) for c in cusps] == [(1, 1.0, 0.3), (2, 0.5, 0.2)]


def test_detect_cusps_on_an_exactly_flat_quadratic():
    # q0 folding back puts the three vertices of the reversal on one line in
    # (q0, q): a == 0, and the cusp stays at its vertex. The least-squares
    # fit misses the exact zero (a ~ -1.7e-16) and clips to q = 1.
    f = FrontCurve(time=1.0, q0=np.array([0.0, 2.0, 1.0]), q=np.array([-2.0, 0.0, -1.0]),
                   z=np.array([1.0, 3.0, 0.5]), p=np.array([0.0, 1.0, 2.0]))
    assert frontmod.detect_cusps(f) == [Cusp(q=0.0, z=3.0, sign=-1, vertex=1)]
