import numpy as np
import pytest

import front_oracle as oracle
from hjminimax import front as frontmod
from hjminimax.errors import NonGeneric, NotLong
from hjminimax.front import DoublePoint, FrontCurve


def fish_front(t=1.5, n=3001, half_width=np.pi):
    """Single swallowtail of H=p^2/2, u0=cos q from the closed form."""
    q0 = np.linspace(-half_width, half_width, n)
    p = -np.sin(q0)
    q = q0 + t * p
    z = np.cos(q0) + t * np.sin(q0) ** 2 / 2.0
    return FrontCurve(time=t, q=q, z=z, p=p, q0=q0)


def test_smooth_front_has_no_features():
    f = fish_front(t=0.5)
    a = frontmod.analyze(f)
    assert a.cusps == () and a.doubles == () and a.triangles == ()
    assert len(a.sections) == 1
    assert a.sections[0].index == 0


def test_fish_cusp_pair():
    a = frontmod.analyze(fish_front())
    assert len(a.cusps) == 2
    signs = sorted(c.sign for c in a.cusps)
    assert signs == [-1, 1]
    # closed-form cusp: q0* = +-acos(1/t), q* = -+(q0* - t sin q0*)
    q0s = np.arccos(1.0 / 1.5)
    qc = q0s - 1.5 * np.sin(q0s)
    for c in a.cusps:
        assert abs(c.q) == pytest.approx(abs(qc), abs=1e-4)


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)])
def test_cusp_sign_of_the_normal_form(a, b):
    # q = a s^2, p = b s and dz = p dq: the branches differ by
    # z(s) - z(-s) = (4/3) a b s^3, so the traversal passes onto the upper
    # branch exactly when a b > 0
    s = np.linspace(-1.0, 1.0, 21)
    f = FrontCurve(time=1.0, q=a * s ** 2, z=2.0 / 3.0 * a * b * s ** 3, p=b * s, q0=s)
    (c,) = frontmod.detect_cusps(f)
    assert c.vertex == 10
    assert c.sign == (1 if a * b > 0 else -1)


def test_fish_sections_and_indices():
    a = frontmod.analyze(fish_front())
    assert len(a.sections) == len(a.cusps) + 1 == 3
    assert [s.index for s in a.sections] == [0, 1, 0]
    assert [s.kind for s in a.sections] == ["noncompact", "compact", "noncompact"]


@pytest.mark.parametrize("which", ["fish", "burgers_front_t15"])
def test_every_segment_maps_to_its_section(which, request):
    a = frontmod.analyze(fish_front()) if which == "fish" \
        else request.getfixturevalue(which)
    for s in range(len(a.front) - 1):
        owners = [sec for sec in a.sections if sec.start <= s < sec.end]
        assert owners == [frontmod._section_of_segment(a.sections, s)]


def test_fish_double_point_homogeneous():
    a = frontmod.analyze(fish_front())
    assert len(a.doubles) == 1
    d = a.doubles[0]
    assert d.homogeneous
    assert d.q == pytest.approx(0.0, abs=1e-6)
    assert set(d.sections) == {0, 2}  # the two index-0 branches cross


def test_fish_triangle():
    a = frontmod.analyze(fish_front())
    assert len(a.triangles) == 1
    T = a.triangles[0]
    assert T.branch_index == 0
    assert sum(T.start_seg < c.vertex <= T.end_seg for c in a.cusps) == 2
    assert T.vertex is a.doubles[0]
    assert frontmod.is_vanishing(a.front, T, a.sections, a.doubles)


def test_not_long_rejected():
    # q(q0) = -q0^2 folds back at the right end: not graph-like there
    q0 = np.linspace(-1, 1, 101)
    zero = np.zeros_like(q0)
    with pytest.raises(NotLong):
        frontmod.build_front(q0, -q0 * q0, zero, zero, time=0.0)


def _oriented(f, orientation):
    """f traversed toward +q (orientation 1) or, mirrored, toward -q."""
    return FrontCurve(time=f.time, q=orientation * f.q, z=f.z,
                      p=orientation * f.p, q0=f.q0)


@pytest.mark.parametrize("orientation", [1.0, -1.0])
def test_vertical_inflection_stands(orientation):
    # t=1 exactly: dq/dq0 vanishes at q0=0 without a sign change, the shock
    # birth's vertical inflection; the slice is a front without cusps
    a = frontmod.analyze(_oriented(fish_front(t=1.0, n=4001), orientation))
    assert a.cusps == () and a.doubles == ()
    assert len(a.sections) == 1


@pytest.mark.parametrize("orientation", [1.0, -1.0])
def test_fold_inside_one_cell_is_nongeneric(orientation):
    # just past t=1 the cusp pair spans 2*sqrt(2e-7) = 6.3e-4 in q0, inside
    # the one cell of width 2*pi/3999 = 1.6e-3 around q0=0, so dq/dq0 keeps
    # its sign on every cell; the cubic through the cell's four vertices
    # dips to a slope of 1 - t = -5e-8 against the front's direction
    f = _oriented(fish_front(t=1.0 + 5e-8, n=4000), orientation)
    assert np.all(orientation * np.diff(f.q) > 0)
    with pytest.raises(NonGeneric, match="more seeds resolve it"):
        frontmod.analyze(f)


def test_surgery_removes_triangle():
    f = fish_front()
    a = frontmod.analyze(f)
    T = a.triangles[0]
    g, _ = frontmod.remove_triangle(f, T)
    a2 = frontmod.analyze(g)
    assert a2.cusps == () and a2.doubles == ()
    assert np.all(np.diff(g.q) > 0)
    # the synthetic corner vertex is marked
    assert np.any(g.origin == -1)
    assert np.all(np.isfinite(g.q0))


@pytest.mark.parametrize("which", ["fish", "burgers_front_t15"])
def test_surgery_keeps_every_vertex_off_the_loop(which, request):
    a = frontmod.analyze(fish_front()) if which == "fish" \
        else request.getfixturevalue(which)
    f = a.front
    T = a.triangles[0]
    d = T.vertex
    g, (q_lo, q_hi) = frontmod.remove_triangle(f, T)
    assert q_lo < d.q < q_hi
    # one corner vertex at the double point, every off-loop vertex bit for bit
    (k,) = np.flatnonzero(g.origin == -1)
    assert k == T.start_seg + 1
    assert (g.q[k], g.z[k]) == (d.q, d.z)
    off_loop = np.r_[0:T.start_seg + 1, T.end_seg + 1:len(f)]
    kept = np.r_[0:k, k + 1:len(g)]
    for x, y in ((f.q, g.q), (f.z, g.z), (f.p, g.p), (f.q0, g.q0), (f.origin, g.origin)):
        assert np.array_equal(x[off_loop], y[kept])


def test_double_point_blocks_vanishing():
    # rule (i): an outside vertex strictly inside the loop polygon blocks
    f = fish_front()
    a = frontmod.analyze(f)
    T = a.triangles[0]
    qx, zx = frontmod._loop_polygon(f, T)
    q_in = float(T.vertex.q)
    z_in = float(T.vertex.z) + 0.55 * (max(zx) - float(T.vertex.z))
    assert frontmod._point_in_polygon(qx, zx, np.array([q_in]), np.array([z_in]))[0]
    assert frontmod.is_vanishing(f, T, a.sections, a.doubles)
    q, z = f.q.copy(), f.z.copy()
    q[5], z[5] = q_in, z_in  # a vertex of the left noncompact section
    g = FrontCurve(time=f.time, q=q, z=z, p=f.p, q0=f.q0)
    assert not frontmod.is_vanishing(g, T, a.sections, a.doubles)
    assert not oracle.is_vanishing(g, T, a.sections, a.doubles)


# Burgers at t=1.5 carries two swallowtails: sections 0..4 of indices
# 0, 1, 0, 1, 0, triangle 0 looping over sections (0, 1, 2) and triangle 1
# over (2, 3, 4), both of branch index 0. Each case links a segment of
# section `loop_sec` on the triangle's loop to one of section `out_sec`.
@pytest.mark.parametrize("tri, loop_sec, out_sec, homogeneous, vanishing", [
    (0, 1, 3, True, False),   # (ii) homogeneous, with a section off the loop
    (1, 3, 1, True, False),
    (0, 1, 4, False, False),  # (iii) a section of the branch index off the loop
    (1, 3, 0, False, False),
    (0, 1, 2, True, True),    # the loop's own section 2, past the vertex
    (0, 2, 3, False, True),   # index 1 off the loop, not homogeneous
])
def test_arc_crossings_block_vanishing(burgers_front_t15, tri, loop_sec,
                                       out_sec, homogeneous, vanishing):
    a = burgers_front_t15
    T = a.triangles[tri]
    assert [s.index for s in a.sections] == [0, 1, 0, 1, 0]
    assert T.loop_sections == ((0, 1, 2), (2, 3, 4))[tri]
    assert frontmod.is_vanishing(a.front, T, a.sections, a.doubles)

    def segment(sec, on_loop):
        """The middle one of section sec's segments on (or off) the loop."""
        segs = np.arange(a.sections[sec].start, a.sections[sec].end)
        segs = segs[((T.start_seg < segs) & (segs < T.end_seg)) == on_loop]
        return int(segs[len(segs) // 2])

    seg_a, seg_b = sorted((segment(loop_sec, True), segment(out_sec, False)))
    d = DoublePoint(q=0.0, z=0.0, sections=(-1, -1), homogeneous=homogeneous,
                    seg_a=seg_a, frac_a=0.5, seg_b=seg_b)
    doubles = a.doubles + (d,)
    assert frontmod.is_vanishing(a.front, T, a.sections, doubles) is vanishing
    assert oracle.is_vanishing(a.front, T, a.sections, doubles) is vanishing


def test_front_json_schema(burgers_front_t15):
    import json
    payload = json.loads(frontmod.front_to_json(burgers_front_t15))
    assert set(payload) == {"time", "vertices", "cusps", "sections",
                            "double_points", "triangles"}
    assert len(payload["vertices"]) == len(burgers_front_t15.front)
    for s in payload["sections"]:
        assert s["index"] in (0, 1)


def test_periodic_slice_has_copies(burgers_front_t15):
    # seeds overhang the period: the slice carries both swallowtail copies
    a = burgers_front_t15
    assert len(a.cusps) == 4
    assert len([d for d in a.doubles if d.homogeneous]) == 2
    assert len(a.triangles) == 2
