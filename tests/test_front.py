import numpy as np
import pytest

from hjminimax import front as frontmod
from hjminimax.errors import BallTooLarge, NonGeneric, NotLong
from hjminimax.front import FrontCurve


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
    assert len(T.cusps) == 2
    assert T.vertex is a.doubles[0]
    assert frontmod.is_vanishing(a.front, T, a.sections, a.doubles)


def test_not_long_rejected():
    # q(q0) = -q0^2 folds back at the right end: not graph-like there
    q0 = np.linspace(-1, 1, 101)
    zero = np.zeros_like(q0)
    with pytest.raises(NotLong):
        frontmod.build_front(q0, -q0 * q0, zero, zero, time=0.0)


def test_vertical_tangency_is_nongeneric():
    # t=1 exactly: dq/dq0 vanishes at q0=0 without a sign change
    f = fish_front(t=1.0, n=4001)
    with pytest.raises(NonGeneric):
        frontmod.analyze(f)
    # cusp detection alone does not reject the slice
    assert sum(c.sign for c in frontmod.detect_cusps(f)) == 0


def test_surgery_removes_triangle():
    f = fish_front()
    a = frontmod.analyze(f)
    T = a.triangles[0]
    g, _ = frontmod.remove_triangle(f, T, frontmod.default_ball_radius(f, T))
    a2 = frontmod.analyze(g)
    assert a2.cusps == () and a2.doubles == ()
    assert np.all(np.diff(g.q) > 0)
    # synthetic blend vertices are marked
    assert np.any(g.origin == -1)
    assert np.all(np.isfinite(g.q0))


def test_surgery_preserves_front_outside_ball():
    f = fish_front()
    a = frontmod.analyze(f)
    T = a.triangles[0]
    radius = frontmod.default_ball_radius(f, T)
    g, (q_lo, q_hi) = frontmod.remove_triangle(f, T, radius)
    assert q_lo < T.vertex.q < q_hi
    wq, wz = f.bbox_scale()
    # vertices off the loop and outside the ball must be bitwise retained
    idx = np.arange(len(f))
    off_loop = (idx <= T.start_seg) | (idx > T.end_seg)
    far = np.abs(f.q / wq - T.vertex.q / wq) > 4 * radius
    kept_q = set(np.round(g.q[g.origin >= 0], 12))
    assert set(np.round(f.q[off_loop & far], 12)) <= kept_q


def test_surgery_ball_too_large():
    f = fish_front()
    a = frontmod.analyze(f)
    with pytest.raises(BallTooLarge):
        frontmod.remove_triangle(f, a.triangles[0], ball_radius=10.0)


def test_double_point_blocks_vanishing():
    # a second front copy crossing the loop must block the vanishing rule:
    # build a 5-cusp front by superposing a deeper fold inside the fish loop
    f = fish_front()
    a = frontmod.analyze(f)
    T = a.triangles[0]
    # fabricate an outside vertex strictly inside the loop polygon
    qx, zx = frontmod._loop_polygon(f, T)
    q_in = float(T.vertex.q)
    z_in = float(T.vertex.z) + 0.55 * (max(zx) - float(T.vertex.z))
    assert frontmod._point_in_polygon(qx, zx, np.array([q_in]), np.array([z_in]))[0]


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
