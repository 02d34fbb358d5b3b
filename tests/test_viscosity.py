import numpy as np
import pytest

import hjminimax as hj
from hjminimax import viscosity
from hjminimax.errors import MalformedInput, OutOfRange


@pytest.fixture(scope="module")
def quad():
    return viscosity.ConvexHamiltonian(H=hj.parse("p^2/2"), p_window=(-4.0, 4.0))


def test_convexity_certificate(quad):
    w = (-5.0, 5.0)
    assert viscosity.is_convex_in_p(hj.parse("p^2/2"), w)
    assert viscosity.is_convex_in_p(hj.parse("p^4/4 + p^2/2"), w)
    assert not viscosity.is_convex_in_p(hj.parse("cos(p) - 1"), w)
    assert not viscosity.is_convex_in_p(hj.parse("p^2/2 + cos(q)"), w)  # not p-only


def test_convexity_certificate_reads_its_window():
    # H'' = 1 - 3 p^2 / 50 is positive for |p| < 4.08 only
    H = hj.parse("p^2/2 - p^4/200")
    assert viscosity.is_convex_in_p(H, (-4.0, 4.0))
    assert not viscosity.is_convex_in_p(H, (-5.0, 5.0))


def test_convexity_certificate_needs_increasing_slopes():
    # the sine's frequency is 2 pi 2047/8: it aliases away on the 2048
    # second-difference samples of (-4, 4), but H' is not increasing on
    # the TABLE_P samples the conjugate is tabulated on
    H = hj.parse("p^2 + 0.001*sin(1607.7100404745765*p)")
    ps = np.linspace(-4.0, 4.0, viscosity.CONVEXITY_SAMPLES)
    vals = H.eval(p=ps)
    assert np.all(vals[2:] - 2.0 * vals[1:-1] + vals[:-2] > 0)
    assert not viscosity.is_convex_in_p(H, (-4.0, 4.0))
    with pytest.raises(MalformedInput):
        viscosity.ConvexHamiltonian(H=H, p_window=(-4.0, 4.0))


def test_convex_hamiltonian_rejects_nonconvex():
    with pytest.raises(MalformedInput):
        viscosity.ConvexHamiltonian(H=hj.parse("cos(p)"), p_window=(-3, 3))
    with pytest.raises(MalformedInput):
        viscosity.ConvexHamiltonian(H=hj.parse("p^2/2 + q"), p_window=(-3, 3))


def test_lax_oleinik_smooth_regime(quad):
    # before the caustic the variational solution equals the classical one
    u0 = hj.parse("cos(q)")
    q_grid = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    t = 0.5
    u = viscosity.lax_oleinik(quad, u0, t, q_grid)
    for j, q in enumerate(q_grid):
        q0 = q
        for _ in range(60):
            q0 -= (q0 - t * np.sin(q0) - q) / (1 - t * np.cos(q0))
        z = np.cos(q0) + t * np.sin(q0) ** 2 / 2
        assert u[j] == pytest.approx(z, abs=1e-6)


def test_lax_oleinik_zero_time(quad):
    u0 = hj.parse("cos(q)")
    qs = np.linspace(0, 6, 31)
    np.testing.assert_allclose(viscosity.lax_oleinik(quad, u0, 0.0, qs),
                               np.cos(qs), atol=1e-14)


def test_lax_friedrichs_transport():
    # H = c*p advects exactly: u(t,q) = u0(q - c t) up to scheme diffusion
    spec = hj.ProblemSpec(H=hj.parse("0.8*p"), u0=hj.parse("cos(q)"),
                          domain=hj.Periodic(2 * np.pi), t_max=1.0)
    t_grid = np.linspace(0, 1, 9)
    q_grid = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    g = viscosity.lax_friedrichs(spec, t_grid, q_grid)
    exact = np.cos(q_grid - 0.8)
    assert np.abs(g.u[-1] - exact).max() < 0.05


def test_lax_friedrichs_checks_each_steps_speed():
    # theta comes from |H_p| at t = 0, 0.5, ..., 2, where the sine vanishes
    # and |H_p| = 1; between those times it reaches 21, and stepping on
    # past the Courant bound grows max|u| to 9.2e34 by t = 2
    spec = hj.ProblemSpec(H=hj.parse("p*(1 + 20*sin(6.283185307179586*t)^2)"),
                          u0=hj.parse("cos(q)"), domain=hj.Periodic(2 * np.pi), t_max=2.0)
    with pytest.raises(OutOfRange, match=r"^Lax-Friedrichs step at t=0\.0233\d+: "
                       r"max\|H_p\| = 1\.428\d* exceeds theta = 1\.05,"):
        viscosity.lax_friedrichs(spec, np.linspace(0.0, 2.0, 33),
                                 np.linspace(0, 2 * np.pi, 128, endpoint=False))


def test_lax_friedrichs_rows_march_from_zero(burgers_spec):
    # a grid that starts after t = 0 is marched from u0 at t = 0; writing
    # u0 as its first row would put every row 0.5 late, up to 0.239 off
    q_grid = np.linspace(0, 2 * np.pi, 128, endpoint=False)
    late = viscosity.lax_friedrichs(burgers_spec, [0.5, 1.0], q_grid)
    full = viscosity.lax_friedrichs(burgers_spec, [0.0, 0.5, 1.0], q_grid)
    assert np.array_equal(late.u, full.u[1:])


@pytest.mark.parametrize("t_grid, message", [
    ([0.0, 1.0, 0.5], "sorted"),  # its t = 0.5 row was a copy of the t = 1.0 row
    ([-0.5, 0.0, 0.5], "negative"),
])
def test_lax_friedrichs_checks_its_times(burgers_spec, t_grid, message):
    with pytest.raises(ValueError, match=message):
        viscosity.lax_friedrichs(burgers_spec, t_grid, np.linspace(0, 2 * np.pi, 64))


def test_lax_friedrichs_needs_two_abscissae(burgers_spec):
    # the stencil's step is q[1] - q[0]; one abscissa used to raise IndexError
    with pytest.raises(ValueError, match="two abscissae or more"):
        viscosity.lax_friedrichs(burgers_spec, [0.0, 0.5], [1.0])


def test_lax_friedrichs_needs_equal_steps(burgers_spec):
    # q = [0, 1, 3, ...] used to march every point with dq = 1
    with pytest.raises(ValueError, match="equally spaced"):
        viscosity.lax_friedrichs(burgers_spec, [0.0, 0.5], [0.0, 1.0, 3.0, 4.0, 5.0])


def test_lax_oleinik_is_a_grid_row(quad):
    u0 = hj.parse("cos(q) + 0.7*cos(2*q)")
    t_grid = [0.0, 0.4, 1.7, 3.0]
    q_grid = np.linspace(0, 2 * np.pi, 96, endpoint=False)
    g = viscosity.lax_oleinik_grid(quad, u0, t_grid, q_grid)
    for i, t in enumerate(t_grid):
        assert viscosity.lax_oleinik(quad, u0, t, q_grid).tobytes() == g.u[i].tobytes()


def test_lax_friedrichs_matches_lax_oleinik(quad, burgers_spec):
    t_grid = np.linspace(0, 2.0, 17)
    q_grid = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    lf = viscosity.lax_friedrichs(burgers_spec, t_grid, q_grid)
    lo = viscosity.lax_oleinik_grid(quad, burgers_spec.u0, t_grid, q_grid)
    # first-order scheme on a shocked solution: agreement at grid accuracy
    assert np.abs(lf.u - lo.u).max() < 0.12


def test_zero_hamiltonian_all_methods_agree():
    spec = hj.ProblemSpec(H=hj.parse("0*p"), u0=hj.parse("cos(q)"),
                          domain=hj.Periodic(2 * np.pi), t_max=1.0)
    t_grid = np.linspace(0, 1, 5)
    q_grid = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    lf = viscosity.lax_friedrichs(spec, t_grid, q_grid)
    np.testing.assert_allclose(lf.u, np.tile(np.cos(q_grid), (5, 1)), atol=1e-9)
