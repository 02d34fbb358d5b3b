import numpy as np
import pytest

import hjminimax as hj
from hjminimax import characteristics as chars
from hjminimax.errors import NonFinite


def exact_burgers(q0, t):
    """Closed-form characteristics of H=p^2/2, u0=cos q."""
    p = -np.sin(q0)
    q = q0 + t * p
    z = np.cos(q0) + t * np.sin(q0) ** 2 / 2.0
    return q, p, z


def test_rhs_signs():
    H = hj.parse("p^2/2 + 0.3*cos(q)")
    dq, dp, dz = chars.char_rhs(H, 0.0, 0.5, 1.2)
    assert dq == pytest.approx(1.2)
    assert dp == pytest.approx(0.3 * np.sin(0.5))
    assert dz == pytest.approx(1.2 ** 2 - (1.2 ** 2 / 2 + 0.3 * np.cos(0.5)))


def test_burgers_matches_closed_form(burgers_spec):
    seeds = np.linspace(-1.0, 7.0, 200)
    q0, q, p, z = chars.evolve(burgers_spec, 1.5, seeds, step=0.01)
    qe, pe, ze = exact_burgers(q0, 1.5)
    np.testing.assert_allclose(q, qe, atol=1e-12)
    np.testing.assert_allclose(p, pe, atol=1e-12)
    np.testing.assert_allclose(z, ze, atol=1e-12)


@pytest.mark.parametrize("h", ["p^2/2", "exp(p)", "cos(p) - 1"])
def test_closed_form_matches_rk4(h):
    # a p-only H flows in closed form; RK4 is exact on its straight lines
    # up to rounding, so the two agree through every output time
    spec = hj.ProblemSpec(H=hj.parse(h), u0=hj.parse("cos(q)"),
                          domain=hj.Periodic(2 * np.pi), t_max=2.0)
    seeds = np.linspace(-1.0, 7.0, 101)
    times = [0.0, 0.5, 1.25, 2.0]
    Q, P, Z = chars.evolve_states(spec, times, seeds)
    q, p, z = chars.initial_state(spec, seeds)
    t_prev = 0.0
    for k, t in enumerate(times):
        q, p, z = chars._rk4_span(spec, t_prev, t, q, p, z, 0.005)
        t_prev = t
        np.testing.assert_allclose(Q[k], q, rtol=0, atol=1e-12)
        np.testing.assert_allclose(P[k], p, rtol=0, atol=1e-12)
        np.testing.assert_allclose(Z[k], z, rtol=0, atol=1e-12)


def test_rk4_fourth_order():
    # H = q*p flows q -> q0 e^t, p -> p0 e^-t; the truncation error must
    # shrink by ~16x per step halving (>= 8 asserted)
    H = hj.parse("q*p")
    u0 = hj.parse("cos(q)")
    spec = hj.ProblemSpec(H=H, u0=u0, domain=hj.Windowed(-50.0, 50.0), t_max=2.0)
    seeds = np.linspace(0.5, 2.0, 9)
    errs = []
    for step in (0.1, 0.05, 0.025):
        q0, q, p, z = chars.evolve(spec, 2.0, seeds, step=step)
        errs.append(np.max(np.abs(q - q0 * np.exp(2.0))))
    assert errs[0] / errs[1] >= 8.0
    assert errs[1] / errs[2] >= 8.0


@pytest.mark.parametrize("step", [0.0, -0.1, np.inf, np.nan])
def test_step_must_be_positive_and_finite(step):
    # an infinite step would take one RK4 substep per output interval
    spec = hj.ProblemSpec(H=hj.parse("p^2/2 + 0.5*sin(q)*cos(t)"), u0=hj.parse("cos(q)"),
                          domain=hj.Periodic(2 * np.pi), t_max=2.0)
    with pytest.raises(ValueError, match="step must be positive and finite"):
        chars.evolve_states(spec, [1.0, 2.0], [0.0, 1.0], step)


def test_output_times_monotone_required(burgers_spec):
    with pytest.raises(ValueError):
        chars.evolve_states(burgers_spec, [1.0, 0.5], [0.0])
    with pytest.raises(ValueError):
        chars.evolve_states(burgers_spec, [0.0, 5.0], [0.0])


def test_evolve_sorts_seeds_and_matches_states(burgers_spec):
    seeds = np.array([3.0, -1.0, 0.5, 6.0])
    q0, q, p, z = chars.evolve(burgers_spec, 1.5, seeds, step=0.01)
    assert np.array_equal(q0, np.sort(seeds))
    Q, P, Z = chars.evolve_states(burgers_spec, [1.5], q0, 0.01)
    assert np.array_equal(q, Q[0]) and np.array_equal(p, P[0]) and np.array_equal(z, Z[0])


def test_incremental_times_match_direct(burgers_spec):
    # integrating through intermediate outputs must not change the endpoint
    seeds = np.linspace(0.0, 6.0, 16)
    Qa, _, Za = chars.evolve_states(burgers_spec, [3.0], seeds, 0.01)
    Qb, _, Zb = chars.evolve_states(burgers_spec, [1.0, 2.0, 3.0], seeds, 0.01)
    np.testing.assert_allclose(Qa[0], Qb[2], atol=1e-10)
    np.testing.assert_allclose(Za[0], Zb[2], atol=1e-10)


def test_windowed_strands_freeze():
    H = hj.parse("p^2/2")
    u0 = hj.parse("tanh(q)")
    spec = hj.ProblemSpec(H=H, u0=u0, domain=hj.Windowed(-5.0, 5.0), t_max=1.0)
    _, q, _, _ = chars.evolve(spec, 1.0, [-8.0, 0.0, 8.0], step=0.01)
    assert q[0] == -8.0  # outside the window: frozen
    assert q[2] == 8.0
    assert q[1] != 0.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_windowed_strands_stop_at_the_edge(sign):
    # H' = p = 2*sign: the strand from 4*sign meets the edge 5*sign at t = 1/2
    spec = hj.ProblemSpec(H=hj.parse("p^2/2"), u0=hj.parse(f"{sign}*2*q"),
                          domain=hj.Windowed(-5.0, 5.0), t_max=1.0)
    seeds = sign * np.array([4.0, 8.0])
    Q, P, Z = chars.evolve_states(spec, [0.25, 1.0], seeds)
    assert Q[1, 0] == sign * 5.0
    assert Z[1, 0] == 8.0 + 0.5 * 2.0
    assert Q[0, 0] == sign * 4.5
    assert np.all(Q[:, 1] == seeds[1])  # outside the window: never moves
    assert np.all(Z[:, 1] == 16.0)


def test_windowed_rk4_strands_stop_within_a_substep():
    # H reads t, so RK4 flows it: dq/dt = 2(1 + t) meets 5 at t = sqrt(2) - 1
    # and stops there within one substep's travel, at most 0.01*2*(1 + 1)
    spec = hj.ProblemSpec(H=hj.parse("(1 + t)*p^2/2"), u0=hj.parse("2*q"),
                          domain=hj.Windowed(-5.0, 5.0), t_max=1.0)
    Q, _, _ = chars.evolve_states(spec, [0.25, 1.0], [4.0, -8.0], step=0.01)
    assert 5.0 <= Q[1, 0] <= 5.04
    assert Q[0, 0] == pytest.approx(4.0 + 2 * (0.25 + 0.25 ** 2 / 2), abs=1e-12)
    assert np.all(Q[:, 1] == -8.0)


def test_nonfinite_detected_on_the_closed_form():
    # z = u0 + t*p^2/2 reaches 2.5e308 by t = 5 where |sin(q0)| = 1
    spec = hj.ProblemSpec(H=hj.parse("p^2/2"), u0=hj.parse("1e154*cos(q)"),
                          domain=hj.Periodic(2 * np.pi), t_max=5.0)
    with pytest.raises(NonFinite):
        chars.evolve_states(spec, [1.0, 5.0], np.linspace(0.0, 2 * np.pi, 9))


def test_nonfinite_detected():
    # dq/dt = exp(q) overflows from q0 = 3 well before t_max
    H = hj.parse("exp(q)*p")
    u0 = hj.parse("q^2")
    spec = hj.ProblemSpec(H=H, u0=u0, domain=hj.Windowed(-1e300, 1e300), t_max=5.0)
    with pytest.raises(NonFinite):
        chars.evolve(spec, 5.0, [3.0], step=0.05)
