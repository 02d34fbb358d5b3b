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


def test_nonfinite_detected():
    # dq/dt = exp(q) overflows from q0 = 3 well before t_max
    H = hj.parse("exp(q)*p")
    u0 = hj.parse("q^2")
    spec = hj.ProblemSpec(H=H, u0=u0, domain=hj.Windowed(-1e300, 1e300), t_max=5.0)
    with pytest.raises(NonFinite):
        chars.evolve(spec, 5.0, [3.0], step=0.05)
