"""The in-place RK4 stages of `hjminimax.characteristics` against the
out-of-place arithmetic they replaced (`rk4_oracle`)."""

import numpy as np
import pytest

import hjminimax as hj
import rk4_oracle as oracle
from hjminimax import characteristics as chars

_CASES = {
    # the qflow benchmark's H on its periodic domain, 64 output times, at
    # the step `default_step()` gives it
    "qflow": (hj.ProblemSpec(H=hj.parse("p^2/2 + 0.5*sin(q)*cos(t)"), u0=hj.parse("cos(q)"),
                             domain=hj.Periodic(2 * np.pi), t_max=2.0),
              np.linspace(0.0, 2.0, 64), np.linspace(-1.0, 7.3, 257), 2.0 / 2000),
    # strands that reach the window's edge freeze there, within a substep
    "window": (hj.ProblemSpec(H=hj.parse("(1 + t)*p^2/2"), u0=hj.parse("2*sin(q)"),
                              domain=hj.Windowed(-2.0, 2.0), t_max=1.0),
               [0.1, 0.5, 0.5, 1.0], np.linspace(-3.0, 3.0, 61), 0.01),
    # H_p is q itself: the slopes must not be the stage state
    "qp": (hj.ProblemSpec(H=hj.parse("q*p"), u0=hj.parse("cos(q)"),
                          domain=hj.Windowed(-50.0, 50.0), t_max=2.0),
           [0.3, 1.1, 2.0], np.linspace(0.5, 2.0, 9), 0.05),
    # H_p is the scalar 0.5 and H_q is structurally zero: both become
    # arrays of the state's shape that the flow owns
    "const_tangents": (hj.ProblemSpec(H=hj.parse("0.5*p + cos(t)"), u0=hj.parse("cos(q)"),
                                      domain=hj.Periodic(2 * np.pi), t_max=1.0),
                       [0.25, 1.0], np.linspace(-1.0, 7.3, 33), 0.01),
}


def _bits(x):
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("case", list(_CASES))
def test_evolve_states_matches_out_of_place_rk4_bit_for_bit(case):
    spec, times, seeds, step = _CASES[case]
    got = chars.evolve_states(spec, times, seeds, step)
    want = oracle.evolve_states(spec, times, seeds, step)
    for g, w in zip(got, want):
        assert g.shape == (len(times), len(seeds))
        assert _bits(g) == _bits(w)
    if case == "window":
        Q = got[0]
        inside = np.abs(seeds) <= 2.0
        assert np.any(inside & (np.abs(Q[-1]) >= 2.0))  # some stopped at an edge
        assert np.all(Q[:, ~inside] == seeds[~inside])  # outside: never moves


@pytest.mark.parametrize("case", list(_CASES))
def test_rk4_span_leaves_its_arguments_unchanged(case):
    spec, times, seeds, step = _CASES[case]
    state = chars.initial_state(spec, seeds)
    before = [x.copy() for x in state]
    out = chars._rk4_span(spec, 0.0, times[-1], *state, step)
    for x, b, o in zip(state, before, out):
        assert _bits(x) == _bits(b)
        assert not np.shares_memory(o, x)


@pytest.mark.parametrize("case", ["qflow", "window", "qp"])
def test_chosen_step_is_the_out_of_place_probes(monkeypatch, case):
    spec, times, seeds, _ = _CASES[case]
    state = chars.initial_state(spec, seeds)
    got = chars._choose_step(spec, times[-1], *state)
    monkeypatch.setattr(chars, "_rk4_span", oracle.rk4_span)
    assert got == chars._choose_step(spec, times[-1], *state)


def test_no_step_flows_at_the_chosen_step():
    # without a step the strands are the ones the chosen step gives
    spec, times, seeds, _ = _CASES["qflow"]
    chosen = chars._choose_step(spec, times[-1], *chars.initial_state(spec, seeds))
    assert chosen > spec.default_step()
    got = chars.evolve_states(spec, times, seeds)
    want = chars.evolve_states(spec, times, seeds, chosen)
    for g, w in zip(got, want):
        assert _bits(g) == _bits(w)
