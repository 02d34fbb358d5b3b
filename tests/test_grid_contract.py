"""The (t, q) grid contract that `GridSolution.start` keeps for the three
grid solvers: times sorted and not negative, abscissae strictly
increasing, and an empty time grid solved as an empty grid; so is an
empty abscissa grid, except by Lax-Friedrichs, whose stencil needs two.
A viscosity solution's branch ids (0) and crossing counts (1) are
read-only constants that hold one value each."""

import numpy as np
import pytest

import hjminimax as hj
from hjminimax import selector, viscosity

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module", params=["minimax_grid", "lax_oleinik_grid", "lax_friedrichs"])
def solve(request, burgers_spec):
    """The named solver on Burgers, called with (t_grid, q_grid)."""
    Hc = viscosity.ConvexHamiltonian(H=burgers_spec.H, p_window=(-4.0, 4.0))
    return {
        "minimax_grid": lambda t, q: selector.minimax_grid(burgers_spec, t, q, n_seeds=256),
        "lax_oleinik_grid": lambda t, q: viscosity.lax_oleinik_grid(Hc, burgers_spec.u0, t, q),
        "lax_friedrichs": lambda t, q: viscosity.lax_friedrichs(burgers_spec, t, q),
    }[request.param]


Q = np.linspace(0.0, TWO_PI, 32, endpoint=False)


@pytest.mark.parametrize("t_grid, q_grid, message", [
    ([0.0, 1.0, 0.5], Q, "times must be sorted"),
    ([-0.5, 0.0, 0.5], Q, "times must not be negative"),
    # Lax-Friedrichs used to march a descending grid with a negative step
    # and never return
    ([0.0, 0.5], Q[::-1], "abscissae must strictly increase"),
    ([0.0, 0.5], np.insert(Q, 5, Q[5]), "abscissae must strictly increase"),
], ids=["unsorted-t", "negative-t", "descending-q", "repeated-q"])
def test_grid_is_checked(solve, t_grid, q_grid, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve(t_grid, q_grid)


def test_empty_time_grid(solve):
    # Lax-Friedrichs used to raise IndexError sampling its speeds to t_grid[-1]
    g = solve([], Q)
    assert g.u.shape == g.branch.shape == g.branch_count.shape == (0, len(Q))


@pytest.mark.parametrize("solve", ["minimax_grid", "lax_oleinik_grid"], indirect=True)
def test_empty_abscissa_grid(solve):
    # Lax-Oleinik used to raise IndexError placing its seeds at q_grid[0]
    g = solve([0.0, 1.0], [])
    assert g.u.shape == g.branch.shape == g.branch_count.shape == (2, 0)


def test_lax_friedrichs_refuses_empty_abscissa_grid(burgers_spec):
    with pytest.raises(ValueError, match="two abscissae or more"):
        viscosity.lax_friedrichs(burgers_spec, [0.0, 1.0], [])


def test_t0_rows_are_u0(solve, burgers_spec):
    g = solve([0.0, 0.0, 0.5], Q)
    assert g.u[:2].tobytes() == np.tile(burgers_spec.u0.eval(q=Q), 2).tobytes()
    assert np.all(g.branch[:2] == 0) and np.all(g.branch_count[:2] == 1)


@pytest.mark.parametrize("solve", ["lax_oleinik_grid", "lax_friedrichs"], indirect=True)
def test_viscosity_branch_columns_are_constants(solve):
    # no per-point pages: only `minimax_grid` fills branch ids and counts
    g = solve([0.0, 0.5, 1.0], Q)
    for a, value in ((g.branch, 0), (g.branch_count, 1)):
        assert a.shape == g.u.shape and a.strides == (0, 0) and not a.flags.writeable
        assert np.all(a == value)
    ids = [line.rsplit(",", 1)[1] for line in g.to_csv().splitlines()[1:]]
    assert ids == ["0"] * g.u.size
