"""The monotone divide-and-conquer argmins of `hjminimax.viscosity` against
the dense matrix scans they replaced (`viscosity_oracle`)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hjminimax as hj
import viscosity_oracle as oracle
from hjminimax import viscosity
from hjminimax.errors import HJError, OutOfRange

TWO_PI = 2.0 * np.pi


def _compare_window(u0, q_grid):
    """The p-window `hjminimax compare` gives the convex Hamiltonian."""
    probe = np.linspace(q_grid.min(), q_grid.max(), 257)
    _, du0 = u0.eval_d(q=probe, wrt="q")
    pmax = 2.0 * float(np.max(np.abs(du0))) + 2.0
    return (-pmax, pmax)


def _periodic(nq):
    return np.linspace(0.0, TWO_PI, nq, endpoint=False)


# (H, u0, p-window or None for compare's, nt, nq): the two convex configs
# of perfbench/configs, the test fixtures' specs at their (-4, 4) window,
# and convex H whose slope range is asymmetric or excludes 0
CASES = [
    ("p^2/2", "cos(q)", None, 128, 256),
    ("p^2/2", "cos(q) + 0.7*cos(2*q)", None, 96, 192),
    ("p^2/2", "cos(q)", (-4.0, 4.0), 24, 512),
    ("p^2/2", "cos(q) + 0.7*cos(2*q)", (-4.0, 4.0), 24, 512),
    ("p^4/4 + p^2/2", "cos(q)", None, 24, 256),
    ("exp(p) + exp(-p)", "cos(q)", None, 24, 256),
    ("p^2/2 + p", "cos(q)", None, 24, 256),
    ("exp(p)", "0.3*cos(q)", None, 24, 256),
    ("p^2/2", "cos(q + 0.37) + 0.7*cos(2*q + 0.74)", None, 24, 256),
]


@pytest.mark.parametrize("H, u0, window, nt, nq", CASES)
def test_table_and_rows_match_dense_scan(H, u0, window, nt, nq):
    u0 = hj.parse(u0)
    q_grid = _periodic(nq)
    Hc = viscosity.ConvexHamiltonian(H=hj.parse(H), p_window=window or _compare_window(u0, q_grid))
    table = viscosity._LegendreTable(Hc)
    dense = oracle.LegendreTable(Hc)
    assert np.array_equal(table.Ls, dense.Ls)
    t_grid = np.linspace(0.0, 3.0, nt)
    got = viscosity.lax_oleinik_grid(Hc, u0, t_grid, q_grid).u
    for i, t in enumerate(t_grid):
        want = oracle.lax_oleinik(Hc, u0, float(t), q_grid, table=dense)
        assert np.array_equal(got[i], want), f"t={t}"


def _trig_polynomial(coefficients):
    return " + ".join(f"{a!r}*cos({k}*q + {phase!r})"
                      for k, (a, phase) in enumerate(coefficients, start=1))


_coefficients = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, TWO_PI)),
                         min_size=1, max_size=3)
_hamiltonians = st.one_of(
    st.floats(0.0, 1.0).map(lambda a: f"p^2/2 + {a!r}*p^4"),
    st.floats(0.2, 2.0).map(lambda b: f"exp({b!r}*p) + exp(-{b!r}*p)"))


def _outcome(fn, *args, **kw):
    """The result's bytes, or the error it raised."""
    try:
        return fn(*args, **kw).tobytes()
    except HJError as exc:
        return type(exc), str(exc)


@settings(max_examples=8, deadline=None)
@given(H=_hamiltonians, pmax=st.floats(1.0, 8.0))
def test_table_matches_dense_scan_random_hamiltonian(H, pmax):
    Hc = viscosity.ConvexHamiltonian(H=hj.parse(H), p_window=(-pmax, pmax))
    assert np.array_equal(viscosity._LegendreTable(Hc).Ls, oracle.LegendreTable(Hc).Ls)


@settings(max_examples=40, deadline=None)
@given(H=_hamiltonians, coefficients=_coefficients,
       times=st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=4))
def test_rows_match_dense_scan_random_problem(H, coefficients, times):
    u0 = hj.parse(_trig_polynomial(coefficients))
    q_grid = _periodic(128)
    Hc = viscosity.ConvexHamiltonian(H=hj.parse(H), p_window=_compare_window(u0, q_grid))
    table = viscosity._LegendreTable(Hc)
    for t in times:
        got = _outcome(viscosity.lax_oleinik, Hc, u0, t, q_grid, table=table)
        want = _outcome(oracle.lax_oleinik, Hc, u0, t, q_grid, table=table)
        assert got == want, f"t={t}"


def test_unsorted_grid_points_keep_their_order():
    u0 = hj.parse("cos(q) + 0.7*cos(2*q)")
    Hc = viscosity.ConvexHamiltonian(H=hj.parse("p^2/2"), p_window=(-4.0, 4.0))
    q = np.random.default_rng(0).uniform(0.0, TWO_PI, 97)
    assert np.array_equal(viscosity.lax_oleinik(Hc, u0, 1.7, q),
                          oracle.lax_oleinik(Hc, u0, 1.7, q))


def _dense(matrix):
    return np.argmin(matrix, axis=1), matrix.min(axis=1)


def _search(matrix):
    asked = []

    def f(rows, cols):
        asked.append(len(rows))
        return matrix[rows, cols]
    arg, val = viscosity._monotone_argmin(f, *matrix.shape)
    return arg, val, sum(asked)


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 3), (64, 64), (100, 37), (37, 300)])
def test_monotone_argmin_takes_the_leftmost_tie(shape):
    # a[j] + (x_i - j)^2 is Monge, and small integers make ties everywhere
    rng = np.random.default_rng(sum(shape))
    n_rows, n_cols = shape
    for _ in range(20):
        x = np.sort(rng.integers(0, n_cols, n_rows))
        a = rng.integers(0, 4, n_cols).astype(float)
        matrix = a[None, :] + (x[:, None] - np.arange(n_cols)[None, :]) ** 2.0
        arg, val, asked = _search(matrix)
        want_arg, want_val = _dense(matrix)
        assert np.array_equal(arg, want_arg)
        assert np.array_equal(val, want_val)
        assert asked <= (n_rows + n_cols) * (math.log2(n_rows) + 2)


def test_monotone_argmin_flat_rows_give_column_zero():
    arg, val, _ = _search(np.ones((9, 5)))
    assert np.array_equal(arg, np.zeros(9)) and np.array_equal(val, np.ones(9))


def test_monotone_argmin_inf_outside_a_moving_band():
    # an admissible band that moves right down the rows, inf outside it
    rng = np.random.default_rng(3)
    n_rows, n_cols = 80, 200
    for _ in range(20):
        first = np.sort(rng.integers(0, n_cols - 10, n_rows))
        stop = np.maximum(np.sort(rng.integers(0, n_cols, n_rows)), first + 1)
        cols = np.arange(n_cols)[None, :]
        x = np.sort(rng.uniform(0, n_cols, n_rows))[:, None]
        matrix = np.where((cols >= first[:, None]) & (cols < stop[:, None]),
                          rng.integers(0, 3, n_cols)[None, :] + (x - cols) ** 2, np.inf)
        arg, val, _ = _search(matrix)
        want_arg, want_val = _dense(matrix)
        assert np.array_equal(arg, want_arg)
        assert np.array_equal(val, want_val)
        assert np.all(np.isfinite(val))


def test_no_admissible_seed_raises():
    # slopes within +-1e-3 reach past no seed from most grid points at t = 1
    Hc = viscosity.ConvexHamiltonian(H=hj.parse("p^2/2"), p_window=(-1e-3, 1e-3))
    u0, q = hj.parse("cos(q)"), _periodic(64)
    for lax_oleinik in (viscosity.lax_oleinik, oracle.lax_oleinik):
        with pytest.raises(OutOfRange, match="no admissible seed"):
            lax_oleinik(Hc, u0, 1.0, q)
    # a single grid point with the seed window as wide as its band always has one
    assert np.array_equal(viscosity.lax_oleinik(Hc, u0, 1.0, q[:1]),
                          oracle.lax_oleinik(Hc, u0, 1.0, q[:1]))
