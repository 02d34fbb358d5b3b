"""The monotone divide-and-conquer argmins of `hjminimax.viscosity` against
the dense matrix scans they replaced (`viscosity_oracle`), the conjugate
table's closed parametric form against closed-form conjugates and the
dense scan, and the padded Lax-Friedrichs stencil against the `np.roll`
one it replaced."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    # the parametric table within interpolation error of the dense argmax scan
    dense = oracle.LegendreTable(Hc)
    assert (table.vmin, table.vmax) == (dense.vmin, dense.vmax)
    np.testing.assert_allclose(table(dense.vs), dense.Ls, rtol=1e-5, atol=1e-5)
    t_grid = np.linspace(0.0, 3.0, nt)
    got = viscosity.lax_oleinik_grid(Hc, u0, t_grid, q_grid).u
    for i, t in enumerate(t_grid):
        want = oracle.lax_oleinik(Hc, u0, float(t), q_grid, table=table)
        assert np.array_equal(got[i], want), f"t={t}"


@pytest.mark.parametrize("H, conjugate", [
    ("p^2/2", lambda v: v * v / 2),
    ("p^2/2 + p", lambda v: (v - 1) ** 2 / 2),
])
def test_table_is_the_closed_form_conjugate(H, conjugate):
    Hc = viscosity.ConvexHamiltonian(H=hj.parse(H), p_window=(-4.0, 4.0))
    table = viscosity._LegendreTable(Hc)
    ps = np.linspace(-4.0, 4.0, viscosity.TABLE_P)
    # a few ulps of the terms v p and H(p) that Ls is the difference of
    ulp = np.spacing(np.abs(table.vs * ps) + np.abs(Hc.H.eval(p=ps)))
    assert np.all(np.abs(table.Ls - conjugate(table.vs)) <= 4 * ulp)


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
def test_table_nodes_are_fenchel_young_maximizers(H, pmax):
    # v p - H(p) over every p sample peaks at the sample whose slope is v
    Hc = viscosity.ConvexHamiltonian(H=hj.parse(H), p_window=(-pmax, pmax))
    table = viscosity._LegendreTable(Hc)
    ps = np.linspace(-pmax, pmax, viscosity.TABLE_P)
    hs = Hc.H.eval(p=ps)
    scale = np.abs(table.vs) * pmax + np.abs(hs).max()
    for k0 in range(0, len(ps), 512):
        k = np.arange(k0, min(k0 + 512, len(ps)))
        g = table.vs[k, None] * ps[None, :] - hs[None, :]
        assert np.array_equal(g[np.arange(len(k)), k], table.Ls[k])
        assert np.all(g.max(axis=1) - table.Ls[k] <= 4 * np.spacing(scale[k]))


@settings(max_examples=40, deadline=None)
@given(H=_hamiltonians, coefficients=_coefficients,
       times=st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=4))
def test_rows_match_dense_scan_random_problem(H, coefficients, times):
    u0 = hj.parse(_trig_polynomial(coefficients))
    q_grid = _periodic(128)
    Hc = viscosity.ConvexHamiltonian(H=hj.parse(H), p_window=_compare_window(u0, q_grid))
    table = viscosity._LegendreTable(Hc)
    for t in times:
        got = _outcome(viscosity.lax_oleinik, Hc, u0, t, q_grid)
        want = _outcome(oracle.lax_oleinik, Hc, u0, t, q_grid, table=table)
        assert got == want, f"t={t}"


def test_random_grid_points_match_dense_scan():
    u0 = hj.parse("cos(q) + 0.7*cos(2*q)")
    Hc = viscosity.ConvexHamiltonian(H=hj.parse("p^2/2"), p_window=(-4.0, 4.0))
    q = np.random.default_rng(0).uniform(0.0, TWO_PI, 97)
    with pytest.raises(ValueError, match="abscissae must strictly increase"):
        viscosity.lax_oleinik(Hc, u0, 1.7, q)
    q.sort()
    assert np.array_equal(viscosity.lax_oleinik(Hc, u0, 1.7, q),
                          oracle.lax_oleinik(Hc, u0, 1.7, q))


def _dense(matrix):
    return np.argmin(matrix, axis=1), matrix.min(axis=1)


def _search(matrix, lo=None, hi=None):
    """The one-block search of `matrix` within the column bounds lo..hi of
    each row (the whole row by default), and the entries it asked for; it
    must ask for none outside the bounds."""
    n_rows, n_cols = matrix.shape
    lo = np.zeros(n_rows, dtype=np.intp) if lo is None else lo
    hi = np.full(n_rows, n_cols - 1) if hi is None else hi
    asked = []

    def f(rows, cols):
        assert np.all((lo[rows] <= cols) & (cols <= hi[rows]))
        asked.append(len(rows))
        return matrix[rows, cols]
    arg, val = viscosity._monotone_argmin(f, [n_rows], lo, hi)
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


@st.composite
def _monge_matrix(draw):
    """(matrix, lo, hi): a[j] + (x_i - j)^2 with small integers a and sorted
    integers x, so leftmost ties are common, in some matrices inf outside a
    band of columns that moves right down the rows, and column bounds
    lo[i]..hi[i] that cover row i's finite entries, from tight to the whole
    row."""
    n_rows, n_cols = draw(st.integers(1, 9)), draw(st.integers(1, 12))
    x = np.sort(draw(st.lists(st.integers(0, n_cols - 1), min_size=n_rows, max_size=n_rows)))
    a = np.array(draw(st.lists(st.integers(0, 3), min_size=n_cols, max_size=n_cols)), float)
    matrix = a[None, :] + (x[:, None] - np.arange(n_cols)[None, :]) ** 2.0
    if draw(st.booleans()):
        first = np.sort(draw(st.lists(st.integers(0, n_cols - 1),
                                      min_size=n_rows, max_size=n_rows)))
        stop = np.maximum(np.sort(draw(st.lists(st.integers(1, n_cols),
                                                min_size=n_rows, max_size=n_rows))), first + 1)
        cols = np.arange(n_cols)[None, :]
        matrix[(cols < first[:, None]) | (cols >= stop[:, None])] = np.inf
    finite = np.isfinite(matrix)
    lo = [draw(st.integers(0, c)) for c in finite.argmax(axis=1)]
    hi = [draw(st.integers(n_cols - 1 - c, n_cols - 1)) for c in finite[:, ::-1].argmax(axis=1)]
    return matrix, np.array(lo, dtype=np.intp), np.array(hi, dtype=np.intp)


@settings(max_examples=300, deadline=None)
@given(st.lists(_monge_matrix(), min_size=1, max_size=5))
# a one-row block, then a two-row block whose last row's bounds start right
# of its first row's argmin
@example([(np.array([[2.0, 0.0, 1.0]]), np.array([0]), np.array([2])),
          (np.array([[0.0, 1.0, np.inf, np.inf], [np.inf, np.inf, 1.0, 0.0]]),
           np.array([0, 2]), np.array([1, 3]))])
def test_blocked_monotone_argmin_matches_one_block_calls(blocks):
    # the rows of all blocks in one sequence; each block's columns its own
    matrices = [m for m, _, _ in blocks]
    lo = np.concatenate([lo for _, lo, _ in blocks])
    hi = np.concatenate([hi for _, _, hi in blocks])
    n_rows = [len(m) for m in matrices]
    first_row = np.cumsum([0] + n_rows)
    block = np.repeat(np.arange(len(matrices)), n_rows)

    def f(rows, cols):
        assert np.all((lo[rows] <= cols) & (cols <= hi[rows]))
        out = np.empty(len(rows))
        for b, m in enumerate(matrices):
            mine = block[rows] == b
            out[mine] = m[rows[mine] - first_row[b], cols[mine]]
        return out
    arg, val = viscosity._monotone_argmin(f, n_rows, lo, hi)
    for b, (m, m_lo, m_hi) in enumerate(blocks):
        want_arg, want_val, asked = _search(m, m_lo, m_hi)
        rows = slice(first_row[b], first_row[b + 1])
        assert arg[rows].tobytes() == want_arg.tobytes()
        assert val[rows].tobytes() == want_val.tobytes()
        assert want_arg.tobytes() == np.argmin(m, axis=1).tobytes()
        assert want_val.tobytes() == m.min(axis=1).tobytes()
        assert asked <= np.sum(m_hi - m_lo + 1)


def test_monotone_argmin_flat_rows_give_column_zero():
    arg, val, _ = _search(np.ones((9, 5)))
    assert np.array_equal(arg, np.zeros(9)) and np.array_equal(val, np.ones(9))


def test_monotone_argmin_inf_outside_a_moving_band():
    # an admissible band that moves right down the rows, inf outside it,
    # searched within the whole rows and within each row's band
    rng = np.random.default_rng(3)
    n_rows, n_cols = 80, 200
    for _ in range(20):
        first = np.sort(rng.integers(0, n_cols - 10, n_rows))
        stop = np.maximum(np.sort(rng.integers(0, n_cols, n_rows)), first + 1)
        cols = np.arange(n_cols)[None, :]
        x = np.sort(rng.uniform(0, n_cols, n_rows))[:, None]
        matrix = np.where((cols >= first[:, None]) & (cols < stop[:, None]),
                          rng.integers(0, 3, n_cols)[None, :] + (x - cols) ** 2, np.inf)
        want_arg, want_val = _dense(matrix)
        assert np.all(np.isfinite(want_val))
        arg, val, _ = _search(matrix)
        assert arg.tobytes() == want_arg.tobytes() and val.tobytes() == want_val.tobytes()
        arg, val, asked = _search(matrix, first, stop - 1)
        assert arg.tobytes() == want_arg.tobytes() and val.tobytes() == want_val.tobytes()
        assert asked <= np.sum(stop - first)
        assert np.any(first > want_arg[0])


def test_burgers_grid_argmin_entries():
    # the entries the search asks for on compare's Burgers 128x256 grid;
    # 2,205,128 when every block's search started from its seed window's ends
    asked = []
    search = viscosity._monotone_argmin

    def counting(f, *bounds):
        def counted(rows, cols):
            asked.append(len(rows))
            return f(rows, cols)
        return search(counted, *bounds)
    Hc = viscosity.ConvexHamiltonian(H=hj.parse("p^2/2"), p_window=(-4.0, 4.0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(viscosity, "_monotone_argmin", counting)
        viscosity.lax_oleinik_grid(Hc, hj.parse("cos(q)"), np.linspace(0.0, 3.0, 128),
                                   _periodic(256))
    assert sum(asked) <= 996_545


def test_narrow_band_rows_match_dense_scan():
    # at t = 1/63 the admissible band of H = 0.01 p^2 on compare's p-window
    # holds no seed of N_SEED; the seeds are spaced to put BAND_STEPS in it
    u0, q = hj.parse("cos(q)"), _periodic(32)
    Hc = viscosity.ConvexHamiltonian(H=hj.parse("0.01*p^2"), p_window=_compare_window(u0, q))
    table = viscosity._LegendreTable(Hc)
    vmin, vmax = table.vmin, table.vmax
    t = 1.0 / 63.0
    width = q[-1] - q[0] + (vmax - vmin) * t
    assert width / (viscosity.N_SEED - 1) > (vmax - vmin) * t
    n_seed = viscosity._seed_count(width, (vmax - vmin) * t)
    assert viscosity.N_SEED < n_seed <= viscosity.MAX_SEED
    assert width / (n_seed - 1) <= (vmax - vmin) * t / viscosity.BAND_STEPS
    assert np.array_equal(viscosity.lax_oleinik(Hc, u0, t, q), oracle.lax_oleinik(Hc, u0, t, q))


def test_grid_blocks_match_dense_scan():
    # a t = 0 row, narrow-band rows spaced finer than N_SEED seeds allow,
    # and wide-band rows: more argmin entries than two blocks take
    u0, q = hj.parse("cos(q)"), _periodic(32)
    Hc = viscosity.ConvexHamiltonian(H=hj.parse("0.01*p^2"), p_window=_compare_window(u0, q))
    table = viscosity._LegendreTable(Hc)
    t_grid = np.concatenate([[0.0, 1.0 / 63.0, 0.02, 0.03, 0.05, 0.08],
                             np.linspace(0.2, 3.0, 48)])
    seeds = [viscosity._seed_range(table, float(t), q)[2] for t in t_grid[1:]]
    assert max(seeds) > viscosity.N_SEED
    assert sum(seeds) + len(q) * len(seeds) > 2 * viscosity.ARGMIN_ENTRIES
    got = viscosity.lax_oleinik_grid(Hc, u0, t_grid, q).u
    assert np.array_equal(got[0], u0.eval(q=q))
    for i, t in enumerate(t_grid):
        want = oracle.lax_oleinik(Hc, u0, float(t), q, table=table)
        assert got[i].tobytes() == want.tobytes(), f"t={t}"


def test_band_edge_argmins_match_dense_scan():
    # slopes of u0 reach past the p-window, so many feet sit on an edge of
    # their admissible band, which the search must scan
    u0, q = hj.parse("cos(q)"), _periodic(64)
    Hc = viscosity.ConvexHamiltonian(H=hj.parse("p^2/2"), p_window=(-0.5, 0.5))
    table = viscosity._LegendreTable(Hc)
    t_grid = [0.05, 0.3, 1.0, 2.5]
    got = viscosity.lax_oleinik_grid(Hc, u0, t_grid, q).u
    for i, t in enumerate(t_grid):
        assert got[i].tobytes() == oracle.lax_oleinik(Hc, u0, t, q, table=table).tobytes()


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


@pytest.mark.parametrize("H", ["p^2/2", "p^2/2 + 0.5*sin(q)*cos(t)"])
@pytest.mark.parametrize("domain, q_grid", [
    (hj.Periodic(TWO_PI), _periodic(128)),
    (hj.Windowed(-3.0, 3.0), np.linspace(-3.0, 3.0, 129)),
])
def test_lax_friedrichs_matches_roll_stencil(H, domain, q_grid):
    spec = hj.ProblemSpec(H=hj.parse(H), u0=hj.parse("cos(q)"), domain=domain, t_max=2.0)
    t_grid = np.linspace(0.0, 2.0, 33)
    got = viscosity.lax_friedrichs(spec, t_grid, q_grid)
    want = oracle.lax_friedrichs(spec, t_grid, q_grid)
    assert np.array_equal(got.u, want.u)
