"""The batched fiber pass of `hjminimax.selector` against the scalar
one-fiber path it replaced (`fiber_oracle`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiber_oracle as oracle
import hjminimax as hj
from hjminimax import characteristics as chars
from hjminimax import front as frontmod
from hjminimax import selector
from hjminimax.errors import DegenerateFiber, MalformedInput, NonGeneric
from hjminimax.front import Cusp, DoublePoint, FrontAnalysis, FrontCurve, Section

TWO_PI = 2.0 * np.pi


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _grid_rows(spec, t_grid, n_seeds):
    """The analyses of the rows after t = 0, each row built on its own."""
    seeds = selector.default_seeds(spec, n_seeds)
    times = [float(t) for t in t_grid]
    Q, P, Z = chars.evolve_states(spec, times, seeds, None)
    return {i: oracle.row_analysis(spec, t, seeds, Q[i], P[i], Z[i])
            for i, t in enumerate(times) if t != 0.0}


def _grid(name, H, u0, t_max, nt, nq, n_seeds, most, per_batch=None, shuffle=False):
    """A grid case: per_batch rows in each batch (the default budget when
    None), and q_grid shuffled when shuffle."""
    return pytest.param(H, u0, t_max, nt, nq, n_seeds, most, per_batch, shuffle, id=name)


BURGERS, TWO_HUMP = "cos(q)", "cos(q) + 0.7*cos(2*q)"
QFLOW = "p^2/2 + 0.5*sin(q)*cos(t)"


@pytest.mark.parametrize("H, u0, t_max, nt, nq, n_seeds, most, per_batch, shuffle", [
    _grid("p^2/2-cos(q)-3.0-12-64-512-3", "p^2/2", BURGERS, 3.0, 12, 64, 512, 3),
    _grid("p^2/2-cos(q) + 0.7*cos(2*q)-3.0-12-96-1024-7", "p^2/2", TWO_HUMP, 3.0, 12, 96, 1024, 7),
    _grid("p^2/2 + 0.5*sin(q)*cos(t)-cos(q)-2.0-8-32-1024-3", QFLOW, BURGERS, 2.0, 8, 32, 1024, 3),
    # the Burgers and two-hump grids of perfbench/configs
    _grid("p^2/2-cos(q)-3.0-128-256-2048-3", "p^2/2", BURGERS, 3.0, 128, 256, 2048, 3),
    _grid("p^2/2-cos(q) + 0.7*cos(2*q)-3.0-96-192-2048-7",
          "p^2/2", TWO_HUMP, 3.0, 96, 192, 2048, 7),
    # batches of one row, a split that leaves a short last batch, the whole grid
    _grid("burgers-one-row-a-batch", "p^2/2", BURGERS, 3.0, 12, 64, 512, 3, 1),
    _grid("burgers-split-mid-grid", "p^2/2", BURGERS, 3.0, 12, 64, 512, 3, 4),
    _grid("two-hump-one-batch", "p^2/2", TWO_HUMP, 3.0, 12, 96, 1024, 7, 11),
    _grid("two-hump-unsorted-q", "p^2/2", TWO_HUMP, 3.0, 12, 96, 1024, 7, 5, True),
    # the folded-end grids of test_selector: rows trimmed to different lengths
    _grid("folded-qflow-1.91", QFLOW, "cos(q + 1.91)", 2.0, 16, 32, 1024, 3, 6),
    _grid("folded-cos-p", "cos(p) - 1 + 0.5*sin(q)*cos(t)", BURGERS, 2.0, 16, 32, 1024, 3, 6),
    _grid("folded-qflow-4.2", QFLOW, "cos(q + 4.2)", 2.0, 64, 64, 4096, 3, None, True),
    _grid("folded-sin-tp", QFLOW + " + 0.2*sin(t*p)", "cos(q) + 0.3*sin(2*q)",
          2.0, 32, 64, 1024, 5, 7),
])
def test_grid_rows_match_oracle_bit_for_bit(monkeypatch, H, u0, t_max, nt, nq, n_seeds, most,
                                            per_batch, shuffle):
    spec = hj.ProblemSpec(H=hj.parse(H), u0=hj.parse(u0),
                          domain=hj.Periodic(TWO_PI), t_max=t_max)
    t_grid = np.linspace(0.0, t_max, nt)
    q_grid = np.linspace(0.0, TWO_PI, nq, endpoint=False)
    if shuffle:
        q_grid = q_grid[np.random.default_rng(nq).permutation(nq)]
    n_vertices = len(selector.default_seeds(spec, n_seeds))
    if per_batch is not None:
        monkeypatch.setattr(selector, "BATCH_VERTICES", per_batch * n_vertices)
    # one coupling call per crossing count of three or more, for the whole
    # grid, and one cusp and one crossing pass per batch
    calls = {"couple_rows": [], "row_cusps": 0, "fiber_rows": 0}
    couple_rows, row_cusps, fiber_rows = (selector.morse1d.couple_rows, frontmod.row_cusps,
                                          selector.fiber_rows)

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(selector.morse1d, "couple_rows",
                        lambda values, index: calls["couple_rows"].append(values.shape[1])
                        or couple_rows(values, index))
    monkeypatch.setattr(frontmod, "row_cusps", counting("row_cusps", row_cusps))
    monkeypatch.setattr(selector, "fiber_rows", counting("fiber_rows", fiber_rows))
    g = selector.minimax_grid(spec, t_grid, q_grid, n_seeds=n_seeds)
    batches = -(-(nt - 1) // max(1, selector.BATCH_VERTICES // n_vertices))
    assert calls["couple_rows"] == np.unique(g.branch_count[g.branch_count >= 3]).tolist()
    assert calls["row_cusps"] == calls["fiber_rows"] == batches
    if per_batch is not None:
        assert batches == -(-(nt - 1) // per_batch)
    for i, analysis in _grid_rows(spec, t_grid, n_seeds).items():
        u, branch, count = oracle.select_row(analysis, q_grid)
        assert np.array_equal(_bits(g.u[i]), _bits(u)), f"row {i}"
        assert np.array_equal(g.branch[i], branch), f"row {i}"
        assert np.array_equal(g.branch_count[i], count), f"row {i}"
    # the two-hump grid reaches fibers of five and seven crossings
    assert g.branch_count.max() == most


def test_unsorted_grid_matches_sorted(burgers_spec):
    t_grid = np.linspace(0.0, 3.0, 6)
    q_grid = np.linspace(0.0, TWO_PI, 48, endpoint=False)
    perm = np.random.default_rng(7).permutation(len(q_grid))
    g = selector.minimax_grid(burgers_spec, t_grid, q_grid, n_seeds=512)
    h = selector.minimax_grid(burgers_spec, t_grid, q_grid[perm], n_seeds=512)
    assert np.array_equal(_bits(h.u), _bits(g.u[:, perm]))
    assert np.array_equal(h.branch, g.branch[:, perm])
    assert np.array_equal(h.branch_count, g.branch_count[:, perm])
    assert g.branch_count.max() == 3


def fish_analysis():
    q0 = np.linspace(-np.pi, np.pi, 801)
    p = -np.sin(q0)
    f = FrontCurve(time=1.5, q=q0 + 1.5 * p, z=np.cos(q0) + 0.75 * np.sin(q0) ** 2,
                   p=p, q0=q0)
    return frontmod.analyze(f)


def _assert_matches_oracle(analysis, qs):
    """Every fiber of the sorted qs: the same points, coupling and errors."""
    cp = selector.select_fibers(analysis, qs)
    fb = cp.fibers
    for k, q in enumerate(np.asarray(qs, dtype=float).tolist()):
        try:
            pts, free, pairs = oracle.coupled_fiber(analysis, q)
        except (DegenerateFiber, MalformedInput, NonGeneric) as exc:
            assert type(cp.failed.get(k)) is type(exc), f"q={q}"
            assert str(cp.failed[k]) == str(exc)
            continue
        assert k not in cp.failed, f"q={q}: {cp.failed.get(k)}"
        lo, hi = fb.bounds[k], fb.bounds[k + 1]
        assert fb.section[lo:hi].tolist() == [p.section for p in pts]
        assert fb.index[lo:hi].tolist() == [p.index for p in pts]
        assert fb.seg[lo:hi].tolist() == [p.seg for p in pts]
        assert np.array_equal(_bits(fb.z[lo:hi]), _bits([p.z for p in pts]))
        assert cp.free[k] - lo == free
        assert [(u - lo, v - lo) for u, v in cp.pairs.get(k, [])] == pairs


def test_grid_point_on_a_vertex():
    # the fiber through vertex v is crossed by segment v (qa == q) and not
    # also by segment v - 1, which ends there
    a = fish_analysis()
    f = a.front
    verts = [0, 37, 150, 399, 400, 401, 650, 799]
    qs = np.sort(f.q[verts])
    _assert_matches_oracle(a, qs)
    fb = selector.fiber_crossings(a, f.q[[37]])
    assert 37 in fb.seg.tolist() and 36 not in fb.seg.tolist()
    assert fb.z[fb.seg.tolist().index(37)] == f.z[37]


def test_last_vertex_on_a_windowed_grid():
    # a Windowed grid runs from qmin to qmax inclusive, as the CLI lays it;
    # a front spanning exactly that window is crossed at its last vertex
    qmin, qmax = -1.0, 2.0
    q = np.linspace(qmin, qmax, 61)
    f = FrontCurve(time=1.0, q=q, z=np.sin(3 * q), p=3 * np.cos(3 * q), q0=q)
    a = frontmod.analyze(f)
    q_grid = np.linspace(qmin, qmax, 16)
    _assert_matches_oracle(a, q_grid)
    cp = selector.select_fibers(a, q_grid)
    assert cp.fibers.counts().tolist() == [1] * 16
    assert cp.fibers.seg[-1] == len(f) - 2 and cp.fibers.z[-1] == f.z[-1]
    assert cp.fibers.seg[0] == 0 and cp.fibers.z[0] == f.z[0]


def test_fiber_near_a_cusp_raises_in_grid_order(burgers_spec):
    t_grid = np.array([0.0, 1.5])
    a = _grid_rows(burgers_spec, t_grid, 512)[1]
    wq, _ = a.front.bbox_scale()
    c0, c1 = sorted(c.q for c in a.cusps if 0.0 < c.q < TWO_PI)[:2]
    # inside the FIBER_TOL band of a cusp, and just outside it
    near, off = c0 + 0.5 * selector.FIBER_TOL * wq, c0 + 2 * selector.FIBER_TOL * wq
    _assert_matches_oracle(a, [near, off])
    cp = selector.select_fibers(a, [near, off])
    assert isinstance(cp.failed[0], DegenerateFiber) and 1 not in cp.failed
    # c0 sorts first, but c1 comes first in the grid: its fiber's error is raised
    q_grid = np.array([1.0, c1, 2.0, c0])
    with pytest.raises(DegenerateFiber) as oracle_exc:
        oracle.select_row(a, q_grid)
    with pytest.raises(DegenerateFiber) as exc:
        selector.minimax_grid(burgers_spec, t_grid, q_grid, n_seeds=512)
    assert str(exc.value) == str(oracle_exc.value)
    assert f"q={c1}" in str(exc.value)


def _fibers(*fibers):
    """Fibers of the (values, indices, crossing error or None) of each fiber;
    none for a batch whose first row cannot be built."""
    n = [len(z) for z, _, _ in fibers]
    return selector.Fibers(bounds=np.cumsum([0] + n),
                           z=np.array([v for z, _, _ in fibers for v in z], dtype=float),
                           seg=np.zeros(sum(n), dtype=int), section=np.arange(sum(n)),
                           index=np.array([k for _, i, _ in fibers for k in i], dtype=int),
                           failed={k: exc for k, (_, _, exc) in enumerate(fibers) if exc})


def test_grid_failures_in_grid_order(monkeypatch, burgers_spec):
    # fiber 0 of each row sits at grid column 1, fiber 1 at column 0
    ok = ([0.5], [0], None)
    unmatched = ([0.0, 1.0, 0.5], [0, 0, 1], None)    # coupling: indices do not alternate
    crossing = ([0.5], [0], DegenerateFiber("crossing"))
    n_vertices = len(selector.default_seeds(burgers_spec, 64))
    # each row's states carry its time, so the batch build knows its rows
    monkeypatch.setattr(selector.chars, "evolve_states",
                        lambda spec, times, seeds, step: (np.array(times)[:, None],) * 3)

    def solve(rows, per_batch):
        def grid_rows(_spec, _seeds, q, _p, _z):
            times = q[:, 0].tolist()
            n = next((r for r, t in enumerate(times) if rows[t] is None), len(times))
            return times[:n], NonGeneric(f"front at t={times[n]}") if n < len(times) else None
        monkeypatch.setattr(selector, "_grid_rows", grid_rows)
        monkeypatch.setattr(selector, "fiber_rows",
                            lambda times, _q: _fibers(*[f for t in times for f in rows[t]]))
        monkeypatch.setattr(selector, "BATCH_VERTICES", per_batch * n_vertices)
        selector.minimax_grid(burgers_spec, [0.0, 1.0, 2.0], [2.0, 1.0], n_seeds=64)

    # rows 1 and 2 in one batch, and each in its own
    for per_batch in (2, 1):
        # within a row, grid order; a crossing failure couples the rows before it
        with pytest.raises(DegenerateFiber, match="crossing"):
            solve({1.0: [unmatched, crossing], 2.0: None}, per_batch)
        with pytest.raises(MalformedInput, match="alternate"):
            solve({1.0: [unmatched, ok], 2.0: [ok, crossing]}, per_batch)
        # a crossing failure beats a later row that cannot be built
        with pytest.raises(DegenerateFiber, match="crossing"):
            solve({1.0: [ok, crossing], 2.0: None}, per_batch)
        # the rows are coupled after every front is built
        with pytest.raises(NonGeneric, match="front at t=2.0"):
            solve({1.0: [unmatched, ok], 2.0: None}, per_batch)


# --- random polylines against the oracle ---

# quarter-integer vertices and eighth-integer grids: grid points fall on
# vertices, and crossing values tie, often
quarter = st.integers(-8, 8).map(lambda k: 0.25 * k)
slope = st.one_of(st.floats(-20.0, 20.0), st.sampled_from([np.inf, np.nan]))


@st.composite
def polyline_and_grid(draw):
    n = draw(st.integers(2, 14))
    q = np.array(draw(st.lists(quarter, min_size=n, max_size=n)))
    z = np.array(draw(st.lists(quarter, min_size=n, max_size=n)))
    p = np.array(draw(st.lists(slope, min_size=n, max_size=n)))
    f = FrontCurve(time=1.0, q=q, z=z, p=p, q0=np.arange(n, dtype=float))
    cuts = sorted(set(draw(st.lists(st.integers(1, n - 2), max_size=4)))) if n > 2 else []
    bounds = [0] + cuts + [n - 1]
    indices = draw(st.lists(st.integers(-1, 2), min_size=len(bounds) - 1,
                            max_size=len(bounds) - 1))
    sections = tuple(Section(id=i, start=bounds[i], end=bounds[i + 1], index=indices[i],
                             kind="compact") for i in range(len(bounds) - 1))
    grid = sorted(draw(st.lists(st.integers(-18, 18).map(lambda k: 0.125 * k),
                                min_size=1, max_size=12)))
    events = st.lists(st.sampled_from(grid + [0.3, -1.1]), max_size=2)
    cusps = tuple(Cusp(q=c, z=0.0, sign=1, vertex=1) for c in draw(events))
    doubles = tuple(DoublePoint(q=d, z=0.0, sections=(0, 0), homogeneous=False,
                                seg_a=0, frac_a=0.5, seg_b=1)
                    for d in draw(events))
    return FrontAnalysis(front=f, cusps=cusps, sections=sections, doubles=doubles,
                         triangles=()), np.array(grid)


@settings(max_examples=400, deadline=None)
@given(polyline_and_grid())
def test_random_polylines_match_oracle(case):
    analysis, grid = case
    with np.errstate(invalid="ignore", over="ignore"):
        _assert_matches_oracle(analysis, grid)



eighth = st.integers(-18, 18).map(lambda k: 0.125 * k)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_crossing_runs_match_six_searches_per_segment(data):
    # vertices on grid points, off them, and repeated, consecutively (a
    # segment of zero length) or not; grids with repeated points; one row
    # or several, each front a window lo..hi of its row
    grid = np.array(sorted(data.draw(st.lists(eighth, min_size=1, max_size=12))))
    vertex = st.one_of(st.sampled_from(grid.tolist()), eighth, st.floats(-3.0, 3.0))
    n = data.draw(st.integers(2, 24))
    fq = np.array([data.draw(st.lists(vertex, min_size=n, max_size=n))
                   for _ in range(data.draw(st.integers(1, 3)))])
    for row in fq:
        for i in data.draw(st.lists(st.integers(1, n - 1), max_size=4)):
            row[i] = row[i - 1]
    spans = [sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                       unique=True))) for _ in fq]
    lo, hi = np.array(spans).T
    row, seg, first, count, last = selector._crossing_runs(grid, fq, lo, hi)
    for r, (a, b) in enumerate(spans):
        mine = row == r
        want = oracle.crossing_runs(grid, fq[r, a:b + 1])
        assert (seg[mine] - a).tolist() == want[0].tolist()
        assert first[mine].tolist() == want[1].tolist()
        assert count[mine].tolist() == want[2].tolist()
        n_last = int(np.any(grid == fq[r, b]))  # the run at the front's last vertex
        assert last[mine].tolist() == [False] * (len(want[0]) - n_last) + [True] * n_last
