from dataclasses import replace

import numpy as np
import pytest

import hjminimax as hj
from hjminimax import characteristics as chars
from hjminimax import front as frontmod
from hjminimax import selector, viscosity
from hjminimax.errors import (DegenerateFiber, InconsistentSweep, NonFinite,
                              NoVanishingTriangle, OutOfRange)
from hjminimax.front import FrontCurve


def fish_front(t=1.5, n=3001, half_width=np.pi):
    q0 = np.linspace(-half_width, half_width, n)
    p = -np.sin(q0)
    q = q0 + t * p
    z = np.cos(q0) + t * np.sin(q0) ** 2 / 2.0
    return FrontCurve(time=t, q=q, z=z, p=p, q0=q0)


@pytest.fixture(scope="module")
def fish():
    return frontmod.analyze(fish_front())


def test_fiber_points_multivalued(fish):
    fb = selector.fiber_points(fish, 0.1)
    assert len(fb.z) == 3
    assert fb.index.tolist() == [0, 1, 0]
    zs = fb.z.tolist()
    # middle branch (the max) sits between the outer values... actually above
    assert zs[1] > min(zs[0], zs[2])
    # the fibers of several abscissae are asked for in sorted order
    with pytest.raises(ValueError, match="fiber abscissae must be sorted"):
        selector.fiber_crossings(fish, [0.1, -0.1])


def test_fiber_points_single_branch(fish):
    fb = selector.fiber_points(fish, 2.0)
    assert len(fb.z) == 1
    assert fb.index[0] == 0


def test_degenerate_fiber_at_double_point(fish):
    d = fish.doubles[0]
    with pytest.raises(DegenerateFiber):
        selector.fiber_points(fish, d.q)
    with pytest.raises(DegenerateFiber):
        selector.select_pointwise(fish, d.q)


def test_select_pointwise_is_lower_branch_inside_fish(fish):
    # for the convex fish the minimax is the lower envelope
    for q in (-0.2, -0.05, 0.06, 0.21):
        z, sec = selector.select_pointwise(fish, q)
        assert z == pytest.approx(selector.fiber_points(fish, q).z.min())
    # and it jumps branch at the double point
    _, sec_l = selector.select_pointwise(fish, -0.05)
    _, sec_r = selector.select_pointwise(fish, 0.05)
    assert sec_l != sec_r


def test_fiber_accuracy_against_closed_form(fish):
    # Hermite interpolation with carried momenta: single-branch values are
    # accurate to ~1e-9 at this sampling
    for q in (1.3, 2.4, -2.2):
        z, _ = selector.select_pointwise(fish, q)
        q0 = q
        for _ in range(80):
            q0 -= (q0 - 1.5 * np.sin(q0) - q) / (1 - 1.5 * np.cos(q0))
        z_exact = np.cos(q0) + 1.5 * np.sin(q0) ** 2 / 2
        assert z == pytest.approx(z_exact, abs=1e-8)


def test_decompose_fish(fish):
    dec = selector.decompose(fish)
    assert len(dec.coupled_curves) == 1
    x = dec.coupled_curves[0]
    # the curve spans exactly the two cusps
    assert x.q_span() == tuple(sorted(c.q for c in fish.cusps))
    # minimax pieces tile the front with one section switch, at the double point
    (s0, lo0, hi0), (s1, lo1, hi1) = dec.minimax_pieces
    assert (s0, s1) == (0, 2)
    assert lo0 == fish.front.q[0] and hi1 == fish.front.q[-1]
    assert hi0 == lo1 == fish.doubles[0].q


def _events(ana):
    """The front's end abscissae and the cusps and double points between them."""
    f = ana.front
    return sorted({float(f.q[0]), float(f.q[-1]),
                   *(e.q for e in ana.cusps + ana.doubles if f.q[0] < e.q < f.q[-1])})


# (pieces, coupled curves) of each of the `event_slices`
EVENT_SLICES = {"two_hump-t2-600": (6, 5), "two_hump-t2-1600": (6, 5),
                "two_hump-t2-2048": (6, 5), "two_hump-t2.8-1600": (8, 7),
                "burgers-t1.5-600": (3, 2), "burgers-t2.5-2048": (3, 2),
                "qflow-t1-4096": (3, 2)}


@pytest.mark.parametrize("name", EVENT_SLICES)
def test_pieces_end_at_events(event_slices, name):
    # the free section is constant between two consecutive front events:
    # every piece and coupled interval ends at one, a switch between pieces
    # at a double point, and a coupled curve at a cusp or a front end
    ana = event_slices[name]
    dec = selector.decompose(ana)
    pieces = dec.minimax_pieces
    assert (len(pieces), len(dec.coupled_curves)) == EVENT_SLICES[name]
    assert pieces == selector.minimax_pieces(ana)
    events = set(_events(ana))
    doubles = {d.q for d in ana.doubles}
    assert pieces[0][1] == ana.front.q[0] and pieces[-1][2] == ana.front.q[-1]
    for _, lo, hi in pieces:
        assert lo in events and hi in events
    for (_, _, hi), (_, lo, _) in zip(pieces, pieces[1:]):
        assert hi in doubles and lo in doubles
    ends = {ana.front.q[0], ana.front.q[-1], *(c.q for c in ana.cusps)}
    for x in dec.coupled_curves:
        assert x.q_span()[0] in ends and x.q_span()[1] in ends
        for lo, hi, _, _ in x.intervals:
            assert lo in events and hi in events


def test_narrow_event_interval_gets_no_fiber(event_slices, monkeypatch):
    # with 2,048 seeds three double points of the two-hump t=2 slice lie
    # within 3.4e-7 above pi, two of them 2.4e-8 apart; the fiber at the
    # midpoint between those two passes within FIBER_TOL of a double point,
    # so that interval gets none
    ana = event_slices["two_hump-t2-2048"]
    events = _events(ana)
    width = 4 * selector.FIBER_TOL * ana.front.bbox_scale()[0]
    narrow = [(a, b) for a, b in zip(events, events[1:]) if b - a <= width]
    assert len(narrow) == 1
    a, b = narrow[0]
    assert {a, b} <= {d.q for d in ana.doubles}
    assert np.pi < a < b < np.pi + 3.4e-7 and b - a < 2.5e-8
    with pytest.raises(DegenerateFiber):
        selector.select_pointwise(ana, 0.5 * (a + b))
    probed = []
    select = selector.select_fibers
    monkeypatch.setattr(selector, "select_fibers",
                        lambda analysis, q: probed.append(q) or select(analysis, q))
    assert len(selector.minimax_pieces(ana)) == 6
    (qs,) = probed
    assert len(qs) == len(events) - 2
    assert not np.any((a <= qs) & (qs <= b))


@pytest.mark.parametrize("name", ["two_hump-t2-600", "two_hump-t2-1600"])
@pytest.mark.parametrize("drop", ["cusps", "homogeneous_doubles"])
def test_pair_change_away_from_its_event_raises(event_slices, name, drop):
    # without the cusps a pair appears where no cusp lies, and without the
    # homogeneous double points a pair swaps a partner where none lies
    ana = event_slices[name]
    if drop == "cusps":
        ana = replace(ana, cusps=())
    else:
        ana = replace(ana, doubles=tuple(d for d in ana.doubles if not d.homogeneous))
    with pytest.raises(InconsistentSweep):
        selector.decompose(ana)


def test_triangle_is_coupled(fish):
    assert selector.triangle_is_coupled(fish, fish.triangles[0])


def test_eliminate_fish_terminates(fish):
    smooth, log = selector.eliminate(fish.front)
    assert len(log) == 1
    a2 = frontmod.analyze(smooth)
    assert a2.cusps == ()
    assert log[0].vertex_q == pytest.approx(0.0, abs=1e-6)


def test_eliminate_agrees_with_pointwise(fish):
    smooth, log = selector.eliminate(fish.front)
    for q in np.linspace(-2.5, 2.5, 101):
        if abs(q - log[0].vertex_q) < 0.05:
            continue  # at the corner the surgery leaves at the shock
        z_pt, _ = selector.select_pointwise(fish, q)
        z_el = float(np.interp(q, smooth.q, smooth.z))
        assert z_el == pytest.approx(z_pt, abs=1e-4)


def test_eliminate_two_triangles(burgers_front_t15):
    # periodic slice carries two swallowtail copies: two surgeries
    smooth, log = selector.eliminate(burgers_front_t15.front)
    assert len(log) == 2
    assert frontmod.analyze(smooth).cusps == ()


def test_no_vanishing_triangle_message_carries_the_counts():
    # a known failing input: the slice keeps 2 cusps and finds no double
    # point, so elimination has no triangle to cut out
    spec = hj.ProblemSpec(H=hj.parse("p^2/2"), u0=hj.parse("cos(q) + 0.7*cos(2*q - 0.8)"),
                          domain=hj.Periodic(2 * np.pi), t_max=3.0)
    a = selector.slice_analysis(spec, 0.8, selector.default_seeds(spec, 600, t=0.8),
                                step=0.005)
    with pytest.raises(NoVanishingTriangle, match=r"^front is not smooth but no triangle "
                       r"loop is coupled \(cusps=2, doubles=0, triangles=0, t=0\.8\)$"):
        selector.eliminate(a.front)


def test_minimax_grid_initial_slice(burgers_spec):
    t_grid = np.linspace(0.0, 1.0, 16)
    q_grid = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
    g = selector.minimax_grid(burgers_spec, t_grid, q_grid, n_seeds=512)
    np.testing.assert_allclose(g.u[0], np.cos(q_grid), atol=1e-12)
    assert np.all(g.branch_count >= 1)


def test_minimax_grid_raises_a_late_divergence_of_the_closed_form(monkeypatch):
    # z = u0 + t*p^2/2 overflows where |sin(q0)| = 1, first on the t = 4
    # row (t*5e307 > 1.8e308 from t = 3.6). At two rows a batch that row is
    # drawn in the fourth batch, after three batches were built, and the
    # error names the first strand in time then seed order. The closed-form
    # seed window of so steep a u0 spans ~1e154 periods, so the grid takes
    # nine seeds over one period; the fronts built before the error reach
    # q ~ 1e154, where the cusp search's products of q steps overflow
    spec = hj.ProblemSpec(H=hj.parse("p^2/2"), u0=hj.parse("1e154*cos(q)"),
                          domain=hj.Periodic(2 * np.pi), t_max=5.0)
    seeds = np.linspace(0.0, 2 * np.pi, 9)
    monkeypatch.setattr(selector, "default_seeds", lambda spec, n, t=None: seeds)
    monkeypatch.setattr(selector, "BATCH_VERTICES", 2 * len(seeds))
    built = []
    grid_rows = selector._grid_rows

    def counted(*args):
        built.append(len(args[2]))
        return grid_rows(*args)
    monkeypatch.setattr(selector, "_grid_rows", counted)
    with np.errstate(over="ignore"), \
            pytest.raises(NonFinite, match=r"^strand with seed q0=1\.5707963267948966 "
                                           r"diverged by t=4\.0$"):
        selector.minimax_grid(spec, np.linspace(0.0, 5.0, 11),
                              np.linspace(0.0, 2 * np.pi, 8, endpoint=False))
    assert built == [2, 2, 2]


@pytest.fixture(scope="module")
def burgers_to_birth():
    """Burgers ending at its shock birth, t_max = 1."""
    return hj.ProblemSpec(H=hj.parse("p^2/2"), u0=hj.parse("cos(q)"),
                          domain=hj.Periodic(2 * np.pi), t_max=1.0)


def test_minimax_grid_evaluates_perestroika_row_at_its_time(
        burgers_to_birth, burgers_spec, two_hump_spec):
    # Burgers to its birth: the shock birth is the last grid row, and it
    # must be solved at t=1 itself, not at a later time past t_max. Past
    # the birth, the q=0 (and two-hump q=pi) column lies on a shock, where
    # two critical values tie: it must be solved at that q, not beside it
    for spec, nt, nq, n_seeds in ((burgers_to_birth, 16, 16, 256),
                                  (burgers_spec, 16, 32, 512),
                                  (two_hump_spec, 16, 32, 512)):
        t_grid = np.linspace(0.0, spec.t_max, nt)
        q_grid = np.linspace(0.0, 2 * np.pi, nq, endpoint=False)
        g = selector.minimax_grid(spec, t_grid, q_grid, n_seeds=n_seeds)
        Hc = viscosity.ConvexHamiltonian(H=spec.H, p_window=(-4.0, 4.0))
        lo = viscosity.lax_oleinik_grid(Hc, spec.u0, t_grid, q_grid)
        assert np.abs(g.u - lo.u).max() <= 1e-6, f"{spec.u0}, t_max={spec.t_max}"


def test_slice_analysis_stays_inside_time_range(burgers_to_birth):
    # t = t_max is the shock birth, a perestroika instant: the slice is
    # analysed there, not at a time shifted toward t=0
    spec = burgers_to_birth
    a = selector.slice_analysis(spec, 1.0, selector.default_seeds(spec, 256))
    assert a.front.time == 1.0


def test_slice_analysis_at_shock_birth_has_no_cusp(burgers_spec):
    # at the shock birth t=1 the 1024-seed slice is the vertical inflection
    # itself: no time shift, no cusp yet, and the index walk closes
    seeds = selector.default_seeds(burgers_spec, 1024, t=1.0)
    a = selector.slice_analysis(burgers_spec, 1.0, seeds)
    assert a.front.time == 1.0
    assert len(a.cusps) == 0
    assert [s.index for s in a.sections] == [0]


def test_cusp_signs_just_after_shock_birth(burgers_spec):
    # the two new cusp pairs sit one vertex apart: each sign comes from the
    # vertices around its own cusp, not from a neighbouring branch
    seeds = selector.default_seeds(burgers_spec, 512, t=1.0)
    f = selector._long_front(1.00001, *chars.evolve(burgers_spec, 1.00001, seeds))
    cusps = frontmod.detect_cusps(f)
    assert [c.vertex for c in cusps] == [163, 164, 675, 676]
    assert [c.sign for c in cusps] == [1, -1, 1, -1]


@pytest.mark.parametrize("H, u0, nt, nq, n_seeds", [
    pytest.param("p^2/2 + 0.5*sin(q)*cos(t)", "cos(q + 1.91)", 16, 32, 1024,
                 id="p^2/2 + 0.5*sin(q)*cos(t)-cos(q + 1.91)"),
    pytest.param("cos(p) - 1 + 0.5*sin(q)*cos(t)", "cos(q)", 16, 32, 1024,
                 id="cos(p) - 1 + 0.5*sin(q)*cos(t)-cos(q)"),
    pytest.param("p^2/2 + 0.5*sin(q)*cos(t)", "cos(q + 4.2)", 64, 64, 4096,
                 id="p^2/2 + 0.5*sin(q)*cos(t)-cos(q + 4.2)-64x64"),
    pytest.param("p^2/2 + 0.5*sin(q)*cos(t) + 0.2*sin(t*p)", "cos(q) + 0.3*sin(2*q)",
                 32, 64, 1024,
                 id="p^2/2 + 0.5*sin(q)*cos(t) + 0.2*sin(t*p)-cos(q) + 0.3*sin(2*q)-32x64"),
])
def test_minimax_grid_trims_folded_ends(H, u0, nt, nq, n_seeds):
    # some slices of these flows fold back at a seed-window end; the grid
    # fronts must be trimmed to long fronts like every other slice, or the
    # index walk over the sections does not close. The last two once raised
    # IndexInconsistency at these grids
    spec = hj.ProblemSpec(H=hj.parse(H), u0=hj.parse(u0),
                          domain=hj.Periodic(2 * np.pi), t_max=2.0)
    t_grid = np.linspace(0.0, 2.0, nt)
    q_grid = np.linspace(0.0, 2 * np.pi, nq, endpoint=False)
    g = selector.minimax_grid(spec, t_grid, q_grid, n_seeds=n_seeds)
    assert np.all(g.branch_count % 2 == 1)


def test_trim_long_drops_folded_ends():
    q0 = np.linspace(-1.0, 1.0, 41)
    q = q0 ** 3 - 0.5 * q0  # folds only inside: already long
    assert all(len(a) == 41 for a in selector.trim_long(q0, q, q0, q0))
    q = np.minimum(q0, 1.6 - q0)  # the last four vertices fold back
    t0, tq, tp, tz = selector.trim_long(q0, q, q0, 2 * q0)
    assert len(t0) == 37 and t0[-1] == pytest.approx(0.8)
    assert np.array_equal(tq, q[:37]) and np.array_equal(tz, 2 * t0)
    frontmod.build_front(t0, tq, tp, tz, time=1.0)  # long now: no NotLong


def test_grid_csv_schema(burgers_grid):
    text = burgers_grid.to_csv()
    lines = text.split("\n")
    assert lines[0] == "t,q,u,branch_id"
    assert len(lines) == 2 + 96 * 192  # header + rows + trailing newline
    row = lines[1].split(",")
    assert len(row) == 4 and float(row[0]) == 0.0


@pytest.mark.parametrize("n", [0, -3])
def test_default_seeds_needs_a_seed(burgers_spec, n):
    # an empty lattice made minimax_grid divide by zero sizing its batches
    with pytest.raises(ValueError, match="at least 1"):
        selector.default_seeds(burgers_spec, n)
    with pytest.raises(ValueError, match="at least 1"):
        selector.minimax_grid(burgers_spec, [0.0, 1.0], [0.0, 1.0], n_seeds=n)


def test_default_seeds_cover_domain(burgers_spec):
    # the grid's lattice covers its seed window, repeats one period on and
    # keeps off the symmetry points 0 mod L
    L, n = 2 * np.pi, 256
    lattice = selector.default_seeds(burgers_spec, n)
    assert lattice.min() < -2.0 and lattice.max() > L + 2.0
    assert np.all(np.diff(lattice) > 0)
    np.testing.assert_allclose(lattice[n:] - lattice[:-n], L, rtol=0, atol=1e-14)
    cells = np.mod(lattice, L) / (L / n)
    assert np.all(np.minimum(cells, n - cells) >= 0.3)
    # a slice's seeds are points of the grid's lattice, in a narrower window
    for t in (0.5, 1.0, 1.5):
        seeds = selector.default_seeds(burgers_spec, n, t=t)
        assert seeds.min() < 0.0 and seeds.max() > L
        assert np.all(np.isin(seeds, lattice))
    # a windowed domain gets the same lattice over its window's width
    windowed = hj.ProblemSpec(H=hj.parse("p^2/2"), u0=hj.parse("tanh(q)"),
                              domain=hj.Windowed(-5.0, 5.0), t_max=1.0)
    base_lo, base_hi, margin = selector._seed_window(windowed, None)
    seeds = selector.default_seeds(windowed, n)
    assert seeds[0] <= base_lo - margin < seeds[1]
    assert seeds[-2] < base_hi + margin <= seeds[-1]
    np.testing.assert_allclose(np.diff(seeds), 10.0 / n, rtol=1e-12)
    assert np.all(np.isin(selector.default_seeds(windowed, n, t=0.5), seeds))


def _window_spec(u0, t_max):
    return hj.ProblemSpec(H=hj.parse("p^2/2"), u0=hj.parse(u0),
                          domain=hj.Windowed(-3.0, 3.0), t_max=t_max)


@pytest.mark.parametrize("u0, t_max", [
    ("cos(q)", 1.0), ("cos(q)", 3.0),
    ("cos(q) + 0.3*sin(2*q)", 2.0), ("cos(q) + 0.5*q", 1.0),
])
def test_window_minimax_is_lax_oleinik_on_the_whole_window(u0, t_max):
    # a window is the problem on the line, as Lax-Oleinik solves it. On this
    # 32x64 grid with 1,024 seeds the two agree to 1.2e-7, 3.6e-7, 4.1e-7
    # and 1.9e-7, edge columns included; the tolerance is 1e-6. Strands
    # stopped at the edges gave 5.0e-3 and 1.25e-2 on the cos(q) grids,
    # and the other two grids did not solve
    spec = _window_spec(u0, t_max)
    t_grid, q_grid = np.linspace(0.0, t_max, 32), np.linspace(-3.0, 3.0, 64)
    mm = selector.minimax_grid(spec, t_grid, q_grid, n_seeds=1024)
    # the p-window `hjminimax compare` gives the Lax-Oleinik oracle
    _, du0 = spec.u0.eval_d(q=np.linspace(-3.0, 3.0, 257), wrt="q")
    pmax = 2.0 * float(np.max(np.abs(du0))) + 2.0
    Hc = viscosity.ConvexHamiltonian(H=spec.H, p_window=(-pmax, pmax))
    lo = viscosity.lax_oleinik_grid(Hc, spec.u0, t_grid, q_grid)
    assert np.abs(mm.u - lo.u).max() <= 1e-6


def test_window_fold_at_an_edge_eliminates():
    # strands stopped at q = 3 gave a run of dq = 0 that hid a fold, and the
    # slice raised IndexInconsistency
    spec = _window_spec("sin(q)", 3.0)
    a = selector.slice_analysis(spec, 3.0, selector.default_seeds(spec, 1024, t=3.0))
    smooth, log = selector.eliminate(a.front)
    assert len(log) == 2 and all(s.strict for s in log)
    assert not frontmod.analyze(smooth).cusps


@pytest.mark.parametrize("t_max", [1.0, 0.5])
def test_window_strands_pass_the_edges(t_max):
    # strands stopped at q = -3 piled up there, and the grid raised ("indices
    # must alternate along xi" at t_max = 1, "even crossing count" at 0.5)
    spec = _window_spec("0.5*sin(q)", t_max)
    g = selector.minimax_grid(spec, np.linspace(0.0, t_max, 16), np.linspace(-3.0, 3.0, 16),
                              n_seeds=512)
    assert np.all(np.isfinite(g.u))


def test_window_seed_margin_that_does_not_settle():
    # with u0 = -q^2 every strand meets q = 0 at t = 1/2, however far out it
    # starts: each sample of the seed window gives a margin past it
    spec = hj.ProblemSpec(H=hj.parse("p^2/2"), u0=hj.parse("-q^2"),
                          domain=hj.Windowed(-1.0, 1.0), t_max=1.0)
    t_grid, q_grid = np.linspace(0.0, 1.0, 16), np.linspace(-1.0, 1.0, 16)
    message = r"^seed margin 906\.5 past the window \[-1, 1\] does not settle in 4 samples"
    with pytest.raises(OutOfRange, match=message):
        selector.minimax_grid(spec, t_grid, q_grid, n_seeds=64)
    with pytest.raises(OutOfRange, match=message):
        viscosity.lax_friedrichs(spec, t_grid, q_grid)
