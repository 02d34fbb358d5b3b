"""Acceptance gate: one test per release criterion.

Each test is named test_criterion_<n>_<label>; the conftest summary hook
turns the outcomes into one pass/fail line per criterion at the end of the
run. Expected values are computed from closed forms or independent oracles,
never from the code under test.
"""

import math
import time

import numpy as np
import pytest

import hjminimax as hj
import morse_oracle
from hjminimax import cli, front as frontmod, morse1d, selector, singular, viscosity
from hjminimax.errors import DegenerateFiber, NonGeneric
from morse_oracle import FiberFunction

TWO_PI = 2.0 * np.pi

# golden numbers: measured once on the reference run, pinned to +-20%
GOLDEN_LINF_CONVEX_PAIR = 3.578e-7


# --- shared expensive artifacts ---

@pytest.fixture(scope="module")
def convex_benchmark(burgers_spec):
    """Minimax and variational solutions of the convex benchmark on the
    256x512 grid, with the wall time of the computation."""
    t_grid = np.linspace(0.0, 3.0, 256)
    q_grid = np.linspace(0.0, TWO_PI, 512, endpoint=False)
    t0 = time.perf_counter()
    mm = selector.minimax_grid(burgers_spec, t_grid, q_grid, n_seeds=2048)
    Hc = viscosity.ConvexHamiltonian(H=burgers_spec.H, p_window=(-4.0, 4.0))
    vs = viscosity.lax_oleinik_grid(Hc, burgers_spec.u0, t_grid, q_grid)
    elapsed = time.perf_counter() - t0
    return {"minimax": mm, "variational": vs, "elapsed": elapsed}


def _random_fiber(seed, n_modes=4, window=4.0):
    rng = np.random.default_rng(seed)
    # Python floats: numpy scalars would make every values(x) call slow
    amps = (rng.uniform(0.2, 1.0, n_modes) / (np.arange(1, n_modes + 1) ** 2)).tolist()
    phases = rng.uniform(0, 2 * math.pi, n_modes).tolist()

    def values(x):
        s = 0.5 * x * x
        for k in range(n_modes):
            s += amps[k] * math.sin((k + 1) * x + phases[k])
        return s

    return FiberFunction(values=values, window=(-window, window), infinity_index=0)


def test_criterion_1_coupling_matches_persistence_oracle():
    t0 = time.perf_counter()
    for seed in range(500):
        f = _random_fiber(seed)
        try:
            pts = morse_oracle.critical_points(f, resolution=512)
            values, xi = [p.value for p in pts], [p.xi for p in pts]
            free, _ = morse1d.couple(values, [p.index for p in pts])
        except NonGeneric:
            f = morse_oracle.perturbed(f, seed)
            pts = morse_oracle.critical_points(f, resolution=512)
            values, xi = [p.value for p in pts], [p.xi for p in pts]
            free, _ = morse1d.couple(values, [p.index for p in pts])
        res = morse_oracle.persistence_pairs(f, resolution=2048)
        assert values[free] == pytest.approx(res.value, abs=1e-5)
        assert xi[free] == pytest.approx(res.free_xi, abs=8.0 / 1024)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_2_minimax_equals_variational(convex_benchmark):
    h = TWO_PI / 512
    diff = np.abs(convex_benchmark["minimax"].u - convex_benchmark["variational"].u)
    linf = float(diff.max())
    assert linf <= 10 * h
    assert 0.8 * GOLDEN_LINF_CONVEX_PAIR <= linf <= 1.2 * GOLDEN_LINF_CONVEX_PAIR
    assert convex_benchmark["elapsed"] < 60.0


def test_criterion_3_shock_birth_location(convex_benchmark):
    g = convex_benchmark["minimax"]
    mask = singular.singular_set(g, periodic=True)
    events = singular.classify(g, mask, periodic=True)
    births = [e for e in events if e.kind == "ShockBirth"]
    assert len(births) == 1
    dt = g.t[1] - g.t[0]
    dq = g.q[1] - g.q[0]
    assert abs(births[0].t - 1.0) <= 2 * dt
    assert min(abs(births[0].q), TWO_PI - abs(births[0].q)) <= 2 * dq


def _event_counts(g, periodic=True):
    mask = singular.singular_set(g, periodic=periodic)
    events = singular.classify(g, mask, periodic=periodic)
    counts = {k: 0 for k in singular.KINDS}
    for e in events:
        counts[e.kind] += 1
    return counts


def test_criterion_4_event_whitelist(convex_benchmark, two_hump_spec):
    whitelist = {"Shock", "ShockBirth", "ShockMerge"}
    suite = {"burgers": _event_counts(convex_benchmark["minimax"])}

    t_grid = np.linspace(0.0, 3.0, 96)
    q_grid = np.linspace(0.0, TWO_PI, 192, endpoint=False)
    suite["two_hump"] = _event_counts(
        selector.minimax_grid(two_hump_spec, t_grid, q_grid, n_seeds=2048))

    transport = hj.ProblemSpec(H=hj.parse("0.8*p"), u0=hj.parse("cos(q)"),
                               domain=hj.Periodic(TWO_PI), t_max=2.0)
    tg = np.linspace(0.0, 2.0, 48)
    qg = np.linspace(0.0, TWO_PI, 96, endpoint=False)
    suite["transport"] = _event_counts(
        selector.minimax_grid(transport, tg, qg, n_seeds=1024))

    nonconvex = hj.ProblemSpec(H=hj.parse("cos(p) - 1"), u0=hj.parse("cos(q)"),
                               domain=hj.Periodic(TWO_PI), t_max=2.0)
    suite["nonconvex"] = _event_counts(
        selector.minimax_grid(nonconvex, tg, qg, n_seeds=1024))

    for name, counts in suite.items():
        bad = {k: v for k, v in counts.items() if k not in whitelist and v}
        assert not bad, f"{name}: off-whitelist events {bad}"

    # classifier sensitivity: the healing-kink germ must be flagged
    t = np.linspace(0.0, 2.0, 33)
    q = np.linspace(-1.0, 1.0, 64)
    T, Q = np.meshgrid(t, q, indexing="ij")
    g = selector.GridSolution(
        t=t, q=q, u=np.maximum(T - 1.0, -np.abs(Q)),
        branch=((Q > 0) & (T < 1.0)).astype(int),
        branch_count=np.where(np.abs(Q) < 0.5, 3, 1).astype(int))
    counts = _event_counts(g, periodic=False)
    assert counts["ForbiddenA"] >= 1


def test_criterion_5_elimination_agrees_with_pointwise(slice_suite):
    for (name, t), ana in slice_suite.items():
        smooth, log = selector.eliminate(ana.front)
        wq, wz = ana.front.bbox_scale()

        def in_surgery_region(q, z):
            for s in log:
                if s.q_lo <= q <= s.q_hi:
                    return True
                if math.hypot((q - s.vertex_q) / wq, (z - s.vertex_z) / wz) \
                        <= 1.05 * s.ball_radius:
                    return True
            return False

        qs = np.linspace(0.05, TWO_PI - 0.05, 400)
        total = mismatches = 0
        for q in qs:
            try:
                z_p, sec_p = selector.select_pointwise(ana, float(q))
            except DegenerateFiber:
                continue
            v = int(np.clip(np.searchsorted(smooth.q, q), 1, len(smooth) - 1))
            if abs(smooth.q[v - 1] - q) < abs(smooth.q[v] - q):
                v -= 1
            o = int(smooth.origin[v])
            if o < 0:
                # a surgery's corner vertex: no section id to compare, but
                # the corner itself must sit in a declared surgery region
                assert in_surgery_region(q, float(smooth.z[v])), \
                    f"{name} t={t}: corner at q={q:.3f} outside surgery regions"
                continue
            total += 1
            if ana.section_of_vertex(o).id == sec_p:
                continue
            mismatches += 1
            assert in_surgery_region(q, z_p), \
                f"{name} t={t}: mismatch at q={q:.3f} outside surgery regions"
        assert total > 300
        assert mismatches / total <= 1e-3, \
            f"{name} t={t}: {mismatches}/{total} section-id mismatches"


def _section_values(front, sec, q):
    qs = front.q[sec.start:sec.end + 1]
    zs = front.z[sec.start:sec.end + 1]
    if qs[0] > qs[-1]:
        qs, zs = qs[::-1], zs[::-1]
    return np.interp(q, qs, zs)


def test_criterion_6_front_invariants(slice_suite):
    for (name, t), ana in slice_suite.items():
        f = ana.front
        assert len(ana.sections) == len(ana.cusps) + 1
        assert sum(c.sign for c in ana.cusps) == 0
        # exactness: dz = p dq along the Lagrangian curve
        dq = np.diff(f.q)
        dz = np.diff(f.z)
        pbar = 0.5 * (f.p[:-1] + f.p[1:])
        assert np.abs(dz - pbar * dq).max() <= 1e-6
        dec = selector.decompose(ana)
        sections = {s.id: s for s in ana.sections}
        sweep_lo, sweep_hi = float(f.q[0]), float(f.q[-1])
        edge = (sweep_hi - sweep_lo) / 100
        for X in dec.coupled_curves:
            lo, hi = X.q_span()
            if lo <= sweep_lo + edge or hi >= sweep_hi - edge:
                continue  # clipped by the seed window: folds lie outside it
            delta = 2 * (TWO_PI / 512) + (hi - lo) / 128
            # exactly two fold cusps, at the ends of the span
            folds = [c for c in ana.cusps
                     if min(abs(c.q - lo), abs(c.q - hi)) <= delta]
            assert len(folds) == 2, f"{name} t={t}: X_{X.id} has {len(folds)} folds"
            # upper branch stays above lower: the closed curve is embedded
            for (a, b, up, dn) in X.intervals:
                qq = np.linspace(a, b, 33)[1:-1]
                zu = _section_values(f, sections[up], qq)
                zd = _section_values(f, sections[dn], qq)
                assert np.all(zu >= zd - 1e-9)


def test_criterion_7_classical_regime(convex_benchmark):
    g = convex_benchmark["minimax"]
    rows = g.t < 0.9
    T, Q = np.meshgrid(g.t[rows], g.q, indexing="ij")
    q0 = Q.copy()
    for _ in range(60):
        q0 -= (q0 - T * np.sin(q0) - Q) / (1.0 - T * np.cos(q0))
    exact = np.cos(q0) + T * np.sin(q0) ** 2 / 2
    assert np.abs(g.u[rows] - exact).max() <= 1e-6


def test_criterion_8_numerical_hygiene(burgers_spec):
    # integrator is exact on the convex benchmark (characteristics linear in t)
    seeds = np.linspace(-1.0, 7.0, 101)
    q0, q, p, z = hj.evolve(burgers_spec, 1.5, seeds, step=0.1)
    assert np.abs(q - (q0 - 1.5 * np.sin(q0))).max() < 1e-10
    assert np.abs(p + np.sin(q0)).max() < 1e-10
    assert np.abs(z - (np.cos(q0) + 1.5 * np.sin(q0) ** 2 / 2)).max() < 1e-10

    # fourth-order convergence where the flow is genuinely nonlinear in t
    spec = hj.ProblemSpec(H=hj.parse("q*p"), u0=hj.parse("cos(q)"),
                          domain=hj.Windowed(-50.0, 50.0), t_max=2.0)
    errs = []
    for step in (0.1, 0.05, 0.025):
        _, qf, _, _ = hj.evolve(spec, 2.0, np.linspace(0.5, 3.0, 11), step=step)
        errs.append(np.abs(qf - np.linspace(0.5, 3.0, 11) * np.e ** 2).max())
    assert errs[0] / errs[1] >= 8.0
    assert errs[1] / errs[2] >= 8.0

    # forward-mode derivatives against central differences
    rng = np.random.default_rng(0)
    exprs = [hj.parse(s) for s in
             ("sin(q)*p + q^2/3", "exp(p/4)*cos(q) - t*p", "sqrt(q^2 + 1) + p^3",
              "tanh(q - p) + sin(t*p)", "cos(q)^2 * exp(-p^2/8)")]
    checked = 0
    while checked < 1000:
        e = exprs[checked % len(exprs)]
        env = {v: float(rng.uniform(-2, 2)) for v in e.variables}
        wrt = list(e.variables)[checked % len(e.variables)]
        _, d = e.eval_d(wrt=wrt, **env)
        h = 1e-6 * max(1.0, abs(env[wrt]))
        up = dict(env, **{wrt: env[wrt] + h})
        dn = dict(env, **{wrt: env[wrt] - h})
        fd = (e.eval(**up) - e.eval(**dn)) / (2 * h)
        assert d == pytest.approx(fd, rel=1e-6, abs=1e-8)
        checked += 1

    # byte-identical grids across repeated runs
    t_grid = np.linspace(0.0, 2.0, 24)
    q_grid = np.linspace(0.0, TWO_PI, 48, endpoint=False)
    csvs = [selector.minimax_grid(burgers_spec, t_grid, q_grid,
                                  n_seeds=512).to_csv() for _ in range(2)]
    assert csvs[0] == csvs[1]


NONCONVEX_INI = """\
[problem]
H = cos(p) - 1
u0 = cos(q)
domain = periodic
period = 6.283185307179586
t_max = 2.0

[grid]
nt = 24
nq = 48

[solver]
n_seeds = 512

[output]
dir = {out}
"""


def test_criterion_9_nonconvex_report(tmp_path):
    cfg = tmp_path / "nonconvex.ini"
    cfg.write_text(NONCONVEX_INI.format(out=tmp_path / "unused"))
    reports = []
    for tag in ("a", "b"):
        rc = cli.main(["compare", "--config", str(cfg),
                       "--out", str(tmp_path / tag)])
        assert rc == 0
        reports.append((tmp_path / tag / "report.txt").read_bytes())
        assert (tmp_path / tag / "lax_friedrichs.csv").exists()
        assert (tmp_path / tag / "minimax.csv").exists()
    assert reports[0] == reports[1]
    text = reports[0].decode()
    assert "not convex" in text
    assert "Linf" in text
