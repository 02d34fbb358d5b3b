import numpy as np
import pytest

import hjminimax as hj
import rk4_oracle
from flow_arrays import evolve_arrays
from hjminimax import characteristics as chars
from hjminimax import selector
from hjminimax.errors import DomainError, NonFinite


def exact_burgers(q0, t):
    """Closed-form characteristics of H=p^2/2, u0=cos q."""
    p = -np.sin(q0)
    q = q0 + t * p
    z = np.cos(q0) + t * np.sin(q0) ** 2 / 2.0
    return q, p, z


def test_rhs_signs():
    H = hj.parse("p^2/2 + 0.3*cos(q)")
    q, p = np.array([0.5]), np.array([1.2])
    dq, dp, dz = chars.char_rhs(H, 0.0, q, p, np.empty((3, 1)))
    assert dq == pytest.approx(1.2)
    assert dp == pytest.approx(0.3 * np.sin(0.5))
    assert dz == pytest.approx(1.2 ** 2 - (1.2 ** 2 / 2 + 0.3 * np.cos(0.5)))
    assert not np.shares_memory(dq, p)  # H_p is p itself: copied into out


@pytest.mark.parametrize("h", ["0.5*sin(q)*cos(t)", "p^2/2 + cos(t)"])
def test_rhs_of_structurally_zero_tangents(h):
    # a structurally zero H_p is +0.0 and -H_q of a zero H_q is -0.0, bit for
    # bit as from `eval_d`'s tangents
    H = hj.parse(h)
    q, p = np.linspace(-1.0, 2.0, 7), np.linspace(-2.0, 1.0, 7)
    hval, hp, hq = H.eval_d(t=0.3, q=q, p=p, wrt=("p", "q"))
    out = np.full((3, 7), np.nan)
    assert chars.char_rhs(H, 0.3, q, p, out) is out
    for got, want in zip(out, (hp, -hq, p * hp - hval)):
        assert got.tobytes() == want.tobytes()


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
    Q, P, Z = evolve_arrays(spec, times, seeds)
    q, p, z = chars.initial_state(spec, seeds)
    t_prev = 0.0
    for k, t in enumerate(times):
        q, p, z = chars._rk4_span(spec, t_prev, t, q, p, z, 0.005)
        t_prev = t
        np.testing.assert_allclose(Q[k], q, rtol=0, atol=1e-12)
        np.testing.assert_allclose(P[k], p, rtol=0, atol=1e-12)
        np.testing.assert_allclose(Z[k], z, rtol=0, atol=1e-12)


QFLOW_H = "p^2/2 + 0.5*sin(q)*cos(t)"
TIMES = [0.0, 0.7, 2.0]


def _rk4_every_seed(spec, times, seeds, step):
    """Each seed flowed on its own strand by RK4, as the untiled flow does."""
    q, p, z = chars.initial_state(spec, seeds)
    rows, t_prev = [], 0.0
    for t in times:
        q, p, z = chars._rk4_span(spec, t_prev, t, q, p, z, step)
        t_prev = t
        rows.append((q, p, z))
    return [np.array(r) for r in zip(*rows)]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("h", [QFLOW_H, "p^2/2"])
def test_period_lattice_is_one_period_tiled(h):
    # on the grid's lattice only the first period is flowed; `tile_row`
    # expands a row to every period, moved by k*L bit for bit, within
    # rounding of flowing every seed
    L, n = 2 * np.pi, 64
    spec = hj.ProblemSpec(H=hj.parse(h), u0=hj.parse("cos(q)"),
                          domain=hj.Periodic(L), t_max=2.0)
    seeds = selector.default_seeds(spec, n)
    N = len(seeds)
    assert N > 2 * n
    Q, P, Z = evolve_arrays(spec, TIMES, seeds, 0.01)
    assert Q.shape == P.shape == Z.shape == (len(TIMES), n)
    Q1, P1, Z1 = evolve_arrays(spec, TIMES, seeds[:n], 0.01)
    for a, b in ((Q, Q1), (P, P1), (Z, Z1)):
        assert np.array_equal(_bits(a), _bits(b))
    # reversed seeds are not sorted, so every strand is flowed
    Qd, Pd, Zd = (x[:, ::-1] for x in evolve_arrays(spec, TIMES, seeds[::-1], 0.01))
    assert Qd.shape == (len(TIMES), N)
    for r in range(len(TIMES)):
        row = chars.tile_row(spec, N, Q[r], P[r], Z[r])
        for k, lo in enumerate(range(0, N, n)):
            w = min(n, N - lo)
            assert np.array_equal(_bits(row[0][lo:lo + w]), _bits(Q1[r, :w] + k * L))
            assert np.array_equal(_bits(row[1][lo:lo + w]), _bits(P1[r, :w]))
            assert np.array_equal(_bits(row[2][lo:lo + w]), _bits(Z1[r, :w]))
        for a, b in zip(row, (Qd[r], Pd[r], Zd[r])):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    # `evolve` hands back every seed: the flow of seeds[:n] moved by k*L
    q0, q, p, z = chars.evolve(spec, TIMES[-1], seeds, 0.01)
    qn, pn, zn = (x[0] for x in evolve_arrays(spec, TIMES[-1:], seeds[:n], 0.01))
    assert np.array_equal(q0, seeds) and len(q) == len(p) == len(z) == N
    for k, lo in enumerate(range(0, N, n)):
        w = min(n, N - lo)
        assert np.array_equal(_bits(q[lo:lo + w]), _bits(qn[:w] + k * L))
        assert np.array_equal(_bits(p[lo:lo + w]), _bits(pn[:w]))
        assert np.array_equal(_bits(z[lo:lo + w]), _bits(zn[:w]))


@pytest.mark.parametrize("h, u0, unsorted", [
    (QFLOW_H, "cos(q) + 0.1*q", False),      # u0 not periodic
    ("p^2/2 + sin(q/2)", "cos(q)", False),   # H not 2*pi-periodic
    # H's q-term vanishes at t = 0 and t = t_max = 2, not in between
    ("p^2/2 + q*sin(1.5707963267948966*t)", "cos(q)", False),
    (QFLOW_H, "cos(q)", True),
])
def test_lattice_falls_back_to_every_seed(h, u0, unsorted):
    # the lattice that the test above tiles, flowed seed by seed as before
    periodic = hj.ProblemSpec(H=hj.parse(QFLOW_H), u0=hj.parse("cos(q)"),
                              domain=hj.Periodic(2 * np.pi), t_max=2.0)
    seeds = selector.default_seeds(periodic, 32)
    if unsorted:
        seeds = seeds[np.random.default_rng(3).permutation(len(seeds))]
    spec = hj.ProblemSpec(H=hj.parse(h), u0=hj.parse(u0),
                          domain=hj.Periodic(2 * np.pi), t_max=2.0)
    got = evolve_arrays(spec, TIMES, seeds, 0.01)
    assert got[0].shape[1] == len(seeds)
    want = _rk4_every_seed(spec, TIMES, seeds, 0.01)
    for a, b in zip(got, want):
        assert np.array_equal(_bits(a), _bits(b))


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


def _max_error(got, want):
    return max(np.abs(g - w).max() for g, w in zip(got, want))


def test_chosen_step_meets_the_tolerance_on_the_exact_flow():
    # H = q*p flows q -> q0 e^t, p -> p0 e^-t and keeps z = u0(q0)
    spec = hj.ProblemSpec(H=hj.parse("q*p"), u0=hj.parse("cos(q)"),
                          domain=hj.Windowed(-50.0, 50.0), t_max=2.0)
    seeds = np.linspace(-2.0, 2.0, 161)
    times = [0.5, 1.0, 2.0]
    got = evolve_arrays(spec, times, seeds)
    t = np.array(times)[:, None]
    exact = (seeds * np.exp(t), -np.sin(seeds) * np.exp(-t), np.cos(seeds) + 0 * t)
    assert _max_error(got, exact) <= chars.RK4_TOL * max(1.0, np.abs(exact[2]).max())
    # coarser than the floor, so the step was chosen
    step = chars._choose_step(spec, 2.0, *chars.initial_state(spec, seeds))
    assert spec.default_step() < step <= spec.t_max / 50


def test_chosen_step_meets_the_tolerance_on_qflow():
    # qflow's H on its periodic domain, against a t_max/16000 reference
    spec = hj.ProblemSpec(H=hj.parse(QFLOW_H), u0=hj.parse("cos(q)"),
                          domain=hj.Periodic(2 * np.pi), t_max=2.0)
    seeds = selector.default_seeds(spec, 64)
    times = np.linspace(0.0, 2.0, 64)
    got = evolve_arrays(spec, times, seeds)
    want = evolve_arrays(spec, times, seeds, spec.t_max / 16000)
    assert _max_error(got, want) <= chars.RK4_TOL * max(1.0, np.abs(want[2]).max())


def test_probe_leaving_the_domain_falls_back_to_the_floor():
    # dq/dt = -150 q: a t_max/50 RK4 stage overshoots q = 0, where sqrt(q)
    # is undefined, while the floor step keeps every q positive
    spec = hj.ProblemSpec(H=hj.parse("-150*q*p + 0.001*sqrt(q)"), u0=hj.parse("0*q"),
                          domain=hj.Windowed(-50.0, 50.0), t_max=1.0)
    seeds = np.linspace(0.5, 2.0, 5)
    state = chars.initial_state(spec, seeds)
    assert chars._choose_step(spec, 1.0, *state) == spec.default_step()
    Q, _, _ = evolve_arrays(spec, [0.5, 1.0], seeds)
    assert np.all(Q > 0)
    # at the t_max/50 step the flow itself meets q < 0 at a substep's second
    # stage, and the error is the program's, raised there
    with pytest.raises(DomainError, match="sqrt of a negative value"):
        evolve_arrays(spec, [0.5, 1.0], seeds, spec.t_max / 50)


def _count_rk4_spans(monkeypatch):
    calls = []
    rk4_span = chars._rk4_span

    def counted(*args):
        calls.append(args)
        return rk4_span(*args)
    monkeypatch.setattr(chars, "_rk4_span", counted)
    return calls


@pytest.mark.parametrize("h, step", [("p^2/2", None), ("cos(p) - 1", None),
                                     (QFLOW_H, 0.01), (QFLOW_H, 0.001)])
def test_no_probe_for_a_p_only_h_or_an_explicit_step(monkeypatch, h, step):
    # a p-only H flows in closed form, with no RK4 span, and an explicit
    # step takes one span per output time at that step: neither probes.
    # Each span runs when its row is drawn
    spec = hj.ProblemSpec(H=hj.parse(h), u0=hj.parse("cos(q)"),
                          domain=hj.Periodic(2 * np.pi), t_max=2.0)
    calls = _count_rk4_spans(monkeypatch)
    rows = chars.evolve_states(spec, TIMES, np.linspace(-1.0, 7.0, 101), step)
    assert calls == []
    for k, _ in enumerate(rows, 1):
        assert len(calls) == (0 if step is None else k)
    assert len(calls) == (0 if step is None else len(TIMES))
    assert all(c[-1] == step for c in calls)


@pytest.mark.parametrize("tol", [chars.RK4_TOL, 0.0])
def test_no_step_probes_only_a_subsample(monkeypatch, tol):
    # the probe flows every 16th strand, each level from 0 to the last time
    # at half the step of the one before; with nothing passing it stops at
    # the floor and the flow takes the floor step
    monkeypatch.setattr(chars, "RK4_TOL", tol)
    spec = hj.ProblemSpec(H=hj.parse(QFLOW_H), u0=hj.parse("cos(q)"),
                          domain=hj.Periodic(2 * np.pi), t_max=2.0)
    calls = _count_rk4_spans(monkeypatch)
    evolve_arrays(spec, TIMES, np.linspace(-1.0, 7.0, 101))
    probes, flow = calls[:-len(TIMES)], calls[-len(TIMES):]
    assert all(c[1:3] == (0.0, 2.0) and len(c[3]) == 7 for c in probes)
    steps = [c[-1] for c in probes]
    assert steps[:2] == [2.0 / 50, 2.0 / 100]
    assert all(a == 2 * b for a, b in zip(steps, steps[1:]))
    chosen = steps[-2] if tol else spec.default_step()
    if not tol:
        assert steps[-1] == 2.0 / 3200  # the fine flow of the last level >= floor
    assert all(len(c[3]) == 101 and c[-1] == chosen for c in flow)


def test_qflow_grid_slope_evaluations(monkeypatch):
    # the 64x64 qflow grid, 4,096 seeds to a period: the probe flows every
    # 16th strand of one period at 50, 100, 200 and 400 substeps (3,000
    # slope evaluations on 256 strands) and picks the 200-substep step 0.01;
    # the 63 rows after t = 0 take 4 substeps each (1,008 evaluations)
    spec = hj.ProblemSpec(H=hj.parse(QFLOW_H), u0=hj.parse("cos(q)"),
                          domain=hj.Periodic(2 * np.pi), t_max=2.0)
    widths, steps = [], []
    char_rhs, choose_step = chars.char_rhs, chars._choose_step

    def counted_rhs(H, t, q, p, out):
        widths.append(len(q))
        return char_rhs(H, t, q, p, out)

    def recorded_step(*args):
        steps.append(choose_step(*args))
        return steps[-1]
    monkeypatch.setattr(chars, "char_rhs", counted_rhs)
    monkeypatch.setattr(chars, "_choose_step", recorded_step)
    selector.minimax_grid(spec, np.linspace(0.0, 2.0, 64),
                          np.linspace(0.0, 2 * np.pi, 64, endpoint=False), n_seeds=4096)
    assert steps == [0.01]
    assert len(widths) == 4008
    assert widths[:3000] == [256] * 3000 and widths[3000:] == [4096] * 1008


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
    Q, P, Z = evolve_arrays(burgers_spec, [1.5], q0, 0.01)
    assert np.array_equal(q, Q[0]) and np.array_equal(p, P[0]) and np.array_equal(z, Z[0])


def test_incremental_times_match_direct(burgers_spec):
    # integrating through intermediate outputs must not change the endpoint
    seeds = np.linspace(0.0, 6.0, 16)
    Qa, _, Za = evolve_arrays(burgers_spec, [3.0], seeds, 0.01)
    Qb, _, Zb = evolve_arrays(burgers_spec, [1.0, 2.0, 3.0], seeds, 0.01)
    np.testing.assert_allclose(Qa[0], Qb[2], atol=1e-10)
    np.testing.assert_allclose(Za[0], Zb[2], atol=1e-10)


@pytest.mark.parametrize("h", ["p^2/2", "(1 + t)*p^2/2"], ids=["closed_form", "rk4"])
def test_windowed_strands_are_the_strands_on_the_line(h):
    # a window is the problem on the line: its strands are, bit for bit,
    # those of a periodic domain whose seeds span less than a period, which
    # flows every strand. They cross the window's edges, and the strands
    # from outside it move
    H, u0 = hj.parse(h), hj.parse("2*sin(q)")
    seeds = np.linspace(-3.0, 3.0, 61)
    windowed = hj.ProblemSpec(H=H, u0=u0, domain=hj.Windowed(-2.0, 2.0), t_max=1.0)
    periodic = hj.ProblemSpec(H=H, u0=u0, domain=hj.Periodic(2 * np.pi), t_max=1.0)
    got = chars.evolve(windowed, 1.0, seeds)
    for g, w in zip(got, chars.evolve(periodic, 1.0, seeds)):
        assert g.tobytes() == w.tobytes()
    q0, q = got[:2]
    inside = np.abs(q0) <= 2.0
    assert np.any(inside & (np.abs(q) > 2.0))
    assert np.all(q[~inside] != q0[~inside])


def test_nonfinite_detected_on_the_closed_form():
    # z = u0 + t*p^2/2 reaches 2.5e308 by t = 5 where |sin(q0)| = 1
    spec = hj.ProblemSpec(H=hj.parse("p^2/2"), u0=hj.parse("1e154*cos(q)"),
                          domain=hj.Periodic(2 * np.pi), t_max=5.0)
    with pytest.raises(NonFinite, match=r"^strand with seed q0=1\.5707963267948966 "
                                        r"diverged by t=5\.0$"):
        evolve_arrays(spec, [1.0, 5.0], np.linspace(0.0, 2 * np.pi, 9))


def test_nonfinite_detected():
    # dq/dt = exp(q) overflows from q0 = 3 well before t_max
    H = hj.parse("exp(q)*p")
    u0 = hj.parse("q^2")
    spec = hj.ProblemSpec(H=H, u0=u0, domain=hj.Windowed(-1e300, 1e300), t_max=5.0)
    with pytest.raises(NonFinite):
        chars.evolve(spec, 5.0, [3.0], step=0.05)


def test_nonfinite_detected_with_a_chosen_step():
    # the probe meets the same overflow and hands the flow the floor step,
    # which raises as it always did
    spec = hj.ProblemSpec(H=hj.parse("exp(q)*p"), u0=hj.parse("q^2"),
                          domain=hj.Windowed(-1e300, 1e300), t_max=5.0)
    with pytest.raises(NonFinite, match=r"non-finite value in eval of 'exp\(q\)\*p'"):
        chars.evolve(spec, 5.0, [3.0])


@pytest.mark.parametrize("h, error, message, oracle_error, oracle_message", [
    # exp(710) overflows at the first stage, so its slope is infinite; the
    # second stage's state is q = inf, where sqrt(800 - q) is undefined. The
    # flow checks the strands at the end of the span, so the DomainError
    # wins; the oracle checks every stage and raises the NonFinite
    ("exp(q)*p + sqrt(800 - q)", DomainError, "sqrt of a negative value",
     NonFinite, "non-finite value in eval of"),
    # H is finite and H_q = (1 - tanh(inf)^2)*inf*p^3 is NaN: one message
    # for any non-finite strand
    ("tanh(exp(q))*p^3", NonFinite, "non-finite value in eval of",
     NonFinite, "non-finite value in derivative of"),
], ids=["domain_error_wins", "one_message"])
def test_error_order_of_a_span(h, error, message, oracle_error, oracle_message):
    spec = hj.ProblemSpec(H=hj.parse(h), u0=hj.parse("q"),
                          domain=hj.Windowed(-1e300, 1e300), t_max=1.0)
    with pytest.raises(error, match=message):
        evolve_arrays(spec, [0.5, 1.0], [710.0], 0.1)
    with pytest.raises(oracle_error, match=oracle_message):
        rk4_oracle.evolve_states(spec, [0.5, 1.0], [710.0], 0.1)


def test_strands_outside_a_window_are_flowed():
    # outside [-2, 2] exp(q^2) overflows, and the strands there move on the
    # line like any other: the flow raises NonFinite, as the out-of-place
    # flow does
    spec = hj.ProblemSpec(H=hj.parse("(1 + t)*p^2/2 + exp(q^2)"), u0=hj.parse("sin(q)"),
                          domain=hj.Windowed(-2.0, 2.0), t_max=1.0)
    seeds = np.array([-30.0, -1.0, 0.5, 30.0])
    with pytest.raises(NonFinite, match="non-finite value in eval of"):
        evolve_arrays(spec, [0.5, 1.0], seeds, 0.01)
    with pytest.raises(NonFinite, match="non-finite value in eval of"):
        rk4_oracle.evolve_states(spec, [0.5, 1.0], seeds, 0.01)
