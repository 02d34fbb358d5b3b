import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hjminimax as hj
from hjminimax import selector, singular
from hjminimax.selector import GridSolution


def synthetic_grid(u_fn, branch_fn=None, count_fn=None, nt=33, nq=64,
                   t_max=2.0, q_lim=1.0):
    t = np.linspace(0.0, t_max, nt)
    q = np.linspace(-q_lim, q_lim, nq)
    T, Q = np.meshgrid(t, q, indexing="ij")
    u = u_fn(T, Q)
    branch = branch_fn(T, Q).astype(int) if branch_fn else np.zeros_like(u, int)
    count = count_fn(T, Q).astype(int) if count_fn else np.ones_like(u, int)
    return GridSolution(t=t, q=q, u=u, branch=branch, branch_count=count)


def kinds(events):
    return sorted(e.kind for e in events)


def test_pre_caustic_slices_are_smooth(burgers_grid):
    mask = singular.singular_set(burgers_grid, periodic=True)
    pre = burgers_grid.t < 0.95
    assert not mask[pre].any()


def test_burgers_birth_and_shock(burgers_grid):
    mask = singular.singular_set(burgers_grid, periodic=True)
    events = singular.classify(burgers_grid, mask, periodic=True)
    counts = {k: kinds(events).count(k) for k in singular.KINDS}
    assert counts["ShockBirth"] == 1
    assert counts["Shock"] == 1
    assert counts["ForbiddenA"] == counts["ForbiddenB"] == 0
    assert counts["Unclassified"] == 0
    birth = next(e for e in events if e.kind == "ShockBirth")
    dt = burgers_grid.t[1] - burgers_grid.t[0]
    dq = burgers_grid.q[1] - burgers_grid.q[0]
    assert abs(birth.t - 1.0) <= 2 * dt
    dist = min(abs(birth.q), 2 * np.pi - abs(birth.q))
    assert dist <= 2 * dq


def test_stationary_shock_single_arc():
    # |q| kink present from the start: one arc, no birth, no forbidden
    g = synthetic_grid(lambda T, Q: -np.abs(Q),
                       branch_fn=lambda T, Q: (Q > 0))
    mask = singular.singular_set(g)
    events = singular.classify(g, mask)
    assert kinds(events) == ["Shock"]


def test_forbidden_a_arc_ends_with_branches():
    # kink at q=0 heals at t=1 while the fiber stays multivalued: germ that
    # a minimax solution can never produce
    def u(T, Q):
        return np.maximum(T - 1.0, -np.abs(Q))

    def branch(T, Q):
        return (Q > 0) & (T < 1.0)

    def count(T, Q):
        return np.where(np.abs(Q) < 0.5, 3, 1)

    g = synthetic_grid(u, branch, count)
    mask = singular.singular_set(g)
    events = singular.classify(g, mask)
    assert "ForbiddenA" in kinds(events)
    report = singular.forbidden_report(events)
    assert not report["ok"]
    assert report["counts"]["ForbiddenA"] >= 1


def test_forbidden_b_arc_splits():
    # single kink splitting into two diverging kinks at t=1
    def u(T, Q):
        s = 0.4 * np.maximum(T - 1.0, 0.0)
        return np.minimum(np.minimum(2 * (Q + s), 0.0), -2 * (Q - s))

    def branch(T, Q):
        s = 0.4 * np.maximum(T - 1.0, 0.0)
        return np.where(Q < -s, 0, np.where(Q <= s, 1, 2))

    g = synthetic_grid(u, branch)
    mask = singular.singular_set(g)
    events = singular.classify(g, mask)
    assert "ForbiddenB" in kinds(events)
    assert not singular.forbidden_report(events)["ok"]


def test_merge_of_two_shocks():
    # two kinks drifting together and fusing at t=1
    def u(T, Q):
        sep = np.maximum(1.0 - T, 0.0) * 0.4
        return -np.minimum(np.abs(Q - sep), np.abs(Q + sep))

    g = synthetic_grid(u, nt=33, nq=128)
    mask = singular.singular_set(g)
    events = singular.classify(g, mask)
    ks = kinds(events)
    assert "ShockMerge" in ks
    assert "ForbiddenA" not in ks and "ForbiddenB" not in ks


def test_real_shock_merge_asymmetric_two_hump():
    spec = hj.ProblemSpec(H=hj.parse("p^2/2"),
                          u0=hj.parse("cos(q) + 0.7*cos(2*q - 0.8)"),
                          domain=hj.Periodic(2 * np.pi), t_max=12.0)
    t_grid = np.linspace(0.0, 12.0, 192)
    q_grid = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    g = selector.minimax_grid(spec, t_grid, q_grid, n_seeds=2048)
    mask = singular.singular_set(g, periodic=True)
    events = singular.classify(g, mask, periodic=True)
    counts = {k: kinds(events).count(k) for k in singular.KINDS}
    assert counts["ShockMerge"] == 1
    assert counts["ShockBirth"] == 2
    assert counts["ForbiddenA"] == counts["ForbiddenB"] == 0
    assert counts["Unclassified"] == 0


@pytest.mark.parametrize("q_start", [0.0, -np.pi])
def test_seam_cluster_centre_stays_in_period(q_start):
    # cells nq-1, 0 and 1 straddle the seam symmetrically: the centre is
    # the first grid point, not one period past it
    nq = 192
    q = q_start + np.linspace(0.0, 2 * np.pi, nq, endpoint=False)
    mask = np.zeros(nq, bool)
    mask[[nq - 1, 0, 1]] = True
    (centre,) = singular._clusters(mask, q, periodic=True)
    assert q[0] <= centre < q[0] + 2 * np.pi
    assert centre == pytest.approx(q[0], abs=1e-12)


def test_events_json_roundtrip(burgers_grid):
    import json
    mask = singular.singular_set(burgers_grid, periodic=True)
    events = singular.classify(burgers_grid, mask, periodic=True)
    payload = json.loads(singular.events_to_json(events))
    assert len(payload) == len(events)
    assert all(e["kind"] in singular.KINDS for e in payload)


def test_forbidden_report_counts():
    events = [singular.SingularEvent("Shock", 1.0, 0.0),
              singular.SingularEvent("ShockBirth", 0.5, 0.0)]
    rep = singular.forbidden_report(events)
    assert rep["ok"]
    assert rep["counts"]["Shock"] == 1 and rep["counts"]["ShockBirth"] == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 1000), st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 3, None]),
       st.booleans())
def test_median_matches_numpy_bit_for_bit(n, seed, decimals, with_nan):
    # `singular_set`'s median stands in for np.median, which imports numpy.ma.
    # Rounding makes ties and signed zeros; a NaN anywhere makes it NaN.
    rng = np.random.default_rng(seed)
    x = rng.exponential(size=n) * rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.integers(-3, 4)
    if decimals is not None:
        x = np.round(x, decimals)
    if with_nan:
        x[rng.integers(n)] = np.nan
    got, expected = singular._median(x), np.median(x)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()
