"""`singular.classify` against the arc-chaining loop it replaced."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import singular_oracle as oracle
from hjminimax import singular
from hjminimax.selector import GridSolution

track = st.tuples(
    st.integers(0, 23),                 # first row
    st.integers(1, 24),                 # rows it lasts
    st.integers(-4, 100),               # first cell, past the grid ends too
    st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -3.0, 8.0, -8.0, 9.0]),  # cells per row
    st.integers(1, 3))                  # width in cells


@st.composite
def grids(draw):
    """A grid with a mask of drifting singular runs plus noise, and random
    crossing counts. The dyadic window spaces its points exactly, so an arc
    moving MATCH_RADIUS_CELLS cells in a row lands exactly on the radius."""
    nt = draw(st.integers(2, 24))
    nq = draw(st.sampled_from([16, 17, 33, 48, 65, 96]))
    layout = draw(st.sampled_from(["periodic", "window", "dyadic"]))
    q_start = draw(st.sampled_from([0.0, -np.pi]))
    if layout == "periodic":
        q = q_start + np.linspace(0.0, 2 * np.pi, nq, endpoint=False)
    elif layout == "window":
        q = np.linspace(q_start, q_start + 2 * np.pi, nq)
    else:
        q = q_start + np.arange(nq) / 16.0
    periodic = layout == "periodic"
    mask = np.zeros((nt, nq), bool)
    for row0, rows, j0, drift, width in draw(st.lists(track, max_size=5)):
        for i in range(row0, min(nt, row0 + rows)):
            j = int(round(j0 + drift * (i - row0)))
            cells = np.arange(j, j + width)
            cells = cells % nq if periodic else cells[(cells >= 0) & (cells < nq)]
            mask[i, cells] = True
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask |= rng.random((nt, nq)) < draw(st.sampled_from([0.0, 0.02, 0.1]))
    counts = rng.choice([1, 3, 5], size=(nt, nq),
                        p=draw(st.sampled_from([[1, 0, 0], [0.8, 0.15, 0.05],
                                                [0.3, 0.5, 0.2], [0, 0.5, 0.5]])))
    t = np.linspace(0.0, 1.0, nt)
    zeros = np.zeros((nt, nq))
    g = GridSolution(t=t, q=q, u=zeros, branch=zeros.astype(int), branch_count=counts)
    return g, mask, periodic


@settings(max_examples=300, deadline=None)
@given(grids())
def test_classify_matches_the_former_arc_loop(case):
    g, mask, periodic = case
    got = singular.classify(g, mask, periodic=periodic)
    expected = oracle.classify(g, mask, periodic=periodic)
    assert singular.events_to_json(got) == singular.events_to_json(expected)
    for row in mask:
        assert singular._clusters(row, g.q, periodic) == \
            [c["q"] for c in oracle._clusters(row, g.q, periodic)]
