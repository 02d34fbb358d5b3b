"""The whole-array writers against the per-item ones they replaced: CSV
rows, front JSON and SVG must be byte-identical."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import writer_oracle as oracle
from hjminimax import front as frontmod
from hjminimax import selector, svg
from hjminimax.front import Cusp, DoublePoint, FrontAnalysis, FrontCurve, Section, Triangle
from hjminimax.selector import GridSolution

# floats whose spelling is easy to get wrong: signed zeros, subnormals,
# extremes, integral values past 2^53, and (where allowed) NaN and +-inf
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
           1e300, -1e300, 1.7976931348623157e308, 1e16, -1e16, 1e17, 2.0 ** 53 + 2,
           123456789.0, 0.1, 1.0 / 3.0]


def numbers(nonfinite=True):
    return st.one_of(st.sampled_from(SPECIAL),
                     st.floats(allow_nan=nonfinite, allow_infinity=nonfinite),
                     st.sampled_from([np.nan, np.inf, -np.inf] if nonfinite else [1.0]))


@st.composite
def grids(draw):
    nt, nq = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    col = st.lists(numbers(), min_size=nq, max_size=nq)
    return GridSolution(
        t=np.array(draw(st.lists(numbers(), min_size=nt, max_size=nt))),
        q=np.array(draw(col)),
        u=np.array([draw(col) for _ in range(nt)]).reshape(nt, nq),
        branch=np.array(draw(st.lists(st.integers(-3, 10 ** 6), min_size=nt * nq,
                                      max_size=nt * nq))).reshape(nt, nq),
        branch_count=np.ones((nt, nq), dtype=int))


@st.composite
def analyses(draw, nonfinite=True):
    """A front of drawn vertices with sections cut at drawn cusp vertices,
    drawn double points and triangles, and minimax pieces over the sections."""
    n = draw(st.integers(2, 24))
    num = numbers(nonfinite)
    col = st.lists(num, min_size=n, max_size=n)
    f = FrontCurve(time=draw(num), q=np.array(draw(col)), z=np.array(draw(col)),
                   p=np.array(draw(col)), q0=np.array(draw(col)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 2), max_size=4))) if n > 2 else []
    bounds = [0] + cuts + [n - 1]
    sections = tuple(Section(id=i, start=bounds[i], end=bounds[i + 1],
                             index=draw(st.integers(0, 7)),
                             kind="noncompact" if i in (0, len(cuts)) else "compact")
                     for i in range(len(bounds) - 1))
    cusps = tuple(Cusp(q=draw(num), z=draw(num), sign=draw(st.sampled_from([1, -1])),
                       vertex=v) for v in cuts)
    sec = st.integers(0, len(sections) - 1)
    doubles = tuple(DoublePoint(q=draw(num), z=draw(num), sections=(draw(sec), draw(sec)),
                                homogeneous=draw(st.booleans()), seg_a=0, frac_a=0.5,
                                seg_b=max(0, n - 2))
                    for _ in range(draw(st.integers(0, 3))))
    triangles = tuple(Triangle(vertex=d, start_seg=d.seg_a, end_seg=d.seg_b,
                               loop_sections=tuple(sorted(set(d.sections))),
                               branch_index=draw(st.integers(0, 3)))
                      for d in doubles if d.homogeneous)
    # piece ends anywhere, or within a few 1e-12 of a vertex, the filter's slack
    near_vertex = st.builds(lambda v, d: float(f.q[v]) + d, st.integers(0, n - 1),
                            st.sampled_from([-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12]))
    end = st.one_of(num, near_vertex)
    pieces = [(draw(sec), draw(end), draw(end)) for _ in range(draw(st.integers(0, 4)))]
    return FrontAnalysis(front=f, cusps=cusps, sections=sections, doubles=doubles,
                         triangles=triangles), pieces


def _same_svg(analysis, pieces):
    with np.errstate(all="ignore"):
        assert svg.render_front(analysis, pieces) == oracle.render_front(analysis, pieces)


@settings(max_examples=120, deadline=None)
@given(grids())
def test_csv_matches_per_point_rows(grid):
    assert grid.to_csv() == oracle.to_csv(grid)


@settings(max_examples=120, deadline=None)
@given(analyses())
def test_front_json_matches_indent_encoder(case):
    analysis, _ = case
    assert frontmod.front_to_json(analysis) == oracle.front_to_json(analysis)


@settings(max_examples=120, deadline=None)
@given(st.booleans().flatmap(lambda nonfinite: analyses(nonfinite)))
def test_svg_matches_per_vertex_mapping(case):
    _same_svg(*case)


def test_front_with_no_vertices_and_none_of_anything():
    f = FrontCurve(time=0.5, q=np.empty(0), z=np.empty(0), p=np.empty(0), q0=np.empty(0))
    analysis = FrontAnalysis(front=f, cusps=(), sections=(), doubles=(), triangles=())
    assert frontmod.front_to_json(analysis) == oracle.front_to_json(analysis)


def test_slice_suite_writes_as_the_oracle(slice_suite):
    for analysis in slice_suite.values():
        assert frontmod.front_to_json(analysis) == oracle.front_to_json(analysis)
        _same_svg(analysis, selector.minimax_pieces(analysis))
        smooth = frontmod.analyze(selector.eliminate(analysis.front)[0])
        assert frontmod.front_to_json(smooth) == oracle.front_to_json(smooth)


def test_grid_csv_matches_per_point_rows(burgers_grid):
    assert burgers_grid.to_csv() == oracle.to_csv(burgers_grid)
