"""The sparse-tangent walk of `hjminimax.expr` against the dense-tangent walk
it replaced (`expr_oracle`)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import expr_oracle as oracle
from hjminimax import expr
from hjminimax.characteristics import char_rhs
from hjminimax.errors import HJError, NonFinite
from test_expr import _at, _points, _sources

# each variable alone, the pair char_rhs asks for, and all three
_WRTS = (("t",), ("q",), ("p",), ("p", "q"), ("t", "q", "p"))


def _result(fn, *args, **kw):
    """The returned tuple, or the error it raised."""
    try:
        return fn(*args, **kw)
    except HJError as exc:
        return type(exc), str(exc)


def _ok(result):
    return not (isinstance(result[0], type) and issubclass(result[0], HJError))


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(src=_sources, pts=_points)
@example(src="1/exp(q)", pts=[(0.0, 1000.0, 0.0)])
@example(src="(t)^(-1) / ((q) - (q))", pts=[(2.2250738585072014e-308, 1.0, 0.0)])
def test_sparse_walk_matches_dense_oracle(src, pts):
    e = expr.parse(src)
    args = _at(pts)
    shape = np.broadcast(*args.values()).shape
    for wrt in _WRTS:
        got = _result(e.eval_d, wrt=wrt, **args)
        want = _result(oracle.eval_d, e, wrt=wrt, **args)
        if _ok(got) and _ok(want):
            assert len(got) == len(want) == 1 + len(wrt)
            # the value and every tangent have the shape of the point set;
            # the dense walk gave a constant's value and derivative as scalars
            assert _bits(got[0]) == _bits(np.broadcast_to(want[0], shape))
            for g, w in zip(got[1:], want[1:]):
                assert np.shape(g) == shape
                assert np.all(g == w)  # by value: -0.0 == 0.0
        elif not _ok(got) and got != want:
            # the dense walk can stop earlier, where a Python float
            # overflows in the slope of an integer power: the sparse walk
            # computes no slope for a base that carries only zero tangents
            # and takes an overflowing one as inf, as an array's would be;
            # plain evaluation computes no slope and gets past that point
            assert want == (NonFinite, f"non-finite value in eval of {src!r}")
            assert _result(oracle.eval_d, e, wrt=(), **args) != want


def test_char_rhs_matches_dense_oracle_bit_for_bit():
    # the time-dependent H of the qflow benchmark workload
    H = expr.parse("p^2/2 + 0.5*sin(q)*cos(t)")
    rng = np.random.default_rng(11)
    q = rng.uniform(-np.pi, 3 * np.pi, 4096)
    p = rng.uniform(-2.0, 2.0, 4096)
    for t in (0.0, 0.37, 2.5):
        hval, hp, hq = oracle.eval_d(H, t=t, q=q, p=p, wrt=("p", "q"))
        want = (hp, -hq, p * hp - hval)
        for g, w in zip(char_rhs(H, t, q, p), want):
            assert _bits(g) == _bits(w)
