import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjminimax import expr
from hjminimax.errors import (DomainError, ExprSyntaxError, HJError, NonFinite,
                              UnknownIdentifier)


def test_arithmetic_precedence():
    e = expr.parse("1 + 2*3^2")
    assert e.eval() == 19.0


def test_power_right_associative():
    assert expr.parse("2^3^2").eval() == 512.0


def test_unary_minus_binds_below_power():
    # -x^2 parses as -(x^2)
    assert expr.parse("-2^2").eval() == -4.0


def test_division_and_parentheses():
    assert expr.parse("(1 + 3)/8").eval() == 0.5


def test_variables_broadcast():
    e = expr.parse("p^2/2 + cos(q)")
    q = np.linspace(0, 2 * np.pi, 7)
    p = 0.5
    np.testing.assert_allclose(e.eval(q=q, p=p), 0.125 + np.cos(q))


def test_function_whitelist():
    for fn in ("sin", "cos", "exp", "tanh", "sqrt"):
        e = expr.parse(f"{fn}(q)")
        assert np.isfinite(e.eval(q=0.3))
    with pytest.raises(UnknownIdentifier):
        expr.parse("log(q)")


def test_unknown_variable_rejected():
    with pytest.raises(UnknownIdentifier):
        expr.parse("x + 1")


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as ei:
        expr.parse("p^^2")
    assert ei.value.offset == 2


def test_trailing_garbage():
    with pytest.raises(ExprSyntaxError):
        expr.parse("q + 1 )")


def test_dual_derivatives_match_symbolic():
    e = expr.parse("sin(q)*exp(p) + q^3/3")
    q, p = 0.7, -0.2
    val, dq = e.eval_d(q=q, p=p, wrt="q")
    _, dp = e.eval_d(q=q, p=p, wrt="p")
    assert val == pytest.approx(np.sin(q) * np.exp(p) + q ** 3 / 3)
    assert dq == pytest.approx(np.cos(q) * np.exp(p) + q ** 2)
    assert dp == pytest.approx(np.sin(q) * np.exp(p))


def test_dual_derivative_on_arrays():
    e = expr.parse("tanh(q)")
    q = np.linspace(-2, 2, 11)
    val, d = e.eval_d(q=q, wrt="q")
    np.testing.assert_allclose(d, 1 - np.tanh(q) ** 2, rtol=1e-12)


def test_integer_power_negative_base():
    # x^3 must accept negative bases (constant integer exponent)
    e = expr.parse("q^3")
    assert e.eval(q=-2.0) == -8.0
    _, d = e.eval_d(q=-2.0, wrt="q")
    assert d == pytest.approx(12.0)


def test_noninteger_power_domain():
    e = expr.parse("q^0.5")
    assert e.eval(q=4.0) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        e.eval(q=-1.0)


def test_division_by_zero():
    with pytest.raises(DomainError):
        expr.parse("1/q").eval(q=0.0)


def test_sqrt_negative():
    with pytest.raises(DomainError):
        expr.parse("sqrt(q)").eval(q=-0.5)


def test_nonfinite_detected():
    with pytest.raises((NonFinite, DomainError)):
        expr.parse("exp(q)^100").eval(q=100.0)


def test_python_float_power_overflow_is_nonfinite():
    # a Python float raises OverflowError where numpy would give inf
    with pytest.raises(NonFinite):
        expr.parse("q^2").eval(q=1e200)
    with pytest.raises(NonFinite):
        expr.parse("3^3^3^3").eval_d(wrt="q")


def test_python_float_slope_overflow_is_a_derivative_failure():
    # 1/q at the smallest normal double is finite, its slope -1/q^2 is not:
    # a Python float and a one-element array fail the same way
    tiny = 2.2250738585072014e-308
    e = expr.parse("q^(-1)")
    assert e.eval(q=tiny) == 1.0 / tiny
    for q in (tiny, np.array([tiny])):
        with pytest.raises(NonFinite, match="derivative of 'q\\^\\(-1\\)'"):
            e.eval_d(q=q, wrt="q")
    # where the value overflows too, the value's failure is reported
    with pytest.raises(NonFinite, match="eval of"):
        expr.parse("q^(-2)").eval_d(q=1e-200, wrt="q")


def test_sqrt_at_zero_has_a_value_but_no_derivative():
    e = expr.parse("sqrt(q^2)")
    assert e.eval(q=0.0) == 0.0
    with pytest.raises(DomainError):
        e.eval_d(q=0.0, wrt="q")


def test_eval_d_tuple_returns_value_then_each_derivative():
    e = expr.parse("sin(q)*exp(p) + t^2")
    v, dp, dq, dt = e.eval_d(t=0.5, q=0.3, p=0.2, wrt=("p", "q", "t"))
    assert v == e.eval(t=0.5, q=0.3, p=0.2)
    assert (dp, dq, dt) == (np.sin(0.3) * np.exp(0.2), np.cos(0.3) * np.exp(0.2), 1.0)
    for wrt in ((), ("q", "x"), "x"):
        with pytest.raises(ValueError):
            e.eval_d(wrt=wrt)
    # every derivative is checked, not only the first: here d/dq = -1e400
    with pytest.raises(NonFinite, match="derivative"):
        expr.parse("1/q").eval_d(q=1e-200, wrt=("p", "q"))


def test_infinite_intermediate_keeps_a_zero_slope():
    # exp(1000) overflows to inf; 1/inf is 0, and so is each slope through it
    e = expr.parse("1/exp(q)")
    assert e.eval_d(q=1000.0, wrt="p") == (0.0, 0.0)
    for src in ("1/exp(q)", "q/exp(q)"):
        v, dq = expr.parse(src).eval_d(q=1000.0, wrt="q")
        assert (v, dq) == (0.0, 0.0)
        assert not isinstance(dq, np.ndarray)  # a scalar stays a scalar
    # elsewhere the quotient rule is untouched, bit for bit
    e = expr.parse("q/exp(q)")
    _, dq = e.eval_d(q=np.array([1.5, 1000.0, -2.0]), wrt="q")
    assert dq[1] == 0.0
    assert dq[0] == e.eval_d(q=1.5, wrt="q")[1]
    assert dq[2] == e.eval_d(q=-2.0, wrt="q")[1]


def test_each_zero_tangent_is_its_own_array():
    a = np.arange(3.0)
    _, dp, dt = expr.parse("q").eval_d(q=a, p=a[:, None], wrt=("p", "t"))
    assert dp.shape == dt.shape == (3, 3)
    assert dp is not dt
    assert not dp.any() and not dt.any()


@pytest.mark.parametrize("wrt", [None, "q", "p", ("p", "q")])
@pytest.mark.parametrize("src", ["q", "p", "q*p", "p + q", "2*q", "2", "t"])
def test_outputs_are_arrays_of_their_own(src, wrt):
    # every output has the points' shape, a constant's value too, and no
    # returned array is an input, another output, or an earlier call's
    q, p = np.linspace(-1.0, 1.0, 5), np.linspace(0.5, 2.0, 5)
    e = expr.parse(src)
    seen = [q, p]
    for _ in range(2):
        out = (e.eval(q=q, p=p),) if wrt is None else e.eval_d(q=q, p=p, wrt=wrt)
        for x in out:
            assert isinstance(x, np.ndarray)
            assert x.shape == (5,)
            assert not any(np.shares_memory(x, y) for y in seen)
            seen.append(x)


def test_canonical_roundtrip():
    src = "p^2/2 + cos(q) - 0.7*sin(2*q)"
    e = expr.parse(src)
    canon = e.canonical()
    again = expr.parse(canon)
    assert again.canonical() == canon
    qs = np.linspace(-3, 3, 17)
    np.testing.assert_array_equal(e.eval(q=qs, p=0.3), again.eval(q=qs, p=0.3))


def test_equal_expressions_hash_equal():
    a, b = expr.parse("p^2/2"), expr.parse("p ^ 2 / 2")
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert len({a, expr.parse("p^2/3")}) == 2


def test_variables_property():
    assert expr.parse("p^2/2").variables == frozenset({"p"})
    assert expr.parse("cos(q)*t").variables == frozenset({"q", "t"})


def test_ad_matches_finite_differences():
    rng = np.random.default_rng(7)
    exprs = ["p^2/2 + cos(q)", "sin(q)*cos(p) + t", "tanh(q*p)",
             "exp(-q^2) + p^4/4", "q^3 - q + p^2"]
    h = 1e-6
    for src in exprs:
        e = expr.parse(src)
        for _ in range(20):
            t, q, p = rng.uniform(-1.5, 1.5, 3)
            for wrt in ("t", "q", "p"):
                _, d = e.eval_d(t=t, q=q, p=p, wrt=wrt)
                args = {"t": t, "q": q, "p": p}
                up = dict(args); up[wrt] += h
                dn = dict(args); dn[wrt] -= h
                fd = (e.eval(**up) - e.eval(**dn)) / (2 * h)
                assert d == pytest.approx(fd, rel=1e-5, abs=1e-8)


# every production of the grammar: the five functions, unary minus, the four
# arithmetic operators, and integer, non-integer and non-constant exponents
_leaf = st.sampled_from(["t", "q", "p", "2", "0.5", "3", "1.7"])


def _grow(sub):
    return st.one_of(
        st.tuples(st.sampled_from(expr.FUNCTIONS), sub).map(lambda a: f"{a[0]}({a[1]})"),
        sub.map(lambda a: f"-({a})"),
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda a: f"({a[0]}) {a[1]} ({a[2]})"),
        st.tuples(sub, st.one_of(st.sampled_from(["2", "3", "-1", "0", "0.5", "1.5"]), sub))
        .map(lambda a: f"({a[0]})^({a[1]})"),
    )


_sources = st.recursive(_leaf, _grow, max_leaves=10)
_coord = st.floats(-3.0, 3.0, allow_nan=False)
_points = st.lists(st.tuples(_coord, _coord, _coord), min_size=1, max_size=4)


def _at(pts):
    """(t, q, p) as scalars for one point, as arrays for several."""
    if len(pts) == 1:
        return dict(zip("tqp", pts[0]))
    return dict(zip("tqp", (np.array(c) for c in zip(*pts))))


def _outcome(fn, **kw):
    """The result as bytes per component, or the error it raised."""
    try:
        return tuple(np.asarray(x, dtype=float).tobytes() for x in fn(**kw))
    except HJError as exc:
        return type(exc), str(exc)


def _ok(outcome):
    return isinstance(outcome[0], bytes)


@settings(max_examples=300, deadline=None)
@given(src=_sources, pts=_points)
def test_one_walk_serves_eval_and_eval_d(src, pts):
    e = expr.parse(src)
    args = _at(pts)
    plain = _outcome(lambda **kw: (e.eval(**kw),), **args)
    singles = {w: _outcome(e.eval_d, wrt=w, **args) for w in expr.VARIABLES}
    derivative_failures = {(DomainError, "sqrt derivative at zero"),
                           (NonFinite, f"non-finite value in derivative of {src!r}")}
    for single in singles.values():
        if _ok(single):
            assert plain == single[:1]  # eval(x) == eval_d(x, wrt=w)[0], bit for bit
        elif _ok(plain):
            assert single in derivative_failures
    # one walk with two tangents: the two single walks, or the first failure
    both = _outcome(e.eval_d, wrt=("p", "q"), **args)
    p, q = singles["p"], singles["q"]
    if _ok(p) and _ok(q):
        assert both == (p[0], p[1], q[1])
    else:
        assert both == (q if _ok(p) else p)
