import numpy as np
import pytest

from hjminimax import expr
from hjminimax.errors import DomainError, ExprSyntaxError, NonFinite, UnknownIdentifier


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
