"""Dense-tangent reference version of the dual-number walk in `hjminimax.expr`.

This is the walk the sparse one replaced, kept only as a test oracle: every
variable carries a full `ones` or `zeros` tangent per differentiation
variable, every constant a `0.0` one, and every op multiplies and adds them
all. Where both walks succeed, the values must be equal bit for bit and the
derivatives equal by `==`: the sparse walk skips the zeros, so it can differ
in the sign of a zero. A zero tangent times an infinite intermediate is NaN
here, so the oracle raises `NonFinite` at some points where the sparse walk
returns a finite result.
"""

import numpy as np

from hjminimax.errors import DomainError, NonFinite
from hjminimax.expr import _FUNCTION_TABLE, _any, _check_finite, _const_int_exponent


class Dual:
    __slots__ = ("val", "dots")

    def __init__(self, val, dots):
        self.val = val
        self.dots = dots

    def __add__(self, other):
        return Dual(self.val + other.val,
                    tuple(a + b for a, b in zip(self.dots, other.dots)))

    def __sub__(self, other):
        return Dual(self.val - other.val,
                    tuple(a - b for a, b in zip(self.dots, other.dots)))

    def __mul__(self, other):
        return Dual(self.val * other.val,
                    tuple(a * other.val + self.val * b
                          for a, b in zip(self.dots, other.dots)))

    def __truediv__(self, other):
        if not self.dots:
            return Dual(self.val / other.val, ())
        inv = 1.0 / other.val
        return Dual(self.val / other.val,
                    tuple((a - self.val * b * inv) * inv
                          for a, b in zip(self.dots, other.dots)))

    def __neg__(self):
        return Dual(-self.val, tuple(-a for a in self.dots))


_ARITH = {"+": Dual.__add__, "-": Dual.__sub__, "*": Dual.__mul__,
          "/": Dual.__truediv__}


def eval_d(e, t=0.0, q=0.0, p=0.0, wrt=("q",)):
    """(value, d/dw1, d/dw2, ...) of Expression e, as `Expression.eval_d`."""
    shape = np.broadcast(t, q, p).shape
    one = np.ones(shape) if shape else 1.0
    zero = np.zeros(shape) if shape else 0.0
    env = {name: Dual(v, tuple(one if name == w else zero for w in wrt))
           for name, v in (("t", t), ("q", q), ("p", p))}
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            d = _eval(e.ast, env, (0.0,) * len(wrt))
        except OverflowError:
            raise NonFinite(f"non-finite value in eval of {e.source!r}") from None
    _check_finite(d.val, f"eval of {e.source!r}")
    for dot in d.dots:
        _check_finite(dot, f"derivative of {e.source!r}")
    return (d.val, *d.dots)


def _eval(ast, env, zero):
    kind = ast[0]
    if kind == "num":
        return Dual(ast[1], zero)
    if kind == "var":
        return env[ast[1]]
    if kind == "neg":
        return -_eval(ast[1], env, zero)
    if kind == "call":
        return _apply_fn(ast[1], _eval(ast[2], env, zero))
    op = ast[1]
    a = _eval(ast[2], env, zero)
    if op == "^":
        return _apply_pow(a, ast[3], env, zero)
    b = _eval(ast[3], env, zero)
    if op == "/" and _any(b.val == 0):
        raise DomainError("division by zero")
    return _ARITH[op](a, b)


def _apply_fn(name, d):
    x = d.val
    if name == "sqrt":
        if _any(x < 0):
            raise DomainError("sqrt of a negative value")
        if d.dots and _any(x == 0):
            raise DomainError("sqrt derivative at zero")
    value, slope = _FUNCTION_TABLE[name]
    v = value(x)
    if not d.dots:
        return Dual(v, ())
    s = slope(x, v)
    return Dual(v, tuple(s * dot for dot in d.dots))


def _apply_pow(base, exp_ast, env, zero):
    b = base.val
    n = _const_int_exponent(exp_ast)
    if n is not None:
        if n < 0 and _any(b == 0):
            raise DomainError("zero base with negative exponent")
        slope = 0.0 if n == 0 or not base.dots else n * b ** (n - 1)
        return Dual(b ** n, tuple(slope * d for d in base.dots))
    e = _eval(exp_ast, env, zero)
    if _any(b <= 0):
        raise DomainError("non-integer power of a non-positive base")
    if not base.dots:
        return Dual(b ** e.val, ())
    lg = np.log(b)
    v = np.exp(e.val * lg)
    return Dual(b ** e.val, tuple(v * (de * lg + e.val * db / b)
                                  for db, de in zip(base.dots, e.dots)))
