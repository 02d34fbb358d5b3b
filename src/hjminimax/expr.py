"""Parser and forward-mode evaluator for scalar formulas in (t, q, p).

Expressions supply the Hamiltonian H(t,q,p) and initial condition u0(q).
First derivatives come from dual-number arithmetic, exact to rounding: one
walk of the tree carries the value and a tangent per differentiation
variable, and no tangent for plain evaluation. A structurally-zero tangent
(a constant's, or a variable's other than the one differentiated by) is
skipped by every op and comes back as +0.0.
The function whitelist is smooth-only; see docs/expr-grammar.md.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ExprSyntaxError, NonFinite, UnknownIdentifier

VARIABLES = ("t", "q", "p")
# function -> (value, slope from the argument x and the value v)
_FUNCTION_TABLE = {
    "sin": (np.sin, lambda x, v: np.cos(x)),
    "cos": (np.cos, lambda x, v: -np.sin(x)),
    "exp": (np.exp, lambda x, v: v),
    "tanh": (np.tanh, lambda x, v: 1.0 - v * v),
    "sqrt": (np.sqrt, lambda x, v: 0.5 / v),
}
FUNCTIONS = tuple(_FUNCTION_TABLE)

_BIN_OPS = {"+", "-", "*", "/", "^"}


class Dual:
    """A value and its tangents, one per differentiation variable (none for
    plain evaluation); works elementwise on scalars and numpy arrays. A
    tangent that is structurally zero is None, and every op skips it."""

    __slots__ = ("val", "dots")

    def __init__(self, val, dots):
        self.val = val
        self.dots = dots

    def __add__(self, other):
        return Dual(self.val + other.val,
                    tuple(b if a is None else a if b is None else a + b
                          for a, b in zip(self.dots, other.dots)))

    def __sub__(self, other):
        return Dual(self.val - other.val,
                    tuple(_neg(b) if a is None else a if b is None else a - b
                          for a, b in zip(self.dots, other.dots)))

    def __mul__(self, other):
        x, y = self.val, other.val
        return Dual(x * y, tuple(None if a is None and b is None
                                 else x * b if a is None
                                 else a * y if b is None
                                 else a * y + x * b
                                 for a, b in zip(self.dots, other.dots)))

    def __truediv__(self, other):
        x, y = self.val, other.val
        if not self.dots:
            return Dual(x / y, ())
        inv = 1.0 / y
        dots = tuple(None if a is None and b is None
                     else -(x * b * inv) * inv if a is None
                     else a * inv if b is None
                     else (a - x * b * inv) * inv
                     for a, b in zip(self.dots, other.dots))
        infinite = inv == 0
        if _any(infinite):  # an infinite divisor: the quotient's slope is 0
            dots = tuple(None if d is None else _zero_where(infinite, d)
                         for d in dots)
        return Dual(x / y, dots)

    def __neg__(self):
        return Dual(-self.val, tuple(_neg(a) for a in self.dots))


def _neg(a):
    return None if a is None else -a


def _zero_where(mask, d):
    """d with 0 where mask holds; a scalar stays a scalar."""
    out = np.where(mask, 0.0, d)
    return out if out.ndim else out[()]


_ARITH = {"+": Dual.__add__, "-": Dual.__sub__, "*": Dual.__mul__,
          "/": Dual.__truediv__}


def _any(mask):
    return bool(np.any(mask))


def _check_finite(x, context):
    if not np.all(np.isfinite(x)):
        raise NonFinite(f"non-finite value in {context}")


# --- tokenizer ---

def _tokenize(source):
    tokens = []  # (kind, text, offset)
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            seen_e = False
            while j < n and (source[j].isdigit() or source[j] == "."
                             or source[j] in "eE"
                             or (j > i and source[j] in "+-" and source[j - 1] in "eE" and seen_e)):
                if source[j] in "eE":
                    seen_e = True
                j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal {text!r}", i)
            tokens.append(("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
            continue
        if c in _BIN_OPS or c in "()":
            tokens.append(("op", c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent; precedence ^ > unary - > *,/ > +,-.
    Left-associative except ^ (right-associative)."""

    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text):
        kind, t, off = self.peek()
        if kind == "op" and t == text:
            return self.next()
        raise ExprSyntaxError(f"expected {text!r}", off)

    def parse(self):
        node = self.sum_()
        kind, t, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing token {t!r}", off)
        return node

    def sum_(self):
        node = self.term()
        while True:
            kind, t, _ = self.peek()
            if kind == "op" and t in "+-":
                self.next()
                node = ("bin", t, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, t, _ = self.peek()
            if kind == "op" and t in "*/":
                self.next()
                node = ("bin", t, node, self.unary())
            else:
                return node

    def unary(self):
        kind, t, _ = self.peek()
        if kind == "op" and t == "-":
            self.next()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, t, _ = self.peek()
        if kind == "op" and t == "^":
            self.next()
            # exponent binds like a unary expression; right-associative
            return ("bin", "^", base, self.unary())
        return base

    def atom(self):
        kind, t, off = self.next()
        if kind == "num":
            return ("num", float(t))
        if kind == "ident":
            if t in FUNCTIONS:
                self.expect_op("(")
                arg = self.sum_()
                self.expect_op(")")
                return ("call", t, arg)
            if t in VARIABLES:
                return ("var", t)
            raise UnknownIdentifier(f"unknown identifier {t!r} at offset {off}")
        if kind == "op" and t == "(":
            node = self.sum_()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"expected an operand, got {t!r}" if t else "unexpected end of input", off)


class Expression:
    """Immutable parsed formula over the variables t, q, p."""

    __slots__ = ("ast", "source", "_vars")

    def __init__(self, ast, source):
        self.ast = ast
        self.source = source
        self._vars = frozenset(_collect_vars(ast))

    @property
    def variables(self):
        return self._vars

    def eval(self, t=0.0, q=0.0, p=0.0):
        """Evaluate at (t,q,p); scalars or broadcastable numpy arrays."""
        return self._walk(t, q, p, ()).val

    def eval_d(self, t=0.0, q=0.0, p=0.0, wrt="q"):
        """Return (value, d/d<wrt>) via dual-number forward mode. A tuple wrt
        returns (value, d/dw1, d/dw2, ...) from the same single walk."""
        names = (wrt,) if isinstance(wrt, str) else tuple(wrt)
        if not names or any(w not in VARIABLES for w in names):
            raise ValueError(
                f"wrt must be one of {VARIABLES} or a tuple of them, got {wrt!r}")
        d = self._walk(t, q, p, names)
        return (d.val, *d.dots)

    def _walk(self, t, q, p, wrt):
        """One walk of the tree carrying a tangent per name in wrt; the value
        and every tangent are checked to be finite. A structurally-zero
        tangent is carried as None and returned as zeros of its own."""
        shape = np.broadcast(t, q, p).shape if wrt else ()
        one = np.ones(shape) if shape else 1.0
        env = {name: Dual(v, tuple(one if name == w else None for w in wrt))
               for name, v in (("t", t), ("q", q), ("p", p))}
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                d = _eval(self.ast, env, (None,) * len(wrt))
            except OverflowError:  # a Python float ** overflows by raising
                raise NonFinite(f"non-finite value in eval of {self.source!r}") from None
        _check_finite(d.val, f"eval of {self.source!r}")
        for dot in d.dots:
            if dot is not None:
                _check_finite(dot, f"derivative of {self.source!r}")
        return Dual(d.val, tuple((np.zeros(shape) if shape else 0.0) if dot is None
                                 else dot for dot in d.dots))

    def canonical(self):
        """Fully parenthesized canonical form; parse(canonical()) is a fixed point."""
        return _print(self.ast)

    def __repr__(self):
        return f"Expression({self.source!r})"

    def __eq__(self, other):
        return isinstance(other, Expression) and self.ast == other.ast

    def __hash__(self):
        return hash(("Expression", self.ast))


def parse(source: str) -> Expression:
    """Parse an infix formula in t, q, p."""
    return Expression(_Parser(source).parse(), source)


def _collect_vars(ast):
    kind = ast[0]
    if kind == "var":
        yield ast[1]
    elif kind == "neg":
        yield from _collect_vars(ast[1])
    elif kind == "call":
        yield from _collect_vars(ast[2])
    elif kind == "bin":
        yield from _collect_vars(ast[2])
        yield from _collect_vars(ast[3])


def _const_int_exponent(ast):
    """Return the integer n if ast is a constant integer (possibly negated), else None."""
    neg = False
    while ast[0] == "neg":
        neg = not neg
        ast = ast[1]
    if ast[0] == "num" and float(ast[1]).is_integer():
        n = int(ast[1])
        return -n if neg else n
    return None


def _eval(ast, env, zero):
    """The Dual of ast; env maps variables to Duals, zero is a constant's tangents."""
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
    if all(dot is None for dot in d.dots):
        return Dual(v, d.dots)
    s = slope(x, v)
    return Dual(v, tuple(None if dot is None else s * dot for dot in d.dots))


def _apply_pow(base, exp_ast, env, zero):
    """x^n for constant integer n, else b^e requiring b > 0."""
    b = base.val
    n = _const_int_exponent(exp_ast)
    if n is not None:
        if n < 0 and _any(b == 0):
            raise DomainError("zero base with negative exponent")
        if n == 0 or all(db is None for db in base.dots):
            return Dual(b ** n, (None,) * len(base.dots))
        try:
            slope = n * b ** (n - 1)
        except OverflowError:  # a Python float's slope: overflow to inf as an array's does
            slope = n * np.float64(b) ** (n - 1)
        return Dual(b ** n, tuple(None if db is None else slope * db
                                  for db in base.dots))
    e = _eval(exp_ast, env, zero)
    if _any(b <= 0):
        raise DomainError("non-integer power of a non-positive base")
    if all(db is None for db in base.dots) and all(de is None for de in e.dots):
        return Dual(b ** e.val, (None,) * len(base.dots))
    lg = np.log(b)
    v = np.exp(e.val * lg)
    return Dual(b ** e.val, tuple(None if db is None and de is None
                                  else v * (de * lg) if db is None
                                  else v * (e.val * db / b) if de is None
                                  else v * (de * lg + e.val * db / b)
                                  for db, de in zip(base.dots, e.dots)))


def _print(ast):
    kind = ast[0]
    if kind == "num":
        v = ast[1]
        return repr(int(v)) if float(v).is_integer() and abs(v) < 1e15 else repr(v)
    if kind == "var":
        return ast[1]
    if kind == "neg":
        return f"(-{_print(ast[1])})"
    if kind == "call":
        return f"{ast[1]}({_print(ast[2])})"
    return f"({_print(ast[2])} {ast[1]} {_print(ast[3])})"
