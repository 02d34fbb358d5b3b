"""Parser and forward-mode evaluator for scalar formulas in (t, q, p).

Expressions supply the Hamiltonian H(t,q,p) and initial condition u0(q).
First derivatives come from dual-number arithmetic, exact to rounding.
The function whitelist is smooth-only; see docs/expr-grammar.md.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ExprSyntaxError, NonFinite, UnknownIdentifier

VARIABLES = ("t", "q", "p")
FUNCTIONS = ("sin", "cos", "exp", "tanh", "sqrt")

_BIN_OPS = {"+", "-", "*", "/", "^"}


class Dual:
    """Value + derivative pair; works elementwise on scalars and numpy arrays."""

    __slots__ = ("val", "dot")

    def __init__(self, val, dot):
        self.val = val
        self.dot = dot

    def __add__(self, other):
        return Dual(self.val + other.val, self.dot + other.dot)

    def __sub__(self, other):
        return Dual(self.val - other.val, self.dot - other.dot)

    def __mul__(self, other):
        return Dual(self.val * other.val,
                    self.dot * other.val + self.val * other.dot)

    def __neg__(self):
        return Dual(-self.val, -self.dot)


def _any(mask):
    return bool(np.any(mask))


def _check_finite(x, context):
    if not np.all(np.isfinite(x)):
        raise NonFinite(f"non-finite value in {context}")
    return x


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

    def __call__(self, t=0.0, q=0.0, p=0.0):
        return self.eval(t, q, p)

    def eval(self, t=0.0, q=0.0, p=0.0):
        """Evaluate at (t,q,p); scalars or broadcastable numpy arrays."""
        with np.errstate(over="ignore", invalid="ignore"):
            val = _eval_plain(self.ast, {"t": t, "q": q, "p": p})
        return _check_finite(val, f"eval of {self.source!r}")

    def eval_d(self, t=0.0, q=0.0, p=0.0, wrt="q"):
        """Return (value, d/d<wrt>) via dual-number forward mode."""
        if wrt not in VARIABLES:
            raise ValueError(f"wrt must be one of {VARIABLES}, got {wrt!r}")
        env = {}
        shape = np.broadcast(t, q, p).shape
        one = np.ones(shape) if shape else 1.0
        zero = np.zeros(shape) if shape else 0.0
        for name, v in (("t", t), ("q", q), ("p", p)):
            env[name] = Dual(v, one if name == wrt else zero)
        with np.errstate(over="ignore", invalid="ignore"):
            d = _eval_dual(self.ast, env)
        _check_finite(d.val, f"eval of {self.source!r}")
        _check_finite(d.dot, f"derivative of {self.source!r}")
        return d.val, d.dot

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


def _eval_plain(ast, env):
    kind = ast[0]
    if kind == "num":
        return ast[1]
    if kind == "var":
        return env[ast[1]]
    if kind == "neg":
        return -_eval_plain(ast[1], env)
    if kind == "call":
        return _apply_fn(ast[1], _eval_plain(ast[2], env))
    op = ast[1]
    a = _eval_plain(ast[2], env)
    if op == "^":
        return _apply_pow(a, ast[3], env, dual=False)
    b = _eval_plain(ast[3], env)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if _any(b == 0):
            raise DomainError("division by zero")
        return a / b
    raise AssertionError(op)


def _eval_dual(ast, env):
    kind = ast[0]
    if kind == "num":
        return Dual(ast[1], 0.0)
    if kind == "var":
        return env[ast[1]]
    if kind == "neg":
        return -_eval_dual(ast[1], env)
    if kind == "call":
        return _apply_fn_dual(ast[1], _eval_dual(ast[2], env))
    op = ast[1]
    a = _eval_dual(ast[2], env)
    if op == "^":
        return _apply_pow(a, ast[3], env, dual=True)
    b = _eval_dual(ast[3], env)
    if op in "+-*":
        return {"+": a.__add__, "-": a.__sub__, "*": a.__mul__}[op](b)
    if op == "/":
        if _any(b.val == 0):
            raise DomainError("division by zero")
        inv = 1.0 / b.val
        return Dual(a.val * inv, (a.dot - a.val * b.dot * inv) * inv)
    raise AssertionError(op)


def _apply_fn(name, x):
    if name == "sqrt":
        if _any(x < 0):
            raise DomainError("sqrt of a negative value")
        return np.sqrt(x)
    return getattr(np, name)(x)


def _apply_fn_dual(name, d):
    x = d.val
    if name == "sin":
        return Dual(np.sin(x), np.cos(x) * d.dot)
    if name == "cos":
        return Dual(np.cos(x), -np.sin(x) * d.dot)
    if name == "exp":
        e = np.exp(x)
        return Dual(e, e * d.dot)
    if name == "tanh":
        th = np.tanh(x)
        return Dual(th, (1.0 - th * th) * d.dot)
    if name == "sqrt":
        if _any(x < 0):
            raise DomainError("sqrt of a negative value")
        if _any(x == 0):
            raise DomainError("sqrt derivative at zero")
        s = np.sqrt(x)
        return Dual(s, 0.5 / s * d.dot)
    raise AssertionError(name)


def _apply_pow(base, exp_ast, env, dual):
    """x^n for constant integer n, else b^e requiring b > 0."""
    n = _const_int_exponent(exp_ast)
    if n is not None:
        if dual:
            if n == 0:
                return Dual(base.val ** 0, 0.0 * base.dot)
            if n < 0 and _any(base.val == 0):
                raise DomainError("zero base with negative exponent")
            v = base.val ** n
            return Dual(v, n * base.val ** (n - 1) * base.dot)
        if n < 0 and _any(base == 0):
            raise DomainError("zero base with negative exponent")
        return base ** n
    if dual:
        e = _eval_dual(exp_ast, env)
        if _any(base.val <= 0):
            raise DomainError("non-integer power of a non-positive base")
        lg = np.log(base.val)
        v = np.exp(e.val * lg)
        return Dual(v, v * (e.dot * lg + e.val * base.dot / base.val))
    e = _eval_plain(exp_ast, env)
    if _any(base <= 0):
        raise DomainError("non-integer power of a non-positive base")
    return base ** e


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
