"""Parser and compiler for scalar formulas in (t, q, p).

Expressions supply the Hamiltonian H(t,q,p) and initial condition u0(q).
First derivatives are forward-mode dual numbers, exact to rounding. Each
Expression compiles its tree once per tuple of differentiation variables
(`()` for plain evaluation), on first use, into a straight-line numpy
program that computes the value and one tangent per variable. The compiler
settles up front which tangents are structurally zero (a constant's, or a
variable's other than the one differentiated by: skipped by every op and
returned as +0.0) and which are a variable's unit tangent (never multiplied
out). Checks that depend on the data run in tree order, so the first
failure is the walk's. The value and every tangent come back at the
inputs' broadcast shape, in arrays of their own.
The function whitelist is smooth-only; see docs/expr-grammar.md.
"""

from __future__ import annotations

import math
import re

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


def _zero_where(mask, d):
    """d with 0 where mask holds; a scalar stays a scalar."""
    out = np.where(mask, 0.0, d)
    return out if out.ndim else out[()]


def _any(mask):
    return bool(np.any(mask))


def _check_finite(x, context):
    if not np.isfinite(x).all():
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

    __slots__ = ("ast", "source", "_vars", "_programs")

    def __init__(self, ast, source):
        self.ast = ast
        self.source = source
        self._vars = frozenset(_collect_vars(ast))
        self._programs = {}  # wrt tuple -> compiled program, made on first use

    @property
    def variables(self):
        return self._vars

    def eval(self, t=0.0, q=0.0, p=0.0):
        """Evaluate at (t,q,p); scalars or broadcastable numpy arrays."""
        return self._run((), t, q, p)[0]

    def eval_d(self, t=0.0, q=0.0, p=0.0, wrt="q"):
        """Return (value, d/d<wrt>) via dual-number forward mode. A tuple wrt
        returns (value, d/dw1, d/dw2, ...) from the same single program."""
        names = (wrt,) if isinstance(wrt, str) else tuple(wrt)
        if not names or any(w not in VARIABLES for w in names):
            raise ValueError(
                f"wrt must be one of {VARIABLES} or a tuple of them, got {wrt!r}")
        return self._run(names, t, q, p)

    def compiled(self, wrt):
        """The compiled program of the tuple of variable names wrt, made on
        first use: (t, q, p) -> (value, d/dw1, d/dw2, ...), unchecked.

        A structurally zero tangent is None. Any other may be a scalar or
        smaller than the inputs' broadcast shape, and may be an input or the
        value itself (d/dp of q*p is q). Data checks raise DomainError in
        tree order; nothing is checked for finiteness, and a Python float
        power that overflows raises OverflowError. Run it under
        np.errstate(over="ignore", invalid="ignore"), as `eval_d` does."""
        program = self._programs.get(wrt)
        if program is None:
            program = self._programs[wrt] = _Compiler(wrt).program(self.ast)
        return program

    def _run(self, wrt, t, q, p):
        """The value and one tangent per name in wrt, each checked to be
        finite. Each has the inputs' broadcast shape, a plain scalar only
        when every input is one (a constant evaluated at an array is an
        array), and no returned array is an input or another of them."""
        shape = np.broadcast(t, q, p).shape
        program = self.compiled(wrt)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                value, *dots = program(t, q, p)
            except OverflowError:  # a Python float ** overflows by raising
                raise NonFinite(f"non-finite value in eval of {self.source!r}") from None
        out = [own(value, shape, (t, q, p))]
        _check_finite(out[0], f"eval of {self.source!r}")
        for dot in dots:
            out.append(own(dot, shape, (t, q, p, *out)))
            _check_finite(out[-1], f"derivative of {self.source!r}")
        return tuple(out)

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


def _literal(ast):
    """The value of a number, possibly negated, else None."""
    if ast[0] == "neg":
        v = _literal(ast[1])
        return None if v is None else -v
    return ast[1] if ast[0] == "num" else None


def _const_int_exponent(ast):
    """Return the integer n if ast is a constant integer (possibly negated), else None."""
    v = _literal(ast)
    return int(v) if v is not None and v.is_integer() else None


def own(x, shape, taken):
    """An output x of a compiled program at shape, in an array none of
    `taken` is: x itself when it is such an array, else a new array of its
    value (0 for a structurally zero x, None); a plain scalar when shape
    is ()."""
    if x is None:
        x = 0.0
    if not shape:
        return x[()] if isinstance(x, np.ndarray) else x
    if isinstance(x, np.ndarray) and x.shape == shape and id(x) not in map(id, taken):
        return x
    out = np.empty(shape)
    out[...] = x
    return out


# --- helpers the compiled programs call ---

def _fail_if(mask, message):
    if _any(mask):
        raise DomainError(message)


def _int_pow_slope(b, n):
    try:
        return n * b ** (n - 1)
    except OverflowError:  # a Python float's slope: overflow to inf as an array's does
        return n * np.float64(b) ** (n - 1)


def _zero_slopes(inv, *dots):
    """A quotient's tangents, 0 where its divisor is infinite (inv == 0)."""
    infinite = inv == 0
    if not _any(infinite):
        return dots
    return tuple(_zero_where(infinite, d) for d in dots)


_LOCAL = re.compile(r"\br\d+\b")  # an intermediate of a compiled program

# A variable's tangent by itself, 1 everywhere. It is never multiplied out:
# 1*x is x bit for bit, and in a sum or difference it is the literal 1.0.
_ONE = "1.0"


class _Compiler:
    """Emits the straight-line program of one tree for one wrt tuple.

    Every op becomes assignments in tree order, with the formula and operand
    order of forward-mode dual numbers; every check on the data becomes a
    `_fail_if` at the point where the op needs it. A tangent is None when
    structurally zero, _ONE when a variable's unit tangent, else the name of
    the local that holds it. No text of the formula goes into the source:
    constants and functions are names bound in the program's globals."""

    def __init__(self, wrt):
        self.wrt = wrt
        self.lines = []
        self.env = {"np": np, "_fail_if": _fail_if, "_int_pow_slope": _int_pow_slope,
                    "_zero_slopes": _zero_slopes}
        for name, (value, slope) in _FUNCTION_TABLE.items():
            self.env[name] = value
            self.env[f"{name}_slope"] = slope

    def program(self, ast):
        """The function (t, q, p) -> (value, tangent, ...); a structurally
        zero tangent is None, any other may have a smaller shape than the
        inputs' broadcast one."""
        value, dots = self.node(ast)
        outputs = (value, *map(str, dots))
        # free each intermediate after its last use, as a tree walk would:
        # arrays kept alive to the end cost fresh memory on every call
        last = {name: i for i, line in enumerate(self.lines)
                for name in _LOCAL.findall(line)}
        dead = {}
        for name, i in last.items():
            if name not in outputs:
                dead.setdefault(i, []).append(name)
        body = []
        for i, line in enumerate(self.lines):
            body.append(line)
            if i in dead:
                body.append(f"del {', '.join(dead[i])}")
        source = ("def program(t, q, p):\n"
                  + "".join(f"    {line}\n" for line in body)
                  + f"    return {''.join(f'{x}, ' for x in outputs)}\n")
        exec(compile(source, "<expression program>", "exec"), self.env)
        return self.env["program"]

    def const(self, value):
        name = f"c{len(self.env)}"
        self.env[name] = value
        return name

    def let(self, code):
        name = f"r{len(self.lines)}"
        self.lines.append(f"{name} = {code}")
        return name

    def check(self, x, test, message):
        self.lines.append(f"_fail_if({x} {test}, {message!r})")

    def mul(self, a, b):
        """a * b, where one of them may be the unit tangent."""
        if a is _ONE:
            return b
        if b is _ONE:
            return a
        return self.let(f"{a} * {b}")

    def neg(self, a):
        return None if a is None else self.let(f"-{a}")

    def node(self, ast):
        """(value, tangents) of ast, as names of locals or constants."""
        kind = ast[0]
        zero = (None,) * len(self.wrt)
        if kind == "num":
            return self.const(ast[1]), zero
        if kind == "var":
            return ast[1], tuple(_ONE if ast[1] == w else None for w in self.wrt)
        if kind == "neg":
            x, dots = self.node(ast[1])
            return self.let(f"-{x}"), tuple(map(self.neg, dots))
        if kind == "call":
            return self.call(ast[1], *self.node(ast[2]))
        op = ast[1]
        x, da = self.node(ast[2])
        if op == "^":
            return self.power(x, da, ast[3])
        y, db = self.node(ast[3])
        pairs = tuple(zip(da, db))
        if op == "+":
            return self.let(f"{x} + {y}"), tuple(
                b if a is None else a if b is None else self.let(f"{a} + {b}")
                for a, b in pairs)
        if op == "-":
            return self.let(f"{x} - {y}"), tuple(
                self.neg(b) if a is None else a if b is None else self.let(f"{a} - {b}")
                for a, b in pairs)
        if op == "*":
            return self.let(f"{x} * {y}"), tuple(
                None if a is None and b is None
                else self.mul(x, b) if a is None
                else self.mul(a, y) if b is None
                else self.let(f"{self.mul(a, y)} + {self.mul(x, b)}")
                for a, b in pairs)
        # a finite nonzero constant divisor needs no check and is never infinite
        lit = _literal(ast[3])
        steady = lit is not None and 0 < abs(lit) < math.inf
        if not steady:
            self.check(y, "== 0", "division by zero")
        if all(a is None and b is None for a, b in pairs):
            return self.let(f"{x} / {y}"), zero
        inv = self.let(f"1.0 / {y}")
        dots = [None if a is None and b is None
                else self.let(f"-({self.mul(x, b)} * {inv}) * {inv}") if a is None
                else self.mul(a, inv) if b is None
                else self.let(f"({a} - {self.mul(x, b)} * {inv}) * {inv}")
                for a, b in pairs]
        if not steady:
            live = [i for i, d in enumerate(dots) if d is not None]
            zeroed = self.let(f"_zero_slopes({inv}, {', '.join(dots[i] for i in live)})")
            for k, i in enumerate(live):
                dots[i] = self.let(f"{zeroed}[{k}]")
        return self.let(f"{x} / {y}"), tuple(dots)

    def call(self, name, x, dots):
        if name == "sqrt":
            self.check(x, "< 0", "sqrt of a negative value")
            if self.wrt:
                self.check(x, "== 0", "sqrt derivative at zero")
        v = self.let(f"{name}({x})")
        if all(d is None for d in dots):
            return v, dots
        s = self.let(f"{name}_slope({x}, {v})")
        return v, tuple(None if d is None else self.mul(s, d) for d in dots)

    def power(self, b, dbs, exp_ast):
        """b^n for a constant integer n, else b^e requiring b > 0."""
        zero = (None,) * len(self.wrt)
        n = _const_int_exponent(exp_ast)
        if n is not None:
            if n < 0:
                self.check(b, "== 0", "zero base with negative exponent")
            c = self.const(n)
            v = self.let(f"{b} ** {c}")
            if n == 0 or all(d is None for d in dbs):
                return v, zero
            # b ** 1 is b exactly and cannot overflow: the square's slope skips it
            slope = self.let(f"{c} * {b}" if n == 2 else f"_int_pow_slope({b}, {c})")
            return v, tuple(None if d is None else self.mul(slope, d) for d in dbs)
        e, des = self.node(exp_ast)
        self.check(b, "<= 0", "non-integer power of a non-positive base")
        v = self.let(f"{b} ** {e}")
        if all(d is None for d in dbs + des):
            return v, zero
        lg = self.let(f"np.log({b})")
        w = self.let(f"np.exp({e} * {lg})")
        return v, tuple(None if db is None and de is None
                        else self.let(f"{w} * ({self.mul(de, lg)})") if db is None
                        else self.let(f"{w} * ({self.mul(e, db)} / {b})") if de is None
                        else self.let(f"{w} * ({self.mul(de, lg)} + {self.mul(e, db)} / {b})")
                        for db, de in zip(dbs, des))


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
