"""Smooth scalar expressions in the variables x1, x2, s, y, lam.

Grammar (infix, case sensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ['^' factor]          # exponent must fold to a constant
    atom   := NUMBER | VARIABLE | FUNC '(' expr ')' | '(' expr ')'

with VARIABLE one of ``x1 x2 s y lam`` and FUNC one of ``sin cos exp ln
sqrt``.  Non-smooth primitives (min, max, abs, ...) are rejected at parse
time: every admissible expression is C^2 on its evaluation domain, which the
symbolic differentiation below relies on.

Expressions are trees of frozen, slotted dataclass nodes: assigning to a
node's field raises ``AttributeError``, two nodes are equal and hash alike
when they have the same type and equal fields, and ``repr`` shows the
printed form, as in ``Add(x1 + y)``.  ``Expr.eval`` is numpy-vectorized and
raises ``EvalError`` on domain violations (ln of a non-positive value, sqrt
of a negative value, division by zero, fractional power of a negative base).
``differentiate`` returns a new tree in the same grammar; the only
simplification performed is constant folding plus elimination of 0/1
identities, so derivative trees stay printable and re-parseable.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

VARIABLES = ("x1", "x2", "s", "y", "lam")

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")

#: Identifiers rejected with a dedicated message: admitting any of these
#: would break differentiability of the integrands.
NON_SMOOTH = ("min", "max", "abs", "sign", "heaviside", "floor", "ceil")


class ExprError(ValueError):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Syntax or vocabulary error, with the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} at position {pos}: {text!r}")


class EvalError(ExprError):
    """Unbound variable or numeric domain violation during evaluation."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Expr:
    """Base node.  Subclasses are frozen, slotted dataclasses: their fields
    are the node's data, and equality and hashing follow type and
    structure.  ``_children`` names the fields that hold sub-expressions,
    and ``prec`` is the node's binding strength in printed form."""

    __slots__ = ()
    _children = ()

    def eval(self, env):
        """Evaluate with ``env`` mapping variable names to floats/arrays."""
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def free_vars(self) -> frozenset:
        return frozenset().union(
            *(getattr(self, name).free_vars() for name in self._children))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


@dataclass(frozen=True, slots=True, repr=False)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))

    def eval(self, env):
        return self.value

    def diff(self, var):
        return Const(0.0)

    @property
    def prec(self):
        return 5 if self.value >= 0 else 1

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True, slots=True, repr=False)
class Var(Expr):
    name: str
    prec = 5

    def __post_init__(self):
        if self.name not in VARIABLES:
            raise ExprError(f"unknown variable {self.name!r}")

    def eval(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise EvalError(f"unbound variable {self.name!r}") from None

    def diff(self, var):
        return Const(1.0 if self.name == var else 0.0)

    def free_vars(self):
        return frozenset((self.name,))

    def __str__(self):
        return self.name


@dataclass(frozen=True, slots=True, repr=False)
class _Binary(Expr):
    """A binary operator: subclasses set its symbol ``op``, ``prec`` and
    the function ``fn`` that :meth:`eval` applies to the operands' values
    (``Div`` evaluates itself, to check the denominator)."""

    left: Expr
    right: Expr
    _children = ("left", "right")

    def eval(self, env):
        return self.fn(self.left.eval(env), self.right.eval(env))

    def __str__(self):
        # left-associative chains: right operand needs strictly higher binding
        return (f"{_paren(self.left, self.prec)} {self.op} "
                f"{_paren(self.right, self.prec + 1)}")


def _paren(e: Expr, minimum: int) -> str:
    s = str(e)
    return f"({s})" if e.prec < minimum else s


class Add(_Binary):
    __slots__ = ()
    op, fn, prec = "+", operator.add, 1

    def diff(self, var):
        return add(self.left.diff(var), self.right.diff(var))


class Sub(_Binary):
    __slots__ = ()
    op, fn, prec = "-", operator.sub, 1

    def diff(self, var):
        return sub(self.left.diff(var), self.right.diff(var))


class Mul(_Binary):
    __slots__ = ()
    op, fn, prec = "*", operator.mul, 2

    def diff(self, var):
        return add(mul(self.left.diff(var), self.right),
                   mul(self.left, self.right.diff(var)))


class Div(_Binary):
    __slots__ = ()
    op, prec = "/", 2

    def eval(self, env):
        den = self.right.eval(env)
        if np.any(np.asarray(den) == 0.0):
            raise EvalError(f"division by zero in {self}")
        return self.left.eval(env) / den

    def diff(self, var):
        # (u/v)' = u'/v - u v'/v^2
        u, v = self.left, self.right
        return sub(div(u.diff(var), v),
                   div(mul(u, v.diff(var)), mul(v, v)))


@dataclass(frozen=True, slots=True, repr=False)
class Neg(Expr):
    arg: Expr
    _children = ("arg",)
    prec = 2

    def eval(self, env):
        return -self.arg.eval(env)

    def diff(self, var):
        return neg(self.arg.diff(var))

    def __str__(self):
        return f"-{_paren(self.arg, 3)}"


@dataclass(frozen=True, slots=True, repr=False)
class Pow(Expr):
    """Power with a constant real exponent."""

    base: Expr
    exponent: float
    _children = ("base",)
    prec = 4

    def __post_init__(self):
        object.__setattr__(self, "exponent", float(self.exponent))

    def eval(self, env):
        b = self.base.eval(env)
        p = self.exponent
        if p != round(p) and np.any(np.asarray(b) < 0.0):
            raise EvalError(f"fractional power of a negative base in {self}")
        if p < 0 and np.any(np.asarray(b) == 0.0):
            raise EvalError(f"negative power of zero in {self}")
        return b ** p

    def diff(self, var):
        # d/dv b^p = p b^(p-1) b'
        p = self.exponent
        if p == 0.0:
            return Const(0.0)
        return mul(mul(Const(p), power(self.base, p - 1.0)),
                   self.base.diff(var))

    def __str__(self):
        expo = repr(self.exponent) if self.exponent >= 0 \
            else f"({self.exponent!r})"
        return f"{_paren(self.base, 5)}^{expo}"


@dataclass(frozen=True, slots=True, repr=False)
class Call(Expr):
    func: str
    arg: Expr
    _children = ("arg",)
    prec = 5

    #: per function: its numpy ufunc; the test that flags an argument
    #: outside the domain, with what it flags (None: no such argument);
    #: and the outer derivative ``f'(arg)`` built from the node
    _table = {
        "sin": (np.sin, None, lambda f: Call("cos", f.arg)),
        "cos": (np.cos, None, lambda f: neg(Call("sin", f.arg))),
        "exp": (np.exp, None, lambda f: f),
        "ln": (np.log, (np.less_equal, "a non-positive value"),
               lambda f: div(Const(1.0), f.arg)),
        "sqrt": (np.sqrt, (np.less, "a negative value"),
                 lambda f: div(Const(1.0), mul(Const(2.0), f))),
    }

    def __post_init__(self):
        if self.func not in FUNCTIONS:
            raise ExprError(f"unknown function {self.func!r}")

    def eval(self, env):
        x = self.arg.eval(env)
        fn, domain, _ = self._table[self.func]
        if domain and np.any(domain[0](np.asarray(x), 0.0)):
            raise EvalError(f"{self.func} of {domain[1]} in {self}")
        return fn(x)

    def diff(self, var):
        return mul(self._table[self.func][2](self), self.arg.diff(var))

    def __str__(self):
        return f"{self.func}({self.arg})"


# ---------------------------------------------------------------------------
# Folding constructors
# ---------------------------------------------------------------------------


def _const(e: Expr):
    return e.value if isinstance(e, Const) else None


def _folded(value: float) -> Const:
    if not np.isfinite(value):
        raise ExprError("constant overflows the float range")
    return Const(value)


def add(a: Expr, b: Expr) -> Expr:
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None:
        return _folded(ca + cb)
    if ca == 0.0:
        return b
    if cb == 0.0:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None:
        return _folded(ca - cb)
    if cb == 0.0:
        return a
    if ca == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    ca, cb = _const(a), _const(b)
    if ca is not None and cb is not None:
        return _folded(ca * cb)
    if ca == 0.0 or cb == 0.0:
        return Const(0.0)
    if ca == 1.0:
        return b
    if cb == 1.0:
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    ca, cb = _const(a), _const(b)
    if cb == 0.0:
        raise ExprError("division by the constant zero")
    if ca is not None and cb is not None:
        return _folded(ca / cb)
    if ca == 0.0:
        return Const(0.0)
    if cb == 1.0:
        return a
    return Div(a, b)


def neg(a: Expr) -> Expr:
    ca = _const(a)
    if ca is not None:
        return Const(-ca)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def power(base: Expr, exponent: float) -> Expr:
    cb = _const(base)
    if exponent == 1.0:
        return base
    if exponent == 0.0:
        return Const(1.0)
    if cb is not None:
        if cb < 0.0 and exponent != round(exponent):
            raise ExprError("fractional power of a negative constant")
        if cb == 0.0 and exponent < 0.0:
            raise ExprError("negative power of zero")
        try:
            return _folded(cb ** exponent)
        except OverflowError:
            raise ExprError("constant overflows the float range") from None
    return Pow(base, exponent)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad]!r}", text, bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", self.text, pos)
        self.next()

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", self.text, pos)
        return e

    def build(self, make, *args, pos: int) -> Expr:
        # a node from the constructors above; what they reject (division
        # by zero, a constant that overflows) is a ParseError at ``pos``
        try:
            return make(*args)
        except ExprError as exc:
            raise ParseError(str(exc), self.text, pos) from None

    def chain(self, operand, makers: dict) -> Expr:
        # operands joined left-associatively by the operators of ``makers``
        e = operand()
        kind, val, pos = self.peek()
        while kind == "op" and val in makers:
            self.next()
            e = self.build(makers[val], e, operand(), pos=pos)
            kind, val, pos = self.peek()
        return e

    def expr(self) -> Expr:
        return self.chain(self.term, {"+": add, "-": sub})

    def term(self) -> Expr:
        return self.chain(self.factor, {"*": mul, "/": div})

    def factor(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            expo = self.factor()
            if not isinstance(expo, Const):
                raise ParseError("exponent must be a constant",
                                 self.text, pos)
            return self.build(power, base, expo.value, pos=pos)
        return base

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "num":
            return self.build(_folded, float(val), pos=pos)
        if kind == "name":
            if val in VARIABLES:
                return Var(val)
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            if val in NON_SMOOTH:
                raise ParseError(
                    f"non-smooth primitive {val!r} is not allowed "
                    "(expressions must be twice differentiable)",
                    self.text, pos)
            raise ParseError(f"unknown identifier {val!r}", self.text, pos)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        shown = val if val else "end of input"
        raise ParseError(f"unexpected {shown!r}", self.text, pos)


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises
    ------
    ParseError
        On syntax errors, unknown identifiers, non-constant exponents,
        non-smooth primitives, or a number or folded constant outside the
        float range; the message carries the character position.
    """
    if not isinstance(text, str):
        raise TypeError("expression source must be a string")
    if not text.strip():
        raise ParseError("empty expression", text, 0)
    return _Parser(text).parse()


def differentiate(e: Expr, var: str, order: int = 1) -> Expr:
    """Symbolic partial derivative of ``e`` with respect to ``var``.

    ``var`` must be ``"y"`` or ``"lam"`` (the unknowns the calculus needs);
    ``order`` is 1 or 2.  Mixed derivatives compose:
    ``differentiate(differentiate(e, "y"), "lam")``.
    """
    if var not in ("y", "lam"):
        raise ExprError(f"differentiation variable must be y or lam, got {var!r}")
    if order not in (1, 2):
        raise ExprError(f"derivative order must be 1 or 2, got {order!r}")
    result = e
    for _ in range(order):
        result = result.diff(var)
    return result


__all__ = [
    "VARIABLES", "FUNCTIONS", "NON_SMOOTH",
    "Expr", "Const", "Var", "Add", "Sub", "Mul", "Div", "Neg", "Pow", "Call",
    "ExprError", "ParseError", "EvalError",
    "parse", "differentiate",
]
