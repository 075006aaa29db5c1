"""Symbolic expression kernel: parsing, evaluation, exact differentiation.

Expressions are immutable trees over named real variables (chart coordinates
``x1..xn, y1..yn`` plus user parameters). Three independent derivative routes
are provided and cross-checked by the test suite:

* :func:`partial` -- exact symbolic differentiation (constant-folded),
* :func:`evaluate_dual` -- forward-mode dual-number propagation,
* central finite differences (tests only).

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' number)?
    base   := number | ident | '(' expr ')' | func '(' expr ')'
    func   := exp | ln | sqrt | sin | cos | abs | sign
    ident  := letter (letter|digit)*

Exponents are numeric literals only; write ``exp(y*ln(x))`` for a variable
exponent. ``sign`` appears in derivatives of ``abs`` and is accepted on input
so that printing round-trips.
"""

from __future__ import annotations

import math
import re
from itertools import repeat
from typing import Iterable, Mapping, Optional

import numpy as np


class ExpressionError(Exception):
    """Base class for expression-level failures."""


class ParseError(ExpressionError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class UndeclaredIdentifier(ParseError):
    def __init__(self, name: str, position: int):
        super().__init__(f"undeclared identifier '{name}'", position)
        self.name = name


class UnboundVariable(ExpressionError):
    def __init__(self, name: str):
        super().__init__(f"no value bound for variable '{name}'")
        self.name = name


class DomainViolation(ExpressionError):
    """Recoverable per-point failure (log of non-positive, 0^-1, sign(0), ...).

    Samplers treat the offending point as invalid and resample; it is never
    a fatal condition.
    """

    def __init__(self, expr: "Expr", reason: str):
        super().__init__(f"{reason} in '{expr.to_source()}'")
        self.expr = expr
        self.reason = reason


class Overflow(DomainViolation):
    """A power too large for a float: the value blows up at the point."""


# ---------------------------------------------------------------------------
# dual numbers (forward mode)
# ---------------------------------------------------------------------------


class Dual:
    """Value/derivative pair propagated through arithmetic.

    Domain checks mirror :meth:`Expr.evaluate` exactly so the two routes
    accept and reject the same points.
    """

    __slots__ = ("val", "dot")

    def __init__(self, val: float, dot: float = 0.0):
        self.val = val
        self.dot = dot

    def __repr__(self):
        return f"Dual({self.val!r}, {self.dot!r})"

    def __add__(self, other):
        other = _as_dual(other)
        return Dual(self.val + other.val, self.dot + other.dot)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_dual(other)
        return Dual(self.val - other.val, self.dot - other.dot)

    def __rsub__(self, other):
        return _as_dual(other) - self

    def __mul__(self, other):
        other = _as_dual(other)
        return Dual(self.val * other.val, self.val * other.dot + self.dot * other.val)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_dual(other)
        square = other.val * other.val
        # val^2 can underflow to 0 where val does not; a float64 would then
        # give inf instead of raising as a Python float does
        if square == 0.0:
            raise ZeroDivisionError("dual division by zero")
        return Dual(
            self.val / other.val,
            (self.dot * other.val - self.val * other.dot) / square,
        )

    def __rtruediv__(self, other):
        return _as_dual(other) / self

    def __neg__(self):
        return Dual(-self.val, -self.dot)

    def powc(self, c: float) -> "Dual":
        v = _pow_checked(self.val, c)
        if self.dot == 0.0:
            return Dual(v, 0.0)
        return Dual(v, c * _pow_checked(self.val, c - 1.0) * self.dot)

    def exp(self):
        v = math.exp(self.val)
        return Dual(v, v * self.dot)

    def ln(self):
        if self.val <= 0.0:
            raise ValueError("ln of non-positive value")
        return Dual(math.log(self.val), self.dot / self.val)

    def sqrt(self):
        if self.val < 0.0:
            raise ValueError("sqrt of negative value")
        v = math.sqrt(self.val)
        if self.dot == 0.0:
            return Dual(v, 0.0)
        if v == 0.0:
            raise ZeroDivisionError("sqrt derivative at zero")
        return Dual(v, self.dot / (2.0 * v))

    def sin(self):
        return Dual(math.sin(self.val), math.cos(self.val) * self.dot)

    def cos(self):
        return Dual(math.cos(self.val), -math.sin(self.val) * self.dot)

    def abs(self):
        if self.val > 0.0:
            return Dual(self.val, self.dot)
        if self.val < 0.0:
            return Dual(-self.val, -self.dot)
        if self.dot == 0.0:
            return Dual(0.0, 0.0)
        raise ValueError("abs not differentiable at zero")

    def sign(self):
        if self.val == 0.0:
            raise ValueError("sign undefined at zero")
        return Dual(1.0 if self.val > 0.0 else -1.0, 0.0)


def _as_dual(x) -> Dual:
    if isinstance(x, Dual):
        return x
    return Dual(float(x), 0.0)


def _pow_checked(base: float, c: float) -> float:
    if base == 0.0 and c < 0.0:
        raise ZeroDivisionError("zero raised to a negative power")
    if base < 0.0 and c != int(c):
        raise ValueError("negative base with non-integer exponent")
    return math.pow(base, c)


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------

Binding = Mapping[str, float]

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


class Expr:
    """Immutable expression node. Subclasses implement the four primitives.

    The subclasses' ``__slots__`` name the node's structure and nothing else,
    and the base class adds none, so a node has no instance dict. Compiled
    code lives in a :class:`Kernel`, never on a node."""

    __slots__ = ()
    precedence = _PREC_ATOM

    def evaluate(self, binding: Binding) -> float:
        raise NotImplementedError

    def evaluate_dual(self, binding: Binding, seed: str) -> Dual:
        raise NotImplementedError

    def partial(self, var: str) -> "Expr":
        raise NotImplementedError

    def to_source(self) -> str:
        raise NotImplementedError

    def free_vars(self) -> frozenset:
        return frozenset()

    def _wrap(self, child: "Expr", tighten: int = 0) -> str:
        if child.precedence < self.precedence + tighten:
            return f"({child.to_source()})"
        return child.to_source()

    def __repr__(self):
        return f"<{type(self).__name__} {self.to_source()}>"


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def evaluate(self, binding):
        return self.value

    def evaluate_dual(self, binding, seed):
        return Dual(self.value, 0.0)

    def partial(self, var):
        return Const(0.0)

    def to_source(self):
        if self.value < 0 or (self.value == 0 and math.copysign(1, self.value) < 0):
            return f"(-{-self.value!r})"
        return repr(self.value)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, binding):
        try:
            return binding[self.name]
        except KeyError:
            raise UnboundVariable(self.name) from None

    def evaluate_dual(self, binding, seed):
        try:
            v = binding[self.name]
        except KeyError:
            raise UnboundVariable(self.name) from None
        return Dual(v, 1.0 if self.name == seed else 0.0)

    def partial(self, var):
        return Const(1.0 if self.name == var else 0.0)

    def to_source(self):
        return self.name

    def free_vars(self):
        return frozenset((self.name,))


class _Binary(Expr):
    __slots__ = ("left", "right")
    symbol = "?"

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()

    def to_source(self):
        # right operand is parenthesised at equal precedence: ops are
        # left-associative and '-'/'/' do not commute
        return f"{self._wrap(self.left)} {self.symbol} {self._wrap(self.right, 1)}"


class Add(_Binary):
    __slots__ = ()
    symbol = "+"
    precedence = _PREC_ADD

    def evaluate(self, binding):
        return self.left.evaluate(binding) + self.right.evaluate(binding)

    def evaluate_dual(self, binding, seed):
        return self.left.evaluate_dual(binding, seed) + self.right.evaluate_dual(binding, seed)

    def partial(self, var):
        return add(self.left.partial(var), self.right.partial(var))


class Sub(_Binary):
    __slots__ = ()
    symbol = "-"
    precedence = _PREC_ADD

    def evaluate(self, binding):
        return self.left.evaluate(binding) - self.right.evaluate(binding)

    def evaluate_dual(self, binding, seed):
        return self.left.evaluate_dual(binding, seed) - self.right.evaluate_dual(binding, seed)

    def partial(self, var):
        return sub(self.left.partial(var), self.right.partial(var))


class Mul(_Binary):
    __slots__ = ()
    symbol = "*"
    precedence = _PREC_MUL

    def evaluate(self, binding):
        return self.left.evaluate(binding) * self.right.evaluate(binding)

    def evaluate_dual(self, binding, seed):
        return self.left.evaluate_dual(binding, seed) * self.right.evaluate_dual(binding, seed)

    def partial(self, var):
        return add(
            mul(self.left.partial(var), self.right),
            mul(self.left, self.right.partial(var)),
        )


class Div(_Binary):
    __slots__ = ()
    symbol = "/"
    precedence = _PREC_MUL

    def evaluate(self, binding):
        denom = self.right.evaluate(binding)
        if denom == 0.0:
            raise DomainViolation(self, "division by zero")
        return self.left.evaluate(binding) / denom

    def evaluate_dual(self, binding, seed):
        num = self.left.evaluate_dual(binding, seed)
        denom = self.right.evaluate_dual(binding, seed)
        try:
            return num / denom
        except ZeroDivisionError:
            raise DomainViolation(self, "division by zero") from None

    def partial(self, var):
        return div(
            sub(
                mul(self.left.partial(var), self.right),
                mul(self.left, self.right.partial(var)),
            ),
            mul(self.right, self.right),
        )


class Pow(Expr):
    """Power with a real constant exponent; the only supported form."""

    __slots__ = ("base", "exponent")
    precedence = _PREC_POW

    def __init__(self, base: Expr, exponent: float):
        self.base = base
        self.exponent = float(exponent)

    def evaluate(self, binding):
        b = self.base.evaluate(binding)
        try:
            return _pow_checked(b, self.exponent)
        except OverflowError as exc:
            raise Overflow(self, str(exc)) from None
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainViolation(self, str(exc)) from None

    def evaluate_dual(self, binding, seed):
        b = self.base.evaluate_dual(binding, seed)
        try:
            return b.powc(self.exponent)
        except OverflowError as exc:
            raise Overflow(self, str(exc)) from None
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainViolation(self, str(exc)) from None

    def partial(self, var):
        return mul(
            mul(Const(self.exponent), pow_(self.base, self.exponent - 1.0)),
            self.base.partial(var),
        )

    def to_source(self):
        e = self.exponent
        exp_src = repr(e) if e >= 0 else f"-{-e!r}"
        return f"{self._wrap(self.base, 1)}^{exp_src}"

    def free_vars(self):
        return self.base.free_vars()


class Neg(Expr):
    __slots__ = ("arg",)
    precedence = _PREC_NEG

    def __init__(self, arg: Expr):
        self.arg = arg

    def evaluate(self, binding):
        return -self.arg.evaluate(binding)

    def evaluate_dual(self, binding, seed):
        return -self.arg.evaluate_dual(binding, seed)

    def partial(self, var):
        return neg(self.arg.partial(var))

    def to_source(self):
        return f"-{self._wrap(self.arg)}"

    def free_vars(self):
        return self.arg.free_vars()


class _Func(Expr):
    __slots__ = ("arg",)
    name = "?"

    def __init__(self, arg: Expr):
        self.arg = arg

    def to_source(self):
        return f"{self.name}({self.arg.to_source()})"

    def free_vars(self):
        return self.arg.free_vars()

    def evaluate(self, binding):
        try:
            return self._apply(self.arg.evaluate(binding))
        except OverflowError as exc:
            raise Overflow(self, str(exc)) from None
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainViolation(self, str(exc)) from None

    def evaluate_dual(self, binding, seed):
        try:
            return self._apply_dual(self.arg.evaluate_dual(binding, seed))
        except OverflowError as exc:
            raise Overflow(self, str(exc)) from None
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainViolation(self, str(exc)) from None

    # a plain function of the argument (static), so that compiled code can
    # call it without holding the node
    @staticmethod
    def _apply(v: float) -> float:
        raise NotImplementedError

    def _apply_dual(self, d: Dual) -> Dual:
        raise NotImplementedError


class ExpFn(_Func):
    __slots__ = ()
    name = "exp"

    _apply = staticmethod(math.exp)

    def _apply_dual(self, d):
        return d.exp()

    def partial(self, var):
        return mul(exp(self.arg), self.arg.partial(var))


class LnFn(_Func):
    __slots__ = ()
    name = "ln"

    @staticmethod
    def _apply(v):
        if v <= 0.0:
            raise ValueError("ln of non-positive value")
        return math.log(v)

    def _apply_dual(self, d):
        return d.ln()

    def partial(self, var):
        return div(self.arg.partial(var), self.arg)


class SqrtFn(_Func):
    __slots__ = ()
    name = "sqrt"

    @staticmethod
    def _apply(v):
        if v < 0.0:
            raise ValueError("sqrt of negative value")
        return math.sqrt(v)

    def _apply_dual(self, d):
        return d.sqrt()

    def partial(self, var):
        return div(self.arg.partial(var), mul(Const(2.0), sqrt(self.arg)))


class SinFn(_Func):
    __slots__ = ()
    name = "sin"

    _apply = staticmethod(math.sin)

    def _apply_dual(self, d):
        return d.sin()

    def partial(self, var):
        return mul(cos(self.arg), self.arg.partial(var))


class CosFn(_Func):
    __slots__ = ()
    name = "cos"

    _apply = staticmethod(math.cos)

    def _apply_dual(self, d):
        return d.cos()

    def partial(self, var):
        return neg(mul(sin(self.arg), self.arg.partial(var)))


class AbsFn(_Func):
    __slots__ = ()
    name = "abs"

    _apply = staticmethod(abs)

    def _apply_dual(self, d):
        return d.abs()

    def partial(self, var):
        # d|u| = sign(u) du; sign raises at exactly 0 (honest singularity)
        return mul(sign(self.arg), self.arg.partial(var))


class SignFn(_Func):
    __slots__ = ()
    name = "sign"

    @staticmethod
    def _apply(v):
        if v == 0.0:
            raise ValueError("sign undefined at zero")
        return 1.0 if v > 0.0 else -1.0

    def _apply_dual(self, d):
        return d.sign()

    def partial(self, var):
        return Const(0.0)


# ---------------------------------------------------------------------------
# smart constructors (constant folding only)
# ---------------------------------------------------------------------------


def _const_value(e: Expr):
    return e.value if isinstance(e, Const) else None


def add(a: Expr, b: Expr) -> Expr:
    av, bv = _const_value(a), _const_value(b)
    if av is not None and bv is not None:
        return Const(av + bv)
    if av == 0.0:
        return b
    if bv == 0.0:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    av, bv = _const_value(a), _const_value(b)
    if av is not None and bv is not None:
        return Const(av - bv)
    if bv == 0.0:
        return a
    if av == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    av, bv = _const_value(a), _const_value(b)
    if av is not None and bv is not None:
        return Const(av * bv)
    if av == 0.0 or bv == 0.0:
        return Const(0.0)
    if av == 1.0:
        return b
    if bv == 1.0:
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    av, bv = _const_value(a), _const_value(b)
    if bv is not None and bv != 0.0:
        if av is not None:
            return Const(av / bv)
        if bv == 1.0:
            return a
    if av == 0.0 and (bv is None or bv != 0.0):
        return Const(0.0)
    return Div(a, b)


def neg(a: Expr) -> Expr:
    av = _const_value(a)
    if av is not None:
        return Const(-av)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def pow_(base: Expr, exponent: float) -> Expr:
    exponent = float(exponent)
    if exponent == 0.0:
        return Const(1.0)
    if exponent == 1.0:
        return base
    bv = _const_value(base)
    if bv is not None:
        try:
            return Const(_pow_checked(bv, exponent))
        except (ValueError, ZeroDivisionError):
            pass
    return Pow(base, exponent)


def _fold_unary(cls, a: Expr) -> Expr:
    av = _const_value(a)
    if av is not None:
        node = cls(a)
        try:
            return Const(node._apply(av))
        except (ValueError, ZeroDivisionError, OverflowError):
            return node
    return cls(a)


def exp(a: Expr) -> Expr:
    return _fold_unary(ExpFn, a)


def ln(a: Expr) -> Expr:
    return _fold_unary(LnFn, a)


def sqrt(a: Expr) -> Expr:
    return _fold_unary(SqrtFn, a)


def sin(a: Expr) -> Expr:
    return _fold_unary(SinFn, a)


def cos(a: Expr) -> Expr:
    return _fold_unary(CosFn, a)


def abs_(a: Expr) -> Expr:
    return _fold_unary(AbsFn, a)


def sign(a: Expr) -> Expr:
    return _fold_unary(SignFn, a)


_FUNCS = {
    "exp": exp,
    "ln": ln,
    "sqrt": sqrt,
    "sin": sin,
    "cos": cos,
    "abs": abs_,
    "sign": sign,
}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class _Tokenizer:
    def __init__(self, source: str):
        self.source = source
        self.tokens = []  # (kind, text, position)
        pos = 0
        while pos < len(source):
            m = _TOKEN_RE.match(source, pos)
            if m is None:
                stripped = source[pos:].lstrip()
                at = len(source) - len(stripped)
                if not stripped:
                    break
                raise ParseError(f"unexpected character '{source[at]}'", at)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.index = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return ("end", "", len(self.source))

    def next(self):
        tok = self.peek()
        self.index += 1
        return tok


class _Parser:
    def __init__(self, source: str, declared: frozenset):
        self.toks = _Tokenizer(source)
        self.declared = declared

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected token '{text}'", pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, text, _ = self.toks.peek()
            if kind == "op" and text in "+-":
                self.toks.next()
                rhs = self.term()
                e = add(e, rhs) if text == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, text, _ = self.toks.peek()
            if kind == "op" and text in "*/":
                self.toks.next()
                rhs = self.factor()
                e = mul(e, rhs) if text == "*" else div(e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        kind, text, _ = self.toks.peek()
        if kind == "op" and text == "-":
            # unary minus binds looser than '^': -x^2 == -(x^2)
            self.toks.next()
            return neg(self.factor())
        e = self.base()
        kind, text, pos = self.toks.peek()
        if kind == "op" and text == "^":
            self.toks.next()
            e = pow_(e, self.exponent_literal())
        return e

    def exponent_literal(self) -> float:
        kind, text, pos = self.toks.next()
        negative = False
        if kind == "op" and text == "-":
            negative = True
            kind, text, pos = self.toks.next()
        if kind != "number":
            raise ParseError("exponent must be a numeric literal", pos)
        value = float(text)
        return -value if negative else value

    def base(self) -> Expr:
        kind, text, pos = self.toks.next()
        if kind == "number":
            return Const(float(text))
        if kind == "ident":
            if text in _FUNCS:
                k2, t2, p2 = self.toks.next()
                if not (k2 == "op" and t2 == "("):
                    raise ParseError(f"expected '(' after '{text}'", p2)
                arg = self.expr()
                k3, t3, p3 = self.toks.next()
                if not (k3 == "op" and t3 == ")"):
                    raise ParseError("expected ')'", p3)
                return _FUNCS[text](arg)
            if text not in self.declared:
                raise UndeclaredIdentifier(text, pos)
            return Var(text)
        if kind == "op" and text == "(":
            e = self.expr()
            k2, t2, p2 = self.toks.next()
            if not (k2 == "op" and t2 == ")"):
                raise ParseError("expected ')'", p2)
            return e
        raise ParseError(f"unexpected token '{text or 'end of input'}'", pos)


# ---------------------------------------------------------------------------
# compiled evaluation
# ---------------------------------------------------------------------------


def _compile(roots: tuple, layout: tuple, constants: dict, columns: bool = False):
    """A function equal to the tree walk of ``roots`` bit for bit: it reads
    ``b[i]`` for the variable ``layout[i]`` of a positional row, takes any
    other variable from ``constants``, and returns the tuple of the roots'
    values.

    Each distinct subtree (by structure, across the roots) gets one local,
    computed where the tree walk of the roots in order first computes it, by
    the call the tree walk makes on the same operands. Constants reach the
    code through its namespace, never as literals, so ``-0.0``, ``inf`` and
    ``nan`` stay exact. The code raises plain ``LookupError``,
    ``ArithmeticError`` or ``ValueError`` where the walk raises its own
    errors, and holds no node.

    With ``columns``, ``b[i]`` is a float64 array of values of ``layout[i]``,
    one per row, and every root's value is such an array: ``+ - * /`` and
    negation of a column are the array operations, which round as the float
    operations do; powers and functions of a column call the scalar code on
    each element; and the code raises where any row would.
    """
    namespace = {"_pow": math.pow, "_pow_checked": _pow_checked, "_unbound": _unbound}
    namespace.update(_each=_each, _full=_full)  # the column code's helpers
    position = {name: i for i, name in enumerate(layout)}
    lines = []
    names = {}  # structural key -> name of the subtree's value
    nonzero = set()  # denominators already checked
    emitted = {}  # id(node) -> name of its value; the roots keep the nodes alive
    column = set()  # names of the values that are columns

    def bind(key, value):
        if key not in names:
            names[key] = f"k{len(names)}"
            namespace[names[key]] = value
        return names[key]

    def constant(v):
        # -0.0 is not 0.0, and a parameter 0 (an int) negates to 0, not -0.0
        return bind((Const, type(v), v, math.copysign(1.0, v)), v)

    def assign(key, source, *operands):
        if key not in names:
            names[key] = f"t{len(names)}"
            lines.append(f"    {names[key]} = {source}")
            if columns and (key[0] is Var or column.intersection(operands)):
                column.add(names[key])
        return names[key]

    def read(name):
        if name in position:
            return f"b[{position[name]}]"
        return f"_unbound({name!r})"

    def call(f, a, *args):
        # scalar code on each element of a column
        if a in column:
            return f"_each({', '.join((f, a) + args)})"
        return f"{f}({', '.join((a,) + args)})"

    def emit(node):
        # a node shared by identity, as derivative trees share them, is
        # emitted once rather than once per occurrence
        name = emitted.get(id(node))
        if name is None:
            name = emitted[id(node)] = emit_new(node)
        return name

    def emit_new(node):
        if isinstance(node, Const):
            return constant(node.value)
        if isinstance(node, Var):
            if node.name not in position and node.name in constants:
                return constant(constants[node.name])
            return assign((Var, node.name), read(node.name))
        if isinstance(node, Div):
            r = emit(node.right)
            if r not in nonzero:
                # a float64 denominator would give inf rather than raise
                nonzero.add(r)
                test = f"({r} == 0.0).any()" if r in column else f"{r} == 0.0"
                lines.append(f"    if {test}: raise ZeroDivisionError")
            l = emit(node.left)
            return assign((Div, l, r), f"{l} / {r}", l, r)
        if isinstance(node, _Binary):
            l = emit(node.left)
            r = emit(node.right)
            return assign((type(node), l, r), f"{l} {node.symbol} {r}", l, r)
        if isinstance(node, Neg):
            a = emit(node.arg)
            return assign((Neg, a), f"-{a}", a)
        if isinstance(node, Pow):
            a = emit(node.base)
            e = node.exponent
            c = constant(e)
            # for an integer exponent math.pow itself raises wherever
            # _pow_checked does (0 to a negative power: ValueError)
            power = "_pow" if math.isfinite(e) and e == int(e) else "_pow_checked"
            return assign((Pow, a, c), call(power, a, c), a)
        if isinstance(node, _Func):
            a = emit(node.arg)
            f = bind(type(node), type(node)._apply)
            return assign((type(node), a), call(f, a), a)
        raise TypeError(f"cannot compile {type(node).__name__}")

    values = [emit(root) for root in roots]
    if columns:
        values = [v if v in column else f"_full({v}, b)" for v in values]
    lines.append(f"    return ({''.join(v + ', ' for v in values)})")
    exec("def compiled(b):\n" + "\n".join(lines) + "\n", namespace)
    return namespace.pop("compiled")


def _each(f, column, *args):
    values = map(f, column.tolist(), *map(repeat, args))
    return np.fromiter(values, dtype=float, count=len(column))


def _full(value, b):
    return np.full(b.shape[1], value, dtype=float)


def _unbound(name: str):
    raise KeyError(name)


class Kernel:
    """Roots compiled together for positional rows, the one compiled
    evaluation path: ``kernel(row)`` is the tuple of the roots' values with
    ``names[i]`` bound to ``row[i]`` and any other variable to its value in
    ``constants``, compiled into the code. Subtrees shared between the roots
    are computed once.

    Where the compiled code raises, ``kernel(row)`` is a sequence whose item
    ``k`` walks root ``k`` when it is read: ``tuple()`` of it, unpacking and
    slicing read in root order and raise the error :func:`evaluate` of those
    roots, in that order, would raise; a caller that reads the items in its
    own order meets its own errors in its own order.

    ``kernel.columns(stack)`` evaluates many rows at once."""

    __slots__ = ("roots", "names", "constants", "_run", "_columns")

    def __init__(
        self, roots: Iterable[Expr], names: Iterable[str], constants: Optional[Binding] = None
    ):
        self.roots = tuple(roots)
        self.names = tuple(names)
        self.constants = dict(constants or {})
        self._run = _compile(self.roots, self.names, self.constants)
        self._columns = None

    def __call__(self, row):
        try:
            return self._run(row)
        except (ArithmeticError, ValueError, LookupError):
            # a name shadows a constant of the same name
            return _Walk(self.roots, {**self.constants, **dict(zip(self.names, row))})

    def columns(self, stack):
        """The roots' values at many rows: ``stack`` is a 2-D float64 array
        whose line ``i`` holds the values of ``names[i]``, one per row, and
        the result holds one float64 array per root, equal bit for bit to the
        items of ``kernel(row)`` at each row. Raises ``ArithmeticError``,
        ``ValueError`` or ``LookupError`` where the compiled code raises at
        some row; the caller then reads the rows through ``kernel(row)``. The
        column code is compiled at the first call."""
        if self._columns is None:
            self._columns = _compile(self.roots, self.names, self.constants, columns=True)
        with np.errstate(all="ignore"):
            return self._columns(stack)


class _Walk:
    """The roots of a kernel at one binding, each walked when it is read."""

    __slots__ = ("roots", "binding")

    def __init__(self, roots: tuple, binding: dict):
        self.roots = roots
        self.binding = binding

    def __len__(self) -> int:
        return len(self.roots)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(root.evaluate(self.binding) for root in self.roots[k])
        return self.roots[k].evaluate(self.binding)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def parse(source: str, declared: Iterable[str]) -> Expr:
    """Parse ``source`` against a set of declared variable names."""
    return _Parser(source, frozenset(declared)).parse()


def evaluate(e: Expr, binding: Binding) -> float:
    """Evaluate ``e`` by walking its tree: the reference that every
    :class:`Kernel` matches bit for bit. Raises :class:`DomainViolation` on
    invalid points and :class:`UnboundVariable` if the binding is not
    total."""
    return e.evaluate(binding)


def compile(
    roots: Iterable[Expr], names: Iterable[str], constants: Optional[Binding] = None
) -> Kernel:
    """Compile ``roots`` into one :class:`Kernel` over rows laid out as
    ``names``, with the values of ``constants`` (a problem's parameters)
    bound into the code; a name in ``names`` shadows a constant."""
    return Kernel(roots, names, constants)


def partial(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative, constant-folded."""
    return e.partial(var)


def evaluate_dual(e: Expr, binding: Binding, seed: str) -> tuple:
    """Return ``(e(b), de/d(seed)(b))`` by dual-number propagation."""
    d = e.evaluate_dual(binding, seed)
    return (d.val, d.dot)


def free_vars(e: Expr) -> frozenset:
    return e.free_vars()


def to_source(e: Expr) -> str:
    return e.to_source()


def chart_names(n: int) -> tuple:
    """Coordinate names (x1..xn, y1..yn) of an n-dimensional chart."""
    return tuple(f"x{i}" for i in range(1, n + 1)) + tuple(
        f"y{i}" for i in range(1, n + 1)
    )
