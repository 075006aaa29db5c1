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
import operator
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

    def partial(self, var: str, table: Optional[dict]) -> "Expr":
        """The rule for d self / d var, each operand differentiated through
        ``table`` (see :func:`partial`)."""
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

    def partial(self, var, table):
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

    def partial(self, var, table):
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

    def partial(self, var, table):
        return add(_partial(self.left, var, table), _partial(self.right, var, table))


class Sub(_Binary):
    __slots__ = ()
    symbol = "-"
    precedence = _PREC_ADD

    def evaluate(self, binding):
        return self.left.evaluate(binding) - self.right.evaluate(binding)

    def evaluate_dual(self, binding, seed):
        return self.left.evaluate_dual(binding, seed) - self.right.evaluate_dual(binding, seed)

    def partial(self, var, table):
        return sub(_partial(self.left, var, table), _partial(self.right, var, table))


class Mul(_Binary):
    __slots__ = ()
    symbol = "*"
    precedence = _PREC_MUL

    def evaluate(self, binding):
        return self.left.evaluate(binding) * self.right.evaluate(binding)

    def evaluate_dual(self, binding, seed):
        return self.left.evaluate_dual(binding, seed) * self.right.evaluate_dual(binding, seed)

    def partial(self, var, table):
        return add(
            mul(_partial(self.left, var, table), self.right),
            mul(self.left, _partial(self.right, var, table)),
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

    def partial(self, var, table):
        return div(
            sub(
                mul(_partial(self.left, var, table), self.right),
                mul(self.left, _partial(self.right, var, table)),
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

    def partial(self, var, table):
        return mul(
            mul(Const(self.exponent), pow_(self.base, self.exponent - 1.0)),
            _partial(self.base, var, table),
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

    def partial(self, var, table):
        return neg(_partial(self.arg, var, table))

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

    def partial(self, var, table):
        return mul(exp(self.arg), _partial(self.arg, var, table))


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

    def partial(self, var, table):
        return div(_partial(self.arg, var, table), self.arg)


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

    def partial(self, var, table):
        return div(_partial(self.arg, var, table), mul(Const(2.0), sqrt(self.arg)))


class SinFn(_Func):
    __slots__ = ()
    name = "sin"

    _apply = staticmethod(math.sin)

    def _apply_dual(self, d):
        return d.sin()

    def partial(self, var, table):
        return mul(cos(self.arg), _partial(self.arg, var, table))


class CosFn(_Func):
    __slots__ = ()
    name = "cos"

    _apply = staticmethod(math.cos)

    def _apply_dual(self, d):
        return d.cos()

    def partial(self, var, table):
        return neg(mul(sin(self.arg), _partial(self.arg, var, table)))


class AbsFn(_Func):
    __slots__ = ()
    name = "abs"

    _apply = staticmethod(abs)

    def _apply_dual(self, d):
        return d.abs()

    def partial(self, var, table):
        # d|u| = sign(u) du; sign raises at exactly 0 (honest singularity)
        return mul(sign(self.arg), _partial(self.arg, var, table))


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

    def partial(self, var, table):
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


class Program:
    """The records of a run's kernels over rows laid out as ``layout``, with
    ``constants`` bound in, each emitted once: ``ops`` maps a slot ``out``, in
    program order, to the record ``(function, out, operands)`` storing
    ``function`` of the values in the slots ``operands`` there, and ``slots``
    holds the first values: the input ``b`` in slot 0 (``layout[i]`` is
    ``b[i]``), the constants as values, never literals, so ``-0.0``, ``inf``
    and ``nan`` stay exact. A record holds no node; ``memo``: see :meth:`keep`.

    Each distinct subtree (by structure, a sum's or a product's operands in
    either order) gets one slot, computed where the walk of the roots that
    first reach it computes it, by the call the walk makes, a denominator
    tested by :func:`_nonzero` first: so the records of some roots, their
    :meth:`slice`, raise where their walk raises its own errors, and mark
    the rows of float64 columns where it would."""

    __slots__ = ("layout", "constants", "ops", "slots", "memo", "_keys", "_needs", "_seen", "_roots", "__weakref__")

    def __init__(self, layout: Iterable[str], constants: Optional[Binding] = None):
        self.layout, self.constants = tuple(layout), dict(constants or {})
        self.ops, self.slots, self.memo, self._roots = {}, [None], None, []
        # a structural key's slot; the slots each record reads; the slot of
        # each node by id, while _roots holds the node
        self._keys, self._needs, self._seen = {}, {}, {}

    def kernel(self, roots: Iterable[Expr]) -> "Kernel":
        """The kernel of ``roots``, whose records are their slice of the program."""
        return Kernel(roots, self.layout, self.constants, self)

    def slice(self, roots: tuple):
        """``(ops, slots, outs)``: the records ``roots`` need in program order,
        emitting the subtrees the program lacks (and a denominator's test with
        a division by it), the program's slots and the roots' slots."""
        self._roots.append(roots)
        fresh, outs = not self.ops, [self._slot(root) for root in roots]
        # the roots of a program of their own need all of its records
        needed, todo = (set(self.ops), []) if fresh else (set(), list(outs))
        while todo:
            s = todo.pop()
            if s in self._needs and s not in needed:
                needed.add(s)
                todo += self._needs[s]
        return [self.ops[s] for s in sorted(needed)], self.slots, outs

    def binds(self, constants: Optional[Binding]) -> bool:
        """Whether ``constants`` are the program's, as compiled in."""
        key = lambda c: [(k, type(v), v, math.copysign(1.0, v)) for k, v in (c or {}).items()]
        return key(constants) == key(self.constants)

    def keep(self, stack):
        """Keep from now on, as ``memo``, the values (read-only) and marks by slot
        of the records replayed over ``stack``, for its column calls to share."""
        self.memo = None if stack is None else (stack, [stack] + self.slots[1:], {})

    def _bind(self, key, value):
        if key not in self._keys:
            self._keys[key] = len(self.slots)
            self.slots.append(value)
        return self._keys[key]

    def _constant(self, v):
        # -0.0 is not 0.0, and a parameter 0 (an int) negates to 0, not -0.0
        return self._bind((Const, type(v), v, math.copysign(1.0, v)), v)

    def _assign(self, key, function, *operands, after=()):
        # a record reads its operands, and a division its denominator's test
        out = self._keys.get(key)
        if out is None:
            out = self._bind(key, None)
            self.ops[out] = (function, out, operands)
            self._needs[out] = operands + after
        return out

    def _call(self, key, f, *operands):
        # a scalar function, of each value of a column
        return self._assign(key, _each, self._bind(f, f), *operands)

    def _slot(self, node) -> int:
        # a node shared by identity, as derivative trees share them, is
        # emitted once rather than once per occurrence
        slot = self._seen.get(id(node))
        if slot is None:
            slot = self._seen[id(node)] = self._walk(node)
        return slot

    def _walk(self, node) -> int:
        if isinstance(node, Const):
            return self._constant(node.value)
        if isinstance(node, Var):
            if node.name in self.layout:
                position = self._constant(self.layout.index(node.name))
                return self._assign((Var, node.name), operator.getitem, 0, position)
            if node.name in self.constants:
                return self._constant(self.constants[node.name])
            return self._call((Var, node.name), _unbound, self._bind(node.name, node.name))
        if isinstance(node, Div):
            r = self._slot(node.right)
            test = self._assign((_nonzero, r), _nonzero, r)
            l = self._slot(node.left)
            return self._assign((Div, l, r), operator.truediv, l, r, after=(test,))
        if isinstance(node, _Binary):
            l = self._slot(node.left)
            r = self._slot(node.right)
            # IEEE 754 + and * commute exactly: A*B and B*A share one slot
            key = (r, l) if r < l and isinstance(node, (Add, Mul)) else (l, r)
            return self._assign((type(node), *key), _OPERATORS[type(node)], l, r)
        if isinstance(node, Neg):
            a = self._slot(node.arg)
            return self._assign((Neg, a), operator.neg, a)
        if isinstance(node, Pow):
            a = self._slot(node.base)
            e = node.exponent
            # for an integer exponent math.pow itself raises wherever
            # _pow_checked does (0 to a negative power: ValueError)
            power = math.pow if math.isfinite(e) and e == int(e) else _pow_checked
            c = self._constant(e)
            return self._call((Pow, a, c), power, a, c)
        if isinstance(node, _Func):
            a = self._slot(node.arg)
            return self._call((type(node), a), type(node)._apply, a)
        raise TypeError(f"cannot compile {type(node).__name__}")


def _emit(roots: tuple, layout: tuple, constants: dict):
    """The records of ``roots`` in a program of their own (:meth:`Program.slice`)."""
    return Program(layout, constants).slice(roots)


_OPERATORS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
_SOURCE = {f: f"{{}} {cls.symbol} {{}}" for cls, f in _OPERATORS.items()}
_SOURCE[operator.neg] = "-{}"


def _compile(roots: tuple, layout: tuple, constants: dict, records: Optional[tuple] = None):
    """The row code of ``roots``, ``b -> tuple of the roots' values``, bit
    for bit the tree walk: their ``records``, a slice of a program, or by
    default :func:`_emit`'s, written out one line each, ``_each(f, x, ...)``
    as ``f(x, ...)``, with the constants in its namespace."""
    ops, slots, outs = records or _emit(roots, layout, constants)
    namespace = {f"v{s}": v for s, v in enumerate(slots) if v is not None}
    lines = []
    for f, out, operands in ops:
        args = [f"v{s}" for s in operands]
        if f is _nonzero:
            lines.append(f"    if {args[0]} == 0.0: raise ZeroDivisionError")
        elif f is operator.getitem:
            lines.append(f"    v{out} = b[{slots[operands[1]]}]")
        elif f is _each:
            lines.append(f"    v{out} = {args[0]}({', '.join(args[1:])})")
        else:
            lines.append(f"    v{out} = {_SOURCE[f].format(*args)}")
    lines.append(f"    return ({''.join(f'v{s}, ' for s in outs)})")
    exec("def compiled(b):\n" + "\n".join(lines) + "\n", namespace)
    return namespace.pop("compiled")


class _Failed(ArithmeticError):
    """A record's column, and the mask of its rows where the row code raises."""


def _nonzero(d):
    # a float64 column would give inf or nan at a zero, not raise
    if np.count_nonzero(d == 0.0):
        raise _Failed(d, d == 0.0) if isinstance(d, np.ndarray) else ZeroDivisionError
    return d


def _each(f, column, *args):
    # f of each value of a float64 column, one float at a time, and only where
    # that raises, once more value by value to mark where; f of any other value
    if not isinstance(column, np.ndarray):
        return f(column, *args)
    try:
        return np.fromiter(map(f, column.tolist(), *map(repeat, args)), dtype=float, count=len(column))
    except (ArithmeticError, ValueError, LookupError):
        values, failed = column.copy(), np.zeros(len(column), dtype=bool)
    for j, v in enumerate(column.tolist()):
        try:
            values[j] = f(v, *args)
        except (ArithmeticError, ValueError, LookupError):
            failed[j] = True
    raise _Failed(values, failed)


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

    ``kernel.columns(stack)`` evaluates many rows at once by replaying the
    roots' records, their slice of ``program`` or of a program of their own,
    and marks the rows where the row code raises. The row code is compiled at
    the first row call, the records taken at the first column call."""

    __slots__ = ("roots", "names", "constants", "program", "_run", "_ops")

    def __init__(self, roots: Iterable[Expr], names: Iterable[str], constants=None, program=None):
        self.roots, self.names, self.constants = tuple(roots), tuple(names), dict(constants or {})
        self.program, self._run, self._ops = program, None, None

    def row_code(self):
        """The row code, compiled at first use; it raises where ``kernel(row)`` walks."""
        if self._run is None:
            # with no program, _compile emits the records of a program of their own
            records = () if self.program is None else (self._records(),)
            self._run = _compile(self.roots, self.names, self.constants, *records)
        return self._run

    def _records(self):
        if self._ops is None:
            program = self.program
            self._ops = program.slice(self.roots) if program else _emit(self.roots, self.names, self.constants)
        return self._ops

    def __call__(self, row):
        try:
            return self.row_code()(row)
        except (ArithmeticError, ValueError, LookupError):
            return self.walk(row)

    def walk(self, row):
        """The items of ``kernel(row)`` where its code raises, with no code:
        each root walked when it is read."""
        # a name shadows a constant of the same name
        return _Walk(self.roots, {**self.constants, **dict(zip(self.names, row))})

    def columns(self, stack):
        """``(lines, marked)``: one float64 line per root over the rows of the
        2-D float64 ``stack``, whose line ``i`` holds the values of
        ``names[i]``, and the set of the rows where the row code raises. At
        every other row the lines equal the items of ``kernel(row)`` bit for
        bit. The records' values live for the call only, or over the stack
        the program keeps with the program (:meth:`Program.keep`)."""
        ops, slots, outs = self._records()
        memo = self.program.memo if self.program is not None else None
        kept = memo is not None and memo[0] is stack
        _, values, marks = memo if kept else (stack, [stack] + slots[1:], {})
        values += slots[len(values) :]  # the slots emitted since the stack was kept
        full = lambda v: np.full(stack.shape[1], v, dtype=float)  # a constant at each row
        with np.errstate(all="ignore"):
            for f, out, operands in ops:
                if values[out] is not None:  # replayed over the kept stack
                    continue
                try:
                    if len(operands) == 2:
                        a, b = operands
                        values[out] = f(values[a], values[b])
                    else:
                        values[out] = f(*[values[s] for s in operands])
                except (ArithmeticError, ValueError, LookupError) as exc:
                    # at the rows it marks, or a record of constants at every row
                    values[out], failed = exc.args if isinstance(exc, _Failed) else (math.nan, full(1.0))
                    marks[out] = np.flatnonzero(failed).tolist()
                if kept and isinstance(values[out], np.ndarray):
                    values[out].flags.writeable = False
        marked = frozenset().union(*[marks[out] for _, out, _ in ops if out in marks] if marks else ())
        lines = tuple(v if isinstance(v, np.ndarray) else full(v) for v in map(values.__getitem__, outs))
        return lines, marked


def table(read, stack):
    """``(values, errors)`` of ``read`` (a :class:`Kernel`, or anything with
    its ``read.walk(row)`` and ``read.columns(stack)``) at the columns of
    ``stack``: one float64 line per item from one column call, and at each
    row it marks, the items of ``read.walk(row)``, which compiles no code,
    as the row code raises there: an item that raises is NaN, and
    ``errors[row, item]`` keeps its error, in row then item order."""
    lines, marked = read.columns(stack)
    values = np.array(lines, dtype=float)
    errors = {}
    for j in sorted(marked):
        row, items = stack[:, j].tolist(), None
        for k in range(len(values)):
            try:
                items = read.walk(row) if items is None else items  # a call may raise
                values[k, j] = items[k]
            except Exception as exc:  # met only where the check reaches the row
                values[k, j] = math.nan
                errors[j, k] = exc
    return values, errors


def kept(errors: dict, count: int, skipped: tuple = ()) -> np.ndarray:
    """A mask of the ``count`` rows kept by reading them one at a time, each
    row's items in order, given :func:`table`'s ``errors``: a row whose first
    error is one of ``skipped`` is dropped, and any other error is raised."""
    keep = np.ones(count, dtype=bool)
    for (j, _), error in errors.items():
        if keep[j]:
            if not isinstance(error, skipped):
                raise error
            keep[j] = False
    return keep


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


def partial(e: Expr, var: str, table: Optional[dict] = None) -> Expr:
    """Exact symbolic partial derivative, constant-folded.

    With a ``table`` (a dict the caller keeps, one per run), a node is
    differentiated once per variable: the table maps ``(id(node), var)`` to
    ``(node, derivative)``, holding the node so that its id is not reused,
    and equal derivations come back as the same node. Without one, every
    call builds its own tree."""
    return _partial(e, var, table)


def _partial(e: Expr, var: str, table: Optional[dict]) -> Expr:
    if table is None:
        return e.partial(var, None)
    key = (id(e), var)
    entry = table.get(key)
    if entry is None:
        entry = table[key] = (e, e.partial(var, table))
    return entry[1]


def evaluate_dual(e: Expr, binding: Binding, seed: str) -> tuple:
    """Return ``(e(b), de/d(seed)(b))`` by dual-number propagation."""
    d = e.evaluate_dual(binding, seed)
    return (d.val, d.dot)


def to_source(e: Expr) -> str:
    return e.to_source()


def chart_names(n: int) -> tuple:
    """Coordinate names (x1..xn, y1..yn) of an n-dimensional chart."""
    return tuple(f"x{i}" for i in range(1, n + 1)) + tuple(
        f"y{i}" for i in range(1, n + 1)
    )
