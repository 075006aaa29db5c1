"""Coordinate operators on the tangent bundle of a single chart.

Everything lives in one chart with coordinates ``x1..xn`` (base) and
``y1..yn`` (fiber/velocity). Operators compose symbolically and are only
evaluated at sample points, so the tight identity tolerances downstream rest
on exact derivatives rather than finite differencing. Each operator takes an
optional ``table``, a derivative table of :func:`expressions.partial`, and
differentiates through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import expressions as ex
from .expressions import Expr


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class SemiSpray:
    """Second-order dynamics ``x_i'' + 2 G_i(x, x') = 0``.

    The induced vector field is ``S = y_i d/dx_i - 2 G_i d/dy_i``; the
    semi-spray property holds identically in this representation.
    """

    n: int
    coefficients: tuple

    def __init__(self, n: int, coefficients: Sequence[Expr]):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if len(coefficients) != n:
            raise DimensionMismatch(
                f"expected {n} spray coefficients, got {len(coefficients)}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coefficients", tuple(coefficients))


@dataclass(frozen=True)
class ScalarField:
    """A function on phase space: Lagrangian, energy, dissipation, ..."""

    n: int
    expr: Expr


@dataclass(frozen=True)
class SemiBasicForm:
    """Covariant form with ``dx`` components only: forces, d_J L, the
    Lagrange differential."""

    n: int
    components: tuple

    def __init__(self, n: int, components: Sequence[Expr]):
        if len(components) != n:
            raise DimensionMismatch(
                f"expected {n} form components, got {len(components)}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "components", tuple(components))


@dataclass(frozen=True)
class PhasePoint:
    x: tuple
    y: tuple

    def __init__(self, x: Sequence[float], y: Sequence[float]):
        object.__setattr__(self, "x", tuple(float(v) for v in x))
        object.__setattr__(self, "y", tuple(float(v) for v in y))
        if len(self.x) != len(self.y):
            raise DimensionMismatch("x and y lengths differ")
        if not all(math.isfinite(v) for v in self.x + self.y):
            raise ValueError("phase point entries must be finite")

    @property
    def n(self):
        return len(self.x)


def _check_dims(a, b):
    if a.n != b.n:
        raise DimensionMismatch(f"dimension mismatch: {a.n} vs {b.n}")


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def liouville_apply(field_: ScalarField, table: Optional[dict] = None) -> ScalarField:
    """C(F) = y_i dF/dy_i, the fiber Euler operator."""
    n = field_.n
    acc: Expr = ex.Const(0.0)
    for i in range(1, n + 1):
        acc = ex.add(acc, ex.mul(ex.Var(f"y{i}"), ex.partial(field_.expr, f"y{i}", table)))
    return ScalarField(n, acc)


def spray_apply(spray: SemiSpray, field_: ScalarField, table: Optional[dict] = None) -> ScalarField:
    """S(F) = y_i dF/dx_i - 2 G_i dF/dy_i, the derivative along the flow."""
    _check_dims(spray, field_)
    n = spray.n
    acc: Expr = ex.Const(0.0)
    for i in range(1, n + 1):
        acc = ex.add(acc, ex.mul(ex.Var(f"y{i}"), ex.partial(field_.expr, f"x{i}", table)))
        acc = ex.sub(
            acc,
            ex.mul(
                ex.mul(ex.Const(2.0), spray.coefficients[i - 1]),
                ex.partial(field_.expr, f"y{i}", table),
            ),
        )
    return ScalarField(n, acc)


def energy(lagrangian: ScalarField, table: Optional[dict] = None) -> ScalarField:
    """Lagrangian energy E = C(L) - L."""
    return ScalarField(
        lagrangian.n, ex.sub(liouville_apply(lagrangian, table).expr, lagrangian.expr)
    )


def vertical_differential(lagrangian: ScalarField, table: Optional[dict] = None) -> SemiBasicForm:
    """d_J L, with components dL/dy_i."""
    n = lagrangian.n
    return SemiBasicForm(
        n, [ex.partial(lagrangian.expr, f"y{i}", table) for i in range(1, n + 1)]
    )


def lagrange_differential(
    spray: SemiSpray, lagrangian: ScalarField, table: Optional[dict] = None
) -> SemiBasicForm:
    """Lagrange differential: components S(dL/dy_i) - dL/dx_i.

    Vanishes exactly when the spray is the Euler-Lagrange dynamics of L.
    """
    _check_dims(spray, lagrangian)
    n = spray.n
    comps = []
    for i in range(1, n + 1):
        momentum = ScalarField(n, ex.partial(lagrangian.expr, f"y{i}", table))
        comps.append(
            ex.sub(
                spray_apply(spray, momentum, table).expr,
                ex.partial(lagrangian.expr, f"x{i}", table),
            )
        )
    return SemiBasicForm(n, comps)


def fiber_hessian(lagrangian: ScalarField, table: Optional[dict] = None) -> list:
    """g_ij = d^2 L / dy_i dy_j as an n x n matrix of expressions."""
    n = lagrangian.n
    firsts = [ex.partial(lagrangian.expr, f"y{i}", table) for i in range(1, n + 1)]
    return [
        [ex.partial(firsts[i], f"y{j + 1}", table) for j in range(n)] for i in range(n)
    ]


# ---------------------------------------------------------------------------
# homogeneity
# ---------------------------------------------------------------------------

_HOMOGENEITY_RATIOS = (0.5, 2.0, 3.0)


def homogeneity_degree(
    obj,
    rows: Sequence[Sequence[float]],
    params: Optional[dict] = None,
    tol: float = 1e-9,
) -> Optional[float]:
    """Fiber-homogeneity degree of a scalar field, or spray degree-2 check.

    ``rows`` are chart points ``(x1..xn, y1..yn)``, and ``params`` holds
    the parameter values. For fields, tests ``F(x, r y) = r^p F(x, y)`` at
    every row for ``r in {0.5, 2, 3}`` and returns the common ``p`` if one
    exists (None otherwise). A row where F is not evaluable or not finite
    is skipped, and a scaled value that is neither gives None. For a
    :class:`SemiSpray`, returns 2.0 when all coefficients scale
    quadratically, else None. Rows with ``y = 0`` are skipped. This is
    :func:`homogeneity_degrees` of ``obj`` alone, with its own kernel."""
    stack = np.array(rows, dtype=float).reshape(len(rows), 2 * obj.n).T
    kernel_of = lambda roots: ex.compile(roots, ex.chart_names(obj.n), params)
    return homogeneity_degrees((obj,), stack, kernel_of, tol)[0]


def homogeneity_degrees(fields: Sequence, stack, kernel_of, tol: float = 1e-9) -> list:
    """:func:`homogeneity_degree` of each of ``fields`` at the columns of
    ``stack``, from one column call of ``kernel_of`` of all their roots (a
    spray's coefficients) over the columns and their ``y``-scaled copies.
    Each field's errors other than ``DomainViolation`` are raised before its
    scan, field by field, as a kernel per field would raise them."""
    roots = [obj.coefficients if isinstance(obj, SemiSpray) else (obj.expr,) for obj in fields]
    x, y = np.split(stack, 2)
    scaled = [np.concatenate((x, r * y)) for r in _HOMOGENEITY_RATIOS]
    values, errors = ex.table(kernel_of(sum(roots, ())), np.hstack([stack] + scaled))
    lines = values.reshape(len(values), 4, stack.shape[1])  # per root: the rows, then each ratio's
    moving = (y != 0.0).any(axis=0)
    degrees, stop = [], 0
    for obj, own in zip(fields, roots):
        start, stop = stop, stop + len(own)
        own_errors = {key: e for key, e in errors.items() if start <= key[1] < stop}
        ex.kept(own_errors, values.shape[1], (ex.DomainViolation,))
        if isinstance(obj, SemiSpray):  # a zero coefficient has no degree, and is quadratic
            quadratic = (
                _field_degree(line, moving, tol) == 2.0 or (np.abs(line[0]) <= tol).all()
                for line in lines[start:stop]
            )
            degrees.append(2.0 if all(quadratic) else None)
        else:
            degrees.append(_field_degree(lines[start], moving, tol))
    return degrees


def _field_degree(values, moving, tol) -> Optional[float]:
    """The degree of one root from its values at the rows, then at each
    ratio's scaled rows, where ``moving``: what a scan of the rows in order
    gives, with the tests made on whole lines."""
    lines = values[:, moving & np.isfinite(values[0]) & (np.abs(values[0]) >= 1e-12)]
    estimate = None
    # the first usable row fixes the estimate and is read alone, as the row
    # scan meets it: only its math.pow can overflow (an estimate above about
    # 646 or below about -1023)
    for base, *scaled in (lines[:, :1], lines[:, 1:]) if lines.shape[1] else ():
        with np.errstate(all="ignore"):  # a float64 line gives inf or nan, not an error
            ratio = scaled[1] / base  # r = 2
            if not np.isfinite(scaled).all() or (ratio <= 0.0).any():
                return None
            p_here = np.fromiter(map(math.log, ratio.tolist()), float, len(ratio)) / math.log(2.0)
            estimate = float(p_here[0]) if estimate is None else estimate
            if (np.abs(p_here - estimate) > tol * (1.0 + abs(estimate))).any():
                return None
            for r, value in zip(_HOMOGENEITY_RATIOS, scaled):
                want = math.pow(r, estimate) * base  # one math.pow per ratio, not per row
                if (np.abs(value - want) > tol * (1.0 + np.abs(value) + np.abs(want))).any():
                    return None
    return estimate
