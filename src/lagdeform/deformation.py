"""Synthesis and verification of scalar deformations Phi.

Each slope family integrates in closed form (Phi' = exp(int f), Phi = int
Phi'); the tabulated fallback integrates the sampled slope cloud with the
trapezoid rule and interpolates monotonically. A deformed Lagrangian Phi(L)
is evaluated by one chain rule for both kinds: (Phi, Phi', Phi'') at the value
of L, combined with the symbolic derivatives of L. Closed forms also compose
symbolically, which gives the verification an exact independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import compress
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from . import expressions as ex
from .conditions import (
    ConditionReport,
    DerivedFields,
    HessianReport,
    InsufficientSamples,
    _interleaved,
    _worst,
    hessian_report,
)
from .families import (
    Affine,
    Constant,
    HomogeneousRoot,
    Logarithmic,
    Moebius,
    PowerShift,
    Tabulated,
)
from .geometry import ScalarField, lagrange_differential
from .sampling import Samples

if TYPE_CHECKING:
    from scipy.interpolate import PchipInterpolator


# Points of the uniform grid a numeric deformation is integrated on.
_GRID_SIZE = 4096


class DomainConflict(Exception):
    pass


class OutOfInterval(ValueError):
    """Phi has no float value at t: t lies outside its interval, or its
    closed form overflows or divides by a zero denominator there."""

    def __init__(self, t: float, interval, message: Optional[str] = None):
        super().__init__(message or f"t = {t:g} outside ({interval[0]:g}, {interval[1]:g})")
        self.t = t
        self.interval = interval


@dataclass(frozen=True)
class ClosedForm:
    """Canonical closed-form deformation: Phi = scale * base(t) + shift with
    base fixed by the family. ``interval`` is the maximal open interval on
    which the strictly increasing branch lives."""

    family: object
    interval: tuple
    scale: float = 1.0
    shift: float = 0.0
    numerator: tuple = (1.0, 0.0)  # Moebius only: Phi0 = (alpha t + beta)/(c t + d)

    def triple(self, t: float) -> tuple:
        lo, hi = self.interval
        if not (lo < t < hi):
            raise OutOfInterval(t, self.interval)
        try:
            return self._at(t)
        except (OverflowError, ZeroDivisionError) as exc:  # math.exp, math.pow, x / 0.0
            why = "overflows" if isinstance(exc, OverflowError) else "divides by zero"
            raise OutOfInterval(t, self.interval, f"Phi {why} at t = {t:g}") from None

    def _at(self, t, *calls):
        # t a float, or a float64 column with calls _COLUMN
        v, d1, d2 = _base_triple(self.family, t, self.numerator, *calls)
        return (self.scale * v + self.shift, self.scale * d1, self.scale * d2)

    def compose(self, base_expr: ex.Expr) -> ex.Expr:
        body = _base_compose(self.family, base_expr, self.numerator)
        return ex.add(ex.mul(ex.Const(self.scale), body), ex.Const(self.shift))

    def describe(self) -> str:
        return (
            f"ClosedForm({self.family.describe()}, scale={self.scale:g}, "
            f"shift={self.shift:g})"
        )


@dataclass(frozen=True)
class Numeric:
    """Grid deformation: Phi' = exp(int f) > 0 by construction, interpolated
    with monotone cubic Hermite polynomials; Phi'' differentiates the
    Phi'-interpolant rather than double-differencing Phi."""

    grid: tuple
    _phi: PchipInterpolator = field(repr=False, compare=False)
    _dphi: PchipInterpolator = field(repr=False, compare=False)
    _ddphi: object = field(repr=False, compare=False)

    @property
    def interval(self) -> tuple:
        return (self.grid[0], self.grid[-1])

    def triple(self, t: float) -> tuple:
        lo, hi = self.grid[0], self.grid[-1]
        pad = 1e-12 * (hi - lo)
        if not (lo - pad <= t <= hi + pad):
            raise OutOfInterval(t, (lo, hi))
        t = min(max(t, lo), hi)
        return (float(self._phi(t)), float(self._dphi(t)), float(self._ddphi(t)))

    def describe(self) -> str:
        return (
            f"Numeric(grid={len(self.grid)}, range=[{self.grid[0]:g}, "
            f"{self.grid[-1]:g}])"
        )


Deformation = Union[ClosedForm, Numeric]


def _nan_where_raising(f, column, *args):
    """``ex._each(f, column, *args)``, NaN at the values where ``f`` raises."""
    try:
        return ex._each(f, column, *args)
    except ex._Failed as failed:
        values, mask = failed.args
        values[mask] = math.nan
        return values


# The transcendental calls of _base_triple on a float64 column: math's, one
# element at a time, never numpy's exp, power or log, whose last bit may
# differ, and NaN where math raises, so that triple reads only those values.
# Its + - * / round on a column as they do on floats.
_COLUMN = tuple(partial(_nan_where_raising, f) for f in (math.exp, math.pow, math.log))


def _base_triple(family, t, numerator, exp=math.exp, power=math.pow, log=math.log):
    if isinstance(family, Affine):
        return (t, 1.0, 0.0)
    if isinstance(family, Constant):
        g = family.gamma
        e = exp(g * t)
        return (e / g, e, g * e)
    if isinstance(family, PowerShift):
        g, a = family.gamma, family.a
        u = t + a
        return (
            power(u, 1.0 + g) / (1.0 + g),
            power(u, g),
            g * power(u, g - 1.0),
        )
    if isinstance(family, Logarithmic):
        u = t + family.a
        return (log(u), 1.0 / u, -1.0 / (u * u))
    if isinstance(family, HomogeneousRoot):
        q = 1.0 / family.p
        return (
            power(t, q),
            q * power(t, q - 1.0),
            q * (q - 1.0) * power(t, q - 2.0),
        )
    if isinstance(family, Moebius):
        alpha, beta = numerator
        c, d = family.c, family.d
        den = c * t + d
        det = alpha * d - beta * c
        return (
            (alpha * t + beta) / den,
            det / (den * den),
            -2.0 * c * det / (den * den * den),
        )
    raise TypeError(f"no closed form for {family!r}")


def chain(phi, ts):
    """``(lines, marked)``: Phi, Phi', Phi'' at the float64 column ``ts``, bit for bit
    ``phi.triple`` at each value, and the values where it raises. A closed form runs on
    the column, and reads ``triple`` where it is outside its interval or not finite."""
    lines, redo = np.empty((3, len(ts))), range(len(ts))
    if isinstance(phi, ClosedForm):
        with np.errstate(all="ignore"):
            lines = np.array(np.broadcast_arrays(*phi._at(ts, *_COLUMN)))
            # where a float division by 0.0 raises, a column's is inf or nan
            inside = (phi.interval[0] < ts) & (ts < phi.interval[1]) & np.isfinite(lines).all(axis=0)
            redo = np.flatnonzero(~inside).tolist()
    marked = set()
    for j in redo:
        try:
            lines[:, j] = phi.triple(ts[j].item())
        except (ArithmeticError, ValueError):  # OutOfInterval, or math's own error
            lines[:, j] = math.nan
            marked.add(j)
    return lines, marked


def _base_compose(family, L: ex.Expr, numerator) -> ex.Expr:
    if isinstance(family, Affine):
        return L
    if isinstance(family, Constant):
        g = family.gamma
        return ex.mul(ex.Const(1.0 / g), ex.exp(ex.mul(ex.Const(g), L)))
    if isinstance(family, PowerShift):
        g, a = family.gamma, family.a
        return ex.mul(
            ex.Const(1.0 / (1.0 + g)), ex.pow_(ex.add(L, ex.Const(a)), 1.0 + g)
        )
    if isinstance(family, Logarithmic):
        return ex.ln(ex.add(L, ex.Const(family.a)))
    if isinstance(family, HomogeneousRoot):
        return ex.pow_(L, 1.0 / family.p)
    if isinstance(family, Moebius):
        alpha, beta = numerator
        return ex.div(
            ex.add(ex.mul(ex.Const(alpha), L), ex.Const(beta)),
            ex.add(ex.mul(ex.Const(family.c), L), ex.Const(family.d)),
        )
    raise TypeError(f"no closed form for {family!r}")


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def synthesize(family, data_interval: tuple) -> Deformation:
    """Build the canonical strictly increasing deformation for a family, valid
    on the maximal domain interval containing ``data_interval``. Free affine
    constants never change the verification outcome, so they are pinned to
    scale 1, shift 0."""
    lo, hi = float(data_interval[0]), float(data_interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError("data interval must be finite with lo <= hi")

    if isinstance(family, Tabulated):
        return synthesize_numeric(family.points)
    if isinstance(family, (Affine, Constant)):
        return ClosedForm(family, (-math.inf, math.inf))
    if isinstance(family, (PowerShift, Logarithmic)):
        if lo + family.a <= 0.0:
            raise DomainConflict(
                f"L + a must stay positive: interval [{lo:g}, {hi:g}], a = {family.a:g}"
            )
        return ClosedForm(family, (-family.a, math.inf))
    if isinstance(family, HomogeneousRoot):
        if lo <= 0.0:
            raise DomainConflict("root deformations need positive Lagrangian values")
        return ClosedForm(family, (0.0, math.inf))
    if isinstance(family, Moebius):
        c, d = family.c, family.d
        if c == 0.0:
            # degenerate linear member, increasing for d > 0
            numerator = (1.0, 0.0) if d > 0 else (-1.0, 0.0)
            return ClosedForm(family, (-math.inf, math.inf), numerator=numerator)
        pole = -d / c
        if lo < pole < hi:
            raise DomainConflict(
                f"the sampled interval [{lo:g}, {hi:g}] straddles the pole {pole:g}"
            )
        interval = (pole, math.inf) if lo > pole else (-math.inf, pole)
        if d > 0:
            numerator = (1.0, 0.0)
        elif d < 0:
            numerator = (-1.0, 0.0)
        else:
            numerator = (0.0, -1.0) if lo > pole else (0.0, 1.0)
        return ClosedForm(family, interval, numerator=numerator)
    raise TypeError(f"cannot synthesize from {family!r}")


def synthesize_numeric(cloud: Sequence) -> Numeric:
    """Integrate a sampled slope cloud: F = int f (trapezoid on a uniform
    grid), Phi' = exp(F), Phi = int Phi'."""
    # scipy is loaded here, not at module level: closed-form runs never need it
    from scipy.interpolate import PchipInterpolator

    pts = sorted((float(l), float(f)) for l, f in cloud)
    if len(pts) < 8:
        raise InsufficientSamples("numeric synthesis needs at least 8 points")
    ls = np.array([l for l, _ in pts])
    fs = np.array([f for _, f in pts])
    if np.any(np.diff(ls) <= 0.0):
        raise ValueError("cloud abscissae must be strictly increasing")
    grid = np.linspace(ls[0], ls[-1], _GRID_SIZE)
    # shape-preserving interpolation of the slope cloud onto the grid; the
    # integration itself stays trapezoid
    f_grid = PchipInterpolator(ls, fs)(grid)
    dl = np.diff(grid)
    big_f = np.concatenate(([0.0], np.cumsum(0.5 * (f_grid[1:] + f_grid[:-1]) * dl)))
    dphi = np.exp(big_f)
    phi = np.concatenate(([0.0], np.cumsum(0.5 * (dphi[1:] + dphi[:-1]) * dl)))
    interp_dphi = PchipInterpolator(grid, dphi)
    return Numeric(
        grid=tuple(grid),
        _phi=PchipInterpolator(grid, phi),
        _dphi=interp_dphi,
        _ddphi=interp_dphi.derivative(),
    )


# ---------------------------------------------------------------------------
# deformed Lagrangian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeformedLagrangian:
    """Phi composed with a base Lagrangian. ``deformation.triple`` at the
    value of L is the one chain-rule entry point for every deformation kind;
    ``composed`` is the exact symbolic form of a closed form, kept as an
    independent oracle."""

    base: ScalarField
    deformation: Deformation

    def composed(self) -> Optional[ScalarField]:
        if isinstance(self.deformation, ClosedForm):
            return ScalarField(self.base.n, self.deformation.compose(self.base.expr))
        return None


class _Chained:
    """``combine(chain, rest)`` of a kernel whose first root is L: ``chain``
    is Phi's ``triple`` at L, ``rest`` the other roots, at a row by
    ``chained(row)``, the kernel's walk, or at many by ``columns``, which
    takes the lines of :func:`chain` at the L column and marks the rows
    either marks."""

    def __init__(self, kernel, deformation: Deformation, combine=lambda chain, rest: (*chain, *rest)):
        self.kernel = kernel
        self.deformation = deformation
        self.combine = combine

    def walk(self, row):
        v = self.kernel.walk(row)
        return self.combine(self.deformation.triple(v[0]), v[1:])

    __call__ = walk

    def columns(self, stack):
        values, marked = self.kernel.columns(stack)
        lines, failed = chain(self.deformation, values[0])
        return self.combine(lines, values[1:]), marked | failed


@dataclass
class DeformedELReport:
    direct: ConditionReport
    expansion_max_residual: float
    agreement_max: float
    out_of_interval: int


def verify_deformed_el(
    derived: DerivedFields,
    deformation: Deformation,
    samples: Samples,
    tol: float = 1e-9,
) -> DeformedELReport:
    """Check that the deformed Lagrangian has vanishing Lagrange differential
    along the spray: the direct form S(dPhi(L)/dy_i) - dPhi(L)/dx_i and the
    expanded form Phi'' S(L) dL/dy_i + Phi' (delta_S L)_i are both evaluated
    and compared; the verdict is on the direct form. ``samples`` are rows
    where L is evaluable; those where Phi(L) is not count as rejected."""
    composed = DeformedLagrangian(derived.lagrangian, deformation).composed()
    direct_form = (
        lagrange_differential(derived.spray, composed, derived.table) if composed is not None else None
    )
    # per component: d_J L, delta_S L and, for a closed form, the direct form
    forms = (derived.vertical.components, derived.defect.components)
    forms += (direct_form.components,) if direct_form is not None else ()
    roots = (derived.lagrangian.expr, derived.spray_of_L.expr) + _interleaved(*forms)
    chained = _Chained(derived.kernel(roots), deformation)
    # Phi, Phi', Phi'', S(L), then the forms' components
    values, errors = ex.table(chained, samples.stack)
    kept = ex.kept(errors, len(samples.rows), (OutOfInterval, ex.DomainViolation))
    values = values[:, kept]
    _, d1, d2, sl = values[:4]
    stride = len(forms)
    with np.errstate(all="ignore"):
        term1 = d2 * sl * values[4::stride]
        term2 = d1 * values[5::stride]
        expanded = term1 + term2
        scale = 1.0 + np.abs(term1) + np.abs(term2)
        direct = values[6::stride] if direct_form is not None else expanded
        residuals = _worst(np.abs(direct) / scale, 0).tolist()
        expansion_max = float(_worst(np.abs(expanded) / scale))
        agreement_max = float(_worst(np.abs(direct - expanded) / scale))
    if not residuals:  # no residual to take the worst of
        expansion_max = agreement_max = math.nan
    out_of_interval = int(np.count_nonzero(~kept))
    kept_rows = list(compress(samples.rows, kept))
    direct_report = ConditionReport.from_residuals(
        "deformed_euler_lagrange", residuals, kept_rows, samples.rejected + out_of_interval, tol
    )
    return DeformedELReport(direct_report, expansion_max, agreement_max, out_of_interval)


def deformed_hessian_matrix(derived: DerivedFields, deformation: Deformation):
    """Fiber Hessian of Phi(L) as a callable ``row -> tuple`` of its entries
    in row-major order, with ``columns(stack)`` for many rows at once:
    Phi'' L_y_i L_y_j + Phi' g_ij, for closed-form and numeric deformations
    alike, by the float operations of ``Phi'' outer(L_y, L_y) + Phi' g``."""
    n = derived.lagrangian.n
    roots = (derived.lagrangian.expr,) + tuple(derived.vertical.components)
    roots += tuple(cell for line in derived.hessian for cell in line)

    def entries(chain, v):
        # v holds L_y, then g's cells
        _, d1, d2 = chain
        return tuple(d2 * (v[i] * v[j]) + d1 * v[n + i * n + j] for i in range(n) for j in range(n))

    return _Chained(derived.kernel(roots), deformation, entries)


def deformed_hessian(
    derived: DerivedFields,
    deformation: Deformation,
    samples: Samples,
) -> HessianReport:
    """Rank report of the fiber Hessian of Phi(L) over ``samples``."""
    return hessian_report(deformed_hessian_matrix(derived, deformation), samples)
