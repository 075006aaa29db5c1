"""Sampled checks of the deformability conditions and slope classification.

A forced system delta_S L = sigma admits a deformed genuine Lagrangian
Phi(L) exactly when

  (i)   sigma = (S(E_L)/C(L)) d_J L,
  (ii)  Phi''/Phi' = -S(E_L)/(S(L) C(L)) is a function of L alone,
  (iii) the deformed fiber Hessian is non-trivial,

plus the homogeneous shortcut (L, sigma fiber-homogeneous of degree p > 1
with d_J L ^ sigma = 0, giving Phi = a L^(1/p) + b) and the dissipative
refinement sigma = d_J D with S(E_L) = C(D).
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import expressions as ex
from .families import (
    Affine,
    Constant,
    HomogeneousRoot,
    Logarithmic,
    Moebius,
    PowerShift,
    Tabulated,
)
from .geometry import (
    PhasePoint,
    ScalarField,
    SemiBasicForm,
    SemiSpray,
    energy,
    fiber_hessian,
    homogeneity_degrees,
    liouville_apply,
    spray_apply,
    lagrange_differential,
    vertical_differential,
)
from .sampling import Guards, GuardViolation, SamplePlan, Samples

# Regula falsi steps, at most, that put a constructed point on a target level of L.
_LEVEL_STEPS = 80
# Target levels of the dependence test and points constructed on each.
_LEVELS = 32
_PER_LEVEL = 4
# Blocks of fiber segments the dependence test draws at most.
_ATTEMPTS = 12
# Damped Gauss-Newton steps of one start of the classify fit.
_GN_ITERATIONS = 50
# A singular value counts towards the rank above this fraction of the largest.
_RANK_RTOL = 1e-9
# A Hessian is non-trivial when some entry exceeds this on the samples.
_NONTRIVIAL_TOL = 1e-10
# Tolerance of the measured fiber-homogeneity degrees.
_TOL_DEGREE = 1e-9


class InsufficientSamples(Exception):
    pass


class NotHomogeneous(Exception):
    def __init__(self, message: str, degrees: dict):
        super().__init__(f"{message}; measured degrees: {degrees}")
        self.degrees = degrees


@dataclass
class ConditionReport:
    condition: str
    accepted: int
    rejected: int
    max_residual: float
    mean_residual: float
    tolerance: float
    passed: bool
    worst_point: Optional[PhasePoint] = None

    @staticmethod
    def from_residuals(
        condition: str,
        residuals: Sequence[float],
        rows: Sequence,
        rejected: int,
        tolerance: float,
    ) -> "ConditionReport":
        """The report of one residual per row; the worst row, a chart point
        ``(x1..xn, y1..yn)``, becomes ``worst_point``. A check over no rows
        fails, with NaN residuals."""
        if not residuals:
            return ConditionReport(
                condition, 0, rejected, math.nan, math.nan, float(tolerance), False
            )
        # a NaN residual is the worst one, and fails the check
        worst = next((k for k, r in enumerate(residuals) if r != r), None)
        if worst is None:
            worst = max(range(len(residuals)), key=lambda k: residuals[k])
        row = rows[worst]
        n = len(row) // 2
        return ConditionReport(
            condition=condition,
            accepted=len(residuals),
            rejected=rejected,
            max_residual=float(residuals[worst]),
            mean_residual=float(sum(residuals) / len(residuals)),
            tolerance=float(tolerance),
            passed=bool(residuals[worst] <= tolerance),
            worst_point=PhasePoint(row[:n], row[n:]),
        )


@dataclass
class DerivedFields:
    """The handful of composite fields every check needs, built once, and
    the kernels the checks compile over them with the run's parameter
    values ``params`` bound in. ``table`` is the run's derivative table
    (:func:`expressions.partial`): every field here, and every field a check
    derives later, differentiates through it."""

    spray: SemiSpray
    lagrangian: ScalarField
    params: Optional[dict] = None
    spray_of_L: ScalarField = field(init=False)
    liouville_of_L: ScalarField = field(init=False)
    energy_of_L: ScalarField = field(init=False)
    energy_rate: ScalarField = field(init=False)  # S(E_L)
    vertical: SemiBasicForm = field(init=False)  # d_J L
    defect: SemiBasicForm = field(init=False)  # delta_S L
    hessian: list = field(init=False)  # g_ij, the fiber Hessian of L
    table: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.table = table = {}
        self.spray_of_L = spray_apply(self.spray, self.lagrangian, table)
        self.liouville_of_L = liouville_apply(self.lagrangian, table)
        self.energy_of_L = energy(self.lagrangian, table)
        self.energy_rate = spray_apply(self.spray, self.energy_of_L, table)
        self.vertical = vertical_differential(self.lagrangian, table)
        self.defect = lagrange_differential(self.spray, self.lagrangian, table)
        self.hessian = fiber_hessian(self.lagrangian, table)

    def theorem_guards(self) -> Guards:
        return Guards(
            nonzero=(self.spray_of_L, self.liouville_of_L),
            evaluable=(self.lagrangian.expr, self.energy_rate.expr),
        )

    def run_guards(self, sigma=None, dissipation=None) -> Guards:
        """The theorem guards with the defect, ``sigma`` and ``dissipation``
        evaluable: the guards of the one sample set a run's checks share."""
        theorem = self.theorem_guards()
        extra = tuple(self.defect.components)
        extra += tuple(sigma.components) if sigma is not None else ()
        extra += (dissipation.expr,) if dissipation is not None else ()
        return Guards(theorem.nonzero, theorem.evaluable + extra)

    def kernel(self, roots):
        """The kernel of ``roots`` over the chart points, with ``params``
        bound in."""
        return ex.compile(roots, ex.chart_names(self.lagrangian.n), self.params)


def _interleaved(*forms) -> tuple:
    """The components of ``forms`` component by component: a1, b1, a2, b2, ..."""
    return tuple(c for components in zip(*forms) for c in components)


def _worst(residuals, axis=None):
    """The largest of ``residuals`` and 0.0, or NaN if one is NaN, as a row
    loop's running maximum gives it: each residual is >= +0.0 or NaN."""
    return np.max(residuals, axis=axis, initial=0.0)


def _first_row(errors: dict, *masks) -> Optional[int]:
    """The first row with an error in :func:`ex.table`'s ``errors`` or True in a mask."""
    rows = [next(iter(errors))[0]] if errors else []
    rows += [int(np.argmax(mask)) for mask in masks if mask.any()]
    return min(rows, default=None)


# ---------------------------------------------------------------------------
# the slope ratio (condition (ii) pointwise)
# ---------------------------------------------------------------------------


def _ratio_roots(derived: DerivedFields) -> tuple:
    """L, then the fields of the slope ratio, as :func:`_slope_ratio` reads them."""
    return (
        derived.lagrangian.expr,
        derived.spray_of_L.expr,
        derived.liouville_of_L.expr,
        derived.energy_rate.expr,
    )


def _slope_ratio(values, guard_eps: float) -> float:
    """-S(E_L) / (S(L) C(L)) from the values of :func:`_ratio_roots`: the
    target value for Phi''/Phi'."""
    sl, cl = values[1], values[2]
    if abs(sl) <= guard_eps:
        raise GuardViolation("S(L)", sl, guard_eps)
    if abs(cl) <= guard_eps:
        raise GuardViolation("C(L)", cl, guard_eps)
    return -values[3] / (sl * cl)


def _slope_ratios(ratio, stack, guard_eps: float):
    """L and :func:`_slope_ratio` at the columns of ``stack`` from one column
    call of ``ratio``, the guards' rejections, and the rows only the scalar
    function decides: where an item raises or S(L) C(L) is 0."""
    (l_col, sl, cl, rate), errors = ex.table(ratio, stack)
    with np.errstate(all="ignore"):
        product = sl * cl
        ratios = -rate / product
    odd = product == 0.0
    odd[[j for j, _ in errors]] = True
    return l_col, ratios, (np.abs(sl) <= guard_eps) | (np.abs(cl) <= guard_eps), odd


# ---------------------------------------------------------------------------
# condition (i): the force is the aligned multiple of d_J L
# ---------------------------------------------------------------------------


def check_sigma_condition(
    derived: DerivedFields,
    sigma: SemiBasicForm,
    samples: Samples,
    tol: float = 1e-9,
) -> ConditionReport:
    """Check sigma = (S(E_L)/C(L)) d_J L at ``samples`` (drawn with C(L)
    guarded), per component, with residuals relative to 1 + |sigma_i|. The
    conservative case passes vacuously."""
    roots = (derived.energy_rate.expr, derived.liouville_of_L.expr)
    roots += _interleaved(sigma.components, derived.vertical.components)
    kernel = derived.kernel(roots)
    values, errors = ex.table(kernel, samples.stack)
    j = _first_row(errors, values[1] == 0.0)
    if j is not None:
        # reading the rows one at a time stops here: at an item that raises,
        # or at Python's own division by a zero C(L), before the components
        v = kernel(samples.rows[j])
        v[0] / v[1], v[2:]
    s_i = values[2::2]
    with np.errstate(all="ignore"):
        residuals = np.abs(s_i - values[0] / values[1] * values[3::2]) / (1.0 + np.abs(s_i))
    return ConditionReport.from_residuals(
        "sigma_condition", _worst(residuals, 0).tolist(), samples.rows, samples.rejected, tol
    )


def check_sigma_consistency(
    derived: DerivedFields,
    sigma: SemiBasicForm,
    samples: Samples,
    tol: float = 1e-9,
) -> ConditionReport:
    """Cross-check a user-supplied sigma against the Lagrange differential:
    the force form is the defect delta_S L by definition, so disagreement
    means the problem data is inconsistent."""
    roots = _interleaved(sigma.components, derived.defect.components)
    values, errors = ex.table(derived.kernel(roots), samples.stack)
    ex.kept(errors, len(samples.rows))  # raises the first error, if any
    s_i = values[0::2]
    with np.errstate(all="ignore"):
        residuals = np.abs(s_i - values[1::2]) / (1.0 + np.abs(s_i))
    return ConditionReport.from_residuals(
        "sigma_consistency", _worst(residuals, 0).tolist(), samples.rows, samples.rejected, tol
    )


# ---------------------------------------------------------------------------
# condition (ii): functional dependence of the ratio on L
# ---------------------------------------------------------------------------


@dataclass
class DependenceResult:
    functional: bool
    cloud: list  # cleaned, sorted (L, f) pairs
    levels_used: int
    max_level_spread: float
    tolerance: float


class _LevelSolver:
    """Points on the target levels of L, the one root of the kernel
    ``level``, each found by regula falsi along a random fiber segment in
    ``[lows, highs]`` drawn from ``rng``. ``accept(points)`` gives the
    outcome at each column of ``points``: a slope value, None where the
    point is rejected, or the error it meets there."""

    def __init__(self, level, lows: list, highs: list, rng, targets: list, accept: Callable):
        self.level = level
        self.n = len(lows) // 2
        self.lows = lows + lows[self.n :]
        self.highs = highs + highs[self.n :]
        self.rng = rng
        self.targets = np.array(targets, dtype=float)
        self.accept = accept
        # the segments' ends as columns, L at them, and which segments
        # bracket which level: none where L cannot be evaluated at an end
        self.a = self.b = np.empty((2 * self.n, 0))
        self.ends = np.empty((2, 0))
        self.brackets = np.empty((len(targets), 0), dtype=bool)

    def groups(self) -> list:
        """The slope values on each target level, in segment order: up to
        _PER_LEVEL accepted points from up to 3 _PER_LEVEL solves, each along
        the next segment in draw order that brackets the level. A segment
        serves every level it brackets. A round draws blocks of segments,
        _ATTEMPTS at most in all, until each level short of points has a
        segment for every point it lacks; it solves all those lanes at once,
        and the next round serves only the levels whose lanes missed or
        were rejected. Every point a round solves for would enter its group,
        so an error that its solve meets or ``accept`` returns is raised."""
        groups = [[] for _ in self.targets]
        tried = np.zeros(len(groups), dtype=int)
        cap = _ATTEMPTS * _LEVELS * _PER_LEVEL
        while True:
            need = np.minimum(_PER_LEVEL - np.array([len(g) for g in groups]), 3 * _PER_LEVEL - tried)
            while (self.brackets.sum(axis=1) - tried < need).any() and self.ends.shape[1] < cap:
                self._draw()
            # each level's next ``need`` bracketing segments
            rank = np.cumsum(self.brackets, axis=1)
            lanes = self.brackets & (rank > tried[:, None]) & (rank <= (tried + need)[:, None])
            levels, segments = np.nonzero(lanes)
            if not levels.size:
                return groups
            for k, outcome in zip(levels.tolist(), self._regula_falsi(segments, levels)):
                if isinstance(outcome, Exception):
                    raise outcome
                if outcome is not None:
                    groups[k].append(outcome)
            tried += lanes.sum(axis=1)

    def _draw(self):
        """A block of segments, one per point of the levels: a chart point a,
        and b with a's positions and fresh fibers, drawn in the order of one
        ``rng.uniform`` call per coordinate. An error other than a domain
        violation at an end is raised, the first segment's first."""
        n = self.n
        block = self.rng.uniform(self.lows, self.highs, size=(_LEVELS * _PER_LEVEL, 3 * n)).T
        a, b = block[: 2 * n], np.concatenate((block[:n], block[2 * n :]))
        (va, a_errors), (vb, b_errors) = self._level_at(a), self._level_at(b)
        failed = sorted(a_errors.keys() | b_errors.keys())
        for j in failed:
            error = a_errors.get(j) or b_errors[j]
            if not isinstance(error, ex.DomainViolation):
                raise error
        with np.errstate(all="ignore"):
            # a NaN at an end brackets every target: the product is not > 0
            brackets = ~((va - self.targets[:, None]) * (vb - self.targets[:, None]) > 0.0)
        brackets[:, failed] = False
        self.a = np.concatenate((self.a, a), axis=1)
        self.b = np.concatenate((self.b, b), axis=1)
        self.ends = np.concatenate((self.ends, [va, vb]), axis=1)
        self.brackets = np.concatenate((self.brackets, brackets), axis=1)

    def _level_at(self, stack):
        """L at the columns of ``stack``, and the error of each column where
        L cannot be evaluated."""
        (values,), errors = ex.table(self.level, stack)
        return values, {j: exc for (j, _), exc in errors.items()}

    def _regula_falsi(self, segments, levels) -> list:
        """The outcome of each lane, the ``segments[j]``-th segment and the
        ``levels[j]``-th target, all solved in lockstep by the Illinois
        regula falsi: ``accept`` at its point, None where the point misses
        the level width or its solve meets a domain violation, or an error
        other than that the solve meets.

        A lane's bracket starts at its segment's ends a and b, with fa and fb
        the values of L - target its draw read there; an end on the level is
        the lane's point. A step goes to c = b + s (a - b), s = fb / (fb -
        fa), or to the midpoint where s is not inside (0, 1) or where c
        rounds onto b, which is off the level (Brent's minimum step). b is
        always the newest point: b passes to a where fc has the sign of fa or
        the sign opposite to fb's, or where fa and fc are both NaN; elsewhere
        a stays and fa is halved. A lane stops at c where fc = 0, where c
        equals one of its ends bitwise, or at the _LEVEL_STEPS-th step."""
        goal = self.targets[levels]
        ends, errors = self.ends[:, segments], {}
        with np.errstate(all="ignore"):
            fa, fb = ends - goal
            on_b = (fa != 0.0) & (fb == 0.0)
            points = np.where(on_b, self.b[:, segments], self.a[:, segments])
            values = np.where(on_b, ends[1], ends[0])
            # the lanes still stepping, their targets, brackets and L - target there
            index = np.flatnonzero((fa != 0.0) & (fb != 0.0))
            target, fa, fb = goal[index], fa[index], fb[index]
            a, b = self.a[:, segments[index]], self.b[:, segments[index]]
            for step in range(_LEVEL_STEPS):
                if not index.size:
                    break
                s = fb / (fb - fa)
                c = b + s * (a - b)
                secant = (0.0 < s) & (s < 1.0) & (c.view(np.int64) != b.view(np.int64)).any(axis=0)
                c = np.where(secant, c, (a + b) / 2.0)
                vc, failed = self._level_at(c)
                live = np.ones(len(index), dtype=bool)
                for j, exc in failed.items():
                    errors[int(index[j])] = None if isinstance(exc, ex.DomainViolation) else exc
                    live[j] = False
                fc, bits = vc - target, c.view(np.int64)
                at_end = (bits == a.view(np.int64)).all(axis=0) | (bits == b.view(np.int64)).all(axis=0)
                stop = live & ((fc == 0.0) | at_end | (step == _LEVEL_STEPS - 1))
                points[:, index[stop]], values[index[stop]] = c[:, stop], vc[stop]
                live &= ~stop
                flip = (fc * fa > 0.0) | (fc * fb < 0.0) | (np.isnan(fa) & np.isnan(fc))
                a, fa = np.where(flip, b, a)[:, live], np.where(flip, fb, fa / 2.0)[live]
                index, target, b, fb = index[live], target[live], c[:, live], fc[live]
        on_level = np.abs(values - goal) <= 1e-10 * (1.0 + np.abs(goal))
        found = [j for j in range(len(segments)) if j not in errors and on_level[j]]
        accepted = dict(zip(found, self.accept(points[:, found])))
        return [errors[j] if j in errors else accepted.get(j) for j in range(len(segments))]


def functional_dependence_test(
    derived: DerivedFields,
    samples: Samples,
    plan: SamplePlan,
    tol_dep: float = 1e-6,
) -> DependenceResult:
    """Decide whether the slope ratio is a function of L alone.

    Collects the (L, f) cloud over ``samples``, a draw of ``plan`` under at
    least ``derived.theorem_guards()``, then builds groups of near-equal L by
    constructing extra points directly on 32 target levels (Illinois regula
    falsi along fiber segments, level width ~1e-10 relative) and compares
    the ratio within each group. Genuine level-set variation shows up as
    within-group spread far above float noise. A level's group holds up to
    4 points from the first segments in draw order that bracket it, and one
    segment serves every level it brackets (:meth:`_LevelSolver.groups`).
    Raises :class:`InsufficientSamples` with fewer than 8 rows, 8 distinct
    values of L or 8 groups of 2 points or more.
    """
    lagrangian = derived.lagrangian
    rows = samples.rows
    if len(rows) < 8:
        raise InsufficientSamples(f"only {len(rows)} accepted points")

    ratio = derived.kernel(_ratio_roots(derived))
    eps = plan.guard_eps
    l_col, ratios, guarded, odd = _slope_ratios(ratio, samples.stack, eps)
    if (guarded | odd).any():  # the first such row stops a read row by row
        v = ratio(rows[int(np.argmax(guarded | odd))])
        v[0], _slope_ratio(v, eps)
    cloud = sorted(zip(l_col.tolist(), ratios.tolist()), key=lambda t: t[0])
    cleaned = _merge_duplicate_abscissae(cloud)
    if len(cleaned) < 8:
        raise InsufficientSamples("fewer than 8 distinct Lagrangian values")

    f_median = float(np.median([f for _, f in cleaned]))
    tolerance = tol_dep * (1.0 + abs(f_median))

    def accept_row(row):
        try:
            return _slope_ratio(ratio(row), eps)
        except (GuardViolation, ex.DomainViolation):
            return None
        except Exception as exc:  # raised where the point would enter its group
            return exc

    def accept(points):
        _, values, rejected, odd = _slope_ratios(ratio, points, eps)
        return [
            accept_row(row) if odd[j] else None if rejected[j] else values[j]
            for j, row in enumerate(points.T.tolist())
        ]

    names = ex.chart_names(lagrangian.n)
    solver = _LevelSolver(
        derived.kernel((lagrangian.expr,)),
        [plan.bounds[v][0] for v in names],
        [plan.bounds[v][1] for v in names],
        np.random.default_rng(plan.seed + 1),
        _levels([l for l, _ in cleaned]),
        accept,
    )
    max_spread = 0.0
    used = 0
    functional = True
    for group in solver.groups():
        if len(group) >= 2:
            used += 1
            spread = max(group) - min(group)
            max_spread = max(max_spread, spread)
            if spread > tolerance:
                functional = False
    if used < 8:
        raise InsufficientSamples(
            f"could only build {used} usable equal-level groups"
        )
    return DependenceResult(functional, cleaned, used, max_spread, tolerance)


def _levels(values) -> list:
    """The dependence test's target levels: ``np.quantile(values, (k + 0.5)
    / _LEVELS)`` for each ``k``, from one sort of the float ``values``, by
    numpy's own ``linear`` rule. The values are equal as floats; only the sign of a zero level may
    differ, as numpy partitions where this sorts."""
    a = np.sort(values).tolist()
    if a[-1] != a[-1]:  # NaN sorts last, and numpy gives NaN at every level
        return [math.nan] * _LEVELS
    levels = []
    for k in range(_LEVELS):
        v = (len(a) - 1) * ((k + 0.5) / _LEVELS)
        lo = math.floor(v)
        t = v - lo
        d = a[lo + 1] - a[lo]
        levels.append(a[lo] + d * t if t < 0.5 else a[lo + 1] - d * (1 - t))
    return levels


def _merge_duplicate_abscissae(cloud):
    if not cloud:
        return []
    span = max(cloud[-1][0] - cloud[0][0], 1e-300)
    eps = 1e-12 * span
    merged = []
    bucket_l, bucket_f = [cloud[0][0]], [cloud[0][1]]
    for l, f in cloud[1:]:
        if l - bucket_l[-1] <= eps:
            bucket_l.append(l)
            bucket_f.append(f)
        else:
            merged.append((sum(bucket_l) / len(bucket_l), sum(bucket_f) / len(bucket_f)))
            bucket_l, bucket_f = [l], [f]
    merged.append((sum(bucket_l) / len(bucket_l), sum(bucket_f) / len(bucket_f)))
    return merged


# ---------------------------------------------------------------------------
# classification of the slope cloud into a deformation family
# ---------------------------------------------------------------------------


@dataclass
class FunctionalFit:
    chosen: object
    residual: float
    penalized: float
    competitors: dict
    homogeneous_root: Optional[HomogeneousRoot] = None

    def describe(self) -> str:
        return self.chosen.describe()


def _rms(values: np.ndarray) -> float:
    """``np.sqrt(np.mean(values * values))`` bit for bit, for a float64 array:
    the same pairwise sum and the same division, and both square roots are
    correctly rounded."""
    return math.sqrt(float(np.add.reduce(values * values)) / values.size)


class _Model(NamedTuple):
    """A slope model ``value(ls, theta)`` with its Jacobian in closed form.

    ``value`` is plain arithmetic on the ``p`` items of ``theta``, so it
    evaluates on a whole array of L values for a stack of parameter sets
    (items of shape ``(S, 1)``, from :func:`_columns`) and also on one L
    with :class:`~lagdeform.expressions.Dual` parameters; the tests use the
    latter as the oracle for ``jacobian``.
    """

    value: Callable
    jacobian: Callable  # (ls, theta) -> array of shape theta's stack + (len(ls), p)


def _columns(thetas):
    """The ``(S, p)`` parameter stack as the ``p`` items a model reads, each of shape ``(S, 1)``."""
    return [thetas[:, k, None] for k in range(thetas.shape[1])]


def _costs(model: _Model, thetas, ls, fs):
    """The residual rows and each row's :func:`_rms`, bit for bit: one
    pairwise sum per contiguous row."""
    r = model.value(ls, _columns(thetas)) - fs
    return r, np.sqrt(np.add.reduce(r * r, axis=1) / len(ls))


def _normal(model: _Model, ls, thetas, residuals):
    """``J^T J`` and ``J^T r`` of each row of the stack: one Jacobian, and per slice
    the products of one start (``syrk`` and ``gemv`` in BLAS)."""
    jac = model.jacobian(ls, _columns(thetas))
    jt = jac.swapaxes(1, 2)
    return jt @ jac, jt @ residuals[:, :, None]


def _solve(a, b):
    """``np.linalg.solve`` of each slice: one stacked call, or where some
    slice is singular, one call per slice, with NaN for a singular one."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        x = np.full_like(b, math.nan)
        for i in range(len(a)):
            with suppress(np.linalg.LinAlgError):
                x[i] = np.linalg.solve(a[i], b[i])
        return x


def _gauss_newton(model: _Model, starts: list, ls, fs) -> list:
    """Damped Gauss-Newton over the whole ``(ls, fs)`` cloud from each of
    ``starts``, with ``(theta, cost)`` per start, the starts in lockstep as
    the rows of one ``(S, p)`` block. A tick makes one try for each running
    start, which keeps its own damping and counts and leaves the block after
    ``_GN_ITERATIONS`` steps, at a cost below 1e-15, or after 8 straight
    rejected tries. A stack's products and solves are per slice those of one
    start, so each start ends, bit for bit, where it would alone.

    A start whose cost is not finite, as when a denominator is exactly zero
    somewhere in the cloud, returns ``(theta0, inf)``. A step is accepted
    only when its cost is lower, so a step to a non-finite cost never is,
    nor the NaN step of a singular slice."""
    if not starts:
        return []
    thetas = np.array(starts, dtype=float)
    found = [(theta, math.inf) for theta in thetas.copy()]
    eye = np.eye(thetas.shape[1])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        residuals, cost = _costs(model, thetas, ls, fs)
        rows = np.flatnonzero(np.isfinite(cost)).tolist()
        thetas, residuals, cost = thetas[rows], residuals[rows], cost[rows]
        lam, tries, steps = [1e-3] * len(rows), [0] * len(rows), [0] * len(rows)
        while rows:
            fresh = [t == 0 for t in tries]  # the starts that begin an iteration
            if all(fresh):
                jtj, jtr = _normal(model, ls, thetas, residuals)
            elif any(fresh):
                jtj[fresh], jtr[fresh] = _normal(model, ls, thetas[fresh], residuals[fresh])
            delta = _solve(jtj + np.array(lam)[:, None, None] * eye, -jtr)
            candidates = thetas + delta[:, :, 0]
            cand_res, cand_cost = _costs(model, candidates, ls, fs)
            better = cand_cost < cost
            if better.all():
                thetas, residuals, cost = candidates, cand_res, cand_cost
            elif better.any():
                thetas[better], residuals[better], cost[better] = candidates[better], cand_res[better], cand_cost[better]
            stay = []
            for k, b in enumerate(better.tolist()):
                if b:
                    lam[k], tries[k], steps[k] = max(lam[k] * 0.3, 1e-12), 0, steps[k] + 1
                else:
                    lam[k], tries[k] = lam[k] * 10.0, tries[k] + 1
                if (steps[k] < _GN_ITERATIONS and cost[k] >= 1e-15) if b else tries[k] < 8:
                    stay.append(k)
                else:
                    found[rows[k]] = (thetas[k].copy(), float(cost[k]))
            if len(stay) < len(rows):
                rows, lam, tries, steps = ([v[k] for k in stay] for v in (rows, lam, tries, steps))
                thetas, residuals, cost, jtj, jtr = (v[stay] for v in (thetas, residuals, cost, jtj, jtr))
    return found


def _power_shift(l, theta):
    gamma, a = theta
    return gamma / (l + a)


def _power_shift_jacobian(ls, theta):
    # each column as the dual-number quotient rule evaluates it, bit for bit
    gamma, a = theta
    s = ls + a
    ss = s * s
    return np.stack((s / ss, -gamma / ss), axis=-1)


def _moebius(l, theta):
    (t,) = theta
    return -2.0 / (l + t)


def _moebius_jacobian(ls, theta):
    (t,) = theta
    s = ls + t
    return np.stack((2.0 / (s * s),), axis=-1)


_model_power_shift = _Model(_power_shift, _power_shift_jacobian)
_model_moebius = _Model(_moebius, _moebius_jacobian)


def classify(cloud: Sequence, tol_fit: float = 1e-6) -> FunctionalFit:
    """Fit each closed-form slope family to the (L, f) cloud and pick the
    winner by residual plus a parsimony penalty of ``tol_fit`` per free
    parameter. Falls back to :class:`Tabulated` when nothing fits."""
    if len(cloud) < 8:
        raise InsufficientSamples("classification needs at least 8 points")
    ls = np.array([l for l, _ in cloud])
    fs = np.array([f for _, f in cloud])
    candidates = {}  # name -> (class instance, residual, free parameter count)

    gamma_const = float(np.mean(fs))
    resid_const = _rms(fs - gamma_const)
    if abs(gamma_const) < 1e-8:
        candidates["Affine"] = (Affine(), resid_const, 1)
    else:
        candidates["Constant"] = (Constant(gamma_const), resid_const, 1)

    # logarithmic is linear in a through the reciprocal transform
    if np.all(np.abs(fs) > 1e-12):
        a_log = float(np.mean(-1.0 / fs - ls))
        if np.all(np.abs(ls + a_log) > 1e-12):
            resid_log = _rms(fs + 1.0 / (ls + a_log))
            candidates["Logarithmic"] = (Logarithmic(a_log), resid_log, 1)

    starts = []
    for a0 in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
        if np.min(np.abs(ls + a0)) < 1e-9:
            continue
        u = 1.0 / (ls + a0)
        starts.append((float(u @ fs / (u @ u)), a0))
    best_ps = None
    for theta, cost in _gauss_newton(_model_power_shift, starts, ls, fs):
        if best_ps is None or cost < best_ps[1]:
            best_ps = (theta, cost)
    if best_ps is not None and math.isfinite(best_ps[1]):
        gamma_ps, a_ps = (float(t) for t in best_ps[0])
        if abs(gamma_ps) > 1e-8 and abs(gamma_ps + 1.0) > 1e-8:
            candidates["PowerShift"] = (
                PowerShift(gamma_ps, a_ps),
                float(best_ps[1]),
                2,
            )

    starts = [(t0,) for t0 in (0.5, -0.5, 1.0, -1.0, 2.0, -2.0) if np.min(np.abs(ls + t0)) >= 1e-9]
    best_mb = None
    for theta, cost in _gauss_newton(_model_moebius, starts, ls, fs):
        if best_mb is None or cost < best_mb[1]:
            best_mb = (theta, cost)
    if best_mb is not None and math.isfinite(best_mb[1]):
        t_mb = float(best_mb[0][0])
        # one identifiable parameter: (c, d) ~ (1, t) up to common scale
        candidates["Moebius"] = (Moebius.normalised(1.0, t_mb), float(best_mb[1]), 1)

    order = ["Affine", "Constant", "PowerShift", "Logarithmic", "Moebius"]
    best_name, best_penalized = None, math.inf
    for name in order:
        if name not in candidates:
            continue
        _, resid, nfree = candidates[name]
        penalized = resid + tol_fit * nfree
        if penalized < best_penalized:
            best_name, best_penalized = name, penalized

    competitors = {
        name: {"class": inst, "residual": resid}
        for name, (inst, resid, _) in candidates.items()
    }
    chosen, resid, _ = candidates[best_name]
    if resid > tol_fit:
        table = Tabulated(tuple((float(l), float(f)) for l, f in cloud))
        return FunctionalFit(table, resid, best_penalized, competitors)

    fit = FunctionalFit(chosen, resid, best_penalized, competitors)
    if isinstance(chosen, PowerShift) and abs(chosen.a) <= 1e-6:
        p = 1.0 / (1.0 + chosen.gamma)
        if p > 1.0 and abs(p - round(p)) <= 1e-6:
            fit.homogeneous_root = HomogeneousRoot(float(round(p)))
    return fit


# ---------------------------------------------------------------------------
# condition (iii): Hessian non-triviality and rank
# ---------------------------------------------------------------------------


@dataclass
class HessianReport:
    nontrivial: bool
    min_rank: int
    max_rank: int
    samples: int
    max_entry: float


def hessian_report(matrix: Callable, samples: Samples) -> HessianReport:
    """Evaluate ``matrix``, the n*n entries of an n x n matrix in row-major
    order, at the sampled rows: one ``matrix.columns`` call (the kernel of g,
    the deformed Hessian), and ``matrix.walk(row)`` where that call marks a
    row. Rank via singular values above
    ``_RANK_RTOL * s_max``, from one batched SVD. A row is skipped where its
    entries raise ``DomainViolation`` or ``ValueError`` (a deformed matrix's
    ``OutOfInterval``: Phi has no float value at L) or one is not finite."""
    stack = samples.stack
    n = len(stack) // 2
    values, errors = ex.table(matrix, stack)
    kept = ex.kept(errors, len(samples.rows), (ex.DomainViolation, ValueError))
    kept &= np.isfinite(values).all(axis=0)
    if not kept.any():
        raise InsufficientSamples("no evaluable points for the Hessian")
    stack = values[:, kept].T.reshape(-1, n, n)
    max_entry = float(np.max(np.abs(stack)))
    s = np.linalg.svd(stack, compute_uv=False)
    s_max = s[:, :1]
    ranks = np.sum(s > _RANK_RTOL * np.where(s_max > 0, s_max, 1.0), axis=1)
    return HessianReport(
        nontrivial=max_entry > _NONTRIVIAL_TOL,
        min_rank=int(ranks.min()),
        max_rank=int(ranks.max()),
        samples=len(stack),
        max_entry=max_entry,
    )


# ---------------------------------------------------------------------------
# homogeneous shortcut
# ---------------------------------------------------------------------------


@dataclass
class HomogeneousReport:
    degree: float
    spray_is_spray: bool
    wedge_residual: float
    passed: bool
    nontrivial: bool
    phi_class: Optional[HomogeneousRoot]
    tolerance: float
    samples: int


def check_homogeneous(
    derived: DerivedFields,
    sigma: SemiBasicForm,
    samples: Samples,
    tol_wedge: float = 1e-10,
) -> HomogeneousReport:
    """Homogeneous-case test: L and sigma fiber-homogeneous of common degree
    p > 1 on a spray, and d_J L wedge sigma = 0; then Phi = L^(1/p) works and
    the report carries the non-triviality of its Hessian combination."""
    lagrangian = derived.lagrangian
    rows, n = samples.rows, sigma.n

    # one kernel of L, each force component and the spray, read in one column call
    fields = (lagrangian, *(ScalarField(n, comp) for comp in sigma.components), derived.spray)
    p_l, *comp, spray = homogeneity_degrees(fields, samples.stack, derived.kernel, _TOL_DEGREE)
    degrees = {"L": p_l, **{f"sigma_{i + 1}": deg for i, deg in enumerate(comp)}, "spray": spray}

    if p_l is None:
        raise NotHomogeneous("Lagrangian is not fiber-homogeneous", degrees)
    if abs(p_l - 1.0) <= _TOL_DEGREE:
        raise NotHomogeneous(
            "degree 1: the energy vanishes, forcing a zero force form", degrees
        )
    if p_l <= 1.0:
        raise NotHomogeneous("degree must exceed 1", degrees)
    if any(d is not None and abs(d - p_l) > _TOL_DEGREE * (1.0 + abs(p_l)) for d in comp):
        raise NotHomogeneous("force components have a different degree", degrees)
    if spray is None:
        raise NotHomogeneous("coefficients are not fiber-quadratic", degrees)
    vertical = derived.vertical.components
    kernel = derived.kernel((lagrangian.expr,) + tuple(vertical) + tuple(sigma.components))
    values, errors = ex.table(kernel, samples.stack)
    positive = values[0] > 0.0  # nor is a NaN, which an L that raises is
    if not positive.all():
        kernel(rows[int(np.argmin(positive))])[0]  # L's own error, if it raises
        raise NotHomogeneous("Lagrangian must be positive on samples", degrees)
    ex.kept(errors, len(rows))  # raises the first error, if any

    dj, sg = values[1 : 1 + n], values[1 + n :]
    with np.errstate(all="ignore"):
        pairs = [np.abs(dj[i] * sg[j] - dj[j] * sg[i]) for i in range(n) for j in range(i + 1, n)]
    wedge = float(_worst(pairs))
    passed = wedge <= tol_wedge

    p_round = float(round(p_l)) if abs(p_l - round(p_l)) <= 1e-9 else p_l
    phi_class = HomogeneousRoot(p_round) if passed else None

    nontrivial = False
    if passed:
        coeff = ex.Const((1.0 - p_round) / p_round)
        cells = tuple(
            ex.add(
                ex.mul(coeff, ex.mul(vertical[i], vertical[j])),
                ex.mul(lagrangian.expr, derived.hessian[i][j]),
            )
            for i in range(n)
            for j in range(n)
        )
        combination = derived.kernel(cells)
        values, errors = ex.table(combination, samples.stack)
        j = _first_row(errors, (np.abs(values) > 1e-10).any(axis=0))
        # read row by row, the cells stop at the first row with a large cell
        # or an error, and in that row at the first of them
        if j is not None:
            nontrivial = not errors or any(abs(v) > 1e-10 for v in combination(rows[j]))

    return HomogeneousReport(
        degree=p_round,
        spray_is_spray=spray == 2.0,
        wedge_residual=wedge,
        passed=passed,
        nontrivial=nontrivial,
        phi_class=phi_class,
        tolerance=tol_wedge,
        samples=len(rows),
    )


# ---------------------------------------------------------------------------
# dissipative structure
# ---------------------------------------------------------------------------


@dataclass
class DissipativeReport:
    gradient_match: ConditionReport  # delta_S L = d_J D
    energy_rate_match: ConditionReport  # S(E_L) = C(D)
    rayleigh: bool  # D fiber-quadratic
    rayleigh_rate: Optional[ConditionReport]  # S(E_L) = 2D
    dissipation_negative: Optional[bool]


def check_dissipative(
    derived: DerivedFields,
    dissipation: ScalarField,
    samples: Samples,
    tol: float = 1e-9,
) -> DissipativeReport:
    vertical_d = vertical_differential(dissipation, derived.table)
    liouville_d = liouville_apply(dissipation, derived.table)
    rows, rejected = samples.rows, samples.rejected
    n = dissipation.n

    roots = _interleaved(derived.defect.components, vertical_d.components)
    roots += (derived.energy_rate.expr, liouville_d.expr, dissipation.expr)
    values, errors = ex.table(derived.kernel(roots), samples.stack)
    # D itself is read only for a Rayleigh D, after the homogeneity scan
    ex.kept({key: error for key, error in errors.items() if key[1] < 2 * n + 2}, len(rows))
    grad_i, sel, cd, dval = values[1 : 2 * n : 2], values[2 * n], values[2 * n + 1], values[2 * n + 2]
    with np.errstate(all="ignore"):
        grad_res = _worst(np.abs(values[0 : 2 * n : 2] - grad_i) / (1.0 + np.abs(grad_i)), 0)
        rate_res = np.abs(sel - cd) / (1.0 + np.abs(cd))
        twice_res = np.abs(sel - 2.0 * dval) / (1.0 + np.abs(2.0 * dval))
    gradient = ConditionReport.from_residuals("sigma_is_dJD", grad_res.tolist(), rows, rejected, tol)
    rate = ConditionReport.from_residuals("energy_rate_is_CD", rate_res.tolist(), rows, rejected, tol)

    (deg,) = homogeneity_degrees((dissipation,), samples.stack, derived.kernel)
    rayleigh = deg is not None and abs(deg - 2.0) <= 1e-9
    rayleigh_rate = None
    negative = None
    if rayleigh:
        ex.kept(errors, len(rows))  # now D itself, too
        negative = bool((dval < 0.0).all())  # nor is a NaN
        rayleigh_rate = ConditionReport.from_residuals(
            "energy_rate_is_2D", twice_res.tolist(), rows, rejected, tol
        )
    return DissipativeReport(gradient, rate, rayleigh, rayleigh_rate, negative)
