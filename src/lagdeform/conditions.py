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
    cached_kernel,
    energy,
    fiber_hessian,
    homogeneity_degree,
    liouville_apply,
    spray_apply,
    lagrange_differential,
    vertical_differential,
)
from .sampling import Guards, GuardViolation, SamplePlan, Samples

# Bisection steps that put a constructed point on a target level of L.
_BISECTIONS = 80
# Target levels of the dependence test and points constructed on each.
_LEVELS = 32
_PER_LEVEL = 4
# Fiber segments one solve for a point on a level tries at most.
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
        ``(x1..xn, y1..yn)``, becomes ``worst_point``."""
        if not residuals:
            return ConditionReport(condition, 0, rejected, 0.0, 0.0, tolerance, True)
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
    values ``params`` bound in, kept for the run."""

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
    _kernels: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.spray_of_L = spray_apply(self.spray, self.lagrangian)
        self.liouville_of_L = liouville_apply(self.lagrangian)
        self.energy_of_L = energy(self.lagrangian)
        self.energy_rate = spray_apply(self.spray, self.energy_of_L)
        self.vertical = vertical_differential(self.lagrangian)
        self.defect = lagrange_differential(self.spray, self.lagrangian)
        self.hessian = fiber_hessian(self.lagrangian)

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
        bound in; compiled once per run."""
        return cached_kernel(self._kernels, roots, self.lagrangian.n, self.params)


def _interleaved(*forms) -> tuple:
    """The components of ``forms`` component by component: a1, b1, a2, b2, ..."""
    return tuple(c for components in zip(*forms) for c in components)


def _worse(a: float, b: float) -> float:
    """The larger of two residuals, or NaN when either is NaN."""
    return b if b > a or b != b else a


# ---------------------------------------------------------------------------
# the slope ratio (condition (ii) pointwise)
# ---------------------------------------------------------------------------


def deformation_ratio(
    derived: DerivedFields,
    point: PhasePoint,
    guard_eps: float = 1e-6,
) -> float:
    """-S(E_L) / (S(L) C(L)) at one point: the target value for Phi''/Phi'."""
    row = [*point.x, *point.y]
    return _slope_ratio(derived.kernel(_ratio_roots(derived))(row), guard_eps)


def _ratio_roots(derived: DerivedFields) -> tuple:
    """L, then the fields of the slope ratio, as :func:`_slope_ratio` reads them."""
    return (
        derived.lagrangian.expr,
        derived.spray_of_L.expr,
        derived.liouville_of_L.expr,
        derived.energy_rate.expr,
    )


def _slope_ratio(values, guard_eps: float) -> float:
    sl, cl = values[1], values[2]
    if abs(sl) <= guard_eps:
        raise GuardViolation("S(L)", sl, guard_eps)
    if abs(cl) <= guard_eps:
        raise GuardViolation("C(L)", cl, guard_eps)
    return -values[3] / (sl * cl)


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
    residuals = []
    for row in samples.rows:
        v = kernel(row)
        scale = v[0] / v[1]
        worst = 0.0
        for k in range(2, 2 + 2 * sigma.n, 2):
            s_i = v[k]
            rhs = scale * v[k + 1]
            worst = _worse(worst, abs(s_i - rhs) / (1.0 + abs(s_i)))
        residuals.append(worst)
    return ConditionReport.from_residuals(
        "sigma_condition", residuals, samples.rows, samples.rejected, tol
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
    kernel = derived.kernel(roots)
    residuals = []
    for row in samples.rows:
        v = kernel(row)
        worst = 0.0
        for k in range(0, 2 * sigma.n, 2):
            s_i = v[k]
            worst = _worse(worst, abs(s_i - v[k + 1]) / (1.0 + abs(s_i)))
        residuals.append(worst)
    return ConditionReport.from_residuals(
        "sigma_consistency", residuals, samples.rows, samples.rejected, tol
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


# Stand-ins in the level solver's walk: the result of a lane (segment, level)
# not bisected yet, and the outcome of a lane whose bisection missed the level.
_PENDING = object()
_MISSED = object()


class _LevelSolver:
    """Points on target levels of L, the one root of the kernel ``level``,
    each bisected along a random fiber segment in ``[lows, highs]`` drawn
    from ``rng``, with all the bisections of a walk run in lockstep, bit for
    bit as one after another.

    ``run(walk)`` runs ``walk(self)``, sequential code that calls
    ``solve(k)``, until a walk meets no (segment, level) lane that no walk
    before it met: the first walk takes every lane it meets to give an
    accepted point, and each later one knows what the lanes before gave."""

    def __init__(self, level, lows: list, highs: list, rng, targets: list, accept: Callable):
        self.level = level
        self.n = len(lows) // 2
        self.lows = lows + lows[self.n :]
        self.highs = highs + highs[self.n :]
        self.rng = rng
        self.targets = targets
        self.accept = accept
        # the segments' ends as columns, and per segment (L at a, L at b)
        # or the error that stops their evaluation
        self.a = self.b = np.empty((2 * self.n, 0))
        self.ends = []
        self.outcomes = {}  # (segment, level) -> accept(point), _MISSED or an error
        self.used = 0
        self._pending = []

    def run(self, walk: Callable):
        rounds = 0
        while True:
            self.used = 0
            self._pending = []
            result = walk(self)
            if not self._pending:
                return result
            # after a lane has failed, the lanes after it may move on to later
            # segments, so a later round bisects those as well
            ahead = self._ahead(self._pending) if rounds else []
            self._bisect(self._pending + ahead)
            rounds += 1

    def _ahead(self, pending: list) -> list:
        """The lanes that no walk has met on the segments that the solve of
        each pending lane would try after it, in its level."""
        ahead = {}
        for i, k in pending:
            for j in range(i + 1, min(i + _ATTEMPTS, len(self.ends))):
                if self._brackets(j, self.targets[k]):
                    ahead[j, k] = None
        met = set(pending)
        return [lane for lane in ahead if lane not in met and lane not in self.outcomes]

    def _brackets(self, i: int, target: float) -> bool:
        # a NaN at an end brackets every target: the product is not > 0
        ends = self.ends[i]
        if isinstance(ends, Exception):
            return False
        return not (ends[0] - target) * (ends[1] - target) > 0.0

    def solve(self, k: int):
        """``accept(point)`` at the first point found on the level
        ``targets[k]`` within the next _ATTEMPTS unused segments, or None. A
        segment is skipped where L cannot be evaluated at an end or does not
        bracket the target, or where its bisection meets a domain violation
        or misses the target by more than the level width. A lane not yet
        bisected gives ``_PENDING``; an error that bisecting one segment
        after another would raise is raised where no lane before it is
        pending. ``used`` counts the segments the walk has used."""
        target = self.targets[k]
        for _ in range(_ATTEMPTS):
            i = self.used
            self.used += 1
            if i == len(self.ends):
                self._draw()
            ends = self.ends[i]
            if isinstance(ends, Exception) and not isinstance(ends, ex.DomainViolation):
                return self._reached(ends)
            if not self._brackets(i, target):
                continue
            outcome = self.outcomes.get((i, k), _PENDING)
            if outcome is _PENDING:
                self._pending.append((i, k))
            elif outcome is _MISSED:
                continue
            elif isinstance(outcome, Exception):
                return self._reached(outcome)
            return outcome
        return None

    def _reached(self, error: Exception):
        # a lane pending before it may yet change what the walk reaches
        if self._pending:
            return _PENDING
        raise error

    def _draw(self):
        """A block of segments, as many as a walk has points: a chart point
        a, and b with a's positions and fresh fibers, drawn in the order of
        one ``rng.uniform`` call per coordinate."""
        n = self.n
        block = self.rng.uniform(self.lows, self.highs, size=(_LEVELS * _PER_LEVEL, 3 * n)).T
        a, b = block[: 2 * n], np.concatenate((block[:n], block[2 * n :]))
        va, a_errors = self._level_at(a)
        vb, b_errors = self._level_at(b)
        self.a = np.concatenate((self.a, a), axis=1)
        self.b = np.concatenate((self.b, b), axis=1)
        for j, ends in enumerate(zip(va.tolist(), vb.tolist())):
            self.ends.append(a_errors.get(j) or b_errors.get(j) or ends)

    def _level_at(self, stack):
        """L at the columns of ``stack``, and the error of each column where
        L cannot be evaluated."""
        try:
            return self.level.columns(stack)[0], {}
        except (ArithmeticError, ValueError, LookupError):
            values, errors = np.zeros(stack.shape[1]), {}
            for j, row in enumerate(stack.T.tolist()):
                try:
                    values[j] = self.level(row)[0]
                except Exception as exc:  # raised only if a walk reaches the lane
                    errors[j] = exc
            return values, errors

    def _bisect(self, lanes: list):
        """Bisect the ``lanes`` in lockstep and record their outcomes.

        A lane whose midpoint leaves its bracket and L at its lower end
        bitwise as they were is at a fixed point, since every later step
        repeats it, so it stops there with the point the remaining steps
        would reach; after the last step the midpoint is taken once more."""
        segments = [i for i, _ in lanes]
        goal = np.array([self.targets[k] for _, k in lanes])
        # the lanes still bisecting, their targets, brackets and L at lo
        index, target = np.arange(len(lanes)), goal
        lo, hi = self.a[:, segments], self.b[:, segments]
        va = np.array([self.ends[i][0] for i in segments])
        points, values = np.zeros(lo.shape), np.zeros(len(lanes))
        errors = {}
        for step in range(_BISECTIONS + 1):
            mid = (lo + hi) / 2.0
            vm, failed = self._level_at(mid)
            live = np.ones(len(index), dtype=bool)
            for j, exc in failed.items():
                errors[int(index[j])] = exc
                live[j] = False
            if step == _BISECTIONS:
                stop, live = live, np.zeros_like(live)
            else:
                lower = (vm - target) * (va - target) <= 0.0  # mid becomes hi
                end = np.where(lower, hi, lo)
                fixed = ((mid == end) & (np.signbit(mid) == np.signbit(end))).all(axis=0)
                stop = live & fixed
                live &= ~fixed
            points[:, index[stop]] = mid[:, stop]
            values[index[stop]] = vm[stop]
            if not live.any():
                break
            index, target, lower = index[live], target[live], lower[live]
            mid, vm = mid[:, live], vm[live]
            hi = np.where(lower, mid, hi[:, live])
            lo = np.where(lower, lo[:, live], mid)
            va = np.where(lower, va[live], vm)
        on_level = np.abs(values - goal) <= 1e-10 * (1.0 + np.abs(goal))
        for j, lane in enumerate(lanes):
            if j in errors:
                exc = errors[j]
                self.outcomes[lane] = _MISSED if isinstance(exc, ex.DomainViolation) else exc
            elif not on_level[j]:
                self.outcomes[lane] = _MISSED
            else:
                try:
                    self.outcomes[lane] = self.accept(points[:, j].tolist())
                except Exception as exc:  # raised only if a walk reaches the lane
                    self.outcomes[lane] = exc


def _level_groups(solver: _LevelSolver) -> list:
    """The slope values on each target level: up to _PER_LEVEL points from
    up to three times as many solves."""
    groups = []
    for k in range(len(solver.targets)):
        group = []
        for _ in range(_PER_LEVEL * 3):
            if len(group) >= _PER_LEVEL:
                break
            f_val = solver.solve(k)
            if f_val is not None:
                group.append(f_val)
        groups.append(group)
    return groups


def functional_dependence_test(
    derived: DerivedFields,
    samples: Samples,
    plan: SamplePlan,
    tol_dep: float = 1e-6,
) -> DependenceResult:
    """Decide whether the slope ratio is a function of L alone.

    Collects the (L, f) cloud over ``samples``, a draw of ``plan`` under at
    least ``derived.theorem_guards()``, then builds groups of near-equal L by
    constructing extra points directly on 32 target levels (bisection along
    fiber segments, level width ~1e-10 relative) and compares the ratio
    within each group. Genuine level-set variation shows up as within-group
    spread far above float noise.
    """
    lagrangian = derived.lagrangian
    rows = samples.rows
    if len(rows) < 8:
        raise InsufficientSamples(f"only {len(rows)} accepted points")

    ratio = derived.kernel(_ratio_roots(derived))
    cloud = []
    for row in rows:
        v = ratio(row)
        cloud.append((v[0], _slope_ratio(v, plan.guard_eps)))
    cloud.sort(key=lambda t: t[0])
    cleaned = _merge_duplicate_abscissae(cloud)
    if len(cleaned) < 8:
        raise InsufficientSamples("fewer than 8 distinct Lagrangian values")

    f_median = float(np.median([f for _, f in cleaned]))
    tolerance = tol_dep * (1.0 + abs(f_median))

    def accept(row):
        try:
            return _slope_ratio(ratio(row), plan.guard_eps)
        except (GuardViolation, ex.DomainViolation):
            return None

    l_values = np.array([l for l, _ in cleaned])
    names = ex.chart_names(lagrangian.n)
    solver = _LevelSolver(
        derived.kernel((lagrangian.expr,)),
        [plan.bounds[v][0] for v in names],
        [plan.bounds[v][1] for v in names],
        np.random.default_rng(plan.seed + 1),
        [float(np.quantile(l_values, (k + 0.5) / _LEVELS)) for k in range(_LEVELS)],
        accept,
    )
    max_spread = 0.0
    used = 0
    functional = True
    for group in solver.run(_level_groups):
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


def _rms(values) -> float:
    arr = np.asarray(values, dtype=float)
    return float(np.sqrt(np.mean(arr * arr))) if arr.size else 0.0


class _Model(NamedTuple):
    """A slope model ``value(ls, theta)`` with its Jacobian in closed form.

    ``value`` is plain arithmetic, so it evaluates on a whole array of L
    values and also on one L with :class:`~lagdeform.expressions.Dual`
    parameters; the tests use the latter as the oracle for ``jacobian``.
    """

    value: Callable
    jacobian: Callable  # (ls, theta) -> array of shape (len(ls), len(theta))


def _gauss_newton(model: _Model, theta0, ls, fs):
    """Damped Gauss-Newton over the whole ``(ls, fs)`` cloud at once.

    A start whose cost is not finite, as when a denominator is exactly zero
    somewhere in the cloud, returns ``(theta0, inf)``. A step is accepted
    only when its cost is lower, so a step to a non-finite cost never is."""
    theta = np.array(theta0, dtype=float)
    eye = np.eye(len(theta))

    def cost_of(th):
        r = model.value(ls, th) - fs
        return r, _rms(r)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        residuals, cost = cost_of(theta)
        if not math.isfinite(cost):
            return theta, math.inf
        lam = 1e-3
        for _ in range(_GN_ITERATIONS):
            jac = model.jacobian(ls, theta)
            jtj = jac.T @ jac
            jtr = jac.T @ residuals
            stepped = False
            for _ in range(8):
                try:
                    delta = np.linalg.solve(jtj + lam * eye, -jtr)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                candidate = theta + delta
                cand_res, cand_cost = cost_of(candidate)
                if cand_cost < cost:
                    theta, residuals, cost = candidate, cand_res, cand_cost
                    lam = max(lam * 0.3, 1e-12)
                    stepped = True
                    break
                lam *= 10.0
            if not stepped or cost < 1e-15:
                break
    return theta, cost


def _power_shift(l, theta):
    gamma, a = theta
    return gamma / (l + a)


def _power_shift_jacobian(ls, theta):
    # each column as the dual-number quotient rule evaluates it, bit for bit
    gamma, a = theta
    s = ls + a
    ss = s * s
    return np.column_stack((s / ss, -gamma / ss))


def _moebius(l, theta):
    (t,) = theta
    return -2.0 / (l + t)


def _moebius_jacobian(ls, theta):
    (t,) = theta
    s = ls + t
    return np.column_stack((2.0 / (s * s),))


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

    best_ps = None
    for a0 in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
        if np.min(np.abs(ls + a0)) < 1e-9:
            continue
        u = 1.0 / (ls + a0)
        gamma0 = float(u @ fs / (u @ u))
        theta, cost = _gauss_newton(_model_power_shift, (gamma0, a0), ls, fs)
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

    best_mb = None
    for t0 in (0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
        if np.min(np.abs(ls + t0)) < 1e-9:
            continue
        theta, cost = _gauss_newton(_model_moebius, (t0,), ls, fs)
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


def hessian_report(
    matrix,
    samples: Samples,
    params: Optional[dict] = None,
) -> HessianReport:
    """Evaluate an n x n expression matrix, or a callable ``row -> tuple``
    of its n*n entries in row-major order, at the sampled rows; rank via
    singular values above ``_RANK_RTOL * s_max``, from one batched SVD. A
    row where the matrix is not evaluable, or has an entry that is not
    finite, is skipped."""
    if not callable(matrix):
        cells = tuple(cell for line in matrix for cell in line)
        matrix = ex.compile(cells, ex.chart_names(len(matrix)), params)
    stack = []
    for row in samples.rows:
        try:
            entries = tuple(matrix(row))
        except (ex.DomainViolation, ValueError, OverflowError):
            # OverflowError: math.exp or math.pow in a closed-form Phi
            continue
        if all(map(math.isfinite, entries)):
            stack.append(entries)
    if not stack:
        raise InsufficientSamples("no evaluable points for the Hessian")
    n = math.isqrt(len(stack[0]))
    stack = np.array(stack).reshape(len(stack), n, n)
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
    rows, params = samples.rows, derived.params

    degrees = {}
    p_l = homogeneity_degree(lagrangian, rows, params, _TOL_DEGREE)
    degrees["L"] = p_l
    comp_degrees = []
    for i, comp in enumerate(sigma.components):
        deg = homogeneity_degree(ScalarField(sigma.n, comp), rows, params, _TOL_DEGREE)
        degrees[f"sigma_{i + 1}"] = deg
        if deg is not None:
            comp_degrees.append(deg)
    spray_ok = homogeneity_degree(derived.spray, rows, params, _TOL_DEGREE) == 2.0
    degrees["spray"] = 2.0 if spray_ok else None

    if p_l is None:
        raise NotHomogeneous("Lagrangian is not fiber-homogeneous", degrees)
    if abs(p_l - 1.0) <= _TOL_DEGREE:
        raise NotHomogeneous(
            "degree 1: the energy vanishes, forcing a zero force form", degrees
        )
    if p_l <= 1.0:
        raise NotHomogeneous("degree must exceed 1", degrees)
    if any(abs(d - p_l) > _TOL_DEGREE * (1.0 + abs(p_l)) for d in comp_degrees):
        raise NotHomogeneous("force components have a different degree", degrees)
    if not spray_ok:
        raise NotHomogeneous("coefficients are not fiber-quadratic", degrees)
    n = sigma.n
    vertical = derived.vertical.components
    kernel = derived.kernel((lagrangian.expr,) + tuple(vertical) + tuple(sigma.components))
    values = [kernel(row) for row in rows]
    for v in values:
        if not v[0] > 0.0:  # nor is a NaN
            raise NotHomogeneous("Lagrangian must be positive on samples", degrees)

    wedge = 0.0
    for v in values:
        dj = [v[1 + i] for i in range(n)]
        sg = [v[1 + n + i] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                wedge = _worse(wedge, abs(dj[i] * sg[j] - dj[j] * sg[i]))
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
        for row in rows:
            v = combination(row)
            if any(abs(v[k]) > 1e-10 for k in range(len(cells))):
                nontrivial = True
                break

    return HomogeneousReport(
        degree=p_round,
        spray_is_spray=spray_ok,
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
    vertical_d = vertical_differential(dissipation)
    liouville_d = liouville_apply(dissipation)
    rows, rejected = samples.rows, samples.rejected
    n = dissipation.n

    roots = _interleaved(derived.defect.components, vertical_d.components)
    roots += (derived.energy_rate.expr, liouville_d.expr, dissipation.expr)
    kernel = derived.kernel(roots)
    values = []
    grad_res, rate_res = [], []
    for row in rows:
        v = kernel(row)
        values.append(v)
        worst = 0.0
        for k in range(0, 2 * n, 2):
            grad_i = v[k + 1]
            worst = _worse(worst, abs(v[k] - grad_i) / (1.0 + abs(grad_i)))
        grad_res.append(worst)
        sel = v[2 * n]
        cd = v[2 * n + 1]
        rate_res.append(abs(sel - cd) / (1.0 + abs(cd)))
    gradient = ConditionReport.from_residuals("sigma_is_dJD", grad_res, rows, rejected, tol)
    rate = ConditionReport.from_residuals("energy_rate_is_CD", rate_res, rows, rejected, tol)

    deg = homogeneity_degree(dissipation, rows, derived.params)
    rayleigh = deg is not None and abs(deg - 2.0) <= 1e-9
    rayleigh_rate = None
    negative = None
    if rayleigh:
        twice_res = []
        negative = True
        for v in values:
            sel = v[2 * n]
            dval = v[2 * n + 2]
            twice_res.append(abs(sel - 2.0 * dval) / (1.0 + abs(2.0 * dval)))
            if not dval < 0.0:  # nor is a NaN
                negative = False
        rayleigh_rate = ConditionReport.from_residuals(
            "energy_rate_is_2D", twice_res, rows, rejected, tol
        )
    return DissipativeReport(gradient, rate, rayleigh, rayleigh_rate, negative)
