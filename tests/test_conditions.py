import gc
import json
import math
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from lagdeform.conditions import (
    ConditionReport,
    DerivedFields,
    InsufficientSamples,
    NotHomogeneous,
    check_dissipative,
    check_homogeneous,
    check_sigma_condition,
    check_sigma_consistency,
    classify,
    functional_dependence_test,
    hessian_report,
    _levels,
    _merge_duplicate_abscissae,
    _polish,
    _rms,
    _LevelSolver,
)
from lagdeform import conditions
from lagdeform import expressions as ex
from lagdeform.corpus import CORPUS_NAMES, corpus_text, load_corpus_problem
from lagdeform.deformation import (
    ClosedForm,
    DeformedELReport,
    DeformedLagrangian,
    OutOfInterval,
    deformed_hessian,
    deformed_hessian_matrix,
    synthesize,
    verify_deformed_el,
)
from lagdeform.expressions import Dual, parse
from lagdeform.families import (
    Affine,
    Constant,
    HomogeneousRoot,
    Logarithmic,
    Moebius,
    PowerShift,
    Tabulated,
)
from lagdeform.geometry import (
    PhasePoint,
    ScalarField,
    SemiBasicForm,
    SemiSpray,
    fiber_hessian,
    _field_degree,
    homogeneity_degree,
    lagrange_differential,
    liouville_apply,
)
from lagdeform.pipeline import emit_report, problem_from_dict, run_pipeline
from lagdeform.sampling import (
    Guards,
    GuardViolation,
    SamplePlan,
    Samples,
    TooManyRejections,
    _MAX_REJECT_RATIO,
    draw_samples,
)

from systems import (
    binding,
    damped_oscillator,
    drag_system,
    exp_class,
    free_particle,
    homogeneous_example,
    lienard,
    log_class,
    matrix_kernel,
    rayleigh_drag,
)


def box(n, lo=0.5, hi=2.0):
    names = [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)]
    return {v: (lo, hi) for v in names}


def plan_for(n, count=120, seed=42, **kw):
    return SamplePlan(bounds=box(n), count=count, seed=seed, **kw)


def derived(sys):
    return DerivedFields(sys["spray"], sys["lagrangian"], sys["params"])


def dependence(spray, lagrangian, plan, params):
    """functional_dependence_test on the theorem-guard draw of ``plan``."""
    d = DerivedFields(spray, lagrangian, params)
    samples = draw_samples(plan, d.theorem_guards(), params)
    return functional_dependence_test(d, samples, plan)


def evaluable(plan, params, *exprs):
    """The draw of ``plan`` on which every one of ``exprs`` is evaluable."""
    return draw_samples(plan, Guards(evaluable=exprs), params)


def denominator_samples(d, sigma, plan, params):
    """The draw of ``plan`` away from C(L) = 0 with L, S(E_L) and sigma
    evaluable: what the sigma condition divides on."""
    guards = Guards(
        nonzero=(d.liouville_of_L,),
        evaluable=(d.lagrangian.expr, d.energy_rate.expr) + tuple(sigma.components),
    )
    return draw_samples(plan, guards, params)


def consistency_samples(d, sigma, plan, params):
    return evaluable(plan, params, d.lagrangian.expr, *sigma.components, *d.defect.components)


def dissipative_samples(d, dissipation, plan, params):
    return evaluable(plan, params, d.lagrangian.expr, dissipation.expr, d.energy_rate.expr)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_draw_samples_deterministic():
    sys = drag_system()
    from lagdeform.conditions import DerivedFields

    d = DerivedFields(sys["spray"], sys["lagrangian"])
    plan = plan_for(2, count=50, seed=7)
    first = draw_samples(plan, d.theorem_guards(), sys["params"]).rows
    second = draw_samples(plan, d.theorem_guards(), sys["params"]).rows
    assert first == second


def test_draw_samples_conservative_rejects_everything():
    sys = free_particle(2)
    from lagdeform.conditions import DerivedFields

    d = DerivedFields(sys["spray"], sys["lagrangian"])
    plan = SamplePlan(bounds=box(2, 1.0, 2.0), count=50, seed=3)
    with pytest.raises(TooManyRejections):
        draw_samples(plan, d.theorem_guards(), sys["params"])


def test_draw_samples_constant_zero_guard_raises_before_drawing():
    names = ("x1", "y1")
    plan = plan_for(1, count=50, seed=3)
    for value in ("0", "1e-7"):  # within the plan's guard of 1e-6
        guards = Guards(nonzero=(ScalarField(1, parse(value, names)),))
        with pytest.raises(TooManyRejections) as exc:
            draw_samples(plan, guards, {})
        assert (exc.value.accepted, exc.value.attempted, exc.value.requested) == (0, 0, 50)


def test_draw_samples_nonzero_constant_guard_still_draws():
    names = ("x1", "y1")
    plan = plan_for(1, count=50, seed=3)
    guards = Guards(nonzero=(ScalarField(1, parse("2", names)),))
    samples = draw_samples(plan, guards, {})
    unguarded = draw_samples(plan, Guards(), {})
    assert samples.attempts == 50
    assert samples.rows == unguarded.rows


def test_samples_build_one_read_only_stack_of_their_rows():
    # every check reads the same stack; a bare variable's column is a view
    # of it, so writing into either fails rather than moving another's rows
    samples = draw_samples(plan_for(1, count=20, seed=3), Guards(), {})
    stack = samples.stack
    assert stack is samples.stack and not stack.flags.writeable
    assert stack.T.tolist() == samples.rows
    (x1,), marked = ex.compile([parse("x1", ("x1", "y1"))], ("x1", "y1")).columns(stack)
    assert marked == set()
    assert np.shares_memory(x1, stack)
    for view in (stack, x1):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 0.0


def test_one_guards_admits_a_row_by_the_parameter_values_it_is_given():
    # a Guards with no program reads through a kernel of its own per read,
    # with the values it is given compiled in, and -0.0 is not 0.0
    names = ("x1", "y1", "a")
    guards = Guards(evaluable=(parse("ln(a*x1)", names),))
    assert guards.admits([1.0, 1.0], {"a": 1.0}, 1e-6)
    assert not guards.admits([1.0, 1.0], {"a": -1.0}, 1e-6)
    guards = Guards(evaluable=(parse("a*x1", names),))
    for a in (0.0, -0.0, 0.0):
        (value,), _ = guards._kernel(1, {"a": a}).columns(np.array([[1.0], [1.0]]))
        assert math.copysign(1.0, value[0]) == math.copysign(1.0, a)
        assert math.copysign(1.0, guards._kernel(1, {"a": a})([1.0, 1.0])[0]) == math.copysign(1.0, a)


def _ref_draw(plan, guards, params):
    """draw_samples as one rng.uniform call and one Guards.admits call per
    attempt."""
    names = ex.chart_names(plan.dimension)
    lows = np.array([plan.bounds[v][0] for v in names])
    highs = np.array([plan.bounds[v][1] for v in names])
    rng = np.random.default_rng(plan.seed)
    budget = max(64, math.ceil(plan.count / (1.0 - _MAX_REJECT_RATIO)))
    rows, attempts = [], 0
    while len(rows) < plan.count:
        if attempts >= budget:
            raise TooManyRejections(len(rows), attempts, plan.count)
        row = rng.uniform(lows, highs).tolist()
        attempts += 1
        if guards.admits(row, params, plan.guard_eps):
            rows.append(row)
    return Samples(rows, attempts)


def _draw_outcome(plan, guards, params):
    try:
        samples = draw_samples(plan, guards, params)
    except TooManyRejections as exc:
        return ("rejected", exc.accepted, exc.attempted, exc.requested)
    return (_bits(samples.rows), samples.attempts)


@pytest.mark.parametrize(
    "nonzero, evaluable, eps, count, row_path, exhausted",
    [
        # |x1 - 1| <= 0.25 and the overflow of 1e308 y1^2 to inf for
        # y1 > 1.34 reject part of the box, and no column call raises
        pytest.param("x1 - 1", "1e308*y1*y1", 0.25, 150, False, False, id="part-of-the-box"),
        # ln(x1 - 1) raises DomainViolation at x1 <= 1: the column calls
        # mark such rows, and only they are read through Guards.admits
        pytest.param("y1 - 1", "ln(x1 - 1)", 1e-6, 150, True, False, id="domain-violation"),
        # only x1 within 0.005 of the box's ends passes: a few rows are
        # accepted before the 500 attempts of 10 rows' budget run out, so
        # the blocks shrink and the last one is cut to what the budget has
        pytest.param("x1 - 1.25", "x1", 0.745, 10, False, True, id="budget-runs-out"),
    ],
)
def test_block_draw_matches_one_draw_and_one_admits_per_attempt(
    monkeypatch, nonzero, evaluable, eps, count, row_path, exhausted
):
    names = ("x1", "y1")
    guards = Guards(
        nonzero=(ScalarField(1, parse(nonzero, names)),), evaluable=(parse(evaluable, names),)
    )
    plan = plan_for(1, count=count, seed=17, guard_eps=eps)
    calls = []
    admits = Guards.admits
    monkeypatch.setattr(
        Guards, "admits", lambda self, row, *args: calls.append(row) or admits(self, row, *args)
    )
    try:
        reference = _ref_draw(plan, guards, {})
    except TooManyRejections as exc:
        want = ("rejected", exc.accepted, exc.attempted, exc.requested)
        assert exhausted and 0 < exc.accepted < count and exc.attempted == 500
    else:
        want = (_bits(reference.rows), reference.attempts)
        assert not exhausted and reference.attempts > count
    # the reference reads every attempt; the blocks read the same rows, and
    # only those where a guard's walk raises through admits
    raising = [row for row in calls if _walk_raises(guards, row)]
    calls.clear()
    assert _draw_outcome(plan, guards, {}) == want
    assert calls == raising
    assert bool(calls) == row_path


def _walk_raises(guards, row):
    try:
        for root in guards.evaluable + tuple(f.expr for f in guards.nonzero):
            ex.evaluate(root, binding(row, len(row) // 2))
    except ex.DomainViolation:
        return True
    return False


def test_draw_samples_high_acceptance_for_damped_oscillator():
    sys = damped_oscillator()
    from lagdeform.conditions import DerivedFields

    d = DerivedFields(sys["spray"], sys["lagrangian"])
    plan = plan_for(2, count=200, seed=11)
    rows = draw_samples(plan, d.theorem_guards(), sys["params"]).rows
    assert len(rows) == 200


def test_reports_count_rejected_draws():
    # L = y1^2/2 + ln(x1 - 1) is not evaluable for x1 <= 1, a third of the
    # box [0.5, 2]^2; the attempts are counted on the sampler's seeded stream
    # against that known region, without the guards
    names = ("x1", "y1")
    spray = SemiSpray(1, [parse("-1/(2*(x1 - 1))", names)])
    d = DerivedFields(spray, ScalarField(1, parse("0.5*y1^2 + ln(x1 - 1)", names)))
    plan = plan_for(1, count=200, seed=5)
    rng = np.random.default_rng(plan.seed)
    attempts = accepted = 0
    while accepted < plan.count:
        attempts += 1
        accepted += bool(rng.uniform([0.5, 0.5], [2.0, 2.0])[0] > 1.0)
    dissipation = ScalarField(1, parse("y1^2", names))
    samples = draw_samples(plan, d.run_guards(d.defect, dissipation), {})
    reports = [
        check_sigma_condition(d, d.defect, samples),
        check_sigma_consistency(d, d.defect, samples),
        check_dissipative(d, dissipation, samples).gradient_match,
    ]
    for report in reports:
        assert report.rejected > 0
        assert report.accepted + report.rejected == attempts


# ---------------------------------------------------------------------------
# the slope ratio
# ---------------------------------------------------------------------------


def _cloud(sys, count, seed):
    """The (L, f) cloud of functional_dependence_test on the theorem-guard
    draw of ``count`` points of the box [0.5, 2]."""
    plan = plan_for(sys["n"], count=count, seed=seed)
    return dependence(sys["spray"], sys["lagrangian"], plan, sys["params"]).cloud


def test_ratio_damped_oscillator_point():
    # S(E_L) = S(L) for the kinetic L, so f = -1/C(L) = -1/(2L)
    cloud = _cloud(damped_oscillator(), 40, 5)
    assert len(cloud) == 40
    for l, f in cloud:
        assert f == pytest.approx(-1.0 / (2.0 * l), rel=1e-12)


def test_ratio_exp_class_is_constant_b():
    cloud = _cloud(exp_class(a=1.0, b=1.0, c=0.1), 40, 5)
    assert len(cloud) == 40
    for _, f in cloud:
        assert f == pytest.approx(1.0, abs=1e-9)


def test_ratio_lienard_positive_sign():
    # measured slope is +1/(2 alpha L), with alpha = 1
    cloud = _cloud(lienard(), 40, 5)
    assert len(cloud) == 40
    for l, f in cloud:
        assert f == pytest.approx(1.0 / (2.0 * l), rel=1e-12)


def test_ratio_guard_violation_for_conserved_lagrangian():
    # S(L) = 0 for a free particle: the ratio of an unguarded draw raises
    sys = free_particle(2)
    plan = plan_for(2, count=40, seed=5)
    with pytest.raises(GuardViolation):
        functional_dependence_test(derived(sys), draw_samples(plan, Guards(), {}), plan)


def _ratio_via_duals(sys, row):
    """Recompute the slope ratio with dual-number outer derivatives: an
    independent route that shares no symbolic differentiation with the
    dependence test's ratio beyond the energy's inner layer."""
    from lagdeform.expressions import evaluate, evaluate_dual
    from lagdeform.geometry import energy as energy_field

    n = sys["n"]
    b = binding(row, n, sys["params"])
    L = sys["lagrangian"].expr
    g_vals = [evaluate(g, b) for g in sys["spray"].coefficients]

    def flow_derivative(e):
        total = 0.0
        for i in range(1, n + 1):
            total += b[f"y{i}"] * evaluate_dual(e, b, f"x{i}")[1]
            total -= 2.0 * g_vals[i - 1] * evaluate_dual(e, b, f"y{i}")[1]
        return total

    cl = sum(b[f"y{i}"] * evaluate_dual(L, b, f"y{i}")[1] for i in range(1, n + 1))
    sl = flow_derivative(L)
    sel = flow_derivative(energy_field(sys["lagrangian"]).expr)
    return -sel / (sl * cl)


@pytest.mark.parametrize("factory", [damped_oscillator, lienard, exp_class])
def test_ratio_symbolic_vs_dual_routes(factory):
    sys = factory()
    d = derived(sys)
    plan = plan_for(sys["n"], count=40, seed=23)
    samples = draw_samples(plan, d.theorem_guards(), sys["params"])
    cloud = functional_dependence_test(d, samples, plan).cloud
    bindings = [binding(row, sys["n"], sys["params"]) for row in samples.rows]
    by_duals = sorted(
        (ex.evaluate(d.lagrangian.expr, b), _ratio_via_duals(sys, row))
        for b, row in zip(bindings, samples.rows)
    )
    assert len(cloud) == len(by_duals)
    for (l, symbolic), (l_dual, dual) in zip(cloud, by_duals):
        assert l == l_dual
        assert abs(symbolic - dual) <= 1e-10 * (1.0 + abs(symbolic))


# ---------------------------------------------------------------------------
# sigma condition (i)
# ---------------------------------------------------------------------------


def test_sigma_condition_damped_oscillator_passes():
    sys = damped_oscillator()
    d = derived(sys)
    samples = denominator_samples(d, sys["sigma"], plan_for(2, 200), sys["params"])
    report = check_sigma_condition(d, sys["sigma"], samples)
    assert report.passed
    assert report.max_residual <= 1e-10


def test_sigma_condition_perturbed_fails():
    sys = damped_oscillator()
    names = ("x1", "x2", "y1", "y2", "a", "b", "w")
    comps = list(sys["sigma"].components)
    comps[0] = parse(f"({comps[0].to_source()}) + 0.1", names)
    perturbed = SemiBasicForm(2, comps)
    d = derived(sys)
    samples = denominator_samples(d, perturbed, plan_for(2, 200), sys["params"])
    report = check_sigma_condition(d, perturbed, samples)
    assert not report.passed
    assert report.max_residual >= 0.01


def test_sigma_condition_zero_force_conservative_vacuous():
    sys = free_particle(2)
    zero = SemiBasicForm(2, [parse("0", ("x1",)), parse("0", ("x1",))])
    d = derived(sys)
    samples = denominator_samples(d, zero, plan_for(2, 100), sys["params"])
    report = check_sigma_condition(d, zero, samples)
    assert report.passed
    assert report.max_residual == 0.0


def test_sigma_consistency_drag_system():
    sys = drag_system()
    d = derived(sys)
    samples = consistency_samples(d, sys["sigma"], plan_for(2, 150), sys["params"])
    report = check_sigma_consistency(d, sys["sigma"], samples)
    assert report.passed


def test_sigma_consistency_catches_misaligned_force():
    # the rotational oscillator's aligned sigma is NOT its Lagrange defect
    sys = damped_oscillator()
    d = derived(sys)
    samples = consistency_samples(d, sys["sigma"], plan_for(2, 150), sys["params"])
    report = check_sigma_consistency(d, sys["sigma"], samples)
    assert not report.passed
    assert report.max_residual > 0.01


# ---------------------------------------------------------------------------
# functional dependence (ii)
# ---------------------------------------------------------------------------


def test_dependence_drag_system_on_half_inverse():
    sys = drag_system()
    result = dependence(
        sys["spray"], sys["lagrangian"], plan_for(2, 200, seed=9), sys["params"]
    )
    assert result.functional
    for l, f in result.cloud:
        assert f == pytest.approx(-1.0 / (2.0 * l), rel=1e-10)


def test_dependence_log_class_on_minus_inverse():
    sys = log_class()
    result = dependence(
        sys["spray"], sys["lagrangian"], plan_for(3, 150, seed=21), sys["params"]
    )
    assert result.functional
    for l, f in result.cloud:
        assert f == pytest.approx(-1.0 / l, rel=1e-9)


def test_dependence_detects_level_set_variation():
    # flat spray with L = kinetic + x1: the ratio is 1/(2(L - x1)), which
    # genuinely varies on level sets of L
    names = ("x1", "x2", "y1", "y2")
    sys = free_particle(2)
    lagrangian = ScalarField(2, parse("0.5*(y1^2 + y2^2) + x1", names))
    result = dependence(
        sys["spray"], lagrangian, plan_for(2, 150, seed=13), {}
    )
    assert not result.functional
    assert result.max_level_spread > 1e-3


@pytest.mark.parametrize("count", [7, 8])
def test_dependence_needs_eight_accepted_rows(count):
    sys = drag_system()
    d = derived(sys)
    plan = plan_for(2, count, seed=3)
    samples = draw_samples(plan, d.theorem_guards(), sys["params"])
    assert len(samples.rows) == count
    if count < 8:
        with pytest.raises(InsufficientSamples, match="only 7 accepted points"):
            functional_dependence_test(d, samples, plan)
    else:
        result = functional_dependence_test(d, samples, plan)
        assert len(result.cloud) == 8 and result.functional


def test_dependence_insufficient_samples():
    sys = drag_system()
    with pytest.raises(InsufficientSamples):
        dependence(
            sys["spray"], sys["lagrangian"], plan_for(2, 5, seed=3), sys["params"]
        )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def make_cloud(fn, lo=0.5, hi=8.0, count=60):
    ls = np.linspace(lo, hi, count)
    return [(float(l), float(fn(l))) for l in ls]


def test_classify_half_inverse_is_power_shift_with_root_flag():
    fit = classify(make_cloud(lambda l: -0.5 / l))
    assert isinstance(fit.chosen, PowerShift)
    assert fit.chosen.gamma == pytest.approx(-0.5, abs=1e-6)
    assert fit.chosen.a == pytest.approx(0.0, abs=1e-6)
    assert fit.homogeneous_root == HomogeneousRoot(2.0)


def test_classify_constant():
    fit = classify(make_cloud(lambda l: 3.0))
    assert fit.chosen == Constant(3.0)


def test_classify_affine_zero_slope():
    fit = classify(make_cloud(lambda l: 0.0))
    assert isinstance(fit.chosen, Affine)


def test_classify_logarithmic():
    fit = classify(make_cloud(lambda l: -1.0 / (l + 0.7)))
    assert isinstance(fit.chosen, Logarithmic)
    assert fit.chosen.a == pytest.approx(0.7, abs=1e-6)


def test_classify_moebius_normalised():
    # f = -2c/(cL + d) with c = 1, d = 2, over the Lagrangian range of the
    # flat Moebius system (negative values straddling nothing)
    fit = classify(make_cloud(lambda l: -2.0 / (l + 2.0), lo=-2.95, hi=-2.05))
    assert isinstance(fit.chosen, Moebius)
    assert fit.chosen.c == pytest.approx(0.5, abs=1e-5)
    assert fit.chosen.d == pytest.approx(1.0, abs=1e-5)


def test_classify_moebius_scale_invariance():
    a = classify(make_cloud(lambda l: -2.0 * 3.0 / (3.0 * l + 6.0), lo=1.0, hi=4.0))
    b = classify(make_cloud(lambda l: -2.0 / (l + 2.0), lo=1.0, hi=4.0))
    assert isinstance(a.chosen, Moebius) and isinstance(b.chosen, Moebius)
    assert a.chosen.c == pytest.approx(b.chosen.c, abs=1e-9)
    assert a.chosen.d == pytest.approx(b.chosen.d, abs=1e-9)


def test_classify_positive_half_inverse_power_shift_no_flag():
    fit = classify(make_cloud(lambda l: 0.5 / l, lo=2.25, hi=36.0))
    assert isinstance(fit.chosen, PowerShift)
    assert fit.chosen.gamma == pytest.approx(0.5, abs=1e-6)
    assert fit.homogeneous_root is None


def test_classify_parameter_recovery_with_noise():
    rng = np.random.default_rng(4)
    for gamma, a in ((-0.5, 0.0), (2.0, 1.0), (-2.0, 2.0)):
        cloud = [
            (l, gamma / (l + a) + rng.uniform(-1e-12, 1e-12))
            for l in np.linspace(0.6, 6.0, 50)
        ]
        fit = classify(cloud)
        got = fit.chosen
        if isinstance(got, Moebius):
            # gamma = -2 data may be reported as Moebius; check the ratio
            assert got.d / got.c == pytest.approx(a, abs=1e-6)
        else:
            assert got.gamma == pytest.approx(gamma, abs=1e-6)
            assert got.a == pytest.approx(a, abs=1e-6)
    # constant and logarithmic families under the same noise level
    cloud = [(l, 3.0 + rng.uniform(-1e-12, 1e-12)) for l in np.linspace(0.6, 6.0, 50)]
    fit = classify(cloud)
    assert isinstance(fit.chosen, Constant)
    assert fit.chosen.gamma == pytest.approx(3.0, abs=1e-6)
    cloud = [
        (l, -1.0 / (l + 0.4) + rng.uniform(-1e-12, 1e-12))
        for l in np.linspace(0.6, 6.0, 50)
    ]
    fit = classify(cloud)
    assert isinstance(fit.chosen, Logarithmic)
    assert fit.chosen.a == pytest.approx(0.4, abs=1e-6)


def test_classify_tabulated_fallback():
    fit = classify(make_cloud(lambda l: math.sin(3.0 * l)))
    assert isinstance(fit.chosen, Tabulated)
    ts = [t for t, _ in fit.chosen.points]
    assert all(b > a for a, b in zip(ts, ts[1:]))


@pytest.mark.parametrize("count", [5, 7])
def test_classify_needs_eight_points(count):
    with pytest.raises(InsufficientSamples):
        classify([(1.0, 1.0)] * count)


def _within(got, want):
    return abs(got - want) <= 1e-9 * (1.0 + abs(want))


def test_the_pole_grid_holds_48_distances_a_side_and_the_fixed_shifts_off_the_samples():
    ls = np.array([-1.0, -0.25, 0.25, 1.0])  # -1.0 and 1.0 sit on the poles of a = 1, -1
    shifts, above, far = conditions._pole_grid(ls)
    fixed, below_side, above_side = shifts[:5], shifts[5:53], shifts[53:]
    assert fixed.tolist() == [0.0, 0.5, -0.5, 2.0, -2.0]
    # the poles -a lie 2e-9 to 2e6 apart from [-1, 1], 48 per side, log-spaced
    distances = 2.0 * 10.0 ** np.linspace(-9.0, 6.0, 48)
    assert np.allclose(below_side, 1.0 + distances, rtol=1e-15, atol=0.0)
    assert np.allclose(above_side, -1.0 - distances, rtol=1e-15, atol=0.0)
    # a pole below the middle of the range is on the lower side
    assert above.tolist() == [False, False, True, False, True] + [False] * 48 + [True] * 48
    assert np.flatnonzero(far).tolist() == [52, 100]


# Exact clouds of each family with the pole at 10^k spans, or at 98, from the
# sampled L range, below or above it. On L in [2, 2.001], gamma = 3 keeps
# every pole distance identifiable beside the parsimony penalty (at 1e4 spans
# the Constant fit misses by about 1e-5 there), so the family is the chosen
# one; elsewhere the penalty may pick Constant, and the family's competitor
# is what must recover the pole.
_POLE_SPANS = [10.0**k for k in range(-6, 5)] + [98.0]
_L_RANGES = [(2.0, 2.001), (1.0, 2.0), (1.0, 1.001)]


def _exact_clouds(count):
    """``(lo, ls, a)`` for each L range at ``count`` points and each pole."""
    for lo, hi in _L_RANGES:
        ls = np.linspace(lo, hi, count)
        span = ls[-1] - ls[0]
        for d in _POLE_SPANS:
            for a in (span * d - ls[0], -ls[-1] - span * d):
                yield lo, ls, a


@pytest.mark.parametrize("count", [8, 30, 600])
def test_classify_recovers_an_exact_power_shift_with_its_pole_on_either_side(count):
    for lo, ls, a in _exact_clouds(count):
        for gamma in (3.0, 0.5):
            fit = classify(list(zip(ls.tolist(), (gamma / (ls + a)).tolist())))
            got = fit.competitors["PowerShift"]["class"]
            assert _within(got.gamma, gamma) and _within(got.a, a), (lo, a, gamma, got)
            if lo == 2.0 and gamma == 3.0:
                assert isinstance(fit.chosen, PowerShift), (a, fit.chosen)
                assert _within(fit.chosen.gamma, 3.0) and _within(fit.chosen.a, a), (a, fit.chosen)


@pytest.mark.parametrize("count", [8, 30, 600])
def test_classify_recovers_an_exact_moebius_with_its_pole_on_either_side(count):
    for lo, ls, t in _exact_clouds(count):
        fit = classify(list(zip(ls.tolist(), (-2.0 / (ls + t)).tolist())))
        got = fit.competitors["Moebius"]["class"]
        assert _within(got.d / got.c, t), (lo, t, got)
        if lo == 2.0:
            assert isinstance(fit.chosen, Moebius), (t, fit.chosen)
            assert _within(fit.chosen.d / fit.chosen.c, t), (t, fit.chosen)


_finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def test_the_power_shift_jacobian_times_the_residual_is_the_dual_number_gradient():
    # Kaufman's Jacobian drops a term along U, which the projected residual
    # is orthogonal to: J.r is the exact derivative of |r(a)|^2 / 2 with
    # gamma(a) = U.f / U.U projected out, and J is that of r(a) less its
    # part along U
    rng = np.random.default_rng(36)
    for _ in range(200):
        ls = np.sort(rng.uniform(0.5, 4.0, int(rng.integers(8, 40))))
        fs = rng.uniform(-3.0, 3.0) / (ls + rng.uniform(0.0, 2.0)) + rng.normal(0.0, 0.1, len(ls))
        a = float(rng.uniform(-0.4, 5.0))
        u, gamma, r, _ = conditions._shifted(a, None, ls, fs)
        jac = conditions._dr_da(u, gamma, None)
        us = [1.0 / (l + Dual(a, 1.0)) for l in ls.tolist()]
        gamma_of_a = sum(v * f for v, f in zip(us, fs.tolist())) / sum(v * v for v in us)
        r_of_a = [gamma_of_a * v - f for v, f in zip(us, fs.tolist())]
        half_cost = sum(v * v for v in r_of_a) * 0.5
        assert abs(jac @ r - half_cost.dot) <= 1e-14 * (np.abs(jac) @ np.abs(r)), (a, jac @ r, half_cost.dot)
        dr = np.array([v.dot for v in r_of_a])
        along = (u @ dr) / (u @ u) * u
        assert np.max(np.abs(jac - (dr - along))) <= 1e-13 * np.max(np.abs(jac)), a


@settings(max_examples=300, deadline=None)
@given(l=_finite, t=_finite)
def test_the_moebius_jacobian_is_the_dual_number_derivative(l, t):
    # L and the shift as the fit holds them, float64 array elements
    ls = np.array([l])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u, c, _, _ = conditions._shifted(np.float64(t), -2.0, ls, np.zeros(1))
        (got,) = conditions._dr_da(u, c, -2.0)
        try:
            want = (-2.0 / (ls[0] + Dual(np.float64(t), 1.0))).dot
        except ZeroDivisionError:
            # (L + a)^2 underflows to 0: the dual numbers reject the point as
            # a pole, and the closed form gives no finite slope
            assert not math.isfinite(got)
            return
    if math.isfinite(want):
        assert abs(got - want) <= 4.0 * np.spacing(abs(want)), (got, want)
    else:
        assert got == want or math.isnan(got)


def test_gauss_newton_zero_denominator_keeps_start():
    # one L sits exactly on the pole of the starting shift: the fit stops
    # there with cost inf, without raising and without letting a numpy
    # warning out
    ls = np.linspace(0.5, 4.0, 20)
    ls[7] = -0.5
    fs = -2.0 / (ls + 1.0)
    for c in (None, -2.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, a, cost = _polish(0.5, c, ls, fs)
        assert a == 0.5
        assert cost == math.inf
    # the starts off that pole run as the reference loop does
    _assert_is_the_reference(None, [0.5, 1.5, 2.0], ls, fs)


def _ref_polish(a, c, ls, fs):
    """The undamped one-variable Gauss-Newton loop of one start, frozen: the
    reference that :func:`_polish` matches bit for bit."""

    def at(a):
        u = 1.0 / (ls + a)
        coef = u @ fs / (u @ u) if c is None else c
        r = coef * u - fs
        return u, coef, r, _rms(r)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u, coef, r, cost = at(a)
        if not math.isfinite(cost):
            return coef, a, math.inf
        for _ in range(50):
            if cost < 1e-15:
                break
            u2 = u * u
            jac = -coef * (u2 - (u @ u2) / (u @ u) * u) if c is None else -c * u2
            step = -(jac @ r) / (jac @ jac)
            for _ in range(30):
                trial = at(a + step)
                if trial[3] < cost:
                    a, (u, coef, r, cost) = a + step, trial
                    break
                step /= 2.0
            else:
                break
    return coef, a, cost


def _assert_is_the_reference(c, starts, ls, fs):
    """Each start's ``(coefficient, a, cost)`` from :func:`_polish` equals,
    bit for bit, the reference loop's from that start."""
    for start in starts:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _polish(start, c, ls, fs)
        want = _ref_polish(start, c, ls, fs)
        assert _bits(tuple(map(float, got))) == _bits(tuple(map(float, want))), (start, got, want)


def _fixed_shifts(ls):
    """The 7 PowerShift and 6 Moebius fixed shifts the fit started from
    before its grid of poles, where they lie off the samples."""
    off = [a0 for a0 in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0) if np.min(np.abs(ls + a0)) >= 1e-9]
    return off, [a0 for a0 in off if a0 != 0.0]


def _classify_starts(ls, fs):
    """The PowerShift and Moebius shifts that :func:`classify` polishes: the
    grid's best pole on each side, less a degenerate one at its far end."""
    return [polish for polish, _ in conditions._grid_starts(ls, fs)]


_start = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    ls=st.lists(_finite, min_size=1, max_size=30),
    noise=st.lists(_finite, min_size=30, max_size=30),
    truth=st.tuples(_start, _start),
    power=st.lists(_start, min_size=1, max_size=8),
    moebius=st.lists(_start, min_size=1, max_size=8),
)
@example(  # exact PowerShift data: starts converge and run off
    ls=np.linspace(0.5, 8.0, 24).tolist(),
    noise=[0.0] * 30,
    truth=(-0.5, 0.25),
    power=[0.3, 1.0, -30.0, -1.0, -2.0],
    moebius=[0.5, -3.0],
)
def test_gauss_newton_ends_each_start_where_the_reference_loop_does(ls, noise, truth, power, moebius):
    ls = np.array(ls)
    with np.errstate(all="ignore"):  # a pole of the truth gives inf or nan
        fs = truth[0] / (ls + truth[1]) + np.array(noise[: len(ls)]) * 1e-7
    _assert_is_the_reference(None, power, ls, fs)
    _assert_is_the_reference(-2.0, moebius, ls, fs)
    for starts in (_classify_starts(ls, fs), _fixed_shifts(ls)):
        for c, shifts in zip((None, -2.0), starts):
            _assert_is_the_reference(c, shifts, ls, fs)


def test_gauss_newton_on_the_corpus_clouds_is_the_reference_loop(corpus_reports):
    clouds = [doc.dependence.cloud for doc in corpus_reports.values() if doc.dependence is not None]
    assert len(clouds) >= 5
    for cloud in clouds:
        ls, fs = (np.array(v) for v in zip(*cloud))
        for starts in (_classify_starts(ls, fs), _fixed_shifts(ls)):
            for c, shifts in zip((None, -2.0), starts):
                _assert_is_the_reference(c, shifts, ls, fs)


def _lm_fit(residual, starts, n):
    """scipy's Levenberg-Marquardt from each start: the lowest ``(theta,
    rms)``."""
    with np.errstate(all="ignore"):
        runs = [least_squares(residual, start, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15) for start in starts]
    best = min(runs, key=lambda run: run.cost)
    return best.x, math.sqrt(2.0 * best.cost / n)


def test_the_chosen_fit_on_the_corpus_clouds_is_the_best_fixed_start_fit(corpus_reports):
    # scipy's Levenberg-Marquardt, which shares no code with the polish, from
    # the 7 and 6 fixed starts: the family it gives the lowest penalized
    # residual is the chosen one, and a chosen PowerShift or Moebius lies
    # within the golden tolerance of its best fit
    clouds = [doc.dependence.cloud for doc in corpus_reports.values() if doc.dependence is not None]
    chosen = set()
    for cloud in clouds:
        fit = classify(cloud)
        chosen.add(type(fit.chosen))
        ls, fs = (np.array(v) for v in zip(*cloud))
        power_shifts, moebius_shifts = _fixed_shifts(ls)
        power_starts = []
        for a0 in power_shifts:  # gamma from its least-squares value at a0
            u = 1.0 / (ls + a0)
            power_starts.append((u @ fs / (u @ u), a0))
        (gamma, a), power = _lm_fit(lambda th: th[0] / (ls + th[1]) - fs, power_starts, len(ls))
        (t,), moebius = _lm_fit(lambda th: -2.0 / (ls + th[0]) - fs, [(t0,) for t0 in moebius_shifts], len(ls))
        assert fit.residual <= 1e-6
        if isinstance(fit.chosen, PowerShift):
            assert _within(fit.chosen.gamma, gamma) and _within(fit.chosen.a, a), (fit.chosen, gamma, a)
            assert _within(fit.residual, power) or max(fit.residual, power) < 1e-15
        elif isinstance(fit.chosen, Moebius):
            assert _within(fit.chosen.d / fit.chosen.c, t), (fit.chosen, t)
            assert _within(fit.residual, moebius) or max(fit.residual, moebius) < 1e-15
        else:
            assert power + 2e-6 >= fit.penalized and moebius + 1e-6 >= fit.penalized
    assert chosen >= {PowerShift, Moebius, Constant}


def test_the_two_starts_of_one_family_keep_the_lower_cost_and_the_first_of_a_tie(monkeypatch):
    # no corpus cloud polishes two starts of one family; this even cloud has
    # its best PowerShift pole on each side of the sampled range
    ls = np.linspace(1.0, 2.0, 12)
    fs = (ls - 1.5) ** 2
    (power, kept), _ = conditions._grid_starts(ls, fs)
    assert len(power) == 2 and not kept
    assert power[0] > -1.0 and power[1] < -2.0  # the poles below and above
    runs = [_ref_polish(start, None, ls, fs) for start in power]
    assert runs[0][2] != runs[1][2]
    gamma, a, cost = min(runs, key=lambda run: run[2])
    family = classify(list(zip(ls.tolist(), fs.tolist()))).competitors["PowerShift"]
    assert _bits((family["class"].gamma, family["class"].a)) == _bits((float(gamma), float(a)))
    assert _bits(family["residual"]) == _bits(float(cost))
    # two starts that polish to one cost: the first wins
    monkeypatch.setattr(conditions, "_polish", lambda a0, c, ls, fs: (1.0, a0, 0.25))
    assert conditions._best_fit(None, power, [], ls, fs) == (1.0, power[0], 0.25)
    assert conditions._best_fit(None, power[::-1], [], ls, fs) == (1.0, power[1], 0.25)


def test_classify_recovers_an_exact_power_shift_with_its_pole_98_spans_below():
    ls = np.linspace(1.0, 2.0, 8)
    fit = classify(list(zip(ls.tolist(), (0.5 / (ls + 99.0)).tolist())))
    assert isinstance(fit.chosen, PowerShift), fit.chosen
    assert _within(fit.chosen.gamma, 0.5) and _within(fit.chosen.a, 99.0), fit.chosen


# Clouds and shifts where J.J is 0, by an exact cancellation or an underflow,
# or not finite, by an overflow, while the start's cost is finite
_FLAT_OR_OVERFLOWING = [
    pytest.param(None, np.full(8, 1.5), np.linspace(1.0, 2.0, 8), 0.5, id="power-shift-zero"),
    pytest.param(None, 1e-170 * np.linspace(1.0, 2.0, 8), np.linspace(1.0, 2.0, 8), 0.0, id="power-shift-nan"),
    pytest.param(-2.0, 1e170 * np.linspace(1.0, 2.0, 8), np.linspace(1.0, 2.0, 8), 0.0, id="moebius-zero"),
    pytest.param(
        -2.0, 1e-160 * np.linspace(1.0, 2.0, 8), -2e160 / np.linspace(1.0, 2.0, 8) * (1.0 + 1e-10), 0.0, id="moebius-inf"
    ),
]


@pytest.mark.parametrize("c, ls, fs, a0", _FLAT_OR_OVERFLOWING)
def test_a_zero_or_non_finite_curvature_keeps_the_start(c, ls, fs, a0):
    with np.errstate(all="ignore"):
        u, coef, _, start_cost = conditions._shifted(a0, c, ls, fs)
        jac = conditions._dr_da(u, coef, c)
        curvature = jac @ jac
    assert curvature == 0.0 or not math.isfinite(curvature)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, a, cost = _polish(a0, c, ls, fs)
    assert a == a0 and cost == start_cost and math.isfinite(cost)
    _assert_is_the_reference(c, [a0], ls, fs)


def test_each_start_stops_for_its_reason(monkeypatch):
    # on exact PowerShift data with its pole 0.01 spans below the samples,
    # two PowerShift starts reach a cost below 1e-15; two Moebius starts
    # creep for all 50 steps towards a minimum they never reach; and one
    # start of each family ends where no halving of its step lowers the cost
    ls = np.linspace(1.0, 2.0, 8)
    fs = 0.5 / (ls - 0.99)
    starts = [(None, 0.0), (None, 1.0), (-2.0, -3.0), (-2.0, -5.0), (None, -3.0), (-2.0, 0.0)]
    shifted, evaluated = conditions._shifted, []
    monkeypatch.setattr(conditions, "_shifted", lambda a, *rest: evaluated.append(a) or shifted(a, *rest))
    reasons = []
    for c, start in starts:
        evaluated.clear()
        _, a, cost = _polish(start, c, ls, fs)
        if cost < 1e-15:
            reasons.append("converged")
        elif evaluated[-1] == a:  # the last step was taken
            assert len(evaluated) > conditions._GN_ITERATIONS
            reasons.append("capped")
        else:  # the last _HALVINGS tries were the halvings of one step from a
            assert evaluated[-1 - conditions._HALVINGS] == a
            reasons.append("halvings")
    assert reasons == ["converged"] * 2 + ["capped"] * 2 + ["halvings"] * 2
    monkeypatch.undo()
    for c, start in starts:
        _assert_is_the_reference(c, [start], ls, fs)


def test_classify_on_the_exp_class_cloud_calls_no_linalg_and_keeps_a_far_power_shift(corpus_reports, monkeypatch):
    # PowerShift's best pole on each side is the grid's far end, where it
    # runs off towards Constant: both are kept unpolished, and the competitor
    # is one of them with gamma projected out. The polish in one variable
    # solves no linear system
    cloud = corpus_reports["exp-class"].dependence.cloud
    ls, fs = (np.array(v) for v in zip(*cloud))
    (power, kept), (moebius, _) = conditions._grid_starts(ls, fs)
    assert (len(power), len(kept), len(moebius)) == (0, 2, 1)
    calls = []
    for name in dir(np.linalg):
        function = getattr(np.linalg, name)
        if not name.startswith("_") and callable(function) and not isinstance(function, type):
            monkeypatch.setattr(np.linalg, name, lambda *a, name=name, **k: calls.append(name))
    fit = classify(cloud)
    monkeypatch.undo()
    assert calls == []
    assert isinstance(fit.chosen, Constant)
    family = fit.competitors["PowerShift"]["class"]
    assert family.a in kept
    _, gamma, _, cost = conditions._shifted(family.a, None, ls, fs)
    assert _bits((family.gamma, fit.competitors["PowerShift"]["residual"])) == _bits((float(gamma), cost))


# ---------------------------------------------------------------------------
# Hessian reports (iii)
# ---------------------------------------------------------------------------


def test_hessian_kinetic_full_rank():
    sys = free_particle(2)
    report = hessian_report(
        matrix_kernel(fiber_hessian(sys["lagrangian"]), sys["params"]),
        draw_samples(plan_for(2, 60), Guards(), sys["params"]),
    )
    assert report.nontrivial
    assert (report.min_rank, report.max_rank) == (2, 2)


def test_hessian_root_kinetic_rank_deficient():
    names = ("x1", "x2", "y1", "y2")
    L = ScalarField(2, parse("sqrt(y1^2 + y2^2)", names))
    samples = draw_samples(plan_for(2, 60), Guards(), {})
    report = hessian_report(matrix_kernel(fiber_hessian(L)), samples)
    assert report.nontrivial
    assert (report.min_rank, report.max_rank) == (1, 1)


def test_hessian_exp_class_lagrangian_regular():
    sys = exp_class()
    report = hessian_report(
        matrix_kernel(fiber_hessian(sys["lagrangian"]), sys["params"]),
        draw_samples(
            plan_for(3, 60), Guards(evaluable=(sys["lagrangian"].expr,)), sys["params"]
        ),
    )
    assert report.nontrivial
    assert (report.min_rank, report.max_rank) == (3, 3)


def test_hessian_trivial_matrix():
    names = ("x1", "y1")
    L = ScalarField(1, parse("x1*y1", names))  # fiber Hessian identically zero
    samples = draw_samples(plan_for(1, 30), Guards(), {})
    report = hessian_report(matrix_kernel(fiber_hessian(L)), samples)
    assert not report.nontrivial


# ---------------------------------------------------------------------------
# homogeneous shortcut
# ---------------------------------------------------------------------------


def test_homogeneous_example_passes():
    sys = homogeneous_example()
    plan = SamplePlan(bounds={**box(3, 0.5, 2.0)}, count=150, seed=15)
    samples = evaluable(plan, sys["params"], sys["lagrangian"].expr, *sys["sigma"].components)
    report = check_homogeneous(derived(sys), sys["sigma"], samples)
    assert report.passed
    assert report.degree == pytest.approx(2.0, abs=1e-9)
    assert report.wedge_residual <= 1e-10
    assert report.phi_class == HomogeneousRoot(2.0)
    assert report.nontrivial


def test_homogeneous_broken_proportionality_fails():
    sys = homogeneous_example()
    names = ("x1", "x2", "x3", "y1", "y2", "y3")
    broken = SemiBasicForm(
        3, [parse("2*y1*exp(2*x1)*y1", names), parse("0", names), parse("0", names)]
    )
    plan = SamplePlan(bounds=box(3, 0.5, 2.0), count=100, seed=15)
    samples = evaluable(plan, sys["params"], sys["lagrangian"].expr, *broken.components)
    report = check_homogeneous(derived(sys), broken, samples)
    assert not report.passed
    assert report.wedge_residual > 1e-3


def test_homogeneous_degree_one_rejected():
    names = ("x1", "x2", "x3", "y1", "y2", "y3")
    sys = homogeneous_example()
    degree_one = ScalarField(3, parse("exp(x1)*sqrt(y1^2 + y2^2 + y3^2)", names))
    zero = SemiBasicForm(3, [parse("0", names)] * 3)
    plan = SamplePlan(bounds=box(3, 0.5, 2.0), count=60, seed=19)
    samples = evaluable(plan, {}, degree_one.expr, *zero.components)
    with pytest.raises(NotHomogeneous) as exc:
        check_homogeneous(DerivedFields(sys["spray"], degree_one), zero, samples)
    assert "degree 1" in str(exc.value)


def test_homogeneous_inhomogeneous_rejected():
    sys = damped_oscillator()
    plan = plan_for(2, 60)
    samples = evaluable(plan, sys["params"], sys["lagrangian"].expr, *sys["sigma"].components)
    with pytest.raises(NotHomogeneous):
        check_homogeneous(derived(sys), sys["sigma"], samples)


# ---------------------------------------------------------------------------
# dissipative structure
# ---------------------------------------------------------------------------


def test_dissipative_damped_oscillator_passes():
    sys = damped_oscillator()
    d = derived(sys)
    samples = dissipative_samples(d, sys["dissipation"], plan_for(2, 150), sys["params"])
    report = check_dissipative(d, sys["dissipation"], samples)
    assert report.gradient_match.passed
    assert report.energy_rate_match.passed
    assert not report.rayleigh  # D has linear-in-velocity terms


def test_dissipative_zero_function_trivial():
    sys = free_particle(2)
    zero = ScalarField(2, parse("0", ("x1",)))
    d = derived(sys)
    samples = dissipative_samples(d, zero, plan_for(2, 60), sys["params"])
    report = check_dissipative(d, zero, samples)
    assert report.gradient_match.passed
    assert report.energy_rate_match.passed


def test_dissipative_perturbed_gradient_fails():
    sys = damped_oscillator()
    names = ("x1", "x2", "y1", "y2", "a", "b", "w")
    perturbed = ScalarField(
        2, parse(f"({sys['dissipation'].expr.to_source()}) + x1*y1", names)
    )
    d = derived(sys)
    samples = dissipative_samples(d, perturbed, plan_for(2, 150), sys["params"])
    report = check_dissipative(d, perturbed, samples)
    assert not report.gradient_match.passed


def test_dissipative_rayleigh_reports_negative_quadratic():
    sys = rayleigh_drag()
    d = derived(sys)
    samples = dissipative_samples(d, sys["dissipation"], plan_for(2, 100), sys["params"])
    report = check_dissipative(d, sys["dissipation"], samples)
    assert report.gradient_match.passed
    assert report.energy_rate_match.passed
    assert report.rayleigh
    assert report.rayleigh_rate.passed
    assert report.dissipation_negative is True
    # anti-damping x'' = y with D = |y|^2/2 meets the same identities, D > 0
    names = ("x1", "x2", "y1", "y2")
    anti = SemiSpray(2, [parse("-y1/2", names), parse("-y2/2", names)])
    gain = ScalarField(2, parse("0.5*(y1^2 + y2^2)", names))
    report = check_dissipative(DerivedFields(anti, sys["lagrangian"]), gain, samples)
    assert report.gradient_match.passed and report.rayleigh_rate.passed
    assert report.dissipation_negative is False


# ---------------------------------------------------------------------------
# oracles: the checks on rows and kernels against dict-binding references
# ---------------------------------------------------------------------------
#
# Each _ref_* function evaluates every root separately through a binding
# dict, as the checks did before they read kernels over positional rows.
# Their per-point maxima let a NaN through, as the checks' own must.


def _ref_max(a, b):
    return b if (math.isnan(b) or b > a) and not math.isnan(a) else a


def _ref_segment(plan, rng, names, n):
    """A random fiber segment (a, b): a chart point a, then b with a's
    positions and fresh fibers, one ``rng.uniform`` call per coordinate."""
    a = [rng.uniform(*plan.bounds[v]) for v in names]
    return a, a[:n] + [rng.uniform(*plan.bounds[v]) for v in names[n:]]


def _ref_regula_falsi(value_at, a, b, va, vb, target):
    """(point, L there) by the Illinois regula falsi of L - target between
    the bracket ends a and b, where L is va and vb: an end on the level
    itself, else up to 80 steps, each to the secant's root or, where the
    secant's fraction is not inside (0, 1) or the root rounds onto b, the
    midpoint. The newest point is always b; a is the end the step keeps,
    its value halved each time it is kept."""
    fa, fb = va - target, vb - target
    if fa == 0.0:
        return a, va
    if fb == 0.0:
        return b, vb
    for step in range(80):
        try:
            s = fb / (fb - fa)
        except ZeroDivisionError:
            s = math.nan
        c = [v + s * (u - v) for u, v in zip(a, b)] if 0.0 < s < 1.0 else b
        if _bits(c) == _bits(b):
            c = [(u + v) / 2.0 for u, v in zip(a, b)]
        vc = value_at(c)
        fc = vc - target
        if fc == 0.0 or _bits(c) in (_bits(a), _bits(b)) or step == 79:
            return c, vc
        if fc * fa > 0.0 or fc * fb < 0.0 or (math.isnan(fa) and math.isnan(fc)):
            a, fa = b, fb  # the root lies between b and c
        else:
            fa = fa / 2.0
        b, fb = c, fc
    raise AssertionError("unreachable")


def _ref_level_groups(value_at, accept, plan, rng, targets, n):
    """(groups, segments drawn): per target, the points ``accept`` keeps,
    in segment order. Each level scans the segments in draw order and
    solves along each one that brackets it, until 4 points are kept or 12
    solved; the segments come in blocks of 128, at most 12 blocks, each
    drawn when a level scans past the last segment. Any segment may serve
    every level."""
    names = ex.chart_names(n)
    segments, groups = [], []
    for target in targets:
        group, solved, i = [], 0, 0
        while len(group) < 4 and solved < 12:
            if i == len(segments):
                if i == 12 * 128:
                    break
                for _ in range(128):
                    a, b = _ref_segment(plan, rng, names, n)
                    try:
                        segments.append((a, b, value_at(a), value_at(b)))
                    except ex.DomainViolation:
                        segments.append(None)
            segment, i = segments[i], i + 1
            if segment is None or (segment[2] - target) * (segment[3] - target) > 0.0:
                continue
            solved += 1
            try:
                point, value = _ref_regula_falsi(value_at, *segment, target)
            except ex.DomainViolation:
                continue
            if abs(value - target) <= 1e-10 * (1.0 + abs(target)):
                kept = accept(point)
                if kept is not None:
                    group.append(kept)
        groups.append(group)
    return groups, len(segments)


def _ref_value_at(e, n, params):
    """A function of a chart point's coordinates: ``e`` there, through a binding dict."""
    return lambda coords: ex.evaluate(e, binding(coords, n, params))


def _ref_ratio(d, b, eps):
    sl = ex.evaluate(d.spray_of_L.expr, b)
    cl = ex.evaluate(d.liouville_of_L.expr, b)
    if abs(sl) <= eps:
        raise GuardViolation("S(L)", sl, eps)
    if abs(cl) <= eps:
        raise GuardViolation("C(L)", cl, eps)
    return -ex.evaluate(d.energy_rate.expr, b) / (sl * cl)


def _ref_sigma_condition(d, sigma, samples, params, tol=1e-9):
    residuals = []
    for row in samples.rows:
        b = binding(row, sigma.n, params)
        scale = ex.evaluate(d.energy_rate.expr, b) / ex.evaluate(d.liouville_of_L.expr, b)
        worst = 0.0
        for i in range(sigma.n):
            s_i = ex.evaluate(sigma.components[i], b)
            rhs = scale * ex.evaluate(d.vertical.components[i], b)
            worst = _ref_max(worst, abs(s_i - rhs) / (1.0 + abs(s_i)))
        residuals.append(worst)
    return ConditionReport.from_residuals(
        "sigma_condition", residuals, samples.rows, samples.rejected, tol
    )


def _ref_sigma_consistency(d, sigma, samples, params, tol=1e-9):
    residuals = []
    for row in samples.rows:
        b = binding(row, sigma.n, params)
        worst = 0.0
        for i in range(sigma.n):
            s_i = ex.evaluate(sigma.components[i], b)
            defect_i = ex.evaluate(d.defect.components[i], b)
            worst = _ref_max(worst, abs(s_i - defect_i) / (1.0 + abs(s_i)))
        residuals.append(worst)
    return ConditionReport.from_residuals(
        "sigma_consistency", residuals, samples.rows, samples.rejected, tol
    )


def _ref_dependence(d, samples, plan, params, tol_dep=1e-6):
    """(cloud, per-level groups of slope values) of the dependence test."""
    n = d.lagrangian.n
    cloud = []
    for row in samples.rows:
        b = binding(row, n, params)
        cloud.append((ex.evaluate(d.lagrangian.expr, b), _ref_ratio(d, b, plan.guard_eps)))
    cloud.sort(key=lambda t: t[0])
    l_values = np.array([l for l, _ in _merge_duplicate_abscissae(cloud)])
    targets = [float(np.quantile(l_values, (k + 0.5) / 32)) for k in range(32)]

    def accept(point):
        try:
            return _ref_ratio(d, binding(point, n, params), plan.guard_eps)
        except (GuardViolation, ex.DomainViolation):
            return None

    value_at = _ref_value_at(d.lagrangian.expr, n, params)
    rng = np.random.default_rng(plan.seed + 1)
    return cloud, _ref_level_groups(value_at, accept, plan, rng, targets, n)[0]


def _ref_dependence_cloud(d, samples, plan):
    """The (L, f) cloud of the dependence test, sorted by L."""
    n = d.lagrangian.n
    cloud = []
    for row in samples.rows:
        b = binding(row, n, {})
        cloud.append((ex.evaluate(d.lagrangian.expr, b), _ref_ratio(d, b, plan.guard_eps)))
    return sorted(cloud, key=lambda t: t[0])


def _ref_hessian_cells(matrix, samples, params):
    """The evaluable matrices, as hessian_report stacks them."""
    stack = []
    for row in samples.rows:
        b = binding(row, len(matrix), params)
        try:
            stack.append([[ex.evaluate(cell, b) for cell in line] for line in matrix])
        except ex.DomainViolation:
            continue
    return stack


def _ref_deformed_hessian_at(d, deformation, row, params):
    b = binding(row, d.lagrangian.n, params)
    d1, d2 = deformation.triple(ex.evaluate(d.lagrangian.expr, b))[1:]
    dy = np.array([ex.evaluate(c, b) for c in d.vertical.components])
    g = np.array([[ex.evaluate(cell, b) for cell in row] for row in d.hessian])
    return d2 * np.outer(dy, dy) + d1 * g


def _ref_verify(d, deformation, samples, params, tol=1e-9):
    composed = DeformedLagrangian(d.lagrangian, deformation).composed()
    direct_form = lagrange_differential(d.spray, composed) if composed is not None else None
    residuals, kept = [], []
    expansion_max = agreement_max = 0.0
    out_of_interval = 0
    n = d.lagrangian.n
    for row in samples.rows:
        b = binding(row, n, params)
        try:
            d1, d2 = deformation.triple(ex.evaluate(d.lagrangian.expr, b))[1:]
            sl = ex.evaluate(d.spray_of_L.expr, b)
            worst = exp_worst = agree = 0.0
            for i in range(n):
                term1 = d2 * sl * ex.evaluate(d.vertical.components[i], b)
                term2 = d1 * ex.evaluate(d.defect.components[i], b)
                expanded = term1 + term2
                scale = 1.0 + abs(term1) + abs(term2)
                direct = (
                    ex.evaluate(direct_form.components[i], b)
                    if direct_form is not None
                    else expanded
                )
                worst = _ref_max(worst, abs(direct) / scale)
                exp_worst = _ref_max(exp_worst, abs(expanded) / scale)
                agree = _ref_max(agree, abs(direct - expanded) / scale)
        except (OutOfInterval, ex.DomainViolation):
            out_of_interval += 1
            continue
        residuals.append(worst)
        kept.append(row)
        expansion_max = _ref_max(expansion_max, exp_worst)
        agreement_max = _ref_max(agreement_max, agree)
    direct = ConditionReport.from_residuals(
        "deformed_euler_lagrange", residuals, kept, samples.rejected + out_of_interval, tol
    )
    return DeformedELReport(direct, expansion_max, agreement_max, out_of_interval)


def _ref_homogeneity_degree(e, n, rows, params, tol=1e-9):
    estimate = None
    for row in rows:
        y = row[n : 2 * n]
        if all(v == 0.0 for v in y):
            continue
        b = binding(row, n, params)
        try:
            base = ex.evaluate(e, b)
        except ex.DomainViolation:
            continue
        if not math.isfinite(base) or abs(base) < 1e-12:
            continue

        def scaled(r):
            value = ex.evaluate(e, dict(b, **{f"y{i + 1}": r * y[i] for i in range(n)}))
            if not math.isfinite(value):
                raise ex.DomainViolation(e, "not finite")
            return value

        try:
            ratio = scaled(2.0) / base
        except ex.DomainViolation:
            return None
        if ratio <= 0.0:
            return None
        p_here = math.log(ratio) / math.log(2.0)
        if estimate is None:
            estimate = p_here
        elif abs(p_here - estimate) > tol * (1.0 + abs(estimate)):
            return None
        for r in (0.5, 2.0, 3.0):
            try:
                value = scaled(r)
            except ex.DomainViolation:
                return None
            want = math.pow(r, estimate) * base
            if abs(value - want) > tol * (1.0 + abs(value) + abs(want)):
                return None
    return estimate


def _ref_homogeneous_wedge(d, sigma, samples, params):
    """(L positive on the samples, the wedge residual) of check_homogeneous."""
    n = d.lagrangian.n
    positive = all(
        ex.evaluate(d.lagrangian.expr, binding(row, n, params)) > 0.0 for row in samples.rows
    )
    wedge = 0.0
    for row in samples.rows:
        b = binding(row, n, params)
        dj = [ex.evaluate(c, b) for c in d.vertical.components]
        sg = [ex.evaluate(c, b) for c in sigma.components]
        for i in range(sigma.n):
            for j in range(i + 1, sigma.n):
                wedge = _ref_max(wedge, abs(dj[i] * sg[j] - dj[j] * sg[i]))
    return positive, wedge


def _ref_dissipative(d, dissipation, samples, params, tol=1e-9):
    grad_d = [ex.partial(dissipation.expr, f"y{i + 1}") for i in range(dissipation.n)]
    c_of_d = liouville_apply(dissipation).expr
    grad_res, rate_res, twice_res = [], [], []
    n = dissipation.n
    for row in samples.rows:
        b = binding(row, n, params)
        worst = 0.0
        for i in range(dissipation.n):
            defect_i = ex.evaluate(d.defect.components[i], b)
            grad_i = ex.evaluate(grad_d[i], b)
            worst = _ref_max(worst, abs(defect_i - grad_i) / (1.0 + abs(grad_i)))
        grad_res.append(worst)
        sel = ex.evaluate(d.energy_rate.expr, b)
        cd = ex.evaluate(c_of_d, b)
        rate_res.append(abs(sel - cd) / (1.0 + abs(cd)))
        twice = 2.0 * ex.evaluate(dissipation.expr, b)
        twice_res.append(abs(sel - twice) / (1.0 + abs(twice)))
    rows, rejected = samples.rows, samples.rejected
    return (
        ConditionReport.from_residuals("sigma_is_dJD", grad_res, rows, rejected, tol),
        ConditionReport.from_residuals("energy_rate_is_CD", rate_res, rows, rejected, tol),
        ConditionReport.from_residuals("energy_rate_is_2D", twice_res, rows, rejected, tol),
    )


def _bits(value):
    """A value with every float replaced by its exact bits, NaN included."""
    if isinstance(value, float):
        return value.hex() if value == value else "nan"
    if isinstance(value, PhasePoint):
        return _bits(value.x + value.y)
    if isinstance(value, np.ndarray):
        return _bits(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {k: _bits(getattr(value, k)) for k in value.__dataclass_fields__}
    return value


def _level_problems():
    """(name, L, plan, params) for the level solver's oracle: the corpus, a
    box where the coordinates converge to +-0.0, an L that is NaN on part
    of its segments (1e307 y1^2 overflows for y1 > 4.2), and an L spanning
    87 decades on each fiber, where secant steps round onto their newest
    end."""
    problems = []
    for name in CORPUS_NAMES:
        spec = load_corpus_problem(name)
        problems.append((name, spec.lagrangian, spec.plan(), spec.params))
    tiny = SamplePlan({"x1": (0.5, 2.0), "y1": (-4e-323, 3e-323)}, 64, 7)
    problems.append(("subnormal", ScalarField(1, parse("1e300*y1", ("x1", "y1"))), tiny, {}))
    nan_l = parse("y1 + (1e307*y1*y1 - 1e307*y1*y1)", ("x1", "y1"))
    wide = SamplePlan({"x1": (0.5, 2.0), "y1": (0.5, 8.0)}, 64, 11)
    problems.append(("nan-part", ScalarField(1, nan_l), wide, {}))
    steep = SamplePlan({"x1": (0.5, 2.0), "y1": (0.0, 1.0)}, 64, 3)
    problems.append(("steep", ScalarField(1, parse("exp(200*y1)", ("x1", "y1"))), steep, {}))
    return problems


def _quantile_targets(lagrangian, plan, params):
    """32 levels of L: quantiles of L over a 64-point draw of ``plan``."""
    n = lagrangian.n
    draw = draw_samples(SamplePlan(plan.bounds, 64, plan.seed), Guards(evaluable=(lagrangian.expr,)), params)
    ls = [ex.evaluate(lagrangian.expr, binding(row, n, params)) for row in draw.rows]
    return [float(np.quantile(ls, (k + 0.5) / 32)) for k in range(32)]


def _solve_against_the_reference(lagrangian, plan, params, targets, keep=lambda point: True):
    """The level groups of _LevelSolver and of the scalar reference, each
    point that ``keep`` admits kept as it is and every other one rejected,
    from the generator of ``plan.seed + 1``: the same
    points bit for bit, the same segments drawn, and every point on the
    segment it came from and within the level width. Returns (target,
    point, a, b) for each point, where a and b are the ends of its segment."""
    n = lagrangian.n
    names = ex.chart_names(n)
    level = DerivedFields(SemiSpray(n, [ex.Const(0.0)] * n), lagrangian, params).kernel(
        (lagrangian.expr,)
    )
    lows = [plan.bounds[v][0] for v in names]
    highs = [plan.bounds[v][1] for v in names]
    solver = _LevelSolver(
        level,
        lows,
        highs,
        np.random.default_rng(plan.seed + 1),
        targets,
        lambda points: [point if keep(point) else None for point in points.T.tolist()],
    )
    groups = solver.groups()
    value_at = _ref_value_at(lagrangian.expr, n, params)
    rng_ref = np.random.default_rng(plan.seed + 1)
    want, drawn = _ref_level_groups(
        value_at, lambda point: point if keep(point) else None, plan, rng_ref, targets, n
    )
    assert _bits(groups) == _bits(want)
    # the solver drew exactly the segments the reference drew, 3n draws each
    assert solver.a.shape[1] == drawn
    consumed = np.random.default_rng(plan.seed + 1)
    consumed.uniform(size=3 * n * drawn)
    assert consumed.bit_generator.state == rng_ref.bit_generator.state
    found = []
    for target, group in zip(targets, groups):
        for point in group:
            # its segment: the one segment drawn at the point's positions
            (i,) = np.flatnonzero((solver.a[:n].T == point[:n]).all(axis=1))
            a, b = solver.a[:, i].tolist(), solver.b[:, i].tolist()
            assert point[:n] == a[:n] == b[:n]
            assert all(min(u, v) <= y <= max(u, v) for y, u, v in zip(point[n:], a[n:], b[n:]))
            assert abs(value_at(point) - target) <= 1e-10 * (1.0 + abs(target))
            found.append((target, point, a, b))
    return found


@pytest.mark.parametrize("name,lagrangian,plan,params", _level_problems(), ids=lambda v: v if isinstance(v, str) else "")
def test_level_solver_matches_the_regula_falsi_reference_bit_for_bit(name, lagrangian, plan, params):
    targets = _quantile_targets(lagrangian, plan, params)
    if name == "subnormal":
        targets = [0.0, -0.0] * 16
    assert _solve_against_the_reference(lagrangian, plan, params, targets)


@pytest.mark.parametrize("end", [0, 1], ids=["a", "b"])
@pytest.mark.parametrize("name", ["dissipative", "homogeneous", "moebius"])
def test_an_end_on_its_level_is_the_point(name, end):
    # target k is L at an end of segment k; a lane whose segment has an end
    # on its level returns that end with no step. Level k < 4 solves along
    # segment k, as at most k segments before it can bracket it
    spec = load_corpus_problem(name)
    plan, n = spec.plan(), spec.n
    rng = np.random.default_rng(plan.seed + 1)
    segments = [_ref_segment(plan, rng, ex.chart_names(n), n) for _ in range(32)]
    value_at = _ref_value_at(spec.lagrangian.expr, n, spec.params)
    targets = [value_at(seg[end]) for seg in segments]
    found = _solve_against_the_reference(spec.lagrangian, plan, spec.params, targets)
    on_end = [(point, (a, b)[end]) for target, point, a, b in found if value_at((a, b)[end]) == target]
    assert all(_bits(point) == _bits(e) for point, e in on_end)
    assert all(_bits(seg[end]) in [_bits(e) for _, e in on_end] for seg in segments[:4])


def test_a_level_crossed_several_times_along_a_segment():
    wavy = ScalarField(1, parse("sin(12*y1) + 0.25*x1", ("x1", "y1")))
    plan = SamplePlan({"x1": (0.5, 2.0), "y1": (-3.0, 3.0)}, 64, 5)
    found = _solve_against_the_reference(wavy, plan, {}, _quantile_targets(wavy, plan, {}))
    assert len(found) == 32 * 4  # every level gets its points

    def crossings(target, a, b):
        ys = np.linspace(a[1], b[1], 4001)
        signs = np.sign(np.sin(12 * ys) + 0.25 * a[0] - target)
        return int(np.count_nonzero(signs[1:] != signs[:-1]))

    assert max(crossings(t, a, b) for t, _, a, b in found) >= 5


def test_a_secant_step_outside_the_bracket_takes_the_midpoint():
    # L spans 87 decades on each fiber: where b lies far above the level, fa
    # is below half an ulp of fb and fb / (fb - fa) rounds to 1
    steep = ScalarField(1, parse("exp(200*y1)", ("x1", "y1")))
    plan = SamplePlan({"x1": (0.5, 2.0), "y1": (0.0, 1.0)}, 64, 3)
    found = _solve_against_the_reference(steep, plan, {}, _quantile_targets(steep, plan, {}))
    assert len(found) == 32 * 4

    def first_fraction(target, a, b):
        fa, fb = (math.exp(200 * end[1]) - target for end in (a, b))
        return fb / (fb - fa)

    assert any(not 0.0 < first_fraction(t, a, b) < 1.0 for t, _, a, b in found)


def test_one_segment_serves_every_level_it_brackets():
    # L = y1 on [0, 1]: a segment across both levels gives a point on each
    line = ScalarField(1, parse("y1", ("x1", "y1")))
    plan = SamplePlan({"x1": (0.5, 2.0), "y1": (0.0, 1.0)}, 64, 17)
    found = _solve_against_the_reference(line, plan, {}, [0.45, 0.55])
    assert len(found) == 2 * 4
    segments = [_bits(a + b) for _, _, a, b in found]
    shared = [seg for seg in segments[:4] if seg in segments[4:]]
    assert shared
    for _, point, a, b in found:
        if _bits(a + b) in shared:
            assert point[0] == a[0] and min(a[1], b[1]) < 0.45 < 0.55 < max(a[1], b[1])


@pytest.mark.parametrize("name", ["dissipative", "lienard", "moebius"])
def test_rejected_points_send_their_levels_on_to_later_segments(name):
    # only the points at x1 > 1.25 are kept: each level solves again along
    # its next bracketing segments, in later rounds and blocks
    spec = load_corpus_problem(name)
    plan = spec.plan()
    targets = _quantile_targets(spec.lagrangian, plan, spec.params)
    found = _solve_against_the_reference(spec.lagrangian, plan, spec.params, targets, lambda p: p[0] > 1.25)
    assert found and all(point[0] > 1.25 for _, point, _, _ in found)


class _RaisingLevel:
    """A level kernel of L = y1 whose rows with y1 > 1.9 raise ``error``."""

    def __init__(self, error):
        self.error = error

    def columns(self, stack):
        return [stack[1].copy()], set(np.flatnonzero(stack[1] > 1.9).tolist())

    def walk(self, row):
        raise self.error


def _line_solver(level, accept=lambda points: points.T.tolist()):
    return _LevelSolver(level, [0.5, 0.5], [2.0, 2.0], np.random.default_rng(3), [1.0, 1.5], accept)


def test_an_error_at_a_segment_end_is_raised_unless_a_domain_violation():
    with pytest.raises(ZeroDivisionError, match="at an end"):
        _line_solver(_RaisingLevel(ZeroDivisionError("at an end"))).groups()
    solver = _line_solver(_RaisingLevel(ex.DomainViolation(ex.Const(0.0), "at an end")))
    groups = solver.groups()
    assert [len(group) for group in groups] == [4, 4]
    # a segment with an end that raises brackets no level
    skipped = (solver.a[1] > 1.9) | (solver.b[1] > 1.9)
    assert skipped.any() and not solver.brackets[:, skipped].any()


def test_an_error_accept_returns_is_raised():
    def accept(points):
        return [ValueError("at a point")] + points.T.tolist()[1:]

    with pytest.raises(ValueError, match="at a point"):
        _line_solver(_RaisingLevel(ex.DomainViolation(ex.Const(0.0), "")), accept).groups()


def _run_inputs(name, offset):
    data = json.loads(corpus_text(name))
    data["sampling"]["seed"] += offset
    spec = problem_from_dict(data)
    d = DerivedFields(spec.spray, spec.lagrangian, spec.params)
    plan = spec.plan()
    if name == "free-particle":
        guards = Guards(evaluable=(spec.lagrangian.expr,) + tuple(d.defect.components))
    else:
        guards = d.run_guards(spec.sigma, spec.dissipation)
    return spec, d, plan, draw_samples(plan, guards, spec.params)


# at seed offset 31001 a point exp-class builds on a level has |S(L)| at or
# below the guard, so its level needs a second round of solves
@pytest.mark.parametrize(
    "name,offset", [(n, o) for o in (0, 5) for n in CORPUS_NAMES] + [("exp-class", 31001)]
)
def test_checks_on_rows_match_the_dict_binding_references(name, offset):
    spec, d, plan, samples = _run_inputs(name, offset)
    params = spec.params
    sigma = spec.sigma if spec.sigma is not None else d.defect

    assert _bits(check_sigma_consistency(d, sigma, samples)) == _bits(
        _ref_sigma_consistency(d, sigma, samples, params)
    )
    base = hessian_report(matrix_kernel(d.hessian, params), samples)
    cells = _ref_hessian_cells(d.hessian, samples, params)
    assert base.samples == len(cells)
    assert _bits(base.max_entry) == _bits(float(np.max(np.abs(np.array(cells)))))
    if name == "free-particle":
        return  # S(L) = 0: the run takes the conservative branch

    assert _bits(check_sigma_condition(d, sigma, samples)) == _bits(
        _ref_sigma_condition(d, sigma, samples, params)
    )
    result = functional_dependence_test(d, samples, plan)
    cloud, groups = _ref_dependence(d, samples, plan, params)
    assert _bits(result.cloud) == _bits(_merge_duplicate_abscissae(cloud))
    used = [g for g in groups if len(g) >= 2]
    assert result.levels_used == len(used)
    assert _bits(result.max_level_spread) == _bits(max([max(g) - min(g) for g in used] + [0.0]))

    ls = [l for l, _ in result.cloud]
    deformation = synthesize(classify(result.cloud).chosen, (min(ls), max(ls)))
    assert _bits(verify_deformed_el(d, deformation, samples)) == _bits(
        _ref_verify(d, deformation, samples, params)
    )
    matrix = deformed_hessian_matrix(d, deformation)
    for row in samples.rows[:50]:
        try:
            want = _ref_deformed_hessian_at(d, deformation, row, params)
        except (ex.DomainViolation, ValueError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                matrix(row)
        else:
            assert _bits(np.reshape(matrix(row), (spec.n, spec.n))) == _bits(want)

    positive, wedge = _ref_homogeneous_wedge(d, sigma, samples, params)
    degree = _ref_homogeneity_degree(spec.lagrangian.expr, spec.n, samples.rows, params)
    assert homogeneity_degree(spec.lagrangian, samples.rows, params) == degree
    try:
        report = check_homogeneous(d, sigma, samples)
    except NotHomogeneous:
        pass
    else:
        assert positive and _bits(report.wedge_residual) == _bits(wedge)

    if spec.dissipation is not None:
        report = check_dissipative(d, spec.dissipation, samples)
        gradient, rate, twice = _ref_dissipative(d, spec.dissipation, samples, params)
        assert _bits(report.gradient_match) == _bits(gradient)
        assert _bits(report.energy_rate_match) == _bits(rate)
        if report.rayleigh:
            assert _bits(report.rayleigh_rate) == _bits(twice)


def _one_dimensional(lagrangian, spray="0"):
    names = ("x1", "y1")
    return DerivedFields(SemiSpray(1, [parse(spray, names)]), ScalarField(1, parse(lagrangian, names)))


def test_a_hessian_cell_that_raises_skips_its_point_as_the_reference_does():
    d = _one_dimensional("0.5*y1^2")
    matrix = [[parse("ln(x1 - 1)*y1", ("x1", "y1"))]]
    samples = draw_samples(plan_for(1, 60), Guards(), {})
    report = hessian_report(matrix_kernel(matrix), samples)
    cells = _ref_hessian_cells(matrix, samples, {})
    assert 0 < report.samples == len(cells) < len(samples.rows)
    assert _bits(report.max_entry) == _bits(float(np.max(np.abs(np.array(cells)))))


def test_an_out_of_interval_phi_is_counted_as_the_reference_counts_it():
    # L = y1 - 1 changes sign on the box, and ln(L + 0.2) is defined only above -0.2
    d = _one_dimensional("y1 - 1", spray="0")
    samples = draw_samples(plan_for(1, 80), Guards(evaluable=(d.lagrangian.expr,)), {})
    deformation = synthesize(Logarithmic(0.2), (0.0, 1.0))
    got = verify_deformed_el(d, deformation, samples)
    assert 0 < got.out_of_interval < len(samples.rows)
    assert _bits(got) == _bits(_ref_verify(d, deformation, samples, {}))


def test_a_raising_vertical_differential_propagates_the_reference_error():
    # d_J L = 1.5 sign(y1) |y1|^0.5 ... raises at y1 = 0 exactly, a point
    # the sigma condition is handed without a guard
    d = _one_dimensional("abs(y1)^1.5 + x1*y1")
    names = ("x1", "y1")
    sigma = SemiBasicForm(1, [parse("y1", names)])
    samples = Samples([[1.0, 0.5], [1.0, 0.0]], 2)
    with pytest.raises(ex.DomainViolation) as want:
        _ref_sigma_condition(d, sigma, samples, {})
    with pytest.raises(ex.DomainViolation) as got:
        check_sigma_condition(d, sigma, samples)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
    assert got.value.expr is want.value.expr


def _same_outcome(got, want):
    """``got()`` gives the bits of ``want()``, or raises the error it raises:
    the same type with the same message, which names the failing node."""
    try:
        expected = want()
    except Exception as exc:
        with pytest.raises(Exception) as raised:
            got()
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return type(exc)
    assert _bits(got()) == _bits(expected)
    return None


def _ref_deformed_hessian_report(d, deformation, samples):
    matrices = []
    for row in samples.rows:
        try:
            m = _ref_deformed_hessian_at(d, deformation, row, {})
        except (ex.DomainViolation, ValueError):
            continue
        if np.isfinite(m).all():
            matrices.append(m)
    if not matrices:
        raise InsufficientSamples("no evaluable points for the Hessian")
    return len(matrices), float(np.max(np.abs(np.array(matrices))))


# L = y1^2/2 + x1 y1 + sqrt(x1 - 1) and G = ln(y1 + 1) y1: at (0.5, 1.5)
# sqrt raises, in L, S(L), E_L, S(E_L) and the defect; at (1.5, -1.5) ln
# raises, in S(L), S(E_L) and the defect, and L + 0.2 < 0 lies outside
# ln(L + 0.2)'s interval; at (1.5, 0) C(L) = y1 (y1 + x1) is 0; at (1.25, 1)
# sigma = y1/(x1 - 1.25) divides by zero; at (2, -0.9) L + 0.2 < 0 alone
_RAISING_ROWS = [[0.5, 1.5], [1.5, -1.5], [1.5, 0.0], [1.25, 1.0], [2.0, -0.9]]
_GOOD_ROWS = [[x, y] for x in (1.5, 2.0) for y in (0.5, 1.0, 1.5, 2.0)]


@pytest.mark.parametrize(
    "bad",
    [[row] for row in _RAISING_ROWS]
    + [_RAISING_ROWS[k:] + _RAISING_ROWS[:k] for k in range(len(_RAISING_ROWS))],
    ids=lambda bad: "-".join(f"{x:g},{y:g}" for x, y in bad),
)
def test_checks_meet_raising_rows_as_the_dict_binding_references_do(bad):
    # every column call over these rows raises somewhere: each check reads
    # the rows through kernel(row) then, and skips, counts or raises at
    # the row and in the order its row loop did
    names = ("x1", "y1")
    d = DerivedFields(
        SemiSpray(1, [parse("ln(y1 + 1)*y1", names)]),
        ScalarField(1, parse("0.5*y1^2 + x1*y1 + sqrt(x1 - 1)", names)),
    )
    sigma = SemiBasicForm(1, [parse("y1/(x1 - 1.25)", names)])
    dissipation = ScalarField(1, parse("y1^2", names))
    deformation = synthesize(Logarithmic(0.2), (0.0, 1.0))
    rows = _GOOD_ROWS[:4] + bad + _GOOD_ROWS[4:]
    samples = Samples(rows, len(rows) + 3)
    plan = plan_for(1, count=len(rows))
    raised = [
        _same_outcome(
            lambda: check_sigma_consistency(d, sigma, samples),
            lambda: _ref_sigma_consistency(d, sigma, samples, {}),
        ),
        _same_outcome(
            lambda: check_sigma_condition(d, sigma, samples),
            lambda: _ref_sigma_condition(d, sigma, samples, {}),
        ),
        _same_outcome(
            lambda: functional_dependence_test(d, samples, plan).cloud,
            lambda: _merge_duplicate_abscissae(_ref_dependence_cloud(d, samples, plan)),
        ),
        _same_outcome(
            lambda: verify_deformed_el(d, deformation, samples),
            lambda: _ref_verify(d, deformation, samples, {}),
        ),
        _same_outcome(
            lambda: (lambda r: (r.samples, r.max_entry))(
                deformed_hessian(d, deformation, samples)
            ),
            lambda: _ref_deformed_hessian_report(d, deformation, samples),
        ),
        _same_outcome(
            lambda: (lambda r: (r.gradient_match, r.energy_rate_match, r.rayleigh_rate))(
                check_dissipative(d, dissipation, samples)
            ),
            lambda: _ref_dissipative(d, dissipation, samples, {}),
        ),
    ]
    matrix = [[d.lagrangian.expr]]
    report = hessian_report(matrix_kernel(matrix), samples)
    cells = _ref_hessian_cells(matrix, samples, {})
    assert report.samples == len(cells)
    assert _bits(report.max_entry) == _bits(float(np.max(np.abs(np.array(cells)))))
    if len(bad) > 1:
        assert raised[:3] != [None] * 3


def _every_row_marked(run):
    """``run()`` with every column call marking all of its rows, so that each
    check reads every row through ``kernel.walk(row)`` (:func:`ex.table` and
    ``Guards.admit``), as no column call could."""
    columns = ex.Kernel.columns
    with pytest.MonkeyPatch.context() as m:
        every = lambda kernel, stack: (columns(kernel, stack)[0], frozenset(range(stack.shape[1])))
        m.setattr(ex.Kernel, "columns", every)
        return run()


@pytest.mark.parametrize("k", [0, 2], ids=["in-order", "rotated"])
def test_the_raising_rows_give_each_check_the_same_outcome_with_every_row_marked(k):
    # reading only the rows a column call marks, and not every row, moves no
    # bit, count or error of any check
    names = ("x1", "y1")
    d = DerivedFields(
        SemiSpray(1, [parse("ln(y1 + 1)*y1", names)]),
        ScalarField(1, parse("0.5*y1^2 + x1*y1 + sqrt(x1 - 1)", names)),
    )
    sigma = SemiBasicForm(1, [parse("y1/(x1 - 1.25)", names)])
    deformation = synthesize(Logarithmic(0.2), (0.0, 1.0))
    rows = _GOOD_ROWS[:4] + _RAISING_ROWS[k:] + _RAISING_ROWS[:k] + _GOOD_ROWS[4:]
    samples = Samples(rows, len(rows) + 3)
    checks = [
        lambda: check_sigma_consistency(d, sigma, samples),
        lambda: check_sigma_condition(d, sigma, samples),
        lambda: functional_dependence_test(d, samples, plan_for(1, count=len(rows))).cloud,
        lambda: verify_deformed_el(d, deformation, samples),
        lambda: deformed_hessian(d, deformation, samples),
        lambda: check_dissipative(d, ScalarField(1, parse("y1^2", names)), samples),
        lambda: hessian_report(matrix_kernel([[d.lagrangian.expr]]), samples),
        lambda: check_homogeneous(d, sigma, samples),
    ]
    raised = [_same_outcome(lambda: _every_row_marked(check), check) for check in checks]
    assert None in raised and raised.count(None) < len(raised)


def _exp_class_off_its_domain():
    # with c = 5, ln(b Q - c) is not evaluable on part of the box
    data = json.loads(corpus_text("exp-class"))
    data["params"]["c"] = 5.0
    return problem_from_dict(data)


def test_exp_class_off_its_domain_reads_by_rows_only_the_rows_that_raise(monkeypatch):
    # the report is the one every row marked gives, and ex.table and
    # Guards.admit (each through kernel.walk) read exactly the rows whose row
    # code raises, once each; a row call in admit's scope would count each
    # such row twice, for the call and for its walk
    spec = _exp_class_off_its_domain()
    want = _every_row_marked(lambda: emit_report(run_pipeline(spec), "json"))
    calls, raising, scope = [], [], []
    columns, call, walk = ex.Kernel.columns, ex.Kernel.__call__, ex.Kernel.walk

    def counted_columns(kernel, stack):
        for row in stack.T.tolist() if scope else ():
            try:
                kernel.row_code()(row)
            except (ArithmeticError, ValueError, LookupError):
                raising.append(row)
        return columns(kernel, stack)

    def counted(read, *by):
        # a read in table's or admit's own scope
        def run(kernel, row):
            if scope and scope[-1] in by:
                calls.append(row)
            return read(kernel, row)

        return run

    def scoped(f):
        def run(*args):
            scope.append(f)
            try:
                return f(*args)
            finally:
                scope.pop()

        return run

    monkeypatch.setattr(ex.Kernel, "columns", counted_columns)
    monkeypatch.setattr(ex.Kernel, "__call__", counted(call, Guards.admit))
    monkeypatch.setattr(ex.Kernel, "walk", counted(walk, ex.table, Guards.admit))
    monkeypatch.setattr(ex, "table", scoped(ex.table))
    monkeypatch.setattr(Guards, "admit", scoped(Guards.admit))
    assert emit_report(run_pipeline(spec), "json") == want
    assert raising and calls == raising


def test_exp_class_off_its_domain_compiles_no_row_code_for_the_rows_table_reads(compile_calls):
    # the marked rows of a kernel are walked, not sent through row code that
    # raises there, by ex.table and by Guards.admits alike: only the spray's
    # row code is compiled, for the trajectory, as for the shipped problem
    got = emit_report(run_pipeline(_exp_class_off_its_domain()), "json")
    assert compile_calls.count("_compile") == 1
    del compile_calls[:]
    run_pipeline(load_corpus_problem("exp-class"))
    assert compile_calls.count("_compile") == 1
    assert got == _every_row_marked(lambda: emit_report(run_pipeline(_exp_class_off_its_domain()), "json"))


@pytest.mark.parametrize(
    "bad, want",
    [
        ([[0.5, 2.0, 1.0, 1.0], [2.0, 0.5, 1.0, 2.0], [1.0, 2.0, 2.0, 1.0]], "sqrt"),
        ([[2.0, 0.5, 1.0, 2.0], [1.0, 2.0, 2.0, 1.0], [0.5, 2.0, 1.0, 1.0]], "positive"),
        ([[2.0, 0.5, 1.0, 2.0], [0.5, 2.0, 1.0, 1.0]], "sqrt"),
        ([[2.0, 0.5, 1.0, 2.0]], "ln"),
    ],
)
def test_the_homogeneous_check_meets_raising_rows_as_the_reference_does(bad, want):
    # L = (y1^2 + y2^2) sqrt(x1 - 1) raises at x1 = 0.5 and is 0 at x1 = 1;
    # sigma, proportional to d_J L, raises at x2 = 0.5. The degree scans skip
    # these rows; the check reads L at every row, then the wedge's fields
    names = ("x1", "x2", "y1", "y2")
    d = DerivedFields(
        SemiSpray(2, [parse("0", names)] * 2),
        ScalarField(2, parse("(y1^2 + y2^2)*sqrt(x1 - 1)", names)),
    )
    sigma = SemiBasicForm(2, [parse(f"y{i}*(y1 + y2)*ln(x2 - 1)", names) for i in (1, 2)])
    good = [[x1, x2, y1, y2] for x1 in (1.5, 2.0) for x2 in (1.5, 2.0) for y1, y2 in ((0.5, 1.0), (2.0, 1.5))]
    samples = Samples(good[:3] + bad + good[3:], 8 + len(bad))

    def reference():
        if not all(ex.evaluate(d.lagrangian.expr, binding(row, 2)) > 0.0 for row in samples.rows):
            degrees = {"L": 2.0, "sigma_1": 2.0, "sigma_2": 2.0, "spray": 2.0}
            raise NotHomogeneous("Lagrangian must be positive on samples", degrees)
        return _ref_homogeneous_wedge(d, sigma, samples, {})[1]

    with pytest.raises((ex.DomainViolation, NotHomogeneous)) as expected:
        reference()
    with pytest.raises(type(expected.value), match=want) as got:
        check_homogeneous(d, sigma, samples)
    assert str(got.value) == str(expected.value)
    report = check_homogeneous(d, sigma, Samples(good, 8))
    assert report.passed and report.nontrivial
    assert _bits(report.wedge_residual) == _bits(_ref_homogeneous_wedge(d, sigma, Samples(good, 8), {})[1])


def _ref_spray_degree(spray, rows, tol=1e-9):
    """homogeneity_degree of a spray: 2.0 when each coefficient has degree 2
    or is evaluable and within ``tol`` of 0 at every row, else None."""
    n = spray.n
    for g in spray.coefficients:
        if _ref_homogeneity_degree(g, n, rows, {}, tol) == 2.0:
            continue
        for row in rows:
            try:
                if not abs(ex.evaluate(g, binding(row, n))) <= tol:
                    return None
            except ex.DomainViolation:
                return None
    return 2.0


@pytest.mark.parametrize(
    "coefficients, top, want",
    [
        # a zero coefficient has no degree and counts as quadratic
        (("x1*y1^2", "0"), 2.0, 2.0),
        # 1e-12 y1 has degree 1 but stays within the tolerance of 0
        (("y1*y2", "1e-12*y1"), 2.0, 2.0),
        (("y1^3", "y2^2"), 2.0, None),
        # y1^2 sqrt(5 - y1)/sqrt(5 - y1) is y1^2 wherever it is defined: at
        # y1 = 1.8 only the row scaled by 3 leaves its domain
        (("y1^2*(sqrt(5 - y1)/sqrt(5 - y1))", "0"), 1.6, 2.0),
        (("y1^2*(sqrt(5 - y1)/sqrt(5 - y1))", "0"), 1.8, None),
    ],
)
def test_the_spray_degree_matches_the_dict_binding_reference(coefficients, top, want):
    names = ("x1", "x2", "y1", "y2")
    spray = SemiSpray(2, [parse(c, names) for c in coefficients])
    rows = draw_samples(plan_for(2, count=40, seed=9), Guards(), {}).rows
    rows = [row[:2] + [min(row[2], 1.6), row[3]] for row in rows] + [[1.0, 1.0, top, 1.0]]
    for ordered in (rows, rows[::-1]):
        assert homogeneity_degree(spray, ordered) == _ref_spray_degree(spray, ordered) == want


_XY2 = ("x1", "x2", "y1", "y2")


@pytest.mark.parametrize(
    "source, lead, want",
    [
        ("exp(x1)*(y1^2 + y2^2)", [], 2.0),
        ("x2*y1^3 + y2^3", [], 3.0),
        # sqrt raises at the lead row itself, so the row is skipped
        ("sqrt(x1*y1 + y2)", [[1.0, 1.0, -2.0, -1.0]], 0.5),
        ("x1 + x2", [], 0.0),
        # -9e-14 at the lead row, below the size of a base the scan reads
        ("y1^2 + y2^2 - 1e-13*x1", [[1.0, 1.0, 1e-7, 0.0]], 2.0),
        ("y1^2 + y2", [], None),
        # y1^2 + y2^2 where x1 >= 1, plus 2 (1 - x1) where x1 < 1
        ("y1^2 + y2^2 + abs(x1 - 1) - (x1 - 1)", [[1.5, 1.0, 1.0, 1.0]], None),
        # F(x, 2y) / F(x, y) = 2.5 / -0.5 at the lead row
        ("y1^2 - 1.5", [[1.0, 1.0, 1.0, 1.0]], None),
        # NaN at x1 = 1e200, where x1*x1 overflows: that row is skipped
        ("y1*y1 + (x1*x1 - x1*x1)*y1", [[1e200, 1.0, 1.0, 1.0]], 2.0),
        # at y1 = 2.2 only the row scaled by 3 leaves the domain of sqrt
        ("(y1^2 + y2^2)*(sqrt(6.5 - y1)/sqrt(6.5 - y1))", [], 2.0),
        ("(y1^2 + y2^2)*(sqrt(6.5 - y1)/sqrt(6.5 - y1))", [[1.0, 1.0, 2.2, 1.0]], None),
    ],
)
def test_the_field_degree_matches_the_dict_binding_reference_in_either_order(source, lead, want):
    rows = lead + draw_samples(plan_for(2, count=40, seed=9), Guards(), {}).rows
    rows += [[1.0, 1.0, 0.0, 0.0]]  # y = 0: skipped
    e = parse(source, _XY2)
    for ordered in (rows, rows[::-1]):
        got = homogeneity_degree(ScalarField(2, e), ordered)
        assert _bits(got) == _bits(_ref_homogeneity_degree(e, 2, ordered, {}))
        assert got == (None if want is None else pytest.approx(want, abs=1e-9))


def test_only_the_first_usable_row_meets_the_overflow_of_its_estimate():
    # at y1 = 1 the estimate is 660, and math.pow(3, 660) overflows; at
    # y1 = 2 the field itself overflows once y1 is scaled, and gives None
    e = parse("(0.9657*y1)^660", ("x1", "y1"))
    rows = [[1.0, 1.0], [1.0, 2.0]]
    for scan in (lambda r: homogeneity_degree(ScalarField(1, e), r), lambda r: _ref_homogeneity_degree(e, 1, r, {})):
        with pytest.raises(OverflowError):
            scan(rows)
        assert scan(rows[::-1]) is None


def _ref_field_degree(values, moving, tol=1e-9):
    """_field_degree as a scan of the rows in order."""
    estimate = None
    for moves, base, *scaled in zip(moving, *values.tolist()):
        if not moves or not math.isfinite(base) or abs(base) < 1e-12:
            continue
        if not all(math.isfinite(v) for v in scaled):
            return None
        ratio = scaled[1] / base
        if ratio <= 0.0:
            return None
        p_here = math.log(ratio) / math.log(2.0)
        if estimate is None:
            estimate = p_here
        elif abs(p_here - estimate) > tol * (1.0 + abs(estimate)):
            return None
        for r, value in zip((0.5, 2.0, 3.0), scaled):
            want = math.pow(r, estimate) * base
            if abs(value - want) > tol * (1.0 + abs(value) + abs(want)):
                return None
    return estimate


_degree_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-13, -1.0, 1e-290, 5e-324, 1e308, math.nan, math.inf, -math.inf]),
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(st.booleans(), _degree_values, _degree_values), max_size=6),
    p=st.one_of(st.sampled_from([0.0, 0.5, 2.0, 3.0, 660.0, -1100.0]), st.floats(-1200.0, 1200.0)),
    noisy=st.sets(st.integers(0, 17), max_size=2),
)
# numpy's log of this ratio is not math.log's on some machines
@example(rows=[(True, 1.0, 1.2016290110429004)], p=math.log(1.2016290110429004) / math.log(2.0), noisy={1})
# within the tolerance of r^p base only with |r^p base| in its scale
@example(rows=[(True, 1e6, 9e6 * (1 + 1.5e-9))], p=2.0, noisy={2})
def test_the_line_scan_gives_the_row_scans_degree_or_error(rows, p, noisy):
    # each row: moving, its base and a noise value; a scaled value is
    # r^p base, or the noise at the cells in ``noisy``; r^p is taken in two
    # halves, so that a tiny base scales to a finite value where r^p overflows
    moving = np.array([row[0] for row in rows], dtype=bool)
    lines = [[base for _, base, _ in rows]]
    for k, r in enumerate((0.5, 2.0, 3.0)):
        line = []
        for j, (_, base, noise) in enumerate(rows):
            try:
                half = math.pow(r, p / 2)
            except OverflowError:
                half = math.inf
            line.append(noise if 3 * j + k in noisy else base * half * half)
        lines.append(line)
    values = np.array(lines, dtype=float).reshape(4, len(rows))
    try:
        want = _ref_field_degree(values, moving)
    except OverflowError as exc:
        with pytest.raises(OverflowError, match=str(exc)):
            _field_degree(values, moving, 1e-9)
    else:
        assert _bits(_field_degree(values, moving, 1e-9)) == _bits(want)


def _degrees_field_by_field(d, sigma, rows):
    """check_homogeneous's ``degrees``, one homogeneity_degree call per field
    with its own kernel: L, each force component, then the spray."""
    degrees = {"L": homogeneity_degree(d.lagrangian, rows, d.params)}
    for i, comp in enumerate(sigma.components):
        degrees[f"sigma_{i + 1}"] = homogeneity_degree(ScalarField(sigma.n, comp), rows, d.params)
    degrees["spray"] = homogeneity_degree(d.spray, rows, d.params)
    return degrees


@pytest.mark.parametrize(
    "sigma_2, want",
    [
        ("y2*(y1 + y2)", "Lagrangian is not fiber-homogeneous"),
        # k is bound nowhere: UnboundVariable, not a DomainViolation, where
        # x2 <= 1, and so only at rows where sigma_1 raises first
        ("sqrt(1 - x2)*k*y2*(y1 + y2)", ex.UnboundVariable),
    ],
)
def test_the_degrees_from_one_kernel_keep_each_fields_errors(sigma_2, want):
    # L leaves the domain of sqrt where 3 y1 > 5, only in the rows scaled by
    # 3; sigma_1 leaves that of ln where x2 <= 1, in every scaling of a row
    d = DerivedFields(
        SemiSpray(2, [parse("0", _XY2)] * 2),
        ScalarField(2, parse("(y1^2 + y2^2)*(sqrt(5 - y1)/sqrt(5 - y1))", _XY2)),
    )
    sigma = SemiBasicForm(2, [parse("y1*(y1 + y2)*ln(x2 - 1)", _XY2), parse(sigma_2, _XY2 + ("k",))])
    samples = draw_samples(plan_for(2, count=40, seed=9), Guards(), {})
    assert any(row[2] > 5 / 3 for row in samples.rows) and any(row[1] <= 1.0 for row in samples.rows)
    try:
        degrees = _degrees_field_by_field(d, sigma, samples.rows)
    except Exception as exc:
        assert type(exc) is want
        with pytest.raises(want) as got:
            check_homogeneous(d, sigma, samples)
        assert str(got.value) == str(exc)
        return
    assert degrees == {"L": None, "sigma_1": pytest.approx(2.0, abs=1e-9), "sigma_2": 2.0, "spray": 2.0}
    with pytest.raises(NotHomogeneous) as got:
        check_homogeneous(d, sigma, samples)
    assert got.value.degrees == degrees
    assert str(got.value) == f"{want}; measured degrees: {degrees}"


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_the_homogeneous_check_reads_every_degree_in_one_column_call(name, monkeypatch):
    spec, d, _, samples = _run_inputs(name, 0)
    sigma = spec.sigma if spec.sigma is not None else d.defect
    calls = []
    for owner, attr in ((ex.Kernel, "columns"), (DerivedFields, "kernel")):
        real = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, lambda *a, real=real, attr=attr: calls.append(attr) or real(*a))
    try:
        check_homogeneous(d, sigma, samples)
        reads = 3  # the degrees, the wedge's fields and the Hessian combination
    except NotHomogeneous:
        reads = 1  # stopped at the degree gate
    assert reads == (3 if name in ("homogeneous", "free-particle") else 1)
    assert calls.count("columns") == calls.count("kernel") == reads


# ---------------------------------------------------------------------------
# one program per run, and the records of the sample stack kept
# ---------------------------------------------------------------------------


def _run_roots(name, monkeypatch) -> list:
    """The roots of every kernel a report run of ``name`` takes from its
    program, the guards' included, in the order the run takes them."""
    roots, kernel = [], ex.Program.kernel
    with monkeypatch.context() as m:
        m.setattr(ex.Program, "kernel", lambda program, read: roots.append(tuple(read)) or kernel(program, read))
        run_pipeline(load_corpus_problem(name))
    return roots


def _run_draw(spec, d) -> Samples:
    """The run's one draw through ``d``'s program: under the run guards, or
    under the conservative branch's where those reject the box."""
    try:
        return draw_samples(spec.plan(), d.run_guards(spec.sigma, spec.dissipation), spec.params)
    except TooManyRejections:
        sigma = tuple(spec.sigma.components) if spec.sigma is not None else ()
        guards = Guards((), (spec.lagrangian.expr,) + tuple(d.defect.components) + sigma, d.program)
        return draw_samples(spec.plan(), guards, spec.params)


def _lines_and_marks(kernel, stack):
    with np.errstate(all="ignore"):
        lines, marked = kernel.columns(stack)
    return np.array(lines).tobytes(), marked


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_each_kernel_of_a_run_replays_as_its_own_compiled_kernel_bit_for_bit(name, monkeypatch):
    # a kernel's slice of the run's program gives the lines and the marks of
    # the kernel compiled alone, over the kept sample stack and over stacks
    # the program does not keep, whichever kernels read the stack first
    roots = _run_roots(name, monkeypatch)
    spec = load_corpus_problem(name)
    names = ex.chart_names(spec.n)
    for order in (roots, roots[::-1]):
        d = DerivedFields(spec.spray, spec.lagrangian, spec.params)
        samples = _run_draw(spec, d)
        assert d.program.memo[0] is samples.stack
        x, y = np.split(samples.stack, 2)
        for read in order:
            for stack in (samples.stack, samples.stack.copy(), np.concatenate((x, 3.0 * y))):
                want = _lines_and_marks(ex.compile(read, names, spec.params), stack)
                assert _lines_and_marks(d.kernel(read), stack) == want
    assert d.program.memo[0] is samples.stack


@pytest.mark.parametrize("name", [name for name in CORPUS_NAMES if name != "free-particle"])
def test_the_sigma_checks_replay_no_record_the_draw_replayed(name):
    # the draw's read of the run guards is the sample stack's: the two sigma
    # checks read only fields the guards hold, so they replay no record,
    # neither a new one nor again one the draw replayed
    spec = load_corpus_problem(name)
    d = DerivedFields(spec.spray, spec.lagrangian, spec.params)
    samples = draw_samples(spec.plan(), d.run_guards(spec.sigma, spec.dissipation), spec.params)
    stack, values, _ = d.program.memo
    assert stack is samples.stack and samples.rejected == 0
    kept = lambda: {out: values[out] for out in d.program.ops if out < len(values) and values[out] is not None}
    lines = kept()
    if spec.sigma is not None:
        check_sigma_consistency(d, spec.sigma, samples)
    check_sigma_condition(d, spec.sigma if spec.sigma is not None else d.defect, samples)
    assert kept().keys() == lines.keys() and lines
    assert all(values[out] is line for out, line in lines.items())


@pytest.mark.parametrize("name", ["exp-class c=5", *CORPUS_NAMES])
def test_a_runs_kept_records_move_no_byte_of_its_report(name, monkeypatch):
    # with c = 5 the draw rejects rows: it keeps no record, and no report
    # moves by a byte where no draw keeps any
    spec = _exp_class_off_its_domain() if name == "exp-class c=5" else load_corpus_problem(name)
    if name == "exp-class c=5":
        d = DerivedFields(spec.spray, spec.lagrangian, spec.params)
        samples = draw_samples(spec.plan(), d.run_guards(spec.sigma, spec.dissipation), spec.params)
        assert samples.rejected > 0 and d.program.memo is None
    want = emit_report(run_pipeline(spec), "json")
    monkeypatch.setattr(ex.Program, "keep", lambda program, stack: None)
    assert emit_report(run_pipeline(spec), "json") == want


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_a_finished_run_leaves_no_program_alive(name, monkeypatch):
    # the program, and the sample stack's records it keeps, go with the run,
    # without the cycle collector, while its report lives on
    programs, post_init = [], DerivedFields.__post_init__
    monkeypatch.setattr(DerivedFields, "__post_init__", lambda d: post_init(d) or programs.append(weakref.ref(d.program)))
    gc.disable()
    try:
        doc = run_pipeline(load_corpus_problem(name))
        assert doc.verdict and len(programs) == 1 and programs[0]() is None
    finally:
        gc.enable()


def test_no_check_writes_into_a_line_of_the_sample_stack():
    # a kept line is every check's line: a write into it raises
    spec = load_corpus_problem("dissipative")
    d = DerivedFields(spec.spray, spec.lagrangian, spec.params)
    samples = draw_samples(spec.plan(), d.run_guards(spec.sigma, spec.dissipation), spec.params)
    lines, _ = d.kernel((spec.lagrangian.expr, d.energy_rate.expr, *d.vertical.components)).columns(samples.stack)
    for line in lines:
        with pytest.raises(ValueError, match="read-only"):
            line[0] = 0.0


# ---------------------------------------------------------------------------
# a NaN residual fails its check
# ---------------------------------------------------------------------------

# x1*x1 - x1*x1 is NaN at x1 = 1e200, where x1*x1 overflows, and 0 elsewhere;
# no DomainViolation is raised on the way
_NAN_AT_1E200 = "x1*x1 - x1*x1"


def _nan_samples(n):
    fine = [1.0] * (2 * n)
    nan = [1e200] + [1.0] * (2 * n - 1)
    return Samples([fine, nan], 2)


def test_from_residuals_takes_a_nan_as_the_worst_residual():
    rows = [[1.0, 1.0], [2.0, 2.0]]
    report = ConditionReport.from_residuals("c", [0.0, math.nan], rows, 0, 1e-9)
    assert not report.passed
    assert math.isnan(report.max_residual)
    assert report.worst_point == PhasePoint([2.0], [2.0])


def test_from_residuals_over_no_rows_does_not_pass():
    # a check that checked nothing has no residual to report and fails
    report = ConditionReport.from_residuals("c", [], [], 5, 1e-9)
    assert not report.passed
    assert math.isnan(report.max_residual) and math.isnan(report.mean_residual)
    assert (report.accepted, report.rejected, report.worst_point) == (0, 5, None)


def test_a_nan_residual_fails_the_sigma_verify_and_dissipative_checks():
    # the spray coefficient is NaN at the second point, and with it the
    # defect, S(L) and S(E_L); L, d_J L and C(L) stay finite
    names = ("x1", "y1")
    d = DerivedFields(
        SemiSpray(1, [parse(_NAN_AT_1E200, names)]), ScalarField(1, parse("0.5*y1^2", names))
    )
    samples = _nan_samples(1)
    zero = SemiBasicForm(1, [parse("0", names)])
    reports = [
        check_sigma_consistency(d, zero, samples),
        check_sigma_condition(d, d.defect, samples),
        verify_deformed_el(d, synthesize(Affine(), (0.0, 1.0)), samples).direct,
        check_dissipative(d, ScalarField(1, parse("y1", names)), samples).gradient_match,
    ]
    for report in reports:
        assert not report.passed, report.condition
        assert math.isnan(report.max_residual), report.condition
        assert report.worst_point == PhasePoint([1e200], [1.0])


def test_a_nan_wedge_fails_the_homogeneous_check():
    names = ("x1", "x2", "y1", "y2")
    lagrangian = ScalarField(2, parse("0.5*(y1^2 + y2^2)", names))
    d = DerivedFields(SemiSpray(2, [parse("0", names)] * 2), lagrangian)
    sigma = SemiBasicForm(
        2, [parse(f"y1*y1 + ({_NAN_AT_1E200})*y1*y1", names), parse("y1*y2", names)]
    )
    report = check_homogeneous(d, sigma, _nan_samples(2))
    assert math.isnan(report.wedge_residual)
    assert not report.passed


def test_a_nan_lagrangian_is_not_positive_in_the_homogeneous_check():
    # L is NaN at (1e200, 1), where the positivity test must not let it pass
    d = _one_dimensional(f"0.5*y1^2 + ({_NAN_AT_1E200})")
    sigma = SemiBasicForm(1, [parse("y1^2", ("x1", "y1"))])
    with pytest.raises(NotHomogeneous, match="must be positive"):
        check_homogeneous(d, sigma, _nan_samples(1))


class _ByRows:
    """``read(row)`` behind a column call that marks every row, so that
    :func:`ex.table` reads each row through ``read(row)``."""

    def __init__(self, read, width: int):
        self.read, self.width = read, width

    def walk(self, row):
        return self.read(row)

    def columns(self, stack):
        return np.full((self.width, stack.shape[1]), math.nan), frozenset(range(stack.shape[1]))


def test_a_nan_hessian_cell_skips_its_point_in_both_branches():
    # at x1 = 1e200 the cell is NaN, with no DomainViolation, where a batched
    # SVD of the stack would not converge; the matrix is read as a kernel
    # and, row by row, as a callable that reads the kernel's one item
    names = ("x1", "y1")
    cell = parse(f"{_NAN_AT_1E200} + y1", names)
    samples = _nan_samples(1)
    kernel = matrix_kernel([[cell]])
    reports = [
        hessian_report(kernel, samples),
        hessian_report(_ByRows(lambda row: (kernel(row)[0],), 1), samples),
    ]
    for report in reports:
        assert report.samples == 1
        assert report.max_entry == 1.0
        assert (report.min_rank, report.max_rank) == (1, 1)


def test_both_hessian_inputs_skip_raising_and_nan_rows_in_one_loop():
    # a 2 x 2 matrix with a cell that raises at x1 = -1 and one that is NaN
    # at x1 = 1e200, as a kernel of its row-major entries (whose walk raises
    # when it is read) and, row by row, as a callable that raises itself
    names = ("x1", "x2", "y1", "y2")
    matrix = [
        [parse("y1", names), parse(f"sqrt(x1) + ({_NAN_AT_1E200})", names)],
        [parse("2*y1", names), parse("y2", names)],
    ]
    kernel = matrix_kernel(matrix)
    rows = [[1.0, 1.0, 3.0, 1.0], [-1.0, 1.0, 1.0, 1.0], [1e200, 1.0, 1.0, 1.0]]
    reports = [
        hessian_report(kernel, Samples(rows, 3)),
        hessian_report(_ByRows(lambda row: tuple(kernel(row)), 4), Samples(rows, 3)),
    ]
    for report in reports:
        # only the first row is kept: [[3, 1], [6, 1]], of rank 2
        assert (report.samples, report.max_entry) == (1, 6.0)
        assert (report.min_rank, report.max_rank) == (2, 2)
    with pytest.raises(InsufficientSamples):
        hessian_report(kernel, Samples(rows[1:], 2))


def test_a_nan_dissipation_is_not_negative_in_either_order():
    # D = -y1^2 is negative at (1, 1) and NaN at (1e200, 1); the NaN row
    # neither makes D negative nor stops it being fiber-quadratic
    d = _one_dimensional("0.5*y1^2")
    dissipation = ScalarField(1, parse(f"-(y1^2) + ({_NAN_AT_1E200})*y1^2", ("x1", "y1")))
    rows = _nan_samples(1).rows
    for order in (rows, rows[::-1]):
        report = check_dissipative(d, dissipation, Samples(order, 2))
        assert report.rayleigh
        assert report.dissipation_negative is False


def test_a_dissipation_that_raises_is_met_only_where_it_is_read():
    # D = y1^2 + sqrt(x1 - 1) raises at x1 = 0.5, where d_J D = 2 y1 and
    # C(D) = 2 y1^2 do not; D is not fiber-quadratic, so the check never
    # reads D itself, and its reports are those of y1^2 + x1, whose d_J D
    # and C(D) are the same
    d = _one_dimensional("0.5*y1^2", spray="0.5*y1")
    names = ("x1", "y1")
    rows = [[1.5, 1.0], [0.5, 2.0], [2.0, 0.5]]
    samples = Samples(rows, 4)
    report = check_dissipative(d, ScalarField(1, parse("y1^2 + sqrt(x1 - 1)", names)), samples)
    gradient, rate, _ = _ref_dissipative(d, ScalarField(1, parse("y1^2 + x1", names)), samples, {})
    assert not report.rayleigh and report.rayleigh_rate is None
    assert _bits(report.gradient_match) == _bits(gradient)
    assert _bits(report.energy_rate_match) == _bits(rate)


# ---------------------------------------------------------------------------
# a run's fixed cost: one derivative table, one sort, one reduction
# ---------------------------------------------------------------------------


def _trees_and_records(data, monkeypatch):
    """The trees of the run's DerivedFields, and the roots (as source) and
    the records of every kernel the run takes from a program (its own or
    the run's) with ``ex.Program.slice``."""
    derived, emitted = [], []
    post_init, slice_ = DerivedFields.__post_init__, ex.Program.slice

    def spy(program, roots):
        ops, slots, outs = slice_(program, roots)
        emitted.append(([r.to_source() for r in roots], ops, [repr(v) for v in slots], outs))
        return ops, slots, outs

    with monkeypatch.context() as m:
        m.setattr(DerivedFields, "__post_init__", lambda d: post_init(d) or derived.append(d))
        m.setattr(ex.Program, "slice", spy)
        run_pipeline(problem_from_dict(data), "report")
    (d,) = derived
    forms = [d.spray_of_L, d.liouville_of_L, d.energy_of_L, d.energy_rate]
    trees = [f.expr for f in forms] + list(d.vertical.components) + list(d.defect.components)
    trees += [cell for line in d.hessian for cell in line]
    return [t.to_source() for t in trees], emitted


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_a_runs_derivative_table_builds_the_trees_and_records_of_an_untabled_run(name, monkeypatch):
    # L as the dissipation too, so that the run's dissipative check derives
    # d_J D and C(D); a closed-form Phi gives verify a direct form to derive.
    # Through the table equal derivations are one node, but every tree
    # prints as it does untabled, and each kernel gets the same records:
    # slots are keyed by structure, in walk order.
    data = json.loads(corpus_text(name))
    data["dissipation"] = data["lagrangian"]
    tabled = _trees_and_records(data, monkeypatch)
    monkeypatch.setattr(ex, "_partial", lambda e, var, table: e.partial(var, None))
    untabled = _trees_and_records(data, monkeypatch)
    assert tabled[1]
    assert tabled == untabled


def test_verify_and_the_dissipative_check_derive_through_the_runs_table(corpus_reports, monkeypatch):
    spec, d, _, samples = _run_inputs("dissipative", 0)
    deformation = corpus_reports["dissipative"].deformation
    assert isinstance(deformation, ClosedForm)  # verify derives the direct form
    tables = []
    real = ex.partial
    monkeypatch.setattr(ex, "partial", lambda e, var, table=None: tables.append(table) or real(e, var, table))
    verify_deformed_el(d, deformation, samples)
    check_dissipative(d, spec.lagrangian, samples)
    assert tables and all(table is d.table for table in tables)


def _level_arrays(rng, count):
    """Arrays of 8 to 400 values: spread values, a few repeated ones (signed
    zeros among them), and at times +-inf or NaN."""
    pool = np.array([0.0, -0.0, 1.0, -2.5, 1e-300, 3.0])
    for _ in range(count):
        n = int(rng.integers(8, 401))
        a = rng.normal(size=n) * 10.0 ** rng.integers(-5, 6)
        repeated = rng.random(n) < rng.random()
        a[repeated] = rng.choice(pool, size=int(repeated.sum()))
        for odd in (math.inf, -math.inf, math.nan):
            if rng.random() < 0.15:
                a[rng.integers(n, size=int(rng.integers(1, 4)))] = odd
        yield a


def test_the_levels_of_one_sort_equal_a_quantile_call_per_level():
    # np.quantile partitions and _levels sorts, and the two can leave -0.0
    # and 0.0 in either order, so a zero level may differ in its sign: the
    # levels are compared as floats, and -0.0 == 0.0 in every comparison
    # the level solver makes
    rng = np.random.default_rng(2017)
    for a in _level_arrays(rng, 400):
        with np.errstate(invalid="ignore"):  # numpy's inf - inf
            want = [float(np.quantile(a, (k + 0.5) / 32)) for k in range(32)]
        got = _levels(a)
        assert len(got) == 32
        for g, w in zip(got, want):
            assert g == w or (math.isnan(g) and math.isnan(w)), (a.tolist(), got, want)


def test_rms_is_numpys_root_mean_square_bit_for_bit():
    rng = np.random.default_rng(2006)
    cases = [np.array([v]) for v in (0.0, -0.0, 5e-324, -3.0, 1e200, math.inf, -math.inf, math.nan)]
    cases += [np.array([1e200, 1.0]), np.array([1e154, 1e154, 1e154]), np.array([math.nan, math.inf])]
    for _ in range(3000):
        a = rng.normal(size=int(rng.integers(1, 300))) * 10.0 ** rng.integers(-200, 200)
        if rng.random() < 0.05:
            a[rng.integers(len(a))] = rng.choice([math.inf, math.nan])
        cases.append(a)
    with np.errstate(all="ignore"):  # a * a overflows to inf in both
        for a in cases:
            assert _bits(_rms(a)) == _bits(float(np.sqrt(np.mean(a * a)))), a.tolist()
