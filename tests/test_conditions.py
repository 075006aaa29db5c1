import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagdeform.conditions import (
    ConditionReport,
    DependenceResult,
    DerivedFields,
    InsufficientSamples,
    NotHomogeneous,
    check_dissipative,
    check_homogeneous,
    check_sigma_condition,
    check_sigma_consistency,
    classify,
    deformation_ratio,
    functional_dependence_test,
    hessian_report,
    _gauss_newton,
    _merge_duplicate_abscissae,
    _model_moebius,
    _model_power_shift,
    _LevelSolver,
)
from lagdeform import expressions as ex
from lagdeform.corpus import CORPUS_NAMES, corpus_text, load_corpus_problem
from lagdeform.deformation import (
    DeformedELReport,
    DeformedLagrangian,
    OutOfInterval,
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
    cached_kernel,
    fiber_hessian,
    homogeneity_degree,
    lagrange_differential,
    liouville_apply,
)
from lagdeform.pipeline import problem_from_dict
from lagdeform.sampling import (
    Guards,
    GuardViolation,
    SamplePlan,
    Samples,
    TooManyRejections,
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
    moebius_class,
    points,
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


def test_one_guards_admits_a_row_by_the_parameter_values_it_is_given():
    # the kernel a Guards keeps has the values compiled in, so it is kept
    # per value and not per parameter name, and -0.0 is not 0.0
    names = ("x1", "y1", "a")
    guards = Guards(evaluable=(parse("ln(a*x1)", names),))
    assert guards.admits([1.0, 1.0], {"a": 1.0}, 1e-6)
    assert not guards.admits([1.0, 1.0], {"a": -1.0}, 1e-6)
    memo, roots = {}, (parse("a*x1", names),)
    for a in (0.0, -0.0, 0.0):
        value = cached_kernel(memo, roots, 1, {"a": a})([1.0, 1.0])[0]
        assert math.copysign(1.0, value) == math.copysign(1.0, a)


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


def test_ratio_damped_oscillator_point():
    sys = damped_oscillator()
    p = PhasePoint([1.0, 0.0], [2.0, 1.0])
    got = deformation_ratio(derived(sys), p)
    assert got == pytest.approx(-0.2, rel=1e-12)
    # equals -1/(2L) with L = 2.5
    assert got == pytest.approx(-1.0 / 5.0)


def test_ratio_exp_class_is_constant_b():
    sys = exp_class(a=1.0, b=1.0, c=0.1)
    plan = plan_for(3, count=40, seed=5)
    from lagdeform.conditions import DerivedFields

    d = DerivedFields(sys["spray"], sys["lagrangian"], sys["params"])
    for p in points(draw_samples(plan, d.theorem_guards(), sys["params"]), 3):
        got = deformation_ratio(d, p)
        assert got == pytest.approx(1.0, abs=1e-9)


def test_ratio_lienard_positive_sign():
    # measured slope is +1/(2 alpha L); at (1, 1) with alpha = 1 that is 1/18
    sys = lienard()
    p = PhasePoint([1.0], [1.0])
    got = deformation_ratio(derived(sys), p)
    assert got == pytest.approx(1.0 / 18.0, rel=1e-12)


def test_ratio_guard_violation_for_conserved_lagrangian():
    sys = free_particle(2)
    p = PhasePoint([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(GuardViolation):
        deformation_ratio(derived(sys), p)


def _ratio_via_duals(sys, point):
    """Recompute the slope ratio with dual-number outer derivatives: an
    independent route that shares no symbolic differentiation with
    deformation_ratio beyond the energy's inner layer."""
    from lagdeform.expressions import evaluate, evaluate_dual
    from lagdeform.geometry import energy as energy_field

    n = sys["n"]
    b = point.binding(sys["params"])
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
    from lagdeform.conditions import DerivedFields

    d = DerivedFields(sys["spray"], sys["lagrangian"], sys["params"])
    plan = plan_for(sys["n"], count=40, seed=23)
    for p in points(draw_samples(plan, d.theorem_guards(), sys["params"]), sys["n"]):
        symbolic = deformation_ratio(d, p)
        dual = _ratio_via_duals(sys, p)
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


def test_classify_needs_eight_points():
    with pytest.raises(InsufficientSamples):
        classify([(1.0, 1.0)] * 5)


_finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def _dual_jacobian_row(model, l, theta):
    """Jacobian row of ``model.value`` at one L by forward-mode dual numbers,
    one seeded parameter at a time."""
    row = []
    for j in range(len(theta)):
        seeded = [Dual(t, 1.0 if i == j else 0.0) for i, t in enumerate(theta)]
        row.append(model.value(l, seeded).dot)
    return row


@settings(max_examples=300, deadline=None)
@given(l=_finite, gamma=_finite, a=_finite, t=_finite)
def test_closed_form_jacobians_equal_dual_numbers(l, gamma, a, t):
    # L and theta as the fit holds them, float64 array elements
    l = np.float64(l)
    for model, theta in ((_model_power_shift, (gamma, a)), (_model_moebius, (t,))):
        theta = np.array(theta)
        if l + theta[-1] == 0.0:
            continue
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            jac = model.jacobian(np.array([l]), theta)
            try:
                want = _dual_jacobian_row(model, l, theta)
            except ZeroDivisionError:
                # (L + a)^2 underflows to 0: the dual numbers reject the
                # point as a pole, and the closed form gives no finite slope
                assert not np.isfinite(jac).any()
                continue
        assert jac.shape == (1, len(theta))
        for got, expected in zip(jac[0], want):
            assert got == expected or (math.isnan(got) and math.isnan(expected))


def test_gauss_newton_zero_denominator_keeps_start():
    # one L sits exactly on the pole of the starting model: the dual-number
    # fit stopped there with cost inf, and so does the closed-form one,
    # without raising and without letting a numpy warning out
    ls = np.linspace(0.5, 4.0, 20)
    ls[7] = -0.5
    fs = -2.0 / (ls + 1.0)
    for model, theta0 in ((_model_power_shift, (1.5, 0.5)), (_model_moebius, (0.5,))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta, cost = _gauss_newton(model, theta0, ls, fs)
        assert list(theta) == list(theta0)
        assert cost == math.inf


# ---------------------------------------------------------------------------
# Hessian reports (iii)
# ---------------------------------------------------------------------------


def test_hessian_kinetic_full_rank():
    sys = free_particle(2)
    report = hessian_report(
        fiber_hessian(sys["lagrangian"]),
        draw_samples(plan_for(2, 60), Guards(), sys["params"]),
        sys["params"],
    )
    assert report.nontrivial
    assert (report.min_rank, report.max_rank) == (2, 2)


def test_hessian_root_kinetic_rank_deficient():
    names = ("x1", "x2", "y1", "y2")
    L = ScalarField(2, parse("sqrt(y1^2 + y2^2)", names))
    report = hessian_report(fiber_hessian(L), draw_samples(plan_for(2, 60), Guards(), {}), {})
    assert report.nontrivial
    assert (report.min_rank, report.max_rank) == (1, 1)


def test_hessian_exp_class_lagrangian_regular():
    sys = exp_class()
    report = hessian_report(
        fiber_hessian(sys["lagrangian"]),
        draw_samples(
            plan_for(3, 60), Guards(evaluable=(sys["lagrangian"].expr,)), sys["params"]
        ),
        sys["params"],
    )
    assert report.nontrivial
    assert (report.min_rank, report.max_rank) == (3, 3)


def test_hessian_trivial_matrix():
    names = ("x1", "y1")
    L = ScalarField(1, parse("x1*y1", names))  # fiber Hessian identically zero
    report = hessian_report(fiber_hessian(L), draw_samples(plan_for(1, 30), Guards(), {}), {})
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


# ---------------------------------------------------------------------------
# oracles: the checks on rows and kernels against dict-binding references
# ---------------------------------------------------------------------------
#
# Each _ref_* function evaluates every root separately through a binding
# dict, as the checks did before they read kernels over positional rows.
# Their per-point maxima let a NaN through, as the checks' own must.


def _ref_max(a, b):
    return b if (math.isnan(b) or b > a) and not math.isnan(a) else a


def _ref_solve_on_level(lagrangian, plan, params, rng, target, names, n):
    """The 80-step bisection of L along a random fiber segment."""
    lows = [plan.bounds[v][0] for v in names]
    highs = [plan.bounds[v][1] for v in names]
    base = dict(params) if params else {}

    def value_at(coords):
        binding = dict(base)
        binding.update(zip(names, coords))
        return ex.evaluate(lagrangian.expr, binding)

    for _ in range(12):
        a = [rng.uniform(lo, hi) for lo, hi in zip(lows, highs)]
        b = list(a[:n]) + [rng.uniform(plan.bounds[v][0], plan.bounds[v][1]) for v in names[n:]]
        try:
            va = value_at(a)
            vb = value_at(b)
        except ex.DomainViolation:
            continue
        if (va - target) * (vb - target) > 0.0:
            continue
        lo_c, hi_c = a, b
        try:
            for _ in range(80):
                mid = [(u + v) / 2.0 for u, v in zip(lo_c, hi_c)]
                vm = value_at(mid)
                if (vm - target) * (va - target) <= 0.0:
                    hi_c = mid
                else:
                    lo_c, va = mid, vm
            mid = [(u + v) / 2.0 for u, v in zip(lo_c, hi_c)]
            vm = value_at(mid)
        except ex.DomainViolation:
            continue
        if abs(vm - target) <= 1e-10 * (1.0 + abs(target)):
            return mid
    return None


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
    rng = np.random.default_rng(plan.seed + 1)
    names = ex.chart_names(d.lagrangian.n)
    groups = []
    for k in range(32):
        target = float(np.quantile(l_values, (k + 0.5) / 32))
        group = []
        for _ in range(12):
            if len(group) >= 4:
                break
            row = _ref_solve_on_level(d.lagrangian, plan, params, rng, target, names, n)
            if row is None:
                continue
            try:
                group.append(_ref_ratio(d, binding(row, n, params), plan.guard_eps))
            except (GuardViolation, ex.DomainViolation):
                continue
        groups.append(group)
    return cloud, groups


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
    """(name, L, plan, params) for the bisection oracle: the corpus, a box
    where the coordinates converge to +-0.0, and an L that is NaN on part of
    its segments (1e307 y1^2 overflows for y1 > 4.2)."""
    problems = []
    for name in CORPUS_NAMES:
        spec = load_corpus_problem(name)
        problems.append((name, spec.lagrangian, spec.plan(), spec.params))
    tiny = SamplePlan({"x1": (0.5, 2.0), "y1": (-4e-323, 3e-323)}, 64, 7)
    problems.append(("subnormal", ScalarField(1, parse("1e300*y1", ("x1", "y1"))), tiny, {}))
    nan_l = parse("y1 + (1e307*y1*y1 - 1e307*y1*y1)", ("x1", "y1"))
    wide = SamplePlan({"x1": (0.5, 2.0), "y1": (0.5, 8.0)}, 64, 11)
    problems.append(("nan-part", ScalarField(1, nan_l), wide, {}))
    return problems


@pytest.mark.parametrize("name,lagrangian,plan,params", _level_problems(), ids=lambda v: v if isinstance(v, str) else "")
def test_bisection_matches_the_80_step_reference_bit_for_bit(name, lagrangian, plan, params):
    n = lagrangian.n
    names = ex.chart_names(n)
    draw = draw_samples(SamplePlan(plan.bounds, 64, plan.seed), Guards(evaluable=(lagrangian.expr,)), params)
    ls = [ex.evaluate(lagrangian.expr, binding(row, n, params)) for row in draw.rows]
    targets = [float(np.quantile(ls, (k + 0.5) / 32)) for k in range(32)]
    if name == "subnormal":
        targets = [0.0, -0.0] * 16
    level = DerivedFields(SemiSpray(n, [ex.Const(0.0)] * n), lagrangian, params).kernel(
        (lagrangian.expr,)
    )
    lows = [plan.bounds[v][0] for v in names]
    highs = [plan.bounds[v][1] for v in names]
    solver = _LevelSolver(level, lows, highs, np.random.default_rng(plan.seed + 1), targets, list)
    # one solve per target, and the segments used after each
    got = solver.run(lambda s: [(s.solve(k), s.used) for k in range(len(targets))])
    rng_ref = np.random.default_rng(plan.seed + 1)
    found = []
    for target, (point, used) in zip(targets, got):
        want = _ref_solve_on_level(lagrangian, plan, params, rng_ref, target, names, n)
        assert (point is None) == (want is None)
        if want is not None:
            assert _bits(point) == _bits(want)
            found.append(want)
        # the solver used exactly the segments the reference drew, 3n
        # draws each
        consumed = np.random.default_rng(plan.seed + 1)
        consumed.uniform(size=3 * n * used)
        assert consumed.bit_generator.state == rng_ref.bit_generator.state
    assert found
    if name == "subnormal":
        zeros = [v for row in found for v in row[n : 2 * n] if v == 0.0]
        assert {math.copysign(1.0, v) for v in zeros} == {1.0, -1.0}


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
# below the guard, so the level solver must walk again past that point
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
    base = hessian_report(d.hessian, samples, params)
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
    report = hessian_report(matrix, samples, {})
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


def test_a_nan_hessian_cell_skips_its_point_in_both_branches():
    # at x1 = 1e200 the cell is NaN, with no DomainViolation, where a batched
    # SVD of the stack would not converge
    names = ("x1", "y1")
    cell = parse(f"{_NAN_AT_1E200} + y1", names)
    samples = _nan_samples(1)
    kernel = ex.compile([cell], names)
    reports = [
        hessian_report([[cell]], samples, {}),
        hessian_report(lambda row: (kernel(row)[0],), samples, {}),
    ]
    for report in reports:
        assert report.samples == 1
        assert report.max_entry == 1.0
        assert (report.min_rank, report.max_rank) == (1, 1)


def test_both_hessian_inputs_skip_raising_and_nan_rows_in_one_loop():
    # a 2 x 2 matrix with a cell that raises at x1 = -1 and one that is NaN
    # at x1 = 1e200, as an expression matrix and as a callable giving the
    # row-major entries (a kernel itself, whose walk raises when it is read)
    names = ("x1", "x2", "y1", "y2")
    matrix = [
        [parse("y1", names), parse(f"sqrt(x1) + ({_NAN_AT_1E200})", names)],
        [parse("2*y1", names), parse("y2", names)],
    ]
    kernel = ex.compile([cell for line in matrix for cell in line], names)
    rows = [[1.0, 1.0, 3.0, 1.0], [-1.0, 1.0, 1.0, 1.0], [1e200, 1.0, 1.0, 1.0]]
    reports = [
        hessian_report(matrix, Samples(rows, 3), {}),
        hessian_report(kernel, Samples(rows, 3)),
        hessian_report(lambda row: tuple(kernel(row)), Samples(rows, 3)),
    ]
    for report in reports:
        # only the first row is kept: [[3, 1], [6, 1]], of rank 2
        assert (report.samples, report.max_entry) == (1, 6.0)
        assert (report.min_rank, report.max_rank) == (2, 2)
    with pytest.raises(InsufficientSamples):
        hessian_report(matrix, Samples(rows[1:], 2), {})


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
