import math
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
    _model_moebius,
    _model_power_shift,
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
from lagdeform.geometry import PhasePoint, ScalarField, SemiBasicForm, SemiSpray, fiber_hessian
from lagdeform.sampling import (
    Guards,
    GuardViolation,
    SamplePlan,
    TooManyRejections,
    draw_samples,
)

from systems import (
    damped_oscillator,
    drag_system,
    exp_class,
    free_particle,
    homogeneous_example,
    lienard,
    log_class,
    moebius_class,
    rayleigh_drag,
)


def box(n, lo=0.5, hi=2.0):
    names = [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)]
    return {v: (lo, hi) for v in names}


def plan_for(n, count=120, seed=42, **kw):
    return SamplePlan(bounds=box(n), count=count, seed=seed, **kw)


def derived(sys):
    return DerivedFields(sys["spray"], sys["lagrangian"])


def dependence(spray, lagrangian, plan, params):
    """functional_dependence_test on the theorem-guard draw of ``plan``."""
    d = DerivedFields(spray, lagrangian)
    samples = draw_samples(plan, d.theorem_guards(), params)
    return functional_dependence_test(d, samples, plan, params)


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
    first = draw_samples(plan, d.theorem_guards(), sys["params"]).points
    second = draw_samples(plan, d.theorem_guards(), sys["params"]).points
    assert [(p.x, p.y) for p in first] == [(p.x, p.y) for p in second]


def test_draw_samples_conservative_rejects_everything():
    sys = free_particle(2)
    from lagdeform.conditions import DerivedFields

    d = DerivedFields(sys["spray"], sys["lagrangian"])
    plan = SamplePlan(bounds=box(2, 1.0, 2.0), count=50, seed=3, max_reject_ratio=0.9)
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
    assert [(p.x, p.y) for p in samples.points] == [(p.x, p.y) for p in unguarded.points]


def test_draw_samples_high_acceptance_for_damped_oscillator():
    sys = damped_oscillator()
    from lagdeform.conditions import DerivedFields

    d = DerivedFields(sys["spray"], sys["lagrangian"])
    plan = plan_for(2, count=200, seed=11)
    points = draw_samples(plan, d.theorem_guards(), sys["params"]).points
    assert len(points) == 200


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
        check_sigma_condition(d, d.defect, samples, {}),
        check_sigma_consistency(d, d.defect, samples, {}),
        check_dissipative(d, dissipation, samples, {}).gradient_match,
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
    got = deformation_ratio(derived(sys), p, sys["params"])
    assert got == pytest.approx(-0.2, rel=1e-12)
    # equals -1/(2L) with L = 2.5
    assert got == pytest.approx(-1.0 / 5.0)


def test_ratio_exp_class_is_constant_b():
    sys = exp_class(a=1.0, b=1.0, c=0.1)
    plan = plan_for(3, count=40, seed=5)
    from lagdeform.conditions import DerivedFields

    d = DerivedFields(sys["spray"], sys["lagrangian"])
    for p in draw_samples(plan, d.theorem_guards(), sys["params"]).points:
        got = deformation_ratio(d, p, sys["params"])
        assert got == pytest.approx(1.0, abs=1e-9)


def test_ratio_lienard_positive_sign():
    # measured slope is +1/(2 alpha L); at (1, 1) with alpha = 1 that is 1/18
    sys = lienard()
    p = PhasePoint([1.0], [1.0])
    got = deformation_ratio(derived(sys), p, sys["params"])
    assert got == pytest.approx(1.0 / 18.0, rel=1e-12)


def test_ratio_guard_violation_for_conserved_lagrangian():
    sys = free_particle(2)
    p = PhasePoint([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(GuardViolation):
        deformation_ratio(derived(sys), p, sys["params"])


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

    d = DerivedFields(sys["spray"], sys["lagrangian"])
    plan = plan_for(sys["n"], count=40, seed=23)
    for p in draw_samples(plan, d.theorem_guards(), sys["params"]).points:
        symbolic = deformation_ratio(d, p, sys["params"])
        dual = _ratio_via_duals(sys, p)
        assert abs(symbolic - dual) <= 1e-10 * (1.0 + abs(symbolic))


# ---------------------------------------------------------------------------
# sigma condition (i)
# ---------------------------------------------------------------------------


def test_sigma_condition_damped_oscillator_passes():
    sys = damped_oscillator()
    d = derived(sys)
    samples = denominator_samples(d, sys["sigma"], plan_for(2, 200), sys["params"])
    report = check_sigma_condition(d, sys["sigma"], samples, sys["params"])
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
    report = check_sigma_condition(d, perturbed, samples, sys["params"])
    assert not report.passed
    assert report.max_residual >= 0.01


def test_sigma_condition_zero_force_conservative_vacuous():
    sys = free_particle(2)
    zero = SemiBasicForm(2, [parse("0", ("x1",)), parse("0", ("x1",))])
    d = derived(sys)
    samples = denominator_samples(d, zero, plan_for(2, 100), sys["params"])
    report = check_sigma_condition(d, zero, samples, sys["params"])
    assert report.passed
    assert report.max_residual == 0.0


def test_sigma_consistency_drag_system():
    sys = drag_system()
    d = derived(sys)
    samples = consistency_samples(d, sys["sigma"], plan_for(2, 150), sys["params"])
    report = check_sigma_consistency(d, sys["sigma"], samples, sys["params"])
    assert report.passed


def test_sigma_consistency_catches_misaligned_force():
    # the rotational oscillator's aligned sigma is NOT its Lagrange defect
    sys = damped_oscillator()
    d = derived(sys)
    samples = consistency_samples(d, sys["sigma"], plan_for(2, 150), sys["params"])
    report = check_sigma_consistency(d, sys["sigma"], samples, sys["params"])
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
    report = check_homogeneous(derived(sys), sys["sigma"], samples, sys["params"])
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
    report = check_homogeneous(derived(sys), broken, samples, sys["params"])
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
        check_homogeneous(DerivedFields(sys["spray"], degree_one), zero, samples, {})
    assert "degree 1" in str(exc.value)


def test_homogeneous_inhomogeneous_rejected():
    sys = damped_oscillator()
    plan = plan_for(2, 60)
    samples = evaluable(plan, sys["params"], sys["lagrangian"].expr, *sys["sigma"].components)
    with pytest.raises(NotHomogeneous):
        check_homogeneous(derived(sys), sys["sigma"], samples, sys["params"])


# ---------------------------------------------------------------------------
# dissipative structure
# ---------------------------------------------------------------------------


def test_dissipative_damped_oscillator_passes():
    sys = damped_oscillator()
    d = derived(sys)
    samples = dissipative_samples(d, sys["dissipation"], plan_for(2, 150), sys["params"])
    report = check_dissipative(d, sys["dissipation"], samples, sys["params"])
    assert report.gradient_match.passed
    assert report.energy_rate_match.passed
    assert not report.rayleigh  # D has linear-in-velocity terms


def test_dissipative_zero_function_trivial():
    sys = free_particle(2)
    zero = ScalarField(2, parse("0", ("x1",)))
    d = derived(sys)
    samples = dissipative_samples(d, zero, plan_for(2, 60), sys["params"])
    report = check_dissipative(d, zero, samples, sys["params"])
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
    report = check_dissipative(d, perturbed, samples, sys["params"])
    assert not report.gradient_match.passed


def test_dissipative_rayleigh_reports_negative_quadratic():
    sys = rayleigh_drag()
    d = derived(sys)
    samples = dissipative_samples(d, sys["dissipation"], plan_for(2, 100), sys["params"])
    report = check_dissipative(d, sys["dissipation"], samples, sys["params"])
    assert report.gradient_match.passed
    assert report.energy_rate_match.passed
    assert report.rayleigh
    assert report.rayleigh_rate.passed
    assert report.dissipation_negative is True
