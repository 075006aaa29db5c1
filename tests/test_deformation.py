import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from lagdeform.conditions import (
    DerivedFields,
    InsufficientSamples,
    classify,
    functional_dependence_test,
    hessian_report,
)
from lagdeform.corpus import CORPUS_NAMES
from lagdeform.deformation import (
    ClosedForm,
    DeformedLagrangian,
    DomainConflict,
    Numeric,
    OutOfInterval,
    chain,
    deformed_hessian,
    deformed_hessian_matrix,
    synthesize,
    synthesize_numeric,
    verify_deformed_el,
)
from lagdeform.dynamics import (
    IntegratorConfig,
    el_residual_along,
    energy_along,
    integrate_geodesic,
)
from lagdeform.expressions import chart_names, evaluate, parse
from lagdeform.families import (
    Affine,
    Constant,
    HomogeneousRoot,
    Logarithmic,
    Moebius,
    PowerShift,
    Tabulated,
)
from lagdeform.geometry import PhasePoint, ScalarField, SemiSpray, fiber_hessian
from lagdeform.pipeline import emit_report, run_pipeline
from lagdeform.sampling import Guards, SamplePlan, draw_samples

from systems import (
    binding,
    drag_system,
    exp_class,
    free_particle,
    homogeneous_example,
    lienard,
    matrix_kernel,
    moebius_class,
)


def box(n, lo=0.5, hi=2.0):
    names = [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)]
    return {v: (lo, hi) for v in names}


def plan_for(n, count=120, seed=42):
    return SamplePlan(bounds=box(n), count=count, seed=seed)


def derived(sys):
    return DerivedFields(sys["spray"], sys["lagrangian"], sys["params"])


def evaluable(sys, plan):
    """The draw of ``plan`` at points where L is evaluable."""
    return draw_samples(plan, Guards(evaluable=(sys["lagrangian"].expr,)), sys["params"])


# ---------------------------------------------------------------------------
# synthesis and evaluation
# ---------------------------------------------------------------------------


def test_synthesize_power_shift_gives_double_root():
    phi = synthesize(PowerShift(-0.5, 0.0), (0.5, 8.0))
    v, d1, d2 = phi.triple(4.0)
    assert v == pytest.approx(4.0)
    assert d1 == pytest.approx(0.5)
    assert d2 == pytest.approx(-0.0625)


def test_synthesize_constant_exponential():
    phi = synthesize(Constant(1.0), (-1.0, 1.0))
    assert phi.triple(0.0) == pytest.approx((1.0, 1.0, 1.0))


def test_synthesize_moebius_canonical():
    phi = synthesize(Moebius(1.0, 2.0), (0.5, 8.0))
    for t in (0.5, 1.0, 3.0, 7.5):
        v, d1, d2 = phi.triple(t)
        assert v == pytest.approx(t / (t + 2.0))
        assert d2 / d1 == pytest.approx(-2.0 / (t + 2.0), rel=1e-12)
        assert d1 > 0.0


def test_synthesize_moebius_negative_branch_is_increasing():
    # data on the other side of the pole (as for the flat Moebius system,
    # where L < -d/c): the increasing branch flips the numerator sign
    phi = synthesize(Moebius(0.5, 1.0), (-2.9, -2.1))
    for t in (-2.8, -2.5, -2.2):
        _, d1, d2 = phi.triple(t)
        assert d1 > 0.0
        assert d2 / d1 == pytest.approx(-2.0 * 0.5 / (0.5 * t + 1.0), rel=1e-12)


@pytest.mark.parametrize(
    "family,f",
    [
        (Constant(0.7), lambda t: 0.7),
        (PowerShift(-0.5, 0.0), lambda t: -0.5 / t),
        (PowerShift(2.0, 1.0), lambda t: 2.0 / (t + 1.0)),
        (Logarithmic(0.3), lambda t: -1.0 / (t + 0.3)),
        (Moebius(1.0, 2.0), lambda t: -2.0 / (t + 2.0)),
        (HomogeneousRoot(3.0), lambda t: (1.0 / 3.0 - 1.0) / t),
    ],
)
def test_closed_forms_satisfy_their_slope_ode(family, f):
    phi = synthesize(family, (0.5, 6.0))
    for t in np.linspace(0.6, 5.5, 25):
        _, d1, d2 = phi.triple(float(t))
        assert abs(d2 / d1 - f(t)) <= 1e-10 * (1.0 + abs(f(t)))
        assert d1 > 0.0


def test_synthesize_domain_conflicts():
    with pytest.raises(DomainConflict):
        synthesize(PowerShift(-0.5, 0.0), (-1.0, 2.0))
    with pytest.raises(DomainConflict):
        synthesize(Logarithmic(-1.0), (0.5, 2.0))
    with pytest.raises(DomainConflict):
        synthesize(HomogeneousRoot(2.0), (-0.5, 2.0))
    with pytest.raises(DomainConflict):
        synthesize(Moebius(1.0, 2.0), (-3.0, 0.0))  # straddles the pole at -2


def test_phi_eval_out_of_interval():
    phi = synthesize(HomogeneousRoot(2.0), (1.0, 4.0))
    with pytest.raises(OutOfInterval):
        phi.triple(-1.0)


def _moebius_above_its_pole():
    """(Phi, a value inside, the value where its denominator is 0.0)."""
    family = Moebius(0.15430946050926414, -1.0)
    pole = -family.d / family.c
    phi = synthesize(family, (pole + 1.0, pole + 2.0))
    return phi, pole + 1.0, math.nextafter(pole, math.inf)


def _logarithmic_at_its_edge():
    phi = synthesize(Logarithmic(1e-200), (0.0, 1.0))
    return phi, 0.5, math.nextafter(-1e-200, math.inf)


@pytest.mark.parametrize(
    "make",
    [
        # c t + d rounds to 0.0 one float above the pole
        pytest.param(_moebius_above_its_pole, id="moebius-c*t+d"),
        # u = t + a is 1e-216, and u * u underflows to 0.0
        pytest.param(_logarithmic_at_its_edge, id="logarithmic-u*u"),
    ],
)
def test_a_denominator_that_rounds_to_zero_is_out_of_interval(make):
    phi, _, t = make()
    lo, hi = phi.interval
    assert lo < t < hi
    with pytest.raises(OutOfInterval) as exc:
        phi.triple(t)
    assert str(exc.value) == f"Phi divides by zero at t = {t:g}"
    assert (exc.value.t, exc.value.interval) == (t, phi.interval)


# ---------------------------------------------------------------------------
# numeric synthesis
# ---------------------------------------------------------------------------


def test_numeric_zero_slope_is_affine():
    cloud = [(l, 0.0) for l in np.linspace(1.0, 3.0, 20)]
    phi = synthesize_numeric(cloud)
    v, d1, d2 = phi.triple(2.0)
    assert v == pytest.approx(1.0, abs=1e-10)  # t - L_min
    assert d1 == pytest.approx(1.0, abs=1e-10)
    assert abs(d2) <= 1e-8


def test_numeric_matches_closed_form_root():
    cloud = [(l, -0.5 / l) for l in np.linspace(1.0, 4.0, 400)]
    phi = synthesize_numeric(cloud)
    for t in np.linspace(1.0, 4.0, 17):
        v, d1, _ = phi.triple(float(t))
        assert v == pytest.approx(2.0 * (math.sqrt(t) - 1.0), abs=1e-6)
        assert d1 > 0.0


def test_numeric_requires_eight_points():
    with pytest.raises(InsufficientSamples):
        synthesize_numeric([(float(i), 0.1) for i in range(5)])


def test_numeric_vs_closed_affine_alignment():
    cloud = [(l, -0.5 / l) for l in np.linspace(1.0, 4.0, 300)]
    numeric = synthesize_numeric(cloud)
    closed = synthesize(PowerShift(-0.5, 0.0), (1.0, 4.0))
    grid = np.asarray(numeric.grid)
    t0, t1 = grid[0], grid[-1]
    c0, c1 = closed.triple(t0)[0], closed.triple(t1)[0]
    n0, n1 = numeric.triple(t0)[0], numeric.triple(t1)[0]
    alpha = (n1 - n0) / (c1 - c0)
    beta = n0 - alpha * c0
    worst = max(
        abs(numeric.triple(float(t))[0] - (alpha * closed.triple(float(t))[0] + beta))
        for t in grid[:: len(grid) // 64]
    )
    assert worst <= 1e-5


def test_tabulated_routes_to_numeric():
    table = Tabulated(tuple((float(l), -0.5 / float(l)) for l in np.linspace(1, 4, 12)))
    phi = synthesize(table, (1.0, 4.0))
    assert isinstance(phi, Numeric)


# ---------------------------------------------------------------------------
# verification of the deformed Euler-Lagrange equations
# ---------------------------------------------------------------------------


def test_verify_drag_system_with_root():
    sys = drag_system()
    phi = synthesize(PowerShift(-0.5, 0.0), (0.25, 4.0))
    report = verify_deformed_el(
        DerivedFields(sys["spray"], sys["lagrangian"], sys["params"]),
        phi,
        evaluable(sys, plan_for(2, 200)),
    )
    assert report.direct.passed
    assert report.direct.max_residual <= 1e-9
    assert report.agreement_max <= 1e-9


def test_verify_moebius_system():
    sys = moebius_class()
    derived = DerivedFields(sys["spray"], sys["lagrangian"], sys["params"])
    plan = plan_for(3, 150, seed=31)
    samples = draw_samples(plan, derived.theorem_guards(), sys["params"])
    result = functional_dependence_test(derived, samples, plan)
    fit = classify(result.cloud)
    assert isinstance(fit.chosen, Moebius)
    ls = [l for l, _ in result.cloud]
    phi = synthesize(fit.chosen, (min(ls), max(ls)))
    report = verify_deformed_el(
        DerivedFields(sys["spray"], sys["lagrangian"], sys["params"]),
        phi,
        evaluable(sys, plan_for(3, 150, seed=33)),
    )
    assert report.direct.passed
    assert report.direct.max_residual <= 1e-9


def test_verify_wrong_deformation_fails():
    sys = drag_system()
    wrong = synthesize(PowerShift(1.0, 0.0), (0.25, 4.0))  # Phi = L^2/2
    report = verify_deformed_el(
        DerivedFields(sys["spray"], sys["lagrangian"], sys["params"]),
        wrong,
        evaluable(sys, plan_for(2, 100)),
    )
    assert not report.direct.passed
    assert report.direct.max_residual > 1e-3


def test_verify_numeric_deformation():
    sys = drag_system()
    cloud = [(l, -0.5 / l) for l in np.linspace(0.25, 4.5, 400)]
    phi = synthesize_numeric(cloud)
    report = verify_deformed_el(
        DerivedFields(sys["spray"], sys["lagrangian"], sys["params"]),
        phi,
        evaluable(sys, plan_for(2, 100)),
        tol=1e-5,
    )
    # numeric quadrature limits the residual, but it stays small
    assert report.direct.max_residual <= 1e-5


def test_verify_lienard_three_halves():
    sys = lienard()
    phi = synthesize(PowerShift(0.5, 0.0), (2.0, 40.0))
    report = verify_deformed_el(
        DerivedFields(sys["spray"], sys["lagrangian"], sys["params"]),
        phi,
        evaluable(sys, plan_for(1, 150)),
    )
    assert report.direct.passed
    assert report.direct.max_residual <= 1e-9


# ---------------------------------------------------------------------------
# deformed Hessians
# ---------------------------------------------------------------------------


def test_deformed_hessian_homogeneous_root_is_singular():
    sys = homogeneous_example()
    phi = synthesize(HomogeneousRoot(2.0), (0.5, 30.0))
    report = deformed_hessian(
        derived(sys), phi, evaluable(sys, plan_for(3, 80))
    )
    assert report.nontrivial
    assert (report.min_rank, report.max_rank) == (2, 2)


def test_deformed_hessian_affine_keeps_rank():
    sys = free_particle(2)
    phi = synthesize(Affine(), (0.25, 4.0))
    report = deformed_hessian(
        derived(sys), phi, evaluable(sys, plan_for(2, 60))
    )
    assert (report.min_rank, report.max_rank) == (2, 2)


def test_deformed_hessian_moebius_regular():
    sys = moebius_class()
    phi = synthesize(Moebius(0.5, 1.0), (-2.95, -2.01))
    report = deformed_hessian(
        derived(sys), phi, evaluable(sys, plan_for(3, 80))
    )
    assert report.nontrivial
    assert (report.min_rank, report.max_rank) == (3, 3)


def test_deformed_hessian_drag_root_rank_one():
    sys = drag_system()
    phi = synthesize(PowerShift(-0.5, 0.0), (0.25, 4.0))
    report = deformed_hessian(
        derived(sys), phi, evaluable(sys, plan_for(2, 80))
    )
    assert report.nontrivial
    assert (report.min_rank, report.max_rank) == (1, 1)


def test_deformed_hessian_skips_points_where_phi_overflows():
    # Phi = exp(1e4 L)/1e4 overflows math.exp at every sample of the box
    sys = free_particle(2)
    phi = synthesize(Constant(1e4), (0.25, 4.0))
    with pytest.raises(InsufficientSamples):
        deformed_hessian(derived(sys), phi, evaluable(sys, plan_for(2, 20)))


def test_affine_rescale_preserves_verdicts():
    sys = drag_system()
    base = synthesize(PowerShift(-0.5, 0.0), (0.25, 4.0))
    assert (base.scale, base.shift) == (1.0, 0.0)
    scaled = replace(base, scale=3.5, shift=-2.0)
    v, d1, d2 = base.triple(2.0)
    sv, sd1, sd2 = scaled.triple(2.0)
    assert sv == pytest.approx(3.5 * v - 2.0)
    assert sd1 == pytest.approx(3.5 * d1)
    assert sd2 == pytest.approx(3.5 * d2)
    report = verify_deformed_el(
        DerivedFields(sys["spray"], sys["lagrangian"], sys["params"]),
        scaled,
        evaluable(sys, plan_for(2, 100)),
    )
    assert report.direct.passed
    h_base = deformed_hessian(
        derived(sys), base, evaluable(sys, plan_for(2, 50))
    )
    h_scaled = deformed_hessian(
        derived(sys), scaled, evaluable(sys, plan_for(2, 50))
    )
    assert (h_base.min_rank, h_base.max_rank) == (h_scaled.min_rank, h_scaled.max_rank)


# ---------------------------------------------------------------------------
# composed symbolics
# ---------------------------------------------------------------------------


def test_composed_expression_matches_pointwise():
    sys = exp_class()
    phi = synthesize(Constant(1.0), (0.0, 5.0))
    composed = DeformedLagrangian(sys["lagrangian"], phi).composed()
    assert composed is not None
    b = binding([1.0, 1.0, 1.0, 0.8, 1.2, 0.6], 3, sys["params"])
    value = phi.triple(evaluate(sys["lagrangian"].expr, b))[0]
    assert evaluate(composed.expr, b) == pytest.approx(value, rel=1e-14)


def test_verify_counts_draw_and_interval_rejections():
    # L = y1^2/2 + ln(x1 - 1) is not evaluable for x1 <= 1, a third of the
    # box; Phi = ln(L + 1) is not defined where L <= -1, close to x1 = 1
    names = ("x1", "y1")
    spray = SemiSpray(1, [parse("-1/(2*(x1 - 1))", names)])
    lagrangian = ScalarField(1, parse("0.5*y1^2 + ln(x1 - 1)", names))
    plan = plan_for(1, 200, seed=8)
    samples = draw_samples(plan, Guards(evaluable=(lagrangian.expr,)), {})
    phi = synthesize(Logarithmic(1.0), (0.0, 1.0))
    report = verify_deformed_el(DerivedFields(spray, lagrangian), phi, samples)
    outside = sum(evaluate(lagrangian.expr, binding(row, 1)) <= -1.0 for row in samples.rows)
    assert samples.attempts > plan.count
    assert report.out_of_interval == outside > 0
    assert report.direct.accepted == plan.count - outside
    assert report.direct.rejected == samples.attempts - plan.count + outside
    assert report.direct.accepted + report.direct.rejected == samples.attempts


# ---------------------------------------------------------------------------
# the chain rule against the composed symbolic form of a closed form
# ---------------------------------------------------------------------------


def _closed_form_problem(corpus_reports, name):
    doc = corpus_reports[name]
    if not isinstance(doc.deformation, ClosedForm):
        pytest.skip(f"{name}: numeric deformation, no composed form to compare with")
    return doc.problem, DeformedLagrangian(doc.problem.lagrangian, doc.deformation)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_chain_rule_hessian_matches_composed_form(corpus_reports, name):
    spec, deformed = _closed_form_problem(corpus_reports, name)
    symbolic = fiber_hessian(deformed.composed())
    derived_fields = DerivedFields(spec.spray, spec.lagrangian, spec.params)
    chain = deformed_hessian_matrix(derived_fields, deformed.deformation)
    samples = draw_samples(
        spec.plan(count=60), Guards(evaluable=(spec.lagrangian.expr,)), spec.params
    )
    for row in samples.rows:
        b = binding(row, spec.n, spec.params)
        want = np.array([[evaluate(cell, b) for cell in line] for line in symbolic])
        got = np.reshape(chain(row), (spec.n, spec.n))
        assert np.all(np.abs(got - want) <= 1e-9 * (1.0 + np.abs(want))), row
    by_chain = deformed_hessian(derived_fields, deformed.deformation, samples)
    by_symbols = hessian_report(matrix_kernel(symbolic, spec.params), samples)
    assert (by_chain.min_rank, by_chain.max_rank, by_chain.samples) == (
        by_symbols.min_rank,
        by_symbols.max_rank,
        by_symbols.samples,
    )


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_chain_rule_el_residual_matches_composed_form(corpus_reports, name):
    spec, deformed = _closed_form_problem(corpus_reports, name)
    mid = [0.5 * sum(spec.bounds[v]) for v in chart_names(spec.n)]
    start = PhasePoint(mid[: spec.n], mid[spec.n :])
    cfg = IntegratorConfig(step=1e-3, horizon=0.05, initial=start)
    traj = integrate_geodesic(spec.spray, cfg, spec.params)
    by_chain = el_residual_along(traj, deformed)
    by_symbols = el_residual_along(traj, deformed.composed())
    assert abs(by_chain - by_symbols) <= 1e-9


# ---------------------------------------------------------------------------
# Phi at a column of values
# ---------------------------------------------------------------------------


def _closed_forms():
    """Every closed family, Moebius with each numerator branch, each scaled
    and shifted."""
    forms = [
        synthesize(Affine(), (0.0, 1.0)),
        synthesize(Constant(0.7), (0.0, 1.0)),
        synthesize(Constant(-1.3), (0.0, 1.0)),
        synthesize(PowerShift(-0.5, 0.5), (0.0, 1.0)),
        synthesize(PowerShift(1.5, -0.25), (0.5, 1.0)),
        synthesize(Logarithmic(0.2), (0.0, 1.0)),
        synthesize(HomogeneousRoot(3.0), (0.5, 1.0)),
        synthesize(Moebius(0.5, 1.0), (0.0, 1.0)),  # (1, 0) above the pole -2
        synthesize(Moebius(0.5, -1.0), (3.0, 4.0)),  # (-1, 0) above the pole 2
        synthesize(Moebius(0.5, 0.0), (1.0, 2.0)),  # (0, -1) above the pole 0
        synthesize(Moebius(0.5, 0.0), (-2.0, -1.0)),  # (0, 1) below it
        synthesize(Moebius(0.0, 2.0), (0.0, 1.0)),  # no pole: (1, 0)
        synthesize(Moebius(0.0, -2.0), (0.0, 1.0)),  # no pole: (-1, 0)
    ]
    branches = {(1.0, 0.0), (-1.0, 0.0), (0.0, -1.0), (0.0, 1.0)}
    assert {phi.numerator for phi in forms[7:]} == branches
    return [replace(phi, scale=2.5, shift=-0.75) for phi in forms]


def _candidates(phi):
    """Signed zeros, subnormals, ordinary values, and the interval's edges
    with subnormal and one-float offsets."""
    tiny = (5e-324, 1e-310, 2.2250738585072014e-308)
    ts = [0.0, -0.0, 0.3, -0.3, 1.7, -2.2, 12.5, -40.0, 700.0, 1e300, -1e300]
    ts += [s * v for v in tiny for s in (1.0, -1.0)]
    for edge, inward in zip(phi.interval, (math.inf, -math.inf)):
        if math.isfinite(edge):
            ts.append(math.nextafter(edge, inward))
            offsets = tiny + (1e-300, 1e-12, 1e-3, 0.25, 1.0, 3.0, 30.0)
            ts += [edge + math.copysign(v, inward) for v in offsets]
    return ts


def _triples(phi, ts):
    """The values that ``phi.triple`` has a triple at, and those triples."""
    kept = []
    for t in ts:
        try:
            kept.append((t, phi.triple(t)))
        except OutOfInterval:
            pass
    return np.array([t for t, _ in kept]), np.array([v for _, v in kept]).T


@pytest.mark.parametrize(
    "phi", _closed_forms(), ids=lambda phi: f"{phi.family.describe()}{phi.numerator}"
)
def test_phi_at_a_column_is_its_triple_at_each_value_bit_for_bit(monkeypatch, phi):
    ts, want = _triples(phi, _candidates(phi))
    lines, marked = chain(phi, ts)
    assert lines.tobytes() == want.tobytes() and marked == set()
    lo, hi = phi.interval
    assert len(ts) > 8 and (np.signbit(ts[:2]).tolist() == [False, True]) == (lo < 0.0 < hi)
    # where every value is finite, the column is computed with no triple call
    finite = ts[np.isfinite(want).all(axis=0)]
    assert len(finite) > 6
    monkeypatch.setattr(ClosedForm, "triple", _no_triple)
    lines, marked = chain(phi, finite)
    assert lines.tobytes() == want[:, np.isfinite(want).all(axis=0)].tobytes() and marked == set()


def _no_triple(phi, t):
    raise AssertionError("ClosedForm.triple where the column is computed whole")


def _power_shift():
    return synthesize(PowerShift(-0.5, 0.5), (0.0, 1.0))


@pytest.mark.parametrize(
    "phi, good, bad, later",
    [
        pytest.param(_power_shift(), 0.5, -0.75, -0.9, id="outside"),
        pytest.param(_power_shift(), 0.5, math.nan, math.nan, id="nan"),
        # u = t - 0.25 is 0.0 at the edge, where every power is still finite
        pytest.param(synthesize(PowerShift(1.5, -0.25), (0.5, 1.0)), 0.5, 0.25, 0.25, id="edge"),
        pytest.param(synthesize(Constant(1.0), (0.0, 1.0)), 0.5, 710.0, 800.0, id="exp-overflow"),
        pytest.param(*_moebius_above_its_pole(), None, id="moebius-denominator"),
        pytest.param(*_logarithmic_at_its_edge(), None, id="logarithmic-denominator"),
    ],
)
def test_a_column_marks_exactly_the_values_whose_triple_raises(phi, good, bad, later):
    # a later value fails in the same way, where one does; the others keep
    # their triples' bits, and the first marked value raises as its triple
    later = bad if later is None else later
    with pytest.raises(OutOfInterval) as first:
        phi.triple(bad)
    ts = np.array([good, good, bad, good, later, good])
    lines, marked = chain(phi, ts)
    assert marked == {2, 4}
    assert np.isnan(lines[:, [2, 4]]).all()
    assert lines[:, [0, 1, 3, 5]].T.tobytes() == np.array([phi.triple(good)] * 4).tobytes()
    with pytest.raises(OutOfInterval) as exc:
        phi.triple(ts[min(marked)].item())
    assert str(exc.value) == str(first.value)
    assert repr(exc.value.t) == repr(bad)


def test_a_column_reads_triple_only_at_the_values_where_math_raises(monkeypatch):
    # one L below a logarithmic Phi's interval, where math.log raises: the
    # other 99 values stay on the column, with their triples' bits
    phi = synthesize(Logarithmic(0.2), (0.0, 1.0))
    ts = np.linspace(0.05, 0.95, 100)
    ts[37] = -0.5
    good = [t for j, t in enumerate(ts.tolist()) if j != 37]
    want = np.array([phi.triple(t) for t in good])
    calls, triple = [], ClosedForm.triple
    monkeypatch.setattr(ClosedForm, "triple", lambda phi, t: calls.append(t) or triple(phi, t))
    lines, marked = chain(phi, ts)
    assert calls == [-0.5] and marked == {37}
    assert np.isnan(lines[:, 37]).all()
    assert np.delete(lines, 37, axis=1).T.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_the_checks_of_a_closed_form_make_no_triple_call(corpus_reports, monkeypatch, name):
    # a column that fell back to the triple map would give the same bits:
    # only forbidding the call shows that the column is computed whole
    spec, deformed = _closed_form_problem(corpus_reports, name)
    mid = [0.5 * sum(spec.bounds[v]) for v in chart_names(spec.n)]
    start = PhasePoint(mid[: spec.n], mid[spec.n :])
    traj = integrate_geodesic(spec.spray, IntegratorConfig(1e-3, 0.05, start), spec.params)
    checks = (energy_along, el_residual_along)
    want = [pickle.dumps(check(traj, deformed)) for check in checks]
    monkeypatch.setattr(ClosedForm, "triple", _no_triple)
    assert [pickle.dumps(check(traj, deformed)) for check in checks] == want
    # the run's trajectory checks, and its verification and deformed
    # Hessian where it reaches them
    doc = run_pipeline(spec, "report")
    assert emit_report(doc, "json") == emit_report(corpus_reports[name], "json")
