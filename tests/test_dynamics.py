import math
import warnings

import numpy as np
import pytest

from lagdeform import dynamics
from lagdeform import expressions as ex
from lagdeform.conditions import DerivedFields, check_dissipative
from lagdeform.corpus import CORPUS_NAMES, load_corpus_problem
from lagdeform.deformation import DeformedLagrangian, OutOfInterval, synthesize
from lagdeform.dynamics import (
    GeodesicError,
    IntegratorConfig,
    TooShort,
    el_residual_along,
    energy_along,
    integrate_geodesic,
    trajectory_to_csv,
)
from lagdeform.expressions import DomainViolation, Kernel, Overflow, chart_names, parse, partial
from lagdeform.families import Affine, Constant, PowerShift
from lagdeform.geometry import (
    PhasePoint,
    ScalarField,
    SemiSpray,
    liouville_apply,
    vertical_differential,
)
from lagdeform.sampling import Samples

from systems import binding, damped_oscillator, drag_system, free_particle, rayleigh_drag


def oscillator_system():
    # x'' + 2x = 0, the oscillating coordinate of the log-class system
    names = ("x1", "y1")
    spray = SemiSpray(1, [parse("x1", names)])
    lagrangian = ScalarField(1, parse("0.5*y1^2 - x1^2", names))
    return spray, lagrangian


# ---------------------------------------------------------------------------
# integrator
# ---------------------------------------------------------------------------


def test_flat_spray_straight_lines():
    sys = free_particle(3)
    cfg = IntegratorConfig(
        step=1e-2, horizon=1.0, initial=PhasePoint([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    )
    traj = integrate_geodesic(sys["spray"], cfg, sys["params"])
    assert traj.states[-1][:3] == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)
    assert traj.states[-1][3:] == pytest.approx([1.0, 2.0, 3.0], abs=1e-14)


def test_oscillator_matches_analytic_cosine():
    spray, _ = oscillator_system()
    cfg = IntegratorConfig(step=1e-3, horizon=1.0, initial=PhasePoint([1.0], [0.0]))
    traj = integrate_geodesic(spray, cfg)
    assert traj.states[-1][0] == pytest.approx(math.cos(math.sqrt(2.0)), abs=1e-8)


def test_rk4_order_on_step_halving():
    spray, _ = oscillator_system()

    def end_error(h):
        cfg = IntegratorConfig(step=h, horizon=1.0, initial=PhasePoint([1.0], [0.0]))
        traj = integrate_geodesic(spray, cfg)
        exact_x = math.cos(math.sqrt(2.0))
        exact_y = -math.sqrt(2.0) * math.sin(math.sqrt(2.0))
        return max(abs(traj.states[-1][0] - exact_x), abs(traj.states[-1][1] - exact_y))

    ratio = end_error(0.02) / end_error(0.01)
    assert ratio >= 14.0


def test_config_requires_integer_step_count():
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.3, horizon=1.0, initial=PhasePoint([0.0], [1.0]))


def test_blowup_raises():
    names = ("x1", "y1")
    spray = SemiSpray(1, [parse("-(y1^2)*50", names)])  # y' = 100 y^2
    cfg = IntegratorConfig(step=1e-2, horizon=2.0, initial=PhasePoint([0.0], [1.0]))
    with pytest.raises(GeodesicError):
        integrate_geodesic(spray, cfg)


def test_homogeneous_blow_up_is_geodesic_error():
    # shipped homogeneous spray: y2 = y3 = 1 stay constant and y1' = y1^2 + 2,
    # so y1 = sqrt(2) tan(sqrt(2) t + atan(1/sqrt(2))) blows up at t* ~ 0.676;
    # math.pow overflows inside an RK4 stage before the state check sees it
    spec = load_corpus_problem("homogeneous")
    cfg = IntegratorConfig(step=1e-3, horizon=1.0, initial=PhasePoint([0.0] * 3, [1.0] * 3))
    t_blow = (0.5 * math.pi - math.atan(1.0 / math.sqrt(2.0))) / math.sqrt(2.0)
    with pytest.raises(GeodesicError, match="blow-up") as exc:
        integrate_geodesic(spec.spray, cfg, spec.params)
    assert abs(exc.value.step * cfg.step - t_blow) < 0.01
    assert isinstance(exc.value.__cause__, Overflow)


@pytest.mark.parametrize("coefficient", ["-0.5*exp(y1)", "-0.5*y1^2"])
def test_exp_overflow_is_a_blow_up_as_power_overflow_is(coefficient):
    # y1' = exp(y1) and y1' = y1^2 from y1 = 5 both blow up within a few
    # steps; math.exp overflows inside an RK4 stage, as math.pow does, and
    # both end as a blow-up, not as a domain violation
    spray = SemiSpray(1, [parse(coefficient, ("x1", "y1"))])
    cfg = IntegratorConfig(step=1e-2, horizon=1.0, initial=PhasePoint([0.0], [5.0]))
    with pytest.raises(GeodesicError, match=r"^non-finite state \(blow-up\)"):
        integrate_geodesic(spray, cfg)


def test_domain_violation_reports_step():
    names = ("x1", "y1")
    spray = SemiSpray(1, [parse("ln(1 - x1)", names)])  # leaves domain as x1 -> 1
    cfg = IntegratorConfig(step=0.05, horizon=3.0, initial=PhasePoint([0.0], [1.0]))
    with pytest.raises(GeodesicError) as exc:
        integrate_geodesic(spray, cfg)
    assert exc.value.step is not None


def test_box_truncation_warns():
    sys = free_particle(1)
    box = {"x1": (0.0, 0.5), "y1": (0.0, 2.0)}
    cfg = IntegratorConfig(step=1e-2, horizon=1.0, initial=PhasePoint([0.0], [1.0]))
    with pytest.warns(RuntimeWarning):
        traj = integrate_geodesic(sys["spray"], cfg, sys["params"], box=box)
    assert traj.truncated
    assert traj.times[-1] < 1.0


# ---------------------------------------------------------------------------
# Euler-Lagrange residual along the flow
# ---------------------------------------------------------------------------


def test_el_residual_flat_kinetic_tiny():
    sys = free_particle(2)
    cfg = IntegratorConfig(
        step=1e-3, horizon=1.0, initial=PhasePoint([0.0, 0.0], [1.0, 0.5])
    )
    traj = integrate_geodesic(sys["spray"], cfg, sys["params"])
    assert el_residual_along(traj, sys["lagrangian"]) <= 1e-10


def test_el_residual_drag_deformed_small_raw_large():
    sys = drag_system()
    cfg = IntegratorConfig(
        step=1e-3, horizon=1.0, initial=PhasePoint([1.0, 1.0], [0.5, 2.0])
    )
    traj = integrate_geodesic(sys["spray"], cfg, sys["params"])
    deformed = DeformedLagrangian(
        sys["lagrangian"], synthesize(PowerShift(-0.5, 0.0), (1e-4, 40.0))
    )
    assert el_residual_along(traj, deformed) <= 1e-5
    # the raw Lagrangian is non-conservative along the same flow
    assert el_residual_along(traj, sys["lagrangian"]) > 1e-3


def test_el_residual_too_short():
    sys = free_particle(1)
    cfg = IntegratorConfig(step=0.5, horizon=1.0, initial=PhasePoint([0.0], [1.0]))
    traj = integrate_geodesic(sys["spray"], cfg, sys["params"])
    with pytest.raises(TooShort):
        el_residual_along(traj, sys["lagrangian"])


def test_el_residual_second_order_in_step():
    from systems import exp_class
    from lagdeform.families import Constant

    sys = exp_class()
    deformed = DeformedLagrangian(
        sys["lagrangian"], synthesize(Constant(1.0), (0.0, 10.0))
    )

    def residual(h):
        cfg = IntegratorConfig(
            step=h, horizon=0.5, initial=PhasePoint([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        )
        traj = integrate_geodesic(sys["spray"], cfg, sys["params"])
        return el_residual_along(traj, deformed)

    ratio = residual(2e-3) / residual(1e-3)
    assert 3.0 <= ratio <= 5.0  # central differences: O(h^2)


# ---------------------------------------------------------------------------
# energy series
# ---------------------------------------------------------------------------


def test_energy_flat_kinetic_conserved():
    sys = free_particle(2)
    cfg = IntegratorConfig(
        step=1e-3, horizon=1.0, initial=PhasePoint([0.0, 0.0], [1.0, 0.5])
    )
    traj = integrate_geodesic(sys["spray"], cfg, sys["params"])
    _, drift = energy_along(traj, sys["lagrangian"])
    assert drift <= 1e-12


def test_energy_drag_drifts_but_deformed_energy_flat():
    sys = drag_system()
    cfg = IntegratorConfig(
        step=1e-3, horizon=1.0, initial=PhasePoint([1.0, 1.0], [0.5, 2.0])
    )
    traj = integrate_geodesic(sys["spray"], cfg, sys["params"])
    series, drift = energy_along(traj, sys["lagrangian"])
    assert drift > 1e-3
    deformed = DeformedLagrangian(
        sys["lagrangian"], synthesize(PowerShift(-0.5, 0.0), (1e-4, 40.0))
    )
    _, phi_drift = energy_along(traj, deformed)
    assert phi_drift <= 1e-8


# ---------------------------------------------------------------------------
# dissipation along a flow, checked by check_dissipative on its states
# ---------------------------------------------------------------------------


def _dissipation_along(sys, dissipation, cfg):
    """The trajectory from ``cfg`` and check_dissipative on its states."""
    traj = integrate_geodesic(sys["spray"], cfg, sys["params"])
    derived = DerivedFields(sys["spray"], sys["lagrangian"], sys["params"])
    states = Samples(traj.states.tolist(), len(traj.states))
    return traj, check_dissipative(derived, dissipation, states)


def test_dissipation_damped_oscillator_rate_identity():
    sys = damped_oscillator()
    cfg = IntegratorConfig(
        step=1e-3, horizon=1.0, initial=PhasePoint([1.0, 0.5], [1.0, 0.8])
    )
    _, report = _dissipation_along(sys, sys["dissipation"], cfg)
    assert report.energy_rate_match.passed
    assert not report.rayleigh


def test_dissipation_zero_on_conservative():
    sys = free_particle(2)
    zero = ScalarField(2, parse("0", ("x1",)))
    cfg = IntegratorConfig(
        step=1e-2, horizon=1.0, initial=PhasePoint([0.0, 0.0], [1.0, 1.0])
    )
    _, report = _dissipation_along(sys, zero, cfg)
    # S(E_L) = C(D) = 0 exactly at every state
    assert report.energy_rate_match.passed
    assert report.energy_rate_match.max_residual == 0.0
    assert report.gradient_match.max_residual == 0.0


def test_dissipation_rayleigh_monotone_decay():
    sys = rayleigh_drag()
    cfg = IntegratorConfig(
        step=1e-3, horizon=1.0, initial=PhasePoint([0.0, 0.0], [1.0, 0.7])
    )
    traj, report = _dissipation_along(sys, sys["dissipation"], cfg)
    assert report.energy_rate_match.passed
    assert report.rayleigh
    assert report.rayleigh_rate.passed
    assert report.dissipation_negative
    series, _ = energy_along(traj, sys["lagrangian"])
    assert np.all(np.diff(series) < 0.0)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def test_csv_round_trip_columns():
    sys = drag_system()
    cfg = IntegratorConfig(
        step=0.05, horizon=0.5, initial=PhasePoint([1.0, 1.0], [1.0, 1.0])
    )
    traj = integrate_geodesic(sys["spray"], cfg, sys["params"])
    deformed = DeformedLagrangian(
        sys["lagrangian"], synthesize(PowerShift(-0.5, 0.0), (1e-4, 4.0))
    )
    text = trajectory_to_csv(traj, sys["lagrangian"], deformed)
    lines = text.strip().split("\n")
    assert lines[0] == "t,x1,x2,y1,y2,E_L,E_PhiL"
    assert len(lines) == len(traj.times) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[5]) == pytest.approx(1.0)  # E_L = L = 1 at |y| = sqrt(2)


def test_csv_nan_without_deformation():
    sys = free_particle(1)
    cfg = IntegratorConfig(step=0.1, horizon=0.5, initial=PhasePoint([0.0], [1.0]))
    traj = integrate_geodesic(sys["spray"], cfg, sys["params"])
    text = trajectory_to_csv(traj, sys["lagrangian"])
    assert "nan" in text.split("\n")[1]


# ---------------------------------------------------------------------------
# rows and kernels against the array form over dict bindings
# ---------------------------------------------------------------------------
#
# The references below are the integrator and the along-flow loops in their
# array form: numpy state vectors, one dict binding per state and per RK4
# stage, and the tree walk of each field. The module's kernels over
# positional rows must give the same bits and fail at the same step with the
# same error.


def _reference_rk4(spray, cfg, params=None, box=None):
    n = spray.n
    h = cfg.step
    names = chart_names(n)

    def rhs(state):
        binding = dict(params) if params else {}
        for i in range(n):
            binding[f"x{i + 1}"] = state[i]
            binding[f"y{i + 1}"] = state[n + i]
        out = np.empty(2 * n)
        out[:n] = state[n:]
        for i, g in enumerate(spray.coefficients):
            out[n + i] = -2.0 * g.evaluate(binding)
        return out

    state = np.concatenate([cfg.initial.x, cfg.initial.y]).astype(float)
    states = [state.copy()]
    times = [0.0]
    truncated = False
    for k in range(cfg.steps):
        try:
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * h * k1)
            k3 = rhs(state + 0.5 * h * k2)
            k4 = rhs(state + h * k3)
        except Overflow:
            raise GeodesicError("non-finite state (blow-up)", step=k) from None
        except DomainViolation as exc:
            raise GeodesicError(f"domain violation: {exc}", step=k) from None
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(state)) or np.max(np.abs(state)) > 1e100:
            raise GeodesicError("non-finite state (blow-up)", step=k)
        if box is not None and not all(
            box[v][0] <= state[j] <= box[v][1] for j, v in enumerate(names)
        ):
            truncated = True
            break
        states.append(state.copy())
        times.append((k + 1) * h)
    return np.asarray(times), np.asarray(states), [truncated]


def _reference_bindings(states, n, params):
    return [binding(s, n, params) for s in states]


def _reference_chain(lag, b):
    """(Lag, dLag/dL) at a binding, L's error first, then Phi's."""
    if isinstance(lag, DeformedLagrangian):
        phi, d1, _ = lag.deformation.triple(lag.base.expr.evaluate(b))
        return phi, d1
    return None, 1.0


def _reference_energy(states, n, params, lag):
    base = lag.base if isinstance(lag, DeformedLagrangian) else lag
    base_c = liouville_apply(base)
    series = np.empty(len(states))
    for k, b in enumerate(_reference_bindings(states, n, params)):
        phi, d1 = _reference_chain(lag, b)
        if phi is None:
            phi = base.expr.evaluate(b)
        series[k] = d1 * base_c.expr.evaluate(b) - phi
    return series, float(np.max(np.abs(series - series[0])))


def _reference_el_residual(states, n, params, lag, h):
    base = lag.base if isinstance(lag, DeformedLagrangian) else lag
    vert = vertical_differential(base)
    base_x = [partial(base.expr, f"x{i}") for i in range(1, n + 1)]
    momenta = np.empty((len(states), n))
    forces = np.empty((len(states), n))
    for k, b in enumerate(_reference_bindings(states, n, params)):
        _, d1 = _reference_chain(lag, b)
        for i in range(n):
            momenta[k, i] = d1 * vert.components[i].evaluate(b)
            forces[k, i] = d1 * base_x[i].evaluate(b)
    dpdt = (momenta[2:] - momenta[:-2]) / (2.0 * h)
    return float(np.max(np.abs(dpdt - forces[1:-1])))


def _bits(run):
    """The result as bytes, or the error's type, message and step."""
    try:
        value = run()
    except Exception as exc:  # the comparison is of which error, not its kind
        return ("error", type(exc), str(exc), getattr(exc, "step", None))
    if isinstance(value, tuple):
        return tuple(np.asarray(v, dtype=float).tobytes() for v in value)
    return np.asarray(value, dtype=float).tobytes()


def _assert_matches_reference(spray, lagrangians, cfg, params, box=None):
    def integrate():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return integrate_geodesic(spray, cfg, params, box=box)

    def run():
        traj = integrate()
        assert traj.states.dtype == np.float64
        return traj.times, traj.states, [traj.truncated]

    with np.errstate(all="ignore"):
        want = _bits(lambda: _reference_rk4(spray, cfg, params, box))
    assert _bits(run) == want
    if want[0] == "error":
        return None
    traj = integrate()
    n = spray.n
    for lag in lagrangians:
        assert _bits(lambda: energy_along(traj, lag)) == _bits(
            lambda: _reference_energy(traj.states, n, traj.params, lag)
        )
        if len(traj.times) > 3:
            assert _bits(lambda: el_residual_along(traj, lag)) == _bits(
                lambda: _reference_el_residual(traj.states, n, traj.params, lag, traj.step)
            )
    return traj


def _starts(spec, count, seed):
    rng = np.random.default_rng(seed)
    names = chart_names(spec.n)
    lows = np.array([spec.bounds[v][0] for v in names])
    highs = np.array([spec.bounds[v][1] for v in names])
    mid = 0.5 * (lows + highs)
    return [mid] + [lows + rng.uniform(size=len(names)) * (highs - lows) for _ in range(count - 1)]


def _deformed_for(spec, doc):
    if doc.deformation is not None:
        return DeformedLagrangian(spec.lagrangian, doc.deformation)
    return DeformedLagrangian(spec.lagrangian, synthesize(Constant(0.5), (0.0, 0.0)))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_rows_match_the_array_form_on_the_corpus(corpus_reports, name):
    spec = load_corpus_problem(name)
    lagrangians = (spec.lagrangian, _deformed_for(spec, corpus_reports[name]))
    for start in _starts(spec, 3, seed=17):
        cfg = IntegratorConfig(
            step=1e-2, horizon=1.0, initial=PhasePoint(start[: spec.n], start[spec.n :])
        )
        _assert_matches_reference(spec.spray, lagrangians, cfg, spec.params)


def test_rows_match_the_array_form_on_homogeneous_blow_ups(corpus_reports):
    spec = load_corpus_problem("homogeneous")
    lagrangians = (spec.lagrangian, _deformed_for(spec, corpus_reports["homogeneous"]))
    blown = 0
    for start in _starts(spec, 6, seed=3):
        cfg = IntegratorConfig(
            step=2e-3, horizon=1.0, initial=PhasePoint(start[: spec.n], start[spec.n :])
        )
        blown += _assert_matches_reference(spec.spray, lagrangians, cfg, spec.params) is None
    assert blown >= 3


def test_rows_match_the_array_form_on_a_truncated_boxed_run(corpus_reports):
    spec = load_corpus_problem("free-particle")
    lagrangians = (spec.lagrangian, _deformed_for(spec, corpus_reports["free-particle"]))
    mid = _starts(spec, 1, seed=0)[0]
    cfg = IntegratorConfig(step=1e-2, horizon=1.0, initial=PhasePoint(mid[:2], mid[2:]))
    traj = _assert_matches_reference(spec.spray, lagrangians, cfg, spec.params, spec.bounds)
    assert traj.truncated and 3 < len(traj.times) < 100


def test_rows_match_the_array_form_on_a_domain_violation():
    names = ("x1", "y1")
    spray = SemiSpray(1, [parse("ln(1 - x1)", names)])
    cfg = IntegratorConfig(step=0.05, horizon=3.0, initial=PhasePoint([0.0], [1.0]))
    assert _assert_matches_reference(spray, (), cfg, None) is None


def _flow(source):
    return SemiSpray(1, [parse(source, ("x1", "y1"))])


@pytest.mark.parametrize("box", [None, {"x1": (-1.0, 5.0), "y1": (0.0, 5.0)}])
def test_rows_match_the_array_form_on_a_nan_state_that_no_stage_raises_for(box):
    # 1e308 * y1 * y1 is inf once y1 exceeds about 1.34, and inf - inf is
    # nan: every stage returns, and the state test after the step sees nan,
    # before a box test would truncate there
    spray = _flow("-0.5*(1e308*y1*y1 - 1e308*y1*y1) - 0.5*y1")
    cfg = IntegratorConfig(step=0.1, horizon=2.0, initial=PhasePoint([0.0], [0.5]))
    assert _assert_matches_reference(spray, (), cfg, None, box) is None
    with pytest.raises(GeodesicError, match=r"^non-finite state \(blow-up\) at step 9$") as exc:
        integrate_geodesic(spray, cfg, box=box)
    assert exc.value.__cause__ is None


def test_rows_match_the_array_form_where_a_later_stage_fails_first():
    # ln(1 - x1) is defined at the state that step 3 starts from, and one of
    # that step's later stages reads x1 >= 1
    spray = _flow("ln(1 - x1)")
    cfg = IntegratorConfig(step=0.25, horizon=2.0, initial=PhasePoint([0.0], [1.0]))
    assert _assert_matches_reference(spray, (), cfg, None) is None
    with pytest.raises(GeodesicError, match=r"^domain violation: .* at step 3$") as exc:
        integrate_geodesic(spray, cfg)
    assert type(exc.value.__cause__) is DomainViolation
    first = IntegratorConfig(step=0.25, horizon=0.75, initial=cfg.initial)
    x1, y1 = integrate_geodesic(spray, first).states[-1]
    assert math.isfinite(spray.coefficients[0].evaluate({"x1": x1, "y1": y1}))


def _on_bound(speed=1.0):
    # free flow at unit speed reaches x1 = 0.5 * speed exactly after two steps
    box = {"x1": (-0.5, 0.5), "y1": (-2.0, 2.0)}
    cfg = IntegratorConfig(step=0.25, horizon=1.0, initial=PhasePoint([0.0], [speed]))
    return _flow("0"), cfg, None, box


def _dissipative():
    spec = load_corpus_problem("dissipative")
    cfg = IntegratorConfig(step=1e-2, horizon=0.5, initial=PhasePoint([1.0, 1.0], [1.0, 0.5]))
    return spec.spray, cfg, spec.params, None


@pytest.mark.parametrize("speed", [1.0, -1.0])
def test_rows_match_the_array_form_on_a_boxed_run_that_lands_on_a_bound(speed):
    # the box test is inclusive: the state on the bound is kept, and the
    # next step truncates
    spray, cfg, params, box = _on_bound(speed)
    traj = _assert_matches_reference(spray, (), cfg, params, box)
    assert traj.truncated and traj.states[:, 0].tolist() == [0.0, 0.25 * speed, 0.5 * speed]


def test_rows_match_the_array_form_from_negative_zero_components():
    # -2.0 * 0.0 is -0.0, and so is -0.0 + -0.0: every sign bit survives
    cfg = IntegratorConfig(step=0.25, horizon=1.0, initial=PhasePoint([-0.0], [-0.0]))
    traj = _assert_matches_reference(_flow("0"), (), cfg, None)
    assert np.signbit(traj.states).all()


def _count_reads(monkeypatch):
    """Count, from now on, the calls of every compiled row code (however
    reached) and of ``Kernel.__call__`` (with their rows), and the step
    builds."""
    code_calls, kernel_rows, builds = [], [], []
    compile_, call, build = ex._compile, Kernel.__call__, dynamics._rk4_step

    def counted(roots, layout, constants):
        code = compile_(roots, layout, constants)
        return lambda row: code_calls.append(1) or code(row)

    monkeypatch.setattr(ex, "_compile", counted)
    monkeypatch.setattr(Kernel, "__call__", lambda k, row: kernel_rows.append(row) or call(k, row))
    monkeypatch.setattr(dynamics, "_rk4_step", lambda *args: builds.append(1) or build(*args))
    return code_calls, kernel_rows, builds


@pytest.mark.parametrize(
    "run, steps, truncated", [(_dissipative, 50, False), (_on_bound, 2, True)]
)
def test_a_run_builds_one_step_and_reads_the_spray_four_times_a_step(
    monkeypatch, run, steps, truncated
):
    spray, cfg, params, box = run()
    code_calls, kernel_rows, builds = _count_reads(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        traj = integrate_geodesic(spray, cfg, params, box=box)
    assert (len(traj.times) - 1, traj.truncated) == (steps, truncated)
    # the step that leaves the box reads the spray too, and no read goes
    # through the kernel where the row code does not raise
    assert len(code_calls) == 4 * (steps + truncated)
    assert kernel_rows == []
    assert len(builds) == 1


def test_a_run_reads_the_spray_through_the_kernel_only_on_its_failing_step(monkeypatch):
    # ln(1 - x1) fails in a later stage of step 3: that step runs again on
    # the kernel, one call per stage up to the failing one, and the tree
    # walk of the last raises
    spray = _flow("ln(1 - x1)")
    cfg = IntegratorConfig(step=0.25, horizon=2.0, initial=PhasePoint([0.0], [1.0]))
    start = integrate_geodesic(spray, IntegratorConfig(0.25, 0.75, cfg.initial)).states[-1]
    code_calls, kernel_rows, builds = _count_reads(monkeypatch)
    with pytest.raises(GeodesicError, match=r"at step 3$") as exc:
        integrate_geodesic(spray, cfg)
    assert type(exc.value.__cause__) is DomainViolation
    stages = len(kernel_rows)
    assert 1 < stages <= 4 and kernel_rows[0] == start.tolist()
    coefficient = spray.coefficients[0]
    for x1, y1 in kernel_rows[:-1]:
        assert math.isfinite(coefficient.evaluate({"x1": x1, "y1": y1}))
    with pytest.raises(DomainViolation):
        coefficient.evaluate(dict(zip(("x1", "y1"), kernel_rows[-1])))
    # the row code: four reads a step before, and the failing step's stages
    # twice, once directly and once inside each kernel call
    assert len(code_calls) == 4 * 3 + 2 * stages
    assert len(builds) == 1


def test_lagrangian_outside_phi_interval_is_out_of_interval_first():
    # at y1 = 0, L = |y1| - 1 = -1 lies below Phi's interval (-0.5, inf),
    # while C(L) = y1 sign(y1) and dL/dy1 = sign(y1) are not evaluable there;
    # Phi is applied to L before the other fields are evaluated
    names = ("x1", "y1")
    spray = SemiSpray(1, [parse("0", names)])
    lagrangian = ScalarField(1, parse("abs(y1) - 1", names))
    deformed = DeformedLagrangian(lagrangian, synthesize(PowerShift(-0.5, 0.5), (1.0, 2.0)))
    cfg = IntegratorConfig(step=0.1, horizon=1.0, initial=PhasePoint([0.0], [0.0]))
    traj = _assert_matches_reference(spray, (lagrangian, deformed), cfg, None)
    with pytest.raises(OutOfInterval):
        energy_along(traj, deformed)
    with pytest.raises(OutOfInterval):
        el_residual_along(traj, deformed)
    with pytest.raises(DomainViolation, match="sign undefined at zero"):
        energy_along(traj, lagrangian)


def test_a_parameterized_lagrangian_fails_along_the_flow_with_its_own_error():
    # L = y1^2/2 + ln(a - x1) with a = 1 is not evaluable once x1 reaches 1;
    # the walk that finds the error binds the parameter beside the state
    names = ("x1", "y1", "a")
    spray = SemiSpray(1, [parse("0", names)])
    lagrangian = ScalarField(1, parse("0.5*y1^2 + ln(a - x1)", names))
    deformed = DeformedLagrangian(lagrangian, synthesize(Affine(), (0.0, 1.0)))
    cfg = IntegratorConfig(step=0.1, horizon=1.0, initial=PhasePoint([0.5], [1.0]))
    traj = _assert_matches_reference(spray, (lagrangian, deformed), cfg, {"a": 1.0})
    for lag in (lagrangian, deformed):
        with pytest.raises(DomainViolation, match=r"in 'ln\(a - x1\)'"):
            energy_along(traj, lag)


def _forbid_rows(monkeypatch):
    """Make ``kernel(row)`` fail, and record the stacks of every
    ``Kernel.columns`` call from now on."""
    stacks = []
    columns = Kernel.columns

    def counted(kernel, stack):
        stacks.append(stack)
        return columns(kernel, stack)

    def no_rows(kernel, row):
        raise AssertionError("kernel(row) where no column call raises")

    monkeypatch.setattr(Kernel, "columns", counted)
    monkeypatch.setattr(Kernel, "__call__", no_rows)
    return stacks


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_along_flow_checks_read_a_trajectory_in_one_column_call(
    corpus_reports, monkeypatch, name
):
    # nothing raises along these trajectories: the four checks read all the
    # states in one column call of L's fields, never fall back to the row
    # path, and give the reference's bits
    spec = load_corpus_problem(name)
    lagrangians = (spec.lagrangian, _deformed_for(spec, corpus_reports[name]))
    mid = _starts(spec, 1, seed=0)[0]
    cfg = IntegratorConfig(
        step=1e-2, horizon=0.5, initial=PhasePoint(mid[: spec.n], mid[spec.n :])
    )
    traj = integrate_geodesic(spec.spray, cfg, spec.params)
    n, params, h = spec.n, traj.params, traj.step
    want = []
    for lag in lagrangians:
        want.append(_bits(lambda: _reference_energy(traj.states, n, params, lag)))
        want.append(_bits(lambda: _reference_el_residual(traj.states, n, params, lag, h)))
    stacks = _forbid_rows(monkeypatch)
    checks = [(check, lag) for lag in lagrangians for check in (energy_along, el_residual_along)]
    for (check, lag), bits in zip(checks, want):
        assert _bits(lambda: check(traj, lag)) == bits
        assert bits[0] != "error"
    assert len(stacks) == 1 and stacks[0].shape == (2 * spec.n, 51)


def test_lagrangian_leaving_phi_interval_along_the_flow_fails_on_the_column_path(
    monkeypatch,
):
    # L = y1 falls at unit rate from 0 through Phi's interval (-0.5, inf),
    # and every field is evaluable at every state: the column call succeeds
    # and Phi's triple fails at the first state at which L leaves the interval
    names = ("x1", "y1")
    spray = SemiSpray(1, [parse("0.5", names)])
    lagrangian = ScalarField(1, parse("y1", names))
    deformed = DeformedLagrangian(lagrangian, synthesize(PowerShift(-0.5, 0.5), (1.0, 2.0)))
    cfg = IntegratorConfig(step=0.1, horizon=1.0, initial=PhasePoint([0.0], [0.0]))
    _assert_matches_reference(spray, (lagrangian, deformed), cfg, None)
    traj = integrate_geodesic(spray, cfg)
    j = int(np.argmax(traj.states[:, 1] <= -0.5))
    assert 0 < j < len(traj.times) - 1
    message = f"t = {traj.states[j, 1]:g} outside"
    stacks = _forbid_rows(monkeypatch)
    for check in (energy_along, el_residual_along):
        with pytest.raises(OutOfInterval, match=message):
            check(traj, deformed)
    assert len(stacks) == 1


def test_a_geodesic_job_compiles_the_spray_row_code_only(corpus_reports, compile_calls):
    # RK4 reads the spray by rows; the four along-flow checks read one
    # kernel of L's fields by columns only, from its records, built once
    spec = load_corpus_problem("dissipative")
    deformed = _deformed_for(spec, corpus_reports["dissipative"])
    cfg = IntegratorConfig(step=1e-2, horizon=0.5, initial=PhasePoint([1.0, 1.0], [1.0, 0.5]))
    traj = integrate_geodesic(spec.spray, cfg, spec.params)
    for lag in (spec.lagrangian, deformed):
        energy_along(traj, lag)
        el_residual_along(traj, lag)
    assert compile_calls == ["_compile", "_emit", "exec", "_emit"]


@pytest.mark.parametrize(
    "x1, error, message",
    [
        # L = |y1| + ln(x1) is not evaluable: L's own error
        pytest.param(-1.0, DomainViolation, r"in 'ln\(x1\)'", id="L-fails"),
        # L = ln(0.1) lies below Phi's interval (-0.5, inf): Phi's error,
        # although C(L) and dL/dy1 fail at y1 = 0 too
        pytest.param(0.1, OutOfInterval, "outside", id="phi-out-of-interval"),
        # L = ln(2) lies inside it: the first failing field's error
        pytest.param(2.0, DomainViolation, "sign undefined at zero", id="field-fails"),
    ],
)
def test_along_flow_errors_come_as_the_reference_orders_them(x1, error, message):
    names = ("x1", "y1")
    spray = SemiSpray(1, [parse("0", names)])
    lagrangian = ScalarField(1, parse("abs(y1) + ln(x1)", names))
    deformed = DeformedLagrangian(lagrangian, synthesize(PowerShift(-0.5, 0.5), (1.0, 2.0)))
    cfg = IntegratorConfig(step=0.1, horizon=1.0, initial=PhasePoint([x1], [0.0]))
    traj = _assert_matches_reference(spray, (lagrangian, deformed), cfg, None)
    for check in (energy_along, el_residual_along):
        with pytest.raises(error, match=message):
            check(traj, deformed)


def test_the_step_code_is_compiled_once_per_chart_shape(monkeypatch):
    # the step's code depends on n and on whether a box is tested; h and the
    # box bounds are names that each run binds
    execs = []
    monkeypatch.setattr(dynamics, "exec", lambda *a: execs.append(1) or exec(*a), raising=False)
    dynamics._step_code.cache_clear()
    spray, cfg, _, box = _on_bound()
    finer = IntegratorConfig(step=0.1, horizon=1.0, initial=PhasePoint([0.0], [1.0]))
    narrower = {"x1": (-0.25, 0.25), "y1": (0.0, 2.0)}
    runs = [
        (spray, cfg, None, box, 1),
        (spray, finer, None, narrower, 1),
        # unboxed after boxed at the same n: the free flow passes x1 = 0.5
        (spray, cfg, None, None, 2),
        # a new n
        (*_dissipative(), 3),
    ]
    for spray, cfg, params, box, compiled in runs:
        traj = _assert_matches_reference(spray, (), cfg, params, box)
        assert traj.truncated == (box is not None)
        assert len(execs) == compiled
    assert dynamics._rk4_step(1, 0.5, None).__code__ is dynamics._step_code(1, False)
    assert dynamics._step_code(1, False) is not dynamics._step_code(1, True)
    assert len(execs) == 3


def _check_bits(traj, lag):
    """The bits of both along-flow checks of ``lag`` and of their references."""
    n, params, h = traj.n, traj.params, traj.step
    got = (_bits(lambda: energy_along(traj, lag)), _bits(lambda: el_residual_along(traj, lag)))
    want = (
        _bits(lambda: _reference_energy(traj.states, n, params, lag)),
        _bits(lambda: _reference_el_residual(traj.states, n, params, lag, h)),
    )
    return got, want


def test_a_field_failing_where_a_check_does_not_read_it_leaves_that_check_its_values(
    monkeypatch,
):
    # at x1 = 0, dL/dx1 = sign(x1) raises while L and C(L) do not: the one
    # column call of L's fields marks that state alone, and each check then
    # reads it by rows, only its own items, so the energy has its values and
    # the residual the reference's error
    names = ("x1", "y1")
    spray = SemiSpray(1, [parse("0", names)])
    lagrangian = ScalarField(1, parse("y1*y1 + abs(x1)", names))
    deformed = DeformedLagrangian(lagrangian, synthesize(Affine(), (0.0, 1.0)))
    cfg = IntegratorConfig(step=0.1, horizon=1.0, initial=PhasePoint([0.0], [1.0]))
    traj = integrate_geodesic(spray, cfg)
    marks = []
    columns = Kernel.columns

    def counted(kernel, stack):
        lines, marked = columns(kernel, stack)
        marks.append(marked)
        return lines, marked

    monkeypatch.setattr(Kernel, "columns", counted)
    for lag in (lagrangian, deformed):
        got, want = _check_bits(traj, lag)
        assert got == want
        assert got[0][0] != "error"
        assert got[1][:3] == ("error", DomainViolation, "sign undefined at zero in 'sign(x1)'")
    assert marks == [{0}] and traj.states[0, 0] == 0.0


def test_a_trajectory_reads_each_lagrangian_and_each_deformation_on_its_own(monkeypatch):
    # the trajectory keeps each checked L and Phi alive beside its lines, so a
    # new L cannot take a dropped one's id and read its lines, and each
    # deformation of one L gets its own chain, once
    names = ("x1", "y1")
    spray = SemiSpray(1, [parse("0.1*y1", names)])
    cfg = IntegratorConfig(step=0.1, horizon=1.0, initial=PhasePoint([0.5], [1.0]))
    traj = integrate_geodesic(spray, cfg)
    for source in ("0.5*y1^2 + x1", "y1^2 - x1^2", "exp(y1) + 2*x1"):
        lag = ScalarField(1, parse(source, names))
        got, want = _check_bits(traj, lag)
        assert got == want and got[0][0] != "error"
        del lag, got, want
    chains = []
    chain = dynamics.chain
    monkeypatch.setattr(dynamics, "chain", lambda phi, ts: chains.append(phi) or chain(phi, ts))
    lagrangian = ScalarField(1, parse("0.5*y1^2", names))
    phis = [synthesize(Constant(0.5), (0.0, 0.0)), synthesize(PowerShift(1.0, 2.0), (0.5, 1.0))]
    for phi in phis:
        got, want = _check_bits(traj, DeformedLagrangian(lagrangian, phi))
        assert got == want and got[0][0] != "error"
    assert chains == phis
