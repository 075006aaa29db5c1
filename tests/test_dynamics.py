import math

import numpy as np
import pytest

from lagdeform.corpus import load_corpus_problem
from lagdeform.deformation import DeformedLagrangian, synthesize
from lagdeform.dynamics import (
    GeodesicError,
    IntegratorConfig,
    TooShort,
    dissipation_along,
    el_residual_along,
    energy_along,
    integrate_geodesic,
    trajectory_to_csv,
)
from lagdeform.expressions import parse
from lagdeform.families import PowerShift
from lagdeform.geometry import PhasePoint, ScalarField, SemiSpray

from systems import damped_oscillator, drag_system, free_particle, rayleigh_drag


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
# dissipation traces
# ---------------------------------------------------------------------------


def test_dissipation_damped_oscillator_rate_identity():
    sys = damped_oscillator()
    cfg = IntegratorConfig(
        step=1e-3, horizon=1.0, initial=PhasePoint([1.0, 0.5], [1.0, 0.8])
    )
    traj = integrate_geodesic(sys["spray"], cfg, sys["params"])
    trace = dissipation_along(traj, sys["lagrangian"], sys["dissipation"])
    assert trace.rate_matches
    assert not trace.rayleigh


def test_dissipation_zero_on_conservative():
    sys = free_particle(2)
    zero = ScalarField(2, parse("0", ("x1",)))
    cfg = IntegratorConfig(
        step=1e-2, horizon=1.0, initial=PhasePoint([0.0, 0.0], [1.0, 1.0])
    )
    traj = integrate_geodesic(sys["spray"], cfg, sys["params"])
    trace = dissipation_along(traj, sys["lagrangian"], zero)
    assert trace.rate_matches
    assert np.all(trace.energy_rate == 0.0)
    assert np.all(trace.dissipation_rate == 0.0)


def test_dissipation_rayleigh_monotone_decay():
    sys = rayleigh_drag()
    cfg = IntegratorConfig(
        step=1e-3, horizon=1.0, initial=PhasePoint([0.0, 0.0], [1.0, 0.7])
    )
    traj = integrate_geodesic(sys["spray"], cfg, sys["params"])
    trace = dissipation_along(traj, sys["lagrangian"], sys["dissipation"])
    assert trace.rate_matches
    assert trace.rayleigh
    assert trace.rayleigh_matches
    assert trace.always_negative
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
