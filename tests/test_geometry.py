import random

import pytest

from lagdeform.conditions import DerivedFields
from lagdeform.expressions import evaluate, parse
from lagdeform.geometry import (
    DimensionMismatch,
    PhasePoint,
    ScalarField,
    SemiSpray,
    energy,
    fiber_hessian,
    homogeneity_degree,
    lagrange_differential,
    liouville_apply,
    spray_apply,
    vertical_differential,
)

from systems import binding, damped_oscillator, free_particle, homogeneous_example, lienard, row_of

XY2 = ("x1", "x2", "y1", "y2")


def random_points(rng, n, count, lo=0.3, hi=1.8):
    pts = []
    for _ in range(count):
        pts.append(
            PhasePoint(
                [rng.uniform(lo, hi) for _ in range(n)],
                [rng.uniform(lo, hi) for _ in range(n)],
            )
        )
    return pts


def rows(pts):
    return [row_of(p) for p in pts]


# ---------------------------------------------------------------------------
# Liouville operator
# ---------------------------------------------------------------------------


def test_liouville_kinetic_doubles():
    L = ScalarField(2, parse("0.5*(y1^2 + y2^2)", XY2))
    CL = liouville_apply(L)
    b = {"x1": 0.0, "x2": 0.0, "y1": 2.0, "y2": 1.0}
    assert evaluate(CL.expr, b) == pytest.approx(2.0 * evaluate(L.expr, b))


def test_liouville_base_function_vanishes():
    F = ScalarField(2, parse("x1", XY2))
    assert evaluate(liouville_apply(F).expr, {"x1": 3.0, "y1": 1.0, "y2": 1.0}) == 0.0


def test_liouville_lienard():
    sys = lienard()
    CL = liouville_apply(sys["lagrangian"])
    b = binding([1.0, 1.0], 1, sys["params"])
    assert evaluate(CL.expr, b) == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# spray derivative
# ---------------------------------------------------------------------------


def test_spray_apply_damped_oscillator_point():
    sys = damped_oscillator()
    SL = spray_apply(sys["spray"], sys["lagrangian"])
    b = binding([1.0, 0.0, 2.0, 1.0], 2, sys["params"])
    assert evaluate(SL.expr, b) == pytest.approx(-4.0)


def test_spray_apply_constant_vanishes():
    sys = damped_oscillator()
    F = ScalarField(2, parse("3.5", XY2))
    SL = spray_apply(sys["spray"], F)
    b = binding([0.4, 0.2, 1.0, 0.5], 2, sys["params"])
    assert evaluate(SL.expr, b) == 0.0


def test_spray_apply_lienard_is_twice_lagrangian():
    sys = lienard()
    SL = spray_apply(sys["spray"], sys["lagrangian"])
    b = binding([1.0, 1.0], 1, sys["params"])
    assert evaluate(SL.expr, b) == pytest.approx(18.0)


def test_spray_apply_dimension_mismatch():
    sys = damped_oscillator()
    with pytest.raises(DimensionMismatch):
        spray_apply(sys["spray"], ScalarField(3, parse("y3", ("y3",))))


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def test_energy_kinetic_equals_lagrangian():
    L = ScalarField(2, parse("0.5*(y1^2 + y2^2)", XY2))
    E = energy(L)
    b = {"x1": 0.0, "x2": 0.0, "y1": 2.0, "y2": 1.0}
    assert evaluate(E.expr, b) == pytest.approx(2.5)


def test_energy_homogeneous_scaling():
    # degree-p Lagrangian has E = (p - 1) L
    sys = homogeneous_example()
    E = energy(sys["lagrangian"])
    rng = random.Random(5)
    for p in random_points(rng, 3, 10):
        b = binding(row_of(p), p.n)
        assert evaluate(E.expr, b) == pytest.approx(
            evaluate(sys["lagrangian"].expr, b), rel=1e-12
        )


def test_energy_degree_one_vanishes():
    L = ScalarField(1, parse("y1", ("x1", "y1")))
    E = energy(L)
    assert evaluate(E.expr, {"x1": 0.3, "y1": 1.7}) == 0.0


# ---------------------------------------------------------------------------
# vertical and Lagrange differentials
# ---------------------------------------------------------------------------


def test_vertical_differential_kinetic():
    L = ScalarField(2, parse("0.5*(y1^2 + y2^2)", XY2))
    dJL = vertical_differential(L)
    b = {"x1": 0.0, "x2": 0.0, "y1": 2.0, "y2": 1.0}
    assert [evaluate(c, b) for c in dJL.components] == [2.0, 1.0]


def test_vertical_differential_base_function():
    F = ScalarField(2, parse("x1", XY2))
    dJ = vertical_differential(F)
    b = {"x1": 1.0, "x2": 0.0, "y1": 0.5, "y2": 0.5}
    assert [evaluate(c, b) for c in dJ.components] == [0.0, 0.0]


def test_vertical_differential_lienard():
    sys = lienard()
    dJL = vertical_differential(sys["lagrangian"])
    b = binding([1.0, 1.0], 1, sys["params"])
    assert evaluate(dJL.components[0], b) == pytest.approx(6.0)


def test_lagrange_differential_lienard():
    sys = lienard()
    delta = lagrange_differential(sys["spray"], sys["lagrangian"])
    b = binding([1.0, 1.0], 1, sys["params"])
    assert evaluate(delta.components[0], b) == pytest.approx(-6.0)


def test_lagrange_differential_free_particle_vanishes():
    sys = free_particle(3)
    delta = lagrange_differential(sys["spray"], sys["lagrangian"])
    rng = random.Random(2)
    for p in random_points(rng, 3, 5):
        b = binding(row_of(p), p.n)
        assert all(evaluate(c, b) == 0.0 for c in delta.components)


def test_lagrange_differential_damped_oscillator_point():
    sys = damped_oscillator()
    delta = lagrange_differential(sys["spray"], sys["lagrangian"])
    b = binding([1.0, 0.0, 2.0, 1.0], 2, sys["params"])
    got = [evaluate(c, b) for c in delta.components]
    assert got == pytest.approx([-3.0, 2.0])


def test_lagrange_differential_linearity():
    sys = free_particle(2)
    names = XY2
    L1 = ScalarField(2, parse("0.5*(y1^2 + y2^2) + x1*y2", names))
    L2 = ScalarField(2, parse("x2^2*y1 + sin(x1)*y2", names))
    combo = ScalarField(2, parse("1.5*(0.5*(y1^2 + y2^2) + x1*y2) - 2*(x2^2*y1 + sin(x1)*y2)", names))
    d1 = lagrange_differential(sys["spray"], L1)
    d2 = lagrange_differential(sys["spray"], L2)
    dc = lagrange_differential(sys["spray"], combo)
    rng = random.Random(11)
    for p in random_points(rng, 2, 10):
        b = binding(row_of(p), p.n)
        for i in range(2):
            want = 1.5 * evaluate(d1.components[i], b) - 2.0 * evaluate(d2.components[i], b)
            assert evaluate(dc.components[i], b) == pytest.approx(want, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# fiber Hessian
# ---------------------------------------------------------------------------


def test_fiber_hessian_kinetic_identity():
    L = ScalarField(2, parse("0.5*(y1^2 + y2^2)", XY2))
    g = fiber_hessian(L)
    b = {"x1": 0.0, "x2": 0.0, "y1": 0.7, "y2": -0.2}
    vals = [[evaluate(g[i][j], b) for j in range(2)] for i in range(2)]
    assert vals == [[1.0, 0.0], [0.0, 1.0]]


def test_fiber_hessian_lienard():
    sys = lienard()
    g = fiber_hessian(sys["lagrangian"])
    b = binding([0.4, 1.2], 1, sys["params"])
    assert evaluate(g[0][0], b) == pytest.approx(2.0)


def test_fiber_hessian_root_kinetic_rank_one():
    # Hessian of sqrt(y1^2 + y2^2) at y = (2, 1): (1/5^{3/2}) [[1, -2], [-2, 4]]
    L = ScalarField(2, parse("sqrt(y1^2 + y2^2)", XY2))
    g = fiber_hessian(L)
    b = {"x1": 0.0, "x2": 0.0, "y1": 2.0, "y2": 1.0}
    s = 1.0 / 5.0**1.5
    want = [[s, -2 * s], [-2 * s, 4 * s]]
    for i in range(2):
        for j in range(2):
            assert evaluate(g[i][j], b) == pytest.approx(want[i][j], rel=1e-12)


def test_fiber_hessian_symmetry():
    names = XY2
    L = ScalarField(2, parse("exp(x1*y1)*y2^2 + ln(y1^2 + y2^2 + 1)*x2", names))
    g = fiber_hessian(L)
    rng = random.Random(3)
    for p in random_points(rng, 2, 20):
        b = binding(row_of(p), p.n)
        for i in range(2):
            for j in range(2):
                assert evaluate(g[i][j], b) == pytest.approx(
                    evaluate(g[j][i], b), rel=1e-12, abs=1e-12
                )


# ---------------------------------------------------------------------------
# contraction identities, on one kernel call per row
# ---------------------------------------------------------------------------


def _contractions(sys, seed):
    """Per row of 25 random points: sum y_i (d_J L)_i - C(L) and
    sum y_i (delta_S L)_i - S(E_L), each with its scale 1 + |a| + |c|."""
    n = sys["n"]
    d = DerivedFields(sys["spray"], sys["lagrangian"], sys["params"])
    roots = (d.liouville_of_L.expr, d.energy_rate.expr)
    kernel = d.kernel(roots + d.vertical.components + d.defect.components)
    out = []
    for row in rows(random_points(random.Random(seed), n, 25)):
        v = kernel(row)
        y = row[n:]
        for c, form in ((v[0], v[2 : 2 + n]), (v[1], v[2 + n :])):
            a = sum(y_i * w_i for y_i, w_i in zip(y, form))
            out.append((a - c, 1.0 + abs(a) + abs(c)))
    return out


@pytest.mark.parametrize("factory", [damped_oscillator, lienard, homogeneous_example])
def test_contract_vertical_differential_is_liouville(factory):
    for gap, scale in _contractions(factory(), 7)[0::2]:
        assert abs(gap) <= 1e-10 * scale


@pytest.mark.parametrize("factory", [damped_oscillator, lienard, homogeneous_example])
def test_contract_lagrange_differential_is_energy_rate(factory):
    for gap, scale in _contractions(factory(), 13)[1::2]:
        assert abs(gap) <= 1e-10 * scale


def test_contract_zero_form():
    # the free particle's defect is the zero form, and S(E_L) is zero
    for gap, scale in _contractions(free_particle(2), 3)[1::2]:
        assert (gap, scale) == (0.0, 1.0)


# ---------------------------------------------------------------------------
# homogeneity
# ---------------------------------------------------------------------------


def test_homogeneity_conformal_kinetic_is_two():
    sys = homogeneous_example()
    rng = random.Random(17)
    pts = random_points(rng, 3, 20)
    assert homogeneity_degree(sys["lagrangian"], rows(pts)) == pytest.approx(2.0, abs=1e-9)


def test_homogeneity_inhomogeneous_sum_is_none():
    L = ScalarField(2, parse("0.5*(y1^2 + y2^2) + x1", XY2))
    rng = random.Random(19)
    assert homogeneity_degree(L, rows(random_points(rng, 2, 20))) is None


def test_homogeneity_root_lagrangian_is_one():
    sys = homogeneous_example()
    root = ScalarField(3, parse("sqrt(0.5*exp(2*x1)*(y1^2 + y2^2 + y3^2))", sys["lagrangian"].expr.free_vars()))
    rng = random.Random(23)
    pts = random_points(rng, 3, 20)
    assert homogeneity_degree(root, rows(pts)) == pytest.approx(1.0, abs=1e-9)


def test_homogeneity_spray_degree_two():
    sys = homogeneous_example()
    rng = random.Random(29)
    pts = random_points(rng, 3, 20)
    assert homogeneity_degree(sys["spray"], rows(pts)) == 2.0


def test_homogeneity_spray_not_quadratic():
    sys = damped_oscillator()
    rng = random.Random(31)
    pts = random_points(rng, 2, 20)
    assert homogeneity_degree(sys["spray"], rows(pts), params=sys["params"]) is None


def test_euler_relation_at_detected_degree():
    sys = homogeneous_example()
    rng = random.Random(37)
    pts = random_points(rng, 3, 20)
    p = homogeneity_degree(sys["lagrangian"], rows(pts))
    CL = liouville_apply(sys["lagrangian"])
    for pt in pts:
        b = binding(row_of(pt), pt.n)
        cl = evaluate(CL.expr, b)
        l = evaluate(sys["lagrangian"].expr, b)
        assert abs(cl - p * l) <= 1e-9 * (1.0 + abs(l))


# x1*x1 - x1*x1 is NaN at x1 = 1e200, where x1*x1 overflows, and 0 elsewhere;
# no DomainViolation is raised on the way
_NAN_ROWS = [[1.0, 1.0], [1e200, 1.0]]


def test_homogeneity_skips_a_row_where_the_field_is_nan_in_either_order():
    field = ScalarField(1, parse("y1*y1 + (x1*x1 - x1*x1)*y1", ("x1", "y1")))
    assert homogeneity_degree(field, _NAN_ROWS) == 2.0
    assert homogeneity_degree(field, _NAN_ROWS[::-1]) == 2.0


def test_homogeneity_is_none_where_a_scaled_value_is_nan_in_either_order():
    # x1*x1*y1 overflows at x1 = 1e154 only once y1 is scaled by 2 or 3
    field = ScalarField(1, parse("y1*y1 + (x1*x1*y1 - x1*x1*y1)", ("x1", "y1")))
    rows_ = [[1.0, 1.0], [1e154, 1.0]]
    assert homogeneity_degree(field, rows_) is None
    assert homogeneity_degree(field, rows_[::-1]) is None


def test_a_spray_coefficient_that_is_nan_somewhere_is_not_zero():
    spray = SemiSpray(1, [parse("x1*x1 - x1*x1", ("x1", "y1"))])
    assert homogeneity_degree(spray, _NAN_ROWS) is None
    assert homogeneity_degree(spray, _NAN_ROWS[::-1]) is None


# ---------------------------------------------------------------------------
# phase points
# ---------------------------------------------------------------------------


def test_phase_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        PhasePoint([float("nan")], [1.0])
