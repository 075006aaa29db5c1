"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 2 pins the exp-class deformed-Hessian rank at exactly 2. Phi(L) is
affine in Q = x1 y1 + x2 y2 + x3 y3 + y1^2 + y2^2, hence affine in y3, so its
fiber Hessian is e^{ab} diag(2, 2, 0) everywhere (corpus/NOTES.md). The test
confirms that rank with a finite-difference oracle that does not use the
symbolic derivatives or the Hessian report it checks.
"""

import math
import random
import time
from importlib import resources

import numpy as np
import pytest

from lagdeform.conditions import DerivedFields
from lagdeform.corpus import CORPUS_NAMES, load_corpus_problem
from lagdeform.deformation import DeformedLagrangian, synthesize
from lagdeform.dynamics import IntegratorConfig, energy_along, integrate_geodesic
from lagdeform.expressions import (
    DomainViolation,
    chart_names,
    evaluate,
    evaluate_dual,
    parse,
    partial,
)
from lagdeform.families import Constant, HomogeneousRoot, Logarithmic, Moebius, PowerShift
from lagdeform.geometry import (
    PhasePoint,
    ScalarField,
    SemiSpray,
    homogeneity_degree,
    lagrange_differential,
)
from lagdeform.pipeline import problem_from_dict, run_pipeline
from lagdeform.sampling import Guards, draw_samples
from systems import rayleigh_problem
from test_expressions import random_expression, sample_valid_point


def emit(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def docs():
    out = {}
    for name in CORPUS_NAMES:
        spec = load_corpus_problem(name)
        t0 = time.perf_counter()
        out[name] = (run_pipeline(spec, mode="verify"), time.perf_counter() - t0)
    return out


def affine_gap(phi_values, target_values):
    """Best-affine-map residual of phi against target, anchored at the ends."""
    t = np.asarray(target_values)
    p = np.asarray(phi_values)
    alpha = (p[-1] - p[0]) / (t[-1] - t[0])
    beta = p[0] - alpha * t[0]
    return float(np.max(np.abs(p - (alpha * t + beta)))), alpha


# ---------------------------------------------------------------------------
# 1. dissipative pipeline
# ---------------------------------------------------------------------------


def test_criterion_1_dissipative(docs):
    doc, seconds = docs["dissipative"]
    ok = True
    ok &= doc.sigma_condition.accepted >= 500
    ok &= doc.sigma_condition.max_residual <= 1e-9
    ok &= isinstance(doc.fit.chosen, PowerShift)
    ok &= abs(doc.fit.chosen.gamma + 0.5) <= 1e-6
    ok &= abs(doc.fit.chosen.a) <= 1e-6
    ts = np.linspace(0.3, 4.0, 50)
    gap, alpha = affine_gap(
        [doc.deformation.triple(t)[0] for t in ts], [math.sqrt(t) for t in ts]
    )
    ok &= gap <= 1e-9 and alpha > 0
    ok &= doc.verify.direct.passed and doc.verify.direct.max_residual <= 1e-9
    ok &= (doc.deformed_hessian_report.min_rank, doc.deformed_hessian_report.max_rank) == (1, 1)
    ok &= seconds < 5.0
    emit(
        1,
        ok,
        f"sigma residual {doc.sigma_condition.max_residual:.2e} on "
        f"{doc.sigma_condition.accepted} samples, "
        f"{doc.fit.describe()}, sqrt-gap {gap:.2e}, "
        f"verify {doc.verify.direct.max_residual:.2e}, "
        f"rank {doc.deformed_hessian_report.min_rank}, {seconds:.2f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. exp-class pipeline (deformed Hessian singular: rank 2, checked by FD)
# ---------------------------------------------------------------------------


def fd_fiber_hessian(value, binding, n, h=1e-3):
    """Central second differences of ``value`` in y1..yn at ``binding``."""

    def at(shifts):
        b = dict(binding)
        for i, d in shifts:
            b[f"y{i + 1}"] += d
        return value(b)

    f0 = value(binding)
    hess = np.empty((n, n))
    for i in range(n):
        hess[i, i] = (at([(i, h)]) - 2.0 * f0 + at([(i, -h)])) / h**2
        for j in range(i):
            hess[i, j] = hess[j, i] = (
                at([(i, h), (j, h)])
                - at([(i, h), (j, -h)])
                - at([(i, -h), (j, h)])
                + at([(i, -h), (j, -h)])
            ) / (4.0 * h**2)
    return hess


def test_criterion_2_exp_class(docs):
    doc, _ = docs["exp-class"]
    spec = doc.problem
    ok_class = isinstance(doc.fit.chosen, Constant) and abs(doc.fit.chosen.gamma - 1.0) <= 1e-6

    # Phi(L) affine-equivalent to b*Q - c at 100 points
    rng = random.Random(2026)

    def value(b):
        return doc.deformation.triple(evaluate(spec.lagrangian.expr, b))[0]

    names = chart_names(3)
    target_expr = parse(
        "b*(x1*y1 + x2*y2 + x3*y3 + y1^2 + y2^2) - c", tuple(names) + ("b", "c")
    )
    points, phi_vals, target_vals = [], [], []
    while len(phi_vals) < 100:
        b = {v: rng.uniform(0.5, 2.0) for v in names}
        b.update(spec.params)
        try:
            phi_vals.append(value(b))
        except DomainViolation:
            continue
        points.append(b)
        target_vals.append(evaluate(target_expr, b))
    gap, _ = affine_gap(phi_vals, target_vals)
    ok_affine = gap <= 1e-8

    # Independent rank oracle on the same points: singular values of the
    # finite-difference fiber Hessian of Phi(L), counted above a clear gap.
    s2_min, s3_max, y3_row_max = math.inf, 0.0, 0.0
    oracle = []
    for b in points:
        hess = fd_fiber_hessian(value, b, 3)
        s = np.linalg.svd(hess, compute_uv=False)
        s2_min = min(s2_min, s[1] / s[0])
        s3_max = max(s3_max, s[2] / s[0])
        y3_row_max = max(y3_row_max, np.max(np.abs(hess[2])) / np.max(np.abs(hess)))
        oracle.append(int(np.sum(s >= 1e-3 * s[0])))
    ok_gap = s2_min >= 1e-3 and s3_max <= 1e-6
    ok_y3 = y3_row_max <= 1e-6
    oracle_ranks = (min(oracle), max(oracle))

    base_ranks = (doc.base_hessian.min_rank, doc.base_hessian.max_rank)
    ranks = (doc.deformed_hessian_report.min_rank, doc.deformed_hessian_report.max_rank)
    ok_rank = ranks == (2, 2) and ranks == oracle_ranks
    ok_verdict = doc.verdict == "DeformableSingular" and base_ranks == (3, 3)
    ok = ok_class and ok_affine and ok_gap and ok_y3 and ok_rank and ok_verdict
    emit(
        2,
        ok,
        f"{doc.fit.describe()}, affine gap {gap:.2e}, deformed rank {ranks} "
        f"(FD oracle {oracle_ranks}: s2/s1 >= {s2_min:.2f}, s3/s1 <= {s3_max:.1e}, "
        f"y3 row <= {y3_row_max:.1e}), base rank {base_ranks}, verdict {doc.verdict}",
    )
    assert ok_class
    assert ok_affine
    assert ok_gap, f"no clear singular-value gap: s2/s1 min {s2_min:.2e}, s3/s1 max {s3_max:.2e}"
    assert ok_y3, f"y3 row of the FD Hessian is not zero: {y3_row_max:.2e} of its scale"
    assert ok_rank, (
        f"deformed Hessian rank {ranks}, FD oracle {oracle_ranks}; expected exactly 2: "
        "Phi(L) is affine in y3 (corpus/NOTES.md)"
    )
    assert ok_verdict, f"verdict {doc.verdict}, base rank {base_ranks}"


# ---------------------------------------------------------------------------
# 3. log-class and Moebius pipelines
# ---------------------------------------------------------------------------


def test_criterion_3_log_and_moebius(docs):
    log_doc, _ = docs["log-class"]
    ok = isinstance(log_doc.fit.chosen, Logarithmic)
    ok &= abs(log_doc.fit.chosen.a) <= 1e-6
    ok &= log_doc.verify.direct.passed and log_doc.verify.direct.max_residual <= 1e-9

    mob_doc, _ = docs["moebius"]
    ok &= isinstance(mob_doc.fit.chosen, Moebius)
    ok &= abs(mob_doc.fit.chosen.c - 0.5) <= 1e-5
    ok &= abs(mob_doc.fit.chosen.d - 1.0) <= 1e-5
    ok &= mob_doc.verify.direct.passed and mob_doc.verify.direct.max_residual <= 1e-9
    ok &= (mob_doc.base_hessian.min_rank, mob_doc.base_hessian.max_rank) == (3, 3)
    ok &= (
        mob_doc.deformed_hessian_report.min_rank,
        mob_doc.deformed_hessian_report.max_rank,
    ) == (3, 3)
    emit(
        3,
        ok,
        f"log: {log_doc.fit.describe()} verify {log_doc.verify.direct.max_residual:.2e}; "
        f"moebius: {mob_doc.fit.describe()} verify {mob_doc.verify.direct.max_residual:.2e}, "
        f"ranks L={mob_doc.base_hessian.min_rank} PhiL={mob_doc.deformed_hessian_report.min_rank}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. homogeneous pipeline
# ---------------------------------------------------------------------------


def test_criterion_4_homogeneous(docs):
    doc, _ = docs["homogeneous"]
    spec = doc.problem
    plan = spec.plan(count=200)
    rows = draw_samples(plan, Guards(evaluable=(spec.lagrangian.expr,)), spec.params).rows
    p_l = homogeneity_degree(spec.lagrangian, rows, spec.params)
    ok = p_l is not None and abs(p_l - 2.0) <= 1e-9
    for comp in spec.sigma.components:
        deg = homogeneity_degree(ScalarField(3, comp), rows, spec.params)
        ok &= deg is not None and abs(deg - 2.0) <= 1e-9
    ok &= doc.theorem2 is not None and doc.theorem2.passed
    ok &= doc.theorem2.wedge_residual <= 1e-10
    ok &= doc.theorem2.phi_class == HomogeneousRoot(2.0)
    phi2 = synthesize(doc.theorem2.phi_class, (0.3, 30.0))
    ts = np.linspace(0.3, 30.0, 60)
    gap, alpha = affine_gap(
        [phi2.triple(float(t))[0] for t in ts], [math.sqrt(t) for t in ts]
    )
    ok &= gap <= 1e-9 and alpha > 0
    ranks = (doc.deformed_hessian_report.min_rank, doc.deformed_hessian_report.max_rank)
    ok &= ranks == (2, 2)
    ok &= doc.verdict == "DeformableSingular"
    emit(
        4,
        ok,
        f"degrees L=sigma={p_l:.12g}, wedge {doc.theorem2.wedge_residual:.2e}, "
        f"sqrt-gap {gap:.2e}, deformed rank {ranks}, verdict {doc.verdict}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. Lienard instance with the corrected slope sign
# ---------------------------------------------------------------------------


def test_criterion_5_lienard(docs):
    doc, _ = docs["lienard"]
    # the (L, f) cloud of the run's dependence test, against +1/(2 alpha L)
    alpha = doc.problem.params["alpha"]
    worst = 0.0
    for l_val, f_val in doc.dependence.cloud:
        worst = max(worst, abs(f_val - 1.0 / (2.0 * alpha * l_val)) / (1.0 + abs(f_val)))
    ok = len(doc.dependence.cloud) >= 300 and worst <= 1e-9
    ts = np.linspace(2.0, 36.0, 50)
    gap, alpha = affine_gap(
        [doc.deformation.triple(float(t))[0] for t in ts], [t**1.5 for t in ts]
    )
    ok &= gap <= 1e-8 and alpha > 0
    ok &= doc.verify.direct.passed and doc.verify.direct.max_residual <= 1e-9
    notes = (resources.files("lagdeform") / "corpus" / "NOTES.md").read_text()
    ok &= "+ sign" in notes and "-1/(2 alpha L)" in notes
    emit(
        5,
        ok,
        f"slope +1/(2L) to {worst:.2e}, L^(3/2) gap {gap:.2e}, "
        f"verify {doc.verify.direct.max_residual:.2e}, sign note present",
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. identity suite on randomized systems
# ---------------------------------------------------------------------------


def _random_polynomial(rng, names):
    terms = []
    for _ in range(rng.randint(2, 4)):
        c = round(rng.uniform(-0.8, 0.8), 3)
        factors = [rng.choice(names)]
        if rng.random() < 0.6:
            factors.append(rng.choice(names))
        terms.append(f"{c}*" + "*".join(factors))
    return " + ".join(terms)


def _random_system(rng, idx):
    n = 1 + idx % 3
    names = chart_names(n)
    spray = SemiSpray(n, [parse(_random_polynomial(rng, names), names) for _ in range(n)])
    kinetic = " + ".join(
        f"{round(rng.uniform(0.5, 1.5), 3)}*y{i}^2" for i in range(1, n + 1)
    )
    lagrangian = ScalarField(
        n, parse(f"0.5*({kinetic}) + {_random_polynomial(rng, names)}", names)
    )
    return n, spray, lagrangian


def test_criterion_6_identity_suite():
    rng = random.Random(20260810)
    worst = {"contraction": 0.0, "energy_rate": 0.0, "expansion": 0.0}
    for idx in range(20):
        n, spray, lagrangian = _random_system(rng, idx)
        derived = DerivedFields(spray, lagrangian)
        phi = synthesize(Constant(0.4), (-10.0, 10.0))
        composed = DeformedLagrangian(lagrangian, phi).composed()
        direct = lagrange_differential(spray, composed)
        # L, C(L), S(E_L), S(L), then d_J L, delta_S L and the direct form
        kernel = derived.kernel(
            (lagrangian.expr, derived.liouville_of_L.expr, derived.energy_rate.expr)
            + (derived.spray_of_L.expr,)
            + derived.vertical.components
            + derived.defect.components
            + direct.components
        )
        for _ in range(200):
            x = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            y = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            v = kernel(x + y)
            vertical, defect, direct_values = v[4 : 4 + n], v[4 + n : 4 + 2 * n], v[4 + 2 * n :]
            a1, b1 = sum(y_i * w_i for y_i, w_i in zip(y, vertical)), v[1]
            worst["contraction"] = max(
                worst["contraction"], abs(a1 - b1) / (1.0 + abs(a1) + abs(b1))
            )
            a2, b2 = sum(y_i * w_i for y_i, w_i in zip(y, defect)), v[2]
            worst["energy_rate"] = max(
                worst["energy_rate"], abs(a2 - b2) / (1.0 + abs(a2) + abs(b2))
            )
            d1, d2 = phi.triple(v[0])[1:]
            for i in range(n):
                lhs = direct_values[i]
                rhs = d2 * v[3] * vertical[i] + d1 * defect[i]
                worst["expansion"] = max(
                    worst["expansion"], abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))
                )
    ok = all(v <= 1e-9 for v in worst.values())
    emit(
        6,
        ok,
        "20 systems x 200 points: contraction {contraction:.2e}, "
        "energy rate {energy_rate:.2e}, expansion {expansion:.2e}".format(**worst),
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. derivative oracle
# ---------------------------------------------------------------------------


def test_criterion_7_derivative_oracle():
    rng = random.Random(7751)
    names = ("x1", "x2", "y1", "y2")
    triples = 0
    worst_dual = 0.0
    worst_fd = 0.0
    fd_checked = 0
    while triples < 1000:
        e = random_expression(rng, names, rng.randint(1, 4))
        b = sample_valid_point(rng, e, names)
        if b is None:
            continue
        in_use = sorted(e.free_vars())
        var = rng.choice(in_use) if in_use else rng.choice(names)
        try:
            sym = evaluate(partial(e, var), b)
            _, dual = evaluate_dual(e, b, var)
            h = 1e-6
            up = evaluate(e, {**b, var: b[var] + h})
            dn = evaluate(e, {**b, var: b[var] - h})
        except DomainViolation:
            continue
        triples += 1
        worst_dual = max(worst_dual, abs(sym - dual) / (1.0 + abs(sym)))
        fd = (up - dn) / (2.0 * h)
        scale = max(abs(sym), abs(fd))
        if scale > 1e-3:  # skip degenerate (near-critical) points for the FD leg
            fd_checked += 1
            worst_fd = max(worst_fd, abs(fd - sym) / scale)
    ok = worst_dual <= 1e-10 and worst_fd <= 1e-5 and fd_checked >= 800
    emit(
        7,
        ok,
        f"1000 triples: sym-vs-dual {worst_dual:.2e}, "
        f"sym-vs-FD {worst_fd:.2e} on {fd_checked} non-degenerate points",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. dynamics: integrator order and energy behaviour on the corpus
# ---------------------------------------------------------------------------

TRAJECTORY_STARTS = {
    "dissipative": ([1.0, 1.0], [0.5, 2.0]),
    "exp-class": ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
    "lienard": ([1.0], [0.5]),
    "log-class": ([0.5, 1.0, 0.5], [1.0, 0.5, 1.0]),
    "moebius": ([1.0, 1.0, 1.0], [0.5, 0.5, 0.5]),
    "homogeneous": ([0.3, 0.3, 0.3], [0.3, 0.2, 0.2]),
}


def test_criterion_8_dynamics(docs):
    # RK4 order on the oscillator x'' + 2x = 0
    spray = SemiSpray(1, [parse("x1", ("x1", "y1"))])

    def end_error(h):
        cfg = IntegratorConfig(step=h, horizon=1.0, initial=PhasePoint([1.0], [0.0]))
        traj = integrate_geodesic(spray, cfg)
        return abs(traj.states[-1][0] - math.cos(math.sqrt(2.0)))

    ratio = end_error(0.02) / end_error(0.01)
    ok = ratio >= 14.0

    drifts = {}
    for name, (doc, _) in docs.items():
        if not doc.verdict.startswith("Deformable"):
            continue
        spec = doc.problem
        x0, y0 = TRAJECTORY_STARTS[name]
        cfg = IntegratorConfig(step=1e-3, horizon=1.0, initial=PhasePoint(x0, y0))
        traj = integrate_geodesic(spec.spray, cfg, spec.params)
        deformed = DeformedLagrangian(spec.lagrangian, doc.deformation)
        _, drift = energy_along(traj, deformed)
        drifts[name] = drift
        ok &= drift <= 1e-6

    # raw dissipative energy genuinely moves
    diss_doc, _ = docs["dissipative"]
    x0, y0 = TRAJECTORY_STARTS["dissipative"]
    cfg = IntegratorConfig(step=1e-3, horizon=1.0, initial=PhasePoint(x0, y0))
    traj = integrate_geodesic(diss_doc.problem.spray, cfg, diss_doc.problem.params)
    _, raw_drift = energy_along(traj, diss_doc.problem.lagrangian)
    ok &= raw_drift > 1e-3

    # Rayleigh case: quadratic negative dissipation forces monotone decay
    rayleigh = problem_from_dict(rayleigh_problem())
    # S(E_L) = C(D) = 2D with D < 0 on the run's samples
    dissipative = run_pipeline(rayleigh, mode="verify").dissipative
    ok &= dissipative.gradient_match.passed and dissipative.energy_rate_match.passed
    ok &= dissipative.rayleigh and dissipative.rayleigh_rate.passed
    ok &= dissipative.dissipation_negative is True
    cfg = IntegratorConfig(step=1e-3, horizon=1.0, initial=PhasePoint([1.0, 1.0], [1.0, 0.7]))
    rtraj = integrate_geodesic(rayleigh.spray, cfg, rayleigh.params)
    series, _ = energy_along(rtraj, rayleigh.lagrangian)
    ok &= bool(np.all(np.diff(series) < 0.0))

    emit(
        8,
        ok,
        f"RK4 ratio {ratio:.1f}, Phi-energy drifts "
        + ", ".join(f"{k}={v:.1e}" for k, v in sorted(drifts.items()))
        + f", raw dissipative drift {raw_drift:.2e}, rayleigh monotone decay",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. conservative path
# ---------------------------------------------------------------------------


def test_criterion_9_conservative(docs):
    doc, _ = docs["free-particle"]
    ok = doc.verdict == "ConservativeAffineOnly"

    import json

    from lagdeform.corpus import corpus_text

    data = json.loads(corpus_text("free-particle"))
    data["sigma"] = ["0.1", "0"]
    perturbed = run_pipeline(problem_from_dict(data), mode="verify")
    ok &= not perturbed.sigma_condition.passed
    ok &= perturbed.sigma_condition.max_residual >= 0.01
    emit(
        9,
        ok,
        f"verdict {doc.verdict}; perturbed sigma residual "
        f"{perturbed.sigma_condition.max_residual:.3f}",
    )
    assert ok
