import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from lagdeform.conditions import DerivedFields
from lagdeform.corpus import CORPUS_NAMES, corpus_text, load_corpus_problem
from lagdeform.deformation import synthesize
from lagdeform.expressions import ParseError
from lagdeform.families import (
    Affine,
    Constant,
    HomogeneousRoot,
    Logarithmic,
    Moebius,
    PowerShift,
)
from lagdeform.pipeline import (
    ReportDocument,
    SchemaError,
    _trajectory_stage,
    emit_report,
    problem_from_dict,
    report_to_dict,
    report_to_text,
    run_pipeline,
)
from lagdeform.sampling import Guards, TooManyRejections, draw_samples
from systems import damped_problem, rayleigh_problem


def minimal_problem(**overrides):
    data = {
        "name": "toy",
        "dim": 1,
        "params": {},
        "spray": ["(y1 - 2*x1)/2"],
        "lagrangian": "(y1 + 2*x1)^2",
        "box": {"x1": [0.5, 2.0], "y1": [0.5, 2.0]},
        "sampling": {"count": 100, "seed": 1, "guard": 1e-6},
    }
    data.update(overrides)
    return data


# ---------------------------------------------------------------------------
# loading and schema validation
# ---------------------------------------------------------------------------


def test_corpus_dissipative_loads():
    spec = load_corpus_problem("dissipative")
    assert spec.n == 2
    assert set(spec.params) == {"a", "b", "w"}
    assert spec.count == 600


def test_missing_lagrangian_rejected():
    data = minimal_problem()
    del data["lagrangian"]
    with pytest.raises(SchemaError) as exc:
        problem_from_dict(data)
    assert exc.value.field == "lagrangian"


def test_sigma_arity_rejected():
    data = minimal_problem(dim=2)
    data["spray"] = ["0", "0"]
    data["lagrangian"] = "0.5*(y1^2 + y2^2)"
    data["box"] = {v: [0.5, 2.0] for v in ("x1", "x2", "y1", "y2")}
    data["sigma"] = ["0"]  # length n - 1
    with pytest.raises(SchemaError) as exc:
        problem_from_dict(data)
    assert exc.value.field == "sigma"


def test_unknown_key_rejected():
    with pytest.raises(SchemaError) as exc:
        problem_from_dict(minimal_problem(extra_field=1))
    assert exc.value.field == "extra_field"


def test_undeclared_identifier_in_expression():
    # every expression is parsed against the chart names and the params
    with pytest.raises(ParseError):
        problem_from_dict(minimal_problem(lagrangian="(y1 + q)^2"))
    with pytest.raises(ParseError):
        problem_from_dict(minimal_problem(spray=["(y1 - 2*x2)/2"]))


def test_bad_box_rejected():
    data = minimal_problem()
    data["box"] = {"x1": [0.5, 2.0]}  # missing y1
    with pytest.raises(SchemaError):
        problem_from_dict(data)
    data = minimal_problem()
    data["box"] = {"x1": [2.0, 0.5], "y1": [0.5, 2.0]}  # inverted
    with pytest.raises(SchemaError):
        problem_from_dict(data)


def test_bad_sampling_rejected():
    data = minimal_problem()
    data["sampling"] = {"count": 100, "seed": 1}
    with pytest.raises(SchemaError):
        problem_from_dict(data)


def test_unknown_tolerance_rejected():
    with pytest.raises(SchemaError):
        problem_from_dict(minimal_problem(tolerances={"bogus": 1.0}))


def _malformed(key, value):
    """The minimal problem with ``value`` at ``key``, a path of keys."""
    data = minimal_problem()
    data["sigma"] = ["0"]
    *path, last = key
    target = data
    for step in path:
        target = target[step]
    target[last] = value
    return data


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param(("sampling", "guard"), [1e-6], id="guard-list"),
        pytest.param(("sampling", "guard"), True, id="guard-bool"),
        pytest.param(("sampling", "guard"), "1e-6", id="guard-string"),
        pytest.param(("box", "x1"), [{}, 1.0], id="bound-object"),
        pytest.param(("box", "y1"), [0.5, True], id="bound-bool"),
        pytest.param(("tolerances",), {"identity": [1]}, id="tolerance-list"),
        pytest.param(("tolerances",), {"identity": True}, id="tolerance-bool"),
        pytest.param(("spray",), [0], id="spray-number"),
        pytest.param(("sigma",), [1.5], id="sigma-number"),
        pytest.param(("sampling", "seed"), True, id="seed-bool"),
        pytest.param(("sampling", "count"), True, id="count-bool"),
        pytest.param(("sampling", "count"), 10.0, id="count-float"),
        # json reads NaN, and an integer no float holds
        pytest.param(("sampling", "guard"), math.nan, id="guard-nan"),
        pytest.param(("params",), {"alpha": 10**400}, id="param-too-large"),
    ],
)
def test_a_malformed_value_is_a_schema_error(key, value):
    with pytest.raises(SchemaError) as exc:
        problem_from_dict(_malformed(key, value))
    assert exc.value.field == key[0]


def test_a_parameter_named_like_a_coordinate_is_shadowed_by_it():
    # in a 1-D chart the coordinate x1 shadows the parameter x1, while x2
    # reads its parameter; the run is the one of L = (y1 + 2*x1)^2
    spec = problem_from_dict(
        minimal_problem(params={"x1": 100.0, "x2": 2.0}, lagrangian="(y1 + x2*x1)^2")
    )
    derived = DerivedFields(spec.spray, spec.lagrangian, spec.params)
    samples = draw_samples(spec.plan(), derived.run_guards(), spec.params)
    assert {len(row) for row in samples.rows} == {2 * spec.n}
    kernel = derived.kernel((spec.lagrangian.expr,))
    for x1, y1 in samples.rows[:10]:
        assert kernel([x1, y1])[0] == math.pow(y1 + 2.0 * x1, 2.0)
    shadowed = report_to_dict(run_pipeline(spec, mode="verify"))
    plain = report_to_dict(run_pipeline(problem_from_dict(minimal_problem()), mode="verify"))
    del shadowed["problem"], plain["problem"]
    assert shadowed == plain


def test_load_problem_from_file(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(minimal_problem()))
    from lagdeform.pipeline import load_problem

    spec = load_problem(path)
    assert spec.name == "toy"


# ---------------------------------------------------------------------------
# corpus verdicts
# ---------------------------------------------------------------------------

EXPECTED = {
    "dissipative": ("DeformableSingular", PowerShift),
    "exp-class": ("DeformableSingular", Constant),
    "lienard": ("DeformableRegular", PowerShift),
    "log-class": ("DeformableSingular", Logarithmic),
    "moebius": ("DeformableRegular", Moebius),
    "homogeneous": ("DeformableSingular", PowerShift),
    "free-particle": ("ConservativeAffineOnly", type(None)),
}


def test_corpus_closure_no_inconclusive(corpus_reports):
    for name, doc in corpus_reports.items():
        assert doc.verdict != "Inconclusive", name


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_verdicts_and_families(corpus_reports, name):
    verdict, family_type = EXPECTED[name]
    doc = corpus_reports[name]
    assert doc.verdict == verdict
    if family_type is type(None):
        assert doc.fit is None
    else:
        assert isinstance(doc.fit.chosen, family_type)


def test_corpus_verdict_soundness(corpus_reports):
    # a Deformable* verdict must be backed by every sub-check it claims
    for name, doc in corpus_reports.items():
        if doc.verdict.startswith("Deformable"):
            assert doc.sigma_condition.passed
            assert doc.dependence.functional
            assert doc.verify.direct.passed
            assert doc.verify.direct.max_residual <= doc.problem.tolerances["identity"]
            assert doc.deformed_hessian_report.nontrivial
            if doc.sigma_consistency is not None:
                assert doc.sigma_consistency.passed
            expected_rank = doc.problem.n
            if doc.verdict == "DeformableRegular":
                assert doc.deformed_hessian_report.min_rank == expected_rank
            else:
                assert doc.deformed_hessian_report.max_rank < expected_rank


def test_dissipative_report_details(corpus_reports):
    doc = corpus_reports["dissipative"]
    assert doc.fit.chosen.gamma == pytest.approx(-0.5, abs=1e-6)
    assert doc.fit.chosen.a == pytest.approx(0.0, abs=1e-6)
    assert doc.fit.homogeneous_root == HomogeneousRoot(2.0)
    assert doc.sigma_condition.max_residual <= 1e-9
    assert doc.sigma_condition.accepted >= 500
    assert (doc.deformed_hessian_report.min_rank, doc.deformed_hessian_report.max_rank) == (1, 1)


def test_exp_class_deformed_rank_is_two(corpus_reports):
    # the deformed Lagrangian is affine in y3, so rank 2 is the true value
    # (see corpus/NOTES.md); the base Lagrangian is regular
    doc = corpus_reports["exp-class"]
    assert (doc.base_hessian.min_rank, doc.base_hessian.max_rank) == (3, 3)
    assert (doc.deformed_hessian_report.min_rank, doc.deformed_hessian_report.max_rank) == (2, 2)


def test_homogeneous_theorem2_section(corpus_reports):
    doc = corpus_reports["homogeneous"]
    assert doc.theorem2 is not None
    assert doc.theorem2.passed
    assert doc.theorem2.degree == pytest.approx(2.0, abs=1e-9)
    assert doc.theorem2.wedge_residual <= 1e-10
    assert doc.theorem2.phi_class == HomogeneousRoot(2.0)


def test_moebius_normalised_parameters(corpus_reports):
    doc = corpus_reports["moebius"]
    assert doc.fit.chosen.c == pytest.approx(0.5, abs=1e-5)
    assert doc.fit.chosen.d == pytest.approx(1.0, abs=1e-5)
    assert (doc.base_hessian.min_rank, doc.deformed_hessian_report.min_rank) == (3, 3)


def test_free_particle_conservative(corpus_reports):
    doc = corpus_reports["free-particle"]
    assert doc.verdict == "ConservativeAffineOnly"
    assert isinstance(doc.deformation.family, Affine)


def test_perturbed_sigma_flips_condition():
    data = json.loads(corpus_text("free-particle"))
    data["sigma"] = ["0.1", "0"]
    doc = run_pipeline(problem_from_dict(data), mode="verify")
    assert doc.verdict == "Inconclusive"
    assert not doc.sigma_condition.passed
    assert doc.sigma_condition.max_residual >= 0.01
    assert not doc.sigma_consistency.passed


def test_conserved_base_only_lagrangian_inconclusive():
    # L without fiber dependence: C(L) = 0 kills the guards and the defect
    # does not vanish, so no conclusion is available
    data = minimal_problem(lagrangian="x1", spray=["0"])
    doc = run_pipeline(problem_from_dict(data))
    assert doc.verdict == "Inconclusive"


def test_mode_names_the_last_stage_the_run_makes(corpus_reports):
    # "verify" runs every check and "report" adds the trajectory stage only
    verified = report_to_dict(run_pipeline(load_corpus_problem("lienard"), mode="verify"))
    full = report_to_dict(corpus_reports["lienard"])
    assert verified.pop("trajectory") is None and full.pop("trajectory") is not None
    assert verified == full
    # "synthesize" stops once Phi is built, and builds the Phi a full run does
    for name in CORPUS_NAMES:
        doc = run_pipeline(load_corpus_problem(name), mode="synthesize")
        assert repr(doc.deformation) == repr(corpus_reports[name].deformation)
        assert doc.verify is None and doc.theorem2 is None and doc.trajectory is None
    for mode in ("check", "classify", "nonsense"):
        with pytest.raises(ValueError, match=f"unknown pipeline mode '{mode}'"):
            run_pipeline(load_corpus_problem("lienard"), mode=mode)


def test_trajectory_stage_notes_overflowing_deformation():
    # Phi' = exp(1e4 L) overflows math.exp for the kinetic L >= 1 on the box
    spec = load_corpus_problem("free-particle")
    doc = ReportDocument(problem=spec)
    doc.deformation = synthesize(Constant(1e4), (0.0, 1.0))
    entry = _trajectory_stage(doc, spec)
    assert entry["energy_drift_PhiL"] is None and entry["el_residual_PhiL"] is None
    assert entry["energy_drift_L"] is not None
    assert any("deformed trajectory checks unavailable" in n for n in doc.notes)


def test_trajectory_stage_lets_unexpected_errors_through():
    class Broken:
        def triple(self, t):
            raise RuntimeError("bug in a deformation")

    spec = load_corpus_problem("free-particle")
    doc = ReportDocument(problem=spec)
    doc.deformation = Broken()
    with pytest.raises(RuntimeError, match="bug in a deformation"):
        _trajectory_stage(doc, spec)


# ---------------------------------------------------------------------------
# one sample set per run
# ---------------------------------------------------------------------------


def _per_check_guards(spec, derived):
    """The guard sets of the draws each check once made for itself: the
    theorem guards, the sigma checks', the L-evaluable set of verification
    and the Hessians, the homogeneous shortcut's and the dissipative one's."""
    L, rate = spec.lagrangian.expr, derived.energy_rate.expr
    defect = tuple(derived.defect.components)
    sigma = tuple(spec.sigma.components) if spec.sigma is not None else defect
    sets = [
        Guards(nonzero=(derived.spray_of_L, derived.liouville_of_L), evaluable=(L, rate)),
        Guards(nonzero=(derived.liouville_of_L,), evaluable=(L, rate) + sigma),
        Guards(evaluable=(L,)),
        Guards(evaluable=(L,) + sigma),
    ]
    if spec.sigma is not None:
        sets.append(Guards(evaluable=(L,) + sigma + defect))
    if spec.dissipation is not None:
        sets.append(Guards(evaluable=(L, spec.dissipation.expr, rate)))
    return sets


@pytest.mark.parametrize("sparse", [False, True], ids=["full", "sparse"])
@pytest.mark.parametrize("offset", [0, 1, 2, 3])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_run_draw_equals_every_per_check_draw(name, offset, sparse):
    data = json.loads(corpus_text(name))
    data["sampling"]["seed"] += offset
    if sparse:
        data["sampling"]["count"] //= 10
    spec = problem_from_dict(data)
    derived = DerivedFields(spec.spray, spec.lagrangian)
    plan = spec.plan()
    if name == "free-particle":
        # S(L) = 0: the run takes the conservative branch, whose one draw
        # replaces the (L, defect) and the L-evaluable draws
        with pytest.raises(TooManyRejections):
            draw_samples(plan, derived.run_guards(spec.sigma, spec.dissipation), spec.params)
        L = spec.lagrangian.expr
        run = draw_samples(plan, Guards(evaluable=(L,) + tuple(derived.defect.components)), spec.params)
        references = [Guards(evaluable=(L,))]
    else:
        run = draw_samples(plan, derived.run_guards(spec.sigma, spec.dissipation), spec.params)
        references = _per_check_guards(spec, derived)
    assert run.attempts == plan.count
    for guards in references:
        reference = draw_samples(plan, guards, spec.params)
        assert reference.attempts == run.attempts
        assert reference.rows == run.rows


def test_every_report_reads_the_one_draw():
    # L = y1^2/2 + ln(x1 - 1) is not evaluable for x1 <= 1, a third of the
    # box [0.5, 2]^2; the attempts are counted on the sampler's seeded stream
    # against that known region, without the guards
    data = minimal_problem(
        spray=["-1/(2*(x1 - 1))"],
        lagrangian="0.5*y1^2 + ln(x1 - 1)",
        sigma=["0"],
        dissipation="y1^2",
        sampling={"count": 200, "seed": 5, "guard": 1e-6},
    )
    spec = problem_from_dict(data)
    rng = np.random.default_rng(spec.seed)
    attempts = accepted = 0
    while accepted < spec.count:
        attempts += 1
        accepted += bool(rng.uniform([0.5, 0.5], [2.0, 2.0])[0] > 1.0)
    doc = run_pipeline(spec, mode="verify")
    diss = doc.dissipative
    reports = [
        doc.sigma_consistency,
        doc.sigma_condition,
        doc.verify.direct,
        diss.gradient_match,
        diss.energy_rate_match,
        diss.rayleigh_rate,
    ]
    assert all(r is not None for r in reports)
    for report in reports:
        assert (report.accepted, report.rejected) == (spec.count, attempts - spec.count)
    assert attempts > spec.count


def test_unevaluable_sigma_ends_inconclusive():
    # sigma = ln(x1 - 1.99) is evaluable on a sliver of the box, so the run's
    # draw runs out of attempts while the theorem guards alone admit the box
    data = minimal_problem(
        spray=["0.5*y1"],
        lagrangian="0.5*y1^2",
        sigma=["ln(x1 - 1.99)"],
        sampling={"count": 50, "seed": 1, "guard": 1e-6},
    )
    doc = run_pipeline(problem_from_dict(data))
    assert doc.verdict == "Inconclusive"
    assert doc.notes == [
        "the supplied sigma, the Lagrange differential or D is not evaluable "
        "on the box (13/50 accepted)"
    ]


def test_a_phi_overflow_starves_the_deformed_hessian():
    # L shifted by 999: Phi' = exp(L) overflows math.exp at every sample, so
    # verify counts each row out of Phi's interval and the deformed Hessian
    # has no row left
    data = json.loads(corpus_text("exp-class"))
    data["params"]["a"] = 1000.0
    doc = run_pipeline(problem_from_dict(data))
    assert doc.verdict == "Inconclusive"
    assert doc.notes == ["Hessian of Phi(L) starved: no evaluable points for the Hessian"]
    assert doc.verify.direct.accepted == 0
    assert doc.verify.out_of_interval == 400
    assert doc.deformed_hessian_report is None and doc.trajectory is None


def test_a_verification_over_no_rows_reports_no_residual_and_fails():
    # the run above: verify keeps none of its 400 rows, so its report has
    # no residual to give and does not pass
    data = json.loads(corpus_text("exp-class"))
    data["params"]["a"] = 1000.0
    report = json.loads(emit_report(run_pipeline(problem_from_dict(data)), "json"))
    verification = report["verification"]
    assert verification["expansion_max_residual"] is None
    assert verification["agreement_max"] is None
    assert verification["out_of_interval"] == 400
    direct = verification["direct"]
    assert (direct["accepted"], direct["rejected"], direct["passed"]) == (0, 400, False)
    assert direct["max_residual"] is None and direct["mean_residual"] is None
    assert direct["worst_point"] is None


def test_vanishing_liouville_with_sigma_ends_inconclusive():
    # L = x1 has C(L) = 0, so the sigma condition divides by zero everywhere
    data = minimal_problem(lagrangian="x1", spray=["0"], sigma=["-1"])
    data["sampling"]["count"] = 50
    doc = run_pipeline(problem_from_dict(data))
    assert doc.verdict == "Inconclusive"
    assert doc.sigma_condition is None
    assert doc.sigma_consistency.passed
    assert "C(L) vanishes on the box: the sigma condition is undefined" in doc.notes


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def test_json_reports_deterministic(corpus_reports):
    spec = load_corpus_problem("lienard")
    a = emit_report(run_pipeline(spec, mode="verify"), "json")
    b = emit_report(run_pipeline(load_corpus_problem("lienard"), mode="verify"), "json")
    assert a == b


def test_json_round_trip_byte_identical(corpus_reports):
    # every corpus report must serialize (no stray numpy scalars) and
    # round-trip byte-identically
    for name, doc in corpus_reports.items():
        payload = emit_report(doc, "json")
        reparsed = json.loads(payload.decode("utf-8"))
        again = (
            json.dumps(reparsed, indent=2, sort_keys=True, allow_nan=False) + "\n"
        ).encode()
        assert payload == again, name


GOLDEN = Path(__file__).parent / "golden"


def _snapshot_mismatches(got, want, path=""):
    """Paths where a JSON report departs from its snapshot. Strings,
    booleans, integers (ranks, counts) and nulls must match exactly; floats
    within 1e-9 (1 + |snapshot|). A ``worst_point`` is not compared when its
    check's max residual is below 1e-12: there every sample is exact to
    rounding, so which one is worst is decided by the last bits."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [path]
        tiny = isinstance(want.get("max_residual"), float) and want["max_residual"] < 1e-12
        return [
            bad
            for key in sorted(want)
            if not (key == "worst_point" and tiny)
            for bad in _snapshot_mismatches(got[key], want[key], f"{path}/{key}")
        ]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [path]
        return [
            bad
            for k, (g, w) in enumerate(zip(got, want))
            for bad in _snapshot_mismatches(g, w, f"{path}/{k}")
        ]
    if isinstance(want, float):
        ok = type(got) is float and abs(got - want) <= 1e-9 * (1.0 + abs(want))
        return [] if ok else [path]
    return [] if type(got) is type(want) and got == want else [path]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_json_report_matches_golden_snapshot(corpus_reports, name):
    got = json.loads(emit_report(corpus_reports[name], "json"))
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert _snapshot_mismatches(got, want) == []


def _moved_problem(name, offset, divisor=1):
    """A corpus problem with its seed moved by ``offset`` and its sample
    count divided by ``divisor``."""
    data = json.loads(corpus_text(name))
    data["sampling"]["count"] //= divisor
    data["sampling"]["seed"] += offset
    return problem_from_dict(data)


def _moved_report(name, offset, divisor=1) -> bytes:
    return emit_report(run_pipeline(_moved_problem(name, offset, divisor), mode="report"), "json")


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_sparse_json_report_matches_golden_snapshot_bytes(name):
    # byte for byte, at inputs other than the shipped ones: a change to how
    # the checks evaluate must leave every report exactly as it was
    got = _moved_report(name, 1, 10)
    assert got == (GOLDEN / "sparse" / f"{name}.json").read_bytes()


def _digests(path):
    """The ``(sha256, problem, offset)`` lines of a digest file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split() for line in lines if line and not line.startswith("#")]


def _by_problem(lines):
    """Digest lines as test parameters with the id ``problem-offset``, which
    a rewrite of the digests leaves as it was."""
    return [pytest.param(*line, id=f"{line[1]}-{line[2]}") for line in lines]


@pytest.mark.parametrize("digest,name,offset", _by_problem(_digests(GOLDEN / "sparse" / "SHA256SUMS")))
def test_sparse_json_report_matches_pinned_sha256(digest, name, offset):
    # the same byte-identity gate at two more seed offsets, pinned by digest
    got = _moved_report(name, int(offset), 10)
    assert hashlib.sha256(got).hexdigest() == digest


_FULL_DIGESTS = _digests(GOLDEN / "SHA256SUMS")


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_json_report_matches_pinned_sha256(corpus_reports, name):
    # the shipped reports byte for byte, where the snapshot above compares
    # floats within a tolerance
    got = emit_report(corpus_reports[name], "json")
    assert [hashlib.sha256(got).hexdigest(), name, "0"] in _FULL_DIGESTS


@pytest.mark.parametrize(
    "digest,name,offset", _by_problem(line for line in _FULL_DIGESTS if line[2] != "0")
)
def test_full_json_report_at_a_moved_seed_matches_pinned_sha256(digest, name, offset):
    got = _moved_report(name, int(offset))
    assert hashlib.sha256(got).hexdigest() == digest


@pytest.mark.parametrize(
    "problem, digest",
    [
        (rayleigh_problem, "e0b852234dd8935022b55139d790d5680b5f546628441f6ad8e60bb0f0a5a26f"),
        (damped_problem, "ad5c8abde55ea59b15df6197f514ff379f17df131c309b9a6051dda7d80bdcc1"),
    ],
    ids=["rayleigh", "damped"],
)
def test_dissipative_json_report_matches_pinned_sha256(problem, digest):
    # no corpus problem declares a dissipation function, so these two pin
    # the dissipative block: with the rate of 2D, and with rayleigh_rate null
    got = emit_report(run_pipeline(problem_from_dict(problem()), mode="report"), "json")
    assert hashlib.sha256(got).hexdigest() == digest


def test_snapshot_comparison_is_strict_where_it_must_be():
    base = {"rank": 2, "verdict": "DeformableSingular", "ok": True, "x": 1.0}
    assert _snapshot_mismatches(dict(base, x=1.0 + 1e-10), base) == []
    assert _snapshot_mismatches(dict(base, x=1.0 + 1e-8), base) == ["/x"]
    assert _snapshot_mismatches(dict(base, rank=3), base) == ["/rank"]
    assert _snapshot_mismatches(dict(base, ok=1), base) == ["/ok"]
    assert _snapshot_mismatches(dict(base, verdict="Inconclusive"), base) == ["/verdict"]
    check = {"max_residual": 1e-13, "worst_point": {"x": [0.5], "y": [1.0]}}
    moved = {"max_residual": 1e-13, "worst_point": {"x": [1.5], "y": [1.0]}}
    assert _snapshot_mismatches(moved, check) == []
    loud = dict(check, max_residual=1e-3)
    assert _snapshot_mismatches(dict(moved, max_residual=1e-3), loud) == ["/worst_point/x/0"]


def test_text_report_contains_family_and_verdict(corpus_reports):
    text = report_to_text(corpus_reports["dissipative"])
    assert "family: PowerShift(gamma=-0.5, a=0)" in text
    assert "verdict: DeformableSingular" in text


def test_text_report_theorem2_line(corpus_reports):
    text = report_to_text(corpus_reports["homogeneous"])
    assert "theorem2: wedge residual" in text
    wedge_line = [l for l in text.splitlines() if l.startswith("theorem2")][0]
    value = float(wedge_line.split("=")[1].split("(")[0].strip())
    assert value <= 1e-10


def test_seed_change_changes_samples_not_verdict():
    for name in CORPUS_NAMES:
        doc = run_pipeline(_moved_problem(name, 1), mode="verify")
        assert doc.verdict == EXPECTED[name][0], name


# ---------------------------------------------------------------------------
# metamorphic: Phi acts on L through its value, so a constant added to L
# changes neither the dynamics nor whether a deformation exists
# ---------------------------------------------------------------------------


def _close(got, want):
    return abs(got - want) <= 1e-9 * (1.0 + abs(want))


def _same_outcome(base, moved):
    """Assert that two runs agree in verdict, deformed min rank and family
    type; the two chosen families, or ``None`` where no fit was made."""
    assert moved.verdict == base.verdict
    rank = moved.deformed_hessian_report.min_rank
    assert rank == base.deformed_hessian_report.min_rank
    if base.fit is None:
        assert moved.fit is None
        return None
    family, moved_family = base.fit.chosen, moved.fit.chosen
    assert type(moved_family) is type(family)
    return family, moved_family


# The parameter of each chosen family that moves when L -> L + s, and by how
# many s it moves: the PowerShift and Logarithmic offset a, the Moebius pole.
_MOVES = {
    PowerShift: (lambda family: family.a, -1.0),
    Logarithmic: (lambda family: family.a, -1.0),
    Moebius: (lambda family: -family.d / family.c, 1.0),
    Constant: (lambda family: family.gamma, 0.0),
}


def _sparse(name):
    """A corpus problem file at a tenth of its samples."""
    data = json.loads(corpus_text(name))
    data["sampling"]["count"] //= 10
    return data


def _run(data):
    return run_pipeline(problem_from_dict(data), mode="verify")


def _base_and_shifted(name, shift):
    """Sparse runs of a corpus problem with L and with (L) + shift."""
    data = _sparse(name)
    base = _run(data)
    data["lagrangian"] = f"({data['lagrangian']}) + {shift!r}"
    return base, _run(data)


@pytest.mark.parametrize(
    "name, shift",
    [(name, 0.25) for name in CORPUS_NAMES]
    # the pole moves just above the sampled L: to 8 for L in [7.47, 7.98]
    + [pytest.param("moebius", 10.0, id="moebius-far")]
    + [pytest.param("moebius", shift, id=f"moebius-far-{shift:g}") for shift in (25.0, 100.0)],
)
def test_a_constant_added_to_L_moves_only_the_family_along_L(name, shift):
    families = _same_outcome(*_base_and_shifted(name, shift))
    if families is None:
        return
    family, moved = families
    read, per_shift = _MOVES[type(family)]
    assert _close(read(moved), read(family) + per_shift * shift)


# ---------------------------------------------------------------------------
# metamorphic: L -> cL with sigma -> c sigma is the same system, and Phi
# rescales with it; renaming coordinates changes nothing at all
# ---------------------------------------------------------------------------

# How each chosen family's parameters move when L -> cL: by the factor c^k.
_SCALINGS = {
    PowerShift: ((lambda family: family.gamma, 0), (lambda family: family.a, 1)),
    Logarithmic: ((lambda family: family.a, 1),),
    Moebius: ((lambda family: -family.d / family.c, 1),),
    Constant: ((lambda family: family.gamma, -1),),
}


@pytest.mark.parametrize("c", [2.0, 0.5])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_scaling_L_and_sigma_rescales_only_the_family(name, c):
    data = _sparse(name)
    base = _run(data)
    data["lagrangian"] = f"{c!r}*({data['lagrangian']})"
    if "sigma" in data:
        data["sigma"] = [f"{c!r}*({s})" for s in data["sigma"]]
    families = _same_outcome(base, _run(data))
    if families is None:
        return
    family, scaled = families
    for read, k in _SCALINGS[type(family)]:
        assert _close(read(scaled), read(family) * c**k)


_SWAP = {"x1": "x2", "x2": "x1", "y1": "y2", "y2": "y1"}


def _swap_12(source):
    return re.sub(r"\b[xy][12]\b", lambda m: _SWAP[m.group()], source)


def _swapped(data):
    """The problem file with the coordinates x1, x2 and y1, y2 swapped."""
    data = dict(data, box={_SWAP.get(v, v): b for v, b in data["box"].items()})
    for key in ("lagrangian", "dissipation"):
        if key in data:
            data[key] = _swap_12(data[key])
    for key in ("spray", "sigma"):
        if key in data:
            first, second, *rest = (_swap_12(s) for s in data[key])
            data[key] = [second, first, *rest]
    return data


@pytest.mark.parametrize(
    "name", [name for name in CORPUS_NAMES if json.loads(corpus_text(name))["dim"] >= 2]
)
def test_swapping_two_coordinates_changes_nothing(name):
    data = _sparse(name)
    families = _same_outcome(_run(data), _run(_swapped(data)))
    if families is None:
        return
    family, swapped = families
    for f in dataclasses.fields(family):
        assert _close(getattr(swapped, f.name), getattr(family, f.name)), f.name
