"""Problem-file ingestion, pipeline orchestration and report emission.

The pipeline runs check -> dependence -> classify -> synthesize -> verify ->
simulate on one problem and condenses the outcome into a single verdict:

* ``DeformableRegular`` / ``DeformableSingular`` -- a genuine deformation
  exists, split by the rank of the deformed fiber Hessian;
* ``ConservativeAffineOnly`` -- the dynamics are already conservative, so
  only affine rescalings apply;
* ``NotOfTheoremForm`` -- the force is a genuine Lagrange defect but fails
  the alignment/dependence conditions: no scalar deformation exists;
* ``Inconclusive`` -- inconsistent or degenerate input (diagnostics in the
  notes).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import expressions as ex
from .conditions import (
    ConditionReport,
    DependenceResult,
    DerivedFields,
    FunctionalFit,
    HessianReport,
    HomogeneousReport,
    DissipativeReport,
    InsufficientSamples,
    NotHomogeneous,
    _worst,
    check_dissipative,
    check_homogeneous,
    check_sigma_condition,
    check_sigma_consistency,
    classify,
    functional_dependence_test,
    hessian_report,
)
from .deformation import (
    ClosedForm,
    Deformation,
    DeformedELReport,
    DeformedLagrangian,
    DomainConflict,
    OutOfInterval,
    deformed_hessian,
    synthesize,
    verify_deformed_el,
)
from .dynamics import (
    GeodesicError,
    IntegratorConfig,
    TooShort,
    el_residual_along,
    energy_along,
    integrate_geodesic,
)
from .families import Affine, Tabulated
from .geometry import PhasePoint, ScalarField, SemiBasicForm, SemiSpray
from .sampling import Guards, SamplePlan, TooManyRejections, draw_samples


class SchemaError(Exception):
    def __init__(self, field_name: str, reason: str):
        super().__init__(f"problem field '{field_name}': {reason}")
        self.field = field_name
        self.reason = reason


DEFAULT_TOLERANCES = {
    "identity": 1e-9,
    "classification": 1e-6,
    "dependence": 1e-6,
    "wedge": 1e-10,
    "trajectory_el": 1e-4,
    "energy_drift": 1e-6,
}

_REQUIRED_KEYS = {"name", "dim", "params", "spray", "lagrangian", "box", "sampling"}
_OPTIONAL_KEYS = {"sigma", "dissipation", "homogeneity", "tolerances"}


@dataclass
class ProblemSpec:
    name: str
    n: int
    params: dict
    spray: SemiSpray
    lagrangian: ScalarField
    sigma: Optional[SemiBasicForm]
    dissipation: Optional[ScalarField]
    homogeneity: Optional[float]
    bounds: dict
    count: int
    seed: int
    guard: float
    tolerances: dict
    raw: dict

    def plan(self, count: Optional[int] = None) -> SamplePlan:
        return SamplePlan(
            bounds=self.bounds,
            count=count if count is not None else self.count,
            seed=self.seed,
            guard_eps=self.guard,
        )


def _expect(data: dict, key: str, types, where: str):
    if key not in data:
        raise SchemaError(key, f"missing from {where}")
    value = data[key]
    if not isinstance(value, types):
        raise SchemaError(key, f"expected {types}, got {type(value).__name__}")
    return value


def _real(value, field_name: str, what: str) -> float:
    """``value`` as a float, if it is a JSON number, not a boolean, and a
    finite float: ``json`` reads ``NaN`` and ``Infinity``, and an integer
    too large for a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError(field_name, f"{what} must be a number")
    try:
        real = float(value)
    except OverflowError:
        raise SchemaError(field_name, f"{what} is too large for a float") from None
    if not math.isfinite(real):
        raise SchemaError(field_name, f"{what} must be finite")
    return real


def _expressions(data: dict, key: str, n: int, declared: set) -> list:
    """The ``n`` expressions of the list ``data[key]``, parsed."""
    sources = data[key]
    if not isinstance(sources, list) or len(sources) != n:
        raise SchemaError(key, f"expected a list of {n} expressions")
    if not all(isinstance(s, str) for s in sources):
        raise SchemaError(key, "each expression must be a string")
    return [ex.parse(s, declared) for s in sources]


def _integer(value, field_name: str, what: str, least: int) -> int:
    """``value``, if it is a JSON integer (not a boolean) of at least ``least``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise SchemaError(field_name, what)
    return value


def problem_from_dict(data: dict) -> ProblemSpec:
    if not isinstance(data, dict):
        raise SchemaError("<root>", "problem file must hold a JSON object")
    unknown = set(data) - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise SchemaError(sorted(unknown)[0], "unknown key")
    missing = _REQUIRED_KEYS - set(data)
    if missing:
        raise SchemaError(sorted(missing)[0], "required key missing")

    name = _expect(data, "name", str, "problem")
    n = _integer(data["dim"], "dim", "must be an integer >= 1", 1)
    params = _expect(data, "params", dict, "problem")
    params = {k: _real(v, "params", f"parameter '{k}'") for k, v in params.items()}

    declared = set(ex.chart_names(n)) | set(params)
    spray = SemiSpray(n, _expressions(data, "spray", n, declared))
    lagrangian = ScalarField(n, ex.parse(_expect(data, "lagrangian", str, "problem"), declared))

    sigma = None
    if "sigma" in data:
        sigma = SemiBasicForm(n, _expressions(data, "sigma", n, declared))

    dissipation = None
    if "dissipation" in data:
        dissipation = ScalarField(n, ex.parse(_expect(data, "dissipation", str, "problem"), declared))

    homogeneity = None
    if "homogeneity" in data:
        homogeneity = _real(data["homogeneity"], "homogeneity", "homogeneity")

    box = _expect(data, "box", dict, "problem")
    expected_vars = set(ex.chart_names(n))
    if set(box) != expected_vars:
        raise SchemaError("box", f"must bound exactly {sorted(expected_vars)}")
    bounds = {}
    for v, pair in box.items():
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError("box", f"{v} needs [lo, hi]")
        lo, hi = (_real(b, "box", f"each bound of {v}") for b in pair)
        if not lo < hi:
            raise SchemaError("box", f"{v} has degenerate bounds")
        bounds[v] = (lo, hi)

    sampling = _expect(data, "sampling", dict, "problem")
    if set(sampling) != {"count", "seed", "guard"}:
        raise SchemaError("sampling", "must hold exactly {count, seed, guard}")
    count = _integer(sampling["count"], "sampling", "count must be a positive integer", 1)
    seed = _integer(sampling["seed"], "sampling", "seed must be a non-negative integer", 0)
    guard = _real(sampling["guard"], "sampling", "guard")
    if guard <= 0:
        raise SchemaError("sampling", "guard must be positive")

    tolerances = dict(DEFAULT_TOLERANCES)
    if "tolerances" in data:
        tol = _expect(data, "tolerances", dict, "problem")
        unknown_tol = set(tol) - set(DEFAULT_TOLERANCES)
        if unknown_tol:
            raise SchemaError("tolerances", f"unknown key '{sorted(unknown_tol)[0]}'")
        for k, v in tol.items():
            tolerances[k] = _real(v, "tolerances", f"tolerance '{k}'")

    return ProblemSpec(
        name=name,
        n=n,
        params=params,
        spray=spray,
        lagrangian=lagrangian,
        sigma=sigma,
        dissipation=dissipation,
        homogeneity=homogeneity,
        bounds=bounds,
        count=count,
        seed=seed,
        guard=guard,
        tolerances=tolerances,
        raw=data,
    )


def load_problem(path) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("<root>", f"invalid JSON: {exc}") from exc
    return problem_from_dict(data)


# ---------------------------------------------------------------------------
# report document
# ---------------------------------------------------------------------------

VERDICTS = (
    "DeformableRegular",
    "DeformableSingular",
    "NotOfTheoremForm",
    "ConservativeAffineOnly",
    "Inconclusive",
)


@dataclass
class ReportDocument:
    problem: ProblemSpec
    verdict: str = "Inconclusive"
    sigma_consistency: Optional[ConditionReport] = None
    sigma_condition: Optional[ConditionReport] = None
    dependence: Optional[DependenceResult] = None
    fit: Optional[FunctionalFit] = None
    deformation: Optional[Deformation] = None
    verify: Optional[DeformedELReport] = None
    base_hessian: Optional[HessianReport] = None
    deformed_hessian_report: Optional[HessianReport] = None
    theorem2: Optional[HomogeneousReport] = None
    theorem2_reason: Optional[str] = None
    dissipative: Optional[DissipativeReport] = None
    trajectory: Optional[dict] = None
    notes: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def run_pipeline(spec: ProblemSpec, mode: str = "report") -> ReportDocument:
    """Run the stages up to the one ``mode`` names: ``"synthesize"`` returns
    once ``doc.deformation`` is built, unchecked, with the verdict undecided
    at its default; ``"verify"`` runs every check and decides the verdict;
    ``"report"`` adds the trajectory stage. A run that ends sooner (a failed
    draw, a starved dependence test, no monotone deformation, the
    conservative branch) ends there in every mode."""
    if mode not in ("synthesize", "verify", "report"):
        raise ValueError(f"unknown pipeline mode '{mode}'")
    doc = ReportDocument(problem=spec)
    tol = spec.tolerances
    plan = spec.plan()
    derived = DerivedFields(spec.spray, spec.lagrangian, spec.params)

    # The one sample set every check of the run reads.
    try:
        samples = draw_samples(
            plan, derived.run_guards(spec.sigma, spec.dissipation), spec.params
        )
    except TooManyRejections as run_exc:
        try:
            draw_samples(plan, derived.theorem_guards(), spec.params)
        except TooManyRejections as exc:
            doc.notes.append(
                f"guards reject the box ({exc.accepted}/{exc.requested} accepted): "
                "S(L) or C(L) vanishes on samples"
            )
            return _remark_path(doc, spec, derived, plan, tol)
        return _inconclusive(
            doc,
            f"the supplied sigma, the Lagrange differential or D is not evaluable "
            f"on the box ({run_exc.accepted}/{run_exc.requested} accepted)",
        )

    sigma_ok = True
    if spec.sigma is not None:
        doc.sigma_consistency = check_sigma_consistency(derived, spec.sigma, samples, tol["identity"])
        sigma_ok = doc.sigma_consistency.passed
        if not sigma_ok:
            doc.notes.append(
                "supplied sigma disagrees with the Lagrange differential of the "
                "spray: the problem data is inconsistent"
            )
    sigma_use = spec.sigma if spec.sigma is not None else derived.defect

    doc.sigma_condition = check_sigma_condition(derived, sigma_use, samples, tol["identity"])

    try:
        doc.dependence = functional_dependence_test(derived, samples, plan, tol["dependence"])
    except InsufficientSamples as exc:
        return _inconclusive(doc, f"dependence test starved: {exc}")

    doc.fit = classify(doc.dependence.cloud, tol["classification"])

    ls = [l for l, _ in doc.dependence.cloud]
    try:
        doc.deformation = synthesize(doc.fit.chosen, (min(ls), max(ls)))
    except DomainConflict as exc:
        return _inconclusive(doc, f"no monotone deformation on the sampled range: {exc}")
    if mode == "synthesize":
        return doc

    doc.verify = verify_deformed_el(derived, doc.deformation, samples, tol["identity"])
    try:
        doc.base_hessian = hessian_report(_base_hessian(derived), samples)
    except InsufficientSamples as exc:
        return _inconclusive(doc, f"Hessian of L starved: {exc}")
    try:
        doc.deformed_hessian_report = deformed_hessian(derived, doc.deformation, samples)
    except InsufficientSamples as exc:
        return _inconclusive(doc, f"Hessian of Phi(L) starved: {exc}")

    try:
        doc.theorem2 = check_homogeneous(derived, sigma_use, samples, tol["wedge"])
        if spec.homogeneity is not None and abs(spec.homogeneity - doc.theorem2.degree) > 1e-9:
            doc.notes.append(
                f"declared homogeneity {spec.homogeneity:g} != measured "
                f"{doc.theorem2.degree:g}"
            )
    except NotHomogeneous as exc:
        doc.theorem2_reason = str(exc)
        if spec.homogeneity is not None:
            doc.notes.append(f"declared homogeneity not confirmed: {exc}")

    if spec.dissipation is not None:
        doc.dissipative = check_dissipative(derived, spec.dissipation, samples, tol["identity"])

    if mode == "report":
        doc.trajectory = _trajectory_stage(doc, spec)

    conditions_pass = (
        sigma_ok
        and doc.sigma_condition.passed
        and doc.dependence.functional
        and doc.verify.direct.passed
        and doc.deformed_hessian_report.nontrivial
    )
    if conditions_pass:
        if isinstance(doc.fit.chosen, Affine):
            doc.verdict = "ConservativeAffineOnly"
        elif doc.deformed_hessian_report.min_rank == spec.n:
            doc.verdict = "DeformableRegular"
        else:
            doc.verdict = "DeformableSingular"
    elif not sigma_ok:
        doc.verdict = "Inconclusive"
    else:
        doc.verdict = "NotOfTheoremForm"
    return doc


def _base_hessian(derived: DerivedFields):
    """The fiber Hessian g of L as the run's kernel of its row-major cells."""
    return derived.kernel(tuple(cell for line in derived.hessian for cell in line))


def _inconclusive(doc: ReportDocument, note: str) -> ReportDocument:
    """Stop the run early: ``Inconclusive``, with ``note`` saying why."""
    doc.notes.append(note)
    doc.verdict = "Inconclusive"
    return doc


def _remark_path(doc: ReportDocument, spec, derived, plan, tol) -> ReportDocument:
    """S(L) = 0 (or C(L) = 0) everywhere in the box: the conservative branch.
    Any deformation is inert, so the report reduces to whether the defect and
    the supplied force vanish."""
    sigma = tuple(spec.sigma.components) if spec.sigma is not None else ()
    guards = Guards(evaluable=(spec.lagrangian.expr,) + tuple(derived.defect.components) + sigma)
    try:
        samples = draw_samples(plan, guards, spec.params)
    except TooManyRejections:
        return _inconclusive(doc, "expressions are nowhere evaluable on the box")

    values, errors = ex.table(derived.kernel(tuple(derived.defect.components)), samples.stack)
    ex.kept(errors, len(samples.rows))  # raises the first error, if any
    with np.errstate(all="ignore"):
        defect_max = float(_worst(np.abs(values) / (1.0 + np.abs(values))))
    conservative = defect_max <= tol["identity"]
    doc.notes.append(f"Lagrange differential max residual {defect_max:.3e} on samples")
    try:
        doc.base_hessian = hessian_report(_base_hessian(derived), samples)
    except InsufficientSamples as exc:
        return _inconclusive(doc, f"Hessian of L starved: {exc}")

    sigma_ok = True
    if spec.sigma is not None:
        doc.sigma_consistency = check_sigma_consistency(derived, spec.sigma, samples, tol["identity"])
        # C(L) may vanish on this path, so the condition draws its own set.
        denominator = Guards((derived.liouville_of_L,), derived.theorem_guards().evaluable + sigma)
        try:
            denominator_samples = draw_samples(plan, denominator, spec.params)
        except TooManyRejections:
            return _inconclusive(doc, "C(L) vanishes on the box: the sigma condition is undefined")
        doc.sigma_condition = check_sigma_condition(
            derived, spec.sigma, denominator_samples, tol["identity"]
        )
        sigma_ok = doc.sigma_consistency.passed and doc.sigma_condition.passed
        if not sigma_ok:
            doc.notes.append("supplied sigma is inconsistent with the conservative defect")

    if conservative and sigma_ok:
        doc.deformation = synthesize(Affine(), (0.0, 1.0))
        doc.deformed_hessian_report = doc.base_hessian
        doc.verdict = "ConservativeAffineOnly"
        doc.notes.append(
            "conservative dynamics: deformations beyond affine rescaling change "
            "the dynamics (S(L) = 0 cases excepted, where any deformation works)"
        )
    else:
        doc.verdict = "Inconclusive"
    return doc


def _trajectory_stage(doc: ReportDocument, spec) -> Optional[dict]:
    mid_x = [0.5 * (spec.bounds[f"x{i}"][0] + spec.bounds[f"x{i}"][1]) for i in range(1, spec.n + 1)]
    mid_y = [0.5 * (spec.bounds[f"y{i}"][0] + spec.bounds[f"y{i}"][1]) for i in range(1, spec.n + 1)]
    cfg = IntegratorConfig(step=1e-3, horizon=1.0, initial=PhasePoint(mid_x, mid_y))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            traj = integrate_geodesic(spec.spray, cfg, spec.params, box=spec.bounds)
    except GeodesicError as exc:
        doc.notes.append(f"trajectory stage skipped: {exc}")
        return None
    entry = {
        "steps": len(traj.times) - 1,
        "step": traj.step,
        "truncated": traj.truncated,
    }
    try:
        _, drift_l = energy_along(traj, spec.lagrangian)
        entry["energy_drift_L"] = drift_l
        entry["el_residual_L"] = el_residual_along(traj, spec.lagrangian)
    except (TooShort, ex.DomainViolation):
        entry["energy_drift_L"] = None
        entry["el_residual_L"] = None
    if doc.deformation is not None:
        deformed = DeformedLagrangian(spec.lagrangian, doc.deformation)
        # What these checks can raise: TooShort (fewer than 3 steps for the
        # central differences), DomainViolation (L or the composed Phi(L) not
        # evaluable on a state) and OutOfInterval (Phi has no float value at
        # L: L leaves Phi's interval, or Phi's closed form overflows).
        try:
            _, drift_phi = energy_along(traj, deformed)
            entry["energy_drift_PhiL"] = drift_phi
            entry["el_residual_PhiL"] = el_residual_along(traj, deformed)
        except (TooShort, ex.DomainViolation, OutOfInterval) as exc:
            entry["energy_drift_PhiL"] = None
            entry["el_residual_PhiL"] = None
            doc.notes.append(f"deformed trajectory checks unavailable: {exc}")
    return entry


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _fnum(x) -> Optional[float]:
    if x is None:
        return None
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return None
    return x


# Types the walk keeps as they are; a field of one is kept without a call.
_KEPT = {int, bool, str, tuple, type(None)}


def _data(value):
    """A report value as JSON data: a dataclass or a dict becomes the dict of
    its fields, each walked; a float goes through ``_fnum``; any other value
    is kept as it is."""
    if isinstance(value, float):
        return _fnum(value)
    fields = value if isinstance(value, dict) else getattr(value, "__dict__", None)
    if fields is None:
        return value
    return {k: v if type(v) in _KEPT else _data(v) for k, v in fields.items()}


def _family_dict(cls):
    if cls is None:
        return None
    if isinstance(cls, Tabulated):
        return {"family": "Tabulated", "points": len(cls.points)}
    return {"family": type(cls).__name__, **_data(cls)}


def _deformation_dict(d: Optional[Deformation]):
    if d is None:
        return None
    if isinstance(d, ClosedForm):
        lo, hi = d.interval
        return {
            "kind": "closed",
            **_family_dict(d.family),
            "scale": _fnum(d.scale),
            "shift": _fnum(d.shift),
            "interval": [_fnum(lo), _fnum(hi)],
        }
    return {
        "kind": "numeric",
        "grid_points": len(d.grid),
        "interval": [_fnum(d.grid[0]), _fnum(d.grid[-1])],
    }


def report_to_dict(doc: ReportDocument) -> dict:
    fit = doc.fit
    dep = doc.dependence
    t2 = doc.theorem2
    return {
        "problem": doc.problem.raw,
        "verdict": doc.verdict,
        "conditions": {
            "sigma_consistency": _data(doc.sigma_consistency),
            "sigma_condition": _data(doc.sigma_condition),
            "dependence": None
            if dep is None
            else {
                "functional": dep.functional,
                "cloud_points": len(dep.cloud),
                "levels_used": dep.levels_used,
                "max_level_spread": _fnum(dep.max_level_spread),
                "tolerance": _fnum(dep.tolerance),
            },
        },
        "classification": None
        if fit is None
        else {
            "chosen": _family_dict(fit.chosen),
            "residual": _fnum(fit.residual),
            "penalized": _fnum(fit.penalized),
            "homogeneous_root": _family_dict(fit.homogeneous_root),
            "competitors": {
                name: {
                    "params": _family_dict(info["class"]),
                    "residual": _fnum(info["residual"]),
                }
                for name, info in sorted(fit.competitors.items())
            },
        },
        "deformation": _deformation_dict(doc.deformation),
        "verification": _data(doc.verify),
        "hessians": _data({"base": doc.base_hessian, "deformed": doc.deformed_hessian_report}),
        "theorem2": (
            {
                "applicable": True,
                "degree": _fnum(t2.degree),
                "wedge_residual": _fnum(t2.wedge_residual),
                "passed": t2.passed,
                "nontrivial": t2.nontrivial,
                "phi": _family_dict(t2.phi_class),
                "tolerance": _fnum(t2.tolerance),
            }
            if t2 is not None
            else {"applicable": False, "reason": doc.theorem2_reason}
        ),
        "dissipative": _data(doc.dissipative),
        "trajectory": _data(doc.trajectory),
        "notes": list(doc.notes),
        "tolerances": _data(doc.problem.tolerances),
    }


def _fmt(x) -> str:
    if x is None:
        return "n/a"
    return f"{x:.6g}"


def _fmt_family(cls) -> str:
    return cls.describe() if cls is not None else "n/a"


def _condition_line(label: str, r: Optional[ConditionReport]) -> Optional[str]:
    if r is None:
        return None
    status = "pass" if r.passed else "FAIL"
    return (
        f"{label}: max residual = {_fmt(r.max_residual)} "
        f"(tol {_fmt(r.tolerance)}, accepted={r.accepted}, rejected={r.rejected}) -> {status}"
    )


def report_to_text(doc: ReportDocument) -> str:
    lines = [
        f"problem: {doc.problem.name}",
        f"dim: {doc.problem.n}",
    ]
    for label, rep in (
        ("sigma consistency", doc.sigma_consistency),
        ("sigma condition", doc.sigma_condition),
    ):
        line = _condition_line(label, rep)
        if line:
            lines.append(line)
    if doc.dependence is not None:
        dep = doc.dependence
        lines.append(
            f"dependence on L: {'yes' if dep.functional else 'NO'} "
            f"(levels={dep.levels_used}, max spread={_fmt(dep.max_level_spread)}, "
            f"tol {_fmt(dep.tolerance)})"
        )
    if doc.fit is not None:
        lines.append(f"family: {doc.fit.describe()}")
        lines.append(f"fit residual: {_fmt(doc.fit.residual)}")
        if doc.fit.homogeneous_root is not None:
            lines.append(f"homogeneous root: {doc.fit.homogeneous_root.describe()}")
    if doc.deformation is not None:
        lines.append(f"deformation: {doc.deformation.describe()}")
    if doc.verify is not None:
        line = _condition_line("verify", doc.verify.direct)
        lines.append(line)
        lines.append(
            f"verify expansion agreement: {_fmt(doc.verify.agreement_max)}"
        )
    for label, h in (("L", doc.base_hessian), ("Phi(L)", doc.deformed_hessian_report)):
        if h is not None:
            nontrivial = "yes" if h.nontrivial else "no"
            lines.append(f"hessian {label}: rank {h.min_rank}..{h.max_rank}, nontrivial={nontrivial}")
    if doc.theorem2 is not None:
        t2 = doc.theorem2
        status = "pass" if t2.passed else "FAIL"
        lines.append(
            f"theorem2: wedge residual = {_fmt(t2.wedge_residual)} "
            f"(tol {_fmt(t2.tolerance)}) -> {status}; degree = {_fmt(t2.degree)}; "
            f"phi = {_fmt_family(t2.phi_class)}"
        )
    elif doc.theorem2_reason is not None:
        lines.append(f"theorem2: not applicable ({doc.theorem2_reason})")
    if doc.dissipative is not None:
        diss = doc.dissipative
        lines.append(_condition_line("dissipative gradient", diss.gradient_match))
        lines.append(_condition_line("dissipative rate", diss.energy_rate_match))
        if diss.rayleigh:
            lines.append(
                f"rayleigh: quadratic dissipation, rate "
                f"{'pass' if diss.rayleigh_rate.passed else 'FAIL'}, "
                f"negative={'yes' if diss.dissipation_negative else 'no'}"
            )
    if doc.trajectory is not None:
        t = doc.trajectory
        lines.append(
            "trajectory: steps={steps}, truncated={trunc}, "
            "E_L drift={dl}, E_PhiL drift={dp}, EL residual Phi(L)={rp}".format(
                steps=t.get("steps"),
                trunc="yes" if t.get("truncated") else "no",
                dl=_fmt(t.get("energy_drift_L")),
                dp=_fmt(t.get("energy_drift_PhiL")),
                rp=_fmt(t.get("el_residual_PhiL")),
            )
        )
    for note in doc.notes:
        lines.append(f"note: {note}")
    lines.append(f"verdict: {doc.verdict}")
    return "\n".join(lines) + "\n"


def emit_report(doc: ReportDocument, format: str = "text") -> bytes:
    """Render a report; json output is byte-stable for identical inputs and
    round-trips through parse/re-emit."""
    if format == "json":
        # report_to_dict builds a tree, so no container can hold itself
        payload = json.dumps(
            report_to_dict(doc), indent=2, sort_keys=True, allow_nan=False, check_circular=False
        )
        return (payload + "\n").encode("utf-8")
    if format == "text":
        return report_to_text(doc).encode("utf-8")
    raise ValueError(f"unknown report format '{format}'")
