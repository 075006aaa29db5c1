"""Command-line interface.

``check``, ``classify``, ``synthesize`` and ``verify`` run the pipeline in
``"verify"`` mode on a problem file (the conditions, the slope family, the
deformation and every check of it) and emit the same report; ``report`` adds
a trajectory pass. ``geodesic`` integrates a geodesic and exports it as CSV,
beside the ``Phi`` of a ``"synthesize"`` run, which stops once it is built.

Exit codes: 0 for DeformableRegular / DeformableSingular /
ConservativeAffineOnly, 1 for NotOfTheoremForm, 2 for Inconclusive, and 3
for every error ``main`` reports as ``error: <message>``: a bad problem file
or flag, and a ``geodesic`` run that blows up, leaves the domain of L or
meets an L at which Phi has no float value.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .deformation import DeformedLagrangian
from .dynamics import (
    GeodesicError,
    IntegratorConfig,
    integrate_geodesic,
    trajectory_to_csv,
)
from .expressions import ExpressionError
from .geometry import PhasePoint
from .pipeline import SchemaError, emit_report, load_problem, run_pipeline

_VERDICT_EXIT = {
    "DeformableRegular": 0,
    "DeformableSingular": 0,
    "ConservativeAffineOnly": 0,
    "NotOfTheoremForm": 1,
    "Inconclusive": 2,
}

INPUT_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--problem", required=True, help="path to a problem JSON file")
    common.add_argument("--seed", type=int, default=None, help="override the sampling seed")
    common.add_argument("--samples", type=int, default=None, help="override the sample count")
    common.add_argument("--out", default=None, help="write the output here instead of stdout")
    reports = argparse.ArgumentParser(add_help=False, parents=[common])
    reports.add_argument("--tol", type=float, default=None, help="override the identity tolerance")
    reports.add_argument("--format", choices=("text", "json"), default="text")
    parser = argparse.ArgumentParser(
        prog="lagdeform",
        description="Decide whether forced Lagrange dynamics admit a scalar "
        "deformation with genuine Euler-Lagrange form, construct it, verify it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "classify", "synthesize", "verify"):
        sub.add_parser(name, parents=[reports], help="run every stage but the trajectory pass")
    sub.add_parser("report", parents=[reports], help="run every stage and a trajectory pass")
    g = sub.add_parser("geodesic", parents=[common], help="integrate a geodesic and export CSV")
    g.add_argument("--x0", type=float, nargs="+", required=True, help="initial base point")
    g.add_argument("--y0", type=float, nargs="+", required=True, help="initial velocity")
    g.add_argument("--step", type=float, default=1e-3, help="integration step")
    g.add_argument("--horizon", type=float, default=1.0, help="integration horizon")
    g.add_argument("--csv", default=None, help="write the trajectory CSV here")
    return parser


def _load(args):
    spec = load_problem(args.problem)
    seed = spec.seed if args.seed is None else args.seed
    return replace(spec, seed=seed, count=spec.count if args.samples is None else args.samples)


def _write(args, payload: bytes):
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))


def _run_report(args) -> int:
    spec = _load(args)
    if args.tol is not None:
        spec = replace(spec, tolerances={**spec.tolerances, "identity": args.tol})
    doc = run_pipeline(spec, mode="report" if args.command == "report" else "verify")
    _write(args, emit_report(doc, args.format))
    return _VERDICT_EXIT[doc.verdict]


def _run_geodesic(args) -> int:
    spec = _load(args)
    if len(args.x0) != spec.n or len(args.y0) != spec.n:
        raise ValueError(f"--x0/--y0 must have {spec.n} entries")
    cfg = IntegratorConfig(
        step=args.step, horizon=args.horizon, initial=PhasePoint(args.x0, args.y0)
    )
    traj = integrate_geodesic(spec.spray, cfg, spec.params)
    phi = run_pipeline(spec, mode="synthesize").deformation
    deformed = DeformedLagrangian(spec.lagrangian, phi) if phi is not None else None
    csv_text = trajectory_to_csv(traj, spec.lagrangian, deformed)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        summary = (
            f"geodesic: {len(traj.times) - 1} steps, h={traj.step:g}, "
            f"csv -> {args.csv}\n"
        )
        _write(args, summary.encode("utf-8"))
    else:
        _write(args, csv_text.encode("utf-8"))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "geodesic":
            return _run_geodesic(args)
        return _run_report(args)
    except (SchemaError, ExpressionError, GeodesicError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
