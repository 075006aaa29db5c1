"""The benchmark's workloads: their inputs, their jobs and the jobs' checks.

:func:`setup` builds the jobs of one pass over a workload from the seed
and an input set number. A run draws ``INPUT_SETS[workload]`` sets of fresh
inputs from its seed and cycles over them pass after pass: its medians
average over many inputs instead of resting on one draw, and the jobs it
checks are fixed by the seed alone, however many passes fit in the time.
A job is one call sequence into lagdeform that a user would make; the
benchmark times ``Job.run`` and then hands its result to ``Job.check``,
which compares it with the hand-written reference in :mod:`reference`.

* ``corpus-report``: the 7 bundled problems as shipped, each through
  ``run_pipeline(spec, "report")`` and ``emit_report(doc, "json")``.
* ``corpus-sparse``: the same with ``sampling.count`` cut to one tenth, so
  the work per problem that does not scale with the samples dominates.
* ``geodesic``: per problem, ``GEODESIC_STARTS`` starts drawn uniformly in
  the box (a Latin hypercube; ``GEODESIC_STARTS_HOMOGENEOUS`` for
  homogeneous), interleaved over the problems, each integrated unboxed
  with RK4 (step 1e-3, horizon 1) and followed by ``energy_along`` and
  ``el_residual_along`` for L and Phi(L).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Calls go through the module attributes so that the traced run, which
# replaces them with timing wrappers, sees the benchmark's own calls too.
from lagdeform import deformation, dynamics, pipeline
from lagdeform import expressions as ex
from lagdeform.corpus import CORPUS_NAMES, corpus_text
from lagdeform.geometry import PhasePoint

import reference

WORKLOADS = ("corpus-report", "corpus-sparse", "geodesic")
SPARSE_DIVISOR = 10
GEODESIC_STARTS = 10
# Most homogeneous starts blow up within a few hundred steps, so their jobs
# are cheap, and how long each takes hangs on its start: four times the
# starts keep the median job time from moving with the seed.
GEODESIC_STARTS_HOMOGENEOUS = 40
_SEED_MODULUS = 2**31
_SET_STRIDE = 1000  # input offsets of seed s are s * _SET_STRIDE + set
# Input sets per run. The work of a corpus job hangs on its samples (the
# classify fit takes more or fewer Gauss-Newton steps: a dissipative job
# takes from 0.64 s to 0.97 s), so a per-problem median needs several
# inputs. On a shared 2-core x86-64 machine one pass takes about 10.5 s on
# corpus-report, 2.6 s on corpus-sparse and 12 s on geodesic.
INPUT_SETS = {"corpus-report": 4, "corpus-sparse": 12, "geodesic": 2}


@dataclass
class Job:
    problem: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None, or why the result is wrong
    # sum of the ``rejected`` fields of the reports in the result
    reported_rejections: Callable[[object], int] = lambda result: 0


def input_offset(seed: int, input_set: int = 0) -> int:
    """Shift of the shipped sampling seeds; 0 for seed 0 and the first set."""
    return (seed % _SEED_MODULUS) * _SET_STRIDE + input_set


def problem_spec(name: str, offset: int, sparse: bool = False):
    """A corpus problem with its sampling seed shifted by ``offset``; offset
    0 reproduces the shipped problem."""
    data = json.loads(corpus_text(name))
    data["sampling"]["seed"] += offset
    if sparse:
        data["sampling"]["count"] = max(1, data["sampling"]["count"] // SPARSE_DIVISOR)
    return pipeline.problem_from_dict(data)


def setup(workload: str, seed: int, input_set: int = 0) -> list:
    """The jobs of one pass over ``workload`` on one of its input sets."""
    offset = input_offset(seed, input_set)
    if workload == "geodesic":
        # Interleaved over the problems, so each problem's short jobs are
        # spread over the whole pass rather than bunched into one moment of
        # the shared machine's speed.
        per_problem = [_geodesic_jobs(name, offset) for name in CORPUS_NAMES]
        spread = [
            (index / len(jobs), order, job)
            for order, jobs in enumerate(per_problem)
            for index, job in enumerate(jobs)
        ]
        return [job for _, _, job in sorted(spread, key=lambda entry: entry[:2])]
    if workload in ("corpus-report", "corpus-sparse"):
        sparse = workload == "corpus-sparse"
        return [_corpus_job(name, offset, sparse) for name in CORPUS_NAMES]
    raise ValueError(f"unknown workload '{workload}'")


def _corpus_job(name: str, offset: int, sparse: bool) -> Job:
    spec = problem_spec(name, offset, sparse)

    def run():
        doc = pipeline.run_pipeline(spec, "report")
        return doc, pipeline.emit_report(doc, "json")

    return Job(
        name,
        run,
        lambda result: reference.check_corpus(name, *result),
        lambda result: _reported_rejections(result[0]),
    )


def _reported_rejections(doc) -> int:
    reports = [doc.sigma_consistency, doc.sigma_condition]
    if doc.verify is not None:
        reports.append(doc.verify.direct)
    if doc.dissipative is not None:
        diss = doc.dissipative
        reports += [diss.gradient_match, diss.energy_rate_match, diss.rayleigh_rate]
    return sum(r.rejected for r in reports if r is not None)


def _geodesic_jobs(name: str, offset: int) -> list:
    spec = problem_spec(name, 0)
    names = ex.chart_names(spec.n)
    centre = {v: 0.5 * (spec.bounds[v][0] + spec.bounds[v][1]) for v in names}
    l_centre = ex.evaluate(spec.lagrangian.expr, {**centre, **spec.params})
    phi = deformation.synthesize(reference.GEODESIC_FAMILY[name], (l_centre, l_centre))
    deformed = deformation.DeformedLagrangian(spec.lagrangian, phi)

    rng = np.random.default_rng(spec.seed + offset)
    lows = np.array([spec.bounds[v][0] for v in names])
    highs = np.array([spec.bounds[v][1] for v in names])
    # A Latin hypercube: each coordinate's range is cut into as many equal
    # strata as there are starts, with one start in each, so every input set
    # covers the box evenly. Job times hang on the start (homogeneous
    # blow-up time), and this keeps their median from moving with the seed.
    count = GEODESIC_STARTS_HOMOGENEOUS if name == "homogeneous" else GEODESIC_STARTS
    strata = np.stack([rng.permutation(count) for _ in names], axis=1)
    unit = (strata + rng.uniform(size=strata.shape)) / count
    starts = list(lows + unit * (highs - lows))

    def make(start):
        cfg = dynamics.IntegratorConfig(
            step=reference.HORIZON / reference.STEPS,
            horizon=reference.HORIZON,
            initial=PhasePoint(start[: spec.n], start[spec.n :]),
        )

        def run():
            return _geodesic_run(spec, cfg, deformed)

        def check(result):
            return reference.check_geodesic(name, start, *result)

        return Job(name, run, check)

    return [make(start) for start in starts]


def _geodesic_run(spec, cfg, deformed):
    """(outcome, steps, Phi(L) energy drift, largest |Phi(L) energy|)."""
    try:
        traj = dynamics.integrate_geodesic(spec.spray, cfg, spec.params)
    except dynamics.GeodesicError:
        return reference.BLOW_UP, 0, 0.0, 0.0
    steps = len(traj.times) - 1
    try:
        dynamics.energy_along(traj, spec.lagrangian)
        dynamics.el_residual_along(traj, spec.lagrangian)
        series, drift = dynamics.energy_along(traj, deformed)
        dynamics.el_residual_along(traj, deformed)
    except (ex.DomainViolation, deformation.OutOfInterval, dynamics.TooShort):
        return reference.OFF_DOMAIN, steps, 0.0, 0.0
    return reference.TRAJECTORY, steps, drift, float(np.max(np.abs(series)))
