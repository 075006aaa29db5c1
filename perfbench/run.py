"""Benchmark of lagdeform: time to a verdict, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-report --seed 0 --seconds 20 --trace 0

One client runs the workload's jobs closed loop, one at a time in this
process: whole passes over the jobs, until ``--seconds`` have gone by and
every input set the seed gives has had its pass; the passes cycle over
those sets (``workloads.py``). Each job's result is checked against the
hand-written reference in ``reference.py``, on every pass. A job fails
when it disagrees with the reference or raises an undeclared exception, or
when its passes do not all end the same way ("nondeterministic");
failures are counted by type. ``attempted`` and ``failed`` count distinct
jobs, so they hang on the seed and not on how many passes fit in the time.

Times are wall times rescaled to a reference machine speed by the ruler in
``ruler.py``, which is read before, during and after every job; the times as
measured are printed too. ``setup_s`` is the median of several set-ups,
each in a fresh interpreter (``setup_probe.py``). ``wall_s`` is the median
over passes of the summed job times, ``job_s.<problem>`` the median time of
that problem's jobs, and ``job_s.tail`` a high percentile of all job times
(see ``tail_time``). ``peak_rss_mb`` is this process's peak resident size.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs passes
untraced for half the time (and on every input set), then with timing
wrappers around the lagdeform modules for the other half, and prints the
per-layer metrics: medians per pass over the traced passes, plus
``trace.overhead_s``, the traced minus the untraced pass time on the same
inputs. Its spans go to ``perfbench/out/``.

Every metric is printed as ``metric <name> <value> <unit>``. The last line
is one JSON object: ``correct`` (no job returned a result that contradicts
the reference), ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One thread per numeric library, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import ruler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 3
# job_s.tail is the highest of these percentiles with at least
# TAIL_BEYOND jobs above it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("corpus-report", "corpus-sparse", "geodesic"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lagdeform" / "__init__.py").is_file():
        print(f"error: no lagdeform sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore", RuntimeWarning)

    import workloads  # imports lagdeform from SRC

    # The modules' objects stay for good: keep the collector from scanning
    # them again in every job (see run_job).
    gc.collect()
    gc.freeze()

    print("environment " + json.dumps(environment(args)), flush=True)
    if args.trace:
        return traced_run(workloads, args)

    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    with ruler.Timer() as timer:
        passes, _ = run_passes(workloads, args, timer, args.seconds, every_set=True)

    records = [record for p in passes for record in p]
    times = [record.seconds for record in records]
    tail, percentile, beyond = tail_time(times)
    metrics = {
        "setup_s": statistics.median(rescaled for rescaled, _ in setups),
        "wall_s": statistics.median(sum(r.seconds for r in p) for p in passes),
    }
    for problem in dict.fromkeys(r.problem for r in records):
        metrics[f"job_s.{problem}"] = statistics.median(
            r.seconds for r in records if r.problem == problem
        )
    metrics["job_s.tail"] = tail
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    units = {name: "MB" if name == "peak_rss_mb" else "s" for name in metrics}
    print(f"passes {len(passes)}; job runs {len(records)}; setup probes {SETUP_PROBES}")
    print(
        "as measured, before rescaling by the ruler: "
        f"setup_s {statistics.median(raw for _, raw in setups):.6g} s, "
        f"wall_s {statistics.median(sum(r.raw_seconds for r in p) for p in passes):.6g} s"
    )
    print(f"job_s.tail is p{percentile:g} of {len(times)} jobs, {beyond} above it")
    return finish(records, metrics, units)


def traced_run(workloads, args) -> int:
    import layers

    tracer = layers.Tracer()
    with ruler.Timer() as timer:
        untraced, _ = run_passes(workloads, args, timer, args.seconds / 2.0, every_set=True)
        tracer.install()
        try:
            traced, figures = run_passes(workloads, args, timer, args.seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    metrics = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
    specs = [workloads.problem_spec(name, 0) for name in workloads.CORPUS_NAMES]
    sizes = [layers.derived_tree_sizes(spec.spray, spec.lagrangian) for spec in specs]
    metrics["expressions.derived_nodes"] = sum(nodes for nodes, _ in sizes)
    metrics["expressions.derived_distinct"] = sum(distinct for _, distinct in sizes)
    untraced_s = statistics.median(sum(r.seconds for r in p) for p in untraced)
    traced_s = statistics.median(sum(r.seconds for r in p) for p in traced)
    # Each traced pass against the untraced passes on the same inputs.
    by_set = {}
    for p in untraced:
        by_set.setdefault(p[0].job[0], []).append(sum(r.seconds for r in p))
    metrics["trace.overhead_s"] = statistics.median(
        sum(r.seconds for r in p) - statistics.median(by_set[p[0].job[0]]) for p in traced
    )
    print(f"passes {len(untraced)} untraced ({untraced_s:.6g} s), {len(traced)} traced ({traced_s:.6g} s)")
    attempts, accepted = metrics["sampling.attempts"], metrics["sampling.accepted"]
    print(
        f"sampler per pass: {attempts} draws, {accepted} accepted, {attempts - accepted} "
        f"rejected; the reports' rejected fields sum to {metrics['sampling.rejected_reported']}"
    )
    records = [r for p in untraced + traced for r in p]
    units = layers.metric_units()
    return finish(records, {name: metrics[name] for name in units}, units)


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------


@dataclass
class Record:
    job: tuple  # (input set, index in the pass): the same job on every pass
    problem: str
    raw_seconds: float  # wall time as measured
    seconds: float  # rescaled to the ruler's reference speed
    status: str  # "ok", "mismatch" or the exception type
    detail: Optional[str] = None
    rejected: int = 0  # sum of the rejected fields of the job's reports


def run_job(key, job, timer) -> Record:
    gc.collect()  # every job starts on the same collector state, untimed
    result, error, raw_seconds, seconds = timer.time(job.run)
    if error is not None:  # undeclared: the job fails, counted by type
        return Record(key, job.problem, raw_seconds, seconds, type(error).__name__, str(error))
    reason = job.check(result)
    status = "ok" if reason is None else "mismatch"
    return Record(key, job.problem, raw_seconds, seconds, status, reason, job.reported_rejections(result))


def run_passes(workloads, args, timer, seconds: float, tracer=None, every_set=False) -> tuple:
    """Whole passes until ``seconds`` have gone by, at least one, and with
    ``every_set`` at least one on each input set; pass k runs the jobs built
    from the seed and input set k modulo the workload's number of sets.
    Returns the passes' records and, when traced, each pass's per-layer
    figures."""
    sets = workloads.INPUT_SETS[args.workload]
    least = sets if every_set else 1
    passes, figures = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < least or time.perf_counter() < deadline:
        label, input_set = len(passes), len(passes) % sets
        if tracer is not None:
            first = len(tracer.spans)
            tracer.job = f"{label}:setup"
        records = []
        for index, job in enumerate(workloads.setup(args.workload, args.seed, input_set)):
            if tracer is not None:
                tracer.job = f"{label}:{index}:{job.problem}"
            records.append(run_job((input_set, index), job, timer))
        passes.append(records)
        if tracer is not None:
            figures.append(tracer.take(first))
            figures[-1]["sampling.rejected_reported"] = sum(r.rejected for r in records)
    return passes, figures


def tail_time(times) -> tuple:
    """(time, percentile, jobs above it) for the highest percentile in
    TAIL_PERCENTILES with at least TAIL_BEYOND jobs above it; the median when
    there are too few jobs for that."""
    ordered = sorted(times)
    for percentile in TAIL_PERCENTILES:
        rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
        if len(ordered) - rank >= TAIL_BEYOND or percentile == TAIL_PERCENTILES[-1]:
            return ordered[rank - 1], percentile, len(ordered) - rank


def probe_setup(workload: str, seed: int) -> tuple:
    """Seconds one set-up takes in a fresh interpreter: rescaled by the
    ruler, and as measured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    raw_seconds, seconds = (float(word) for word in done.stdout.split())
    return seconds, raw_seconds


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def finish(records, metrics: dict, units: dict) -> int:
    outcomes = {}
    for r in records:
        outcomes.setdefault(r.job, {})[r.status] = r
    failures = Counter()
    for by_status in outcomes.values():
        if len(by_status) > 1:
            failures["nondeterministic"] += 1
        elif "ok" not in by_status:
            failures.update(by_status.keys())
        if "mismatch" in by_status:
            r = by_status["mismatch"]
            print(f"MISMATCH {r.problem}: {r.detail}", file=sys.stderr)
    failed = sum(failures.values())
    print(f"failures {json.dumps(dict(sorted(failures.items())))}")
    print(f"failed_ratio {failed / len(outcomes):.6g} ({failed} of {len(outcomes)} jobs)")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    result = {
        "correct": all(r.status != "mismatch" for r in records),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
