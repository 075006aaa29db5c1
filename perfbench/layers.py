"""Per-layer tracing of lagdeform from outside the program.

:class:`Tracer` replaces public functions of the lagdeform modules with
wrappers, in every lagdeform module namespace that holds them, so a call
made from inside the package is traced as well as one made by the
benchmark. Spanned functions record a span (name, job, calling span, start,
end); counted ones only bump a counter. A span's self time is its duration
minus the durations of the spans it called. Spans stay in memory and are
written out when the run ends. The untraced run installs nothing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from lagdeform import conditions, dynamics, sampling

# (module, public function) pairs that get a span.
SPANNED = (
    ("geometry", "spray_apply"),
    ("geometry", "lagrange_differential"),
    ("geometry", "fiber_hessian"),
    ("geometry", "homogeneity_degree"),
    ("sampling", "draw_samples"),
    ("conditions", "check_sigma_consistency"),
    ("conditions", "check_sigma_condition"),
    ("conditions", "functional_dependence_test"),
    ("conditions", "classify"),
    ("conditions", "hessian_report"),
    ("conditions", "check_homogeneous"),
    ("conditions", "check_dissipative"),
    ("deformation", "synthesize"),
    ("deformation", "verify_deformed_el"),
    ("deformation", "deformed_hessian"),
    ("dynamics", "integrate_geodesic"),
    ("dynamics", "energy_along"),
    ("dynamics", "el_residual_along"),
    ("pipeline", "run_pipeline"),
    ("pipeline", "emit_report"),
    ("pipeline", "problem_from_dict"),
)
# The constructor of DerivedFields, spanned through its __post_init__.
DERIVED_FIELDS = "conditions.DerivedFields"
# (module, public function) pairs that are counted, not spanned.
COUNTED = (("expressions", "evaluate"), ("expressions", "partial"))

COUNTERS = (
    ("sampling.attempts", "count"),
    ("sampling.accepted", "count"),
    ("sampling.accept_ratio", "ratio"),
    ("sampling.rejected_reported", "count"),
    ("conditions.dependence.levels_used", "count"),
    ("dynamics.rk4_steps", "count"),
    ("dynamics.rk4_steps_per_s", "1/s"),
    ("expressions.derived_nodes", "count"),
    ("expressions.derived_distinct", "count"),
    ("trace.overhead_s", "s"),
)


# Figures of the whole run rather than of one pass.
_NOT_PER_PASS = ("expressions.derived_nodes", "expressions.derived_distinct", "trace.overhead_s")


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {f"{m}.{f}.calls": "count" for m, f in COUNTED}
    for name in [f"{m}.{f}" for m, f in SPANNED] + [DERIVED_FIELDS]:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    return units


@dataclass
class Span:
    id: int
    name: str
    job: Optional[str]
    parent: Optional[int]
    start: float
    end: float
    self_s: float


class Tracer:
    def __init__(self):
        self.job: Optional[str] = None
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list = []  # [span id, seconds covered by child spans]
        self._restore: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        packages = {
            name: module
            for name, module in sys.modules.items()
            if name == "lagdeform" or name.startswith("lagdeform.")
        }
        observers = {
            "dynamics.integrate_geodesic": self._observe_rk4,
            "conditions.functional_dependence_test": self._observe_levels,
        }
        for module, function in SPANNED:
            name = f"{module}.{function}"
            original = getattr(packages[f"lagdeform.{module}"], function)
            self._replace(packages, original, self._spanned(name, original, observers.get(name)))
        for module, function in COUNTED:
            original = getattr(packages[f"lagdeform.{module}"], function)
            self._replace(packages, original, self._counted(f"{module}.{function}.calls", original))
        post_init = conditions.DerivedFields.__post_init__
        self._set(conditions.DerivedFields, "__post_init__", self._spanned(DERIVED_FIELDS, post_init))
        self._set(sampling.Guards, "admits", self._admits(sampling.Guards.admits))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, packages, original, wrapper) -> None:
        for module in packages.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn, observe=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(self.spans), 0.0]
            self.spans.append(None)  # reserve the id; filled in on exit
            parent = self._open[-1][0] if self._open else None
            self._open.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if observe is not None:
                    observe(error=exc)
                raise
            finally:
                end = clock()
                self._open.pop()
                if self._open:
                    self._open[-1][1] += end - start
                self.spans[frame[0]] = Span(
                    frame[0], name, self.job, parent, start, end, end - start - frame[1]
                )
            if observe is not None:
                observe(result=result)
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _admits(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(guards, point, params, eps):
            accepted = fn(guards, point, params, eps)
            counts["sampling.attempts"] += 1
            counts["sampling.accepted"] += bool(accepted)
            return accepted

        return wrapper

    def _observe_rk4(self, result=None, error=None):
        if result is not None:
            self.counts["dynamics.rk4_steps"] += len(result.times) - 1
        elif isinstance(error, dynamics.GeodesicError) and error.step is not None:
            self.counts["dynamics.rk4_steps"] += error.step
        # Steps of a run that raised anything else are not known from outside.

    def _observe_levels(self, result=None, error=None):
        if result is not None:
            self.counts["conditions.dependence.levels_used"] += result.levels_used

    # -- reading ----------------------------------------------------------

    def take(self, first_span: int) -> dict:
        """Per-layer figures of the spans recorded since ``first_span`` and of
        the counters, which are then reset."""
        figures = {name: 0 for name in metric_units() if name not in _NOT_PER_PASS}
        figures.update({name: 0.0 for name in figures if name.endswith(".self_s")})
        rk4_seconds = 0.0
        for span in self.spans[first_span:]:
            figures[f"{span.name}.calls"] += 1
            figures[f"{span.name}.self_s"] += span.self_s
            if span.name == "dynamics.integrate_geodesic":
                rk4_seconds += span.end - span.start
        figures.update(self.counts)
        self.counts.clear()
        attempts = figures["sampling.attempts"]
        figures["sampling.accept_ratio"] = figures["sampling.accepted"] / attempts if attempts else 0.0
        steps = figures["dynamics.rk4_steps"]
        figures["dynamics.rk4_steps_per_s"] = steps / rk4_seconds if rk4_seconds else 0.0
        return figures

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")


# ---------------------------------------------------------------------------
# expression sizes
# ---------------------------------------------------------------------------


def derived_tree_sizes(spray, lagrangian) -> tuple:
    """(nodes, distinct subtrees) of S(L), C(L), S(E_L), d_J L and delta_S L,
    walking the public trees of their :class:`DerivedFields`. Nodes count
    every occurrence; subtrees are distinct when their structure differs."""
    derived = conditions.DerivedFields(spray, lagrangian)
    roots = [derived.spray_of_L.expr, derived.liouville_of_L.expr, derived.energy_rate.expr]
    roots += list(derived.vertical.components) + list(derived.defect.components)
    keys: dict = {}  # structural key -> subtree number
    memo: dict = {}  # id(node) -> (subtree number, node count)

    def visit(node):
        seen = memo.get(id(node))
        if seen is not None:
            return seen
        children, atoms = [], []
        for slot in _slots(type(node)):
            value = getattr(node, slot)
            if isinstance(value, (int, float, str)):
                atoms.append(value)
            else:
                children.append(visit(value))
        key = (type(node).__name__, tuple(atoms), tuple(number for number, _ in children))
        number = keys.setdefault(key, len(keys))
        memo[id(node)] = result = (number, 1 + sum(count for _, count in children))
        return result

    nodes = sum(visit(root)[1] for root in roots)
    return nodes, len(keys)


@functools.lru_cache(maxsize=None)
def _slots(cls) -> tuple:
    return tuple(slot for klass in cls.__mro__ for slot in getattr(klass, "__slots__", ()))
