"""Guarded sampling of phase points inside the declared chart box.

The theorem hypotheses S(L) != 0 and C(L) != 0 are open conditions; the
faithful numeric reading is to sample away from their zero sets, rejecting
points that land within ``guard_eps`` or that violate the domain of any
expression involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Optional, Sequence

import numpy as np

from . import expressions as ex

# A draw that would have to reject more than this share of its attempts
# fails with TooManyRejections.
_MAX_REJECT_RATIO = 0.98


class SamplingError(Exception):
    pass


class TooManyRejections(SamplingError):
    """Sampling could not reach the requested count: the guard functions or
    domains exclude essentially the whole box (degenerate problem)."""

    def __init__(self, accepted: int, attempted: int, requested: int):
        super().__init__(
            f"accepted {accepted}/{requested} points after {attempted} attempts"
        )
        self.accepted = accepted
        self.attempted = attempted
        self.requested = requested


class GuardViolation(SamplingError):
    def __init__(self, name: str, value: float, eps: float):
        super().__init__(f"|{name}| = {abs(value):.3e} <= guard {eps:.1e}")
        self.name = name
        self.value = value


@dataclass(frozen=True)
class SamplePlan:
    """Box bounds per coordinate, sample count, seed and guard settings."""

    bounds: dict
    count: int
    seed: int
    guard_eps: float = 1e-6

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("sample count must be >= 1")
        if self.guard_eps <= 0:
            raise ValueError("guard threshold must be positive")
        for name, (lo, hi) in self.bounds.items():
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"degenerate bounds for {name}: [{lo}, {hi}]")

    @property
    def dimension(self) -> int:
        n = len(self.bounds) // 2
        expected = set(ex.chart_names(n))
        if set(self.bounds) != expected:
            raise ValueError(
                f"bounds must cover exactly x1..x{n}, y1..y{n}; got {sorted(self.bounds)}"
            )
        return n


def cached_kernel(memo: dict, roots: Sequence[ex.Expr], n: int, params: Optional[dict]):
    """The kernel of ``roots`` over the chart points ``(x1..xn, y1..yn)``
    with the values of ``params`` compiled in; compiled on the first request
    and then kept in ``memo``, where it keeps its roots alive."""
    # the values are compiled in: -0.0 is not 0.0, nor an int 0 a float 0.0
    values = tuple((k, type(v), v, math.copysign(1.0, v)) for k, v in (params or {}).items())
    key = (tuple(map(id, roots)), n, values)
    kernel = memo.get(key)
    if kernel is None:
        kernel = memo[key] = ex.compile(roots, ex.chart_names(n), params)
    return kernel


@dataclass(frozen=True)
class Guards:
    """Fields that must stay away from zero, and expressions that must be
    evaluable, for a point to be accepted."""

    nonzero: tuple = ()
    evaluable: tuple = ()
    # the kernel of the evaluable, then the nonzero roots, per chart and params
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def admits(self, row, params: Optional[dict], eps: float) -> bool:
        """Whether the guards accept the chart point ``row`` under the
        parameter values ``params``, read by a walk that compiles no code."""
        values = cached_kernel(self._kernels, self._roots(), len(row) // 2, params).walk(row)
        try:  # the nonzero roots after the evaluable, read in order
            return all(
                math.isfinite(v) and (k < len(self.evaluable) or abs(v) > eps)
                for k, v in enumerate(values)
            )
        except ex.DomainViolation:
            return False

    def admit(self, block, params: Optional[dict], eps: float):
        """:meth:`admits` at each column of ``block``, from one column call of
        the guard kernel, and at each row it marks, from :meth:`admits`."""
        kernel = cached_kernel(self._kernels, self._roots(), len(block) // 2, params)
        values, marked = kernel.columns(block)
        ok = np.ones(block.shape[1], dtype=bool)
        for k, v in enumerate(values):  # the nonzero roots after the evaluable
            ok &= np.isfinite(v) & ((k < len(self.evaluable)) | (np.abs(v) > eps))
        for j in sorted(marked):
            ok[j] = self.admits(block[:, j].tolist(), params, eps)
        return ok

    def _roots(self) -> tuple:
        return tuple(self.evaluable) + tuple(f.expr for f in self.nonzero)


class Samples:
    """The accepted rows of one draw, each a chart point ``(x1..xn,
    y1..yn)``, the number of draws it took, and the rows as columns, built
    once: line ``i`` of ``stack`` holds coordinate ``i`` of each row. The
    stack is read-only, so no check writes into rows another reads."""

    __slots__ = ("rows", "attempts", "stack")

    def __init__(self, rows: list, attempts: int):
        self.rows = rows
        self.attempts = attempts
        self.stack = np.array(rows, dtype=float).T
        self.stack.flags.writeable = False

    @property
    def rejected(self) -> int:
        return self.attempts - len(self.rows)


def draw_samples(
    plan: SamplePlan, guards: Guards, params: Optional[dict] = None
) -> Samples:
    """Draw exactly ``plan.count`` guard-admissible rows, deterministically
    for a fixed seed. Raises :class:`TooManyRejections` if the acceptance
    ratio falls below ``1 - _MAX_REJECT_RATIO``, at once and with no attempt
    when a ``nonzero`` guard is a constant within ``plan.guard_eps`` of zero."""
    n = plan.dimension
    for f in guards.nonzero:
        if isinstance(f.expr, ex.Const) and abs(f.expr.value) <= plan.guard_eps:
            raise TooManyRejections(0, 0, plan.count)
    rng = np.random.default_rng(plan.seed)
    names = ex.chart_names(n)
    lows = np.array([plan.bounds[v][0] for v in names])
    highs = np.array([plan.bounds[v][1] for v in names])

    budget = max(64, int(math.ceil(plan.count / (1.0 - _MAX_REJECT_RATIO))))
    accepted = []
    attempts = 0
    while len(accepted) < plan.count:
        if attempts >= budget:
            raise TooManyRejections(len(accepted), attempts, plan.count)
        # as many attempts as rows are still needed, drawn at once: the same
        # rows one draw per attempt gives, and none after the last needed
        size = min(plan.count - len(accepted), budget - attempts)
        block = rng.uniform(lows, highs, size=(size, 2 * n))
        attempts += size
        accepted += compress(block.tolist(), guards.admit(block.T, params, plan.guard_eps))
    return Samples(accepted, attempts)
