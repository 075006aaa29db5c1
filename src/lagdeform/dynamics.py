"""Geodesic integration and trajectory-level checks.

Classical fixed-step RK4 on the first-order system x' = y, y' = -2G(x, y),
in one straight-line step function whose code is generated per chart shape
(``n``, and whether a box is tested), and which a run binds to its step and
box. Its stages read the spray's compiled row code once each and combine in
the operations and order of ``state + (h/6)(k1 + 2 k2 + 2 k3 + k4)``, bit
for bit the array form. It inlines the finiteness test, then the box test.
Where the row code raises, the step reruns on the kernel, whose tree walk
raises the stage's own error.

The energy and Euler-Lagrange checks of ``L`` and ``Phi(L)`` along one
trajectory share one read of ``L``'s fields over its states.

The along-trajectory Euler-Lagrange residual differentiates the sampled
momenta by central differences on purpose: it is an independent check that
the flow solves the equations, not a restatement of the symbolic identity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cache
from types import FunctionType
from typing import Optional, Union

import numpy as np

from . import expressions as ex
from .deformation import DeformedLagrangian, chain
from .geometry import PhasePoint, ScalarField, SemiSpray, liouville_apply, vertical_differential


class GeodesicError(Exception):
    def __init__(self, message: str, step: Optional[int] = None):
        super().__init__(message if step is None else f"{message} at step {step}")
        self.step = step


class TooShort(Exception):
    pass


@dataclass(frozen=True)
class IntegratorConfig:
    step: float
    horizon: float
    initial: PhasePoint

    def __post_init__(self):
        if self.step <= 0 or self.horizon <= 0:
            raise ValueError("step and horizon must be positive")
        ratio = self.horizon / self.step
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError("horizon must be a positive integer multiple of the step")

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.step))


@dataclass
class Trajectory:
    spray: SemiSpray
    params: Optional[dict]
    step: float
    times: np.ndarray
    states: np.ndarray  # rows (x1..xn, y1..yn)
    truncated: bool = False
    # id of each checked base L -> (L, lines, errors, {id of Phi: (Phi, chain, marked)})
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.spray.n


@cache
def _step_code(n: int, boxed: bool):
    """The code of ``step(state, spray)`` for ``n`` degrees of freedom, with
    or without the box test: ``h``, ``half``, ``sixth`` and the bounds
    ``lo{i}``, ``hi{i}`` are names its globals bind."""
    m = 2 * n
    row = [f"s{i}" for i in range(m)]
    lines = [f"    {''.join(v + ', ' for v in row)}= state"]
    ks = []
    for j, scale in enumerate(("half", "half", "h", None)):
        g = [f"g{j}_{i}" for i in range(n)]
        lines.append(f"    {''.join(v + ', ' for v in g)}= spray([{', '.join(row)}])")
        lines += [f"    k{j}_{i} = -2.0 * {g[i]}" for i in range(n)]
        ks.append(row[n:] + [f"k{j}_{i}" for i in range(n)])
        if scale:
            lines += [f"    u{j}_{i} = s{i} + {scale} * {ks[j][i]}" for i in range(m)]
            row = [f"u{j}_{i}" for i in range(m)]
    lines += [
        f"    r{i} = s{i} + sixth * ((({a} + 2.0 * {b}) + 2.0 * {c}) + {d})"
        for i, (a, b, c, d) in enumerate(zip(*ks))
    ]
    # not (|v| <= 1e100) also holds for nan and inf
    tests = {1: [f"abs(r{i}) <= 1e100" for i in range(m)]}
    if boxed:
        tests[2] = [f"lo{i} <= r{i} <= hi{i}" for i in range(m)]
    lines += [f"    if not ({' and '.join(t)}): return None, {flag}" for flag, t in tests.items()]
    lines.append(f"    return [{', '.join(f'r{i}' for i in range(m))}], 0")
    namespace = {}
    exec("def step(state, spray):\n" + "\n".join(lines) + "\n", namespace)
    return namespace["step"].__code__


def _rk4_step(n: int, h: float, box: Optional[dict]):
    """``step(state, spray)``: one RK4 step from the ``2n`` state floats, reading
    the spray by ``spray(row)``: ``(next_state, 0)``, ``(None, 1)`` where a
    component is not finite or exceeds 1e100 in size, else ``(None, 2)`` outside
    ``box``. The code is compiled once per chart shape; ``h`` and ``box`` bind its names."""
    namespace = {"half": 0.5 * h, "h": h, "sixth": h / 6.0}
    if box is not None:
        for i, v in enumerate(ex.chart_names(n)):
            namespace[f"lo{i}"], namespace[f"hi{i}"] = box[v][0], box[v][1]
    return FunctionType(_step_code(n, box is not None), namespace)


def integrate_geodesic(
    spray: SemiSpray,
    cfg: IntegratorConfig,
    params: Optional[dict] = None,
    box: Optional[dict] = None,
) -> Trajectory:
    """RK4 trajectory of the spray. A trajectory leaving the declared chart
    box is truncated with a warning (conclusions hold on the chart only);
    domain violations and non-finite states raise :class:`GeodesicError`."""
    n = spray.n
    if cfg.initial.n != n:
        raise GeodesicError("initial point dimension mismatch")
    h = cfg.step
    kernel = ex.compile(spray.coefficients, ex.chart_names(n), params)
    step, row_code = _rk4_step(n, h, box), kernel.row_code()
    state = list(cfg.initial.x + cfg.initial.y)
    states = [state]
    times = [0.0]
    truncated = False
    for k in range(cfg.steps):
        try:
            try:
                state, flag = step(state, row_code)
            except (ArithmeticError, ValueError, LookupError):
                # the kernel hands back its tree walk where the row code
                # raises, and unpacking it raises the stage's own error
                state, flag = step(state, kernel)
        except ex.Overflow as exc:
            # a power or exp overflows inside a stage before the state test sees it
            raise GeodesicError("non-finite state (blow-up)", step=k) from exc
        except ex.DomainViolation as exc:
            raise GeodesicError(f"domain violation: {exc}", step=k) from exc
        if flag == 1:
            raise GeodesicError("non-finite state (blow-up)", step=k)
        if flag == 2:
            truncated = True
            warnings.warn(
                f"trajectory left the chart box at t = {(k + 1) * h:g}; truncating",
                RuntimeWarning,
                stacklevel=2,
            )
            break
        states.append(state)
        times.append((k + 1) * h)
    return Trajectory(
        spray=spray,
        params=dict(params) if params else None,
        step=h,
        times=np.asarray(times),
        states=np.asarray(states, dtype=float),
        truncated=truncated,
    )


Lagrangianlike = Union[ScalarField, DeformedLagrangian]


def _base_of(lag: Lagrangianlike) -> ScalarField:
    return lag.base if isinstance(lag, DeformedLagrangian) else lag


def _fields(traj: Trajectory, base: ScalarField):
    """:func:`ex.table` of the fields ``L, C(L), dL/dy_1, dL/dx_1, ...,
    dL/dy_n, dL/dx_n`` of ``base`` over the states: one column call of one
    kernel, the fields derived through one table, and ``kernel(row)`` at
    each state that call marks."""
    table = {}
    fields = [base.expr, liouville_apply(base, table).expr]
    for i, momentum in enumerate(vertical_differential(base, table).components):
        fields += [momentum, ex.partial(base.expr, f"x{i + 1}", table)]
    return ex.table(ex.compile(fields, ex.chart_names(traj.n), traj.params), traj.states.T)


def _along(traj: Trajectory, lag: Lagrangianlike, items: slice):
    """``(chain, values)`` over the states: ``chain`` is None for a plain L,
    else the lines ``Phi(L), Phi'(L), Phi''(L)``, and ``values`` holds the
    lines ``items`` of :func:`_fields`, one value per state. The trajectory
    keeps the fields' table of each base L for every check, and one
    :func:`chain` per deformation. A check fails at the first state where L
    under a deformation, ``triple`` or one of its items fails, with the
    first of those errors, as evaluating each in that order would."""
    base = _base_of(lag)
    phi = lag.deformation if lag is not base else None
    # each entry holds its key alive, so that the id is not reused
    entry = traj.memo.get(id(base))
    if entry is None:
        entry = traj.memo[id(base)] = (base, *_fields(traj, base), {})
    _, lines, errors, chains = entry
    own = range(len(lines))[items]
    failed = [key for key in errors if key[1] in own or key[1] == 0 and phi is not None]
    phi_lines = None
    if phi is not None:
        if id(phi) not in chains:
            chains[id(phi)] = (phi, *chain(phi, lines[0]))
        _, phi_lines, marked = chains[id(phi)]
        failed += [(j, 0.5) for j in marked]  # triple's, between L's and the items'
    if failed:
        j, k = min(failed)
        if k == 0.5:
            phi.triple(lines[0, j].item())  # raises, where chain marks the state
        raise errors[j, k]
    return phi_lines, lines[items]


def el_residual_along(traj: Trajectory, lag: Lagrangianlike) -> float:
    """max over components and interior times of
    | d/dt(dLag/dy_i) - dLag/dx_i |, with d/dt by central differences:
    dLag/dy_i = Phi'(L) L_y and dLag/dx_i = Phi'(L) L_x, with Phi' = 1 for
    a plain L."""
    if len(traj.times) - 1 < 3:
        raise TooShort("need at least 3 steps for interior central differences")
    chain, values = _along(traj, lag, slice(2, None))
    d1 = 1.0 if chain is None else chain[1]
    # as in float arithmetic, an overflow gives inf and inf - inf nan, unannounced
    with np.errstate(all="ignore"):
        momenta, forces = (d1 * values[0::2]).T, (d1 * values[1::2]).T
    dpdt = (momenta[2:] - momenta[:-2]) / (2.0 * traj.step)
    residual = np.abs(dpdt - forces[1:-1])
    return float(np.max(residual))


def energy_along(traj: Trajectory, lag: Lagrangianlike):
    """Series E(t_k) = C(Lag) - Lag, that is Phi'(L) C(L) - Phi(L) (Phi the
    identity for a plain L), and the drift max |E(t_k) - E(t_0)|."""
    chain, (l_line, c_line) = _along(traj, lag, slice(0, 2))
    phi, d1 = (l_line, 1.0) if chain is None else chain[:2]
    with np.errstate(all="ignore"):
        series = d1 * c_line - phi
    drift = float(np.max(np.abs(series - series[0])))
    return series, drift


def trajectory_to_csv(
    traj: Trajectory,
    lagrangian: ScalarField,
    deformed: Optional[DeformedLagrangian] = None,
) -> str:
    """CSV text with columns t, x1..xn, y1..yn, E_L, E_PhiL (nan when no
    deformation applies)."""
    n = traj.n
    header = (
        ["t"]
        + [f"x{i}" for i in range(1, n + 1)]
        + [f"y{i}" for i in range(1, n + 1)]
        + ["E_L", "E_PhiL"]
    )
    e_series, _ = energy_along(traj, lagrangian)
    if deformed is not None:
        phi_series, _ = energy_along(traj, deformed)
    else:
        phi_series = np.full(len(traj.times), math.nan)
    lines = [",".join(header)]
    for k, t in enumerate(traj.times):
        row = [repr(float(t))]
        row += [repr(float(v)) for v in traj.states[k]]
        row.append(repr(float(e_series[k])))
        row.append(repr(float(phi_series[k])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
