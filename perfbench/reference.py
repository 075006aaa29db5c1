"""Hand-written reference outcomes for every benchmark job.

The corpus expectations come from ``tests/test_acceptance.py``, the README
and ``src/lagdeform/corpus/NOTES.md``, not from a run of the code under
test. They hold for every sampling seed, because the family, its parameters
and the Hessian rank are properties of the problem, not of the samples.

The geodesic expectations are the outcome type of one unboxed RK4 run,
derived from the closed-form flow of each spray, and the conservation of
the Phi(L) energy along a full run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from lagdeform.families import Affine, Constant, Logarithmic, Moebius, PowerShift


@dataclass(frozen=True)
class CorpusExpectation:
    verdict: str
    family: object  # chosen slope family with its exact parameters; None: no fit
    tolerance: float  # absolute, per family parameter
    deformed_min_rank: int


# Parameter tolerances are those the acceptance tests state: 1e-6 for
# gamma and a, 1e-5 for the normalised Moebius (c, d).
CORPUS = {
    # f = -1/(2L): Phi = a sqrt(L) + b, rank-1 deformed Hessian (NOTES.md).
    "dissipative": CorpusExpectation("DeformableSingular", PowerShift(-0.5, 0.0), 1e-6, 1),
    # f = b = 1; Phi(L) is affine in y3, so the rank is 2, not 3 (NOTES.md).
    "exp-class": CorpusExpectation("DeformableSingular", Constant(1.0), 1e-6, 2),
    # f = +1/(2 alpha L) with alpha = 1; Phi ~ L^(3/2) = |y1 + 2 x1|^3 has
    # a nonzero second y1-derivative, so the 1x1 Hessian has full rank.
    "lienard": CorpusExpectation("DeformableRegular", PowerShift(0.5, 0.0), 1e-6, 1),
    # f = -1/L: Phi = ln L = y1 + y3 + a(y2^2/2 - x2^2) + b y2 has only the
    # y2-y2 Hessian entry, rank 1 of 3 (NOTES.md: both L and Phi(L) singular).
    "log-class": CorpusExpectation("DeformableSingular", Logarithmic(0.0), 1e-6, 1),
    # f = -2c/(cL + d) with (c, d) = (1, 2), normalised to (0.5, 1); rank 3.
    "moebius": CorpusExpectation("DeformableRegular", Moebius(0.5, 1.0), 1e-5, 3),
    # degree 2: Phi = sqrt(L), slope (1/2 - 1)/L; rank 2 of 3 (criterion 4).
    "homogeneous": CorpusExpectation("DeformableSingular", PowerShift(-0.5, 0.0), 1e-6, 2),
    # S(L) = 0: no fit, affine deformation, Hessian of L = identity, rank 2.
    "free-particle": CorpusExpectation("ConservativeAffineOnly", None, 0.0, 2),
}

# The slope family each geodesic job deforms with: the reference family, or
# the identity for the conservative problem.
GEODESIC_FAMILY = {
    name: (exp.family if exp.family is not None else Affine()) for name, exp in CORPUS.items()
}

_FAMILY_PARAMS = ("gamma", "a", "c", "d", "p")


def check_corpus(name: str, doc, payload: bytes) -> Optional[str]:
    """None when the pipeline report matches the reference, else the reason."""
    want = CORPUS[name]
    if doc.verdict != want.verdict:
        return f"verdict {doc.verdict}, expected {want.verdict}"
    emitted = json.loads(payload)["verdict"]
    if emitted != want.verdict:
        return f"emitted verdict {emitted}, expected {want.verdict}"
    chosen = doc.fit.chosen if doc.fit is not None else None
    if type(chosen) is not type(want.family):
        return f"family {type(chosen).__name__}, expected {type(want.family).__name__}"
    for param in _FAMILY_PARAMS:
        if hasattr(want.family, param):
            got, ref = getattr(chosen, param), getattr(want.family, param)
            if not abs(got - ref) <= want.tolerance:
                return f"{param} = {got!r}, expected {ref} +- {want.tolerance:g}"
    hessian = doc.deformed_hessian_report
    rank = hessian.min_rank if hessian is not None else None
    if rank != want.deformed_min_rank:
        return f"deformed min rank {rank}, expected {want.deformed_min_rank}"
    return None


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------

TRAJECTORY = "trajectory"  # all 1000 steps, L and Phi(L) checks evaluated
BLOW_UP = "blow-up"  # GeodesicError: non-finite state or domain violation
OFF_DOMAIN = "off-domain"  # the flow leaves the domain of L or of Phi

HORIZON = 1.0
STEPS = 1000
# Blow-up times this close to the horizon may land on either side of it
# under RK4 with step 1e-3.
_BLOW_UP_MARGIN = 0.05
# Phi(L) is a genuine Lagrangian of the spray, so its energy is a constant
# of motion; the drift bound is criterion 8's 1e-6, relative to the energy.
ENERGY_DRIFT_TOL = 1e-6


def _homogeneous_blow_up_time(start) -> float:
    """G1 = -|y|^2/2 and G2 = G3 = 0 give y1' = y1^2 + k with the constant
    k = y2^2 + y3^2, so y1 = sqrt(k) tan(sqrt(k) t + atan(y1(0)/sqrt(k)))
    reaches infinity at the returned time."""
    y1, y2, y3 = start[3:]
    root = math.sqrt(y2 * y2 + y3 * y3)
    return (math.pi / 2.0 - math.atan(y1 / root)) / root


def geodesic_outcomes(name: str, start) -> frozenset:
    """Outcome types the reference allows for one start of one problem."""
    if name == "homogeneous":
        t_blow = _homogeneous_blow_up_time(start)
        if t_blow < HORIZON - _BLOW_UP_MARGIN:
            return frozenset({BLOW_UP})
        if t_blow > HORIZON + _BLOW_UP_MARGIN:
            return frozenset({TRAJECTORY})
        return frozenset({BLOW_UP, TRAJECTORY})
    if name == "exp-class":
        # L = a + ln(bQ - c) needs bQ > c; y3' = -x1 y1 can drive Q below
        # c/b once the flow has left the box.
        return frozenset({TRAJECTORY, OFF_DOMAIN})
    # dissipative, lienard, log-class, moebius and free-particle stay finite
    # and inside the domains of L and Phi(L) for t <= 1: lienard and the
    # flat sprays are linear, log-class is a harmonic oscillator in x2 with
    # L = exp(...) > 0, and the dissipative force only rescales y.
    return frozenset({TRAJECTORY})


def check_geodesic(name, start, outcome, steps, drift, scale) -> Optional[str]:
    """None when a geodesic job's outcome agrees with the reference: its
    type, and for a full trajectory the step count and the drift of the
    Phi(L) energy relative to the largest energy ``scale``."""
    allowed = geodesic_outcomes(name, start)
    if outcome not in allowed:
        return f"outcome {outcome}, expected one of {sorted(allowed)}"
    if outcome == TRAJECTORY:
        if steps != STEPS:
            return f"{steps} steps, expected {STEPS}"
        if not drift <= ENERGY_DRIFT_TOL * (1.0 + scale):
            return f"Phi(L) energy drift {drift:.3e} on energies up to {scale:.3e}"
    return None
