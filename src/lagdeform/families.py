"""Deformation families: the closed-form classes of slope functions f with
f = Phi''/Phi', each integrable to an explicit deformation.

Every family is a shape for the pointwise slope ratio -S(E_L)/(S(L) C(L)) as
a function of the Lagrangian value t:

* ``Affine``          f = 0            Phi(t) = t                  (identity)
* ``Constant``        f = gamma        Phi(t) = exp(gamma t)/gamma
* ``PowerShift``      f = gamma/(t+a)  Phi(t) = (t+a)^(1+gamma)/(1+gamma)
* ``Logarithmic``     f = -1/(t+a)     Phi(t) = ln(t+a)
* ``Moebius``         f = -2c/(ct+d)   Phi(t) = (s t + r)/(c t + d)
* ``HomogeneousRoot`` f = (1/p - 1)/t  Phi(t) = t^(1/p)
* ``Tabulated``       sampled (t, f) pairs, integrated numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Affine:
    def describe(self) -> str:
        return "Affine()"


@dataclass(frozen=True)
class Constant:
    gamma: float

    def describe(self) -> str:
        return f"Constant(gamma={self.gamma:g})"


@dataclass(frozen=True)
class PowerShift:
    gamma: float
    a: float

    def __post_init__(self):
        if self.gamma in (0.0, -1.0):
            raise ValueError("PowerShift requires gamma outside {0, -1}")

    def describe(self) -> str:
        return f"PowerShift(gamma={self.gamma:g}, a={self.a:g})"


@dataclass(frozen=True)
class Logarithmic:
    a: float

    def describe(self) -> str:
        return f"Logarithmic(a={self.a:g})"


@dataclass(frozen=True)
class Moebius:
    """Stored normalised: max(|c|, |d|) = 1 with c >= 0."""

    c: float
    d: float

    def __post_init__(self):
        if self.c == 0.0 and self.d == 0.0:
            raise ValueError("Moebius requires (c, d) != (0, 0)")

    @staticmethod
    def normalised(c: float, d: float) -> "Moebius":
        c, d = float(c), float(d)
        m = max(abs(c), abs(d))
        if m == 0.0:
            raise ValueError("Moebius requires (c, d) != (0, 0)")
        c, d = c / m, d / m
        if c < 0.0 or (c == 0.0 and d < 0.0):
            c, d = -c, -d
        return Moebius(c, d)

    def describe(self) -> str:
        return f"Moebius(c={self.c:g}, d={self.d:g})"


@dataclass(frozen=True)
class HomogeneousRoot:
    p: float

    def __post_init__(self):
        if self.p <= 1.0:
            raise ValueError("HomogeneousRoot requires degree p > 1")

    def describe(self) -> str:
        return f"HomogeneousRoot(p={self.p:g})"


@dataclass(frozen=True)
class Tabulated:
    points: Tuple  # ((t, f), ...) with strictly increasing t

    def __post_init__(self):
        ts = [t for t, _ in self.points]
        if len(ts) < 8:
            raise ValueError("Tabulated requires at least 8 points")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("Tabulated abscissae must be strictly increasing")

    def describe(self) -> str:
        ts = [t for t, _ in self.points]
        return f"Tabulated(points={len(self.points)}, range=[{min(ts):g}, {max(ts):g}])"
