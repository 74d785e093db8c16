"""Effective couplings of the parametrically modulated cavity array.

A cavity chain whose mode frequencies are modulated as
delta_omega(t) = lambda * pi^2 sin(2 pi t) / 2, with t in modulation periods,
acquires, after the rotating-frame average, hopping phases exp(+-i chi(t))
with chi(t) = 2 * integral_0^t delta_omega.  Time-averaging over one
modulation period renormalizes the bare hoppings by a Bessel factor:

    int_0^1 e^{i chi(t)} dt = e^{i lambda pi / 2} J_0(lambda pi / 2),

so lambda = 0 leaves the hoppings real, lambda = 1 makes them purely
imaginary, and intermediate values give arbitrary phases.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "DriveSpec",
    "EffectiveParams",
    "delta_omega",
    "chi",
    "averaged_phase",
    "effective_params",
    "bessel_j0",
]

# Largest |x| at which the power series of `bessel_j0` is evaluated
BESSEL_MAX_X = 8.0
# Points per period of `averaged_phase`'s trapezoid rule; the rule needs at least 32
QUADRATURE_ORDER = 256


@dataclass(frozen=True)
class DriveSpec:
    """Modulation strength and bare hoppings; |pi lam / 2| <= ``BESSEL_MAX_X``."""

    lam: float
    Jt1: float = 0.0
    Jt2: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"drive parameter {f.name} must be finite, got {getattr(self, f.name)}")
        if abs(math.pi * self.lam / 2) > BESSEL_MAX_X:
            raise ValueError(f"drive strength lambda must satisfy |pi lambda / 2| <= {BESSEL_MAX_X:g}, "
                             f"got {self.lam}")


@dataclass(frozen=True)
class EffectiveParams:
    """Bessel-renormalized hoppings."""

    J1: complex
    J2: complex


def delta_omega(t: float, lam: float) -> float:
    """Instantaneous cavity-frequency modulation at t modulation periods."""
    return lam * math.pi ** 2 * math.sin(2 * math.pi * t) / 2


def chi(t: float, lam: float) -> float:
    """Accumulated phase 2 * integral_0^t delta_omega = (lam pi / 2)(1 - cos(2 pi t)), t in periods."""
    return lam * math.pi / 2 * (1 - math.cos(2 * math.pi * t))


def averaged_phase(lam: float) -> complex:
    """Period average of e^{i chi(t)} by the periodic trapezoid rule on ``QUADRATURE_ORDER`` points.

    The integrand is analytic and periodic, so the uniform-grid average
    converges spectrally; 256 points are far beyond double precision already.
    Equals e^{i lam pi / 2} J_0(lam pi / 2); lam lies in the range `DriveSpec` accepts.
    """
    if QUADRATURE_ORDER < 32:
        raise ValueError(f"quadrature order must be >= 32, got {QUADRATURE_ORDER}")
    DriveSpec(lam=lam)
    ts = np.arange(QUADRATURE_ORDER) / QUADRATURE_ORDER
    phases = np.exp(1j * np.array([chi(t, lam) for t in ts]))
    return complex(phases.mean())


def effective_params(d: DriveSpec) -> EffectiveParams:
    """Map drive parameters onto the effective hoppings.

    J1 = e^{+i pi lam / 2} J_0(pi lam / 2) Jt1 and J2 the conjugate phase times Jt2.
    """
    bessel = bessel_j0(math.pi * d.lam / 2)
    ph = cmath.exp(1j * math.pi * d.lam / 2)
    return EffectiveParams(J1=ph * bessel * d.Jt1, J2=bessel * d.Jt2 / ph)


def bessel_j0(x: float) -> float:
    """J_0 by its power series; finite |x| <= ``BESSEL_MAX_X`` reaches 1e-12 absolute in <= 40 terms."""
    if not abs(x) <= BESSEL_MAX_X:  # NaN too: its series would stop at once and return 1
        raise ValueError(f"series evaluation restricted to finite |x| <= {BESSEL_MAX_X:g}, got {x}")
    total = 0.0
    term = 1.0
    m = 0
    while abs(term) > 1e-18 and m < 64:
        total += term
        m += 1
        term *= -(x / 2) ** 2 / m ** 2
    return total
