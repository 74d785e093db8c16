"""Effective couplings of the parametrically modulated cavity array.

A cavity chain whose mode frequencies are modulated as
delta_omega(t) = lambda * pi^2 sin(2 pi t / T) / (2 T) acquires, after the
rotating-frame average, hopping phases exp(+-i chi(t)) with
chi(t) = 2 * integral_0^t delta_omega.  Time-averaging over one modulation
period renormalizes the bare hoppings by a Bessel factor:

    (1/T) int_0^T e^{i chi(t)} dt = e^{i lambda pi / 2} J_0(lambda pi / 2),

so lambda = 0 leaves the hoppings real, lambda = 1 makes them purely
imaginary, and intermediate values give arbitrary phases.  The pump phases
phi_i pass straight through to the pairing amplitudes.
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


@dataclass(frozen=True)
class DriveSpec:
    """Modulation strength/period, bare hoppings and pairings, pump phases; |pi lam / 2| <= ``BESSEL_MAX_X``."""

    lam: float
    T: float
    Jt1: float = 0.0
    Jt2: float = 0.0
    Dt1: float = 0.0
    Dt2: float = 0.0
    phi1: float = 0.0
    phi2: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"drive parameter {f.name} must be finite, got {getattr(self, f.name)}")
        if self.T <= 0:
            raise ValueError(f"modulation period must be positive, got {self.T}")
        if abs(math.pi * self.lam / 2) > BESSEL_MAX_X:
            raise ValueError(f"drive strength lambda must satisfy |pi lambda / 2| <= {BESSEL_MAX_X:g}, "
                             f"got {self.lam}")


@dataclass(frozen=True)
class EffectiveParams:
    """Bessel-renormalized couplings; the rotating frame removes the onsite term."""

    J1: complex
    J2: complex
    Delta1: complex
    Delta2: complex
    omega: float = 0.0


def delta_omega(t: float, d: DriveSpec) -> float:
    """Instantaneous cavity-frequency modulation."""
    return d.lam * math.pi ** 2 * math.sin(2 * math.pi * t / d.T) / (2 * d.T)


def chi(t: float, d: DriveSpec) -> float:
    """Accumulated phase 2 * integral_0^t delta_omega = (lam pi / 2)(1 - cos(2 pi t / T))."""
    return d.lam * math.pi / 2 * (1 - math.cos(2 * math.pi * t / d.T))


def averaged_phase(lam: float, order: int = 256) -> complex:
    """Period average of e^{i chi(t)} by the periodic trapezoid rule.

    The integrand is analytic and periodic, so the uniform-grid average
    converges spectrally; order 256 is far beyond double precision already.
    Equals e^{i lam pi / 2} J_0(lam pi / 2); lam lies in the range `DriveSpec` accepts.
    """
    if order < 32:
        raise ValueError(f"quadrature order must be >= 32, got {order}")
    d = DriveSpec(lam=lam, T=1.0)
    ts = np.arange(order) / order
    phases = np.exp(1j * np.array([chi(t, d) for t in ts]))
    return complex(phases.mean())


def effective_params(d: DriveSpec) -> EffectiveParams:
    """Map drive parameters onto effective chain couplings.

    J1 = e^{+i pi lam / 2} J_0(pi lam / 2) Jt1, J2 the conjugate phase times
    Jt2, Delta_i = e^{i phi_i} Dt_i, omega = 0.
    """
    bessel = bessel_j0(math.pi * d.lam / 2)
    ph = cmath.exp(1j * math.pi * d.lam / 2)
    return EffectiveParams(
        J1=ph * bessel * d.Jt1,
        J2=bessel * d.Jt2 / ph,
        Delta1=cmath.exp(1j * d.phi1) * d.Dt1,
        Delta2=cmath.exp(1j * d.phi2) * d.Dt2,
        omega=0.0,
    )


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
