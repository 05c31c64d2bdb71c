"""Initial discount curves and their term-structure densities.

A term structure here is the time-zero discount curve P0(t) together with
its density rho(t) = -dP0/dt. When initial rates are positive and the
curve decays to zero, rho is a probability density on [0, inf); every
pricing integral in the package is a rho-weighted average truncated at the
horizon where the remaining mass is negligible.

Curves are parametric and analytic: rho is supplied in closed form, never
by differencing tabulated data, because the quadrature core needs a smooth
and cheap integrand.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .errors import DomainError

__all__ = [
    "TermStructure",
    "FlatYieldCurve",
    "CurveCheck",
    "CurveReport",
    "validate_term_structure",
]


def _require_nonnegative_time(t) -> None:
    if np.any(np.asarray(t) < 0.0):
        raise DomainError("time must be nonnegative (years)")


class TermStructure(ABC):
    """Abstract initial discount curve.

    Subclasses provide P0 and rho analytically. Instances are immutable
    and safe to share across threads.
    """

    @abstractmethod
    def discount_factor(self, t):
        """P0(t), dimensionless; accepts scalars or arrays, t >= 0."""

    @abstractmethod
    def density(self, t):
        """rho(t) = -dP0/dt, per year; accepts scalars or arrays, t >= 0."""

    @abstractmethod
    def truncation_horizon(self, epsilon: float = 1e-12) -> float:
        """Smallest S with P0(S) <= epsilon * P0(0).

        Integrals over [t, inf) are truncated at this horizon; the
        neglected rho-mass is at most epsilon by construction.
        """

    def log_density(self, t):
        with np.errstate(divide="ignore"):
            return np.log(np.asarray(self.density(t), dtype=float))

    def forward_price(self, t: float, T: float) -> float:
        """P0(T)/P0(t), the time-zero forward price of the T-bond at t."""
        if T < t:
            raise DomainError("forward price needs T >= t")
        return float(self.discount_factor(T) / self.discount_factor(t))


@dataclass(frozen=True)
class FlatYieldCurve(TermStructure):
    """Flat continuously-compounded curve: P0(t) = exp(-y t).

    The density is rho(t) = y exp(-y t), an Exponential(y) law, so all
    invariants hold in closed form. A non-positive y is constructible (the
    validation report flags it) but has no truncation horizon and is
    rejected by model construction.
    """

    y: float

    def __post_init__(self):
        if self.y == 0.0 or not math.isfinite(self.y):
            raise DomainError(f"flat yield must be nonzero and finite, got {self.y}")

    def discount_factor(self, t):
        _require_nonnegative_time(t)
        if np.ndim(t):
            return np.exp(-self.y * np.asarray(t, dtype=float))
        return math.exp(-self.y * float(t))

    def density(self, t):
        _require_nonnegative_time(t)
        if np.ndim(t):
            return self.y * np.exp(-self.y * np.asarray(t, dtype=float))
        return self.y * math.exp(-self.y * float(t))

    def log_density(self, t):
        _require_nonnegative_time(t)
        if self.y <= 0.0:
            raise DomainError("log density needs a positive flat yield")
        return math.log(self.y) - self.y * np.asarray(t, dtype=float)

    def truncation_horizon(self, epsilon: float = 1e-12) -> float:
        if not (0.0 < epsilon < 1.0):
            raise DomainError("epsilon must lie in (0, 1)")
        if self.y <= 0.0:
            raise DomainError("a non-positive flat yield never decays below epsilon")
        return -math.log(epsilon) / self.y


@dataclass(frozen=True)
class CurveCheck:
    """One curve invariant: the worst measured value and the bound it is
    judged against."""

    name: str
    passed: bool
    worst: float
    bound: float
    detail: str = ""


@dataclass(frozen=True)
class CurveReport:
    checks: Tuple[CurveCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def worst_failure(self):
        failed = [c for c in self.checks if not c.passed]
        return max(failed, key=lambda c: abs(c.worst)) if failed else None


def validate_term_structure(ts: TermStructure, epsilon: float = 1e-12) -> CurveReport:
    """Check the curve invariants on a logarithmic grid out to the horizon.

    Verifies P0(0)=1, strict decrease, decay to zero, positive density,
    unit total rho-mass, and agreement of rho with a central difference of
    P0 to 1e-6 relative. Failures are reported, not raised.
    """
    checks: List[CurveCheck] = []
    try:
        S = ts.truncation_horizon(epsilon)
        has_horizon = True
    except DomainError:
        S = 100.0  # fallback grid for curves that never decay
        has_horizon = False
    grid = np.concatenate([[0.0], np.geomspace(1e-6, S, 200)])
    P = np.asarray(ts.discount_factor(grid), dtype=float)
    rho = np.asarray(ts.density(grid), dtype=float)

    checks.append(CurveCheck("unit_at_zero", abs(P[0] - 1.0) < 1e-12, P[0] - 1.0, 1e-12))

    dP = np.diff(P)
    worst_inc = float(dP.max()) if dP.size else 0.0
    checks.append(CurveCheck("strictly_decreasing", bool(np.all(dP < 0.0)), worst_inc, 0.0))

    floor = epsilon * P[0] * (1.0 + 1e-9)
    checks.append(CurveCheck("decays_to_zero", has_horizon and P[-1] <= floor, float(P[-1]), floor))

    worst_rho = float(rho.min())
    checks.append(CurveCheck("density_positive", bool(np.all(rho > 0.0)), worst_rho, 0.0))

    if has_horizon and np.all(rho > 0.0):
        # total mass: integral of rho over [0, S] must equal P0(0) - P0(S)
        from .quadrature import adaptive_integrate

        mass, _err = adaptive_integrate(
            lambda s: np.asarray(ts.density(s), dtype=float), 0.0, S, rel_tol=1e-12
        )
        mass_defect = mass + float(P[-1]) - 1.0
        checks.append(CurveCheck("unit_mass", abs(mass_defect) < 1e-10, mass_defect, 1e-10))

    # rho vs central finite difference of P0, relative 1e-6
    h = 1e-6 * np.maximum(grid[1:], 1.0)
    mid = grid[1:]
    fd = (np.asarray(ts.discount_factor(mid - h)) - np.asarray(ts.discount_factor(mid + h))) / (2.0 * h)
    denom = np.maximum(np.abs(rho[1:]), 1e-300)
    rel = np.abs(fd - rho[1:]) / denom
    worst_fd = float(rel.max())
    checks.append(CurveCheck("density_matches_slope", worst_fd < 1e-6, worst_fd, 1e-6))

    return CurveReport(tuple(checks))
