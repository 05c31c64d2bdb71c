"""The initial discount curve: a flat continuously-compounded yield.

The curve is the time-zero discount curve P0(t) together with its density
rho(t) = -dP0/dt. When the yield is positive, rho is a probability density
on [0, inf); every pricing integral in the package is a rho-weighted
average truncated at the horizon where the remaining mass is TAIL_EPSILON.

rho is supplied in closed form, never by differencing tabulated data,
because the quadrature core needs a smooth and cheap integrand, and the
kernel's Gauss-Jacobi rule is built for this curve's exponential
density. The curve's contract checks live in `validation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TAIL_EPSILON = 1e-12  # rho-mass, relative to P0(0), beyond every truncation horizon


def _require_nonnegative_time(t) -> None:
    if not np.all(np.asarray(t) >= 0.0):  # nan too
        raise DomainError("time must be nonnegative and not nan (years)")


@dataclass(frozen=True)
class FlatYieldCurve:
    """Flat continuously-compounded curve: P0(t) = exp(-y t).

    The density is rho(t) = y exp(-y t), an Exponential(y) law, so all
    invariants hold in closed form. A non-positive y is constructible (the
    validation report flags it) but has no truncation horizon and is
    rejected by model construction. Instances are immutable.
    """

    y: float

    def __post_init__(self):
        if self.y == 0.0 or not math.isfinite(self.y):
            raise DomainError(f"flat yield must be nonzero and finite, got {self.y}")

    def discount_factor(self, t):
        """P0(t), dimensionless; accepts scalars or arrays, t >= 0."""
        _require_nonnegative_time(t)
        if np.ndim(t):
            return np.exp(-self.y * np.asarray(t, dtype=float))
        return math.exp(-self.y * float(t))

    def density(self, t):
        """rho(t) = -dP0/dt, per year; accepts scalars or arrays, t >= 0."""
        _require_nonnegative_time(t)
        if np.ndim(t):
            return self.y * np.exp(-self.y * np.asarray(t, dtype=float))
        return self.y * math.exp(-self.y * float(t))

    def log_density(self, t):
        _require_nonnegative_time(t)
        if self.y <= 0.0:
            raise DomainError("log density needs a positive flat yield")
        return math.log(self.y) - self.y * np.asarray(t, dtype=float)

    def truncation_horizon(self, epsilon: float = TAIL_EPSILON) -> float:
        """Smallest S with P0(S) <= epsilon * P0(0).

        Integrals over [t, inf) are truncated at this horizon; the
        neglected rho-mass is at most epsilon by construction.
        """
        if not (0.0 < epsilon < 1.0):
            raise DomainError("epsilon must lie in (0, 1)")
        if self.y <= 0.0:
            raise DomainError("a non-positive flat yield never decays below epsilon")
        return -math.log(epsilon) / self.y

    def forward_price(self, t: float, T: float) -> float:
        """P0(T)/P0(t), the time-zero forward price of the T-bond at t."""
        if T < t:
            raise DomainError("forward price needs T >= t")
        return float(self.discount_factor(T) / self.discount_factor(t))
