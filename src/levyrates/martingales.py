"""Esscher martingale families M_{ts} = exp(phi_s X_t - t psi(phi_s)).

For each maturity s, M_{.s} is the exponentially tilted unit-mean
martingale of the driving Levy process, evaluated at tilt phi_s. All
four families share this single closed form once psi is known, so there
is one code path here, not four.

The deterministic function phi carries the model's volatility structure.
Only the exponential-decay parametric class appears in shipped configs;
its sign/monotonicity class decides whether the critical-level option
formulas apply (they need monotone phi) and which orientation the
in-the-money region takes.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Tuple

import numpy as np

from .errors import DomainError
from .levy import LevyFamily


class PhiFunction(ABC):
    """Deterministic tilt function s -> phi_s with shape metadata.

    monotonicity is one of "positive-decreasing", "negative-increasing",
    "constant", or "other". The first two are the classes for which the
    risk premium is provably positive and the bond price is monotone in
    the driver; "other" disables the critical-level machinery.
    """

    @abstractmethod
    def __call__(self, s):
        """phi_s for scalar or array s."""

    @property
    @abstractmethod
    def monotonicity(self) -> str:
        ...

    @abstractmethod
    def range_bounds(self, horizon: float) -> Tuple[float, float]:
        """Exact (min, max) of phi over [0, horizon]."""

    @abstractmethod
    def tail_sup_abs(self, horizon: float) -> float:
        """sup of |phi_s| over s >= horizon; used for truncation bounds."""


@dataclass(frozen=True)
class ExpDecayPhi(PhiFunction):
    """phi_s = c * exp(-b s) with decay rate b >= 0."""

    c: float
    b: float

    def __post_init__(self):
        if self.b < 0.0 or not math.isfinite(self.b):
            raise DomainError(f"decay rate must be nonnegative and finite, got {self.b}")
        if not math.isfinite(self.c):
            raise DomainError(f"scale must be finite, got {self.c}")

    def __call__(self, s):
        if np.ndim(s):
            return self.c * np.exp(-self.b * np.asarray(s, dtype=float))
        return self.c * math.exp(-self.b * float(s))

    @property
    def monotonicity(self) -> str:
        if self.b == 0.0 or self.c == 0.0:
            return "constant"
        return "positive-decreasing" if self.c > 0.0 else "negative-increasing"

    def range_bounds(self, horizon):
        lo, hi = sorted((self(0.0), self(horizon)))
        return (lo, hi)

    def tail_sup_abs(self, horizon):
        return abs(self(horizon))


@dataclass(frozen=True)
class GaussianBumpPhi(PhiFunction):
    """phi_s = height * exp(-width (s - center)^2), a non-monotone bump.

    Not offered through configs; exists so the library can express the
    counterexample regime where a hump-shaped phi makes the risk premium
    change sign, and so the unsupported-model error path is exercised.
    """

    height: float
    center: float
    width: float
    monotonicity: ClassVar[str] = "other"

    def __post_init__(self):
        if not (math.isfinite(self.height) and math.isfinite(self.center) and 0.0 < self.width < math.inf):
            raise DomainError(f"bump needs a finite height and center and a finite positive width, got {self}")

    def __call__(self, s):
        d = np.asarray(s, dtype=float) - self.center
        out = self.height * np.exp(-self.width * d * d)
        return float(out) if np.ndim(s) == 0 else out

    def range_bounds(self, horizon):
        candidates = [self(0.0), self(horizon)]
        if 0.0 <= self.center <= horizon:
            candidates.append(self.height)
        return (min(candidates), max(candidates))

    def tail_sup_abs(self, horizon):
        # |phi| decreases beyond the bump center
        return abs(self(horizon)) if horizon >= self.center else abs(self.height)


@dataclass(frozen=True)
class ModelState:
    """Realized driver value xi = X_t at time t.

    By the Markov property of the driver, (t, xi) is a sufficient
    statistic for every price in the model; nothing else about the path
    matters.
    """

    t: float
    xi: float

    def __post_init__(self):
        if self.t < 0.0 or not math.isfinite(self.t):
            raise DomainError(f"state time must be nonnegative and finite, got {self.t}")
        if not math.isfinite(self.xi):
            raise DomainError(f"driver value must be finite, got {self.xi}")


def _check_state_support(fam: LevyFamily, state: ModelState) -> None:
    # a subordinator (gamma) lives on [0, inf); a state below the support is
    # not a possible realization and silently pricing from it would be a bug
    if state.xi < fam.support_lower:
        raise DomainError(f"{fam.tag} driver state must be nonnegative, got xi={state.xi}")


def log_martingale_value(fam: LevyFamily, phi: PhiFunction, state: ModelState, s) -> float:
    """log M_{ts} = phi_s xi - t psi(phi_s); overflow-safe building block."""
    _check_state_support(fam, state)
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < state.t):
        raise DomainError(f"martingale maturity s must satisfy s >= t={state.t}")
    ph = phi(s)
    out = np.asarray(ph * state.xi - state.t * fam.exponent(ph))
    return float(out) if np.ndim(s) == 0 else out


def martingale_value(fam: LevyFamily, phi: PhiFunction, state: ModelState, s) -> float:
    """M_{ts}, strictly positive; equals 1 identically at t = 0."""
    out = np.exp(log_martingale_value(fam, phi, state, s))
    return float(out) if np.ndim(s) == 0 else out

