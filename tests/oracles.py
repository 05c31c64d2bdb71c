"""Test oracles for the special functions: deliberately not package code.

The normal CDF, and an adaptive scalar evaluation of the gamma-mixture
normal integral

    psi_integral(a, b, c) = int_0^inf N(a/sqrt(u) + b sqrt(u))
                            u^{c-1} e^{-u} / Gamma(c) du,

against which the package's fixed rule `psi_integral_batch` is checked.
The window search is a copy of the package's, so the oracle shares no
code with the rule it checks beyond the adaptive quadrature core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from levyrates.errors import DomainError, NumericalError
from levyrates.quadrature import adaptive_integrate


def norm_cdf(x):
    """Standard normal CDF; scalar in, float out; arrays pass through."""
    out = ndtr(np.asarray(x, dtype=float))
    return float(out) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class PsiArgs:
    """Arguments of the gamma-mixture normal integral; shape c > 0."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"psi arguments must be finite, got a={self.a}, b={self.b}")
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise DomainError(f"mixture shape c must be positive, got {self.c}")


# e-folds below its peak at which the Gamma(c,1) weight counts as dead
_WINDOW_DROP = 45.0


def _log_weight_window(c: float):
    """Interval in v = log u outside which the Gamma(c,1) weight is dead.

    The weight exp(c v - e^v - ln Gamma(c)) is unimodal with peak at
    v = ln c; the window is expanded until it has dropped _WINDOW_DROP
    e-folds below the peak on both sides.
    """
    lg = math.lgamma(c)
    v_star = math.log(c)

    def log_weight(v: float) -> float:
        return c * v - math.exp(v) - lg

    peak = log_weight(v_star)
    v_lo = v_star - 1.0
    step = 1.0
    while log_weight(v_lo) > peak - _WINDOW_DROP:
        v_lo -= step
        step *= 2.0
        if step > 1e18:  # pragma: no cover - weight always decays left
            raise NumericalError("mixture weight lower cutoff not found")
    v_hi = v_star + 1.0
    step = 1.0
    while log_weight(v_hi) > peak - _WINDOW_DROP:
        v_hi += step
        step *= 2.0
        if step > 1e6:  # pragma: no cover - e^v term kills the right tail
            raise NumericalError("mixture weight upper cutoff not found")
    return v_lo, v_hi


def psi_integral(args: PsiArgs) -> float:
    """Deterministic evaluation of the gamma-mixture normal integral.

    Substituting u = e^v turns the Gamma(c,1) weight into
    exp(c v - e^v - ln Gamma(c)), a bounded unimodal bump peaking at
    v = ln c. We integrate adaptively over the window where the weight is
    alive. Absolute accuracy is far inside the 1e-8 target.
    """
    a, b, c = args.a, args.b, args.c
    lg = math.lgamma(c)
    v_lo, v_hi = _log_weight_window(c)

    def integrand(v: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            half = 0.5 * v
            arg = np.zeros_like(v)
            if a != 0.0:
                arg = arg + a * np.exp(-half)
            if b != 0.0:
                arg = arg + b * np.exp(half)
            w = np.exp(c * v - np.exp(v) - lg)
        return ndtr(arg) * w

    # For small c the window stretches ~45/c units to the left while the CDF
    # factor only varies over a few units of v (near v ~ 2 log|a| and
    # v ~ -2 log|b|, both O(10) for sane arguments); uniform seeds alone can
    # step right over that region, so a second denser seed set pins it down.
    # Further left the CDF is saturated and the integrand is a plain
    # exponential, which the sparse seeds cover fine.
    seeds = np.union1d(
        np.linspace(v_lo, v_hi, 17),
        np.linspace(max(v_lo, v_hi - 70.0), v_hi, 33),
    )
    value, _err = adaptive_integrate(
        integrand, v_lo, v_hi, rel_tol=1e-12, abs_tol=1e-13, points=seeds
    )
    return min(max(value, 0.0), 1.0)
