"""Special functions used by the closed-form option prices.

Three pieces: the standard normal CDF, the regularized upper incomplete
gamma function, and the gamma-mixture normal integral

    psi_integral(a, b, c) = int_0^inf N(a/sqrt(u) + b sqrt(u))
                            u^{c-1} e^{-u} / Gamma(c) du,

which is the kernel of the variance-gamma option formula (the expectation
of a normal CDF over a Gamma(c, 1) time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, ndtr

from .errors import DomainError, NumericalError
from .quadrature import adaptive_integrate, gauss_legendre_nodes

__all__ = ["norm_cdf", "reg_upper_gamma", "PsiArgs", "psi_integral", "psi_integral_batch"]


def norm_cdf(x):
    """Standard normal CDF; scalar in, float out; arrays pass through."""
    out = ndtr(np.asarray(x, dtype=float))
    return float(out) if np.ndim(x) == 0 else out


def reg_upper_gamma(a, x):
    """Q(a, x) = int_x^inf u^{a-1} e^{-u} du / Gamma(a), for a > 0, x >= 0.

    scipy's gammaincc behind the package's domain errors; scalars in give
    a float out, and the result is clipped to [0, 1].
    """
    a_arr = np.asarray(a, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if np.any(a_arr <= 0.0):
        raise DomainError("incomplete gamma shape a must be positive")
    if np.any(x_arr < 0.0):
        raise DomainError("incomplete gamma argument x must be nonnegative")
    out = np.clip(gammaincc(a_arr, x_arr), 0.0, 1.0)
    return float(out) if np.ndim(a) == 0 and np.ndim(x) == 0 else out


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


def _log_weight_window(c: float, drop: float = 45.0):
    """Interval in v = log u outside which the Gamma(c,1) weight is dead.

    The weight exp(c v - e^v - ln Gamma(c)) is unimodal with peak at
    v = ln c; the window is expanded until it has dropped `drop` e-folds
    below the peak on both sides.
    """
    lg = math.lgamma(c)
    v_star = math.log(c)

    def log_weight(v: float) -> float:
        return c * v - math.exp(v) - lg

    peak = log_weight(v_star)
    v_lo = v_star - 1.0
    step = 1.0
    while log_weight(v_lo) > peak - drop:
        v_lo -= step
        step *= 2.0
        if step > 1e18:  # pragma: no cover - weight always decays left
            raise NumericalError("mixture weight lower cutoff not found")
    v_hi = v_star + 1.0
    step = 1.0
    while log_weight(v_hi) > peak - drop:
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


_BATCH_RULE_CACHE: dict = {}

# Below the lower cutoff the Laguerre rule stalls (measured: 7.9e-3 worst
# error at c = 0.6 with 64 nodes, <1e-12 at c = 10) because the integrand
# N(a/sqrt(u) + b sqrt(u)) develops a boundary layer at u -> 0 that
# polynomials in u cannot resolve. Above the upper cutoff the classical
# weights overflow: they carry a Gamma(c) factor and Gamma(171) > DBL_MAX.
_LAGUERRE_MIN_SHAPE = 10.0
_LAGUERRE_MAX_SHAPE = 170.0


def _batch_rule(c: float, n_nodes: int):
    """Nodes sqrt(u_i) and normalized weights for the gamma-mixture rule.

    Generalized Gauss-Laguerre for moderate c; outside that band, composite
    16-point Gauss-Legendre panels in v = log u across the window where the
    weight exp(c v - e^v - ln Gamma(c)) is alive. In v the integrand is
    entire with O(1) length scale, so panels of width ~0.6 converge past
    1e-13 uniformly in c. n_nodes sizes the Laguerre branch only; the
    log-grid branch is sized by the window.
    """
    key = (n_nodes, round(c, 12))
    cached = _BATCH_RULE_CACHE.get(key)
    if cached is not None:
        return cached
    if _LAGUERRE_MIN_SHAPE <= c < _LAGUERRE_MAX_SHAPE:
        from scipy.special import roots_genlaguerre

        u, w = roots_genlaguerre(n_nodes, c - 1.0)
        wn = w * math.exp(-math.lgamma(c))
    else:
        v_lo, v_hi = _log_weight_window(c)
        x16, w16 = gauss_legendre_nodes(16)
        n_panels = max(8, int(math.ceil((v_hi - v_lo) / 0.625)))
        edges = np.linspace(v_lo, v_hi, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        v = (mid[:, None] + half * x16[None, :]).ravel()
        wn = (half * w16[None, :] * np.exp(c * v - np.exp(v) - math.lgamma(c)).reshape(n_panels, 16)).ravel()
        # For small c the window reaches far left; exp(v) can underflow to
        # exactly zero there. Keep the nodes strictly positive so that
        # a / sqrt(u) stays well defined (inf for a != 0, and 0 for a == 0,
        # matching the u -> 0+ limit of the integrand either way).
        u = np.maximum(np.exp(v), np.finfo(float).tiny)
    # Renormalize so the rule is an exact convex combination: constants are
    # integrated exactly and the result stays inside [0, 1].
    wn = wn / wn.sum()
    rule = (np.sqrt(u), wn)
    _BATCH_RULE_CACHE[key] = rule
    return rule


def psi_integral_batch(a, b, c: float, n_nodes: int = 64) -> np.ndarray:
    """Fixed-rule evaluation of psi_integral over arrays of (a, b).

    The weights sum to one, so the result is a convex combination of normal
    CDF values. Used by the pricing loop, where one call covers all outer
    quadrature nodes at once; the scalar adaptive version serves as its
    accuracy check.
    """
    if not (c > 0.0):
        raise DomainError(f"mixture shape c must be positive, got {c}")
    root, wn = _batch_rule(c, n_nodes)
    a_arr = np.asarray(a, dtype=float)[..., None]
    b_arr = np.asarray(b, dtype=float)[..., None]
    with np.errstate(over="ignore"):  # a / root -> inf at far-left nodes is intended
        vals = ndtr(a_arr / root[None, :] + b_arr * root[None, :])
    return vals @ wn
