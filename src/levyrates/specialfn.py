"""Special functions used by the closed-form option prices.

Two pieces: the regularized incomplete gamma functions, and a fixed
rule for the gamma-mixture normal integral

    psi(a, b, c) = int_0^inf N(a/sqrt(u) + b sqrt(u))
                   u^{c-1} e^{-u} / Gamma(c) du,

which is the kernel of the variance-gamma option formula (the expectation
of a normal CDF over a Gamma(c, 1) time).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaincc, ndtr

from .errors import DomainError
from .quadrature import gauss_legendre_nodes

__all__ = ["reg_upper_gamma", "reg_lower_gamma", "psi_integral_batch"]


def _regularized_gamma(f, a, x):
    """scipy's f (gammainc or gammaincc) behind the package's domain errors,
    for 0 < a < inf, 0 <= x <= inf (Q(a, inf) = 0, P(a, inf) = 1), never
    nan; scalars give a float, clipped to [0, 1] like arrays."""
    a_arr = np.asarray(a, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if not np.all((a_arr > 0.0) & (a_arr < math.inf)):
        raise DomainError("incomplete gamma shape a must be positive and finite")
    if not np.all(x_arr >= 0.0):
        raise DomainError("incomplete gamma argument x must be nonnegative")
    out = np.clip(f(a_arr, x_arr), 0.0, 1.0)
    return float(out) if np.ndim(a) == 0 and np.ndim(x) == 0 else out


def reg_upper_gamma(a, x):
    """Q(a, x) = int_x^inf u^{a-1} e^{-u} du / Gamma(a), for a > 0, x >= 0."""
    return _regularized_gamma(gammaincc, a, x)


def reg_lower_gamma(a, x):
    """P(a, x) = 1 - Q(a, x), computed directly: it keeps its digits where small."""
    return _regularized_gamma(gammainc, a, x)


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
    v_hi = v_star + 1.0
    step = 1.0
    while log_weight(v_hi) > peak - _WINDOW_DROP:
        v_hi += step  # ends: the e^v term kills the right tail
        step *= 2.0
    return v_lo, v_hi


_BATCH_RULE_CACHE: dict = {}

# Below the lower cutoff the Laguerre rule stalls (measured: 7.9e-3 worst
# error at c = 0.6 with 64 nodes, <1e-12 at c = 10) because the integrand
# N(a/sqrt(u) + b sqrt(u)) develops a boundary layer at u -> 0 that
# polynomials in u cannot resolve. Above the upper cutoff the classical
# weights overflow: they carry a Gamma(c) factor and Gamma(171) > DBL_MAX.
_LAGUERRE_MIN_SHAPE = 10.0
_LAGUERRE_MAX_SHAPE = 170.0
_LAGUERRE_NODES = 64
# Above this shape the log-grid nodes step over the weight's peak, about
# 1/sqrt(c) wide in v: where the normal CDF moves by O(1) across the peak,
# the rule's error reaches 1e-9 at c = 510, and grows from there. Below
# the floor the window, about 45/c wide, outgrows memory: 13,312 nodes at
# c = 0.1, 1.68 M at c = 1e-3.
_MIN_SHAPE = 0.1
_MAX_SHAPE = 500.0


def _batch_rule(c: float):
    """Nodes sqrt(u_i) and normalized weights for the gamma-mixture rule.

    Generalized Gauss-Laguerre for moderate c; outside that band, composite
    16-point Gauss-Legendre panels in v = log u across the window where the
    weight exp(c v - e^v - ln Gamma(c)) is alive. In v the integrand is
    entire with O(1) length scale, so panels of width ~0.6 converge past
    1e-13 uniformly in c. The Laguerre branch has _LAGUERRE_NODES nodes;
    the log-grid branch is sized by the window.
    """
    key = round(c, 12)
    cached = _BATCH_RULE_CACHE.get(key)
    if cached is not None:
        return cached
    if _LAGUERRE_MIN_SHAPE <= c < _LAGUERRE_MAX_SHAPE:
        from scipy.special import roots_genlaguerre

        u, w = roots_genlaguerre(_LAGUERRE_NODES, c - 1.0)
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
        u = np.exp(v)  # v > -515 for c >= _MIN_SHAPE, so no node underflows to 0
    # Renormalize so the rule is an exact convex combination: constants are
    # integrated exactly and the result stays inside [0, 1].
    wn = wn / wn.sum()
    rule = (np.sqrt(u), wn)
    _BATCH_RULE_CACHE[key] = rule
    return rule


def psi_integral_batch(a, b, c: float) -> np.ndarray:
    """Fixed-rule evaluation of psi(a, b, c) over arrays of (a, b), for
    _MIN_SHAPE <= c <= _MAX_SHAPE.

    The weights sum to one, so the result is a convex combination of normal
    CDF values. Used by the pricing loop, where one call covers all outer
    quadrature nodes at once; an adaptive scalar evaluation in the test
    suite serves as its accuracy check. An infinite a or b keeps its limit,
    N(+-inf) = 1 or 0; a nan, or a and b of opposite infinities, is a
    DomainError.
    """
    if not _MIN_SHAPE <= c <= _MAX_SHAPE:  # nan too
        raise DomainError(f"mixture shape c must lie in [{_MIN_SHAPE:g}, {_MAX_SHAPE:g}], got {c}")
    root, wn = _batch_rule(c)
    a_arr = np.asarray(a, dtype=float)[..., None]
    b_arr = np.asarray(b, dtype=float)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):  # a / root -> inf is intended; nan is refused below
        vals = ndtr(a_arr / root[None, :] + b_arr * root[None, :])
    out = vals @ wn
    if np.isnan(out).any():
        raise DomainError("psi arguments a and b must not be nan, nor opposite infinities")
    return out
