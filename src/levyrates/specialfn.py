"""Special functions used by the closed-form option prices.

Two pieces: the regularized incomplete gamma functions, and a fixed
rule for the gamma-mixture normal integral

    psi(a, b, c) = int_0^inf N(a/sqrt(u) + b sqrt(u))
                   u^{c-1} e^{-u} / Gamma(c) du,

which is the kernel of the variance-gamma option formula (the expectation
of a normal CDF over a Gamma(c, 1) time). The rule is generalized
Gauss-Laguerre for 10 <= c < 170 and Gauss-Legendre panels in ln u,
across a window whose edges come from scipy's Lambert W, for the other
shapes in [0.1, 1e9].
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import gammainc, gammaincc, lambertw, ndtr

from .errors import DomainError
from .quadrature import gauss_legendre_nodes


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


# Below the lower cutoff the Laguerre rule stalls (measured: 7.9e-3 worst
# error at c = 0.6 with 64 nodes, <1e-12 at c = 10) because the integrand
# N(a/sqrt(u) + b sqrt(u)) develops a boundary layer at u -> 0 that
# polynomials in u cannot resolve. Above the upper cutoff the classical
# weights overflow: they carry a Gamma(c) factor and Gamma(171) > DBL_MAX.
_LAGUERRE_MIN_SHAPE = 10.0
_LAGUERRE_MAX_SHAPE = 170.0
_LAGUERRE_NODES = 64
# Outside that band: 32-point Gauss-Legendre panels, at least 2 and each
# at most 1.5 wide, across the window where the weight is within 36
# e-folds of its peak. Below the floor the window, about 36/c wide, grows
# without bound: 7,840 nodes at c = 0.1, about 770,000 at c = 1e-3. Above
# the cap scipy's k = -1 branch of the Lambert W function, evaluated next
# to its branch point, collapses the window's right edge onto the peak
# (between c = 7e9 and 8e9 with scipy 1.17).
_PANEL_NODES = 32
_PANEL_WIDTH = 1.5
_WINDOW_EFOLDS = 36.0
_MIN_SHAPE = 0.1
_MAX_SHAPE = 1e9


@functools.lru_cache(maxsize=32)
def _batch_rule(c: float):
    """Nodes sqrt(u_i) and normalized weights for the gamma-mixture rule.

    Generalized Gauss-Laguerre with _LAGUERRE_NODES nodes for moderate c.
    Outside that band the rule works in w = ln(u/c), where the Gamma(c, 1)
    weight relative to its peak is exp(c (w - expm1(w))) and the
    integrand is entire with an O(1) length scale (1/sqrt(c) for the
    weight's own peak at large c). The weight falls _WINDOW_EFOLDS e-folds
    where e^w - w = A = 1 + _WINDOW_EFOLDS / c, that is at the window
    edges w = -A - W_k(-e^{-A}), k = 0 (left) and k = -1 (right), from the
    two real branches of the Lambert W function (Corless et al., Adv.
    Comput. Math. 5, 1996). Cached per shape c, the 32 most recent.
    """
    if _LAGUERRE_MIN_SHAPE <= c < _LAGUERRE_MAX_SHAPE:
        from scipy.special import roots_genlaguerre

        u, gw = roots_genlaguerre(_LAGUERRE_NODES, c - 1.0)
        root, wn = np.sqrt(u), gw * math.exp(-math.lgamma(c))
    else:
        A = 1.0 + _WINDOW_EFOLDS / c
        lo, hi = (-A - lambertw(-math.exp(-A), k).real for k in (0, -1))
        panels = max(2, math.ceil((hi - lo) / _PANEL_WIDTH))
        x, gw = gauss_legendre_nodes(_PANEL_NODES)
        edges = np.linspace(lo, hi, panels + 1)
        # the panels' common half-width cancels in the normalization below
        w = (0.5 * (edges[:-1] + edges[1:])[:, None] + (0.5 * (edges[1] - edges[0])) * x).ravel()
        root = math.sqrt(c) * np.exp(0.5 * w)  # w > -361 for c >= _MIN_SHAPE, so no node underflows to 0
        wn = np.tile(gw, panels) * np.exp(c * (w - np.expm1(w)))
    # Renormalize so the rule is an exact convex combination: constants are
    # integrated exactly and the result stays inside [0, 1].
    return root, wn / wn.sum()


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
