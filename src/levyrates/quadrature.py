"""Adaptive panel quadrature with a fixed-order local rule.

The local rule is 16-point Gauss-Legendre; the per-panel error estimate
is the difference against the embedded 8-point rule. Panels are split at
their midpoint, worst estimated error first, until the summed estimate
meets the tolerance. Because the high-order rule on smooth integrands is
far more accurate than the estimate (which tracks the 8-point error), the
achieved accuracy typically lands orders of magnitude inside the target.

This module is the one panel core of the package: `adaptive_integrate`
drives it with a callable integrand, and the kernel evaluator in `curve`
drives it with node data it caches per panel. A panel set is a sorted
array of edges; each panel carries the 24-node layout of `NODES` (the 16
nodes of the high rule, then the 8 of the low rule).

Integrands must accept numpy arrays. Callers integrating something with
known structure should pass seed breakpoints; a decaying integrand on a
long interval can otherwise fool any sampled rule into a false zero.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from .errors import DomainError, QuadratureError

MAX_PANELS = 2000  # panels one refinement may reach before it gives up

_RULE_CACHE: dict = {}


def gauss_legendre_nodes(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached."""
    if order not in _RULE_CACHE:
        _RULE_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _RULE_CACHE[order]


def _jacobi_recurrence(x: np.ndarray, diag: np.ndarray, off: np.ndarray):
    """(p_n(x), p_n'(x), sum of p_k(x)^2 for k < n) for the orthonormal
    polynomials of the recurrence off_k p_{k+1} = (x - diag_k) p_k - off_{k-1} p_{k-1},
    up to one common factor."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    total = np.ones_like(x)
    for k in range(len(diag)):
        back = off[k - 1] if k else 0.0
        p_prev, p, d_prev, d = (
            p,
            ((x - diag[k]) * p - back * p_prev) / off[k],
            d,
            ((x - diag[k]) * d + p - back * d_prev) / off[k],
        )
        if k < len(diag) - 1:
            total += p * p
    return p, d, total


def jacobi_rule(n: int, alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """(ln u_i, ln w_i) of the n-point Gauss rule for the weight u^alpha
    on (0, 1], alpha > -1, with the weights normalised to sum 1; cached.

    Golub & Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues
    of the Jacobi matrix of the weight (1 + x)^alpha on [-1, 1], mapped
    by u = (1 + x)/2 and polished by one Newton step on the recurrence.
    The weights are the Christoffel numbers 1 / sum_k p_k(x_i)^2 of the
    orthonormal polynomials, which keep their digits where eigenvector
    components lose them. A node whose sum overflows has a weight below
    the float range, and ln w = -inf.
    """
    key = (n, alpha)
    if key not in _RULE_CACHE:
        k = np.arange(1, n + 1, dtype=float)
        s = 2.0 * k + alpha
        diag = np.concatenate([[alpha / (alpha + 2.0)], alpha * alpha / (s[:-1] * (s[:-1] + 2.0))])
        off = 2.0 * k * (k + alpha) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
        x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            p, dp, _ = _jacobi_recurrence(x, diag, off)
            step = p / dp
            x = np.where(np.isfinite(step), x - step, x)
            log_w = -np.log(_jacobi_recurrence(x, diag, off)[2])
        log_w -= math.log(float(np.sum(np.exp(log_w))))
        # near u = 1, log1p keeps ln u free of the rounding in (1 + x)/2
        log_u = np.where(x < 0.0, np.log(0.5 * (1.0 + x)), np.log1p(0.5 * (x - 1.0)))
        _RULE_CACHE[key] = (log_u, log_w)
    return _RULE_CACHE[key]


_X16, W16 = gauss_legendre_nodes(16)
_X8, _W8 = gauss_legendre_nodes(8)
NODES = np.concatenate([_X16, _X8])


def panel_nodes(edges: np.ndarray) -> np.ndarray:
    """Abscissae of the 24-node layout on each panel, shape (panels, 24)."""
    lo, hi = edges[:-1, None], edges[1:, None]
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * NODES


def panel_estimates(edges: np.ndarray, vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-panel (16-point integral, |16-point - 8-point|) from node values."""
    half = 0.5 * (edges[1:] - edges[:-1])
    hi = half * (vals[:, :16] @ W16)
    return hi, np.abs(hi - half * (vals[:, 16:] @ _W8))


def dyadic_breakpoints(lo: float, hi: float) -> np.ndarray:
    """Edges from lo to hi with widths 0.25, 0.5, 1, ...

    Dyadically widening panels capture a decay scale anywhere between lo
    and hi, which equal panels on a long horizon can step over.
    """
    pts = [lo]
    width = 0.25
    while pts[-1] + width < hi:
        pts.append(pts[-1] + width)
        width *= 2.0
    pts.append(hi)
    return np.array(pts)


def split(edges: np.ndarray, k: int, x: Optional[float] = None) -> np.ndarray:
    """Edges with panel k cut at x, or bisected when x is None.

    Raises QuadratureError when the panel is at floating-point resolution,
    where its midpoint is one of its edges.
    """
    lo, hi = edges[k], edges[k + 1]
    if x is None:
        x = 0.5 * (lo + hi)
    if not lo < x < hi:
        raise QuadratureError(
            f"panel [{lo}, {hi}] at floating-point resolution", panels=len(edges) - 1
        )
    return np.insert(edges, k + 1, x)


def refine_panels(
    edges: np.ndarray,
    I: np.ndarray,
    E: np.ndarray,
    values: Callable[[np.ndarray], np.ndarray],
    *,
    rel_tol: float,
    abs_tol: float = 0.0,
    start: int = 0,
) -> Tuple[np.ndarray, float, float]:
    """Bisect the panels edges[start:], worst estimate first, to tolerance.

    I and E are the integrals and error estimates of those panels;
    values(e) returns the integrand on panel_nodes(e) for new panels.
    Converged when sum(E) <= max(rel_tol * |sum(I)|, abs_tol); returns
    (edges, sum(I), sum(E)). Raises QuadratureError when all panels,
    those before start included, reach MAX_PANELS first, or when the
    worst panel cannot be bisected.
    """
    while True:
        total, err = float(I.sum()), float(E.sum())
        target = max(rel_tol * abs(total), abs_tol)
        if err <= target:
            return edges, total, err
        n = len(edges) - 1
        if n >= MAX_PANELS:
            raise QuadratureError(
                f"no convergence after {n} panels on [{edges[start]}, {edges[-1]}]: "
                f"err={err:.3e} vs target {target:.3e}",
                panels=n,
                rel_err=err / max(abs(total), 1e-300),
            )
        k = int(np.argmax(E))
        edges = split(edges, start + k)
        pair = edges[start + k : start + k + 3]
        I2, E2 = panel_estimates(pair, values(pair))
        I = np.concatenate([I[:k], I2, I[k + 1 :]])
        E = np.concatenate([E[:k], E2, E[k + 1 :]])


def adaptive_integrate(
    f,
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-10,
    abs_tol: float = 0.0,
    points: Optional[Iterable[float]] = None,
) -> Tuple[float, float]:
    """Integrate f over the finite interval [a, b]; returns (value, error estimate).

    Convergence: sum of panel error estimates <= max(rel_tol * |value|,
    abs_tol). `points` adds interior breakpoints to the initial panels
    (defaults to an 8-way equal split). Raises DomainError for a bound that
    is not finite, a tolerance that is nan, negative or infinite, or two
    zero tolerances; QuadratureError when MAX_PANELS panels are reached
    first or the worst panel has shrunk to floating-point resolution.
    """
    if not (0.0 <= rel_tol < math.inf and 0.0 <= abs_tol < math.inf) or rel_tol == abs_tol == 0.0:
        raise DomainError(
            f"tolerances must be finite, nonnegative and not both zero, got rel_tol={rel_tol}, abs_tol={abs_tol}"
        )
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integration bounds must be finite, got [{a}, {b}]")
    if not b > a:
        if b == a:
            return 0.0, 0.0
        raise QuadratureError(f"integration bounds out of order: [{a}, {b}]")

    if points is None:
        edges = np.linspace(a, b, 9)
    else:
        interior = [p for p in points if a < p < b]
        edges = np.unique(np.concatenate([[a, b], np.asarray(interior, dtype=float)]))

    def values(e: np.ndarray) -> np.ndarray:
        return np.asarray(f(panel_nodes(e).ravel()), dtype=float).reshape(-1, 24)

    I, E = panel_estimates(edges, values(edges))
    _, total, err = refine_panels(edges, I, E, values, rel_tol=rel_tol, abs_tol=abs_tol)
    return total, err
