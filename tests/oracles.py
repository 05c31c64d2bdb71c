"""Test oracles: deliberately not package code.

The normal CDF, and an adaptive scalar evaluation of the gamma-mixture
normal integral

    psi_integral(a, b, c) = int_0^inf N(a/sqrt(u) + b sqrt(u))
                            u^{c-1} e^{-u} / Gamma(c) du,

against which the package's fixed rule `psi_integral_batch` is checked.
The window search is a copy of the package's and scipy's `quad`
integrates, so the oracle shares no code with the rule it checks.

A call price from the driver's transition density p_t,

    price = int p_t(xi) (k_T(xi) - K k_t(xi))^+ dxi,

with the kernel values k_L(xi) = int_L rho_s M(t, s, xi) ds of
`kernel_integral`. It shares neither the critical-level solve, nor the
family weights G, nor the outer maturity integral of `price_call`: the
kink xi* comes from plain bisection on the bond price, the densities are
closed forms of their own, and scipy's `quad` integrates over xi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, kve, ndtr

import levyrates as lr
from levyrates.errors import DomainError, NumericalError


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
    v = ln c. scipy's quad integrates over the window where the weight is
    alive. Absolute accuracy is far inside the 1e-8 target.
    """
    a, b, c = args.a, args.b, args.c
    lg = math.lgamma(c)
    v_lo, v_hi = _log_weight_window(c)

    def integrand(v: float) -> float:
        with np.errstate(over="ignore"):
            half = 0.5 * v
            arg = (a * np.exp(-half) if a != 0.0 else 0.0) + (b * np.exp(half) if b != 0.0 else 0.0)
        return float(ndtr(arg)) * math.exp(c * v - math.exp(v) - lg)

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
    value, _err = quad(
        integrand, v_lo, v_hi, points=seeds[1:-1], epsrel=1e-12, epsabs=1e-13, limit=500
    )
    return min(max(value, 0.0), 1.0)


# -- call prices from the transition density ----------------------------------


def transition_log_density(fam, t: float, x: float) -> float:
    """log p_t(x) of the driver value X_t, from its law, not from psi.

    gbm: Normal(0, t). jd: the untilted Poisson mixture of normals,
    N ~ Poisson(lam t) jumps of Normal(mu, delta^2). gamma: Gamma(m t,
    scale kappa), for x > 0. vg: the Bessel-K closed form of Madan, Carr
    & Chang (Eur. Finance Rev. 2, 1998) with theta = mu, nu = 1/m, and its
    finite limit at x = 0 (shape m t > 1/2).
    """
    if isinstance(fam, lr.BrownianFamily):
        return -0.5 * x * x / t - 0.5 * math.log(2.0 * math.pi * t)
    if isinstance(fam, lr.JumpDiffusionFamily):
        mean = fam.lam * t
        n = np.arange(int(mean + 12.0 * math.sqrt(mean) + 30.0) + 1.0)  # tail far below 1e-20
        var = t + n * fam.delta**2
        terms = n * math.log(mean) - mean - gammaln(n + 1.0) - 0.5 * (x - n * fam.mu) ** 2 / var
        terms -= 0.5 * np.log(2.0 * math.pi * var)
        top = float(terms.max())
        return top + math.log(float(np.exp(terms - top).sum()))
    if isinstance(fam, lr.GammaFamily):
        return (fam.m * t - 1.0) * math.log(x) + gamma_log_cofactor(fam, t, x)
    if isinstance(fam, lr.VarianceGammaFamily):
        theta, sigma, tau = fam.mu, fam.sigma, fam.m * t
        c2 = 2.0 * sigma**2 * fam.m + theta**2  # 2 sigma^2 / nu + theta^2
        v = tau - 0.5
        log_pre = (
            math.log(2.0) + theta * x / sigma**2 + tau * math.log(fam.m)
            - 0.5 * math.log(2.0 * math.pi) - math.log(sigma) - math.lgamma(tau)
        )
        if x == 0.0:  # K_v(z) ~ Gamma(v)/2 (2/z)^v as z -> 0
            return log_pre + math.lgamma(v) - math.log(2.0) + v * math.log(2.0 * sigma**2 / c2)
        z = abs(x) * math.sqrt(c2) / sigma**2
        return log_pre + 0.5 * v * math.log(x * x / c2) + math.log(kve(v, z)) - z
    raise TypeError(f"no transition density for {fam!r}")


def gamma_log_cofactor(fam, t: float, x: float) -> float:
    """log of the gamma density over its power x^(m t - 1), which is
    singular at 0 when m t < 1 and goes to quad as an algebraic weight."""
    a = fam.m * t
    return -x / fam.kappa - math.lgamma(a) - a * math.log(fam.kappa)


def bisect_root(model, t: float, T: float, K: float, lo: float, hi: float) -> float:
    """xi with P(t, T, xi) = K by plain bisection on the bond price."""

    def gap(xi):
        return lr.bond_price(model, lr.ModelState(t=t, xi=xi), T) - K

    f_lo = gap(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if gap(mid) * f_lo > 0.0:
            lo = mid
        else:
            hi = mid


def call_price(model, t: float, T: float, K: float) -> float:
    """int p_t(xi) (k_T(xi) - K k_t(xi))^+ dxi over the in-the-money side.

    The bracket around xi* grows from [-1, 1] (from the support edge for
    a subordinator) until the bond price crosses K, and the side where it
    lies above K is in the money. Where the gamma density is singular at
    0 (m t < 1), quad takes x^(m t - 1) as its algebraic weight.
    """
    fam = model.fam

    def bond(xi):
        return lr.bond_price(model, lr.ModelState(t=t, xi=xi), T)

    lo, hi = max(fam.support_lower, -1.0), 1.0
    while (bond(lo) - K) * (bond(hi) - K) > 0.0:
        lo, hi = max(fam.support_lower, 2.0 * lo), 2.0 * hi
        if hi > 1e9:
            raise NumericalError(f"strike {K} is not bracketed by xi in [-1e9, 1e9]")
    below = bond(lo) > K  # the in-the-money side is xi < xi*
    xi_star = bisect_root(model, t, T, K, lo, hi)

    def payoff(xi):
        state = lr.ModelState(t=t, xi=xi)
        return lr.kernel_integral(model, state, T) - K * lr.kernel_integral(model, state, t)

    def integrand(xi):
        log_p = transition_log_density(fam, t, xi)
        return math.exp(log_p) * payoff(xi) if log_p > -745.0 else 0.0

    tol = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    if isinstance(fam, lr.GammaFamily) and below:
        value, _ = quad(
            lambda x: math.exp(gamma_log_cofactor(fam, t, x)) * payoff(x),
            0.0, xi_star, weight="alg", wvar=(fam.m * t - 1.0, 0.0), **tol,
        )
    elif below:
        value, _ = quad(integrand, -np.inf, xi_star, **tol)
    else:
        value, _ = quad(integrand, xi_star, np.inf, **tol)
    return value
