"""European calls on discount bonds: critical level, closed forms, MC oracle.

The time-0 price of a call with expiry t and strike K on the T-bond is
the expectation of (int_T^inf rho_s M_ts ds - K int_t^inf rho_s M_ts ds)+
over the driver value at expiry. For monotone phi, the payoff region is a
half-line {xi < xi*} or {xi > xi*} where xi* solves P(t, T, xi*) = K.
The solve takes Newton steps on log P, whose slope in xi is the bond
volatility Phi_tT - Phi_tt, given by the same kernel pass as P, and
bisects when a step would leave the bracket. The expectation then
reduces to rho-weighted integrals of

    G(s) = E[ 1_itm(X_t) * M_ts ],

which each family evaluates in closed form: a normal CDF for Brownian
drivers, a tilted Poisson mixture of normal CDFs for jump-diffusion, a
regularized incomplete gamma for the gamma subordinator, and a
gamma-mixture normal integral for variance gamma. Since E[M_ts] = 1, the
side {xi > xi*} has weight 1 - G(s); each family computes that tail
directly instead, which keeps its digits where it is small.

The Monte Carlo pricer evaluates the defining expectation directly from
exact increment draws and is the arbiter whenever a closed form is in
doubt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.special import gammaln, ndtr

from .curve import RateModel
from .errors import (
    DomainError,
    NumericalError,
    StrikeOutOfRangeError,
    UnsupportedModelError,
)
from .levy import (
    BrownianFamily,
    GammaFamily,
    JumpDiffusionFamily,
    VarianceGammaFamily,
)
from .quadrature import adaptive_integrate, dyadic_breakpoints
from .specialfn import psi_integral_batch, reg_lower_gamma, reg_upper_gamma

_XI_CAP = 1e9  # bracket expansion limit before a strike is declared unreachable
_RESIDUAL_TOL = 1e-12
# the root solve stops at a step of at most _XTOL + _RTOL |xi| (4 ulps),
# and fails after _MAX_STEPS steps
_XTOL, _RTOL = 1e-14, 8.9e-16
_MAX_STEPS = 200
# the JD Poisson series stops where the Poisson tail falls below this
_JD_SERIES_TAIL = 1e-12
# Monte Carlo draws when a caller gives no count (the CLI and validation)
MC_PATHS = 100_000


@dataclass(frozen=True)
class OptionSpec:
    """European call on a discount bond: expiry, bond maturity, strike in (0,1)."""

    expiry: float
    maturity: float
    strike: float

    def __post_init__(self):
        if not (0.0 <= self.expiry < math.inf):
            raise DomainError(f"expiry must be nonnegative and finite, got {self.expiry}")
        if not (self.expiry <= self.maturity < math.inf):
            raise DomainError(
                f"bond maturity {self.maturity} must be finite and not precede expiry {self.expiry}"
            )
        if not (0.0 < self.strike < 1.0):
            raise DomainError(f"strike must lie strictly in (0, 1), got {self.strike}")


@dataclass(frozen=True)
class CriticalLevel:
    """Root xi* of P(t, T, xi) = K with the bracket, the achieved residual
    and the number of Newton or bisection steps the root solve took."""

    xi_star: float
    bracket: Tuple[float, float]
    residual: float
    iterations: int


@dataclass(frozen=True)
class CallPrice:
    """Analytic price with its status.

    status is "ok" when a critical level was solved; "always_itm" when the
    strike sits below every attainable bond price (the price is the exact
    lower bound P0(T) - K P0(t)); "always_otm" when it sits above them
    (price 0); "degenerate" when expiry is now or at the bond's maturity,
    where the payoff needs no driver at all.
    """

    price: float
    status: str
    critical: Optional[CriticalLevel] = None


def _orientation(model: RateModel) -> str:
    """'lower' when the payoff region is {xi < xi*}, 'upper' when {xi > xi*}.

    Decreasing phi makes P(t,T,xi) decreasing in xi (low driver values are
    the in-the-money side); increasing phi flips it.
    """
    mono = model.phi.monotonicity
    if mono == "positive-decreasing":
        return "lower"
    if mono == "negative-increasing":
        return "upper"
    if mono == "constant":
        raise UnsupportedModelError(
            "constant phi makes the bond price independent of the driver; "
            "the option is worth its intrinsic bound, no critical level exists"
        )
    raise UnsupportedModelError(
        "critical-level pricing needs monotone phi; for non-monotone phi "
        "use the Monte Carlo pricer price_call_mc"
    )


def solve_critical_level(model: RateModel, spec: OptionSpec) -> CriticalLevel:
    """Find xi* with |P(t,T,xi*) - K| <= 1e-12 by bracket expansion and a
    safeguarded Newton solve on log P - log K.

    The kernel rule is checked from t and from T at each bracket endpoint
    (ev.refine(x, t, T)); the root solve keeps the rule the last check
    accepted, so the solver sees one smooth deterministic function of xi.
    Each step costs one kernel pass, which gives log P and its exact slope
    Phi_tT - Phi_tt together.
    Raises StrikeOutOfRangeError when K is not attainable over the driver's
    support, UnsupportedModelError for non-monotone phi, NumericalError
    when the root misses the residual contract.
    """
    orient = _orientation(model)
    t, T, K = spec.expiry, spec.maturity, spec.strike
    if T == t or t == 0.0:
        raise DomainError("critical level is undefined for degenerate expiries")
    ev = model.evaluator(t)
    log_k = math.log(K)

    def P(xi: float) -> Tuple[float, float]:
        """(P(t, T, xi), log P - log K)."""
        log_p = ev.log_bond_and_slope(xi, T)[0]
        return math.exp(log_p), log_p - log_k

    lo_support = model.fam.support_lower
    sign = 1.0 if orient == "upper" else -1.0  # dP/dxi sign

    a = max(lo_support, -1.0)
    b = 1.0
    ev.refine(a, t, T)
    ev.refine(b, t, T)
    (Pa, fa), (Pb, fb) = P(a), P(b)
    # grow the bracket until K is enclosed; P is monotone so only the
    # deficient side needs pushing
    while (Pa - K) * sign > 0.0:
        if a == lo_support:
            raise StrikeOutOfRangeError(
                f"strike {K} lies {'below' if sign > 0 else 'above'} every bond price "
                f"attainable from the driver support edge (P={Pa:.6g} at xi={a})",
                side="always_itm" if Pa > K else "always_otm",
            )
        a = max(lo_support, a * 2.0 if a < 0 else -1.0)
        if abs(a) > _XI_CAP:
            raise StrikeOutOfRangeError(
                f"strike {K} not bracketed by xi = {-_XI_CAP:g}",
                side="always_itm" if P(a)[0] > K else "always_otm",
            )
        ev.refine(a, t, T)
        Pa, fa = P(a)
    while (Pb - K) * sign < 0.0:
        b *= 2.0
        if b > _XI_CAP:
            side = "always_itm" if P(b)[0] > K else "always_otm"
            raise StrikeOutOfRangeError(f"strike {K} not bracketed by xi = {_XI_CAP:g}", side=side)
        ev.refine(b, t, T)
        Pb, fb = P(b)

    def newton() -> Tuple[float, int]:
        """(root of log P - log K in [a, b], steps taken).

        Newton steps start from the regula falsi point and stay inside the
        sign-change interval, which every step shrinks; a step that would
        leave it, or a slope that is zero or not finite, is replaced by
        bisection (rtsafe: Press et al., Numerical Recipes, section 9.4).
        """
        if fa == 0.0 or fb == 0.0:
            return (a if fa == 0.0 else b), 0
        lo, hi = a, b
        x = a - fa * (b - a) / (fb - fa)
        if not a < x < b:  # an infinite end value gives nan
            x = 0.5 * (a + b)
        for steps in range(1, _MAX_STEPS + 1):
            log_p, slope = ev.log_bond_and_slope(x, T)
            fx = log_p - log_k
            if fx == 0.0:
                return x, steps
            if (fx < 0.0) == (fa < 0.0):
                lo = x
            else:
                hi = x
            nxt = x - fx / slope if slope != 0.0 and math.isfinite(slope) else math.nan
            if not lo < nxt < hi:  # also catches nan
                nxt = 0.5 * (lo + hi)
            if abs(nxt - x) <= _XTOL + _RTOL * abs(nxt):
                return nxt, steps
            x = nxt
        raise NumericalError(f"critical level not found in {_MAX_STEPS} steps (t={t}, T={T}, K={K})")

    xi_star, iterations = newton()

    # honesty check on the rule checked at the root
    ev.refine(xi_star, t, T)
    residual = abs(P(xi_star)[0] - K)
    if residual > _RESIDUAL_TOL:
        xi_star, more = newton()
        iterations += more
        residual = abs(P(xi_star)[0] - K)
        if residual > _RESIDUAL_TOL:
            raise NumericalError(
                f"critical level residual {residual:.3e} above {_RESIDUAL_TOL:g} "
                f"(t={t}, T={T}, K={K})"
            )
    return CriticalLevel(xi_star, (float(a), float(b)), float(residual), iterations)


# -- family-specific in-the-money weights -----------------------------------


def _itm_weight(model: RateModel, t: float, xi_star: float, s: np.ndarray) -> np.ndarray:
    """G(s) = E[1_itm(X_t) M_ts], vectorized over maturities s, on the
    payoff side of _orientation: {X_t < xi*} or {X_t > xi*}. Each side
    is its family's own tail, not 1 minus the other."""
    fam = model.fam
    upper = _orientation(model) == "upper"
    sign = -1.0 if upper else 1.0
    phi_s = np.asarray(model.phi(s), dtype=float)
    if isinstance(fam, BrownianFamily):
        rt = math.sqrt(t)
        return ndtr(sign * (xi_star / rt - phi_s * rt))
    if isinstance(fam, JumpDiffusionFamily):
        weights, args = _jd_series(fam, t, xi_star, phi_s)
        return np.einsum("sn,sn->s", weights, ndtr(sign * args))
    if isinstance(fam, GammaFamily):
        x = max(xi_star, 0.0) * (1.0 / fam.kappa - phi_s)  # the support is [0, inf)
        return (reg_upper_gamma if upper else reg_lower_gamma)(fam.m * t, x)
    if isinstance(fam, VarianceGammaFamily):
        inv_var = fam.m - fam.mu * phi_s - 0.5 * fam.sigma**2 * phi_s * phi_s
        big_phi = 1.0 / np.sqrt(inv_var)
        a = xi_star / (fam.sigma * big_phi)
        b = -(fam.mu / fam.sigma + fam.sigma * phi_s) * big_phi
        return psi_integral_batch(sign * a, sign * b, fam.m * t)  # 1 - N(z) = N(-z)
    raise UnsupportedModelError(f"no closed-form option weight for family {fam.tag!r}")


def _jd_series(
    fam: JumpDiffusionFamily, t: float, xi_star: float, phi_s: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(Poisson weights, normal CDF arguments), shape (maturities, terms),
    of the mixture of normal CDFs under the Esscher-tilted intensity.

    The tilted intensity is Lambda(s) = lam * exp(phi_s mu + phi_s^2
    delta^2 / 2). The plus sign in front of the delta^2 term is pinned by
    the Monte Carlo oracle in the test suite: with mu = 0 the two sign
    choices differ by a factor exp(phi^2 delta^2), far outside MC noise,
    and only the plus sign matches. The series runs until its Poisson tail
    is below _JD_SERIES_TAIL.
    """
    lam_t = t * fam.lam * np.exp(phi_s * fam.mu + 0.5 * phi_s * phi_s * fam.delta**2)
    n = np.arange(_poisson_cutoff(float(np.max(lam_t)), _JD_SERIES_TAIL) + 1, dtype=float)
    v_n = np.sqrt(t + n * fam.delta**2)
    with np.errstate(divide="ignore"):
        log_w = n[None, :] * np.log(lam_t[:, None]) - lam_t[:, None] - gammaln(n + 1.0)[None, :]
    args = (xi_star - n[None, :] * fam.mu) / v_n[None, :] - phi_s[:, None] * v_n[None, :]
    return np.exp(log_w), args


def _poisson_cutoff(mean: float, tail: float) -> int:
    """A series cutoff n with P(Poisson(mean) > n) <= tail.

    Returns the first of n0 = floor(mean + 10 sqrt(mean + 1) + 10), n0 + 10,
    n0 + 20, ... that meets the tail, not the smallest such n: at tail
    1e-12 it gives 39 for mean 5, where 27 suffices, and 75 for mean 20,
    where 59 suffices.
    """
    n = int(mean + 10.0 * math.sqrt(mean + 1.0) + 10.0)
    # P(N > n) = 1 - Q(n+1, mean), the regularized upper incomplete gamma
    while 1.0 - reg_upper_gamma(float(n + 1), mean) > tail:
        n += 10
        if n > 100000:
            raise NumericalError("jump-diffusion series cutoff ran away")
    return n


def price_call(model: RateModel, spec: OptionSpec) -> CallPrice:
    """Closed-form call price with explicit status reporting.

    Out-of-range strikes are not errors here: an unattainably low strike
    prices the always-exercised bound P0(T) - K P0(t), an unattainably
    high one prices zero, each labeled distinctly in the status field. A
    constant tilt makes the bond price deterministic, so the call prices
    one of those two bounds; a non-monotone tilt raises
    UnsupportedModelError from the solve.
    """
    t, T, K = spec.expiry, spec.maturity, spec.strike
    P0 = model.ts.discount_factor
    if t == 0.0:
        return CallPrice(price=max(float(P0(T)) - K, 0.0), status="degenerate")
    if T == t:
        # the underlying pays 1 at expiry; K < 1 is always exercised
        return CallPrice(price=float(P0(t)) * (1.0 - K), status="degenerate")

    if model.phi.monotonicity == "constant":
        # the bond price is deterministic; intrinsic value at the bound
        if K < model.ts.forward_price(t, T):
            return CallPrice(price=float(P0(T)) - K * float(P0(t)), status="always_itm")
        return CallPrice(price=0.0, status="always_otm")
    try:
        crit = solve_critical_level(model, spec)
    except StrikeOutOfRangeError as exc:
        if exc.side == "always_itm":
            return CallPrice(price=float(P0(T)) - K * float(P0(t)), status="always_itm")
        return CallPrice(price=0.0, status="always_otm")

    rho = model.ts.density
    S = model.s_max

    def outer(lower: float) -> float:
        val, _ = adaptive_integrate(
            lambda s: np.asarray(rho(s), dtype=float) * _itm_weight(model, t, crit.xi_star, s),
            lower,
            S,
            rel_tol=model.rel_tol,
            abs_tol=1e-14,
            points=dyadic_breakpoints(lower, S),
        )
        return val

    price = outer(T) - K * outer(t)
    if price < 0.0:
        if price < -1e-10:
            raise NumericalError(f"call price came out negative ({price:.3e})")
        price = 0.0
    return CallPrice(price=float(price), status="ok", critical=crit)


def _check_path_count(paths) -> None:
    if not isinstance(paths, (int, np.integer)) or isinstance(paths, bool):
        raise DomainError(f"path count must be an integer, got {paths!r}")
    if paths < 1000:
        raise DomainError(f"need at least 1000 paths for a meaningful error bar, got {paths}")


def price_call_mc(
    model: RateModel,
    spec: OptionSpec,
    paths: int,
    rng: np.random.Generator,
) -> Tuple[float, float]:
    """Unbiased Monte Carlo price and its standard error.

    Draws the driver at expiry exactly, evaluates the kernel payoff
    (int_T rho M - K int_t rho M)+ per draw on the kernel's rule,
    and averages. Works for any phi, monotone or not. paths must be an
    integer (not a bool) of at least 1000.
    """
    _check_path_count(paths)
    t, T, K = spec.expiry, spec.maturity, spec.strike
    if t == 0.0:
        price = max(float(model.ts.discount_factor(T)) - K, 0.0)
        return price, 0.0
    xi = np.asarray(model.fam.sample_increment(t, rng, paths), dtype=float)
    logs = model.evaluator(t).log_integral_batch(xi, [t, T] if T > t else [t])
    del xi
    # in place: arrays of one float per draw are the bulk of this call's memory
    k_t = np.exp(logs[float(t)], out=logs[float(t)])
    k_T = np.exp(logs[float(T)], out=logs[float(T)]) if T > t else k_t.copy()
    k_t *= K
    payoff = np.maximum(np.subtract(k_T, k_t, out=k_T), 0.0, out=k_T)
    mean = float(payoff.mean())
    se = float(payoff.std(ddof=1) / math.sqrt(paths))
    return mean, se
