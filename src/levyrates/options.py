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
regularized upper incomplete gamma for the gamma subordinator, and a
gamma-mixture normal integral for variance gamma. Because E[M_ts] = 1
exactly, the opposite orientation is the exact complement 1 - G(s).

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

from .curve import RateModel, bond_price
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
from .martingales import ModelState
from .quadrature import adaptive_integrate, dyadic_breakpoints
from .specialfn import psi_integral_batch, reg_upper_gamma

__all__ = [
    "OptionSpec",
    "CriticalLevel",
    "CallPrice",
    "bond_price_at",
    "solve_critical_level",
    "price_call",
    "price_call_mc",
]

_XI_CAP = 1e9  # bracket expansion limit before a strike is declared unreachable
_RESIDUAL_TOL = 1e-12
# the root solve stops at a step of at most _XTOL + _RTOL |xi| (4 ulps),
# and fails after _MAX_STEPS steps
_XTOL, _RTOL = 1e-14, 8.9e-16
_MAX_STEPS = 200


@dataclass(frozen=True)
class OptionSpec:
    """European call on a discount bond: expiry, bond maturity, strike in (0,1)."""

    expiry: float
    maturity: float
    strike: float

    def __post_init__(self):
        if self.expiry < 0.0:
            raise DomainError(f"expiry must be nonnegative, got {self.expiry}")
        if self.maturity < self.expiry:
            raise DomainError(
                f"bond maturity {self.maturity} must not precede expiry {self.expiry}"
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


def bond_price_at(model: RateModel, t: float, T: float, xi: float) -> float:
    """P(t, T, xi): bond price as an explicit function of the driver value."""
    return bond_price(model, ModelState(t=t, xi=xi), T)


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

    The panelization is refined at each bracket endpoint, then frozen for
    the root solve so the solver sees one smooth deterministic function of
    xi. Each step costs one kernel pass, which gives log P and its exact
    slope Phi_tT - Phi_tt together. Raises StrikeOutOfRangeError when K is
    not attainable over the driver's support, UnsupportedModelError for
    non-monotone phi, NumericalError when the root misses the residual
    contract.
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

    def refine_at(xi: float) -> None:
        ev.prepare([xi], (t, T))

    lo_support = model.fam.support_lower
    sign = 1.0 if orient == "upper" else -1.0  # dP/dxi sign

    a = max(lo_support, -1.0)
    b = 1.0
    refine_at(a)
    refine_at(b)
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
        refine_at(a)
        Pa, fa = P(a)
    while (Pb - K) * sign < 0.0:
        b *= 2.0
        if b > _XI_CAP:
            side = "always_itm" if P(b)[0] > K else "always_otm"
            raise StrikeOutOfRangeError(f"strike {K} not bracketed by xi = {_XI_CAP:g}", side=side)
        refine_at(b)
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

    # honesty check with refinement re-enabled at the root
    refine_at(xi_star)
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


def _itm_weight_lower(model: RateModel, t: float, xi_star: float, s: np.ndarray, opts) -> np.ndarray:
    """G(s) = E[1{X_t < xi*} M_ts], vectorized over maturities s."""
    fam = model.fam
    phi_s = np.asarray(model.phi(s), dtype=float)
    if isinstance(fam, BrownianFamily):
        rt = math.sqrt(t)
        return ndtr(xi_star / rt - phi_s * rt)
    if isinstance(fam, JumpDiffusionFamily):
        return _jd_weight_lower(fam, t, xi_star, phi_s, opts)
    if isinstance(fam, GammaFamily):
        # driver support is [0, inf): a non-positive critical level leaves
        # nothing below it
        if xi_star <= 0.0:
            return np.zeros_like(phi_s)
        x = xi_star * (1.0 / fam.kappa - phi_s)
        return 1.0 - reg_upper_gamma(fam.m * t, x)
    if isinstance(fam, VarianceGammaFamily):
        inv_var = fam.m - fam.mu * phi_s - 0.5 * fam.sigma**2 * phi_s * phi_s
        big_phi = 1.0 / np.sqrt(inv_var)
        a = xi_star / (fam.sigma * big_phi)
        b = -(fam.mu / fam.sigma + fam.sigma * phi_s) * big_phi
        return psi_integral_batch(a, b, fam.m * t, n_nodes=opts["vg_nodes"])
    raise UnsupportedModelError(f"no closed-form option weight for family {fam.tag!r}")


def _jd_weight_lower(
    fam: JumpDiffusionFamily, t: float, xi_star: float, phi_s: np.ndarray, opts
) -> np.ndarray:
    """Poisson mixture of normal CDFs under the Esscher-tilted intensity.

    The tilted intensity is Lambda(s) = lam * exp(phi_s mu + phi_s^2
    delta^2 / 2). The plus sign in front of the delta^2 term is pinned by
    the Monte Carlo oracle in the test suite: with mu = 0 the two sign
    choices differ by a factor exp(phi^2 delta^2), far outside MC noise,
    and only the plus sign matches.
    """
    lam_t = t * fam.lam * np.exp(phi_s * fam.mu + 0.5 * phi_s * phi_s * fam.delta**2)
    n_max = opts.get("jd_n_max")
    if n_max is None:
        n_max = _poisson_cutoff(float(np.max(lam_t)), opts["jd_series_tail"])
    n = np.arange(n_max + 1, dtype=float)
    v_n = np.sqrt(t + n * fam.delta**2)
    with np.errstate(divide="ignore"):
        log_w = n[None, :] * np.log(lam_t[:, None]) - lam_t[:, None] - gammaln(n + 1.0)[None, :]
    weights = np.exp(log_w)
    args = (xi_star - n[None, :] * fam.mu) / v_n[None, :] - phi_s[:, None] * v_n[None, :]
    return np.einsum("sn,sn->s", weights, ndtr(args))


def _poisson_cutoff(mean: float, tail: float) -> int:
    """Smallest n with P(Poisson(mean) > n) <= tail."""
    n = int(mean + 10.0 * math.sqrt(mean + 1.0) + 10.0)
    # P(N > n) = 1 - Q(n+1, mean), the regularized upper incomplete gamma
    while 1.0 - reg_upper_gamma(float(n + 1), mean) > tail:
        n += 10
        if n > 100000:
            raise NumericalError("jump-diffusion series cutoff ran away")
    return n


def price_call(
    model: RateModel,
    spec: OptionSpec,
    *,
    jd_series_tail: float = 1e-12,
    jd_n_max: Optional[int] = None,
    vg_nodes: int = 64,
) -> CallPrice:
    """Closed-form call price with explicit status reporting.

    Out-of-range strikes are not errors here: an unattainably low strike
    prices the always-exercised bound P0(T) - K P0(t), an unattainably
    high one prices zero, each labeled distinctly in the status field.
    """
    t, T, K = spec.expiry, spec.maturity, spec.strike
    P0 = model.ts.discount_factor
    if t == 0.0:
        return CallPrice(price=max(float(P0(T)) - K, 0.0), status="degenerate")
    if T == t:
        # the underlying pays 1 at expiry; K < 1 is always exercised
        return CallPrice(price=float(P0(t)) * (1.0 - K), status="degenerate")

    try:
        crit = solve_critical_level(model, spec)
    except StrikeOutOfRangeError as exc:
        if exc.side == "always_itm":
            return CallPrice(price=float(P0(T)) - K * float(P0(t)), status="always_itm")
        return CallPrice(price=0.0, status="always_otm")
    except UnsupportedModelError:
        if model.phi.monotonicity == "constant":
            # the bond price is deterministic; intrinsic value at the bound
            fwd = float(P0(T)) / float(P0(t))
            if K < fwd:
                return CallPrice(price=float(P0(T)) - K * float(P0(t)), status="always_itm")
            return CallPrice(price=0.0, status="always_otm")
        raise

    opts = {"jd_series_tail": jd_series_tail, "jd_n_max": jd_n_max, "vg_nodes": vg_nodes}
    orient = _orientation(model)

    def weight(s: np.ndarray) -> np.ndarray:
        g = _itm_weight_lower(model, t, crit.xi_star, s, opts)
        return g if orient == "lower" else 1.0 - g

    rho = model.ts.density
    S = model.s_max
    quad = model.quad

    def outer(lower: float) -> float:
        val, _ = adaptive_integrate(
            lambda s: np.asarray(rho(s), dtype=float) * weight(s),
            lower,
            S,
            rel_tol=quad.rel_tol,
            abs_tol=1e-14,
            max_panels=quad.max_subdivisions,
            points=dyadic_breakpoints(lower, S),
        )
        return val

    price = outer(T) - K * outer(t)
    if price < 0.0:
        if price < -1e-10:
            raise NumericalError(f"call price came out negative ({price:.3e})")
        price = 0.0
    return CallPrice(price=float(price), status="ok", critical=crit)


def price_call_mc(
    model: RateModel,
    spec: OptionSpec,
    paths: int,
    rng: np.random.Generator,
) -> Tuple[float, float]:
    """Unbiased Monte Carlo price and its standard error.

    Draws the driver at expiry exactly, evaluates the kernel payoff
    (int_T rho M - K int_t rho M)+ per draw on a shared panelization, and
    averages. Works for any phi, monotone or not.
    """
    if paths < 1000:
        raise DomainError(f"need at least 1000 paths for a meaningful error bar, got {paths}")
    t, T, K = spec.expiry, spec.maturity, spec.strike
    if t == 0.0:
        price = max(float(model.ts.discount_factor(T)) - K, 0.0)
        return price, 0.0
    xi = np.asarray(model.fam.sample_increment(t, rng, paths), dtype=float)
    ev = model.evaluator(t)
    probes = [float(xi.min()), float(np.median(xi)), float(xi.max())]
    ev.prepare(probes, [t, T] if T > t else [t])
    logs = ev.log_integral_batch(xi, [t, T] if T > t else [t])
    k_T = np.exp(logs[float(T)]) if T > t else np.exp(logs[float(t)])
    k_t = np.exp(logs[float(t)])
    payoff = np.maximum(k_T - K * k_t, 0.0)
    mean = float(payoff.mean())
    se = float(payoff.std(ddof=1) / math.sqrt(paths))
    return mean, se
