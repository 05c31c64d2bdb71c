"""Runtime validation harness: every model-level invariant as one check.

Each check measures a discrepancy, compares it to an explicit bound, and
reports both, so a failure message carries the numbers needed to judge
how badly the property broke. Monte Carlo checks use a deterministic
stream derived from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .curve import (
    RateModel,
    bond_price,
    forward_rate,
    phi_average,
    risk_premium,
    short_rate,
)
from .errors import (
    NumericalError,
    StrikeOutOfRangeError,
    UnsupportedModelError,
)
from .levy import GammaFamily, spawn_stream
from .martingales import ModelState
from .options import OptionSpec, price_call, price_call_mc, solve_critical_level
from .termstructure import CurveReport, validate_term_structure

__all__ = ["CheckResult", "ValidationReport", "curve_checks", "run_validation"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{tag}  {self.name}: measured={self.measured:.6g} bound={self.bound:.6g}{extra}"


@dataclass(frozen=True)
class ValidationReport:
    checks: Tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> List[str]:
        out = [c.line() for c in self.checks]
        n_fail = sum(not c.passed for c in self.checks)
        out.append(
            f"{'OK' if n_fail == 0 else 'FAILED'}: {len(self.checks) - n_fail}/{len(self.checks)} checks passed"
        )
        return out


def curve_checks(report: CurveReport) -> List[CheckResult]:
    """The initial curve's contract checks, named curve_*, with bound 0."""
    return [
        CheckResult(name=f"curve_{c.name}", passed=c.passed, measured=c.worst, bound=0.0, detail=c.detail)
        for c in report.checks
    ]


def _sample_states(model: RateModel, t: float, n: int, rng) -> np.ndarray:
    return np.asarray(model.fam.sample_increment(t, rng, n), dtype=float)


def run_validation(
    model: RateModel, seed: int = 0, paths: int = 150_000
) -> ValidationReport:
    """Run the full invariant suite against one model.

    Deterministic given (model, seed, paths). Roughly: the initial curve's
    own contract, kernel mean against the curve, bond price identities and
    monotonicities, forward/short-rate consistency, risk-premium sign,
    critical-level residual, and analytic-versus-MC option pricing.
    """
    # the curve must honor its own contract before anything downstream
    checks = curve_checks(validate_term_structure(model.ts, model.quad.tail_epsilon))
    S = model.s_max
    t = min(1.0, 0.25 * S)
    T = min(t + 2.0, 0.5 * S)
    rng = spawn_stream(seed, 0)

    # E[kernel(t, t)] = P0(t) within Monte Carlo resolution
    xi = _sample_states(model, t, paths, rng)
    ev = model.evaluator(t)
    ev.prepare([float(xi.min()), float(np.median(xi)), float(xi.max())], [t])
    k_vals = np.exp(ev.log_integral_batch(xi, [t])[t])
    p0 = float(model.ts.discount_factor(t))
    se = float(k_vals.std(ddof=1) / math.sqrt(paths))
    gap = abs(float(k_vals.mean()) - p0)
    checks.append(
        CheckResult(
            name="kernel_mean_matches_curve",
            passed=gap <= 4.0 * se,
            measured=gap,
            bound=4.0 * se,
            detail=f"t={t}, {paths} draws",
        )
    )

    states = [ModelState(t=t, xi=float(x)) for x in xi[:20]]

    # P(t, t) = 1, exactly
    worst = max(abs(bond_price(model, st, t) - 1.0) for st in states)
    checks.append(
        CheckResult(name="bond_price_at_valuation_is_one", passed=worst == 0.0, measured=worst, bound=0.0)
    )

    # P(t, T) strictly decreasing in T
    grid = np.linspace(t, min(t + 8.0, 0.9 * S), 21)
    mono_ok = True
    worst_step = math.inf
    for st in states[:5]:
        ps = np.array([bond_price(model, st, float(Tk)) for Tk in grid])
        d = np.diff(ps)
        worst_step = min(worst_step, float(-d.max()))
        if np.any(d >= 0.0):
            mono_ok = False
    checks.append(
        CheckResult(
            name="bond_price_decreasing_in_maturity",
            passed=mono_ok,
            measured=worst_step,
            bound=0.0,
            detail="smallest decrement across maturities",
        )
    )

    # at t = 0 the model returns its input curve
    t0 = ModelState(t=0.0, xi=0.0)
    worst = max(
        abs(bond_price(model, t0, float(Tk)) - float(model.ts.discount_factor(Tk)))
        for Tk in np.linspace(0.5, min(10.0, 0.9 * S), 8)
    )
    checks.append(
        CheckResult(name="time_zero_matches_input_curve", passed=worst <= 1e-10, measured=worst, bound=1e-10)
    )

    # exp(-int_t^T f) reproduces the bond price
    st = states[0]
    fgrid = np.linspace(t, T, 101)
    fvals = np.array([forward_rate(model, st, float(u)) for u in fgrid])
    integral = float(np.trapezoid(fvals, fgrid))
    p_direct = bond_price(model, st, T)
    rel = abs(math.exp(-integral) - p_direct) / p_direct
    checks.append(
        CheckResult(
            name="forward_rates_integrate_to_bond_price",
            passed=rel <= 1e-5,
            measured=rel,
            bound=1e-5,
            detail="trapezoid on 101 points",
        )
    )

    # positive short rate everywhere we look
    try:
        r_min = min(short_rate(model, s) for s in states)
        checks.append(
            CheckResult(name="short_rate_positive", passed=r_min > 0.0, measured=r_min, bound=0.0)
        )
    except NumericalError as exc:
        checks.append(
            CheckResult(name="short_rate_positive", passed=False, measured=math.nan, bound=0.0, detail=str(exc))
        )

    # risk premium sign: positive for the monotone classes, zero for flat phi
    mono = model.phi.monotonicity
    if mono in ("positive-decreasing", "negative-increasing"):
        prem_min = min(risk_premium(model, s, T) for s in states)
        checks.append(
            CheckResult(name="risk_premium_positive", passed=prem_min > 0.0, measured=prem_min, bound=0.0)
        )
    elif mono == "constant":
        prem_max = max(abs(risk_premium(model, s, T)) for s in states)
        checks.append(
            CheckResult(name="risk_premium_vanishes", passed=prem_max <= 1e-12, measured=prem_max, bound=1e-12)
        )

    # phi average stays inside the range of phi
    lo_b, hi_b = model.phi.range_bounds(S)
    avg_vals = [phi_average(model, s) for s in states[:10]]
    inside = all(lo_b - 1e-12 <= v <= hi_b + 1e-12 for v in avg_vals)
    checks.append(
        CheckResult(
            name="phi_average_within_phi_range",
            passed=inside,
            measured=float(min(avg_vals)),
            bound=lo_b,
            detail=f"range [{lo_b:.4g}, {hi_b:.4g}]",
        )
    )

    # option pricing: critical level residual and agreement with MC
    K = float(model.ts.discount_factor(T)) / float(model.ts.discount_factor(t))
    spec = OptionSpec(expiry=t, maturity=T, strike=K)
    try:
        crit = solve_critical_level(model, spec)
        checks.append(
            CheckResult(
                name="critical_level_residual",
                passed=crit.residual <= 1e-12,
                measured=crit.residual,
                bound=1e-12,
                detail=f"xi*={crit.xi_star:.6g} at K={K:.6g}",
            )
        )
    except (StrikeOutOfRangeError, UnsupportedModelError) as exc:
        checks.append(
            CheckResult(
                name="critical_level_residual",
                passed=True,
                measured=0.0,
                bound=1e-12,
                detail=f"skipped: {exc}",
            )
        )

    try:
        analytic = price_call(model, spec).price
        mc, se = price_call_mc(model, spec, max(paths, 10_000), spawn_stream(seed, 1))
        gap = abs(analytic - mc)
        bound = max(4.0 * se, 1e-12)
        checks.append(
            CheckResult(
                name="analytic_option_matches_mc",
                passed=gap <= bound,
                measured=gap,
                bound=bound,
                detail=f"analytic={analytic:.8g} mc={mc:.8g} se={se:.2g}",
            )
        )
    except UnsupportedModelError as exc:
        checks.append(
            CheckResult(
                name="analytic_option_matches_mc",
                passed=True,
                measured=0.0,
                bound=0.0,
                detail=f"skipped: {exc}",
            )
        )

    # gamma drivers push rates down when phi increases, up when it decreases
    if isinstance(model.fam, GammaFamily) and mono in ("positive-decreasing", "negative-increasing"):
        bump = 0.5
        base_r = short_rate(model, states[0])
        bumped = short_rate(model, ModelState(t=states[0].t, xi=states[0].xi + bump))
        moved_down = bumped < base_r
        expect_down = mono == "negative-increasing"
        checks.append(
            CheckResult(
                name="gamma_jump_moves_short_rate",
                passed=moved_down == expect_down,
                measured=bumped - base_r,
                bound=0.0,
                detail="downward for increasing phi" if expect_down else "upward for decreasing phi",
            )
        )

    return ValidationReport(checks=tuple(checks))
