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
    DomainError,
    NumericalError,
    StrikeOutOfRangeError,
    UnsupportedModelError,
)
from .levy import GammaFamily, spawn_stream
from .martingales import ModelState
from .options import MC_PATHS, OptionSpec, _check_path_count, price_call, price_call_mc, solve_critical_level
from .quadrature import adaptive_integrate
from .termstructure import TAIL_EPSILON, FlatYieldCurve


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


def _check(checks: List[CheckResult], name: str, passed, measured, bound, detail: str = "") -> None:
    """Record one check: a measured discrepancy judged against its bound."""
    checks.append(CheckResult(name, bool(passed), float(measured), float(bound), detail))


def validate_term_structure(ts: FlatYieldCurve) -> ValidationReport:
    """The initial curve's contract, as checks named curve_*.

    On a logarithmic grid out to the horizon: P0(0) = 1, strict
    decrease, decay to TAIL_EPSILON, positive density, unit total rho-mass,
    and agreement of rho with a central difference of P0 to 1e-6
    relative. Failures are reported, not raised.
    """
    checks: List[CheckResult] = []
    try:
        S = ts.truncation_horizon(TAIL_EPSILON)
        has_horizon = True
    except DomainError:
        S = 100.0  # fallback grid for curves that never decay
        has_horizon = False
    grid = np.concatenate([[0.0], np.geomspace(1e-6, S, 200)])
    P = np.asarray(ts.discount_factor(grid), dtype=float)
    rho = np.asarray(ts.density(grid), dtype=float)

    _check(checks, "curve_unit_at_zero", abs(P[0] - 1.0) < 1e-12, P[0] - 1.0, 1e-12)

    dP = np.diff(P)
    _check(checks, "curve_strictly_decreasing", np.all(dP < 0.0), dP.max() if dP.size else 0.0, 0.0)

    floor = TAIL_EPSILON * P[0] * (1.0 + 1e-9)
    _check(checks, "curve_decays_to_zero", has_horizon and P[-1] <= floor, P[-1], floor)

    _check(checks, "curve_density_positive", np.all(rho > 0.0), rho.min(), 0.0)

    if has_horizon and np.all(rho > 0.0):
        # total mass: integral of rho over [0, S] must equal P0(0) - P0(S)
        mass, _err = adaptive_integrate(
            lambda s: np.asarray(ts.density(s), dtype=float), 0.0, S, rel_tol=1e-12
        )
        mass_defect = mass + float(P[-1]) - 1.0
        _check(checks, "curve_unit_mass", abs(mass_defect) < 1e-10, mass_defect, 1e-10)

    # rho vs central finite difference of P0, relative 1e-6
    h = 1e-6 * np.maximum(grid[1:], 1.0)
    mid = grid[1:]
    fd = (np.asarray(ts.discount_factor(mid - h)) - np.asarray(ts.discount_factor(mid + h))) / (2.0 * h)
    denom = np.maximum(np.abs(rho[1:]), 1e-300)
    worst_fd = float((np.abs(fd - rho[1:]) / denom).max())
    _check(checks, "curve_density_matches_slope", worst_fd < 1e-6, worst_fd, 1e-6)

    return ValidationReport(tuple(checks))


def run_validation(model: RateModel, seed: int = 0, paths: int = MC_PATHS) -> ValidationReport:
    """Run the full invariant suite against one model.

    Deterministic given (model, seed, paths). Roughly: the initial curve's
    own contract, kernel mean against the curve, bond price identities and
    monotonicities, forward/short-rate consistency, risk-premium sign,
    critical-level residual, and analytic-versus-MC option pricing.
    """
    _check_path_count(paths)
    # the curve must honor its own contract before anything downstream
    checks = list(validate_term_structure(model.ts).checks)
    S = model.s_max
    t = min(1.0, 0.25 * S)
    T = min(t + 2.0, 0.5 * S)
    rng = spawn_stream(seed, 0)

    # E[kernel(t, t)] = P0(t) within Monte Carlo resolution
    xi = np.asarray(model.fam.sample_increment(t, rng, paths), dtype=float)
    k_vals = np.exp(model.evaluator(t).log_integral_batch(xi, [t])[t])
    p0 = float(model.ts.discount_factor(t))
    se = float(k_vals.std(ddof=1) / math.sqrt(paths))
    gap = abs(float(k_vals.mean()) - p0)
    _check(checks, "kernel_mean_matches_curve", gap <= 4.0 * se, gap, 4.0 * se, f"t={t}, {paths} draws")

    states = [ModelState(t=t, xi=float(x)) for x in xi[:20]]

    # P(t, t) = 1, exactly
    worst = max(abs(bond_price(model, st, t) - 1.0) for st in states)
    _check(checks, "bond_price_at_valuation_is_one", worst == 0.0, worst, 0.0)

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
    _check(
        checks, "bond_price_decreasing_in_maturity", mono_ok, worst_step, 0.0,
        "smallest decrement across maturities",
    )

    # at t = 0 the model returns its input curve
    t0 = ModelState(t=0.0, xi=0.0)
    worst = max(
        abs(bond_price(model, t0, float(Tk)) - float(model.ts.discount_factor(Tk)))
        for Tk in np.linspace(0.5, min(10.0, 0.9 * S), 8)
    )
    _check(checks, "time_zero_matches_input_curve", worst <= 1e-10, worst, 1e-10)

    # exp(-int_t^T f) reproduces the bond price
    st = states[0]
    fgrid = np.linspace(t, T, 101)
    fvals = np.array([forward_rate(model, st, float(u)) for u in fgrid])
    integral = float(np.trapezoid(fvals, fgrid))
    p_direct = bond_price(model, st, T)
    rel = abs(math.exp(-integral) - p_direct) / p_direct
    _check(checks, "forward_rates_integrate_to_bond_price", rel <= 1e-5, rel, 1e-5, "trapezoid on 101 points")

    # positive short rate everywhere we look
    try:
        r_min = min(short_rate(model, s) for s in states)
        _check(checks, "short_rate_positive", r_min > 0.0, r_min, 0.0)
    except NumericalError as exc:
        _check(checks, "short_rate_positive", False, math.nan, 0.0, str(exc))

    # risk premium sign: positive for the monotone classes, zero for flat phi
    mono = model.phi.monotonicity
    if mono in ("positive-decreasing", "negative-increasing"):
        prem_min = min(risk_premium(model, s, T) for s in states)
        _check(checks, "risk_premium_positive", prem_min > 0.0, prem_min, 0.0)
    elif mono == "constant":
        prem_max = max(abs(risk_premium(model, s, T)) for s in states)
        _check(checks, "risk_premium_vanishes", prem_max <= 1e-12, prem_max, 1e-12)

    # phi average stays inside the range of phi
    lo_b, hi_b = model.phi.range_bounds(S)
    avg_vals = [phi_average(model, s) for s in states[:10]]
    inside = all(lo_b - 1e-12 <= v <= hi_b + 1e-12 for v in avg_vals)
    _check(
        checks, "phi_average_within_phi_range", inside, min(avg_vals), lo_b,
        f"range [{lo_b:.4g}, {hi_b:.4g}]",
    )

    # option pricing: critical level residual and agreement with MC
    K = model.ts.forward_price(t, T)
    spec = OptionSpec(expiry=t, maturity=T, strike=K)
    try:
        crit = solve_critical_level(model, spec)
        _check(
            checks, "critical_level_residual", crit.residual <= 1e-12, crit.residual, 1e-12,
            f"xi*={crit.xi_star:.6g} at K={K:.6g}",
        )
    except (StrikeOutOfRangeError, UnsupportedModelError) as exc:
        _check(checks, "critical_level_residual", True, 0.0, 1e-12, f"skipped: {exc}")

    try:
        analytic = price_call(model, spec).price
        mc, se = price_call_mc(model, spec, max(paths, 10_000), spawn_stream(seed, 1))
        gap = abs(analytic - mc)
        bound = max(4.0 * se, 1e-12)
        _check(
            checks, "analytic_option_matches_mc", gap <= bound, gap, bound,
            f"analytic={analytic:.8g} mc={mc:.8g} se={se:.2g}",
        )
    except UnsupportedModelError as exc:
        _check(checks, "analytic_option_matches_mc", True, 0.0, 0.0, f"skipped: {exc}")

    # gamma drivers push rates down when phi increases, up when it decreases
    if isinstance(model.fam, GammaFamily) and mono in ("positive-decreasing", "negative-increasing"):
        base_r = short_rate(model, states[0])
        bumped = short_rate(model, ModelState(t=states[0].t, xi=states[0].xi + 0.5))
        expect_down = mono == "negative-increasing"
        _check(
            checks, "gamma_jump_moves_short_rate", (bumped < base_r) == expect_down, bumped - base_r, 0.0,
            "downward for increasing phi" if expect_down else "upward for decreasing phi",
        )

    return ValidationReport(tuple(checks))
