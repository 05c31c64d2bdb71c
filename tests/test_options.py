"""Critical levels, closed-form call prices, statuses, and the MC pricer."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levyrates as lr
from levyrates import DomainError, ModelState, OptionSpec, UnsupportedModelError
from levyrates.options import (
    _itm_weight_lower,
    bond_price_at,
    price_call,
    price_call_mc,
    solve_critical_level,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SPECS = {
    "gbm": OptionSpec(expiry=1.0, maturity=3.0, strike=0.96),
    "jd": OptionSpec(expiry=1.0, maturity=3.0, strike=0.96),
    "gamma": OptionSpec(expiry=1.0, maturity=3.0, strike=0.9608),
    "vg": OptionSpec(expiry=1.0, maturity=3.0, strike=0.96),
}


def test_option_spec_validation():
    with pytest.raises(DomainError):
        OptionSpec(expiry=-1.0, maturity=3.0, strike=0.9)
    with pytest.raises(DomainError):
        OptionSpec(expiry=2.0, maturity=1.0, strike=0.9)
    with pytest.raises(DomainError):
        OptionSpec(expiry=1.0, maturity=3.0, strike=0.0)
    with pytest.raises(DomainError):
        OptionSpec(expiry=1.0, maturity=3.0, strike=1.0)


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_critical_level_residual_and_bracket(name, all_figure_models):
    model = all_figure_models[name]
    spec = SPECS[name]
    crit = solve_critical_level(model, spec)
    assert crit.residual <= 1e-12
    a, b = crit.bracket
    assert a <= crit.xi_star <= b
    p = bond_price_at(model, spec.expiry, spec.maturity, crit.xi_star)
    assert abs(p - spec.strike) <= 1e-12


def test_orientation_sign_around_critical_level(gbm_model, gamma_model):
    # decreasing phi: bond price falls in xi, payoff region is below xi*
    spec = SPECS["gbm"]
    crit = solve_critical_level(gbm_model, spec)
    assert bond_price_at(gbm_model, 1.0, 3.0, crit.xi_star - 0.5) > spec.strike
    assert bond_price_at(gbm_model, 1.0, 3.0, crit.xi_star + 0.5) < spec.strike
    # increasing phi flips the orientation
    gspec = SPECS["gamma"]
    gcrit = solve_critical_level(gamma_model, gspec)
    assert bond_price_at(gamma_model, 1.0, 3.0, max(gcrit.xi_star - 0.5, 0.0)) < gspec.strike
    assert bond_price_at(gamma_model, 1.0, 3.0, gcrit.xi_star + 0.5) > gspec.strike


def test_critical_level_rejects_degenerate_expiries(gbm_model):
    with pytest.raises(DomainError):
        solve_critical_level(gbm_model, OptionSpec(expiry=0.0, maturity=3.0, strike=0.9))
    with pytest.raises(DomainError):
        solve_critical_level(gbm_model, OptionSpec(expiry=2.0, maturity=2.0, strike=0.9))


def _bisect_root(model, t, T, K, lo, hi):
    """xi with P(t, T, xi) = K by plain bisection on bond_price_at."""
    f_lo = bond_price_at(model, t, T, lo) - K
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if (bond_price_at(model, t, T, mid) - K) * f_lo > 0.0:
            lo = mid
        else:
            hi = mid


# a steep curve and a fast-decaying tilt keep the bond's slope in xi near
# 0.1, so rounding noise in P moves the root by far less than the 1e-13
# compared
_ORIENTED = [
    (name, c)
    for name in ("gbm", "jd", "gamma", "vg")
    for c in (1.0, -1.0)  # decreasing phi ("lower"), increasing phi ("upper")
]


def _oriented_model(name, c):
    fam = {
        "gbm": lr.BrownianFamily(),
        "jd": lr.JumpDiffusionFamily(lam=5.0, mu=0.0, delta=1.0),
        "gamma": lr.GammaFamily(m=1.0, kappa=0.5),
        "vg": lr.VarianceGammaFamily(mu=0.02, sigma=0.3, m=20.0),
    }[name]
    return lr.RateModel(ts=lr.FlatYieldCurve(y=0.2), fam=fam, phi=lr.ExpDecayPhi(c=c, b=0.5))


@pytest.mark.parametrize(
    "name, c, slope", [(name, c, True) for name, c in _ORIENTED] + [("jd", 1.0, False)]
)
def test_critical_level_matches_bisection(name, c, slope, monkeypatch):
    t, T, xi0 = 1.0, 3.0, 0.7
    K = bond_price_at(_oriented_model(name, c), t, T, xi0)
    oracle_model = _oriented_model(name, c)
    if not slope:  # a slope that is not finite leaves every step to bisection
        with_slope = lr.KernelEvaluator.log_bond_and_slope

        def no_slope(self, xi, T):
            return with_slope(self, xi, T)[0], math.nan

        monkeypatch.setattr(lr.KernelEvaluator, "log_bond_and_slope", no_slope)
    crit = solve_critical_level(_oriented_model(name, c), OptionSpec(expiry=t, maturity=T, strike=K))
    oracle = _bisect_root(oracle_model, t, T, K, *crit.bracket)
    assert crit.xi_star == pytest.approx(oracle, abs=1e-13)
    assert crit.iterations < 10 if slope else crit.iterations > 30


def test_critical_level_iteration_count():
    # fig1 model; the Newton count, pinned so that a silent fall-back to
    # bisection (40 steps or more) shows
    from levyrates.cli import load_config, model_from_config

    model = model_from_config(load_config(str(CONFIGS / "fig1_gbm.json")))
    crit = solve_critical_level(model, OptionSpec(expiry=1.0, maturity=30.0, strike=0.6))
    assert crit.residual <= 1e-12
    assert crit.iterations == 3


def test_import_leaves_scipy_optimize_out():
    code = "import sys, levyrates, levyrates.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(lr.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# -- in-the-money weights: unit-mass limits from E[M] = 1 ----------------------


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_itm_weight_saturates_at_extreme_critical_levels(name, all_figure_models):
    # G(s) = E[1{X_t < xi*} M_ts] must sweep from 0 to E[M_ts] = 1
    model = all_figure_models[name]
    opts = {"jd_series_tail": 1e-12, "jd_n_max": None, "vg_nodes": 64}
    s = np.array([2.0, 5.0, 9.0])
    hi = _itm_weight_lower(model, 1.0, 60.0, s, opts)
    assert np.all(np.abs(hi - 1.0) <= 1e-9)
    lo_level = 0.0 if name == "gamma" else -60.0
    lo = _itm_weight_lower(model, 1.0, lo_level, s, opts)
    assert np.all(np.abs(lo) <= 1e-9)
    mid_level = 1.0 if name == "gamma" else 0.3
    mid = _itm_weight_lower(model, 1.0, mid_level, s, opts)
    assert np.all((mid > 0.0) & (mid < 1.0))


def test_gamma_weight_zero_below_support(gamma_model):
    opts = {"jd_series_tail": 1e-12, "jd_n_max": None, "vg_nodes": 64}
    out = _itm_weight_lower(gamma_model, 1.0, -0.5, np.array([2.0, 4.0]), opts)
    assert np.all(out == 0.0)


# -- closed-form prices ---------------------------------------------------------


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_price_within_static_bounds(name, all_figure_models):
    model = all_figure_models[name]
    spec = SPECS[name]
    P0 = model.ts.discount_factor
    res = price_call(model, spec)
    assert res.status == "ok"
    intrinsic = max(P0(spec.maturity) - spec.strike * P0(spec.expiry), 0.0)
    assert intrinsic - 1e-12 <= res.price <= P0(spec.maturity)


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_price_decreasing_in_strike(name, all_figure_models):
    model = all_figure_models[name]
    strikes = (0.956, 0.9608, 0.972) if name == "gamma" else (0.92, 0.96, 0.985)
    prices = [
        price_call(model, OptionSpec(expiry=1.0, maturity=3.0, strike=k)).price for k in strikes
    ]
    assert prices[0] > prices[1] > prices[2] > 0.0


def test_degenerate_expiries(gbm_model):
    P0 = gbm_model.ts.discount_factor
    now = price_call(gbm_model, OptionSpec(expiry=0.0, maturity=3.0, strike=0.5))
    assert now.status == "degenerate"
    assert now.price == pytest.approx(P0(3.0) - 0.5, rel=1e-15)
    worthless = price_call(gbm_model, OptionSpec(expiry=0.0, maturity=3.0, strike=0.999))
    assert worthless.price == 0.0
    at_maturity = price_call(gbm_model, OptionSpec(expiry=2.0, maturity=2.0, strike=0.25))
    assert at_maturity.status == "degenerate"
    assert at_maturity.price == pytest.approx(P0(2.0) * 0.75, rel=1e-15)


def test_gamma_unattainable_strike_prices_the_bound(gamma_model):
    # the driver support edge caps how low the bond price can go; strikes
    # below that cap leave the call always exercised
    P0 = gamma_model.ts.discount_factor
    floor = bond_price_at(gamma_model, 1.0, 3.0, 0.0)
    k = floor - 0.005
    res = price_call(gamma_model, OptionSpec(expiry=1.0, maturity=3.0, strike=k))
    assert res.status == "always_itm"
    assert res.price == pytest.approx(P0(3.0) - k * P0(1.0), rel=1e-14)
    assert res.critical is None


def test_constant_phi_prices_intrinsic(flat2):
    model = lr.RateModel(ts=flat2, fam=lr.BrownianFamily(), phi=lr.ExpDecayPhi(c=0.5, b=0.0))
    P0 = flat2.discount_factor
    fwd = P0(3.0) / P0(1.0)
    itm = price_call(model, OptionSpec(expiry=1.0, maturity=3.0, strike=fwd - 0.01))
    assert itm.status == "always_itm"
    assert itm.price == pytest.approx(P0(3.0) - (fwd - 0.01) * P0(1.0), rel=1e-14)
    otm = price_call(model, OptionSpec(expiry=1.0, maturity=3.0, strike=fwd + 0.01))
    assert otm.status == "always_otm"
    assert otm.price == 0.0


def test_non_monotone_phi_needs_the_mc_pricer(flat2):
    model = lr.RateModel(
        ts=flat2, fam=lr.BrownianFamily(), phi=lr.GaussianBumpPhi(height=0.3, center=2.0, width=0.5)
    )
    spec = OptionSpec(expiry=1.0, maturity=3.0, strike=0.96)
    with pytest.raises(UnsupportedModelError):
        price_call(model, spec)
    price, se = price_call_mc(model, spec, paths=20_000, rng=lr.spawn_stream(3, 0))
    assert se > 0.0
    intrinsic = max(flat2.discount_factor(3.0) - 0.96 * flat2.discount_factor(1.0), 0.0)
    assert price >= intrinsic - 3.0 * se


# -- series/node controls --------------------------------------------------------


def test_jd_series_cutoff_override(jd5_model):
    spec = OptionSpec(expiry=1.0, maturity=3.0, strike=0.9)
    base = price_call(jd5_model, spec).price
    generous = price_call(jd5_model, spec, jd_n_max=400).price
    assert generous == pytest.approx(base, abs=1e-10)
    # a starved series must actually change the answer (the override is live)
    starved = price_call(jd5_model, spec, jd_n_max=1).price
    assert abs(starved - base) > 1e-4


def test_vg_node_override(vg_model):
    spec = OptionSpec(expiry=1.0, maturity=3.0, strike=0.96)
    p64 = price_call(vg_model, spec, vg_nodes=64).price
    p128 = price_call(vg_model, spec, vg_nodes=128).price
    assert p64 == pytest.approx(p128, abs=1e-10)


# -- Monte Carlo pricer -----------------------------------------------------------


def test_mc_agrees_with_closed_form(gbm_model):
    spec = SPECS["gbm"]
    analytic = price_call(gbm_model, spec).price
    mc, se = price_call_mc(gbm_model, spec, paths=200_000, rng=lr.spawn_stream(12, 0))
    assert abs(mc - analytic) <= 3.0 * se


def test_mc_time_zero_is_exact(gbm_model):
    price, se = price_call_mc(
        gbm_model, OptionSpec(expiry=0.0, maturity=3.0, strike=0.5), paths=1000, rng=lr.spawn_stream(0, 0)
    )
    assert se == 0.0
    assert price == pytest.approx(gbm_model.ts.discount_factor(3.0) - 0.5, rel=1e-15)


def test_mc_path_floor(gbm_model):
    with pytest.raises(DomainError):
        price_call_mc(gbm_model, SPECS["gbm"], paths=10, rng=lr.spawn_stream(0, 0))
