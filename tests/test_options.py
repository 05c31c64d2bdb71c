"""Critical levels, closed-form call prices, statuses, and the MC pricer."""

from __future__ import annotations

import copy
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import levyrates as lr
from levyrates import DomainError, ModelState, OptionSpec, UnsupportedModelError, bond_price
from levyrates import options
from levyrates.options import (
    _itm_weight,
    price_call,
    price_call_mc,
    solve_critical_level,
)
from levyrates.validation import run_validation
from oracles import bisect_root, call_price, gamma_log_cofactor, transition_log_density

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
    # a nan time used to reach price_call and fail there with IndexError;
    # an infinite maturity priced 0.0 as always_otm
    for expiry, maturity in [(math.nan, 3.0), (1.0, math.nan), (1.0, math.inf), (math.inf, math.inf)]:
        with pytest.raises(DomainError, match="finite"):
            OptionSpec(expiry=expiry, maturity=maturity, strike=0.9)


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_critical_level_residual_and_bracket(name, all_figure_models):
    model = all_figure_models[name]
    spec = SPECS[name]
    crit = solve_critical_level(model, spec)
    assert crit.residual <= 1e-12
    a, b = crit.bracket
    assert a <= crit.xi_star <= b
    p = bond_price(model, ModelState(t=spec.expiry, xi=crit.xi_star), spec.maturity)
    assert abs(p - spec.strike) <= 1e-12


def test_orientation_sign_around_critical_level(gbm_model, gamma_model):
    # decreasing phi: bond price falls in xi, payoff region is below xi*
    spec = SPECS["gbm"]
    crit = solve_critical_level(gbm_model, spec)
    assert bond_price(gbm_model, ModelState(t=1.0, xi=crit.xi_star - 0.5), 3.0) > spec.strike
    assert bond_price(gbm_model, ModelState(t=1.0, xi=crit.xi_star + 0.5), 3.0) < spec.strike
    # increasing phi flips the orientation
    gspec = SPECS["gamma"]
    gcrit = solve_critical_level(gamma_model, gspec)
    assert bond_price(gamma_model, ModelState(t=1.0, xi=max(gcrit.xi_star - 0.5, 0.0)), 3.0) < gspec.strike
    assert bond_price(gamma_model, ModelState(t=1.0, xi=gcrit.xi_star + 0.5), 3.0) > gspec.strike


def test_critical_level_rejects_degenerate_expiries(gbm_model):
    with pytest.raises(DomainError):
        solve_critical_level(gbm_model, OptionSpec(expiry=0.0, maturity=3.0, strike=0.9))
    with pytest.raises(DomainError):
        solve_critical_level(gbm_model, OptionSpec(expiry=2.0, maturity=2.0, strike=0.9))


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
    K = bond_price(_oriented_model(name, c), ModelState(t=t, xi=xi0), T)
    oracle_model = _oriented_model(name, c)
    if not slope:  # a slope that is not finite leaves every step to bisection
        with_slope = lr.curve.KernelEvaluator.log_bond_and_slope

        def no_slope(self, xi, T):
            return with_slope(self, xi, T)[0], math.nan

        monkeypatch.setattr(lr.curve.KernelEvaluator, "log_bond_and_slope", no_slope)
    crit = solve_critical_level(_oriented_model(name, c), OptionSpec(expiry=t, maturity=T, strike=K))
    oracle = bisect_root(oracle_model, t, T, K, *crit.bracket)
    assert crit.xi_star == pytest.approx(oracle, abs=1e-13)
    assert crit.iterations < 10 if slope else crit.iterations > 30


# -- the price against its defining expectation over the driver ---------------

_FIG_CONFIGS = {"gbm": "fig1_gbm.json", "jd": "fig2_jd.json", "gamma": "fig3_gamma.json", "vg": "fig4_vg.json"}


def _setting_model(name, setting, flip):
    """The figure model of `name` (fig1-fig4) or its `bench` model; with
    flip, the tilt's sign is reversed, which reverses the orientation."""
    from levyrates.cli import _BENCH_MODELS, load_config, model_from_config

    if setting == "fig":
        cfg = load_config(str(CONFIGS / _FIG_CONFIGS[name]))
    else:
        cfg = copy.deepcopy(_BENCH_MODELS[name])
    if flip:
        cfg["phi"]["c"] = -cfg["phi"]["c"]
    return model_from_config(cfg)


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
@pytest.mark.parametrize("setting", ["fig", "bench"])
@pytest.mark.parametrize("t", [0.5, 3.0])
def test_transition_density_matches_exponent(name, setting, t):
    # the oracle's densities come from the laws, not from psi: check
    # int p_t(x) e^{a x} dx = exp(t psi(a)), a = 0 being unit mass
    fam = _setting_model(name, setting, False).fam
    for a in (-1.0, 0.0, 0.5):
        def f(x):
            return math.exp(transition_log_density(fam, t, x) + a * x)

        if name == "gamma":  # x^(m t - 1) near 0 as quad's algebraic weight
            def g(x):
                return math.exp(gamma_log_cofactor(fam, t, x) + a * x)

            wvar = (fam.m * t - 1.0, 0.0)
            got = quad(g, 0.0, 1.0, weight="alg", wvar=wvar, epsabs=0.0, epsrel=1e-12)[0]
            got += quad(f, 1.0, np.inf, epsabs=0.0, epsrel=1e-12)[0]
        else:
            got = quad(f, -np.inf, np.inf, epsabs=0.0, epsrel=1e-12)[0]
        assert got == pytest.approx(math.exp(t * fam.exponent(a)), rel=1e-10)


# 1.02 x forward is deep out of the money: the in-the-money weight G is
# then small, and computing it as 1 minus the other side's weight would
# lose about |log10 G| digits (at fig2 jd with the tilt flipped, t = 0.5,
# K = 1.01 x forward, that was 4.0e-11 off the oracle)
@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
@pytest.mark.parametrize("setting", ["fig", "bench"])
@pytest.mark.parametrize("flip", [False, True], ids=["tilt", "flipped"])
def test_price_matches_transition_density_oracle(name, setting, flip):
    model, oracle_model = _setting_model(name, setting, flip), _setting_model(name, setting, flip)
    checked = 0
    for t in (0.5, 1.5, 3.0):
        T = t + 2.0
        forward = model.ts.forward_price(t, T)
        for factor in (0.995, 1.0, 1.01, 1.02):
            K = factor * forward
            res = price_call(model, OptionSpec(expiry=t, maturity=T, strike=K))
            if res.status != "ok":
                continue
            want = call_price(oracle_model, t, T, K)
            assert res.price == pytest.approx(want, rel=1e-11, abs=0.0), (t, factor)
            checked += 1
    assert checked >= 8


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


def test_mc_price_leaves_scipy_linalg_out():
    # the batch kernel builds its Gauss-Jacobi rule with numpy alone;
    # scipy.linalg would add about 6 MB of resident libraries to a run
    code = (
        "import sys, numpy as np, levyrates as lr; "
        "m = lr.RateModel(ts=lr.FlatYieldCurve(y=0.03), fam=lr.BrownianFamily(), "
        "phi=lr.ExpDecayPhi(c=1.0, b=0.02)); "
        "lr.price_call_mc(m, lr.OptionSpec(1.0, 3.0, 0.95), 1000, np.random.default_rng(0)); "
        "print('scipy.linalg' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lr.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# -- in-the-money weights: unit-mass limits from E[M] = 1 ----------------------


def _side_weights(model, xi_star, s, monkeypatch):
    """(E[1{X_t < xi*} M_ts], E[1{X_t > xi*} M_ts]) at t = 1 from
    _itm_weight, with the payoff side forced each way."""
    out = []
    for side in ("lower", "upper"):
        monkeypatch.setattr(options, "_orientation", lambda model, side=side: side)
        out.append(_itm_weight(model, 1.0, xi_star, s, None))
    monkeypatch.undo()
    return out


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_itm_weight_saturates_at_extreme_critical_levels(name, all_figure_models, monkeypatch):
    # the weight below xi* must sweep from 0 to E[M_ts] = 1; the weight
    # above is each family's own tail, and the two add up to 1
    model = all_figure_models[name]
    s = np.array([2.0, 5.0, 9.0])
    lo_level, mid_level = (0.0, 1.0) if name == "gamma" else (-60.0, 0.3)
    for level, want in ((60.0, 1.0), (lo_level, 0.0), (mid_level, None)):
        below, above = _side_weights(model, level, s, monkeypatch)
        assert np.all(np.abs(below + above - 1.0) <= 1e-12)
        if want is None:
            assert np.all((below > 0.0) & (below < 1.0))
        else:
            assert np.all(np.abs(below - want) <= 1e-9)


def test_gamma_weight_zero_below_support(gamma_model, monkeypatch):
    below, above = _side_weights(gamma_model, -0.5, np.array([2.0, 4.0]), monkeypatch)
    assert np.all(below == 0.0) and np.all(above == 1.0)


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


_PACKAGE_ERRORS = (lr.DomainError, lr.ConfigError, lr.NumericalError, lr.UnsupportedModelError)


@st.composite
def _pipeline_cases(draw):
    """(model, expiry, maturity, three sorted strikes): admissible family
    parameters, a flat yield y, a tilt c exp(-b s) whose c lies inside the
    family's exponent domain on the side of the drawn orientation, and
    strikes around the forward price."""
    unit = st.floats(0.0, 1.0)
    name = draw(st.sampled_from(["gbm", "jd", "gamma", "vg"]))
    if name == "gbm":
        fam = lr.BrownianFamily()
    elif name == "jd":
        fam = lr.JumpDiffusionFamily(
            lam=draw(st.floats(0.5, 20.0)), mu=draw(st.floats(-0.1, 0.1)), delta=draw(st.floats(0.02, 0.5))
        )
    elif name == "gamma":
        fam = lr.GammaFamily(m=draw(st.floats(0.5, 5.0)), kappa=draw(st.floats(0.1, 1.0)))
    else:
        fam = lr.VarianceGammaFamily(
            mu=draw(st.floats(-0.3, 0.3)), sigma=draw(st.floats(0.1, 0.5)), m=draw(st.floats(1.0, 20.0))
        )
    sign = draw(st.sampled_from([1.0, -1.0]))  # decreasing phi ("lower") or increasing ("upper")
    edge = min(abs(fam.exponent_domain()[sign > 0]), 1.5)
    c = sign * edge * (0.05 + 0.85 * draw(unit))
    y, b = draw(st.floats(0.01, 0.08)), draw(st.floats(0.01, 0.5))
    model = lr.RateModel(ts=lr.FlatYieldCurve(y=y), fam=fam, phi=lr.ExpDecayPhi(c=c, b=b))
    t = draw(st.floats(0.25, 3.0))
    T = t + draw(st.floats(0.25, 5.0))
    forward = model.ts.forward_price(t, T)
    strikes = sorted(min(forward * (0.95 + 0.1 * draw(unit)), 0.999) for _ in range(3))
    return model, t, T, strikes


@given(_pipeline_cases())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_pipeline_prices_within_bounds_and_decreasing_in_strike(case):
    # the whole pipeline, from drawn parameters to closed-form prices: each
    # price within the static bounds, none rising in the strike, and any
    # failure one of the package's own errors
    model, t, T, strikes = case
    P0t, P0T = (float(model.ts.discount_factor(s)) for s in (t, T))
    prices = []
    for K in strikes:
        try:
            price = price_call(model, OptionSpec(expiry=t, maturity=T, strike=K)).price
        except _PACKAGE_ERRORS:
            continue
        slack = 1e-9 * P0T
        assert max(P0T - K * P0t, 0.0) - slack <= price <= P0T + slack, (K, price)
        prices.append(price)
    assert all(b <= a + 1e-9 * P0T for a, b in zip(prices, prices[1:])), prices


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
    floor = bond_price(gamma_model, ModelState(t=1.0, xi=0.0), 3.0)
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


def test_price_call_takes_no_other_keyword(vg_model):
    # the VG rule and the JD series tail are fixed; only jd_n_max is settable
    spec = OptionSpec(expiry=1.0, maturity=3.0, strike=0.96)
    for kwargs in ({"vg_nodes": 64}, {"jd_series_tail": 1e-12}):
        with pytest.raises(TypeError):
            price_call(vg_model, spec, **kwargs)


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


@pytest.mark.parametrize("paths", [5000.0, 1000.5, float("nan"), "5000", True])
def test_mc_path_count_must_be_an_integer(gbm_model, paths):
    with pytest.raises(DomainError, match="path count must be an integer"):
        price_call_mc(gbm_model, SPECS["gbm"], paths=paths, rng=lr.spawn_stream(0, 0))


def test_mc_takes_a_numpy_integer_path_count(gbm_model):
    got = price_call_mc(gbm_model, SPECS["gbm"], paths=np.int64(2000), rng=lr.spawn_stream(0, 0))
    assert got == price_call_mc(gbm_model, SPECS["gbm"], paths=2000, rng=lr.spawn_stream(0, 0))


def test_mc_needs_a_numpy_generator(gbm_model):
    # a None rng raised "'NoneType' object has no attribute 'normal'"
    with pytest.raises(DomainError, match="rng must be a numpy.random.Generator"):
        price_call_mc(gbm_model, SPECS["gbm"], 1000, None)


def test_validation_refuses_a_negative_seed(gbm_model):
    # numpy's bare ValueError came out of the stream's SeedSequence
    with pytest.raises(DomainError, match="stream seed must be a nonnegative integer"):
        run_validation(gbm_model, seed=-1, paths=1000)


@pytest.mark.parametrize(
    "paths, message",
    [
        (0, "need at least 1000 paths"),
        (1, "need at least 1000 paths"),
        (999, "need at least 1000 paths"),
        (2.5, "path count must be an integer"),
        (True, "path count must be an integer"),
        ("5000", "path count must be an integer"),
    ],
)
def test_validation_path_count_has_the_mc_contract(gbm_model, paths, message):
    # run_validation refuses what price_call_mc refuses, before any draw
    # and with no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            run_validation(gbm_model, paths=paths)
