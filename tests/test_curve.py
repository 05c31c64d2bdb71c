"""Kernel quadrature, bond prices, rates, and risk diagnostics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levyrates as lr
from levyrates import DomainError, ModelState
from levyrates.curve import kernel_integral

STATES = [ModelState(t=1.0, xi=0.4), ModelState(t=1.0, xi=-0.8), ModelState(t=3.0, xi=1.5)]
GAMMA_STATES = [ModelState(t=1.0, xi=0.4), ModelState(t=1.0, xi=0.0), ModelState(t=3.0, xi=1.5)]


def _states_for(name):
    return GAMMA_STATES if name == "gamma" else STATES


# -- independent oracle: one fixed composite rule, no shared machinery ---------


def brute_kernel_integral(model, state, lower, n_panels=4000):
    """Composite Gauss-Legendre on a uniform grid over [lower, S_max].

    Written directly against the model's primitives (density, phi,
    exponent) so it shares no panelization or log-shift code with the
    evaluator it checks.
    """
    S = model.s_max
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(lower, S, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1] - edges[0])
    s = (mid + half * x[None, :]).ravel()
    phi_s = np.asarray(model.phi(s), dtype=float)
    log_m = phi_s * state.xi - state.t * np.asarray(model.fam.exponent(phi_s), dtype=float)
    vals = np.asarray(model.ts.density(s), dtype=float) * np.exp(log_m)
    return float(np.sum(vals.reshape(n_panels, 16) @ w) * half)


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_kernel_integral_matches_brute_force(name, all_figure_models):
    model = all_figure_models[name]
    for state in _states_for(name):
        for lower in (state.t, state.t + 4.0):
            got = kernel_integral(model, state, lower)
            ref = brute_kernel_integral(model, state, lower)
            assert got == pytest.approx(ref, rel=1e-9)


# -- structural bond-price properties ------------------------------------------


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_time_zero_recovers_initial_curve(name, all_figure_models):
    model = all_figure_models[name]
    state = ModelState(t=0.0, xi=0.0)
    for T in (0.5, 2.0, 5.0, 10.0, 20.0):
        assert abs(lr.bond_price(model, state, T) - model.ts.discount_factor(T)) <= 1e-12


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_bond_price_basics(name, all_figure_models):
    model = all_figure_models[name]
    for state in _states_for(name):
        assert lr.bond_price(model, state, state.t) == 1.0
        grid = np.linspace(state.t, state.t + 15.0, 31)
        prices = [lr.bond_price(model, state, float(T)) for T in grid]
        assert all(0.0 < p <= 1.0 for p in prices)
        assert all(a > b for a, b in zip(prices, prices[1:]))


def test_bond_price_edges(gbm_model):
    state = ModelState(t=1.0, xi=0.2)
    with pytest.raises(DomainError):
        lr.bond_price(gbm_model, state, 0.5)
    assert lr.bond_price(gbm_model, state, gbm_model.s_max + 1.0) == 0.0
    assert kernel_integral(gbm_model, state, gbm_model.s_max + 1.0) == 0.0
    with pytest.raises(DomainError):
        kernel_integral(gbm_model, state, 0.5)
    with pytest.raises(DomainError):
        gbm_model.evaluator(gbm_model.s_max + 1.0)


def test_constant_phi_prices_pin_to_initial_curve(flat2):
    # with constant phi the tilt cancels from every price ratio, so the
    # model must return the initial curve's forward bonds at any state
    model = lr.RateModel(ts=flat2, fam=lr.BrownianFamily(), phi=lr.ExpDecayPhi(c=0.5, b=0.0))
    P0 = flat2.discount_factor
    for state in (ModelState(t=1.0, xi=2.0), ModelState(t=2.5, xi=-3.0)):
        for T in (3.0, 5.0, 10.0):
            want = P0(T) / P0(state.t)
            assert abs(lr.bond_price(model, state, T) - want) <= 1e-12
    # and the risk diagnostics collapse
    state = ModelState(t=1.0, xi=2.0)
    assert lr.bond_volatility(model, state, 5.0) == pytest.approx(0.0, abs=1e-14)
    assert lr.risk_premium(model, state, 5.0) == pytest.approx(0.0, abs=1e-14)


def test_kernel_mean_recovers_initial_discount(gbm_model):
    # E over driver draws of the pricing kernel equals P0(t)
    t = 1.0
    n = 150_000
    rng = lr.spawn_stream(17, 0)
    xi = np.asarray(gbm_model.fam.sample_increment(t, rng, n), dtype=float)
    ev = gbm_model.evaluator(t)
    ev.prepare([float(xi.min()), float(np.median(xi)), float(xi.max())], [t])
    vals = np.exp(ev.log_integral_batch(xi, [t])[t])
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - gbm_model.ts.discount_factor(t)) <= 4.0 * se


# -- rates ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_short_rate_positive_and_equals_spot_forward(name, all_figure_models):
    model = all_figure_models[name]
    for state in _states_for(name):
        r = lr.short_rate(model, state)
        assert r > 0.0
        assert lr.forward_rate(model, state, state.t) == pytest.approx(r, rel=1e-13)


def test_forward_rate_integrates_to_bond_price(vg_model):
    state = ModelState(t=1.0, xi=0.6)
    T = 4.0
    grid = np.linspace(state.t, T, 401)
    f = np.array([lr.forward_rate(vg_model, state, float(u)) for u in grid])
    implied = math.exp(-np.trapezoid(f, grid))
    assert implied == pytest.approx(lr.bond_price(vg_model, state, T), rel=2e-5)


def test_forward_rate_edges(gbm_model):
    state = ModelState(t=1.0, xi=0.0)
    with pytest.raises(DomainError):
        lr.forward_rate(gbm_model, state, 0.5)
    with pytest.raises(DomainError):
        lr.forward_rate(gbm_model, state, gbm_model.s_max + 1.0)


# -- risk diagnostics -----------------------------------------------------------


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_phi_average_within_phi_range(name, all_figure_models):
    model = all_figure_models[name]
    for state in _states_for(name):
        for T in (state.t, state.t + 3.0):
            avg = lr.phi_average(model, state, T)
            lo, hi = model.phi.range_bounds(model.s_max)
            assert lo <= avg <= hi


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_risk_premium_positive_both_orientations(name, all_figure_models):
    # lambda and Omega individually change sign with the phi class; the
    # premium lambda * Omega must not
    model = all_figure_models[name]
    for state in _states_for(name):
        for T in (state.t + 1.0, state.t + 5.0):
            assert lr.risk_premium(model, state, T) > 0.0
            prod = lr.risk_aversion(model, state) * lr.bond_volatility(model, state, T)
            assert prod == pytest.approx(lr.risk_premium(model, state, T), rel=1e-12)


def test_bond_volatility_vanishes_at_expiry(jd_model):
    state = ModelState(t=2.0, xi=0.3)
    assert lr.bond_volatility(jd_model, state, 2.0) == 0.0


# -- evaluator internals ----------------------------------------------------------


def test_batch_matches_scalar_integrals(vg_model):
    t = 1.0
    xi = np.array([-2.0, -0.3, 0.0, 0.7, 2.4])
    lowers = [t, 3.0]
    ev = vg_model.evaluator(t)
    ev.prepare([float(xi.min()), 0.0, float(xi.max())], lowers)
    batch = ev.log_integral_batch(xi, lowers)
    for L in lowers:
        for i, x in enumerate(xi):
            assert batch[L][i] == pytest.approx(ev.log_integral(float(x), L), rel=1e-12)
    avg = ev.phi_average_batch(xi, lowers)
    for L in lowers:
        for i, x in enumerate(xi):
            assert avg[L][i] == pytest.approx(ev.weighted_ratio(float(x), L), rel=1e-10)


def test_refinement_is_stable_under_repetition(gbm_model):
    ev = gbm_model.evaluator(0.5)
    ev.refine(0.3, 0.5)
    first = ev.log_integral(0.3, 0.5)
    ev.refine(0.3, 0.5)
    ev.refine(0.3, 2.0)
    again = ev.log_integral(0.3, 0.5)
    assert again == pytest.approx(first, rel=1e-12)


def test_breakpoint_registration_idempotent(gbm_model):
    ev = gbm_model.evaluator(0.75)
    ev.ensure_breakpoint(2.5)
    n = len(ev._edges)
    ev.ensure_breakpoint(2.5)
    assert len(ev._edges) == n
    ev.ensure_breakpoint(ev.t)  # no-op at or below t
    ev.ensure_breakpoint(ev.S + 5.0)  # no-op beyond the horizon
    assert len(ev._edges) == n


@pytest.mark.parametrize("xi, warm, splits", [(0.3, True, False), (25.0, True, True), (0.3, False, True)])
def test_prepare_leaves_the_panels_of_refine(xi, warm, splits, flat2):
    # prepare checks every bound in one pass and refines only when one needs
    # it; either way the panels must be those of refine at t, then at T
    def evaluator():
        model = lr.RateModel(ts=flat2, fam=lr.BrownianFamily(), phi=lr.ExpDecayPhi(c=1.0, b=0.5))
        ev = model.evaluator(1.0)
        if warm:
            ev.refine(0.0, 1.0)
            ev.refine(0.0, 3.0)
        return ev

    prepared, refined = evaluator(), evaluator()
    before = prepared._edges
    prepared.prepare([xi], (1.0, 3.0))
    refined.refine(xi, 1.0)
    refined.refine(xi, 3.0)
    assert np.array_equal(prepared._edges, refined._edges)
    assert (prepared._edges is not before) == splits


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_bond_slope_is_the_bond_volatility(name, all_figure_models):
    model = all_figure_models[name]
    t, T, xi = 1.0, 3.0, 0.4
    ev = model.evaluator(t)
    ev.prepare([xi], (t, T))
    log_p, slope = ev.log_bond_and_slope(xi, T)
    # the same sums as the two log integrals of bond_price, bit for bit
    assert math.exp(log_p) == lr.bond_price(model, ModelState(t=t, xi=xi), T)
    assert slope == pytest.approx(lr.bond_volatility(model, ModelState(t=t, xi=xi), T), abs=1e-10)
    h = 1e-4
    up, down = (math.log(lr.bond_price(model, ModelState(t=t, xi=xi + d), T)) for d in (h, -h))
    assert slope == pytest.approx((up - down) / (2.0 * h), abs=1e-6)


@pytest.mark.parametrize("xi", [20.0, -20.0])
def test_split_path_matches_mpmath(xi):
    # a steep tilt at a tight tolerance makes refine bisect panels; the
    # oracle integrates the closed-form gbm integrand over the same
    # truncated range [2, S_max] with mpmath
    import mpmath

    y, c, b, t = 0.03, 5.0, 1.0, 1.0
    model = lr.RateModel(
        ts=lr.FlatYieldCurve(y=y),
        fam=lr.BrownianFamily(),
        phi=lr.ExpDecayPhi(c=c, b=b),
        quad=lr.QuadratureSettings(rel_tol=1e-13),
    )
    ev = model.evaluator(t)
    panels = len(ev._edges) - 1
    got = kernel_integral(model, ModelState(t=t, xi=xi), 2.0)
    assert len(ev._edges) - 1 > panels

    with mpmath.workdps(30):
        def f(s):
            phi = c * mpmath.exp(-b * s)
            return y * mpmath.exp(-y * s) * mpmath.exp(phi * xi - t * phi * phi / 2)

        S = mpmath.mpf(ev.S)
        ref = float(mpmath.quad(f, [2, 3, 5, 10, 20, 50, 100, 200, 400, S]))
    assert got == pytest.approx(ref, rel=1e-12)

    edges = ev._edges
    assert edges[0] == t and edges[-1] == ev.S
    assert np.all(np.diff(edges) > 0.0)


def test_refine_budget_error_names_the_state(flat2):
    # an unreachable tolerance on a tiny panel budget: the error must say
    # which valuation time and driver value failed
    model = lr.RateModel(
        ts=flat2,
        fam=lr.BrownianFamily(),
        phi=lr.ExpDecayPhi(c=0.3, b=0.02),
        quad=lr.QuadratureSettings(rel_tol=1e-15, max_subdivisions=5),
    )
    with pytest.raises(lr.QuadratureError, match=r"t=1\.0, lower=3\.0, xi=0\.2") as exc_info:
        model.evaluator(1.0).refine(0.2, 3.0)
    assert exc_info.value.panels >= 5
    assert exc_info.value.rel_err > 0.0


def test_evaluator_cache_is_bounded(flat2):
    model = lr.RateModel(ts=flat2, fam=lr.BrownianFamily(), phi=lr.ExpDecayPhi(c=0.3, b=0.02))
    for k in range(40):
        model.evaluator(0.25 + 0.05 * k)
    assert len(model._evaluators) <= 32


def test_quadrature_settings_validation():
    with pytest.raises(DomainError):
        lr.QuadratureSettings(rel_tol=0.0)
    with pytest.raises(DomainError):
        lr.QuadratureSettings(max_subdivisions=0)


def test_model_rejects_inadmissible_phi_range(flat2):
    # gamma exponent pole at 1/kappa = 2; phi starts at 3
    with pytest.raises(DomainError):
        lr.RateModel(ts=flat2, fam=lr.GammaFamily(m=1.0, kappa=0.5), phi=lr.ExpDecayPhi(c=3.0, b=0.02))


@given(
    xi=st.floats(min_value=-3.0, max_value=3.0),
    t=st.floats(min_value=0.1, max_value=4.0),
    dt=st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=30, deadline=None)
def test_bond_price_in_unit_interval(xi, t, dt, gbm_model):
    p = lr.bond_price(gbm_model, ModelState(t=t, xi=xi), t + dt)
    assert 0.0 < p < 1.0
