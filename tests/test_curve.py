"""Kernel quadrature, bond prices, rates, and risk diagnostics."""

from __future__ import annotations

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levyrates as lr
from levyrates import DomainError, ModelState
from levyrates.curve import _RULE_NODES, _block_rows, _envelope, kernel_integral
from levyrates.quadrature import MAX_PANELS, jacobi_rule

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


@pytest.mark.parametrize(
    "quantity", [lr.bond_price, lr.forward_rate, lr.phi_average, kernel_integral]
)
def test_nan_maturity_raises_domain_error(quantity, gbm_model):
    # nan passed every comparison with the valuation time and reached the
    # panel lookup, which raised a bare IndexError
    with pytest.raises(DomainError):
        quantity(gbm_model, ModelState(t=1.0, xi=0.2), math.nan)


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_huge_driver_values_raise_package_errors(name, all_figure_models):
    # a split panel's exponents can top the pass's shift by more than exp
    # takes; a caller sees a value or the package's own error, never a
    # numpy overflow warning or a bare OverflowError
    m = all_figure_models[name]
    model = lr.RateModel(ts=m.ts, fam=m.fam, phi=m.phi)  # fresh panels: the shared fixtures' stay as they are
    for xi in (1e12, 1e15, 1e300, -1e300):
        state = ModelState(t=1.0, xi=xi)
        for quantity in (lambda: lr.bond_price(model, state, 3.0), lambda: lr.short_rate(model, state)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    value = quantity()
                except (DomainError, lr.NumericalError):
                    continue
            assert 0.0 <= value < math.inf, (xi, value)


def test_overflowing_forward_rate_raises_numerical_error(gbm_model, monkeypatch):
    # a kernel integral far below the integrand at T puts exp past the
    # largest float, where math.exp raises a bare OverflowError
    monkeypatch.setattr(lr.curve.KernelEvaluator, "log_integral", lambda self, xi, lower=None: -1e4)
    with pytest.raises(lr.NumericalError, match="forward rate came out inf"):
        lr.forward_rate(gbm_model, ModelState(t=1.0, xi=0.2), 3.0)


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
    for probe in (float(xi.min()), 0.0, float(xi.max())):
        ev.refine(probe, *lowers)
    batch = ev.log_integral_batch(xi, lowers)
    for L in lowers:
        for i, x in enumerate(xi):
            assert batch[L][i] == pytest.approx(ev.log_integral(float(x), L), rel=1e-12)
    avg = ev.phi_average_batch(xi, lowers)
    for L in lowers:
        for i, x in enumerate(xi):
            assert avg[L][i] == pytest.approx(mp_phi_average(vg_model, t, float(x), L), rel=1e-12)


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_batch_across_block_boundaries(name, all_figure_models):
    # two full blocks of the batch rule and a partial one: every block must
    # give each draw what the rule's one-draw pass gives it, in both modes;
    # the panel pass (several blocks here) must match its own one-draw pass
    model = all_figure_models[name]
    t, lowers = 1.0, [1.0, 4.0]
    ev = model.evaluator(t)
    rows = _block_rows(_RULE_NODES * (len(lowers) + 1))
    draws = model.fam.sample_increment(t, np.random.default_rng(11), size=2 * rows + 7)
    for probe in (float(draws.min()), float(np.median(draws)), float(draws.max())):
        ev.refine(probe, *lowers)
    xi = draws[: 2 * rows + 7]
    assert xi.size == 2 * rows + 7
    data_log = ev._rule_nodes(xi, lowers, False)[0]
    data_avg = ev._rule_nodes(xi, lowers, True)[0]
    logs = ev.log_integral_batch(xi, lowers)
    pairs = ev._integrals(xi, lowers, True)
    avgs = ev.phi_average_batch(xi, lowers)
    one_log = np.hstack([ev._rule_integrals(np.array([x]), data_log, False)[0] for x in xi])
    one_avg = np.hstack([ev._rule_integrals(np.array([x]), data_avg, True)[1] for x in xi])
    for j, L in enumerate(lowers):
        scalar_log = np.array([ev.log_integral(float(x), L) for x in xi])
        panel_avg = ev._integrals(xi, [L], True)[L][1]
        assert np.max(np.abs(logs[L] - one_log[j])) <= 1e-15
        np.testing.assert_allclose(avgs[L], one_avg[j], rtol=1e-13, atol=0.0)
        assert np.max(np.abs(logs[L] - scalar_log)) <= 1e-13
        np.testing.assert_allclose(avgs[L], panel_avg, rtol=1e-12, atol=0.0)
        assert np.max(np.abs(pairs[L][0] - scalar_log)) <= 1e-15
        np.testing.assert_allclose(pairs[L][1], panel_avg, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_one_draw_batch_returns_its_probe_values(name, all_figure_models):
    # a one-draw batch returns what its rule check computed at its probes
    # (the draw three times); those are the bits of a one-draw pass
    model = all_figure_models[name]
    t, lowers = 1.0, [1.0, 4.0]
    ev = model.evaluator(t)
    for x in model.fam.sample_increment(t, np.random.default_rng(13), size=5):
        one = np.array([x])
        for avg in (False, True):
            logs, avgs = ev._rule_integrals(one, ev._rule_nodes(one, lowers, avg)[0], avg)
            want = avgs if avg else logs
            got = ev._batch(one, lowers, avg)
            for j, L in enumerate(lowers):
                assert got[L].tolist() == want[j].tolist()


def one_shot_rule_integrals(ev, xi, bounds, n):
    """log K and phi averages on the n-point rule, written out in one
    shot: log(W @ exp(phi x + base - max)) + max over all draws at once,
    with no blocks, no padding and no fused product."""
    phi, base, W = ev._rule_data(bounds, n)
    E = np.multiply.outer(phi, xi) + base[:, None]
    shift = E.max(axis=0)
    P = np.exp(E - shift)
    V = W @ P
    return np.log(V) + shift, ((W * phi) @ P) / V


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_rule_integrals_match_a_one_shot_formula(name, all_figure_models):
    # the blocked kernel fills each block with one product and pads the
    # last block with zero draws; none of that may move a value off the
    # formula it computes, in either mode
    model = all_figure_models[name]
    t, lowers = 1.0, [1.0, 4.0]
    ev = model.evaluator(t)
    rows = _block_rows(_RULE_NODES * (len(lowers) + 1))
    xi = model.fam.sample_increment(t, np.random.default_rng(17), size=2 * rows + 7)
    ref_log, ref_avg = one_shot_rule_integrals(ev, xi, lowers, _RULE_NODES)
    data = ev._rule_data(lowers, _RULE_NODES)
    logs, none = ev._rule_integrals(xi, data, False, (xi.min(), xi.max()))
    pair_log, pair_avg = ev._rule_integrals(xi, data, True, (xi.min(), xi.max()))
    assert none is None
    assert np.max(np.abs(logs - ref_log)) <= 1e-15
    assert np.max(np.abs(pair_log - ref_log)) <= 1e-15
    np.testing.assert_allclose(pair_avg, ref_avg, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg", "bump", "constant"])
def test_envelope_shift_is_the_exact_max(name, all_figure_models, flat2):
    # the shift the envelope table gives each draw is the largest exponent
    # phi_i x + base_i, bit for bit; with a few extreme draws the table
    # may refuse (cells too wide), but whatever it gives is still exact
    bump = lr.GaussianBumpPhi(height=0.3, center=2.0, width=0.5)
    tilts = {"bump": bump, "constant": lr.ExpDecayPhi(c=0.3, b=0.0)}
    model = all_figure_models.get(name) or lr.RateModel(ts=flat2, fam=lr.BrownianFamily(), phi=tilts[name])
    far = [0.0, 1e4] if name == "gamma" else [-200.0, 200.0]
    for t in (0.3, 1.0, 2.5):
        ev = model.evaluator(t)
        draws = model.fam.sample_increment(t, np.random.default_rng(31), size=20_011)
        for xs in (draws, np.concatenate([draws, far])):
            for n in (12, 24, 48):
                phi, base, _ = ev._rule_data([t, t + 2.0], n)
                want = (np.multiply.outer(phi, xs) + base[:, None]).max(axis=0)
                minus_shift = _envelope(phi, base, xs.min(), xs.max())
                if xs is draws:
                    assert minus_shift is not None, (t, n)
                if minus_shift is not None:
                    np.testing.assert_array_equal(-minus_shift(xs, np.empty_like(xs)), want)


def test_rule_integrals_with_a_refused_table_match_a_one_shot_formula(gbm_model):
    # two extreme draws widen the grid until the table refuses it; the
    # call then subtracts each block's own max, still the formula's values
    t, lowers = 1.0, [1.0, 4.0]
    ev = gbm_model.evaluator(t)
    rows = _block_rows(_RULE_NODES * (len(lowers) + 1))
    draws = gbm_model.fam.sample_increment(t, np.random.default_rng(37), size=2 * rows + 5)
    xi = np.concatenate([draws, [-200.0, 200.0]])
    data = ev._rule_data(lowers, _RULE_NODES)
    assert _envelope(data[0], data[1], xi.min(), xi.max()) is None
    ref_log, ref_avg = one_shot_rule_integrals(ev, xi, lowers, _RULE_NODES)
    logs, avgs = ev._rule_integrals(xi, data, True, (xi.min(), xi.max()))
    assert np.max(np.abs(logs - ref_log)) <= 1e-15
    np.testing.assert_allclose(avgs, ref_avg, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize(
    "name, bad, message",
    [
        ("gbm", np.nan, "must be finite"),
        ("vg", np.inf, "must be finite"),
        ("jd", -np.inf, "must be finite"),
        ("gamma", -0.5, "gamma driver state must be nonnegative"),
    ],
)
def test_batch_refuses_draws_the_scalar_path_refuses(name, bad, message, all_figure_models):
    # a draw outside the driver's domain raises DomainError from both batch
    # entry points, with no numpy warning on the way
    model = all_figure_models[name]
    ev = model.evaluator(1.0)
    xi = np.array([0.2, bad, 0.4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry in (ev.log_integral_batch, ev.phi_average_batch):
            with pytest.raises(DomainError, match=message):
                entry(xi, [1.0, 3.0])
    if name == "gamma":
        with pytest.raises(DomainError, match=message):
            kernel_integral(model, ModelState(t=1.0, xi=bad))


@pytest.mark.parametrize("shape", [(3, 7), (1, 4), (0, 3)])
def test_batch_refuses_draws_of_more_than_one_dimension(shape, gbm_model):
    # a 2-D array of draws raises DomainError from both batch entry points,
    # not a broadcast error from inside the kernel; a 0-D draw is one draw
    ev = gbm_model.evaluator(1.0)
    xi = np.full(shape, 0.3)
    for entry in (ev.log_integral_batch, ev.phi_average_batch):
        with pytest.raises(DomainError, match=r"scalar or a 1-D array, got shape"):
            entry(xi, [1.0, 3.0])
        assert entry(np.float64(0.3), [1.0, 3.0])[3.0].tolist() == entry(np.array([0.3]), [1.0, 3.0])[3.0].tolist()


# -- batch rule against an mpmath oracle ----------------------------------------


def _mp_phi(phi, s):
    import mpmath

    if isinstance(phi, lr.ExpDecayPhi):
        return phi.c * mpmath.exp(-phi.b * s)
    return phi.height * mpmath.exp(-phi.width * (s - phi.center) ** 2)


def _mp_psi(fam, a):
    """The family's Laplace exponent, from its closed form, in mpmath."""
    import mpmath

    if isinstance(fam, lr.BrownianFamily):
        return a * a / 2
    if isinstance(fam, lr.JumpDiffusionFamily):
        return a * a / 2 + fam.lam * (mpmath.exp(a * fam.mu + a * a * fam.delta**2 / 2) - 1)
    if isinstance(fam, lr.GammaFamily):
        return -fam.m * mpmath.log(1 - fam.kappa * a)
    return -fam.m * mpmath.log(1 - (fam.mu / fam.m) * a - fam.sigma**2 / (2 * fam.m) * a * a)


def _mp_kernel(model, t, xi, lower, power, method="tanh-sinh"):
    """int_lower^S_max phi_s^power rho_s M(t, s, xi) ds by mpmath.quad, on
    the flat curve, written against the closed forms only; call it inside
    mpmath.workdps."""
    import mpmath

    y, S = mpmath.mpf(model.ts.y), mpmath.mpf(model.s_max)

    def f(s):
        phi = _mp_phi(model.phi, s)
        return phi**power * y * mpmath.exp(-y * s + phi * xi - t * _mp_psi(model.fam, phi))

    pts = [mpmath.mpf(lower)] + [lower + d for d in 2.0 ** np.arange(-2, 12) if lower + d < model.s_max]
    return mpmath.quad(f, pts + [S], method=method)


def mp_log_kernel(model, t, xi, lower, method="tanh-sinh"):
    """log int_lower^S_max rho_s M(t, s, xi) ds at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        return float(mpmath.log(_mp_kernel(model, t, xi, lower, 0, method)))


def mp_phi_average(model, t, xi, lower):
    """Phi over [lower, S_max], int phi rho M / int rho M, at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        return float(_mp_kernel(model, t, xi, lower, 1) / _mp_kernel(model, t, xi, lower, 0))


def _bench_model(name):
    fam = {
        "gbm": lr.BrownianFamily(),
        "jd": lr.JumpDiffusionFamily(lam=5.0, mu=0.0, delta=1.0),
        "gamma": lr.GammaFamily(m=1.0, kappa=0.5),
        "vg": lr.VarianceGammaFamily(mu=0.02, sigma=0.3, m=20.0),
    }[name]
    phi = lr.ExpDecayPhi(c=-1.0 if name == "gamma" else 1.0, b=0.02)
    return lr.RateModel(ts=lr.FlatYieldCurve(y=0.03), fam=fam, phi=phi)


def mp_forward_rate(model, t, xi, T):
    """rho_T M(t, T, xi) / int_T^S_max rho_s M(t, s, xi) ds at 30 digits,
    from the closed forms, the integral by Gauss-Legendre panels."""
    import mpmath

    with mpmath.workdps(30):
        y = mpmath.mpf(model.ts.y)

        def f(s):
            phi = _mp_phi(model.phi, s)
            return y * mpmath.exp(-y * s + phi * xi - t * _mp_psi(model.fam, phi))

        pts = [mpmath.mpf(T)] + [T + d for d in 2.0 ** np.arange(-2, 12) if T + d < model.s_max]
        integral = mpmath.quad(f, pts + [mpmath.mpf(model.s_max)], method="gauss-legendre")
        return float(f(mpmath.mpf(T)) / integral)


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_forward_and_short_rate_match_mpmath(name):
    # short_rate (T = t) and forward_rate at T = t + 3 on the bench models,
    # at the min, median and max of 10^4 exact draws. The oracle stops at
    # S_max like the model, so the gap is the panel quadrature's alone: the
    # panels refine until the 16- and 8-point sums agree to rel_tol = 1e-10,
    # which tracks the 8-point error, and the 16-point sum lands at rounding
    # (1.3e-15 at worst here); 1e-13 leaves room for the rounding of the
    # log-space sums and still sits three digits inside the contract.
    model = _bench_model(name)
    t = 1.0
    draws = model.fam.sample_increment(t, np.random.default_rng(31), size=10_000)
    for x in (float(draws.min()), float(np.median(draws)), float(draws.max())):
        state = ModelState(t=t, xi=x)
        assert lr.short_rate(model, state) == pytest.approx(mp_forward_rate(model, t, x, t), rel=1e-13)
        want = mp_forward_rate(model, t, x, t + 3.0)
        assert lr.forward_rate(model, state, t + 3.0) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_bond_price_matches_mpmath(name):
    # P(t, T) = K(T) / K(t) from two 30-digit kernels on the bench models,
    # at the min, median and max of 10^4 exact draws, T = t + 3; both sides
    # stop at S_max. The panels meet rel_tol = 1e-10 on the 8-point sums,
    # so the 16-point sums land at rounding (4.4e-16 at worst here); 1e-13
    # leaves room for the log-space sums and sits three digits inside the
    # contract.
    model = _bench_model(name)
    t, T = 1.0, 4.0
    draws = model.fam.sample_increment(t, np.random.default_rng(37), size=10_000)
    for x in (float(draws.min()), float(np.median(draws)), float(draws.max())):
        want = math.exp(mp_log_kernel(model, t, x, T) - mp_log_kernel(model, t, x, t))
        assert lr.bond_price(model, ModelState(t=t, xi=x), T) == pytest.approx(want, rel=1e-13)


def rule_nodes(ev, xi, bounds):
    """Nodes per bound of the rule that the batch check picks for xi."""
    phi = ev._rule_nodes(np.asarray(xi, dtype=float), bounds, False)[0][0]
    return phi.size // (len(bounds) + 1)


def _check_rule_against_mpmath(model, t, xi, lowers, tol):
    logs = model.evaluator(t).log_integral_batch(xi, lowers)
    for L in lowers:
        for i, x in enumerate(xi):
            assert abs(logs[L][i] - mp_log_kernel(model, t, float(x), L)) <= tol, (t, L, x)


@pytest.mark.parametrize("kind", ["figure", "bench"])
@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
@pytest.mark.parametrize("t", [0.5, 3.0])
def test_batch_rule_matches_mpmath(kind, name, t, all_figure_models):
    # 24 Gauss-Jacobi nodes per bound resolve log K at the extremes of
    # 10^4 exact draws, on the truncated range [L, S_max]
    model = all_figure_models[name] if kind == "figure" else _bench_model(name)
    draws = model.fam.sample_increment(t, np.random.default_rng(23), size=10_000)
    xi = np.array([draws.min(), draws.max()])
    assert rule_nodes(model.evaluator(t), xi, [t, t + 2.0]) == _RULE_NODES
    _check_rule_against_mpmath(model, t, xi, [t, t + 2.0], 2e-14)


def test_rule_check_on_the_mc_batch_options():
    # the eight options of the benchmark's mc_batch workload (the bench
    # drivers, expiry 1 and 2, tenor 2), each on 20,000 exact draws from
    # its seed-0 stream: the 16-node rule agrees with 12 nodes, so the check
    # stops at its first rung, and its log K at the probes (min, mean and
    # max draw) is within 2e-14 of 30 digits at both bounds (Gauss-Legendre
    # panels in mpmath, which keep the 48 oracle values inside 3 s)
    for u, (name, t) in enumerate((n, e) for n in ("gbm", "jd", "gamma", "vg") for e in (1.0, 2.0)):
        model = _bench_model(name)
        bounds = [t, t + 2.0]
        xi = model.fam.sample_increment(t, lr.spawn_stream(0, 20 + u), 20_000)
        (phi, _, _), probes, (logs, _) = model.evaluator(t)._rule_nodes(xi, bounds, False)
        assert phi.size == _RULE_NODES * (len(bounds) + 1), (name, t)
        for j, L in enumerate(bounds):
            for i, x in enumerate(probes):
                want = mp_log_kernel(model, t, float(x), L, "gauss-legendre")
                assert abs(logs[j, i] - want) <= 2e-14, (name, t, L, x)


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_phi_average_matches_mpmath(name, all_figure_models):
    # the phi-weighted counterpart: Phi_tT on the batch rule at the
    # extremes of 10^4 exact draws, with T = t and t + 2
    model = all_figure_models[name]
    t = 1.0
    draws = model.fam.sample_increment(t, np.random.default_rng(29), size=10_000)
    for x in (float(draws.min()), float(draws.max())):
        for T in (t, t + 2.0):
            got = lr.phi_average(model, ModelState(t=t, xi=x), T)
            assert got == pytest.approx(mp_phi_average(model, t, x, T), rel=1e-12, abs=0.0)


def test_batch_rule_doubles_for_a_bump_tilt(flat2):
    # a Gaussian bump is not linear in any exponential coordinate, so the
    # rule runs in u = P0(s)/P0(L) and needs more than 24 nodes
    model = lr.RateModel(
        ts=flat2, fam=lr.BrownianFamily(), phi=lr.GaussianBumpPhi(height=0.3, center=2.0, width=0.5)
    )
    assert model.rule_rate == flat2.y
    t, lowers = 1.0, [1.0, 3.0]
    xi = model.fam.sample_increment(t, np.random.default_rng(3), size=10_000)
    assert rule_nodes(model.evaluator(t), xi, lowers) > _RULE_NODES
    _check_rule_against_mpmath(model, t, np.array([xi.min(), xi.max()]), lowers, 2e-14)


def test_batch_rule_at_a_slowly_decaying_tilt(flat3):
    # y/b = 2000: the Jacobi exponent y/b - 1 = 1999 packs the nodes within
    # a few thousandths of u = 1, and 24 of them still meet the oracle
    model = lr.RateModel(ts=flat3, fam=lr.BrownianFamily(), phi=lr.ExpDecayPhi(c=1.0, b=0.03 / 2000))
    assert model.rule_rate == model.phi.b
    t, lowers = 1.0, [1.0, 3.0]
    xi = model.fam.sample_increment(t, np.random.default_rng(4), size=10_000)
    xi = np.array([xi.min(), xi.max()])
    assert rule_nodes(model.evaluator(t), xi, lowers) == _RULE_NODES
    _check_rule_against_mpmath(model, t, xi, lowers, 2e-14)


def test_batch_rule_error_names_the_state(flat2):
    # a tolerance below rounding: n and n/2 nodes never agree, and the
    # error must say which valuation time, bounds and draw failed
    model = lr.RateModel(
        ts=flat2,
        fam=lr.BrownianFamily(),
        phi=lr.ExpDecayPhi(c=0.3, b=0.02),
        rel_tol=1e-17,
    )
    with pytest.raises(lr.QuadratureError, match=r"t=1\.0, bounds=\[1\.0, 3\.0\], xi=") as exc_info:
        model.evaluator(1.0).log_integral_batch(np.array([-0.5, 0.1, 0.7]), [1.0, 3.0])
    assert exc_info.value.rel_err > 1e-17


def test_rule_check_counts_a_nan_as_disagreement():
    # bench gamma model, c = -1: at a large draw the S_max rule's
    # subtraction cancels and few nodes give nan; a nan at n and n/2
    # nodes is no agreement below S_max
    model = _bench_model("gamma")
    t, lowers = 1.0, [1.0, 3.0]
    ev = model.evaluator(t)
    xi = np.array([3000.0])
    assert np.isnan(ev._rule_integrals(xi, ev._rule_data(lowers, 12), False)[0][0, 0])
    assert rule_nodes(ev, xi, lowers) == 384
    _check_rule_against_mpmath(model, t, xi, lowers, 2e-14)
    # 12 and 24 nodes both give nan here; 384 and 192 still differ
    with pytest.raises(lr.QuadratureError, match="384 and 192 nodes differ by"):
        ev.log_integral_batch(np.array([1e4]), lowers)
    with pytest.raises(lr.QuadratureError, match="384 and 192 nodes give nan and nan, not finite"):
        ev.log_integral_batch(np.array([1e6]), lowers)
    # so the phi averages there raise too, never a nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(lr.NumericalError, match="not finite"):
            lr.risk_premium(model, ModelState(t=t, xi=1e6), 3.0)


def test_jacobi_rule_matches_mpmath():
    # nodes and weights against mpmath's Gauss-Jacobi rule at 40 digits for
    # the weight (1 + x)^alpha on [-1, 1], mapped to (0, 1]; at alpha = 1999
    # the nodes crowd near u = 1 with absolute precision, and the weights
    # there keep about 12 digits (the kernel oracle at y/b = 2000 shows
    # the sums stay at rounding level)
    import mpmath

    for alpha in (-0.97, 0.5, 1999.0):
        for n in (24, 96):
            log_u, log_w = jacobi_rule(n, alpha)
            with mpmath.workdps(40):
                x, w = mpmath.mp.gauss_quadrature(n, "jacobi", 0, alpha)
                total = mpmath.fsum(w)
                ref = sorted((float((1 + xi) / 2), float(wi / total)) for xi, wi in zip(x, w))
            ref_u, ref_w = np.array(ref).T
            assert np.max(np.abs(np.exp(log_u) - ref_u)) <= 4e-16, (alpha, n)
            assert np.sum(np.abs(np.exp(log_w) - ref_w)) <= 5e-13, (alpha, n)


def test_phi_average_batch_rejects_bounds_without_mass(gbm_model):
    # at or beyond S_max there is no mass to average over: the batch raises
    # what phi_average raises, not a nan, while the log integral there
    # stays -inf
    ev = gbm_model.evaluator(1.0)
    S = ev.S
    lowers = [1.0, 5.0, S, S + 10.0]
    xi = np.array([-0.5, 0.1, 0.7])
    message = re.escape(f"no mass beyond lower={S}")
    with pytest.raises(DomainError, match=message):
        lr.phi_average(gbm_model, ModelState(t=1.0, xi=0.1), S)
    with pytest.raises(DomainError, match=message):
        ev.phi_average_batch(xi, lowers)
    logs = ev.log_integral_batch(xi, lowers)
    assert np.all(np.isfinite(logs[1.0])) and np.all(np.isfinite(logs[5.0]))
    assert np.all(logs[S] == -np.inf) and np.all(logs[S + 10.0] == -np.inf)


def test_model_rejects_a_curve_that_is_not_flat():
    # the batch kernel's rule is built for the flat curve's density, so
    # any other curve object is refused when the model is built, not left
    # to fail inside a Monte Carlo price
    class HalfLifeCurve:
        half_life = 20.0

        def discount_factor(self, t):
            return np.exp2(-np.asarray(t, dtype=float) / self.half_life)

        def density(self, t):
            return math.log(2.0) / self.half_life * self.discount_factor(t)

        def log_density(self, t):
            return np.log(self.density(t))

        def truncation_horizon(self, epsilon=1e-12):
            return -self.half_life * math.log2(epsilon)

        def forward_price(self, t, T):
            return float(self.discount_factor(T) / self.discount_factor(t))

    with pytest.raises(lr.UnsupportedModelError, match="must be a FlatYieldCurve, got HalfLifeCurve"):
        lr.RateModel(ts=HalfLifeCurve(), fam=lr.BrownianFamily(), phi=lr.ExpDecayPhi(c=0.3, b=0.02))


def test_batch_of_no_draws_is_empty(vg_model):
    ev = vg_model.evaluator(1.0)
    logs = ev.log_integral_batch(np.array([]), [1.0, 3.0])
    avgs = ev.phi_average_batch(np.array([]), [1.0, 3.0])
    for L in (1.0, 3.0):
        assert logs[L].shape == (0,) and avgs[L].shape == (0,)


def test_batch_memory_is_bounded(jd_model):
    # the kernel works through fixed-size blocks in one buffer, so beyond
    # its output arrays a large batch needs only a few MiB
    t, lowers = 1.0, [1.0, 3.0]
    ev = jd_model.evaluator(t)
    xi = jd_model.fam.sample_increment(t, np.random.default_rng(5), size=200_000)
    tracemalloc.start()
    try:
        logs = ev.log_integral_batch(xi, lowers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = sum(v.nbytes for v in logs.values())
    assert peak < outputs + 4 * 2**20


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


@pytest.mark.parametrize("lowers", [(1.0, 3.0), (3.0, 1.0)], ids=["t-T", "T-t"])
@pytest.mark.parametrize("xi, warm, splits", [(0.3, True, False), (25.0, True, True), (0.3, False, True)])
def test_refine_of_several_bounds_leaves_the_panels_of_one_refine_per_bound(xi, warm, splits, lowers, flat2):
    # one call shares its exp pass across bounds until a panel splits; the
    # panels must be those of one refine per bound, in the order given
    def evaluator():
        model = lr.RateModel(ts=flat2, fam=lr.BrownianFamily(), phi=lr.ExpDecayPhi(c=1.0, b=0.5))
        ev = model.evaluator(1.0)
        if warm:
            ev.refine(0.0, 1.0)
            ev.refine(0.0, 3.0)
        return ev

    shared, single = evaluator(), evaluator()
    before = shared._edges
    shared.refine(xi, *lowers)
    for L in lowers:
        single.refine(xi, L)
    assert np.array_equal(shared._edges, single._edges)
    assert (shared._edges is not before) == splits


@pytest.mark.parametrize("name", ["gbm", "jd", "gamma", "vg"])
def test_bond_slope_is_the_bond_volatility(name, all_figure_models):
    model = all_figure_models[name]
    t, T, xi = 1.0, 3.0, 0.4
    ev = model.evaluator(t)
    ev.refine(xi, t, T)
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
        rel_tol=1e-13,
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
    # a tolerance below rounding: after the panels that bond_price refines
    # from t, those from T split up to the budget, and the error must say
    # which valuation time, bound and driver value failed
    model = lr.RateModel(ts=flat2, fam=lr.BrownianFamily(), phi=lr.ExpDecayPhi(c=1.0, b=0.02), rel_tol=1e-17)
    ev = model.evaluator(1.0)
    ev.refine(0.2, 1.0)
    message = r"t=1\.0, lower=3\.0, xi=0\.2\): no convergence after 2000 panels"
    with pytest.raises(lr.QuadratureError, match=message) as exc_info:
        ev.refine(0.2, 3.0)
    assert exc_info.value.panels == MAX_PANELS
    assert exc_info.value.rel_err > 0.0


def test_evaluator_cache_is_bounded(flat2):
    model = lr.RateModel(ts=flat2, fam=lr.BrownianFamily(), phi=lr.ExpDecayPhi(c=0.3, b=0.02))
    for k in range(40):
        model.evaluator(0.25 + 0.05 * k)
    assert len(model._evaluators) <= 32


def test_model_rel_tol_validation(flat2):
    # the model's one numerical setting must lie in (0, 1)
    for rel_tol in (0.0, 1.0, math.nan, math.inf, -1e-10):
        with pytest.raises(DomainError, match="rel_tol must lie in"):
            lr.RateModel(ts=flat2, fam=lr.BrownianFamily(), phi=lr.ExpDecayPhi(c=0.3, b=0.02), rel_tol=rel_tol)


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
