"""Tilted-martingale values: unit mean, support checks, phi classes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyrates import (
    BrownianFamily,
    DomainError,
    ExpDecayPhi,
    GammaFamily,
    GaussianBumpPhi,
    JumpDiffusionFamily,
    ModelState,
    VarianceGammaFamily,
    log_martingale_value,
    martingale_value,
    spawn_stream,
)
from levyrates.cli import phi_from_config
from levyrates.errors import ConfigError

PHI = ExpDecayPhi(c=0.3, b=0.02)


def test_log_value_is_the_stated_formula():
    fam = VarianceGammaFamily(mu=0.5, sigma=0.3, m=5.0)
    state = ModelState(t=2.0, xi=-0.7)
    s = 6.0
    ph = PHI(s)
    expected = ph * state.xi - state.t * fam.exponent(ph)
    assert log_martingale_value(fam, PHI, state, s) == pytest.approx(expected, rel=1e-15)
    assert martingale_value(fam, PHI, state, s) == pytest.approx(math.exp(expected), rel=1e-14)


def test_unit_at_time_zero_for_any_maturity():
    fam = JumpDiffusionFamily(lam=5.0, mu=0.0, delta=1.0)
    state = ModelState(t=0.0, xi=0.0)
    s = np.array([0.0, 1.0, 7.0, 40.0])
    assert np.all(martingale_value(fam, ExpDecayPhi(c=1.0, b=0.02), state, s) == 1.0)


def test_vectorized_over_maturities():
    fam = BrownianFamily()
    state = ModelState(t=1.5, xi=0.4)
    s = np.linspace(1.5, 12.0, 7)
    vec = martingale_value(fam, PHI, state, s)
    assert vec.shape == s.shape
    for si, vi in zip(s, vec):
        assert vi == martingale_value(fam, PHI, state, float(si))


# -- unit mean under exact sampling, one case per family ----------------------

UNIT_MEAN_CASES = [
    (BrownianFamily(), ExpDecayPhi(c=0.3, b=0.02)),
    (JumpDiffusionFamily(lam=5.0, mu=0.0, delta=1.0), ExpDecayPhi(c=1.0, b=0.02)),
    (GammaFamily(m=1.0, kappa=0.5), ExpDecayPhi(c=-1.0, b=0.02)),
    (VarianceGammaFamily(mu=0.5, sigma=0.3, m=5.0), ExpDecayPhi(c=1.0, b=0.02)),
]


@pytest.mark.parametrize("fam,phi", UNIT_MEAN_CASES, ids=lambda p: getattr(p, "tag", ""))
def test_unit_mean_monte_carlo(fam, phi):
    # E[M_ts] = 1; tilts here keep exp(2 phi X) integrable so the 4 SE
    # band is a valid 99.99% interval
    t, s = 1.25, 5.0
    n = 300_000
    rng = spawn_stream(90, 0)
    x = np.asarray(fam.sample_increment(t, rng, n), dtype=float)
    ph = float(phi(s))
    m = np.exp(ph * x - t * fam.exponent(ph))
    se = m.std(ddof=1) / math.sqrt(n)
    assert abs(m.mean() - 1.0) <= 4.0 * se


def test_unit_mean_gamma_boundary_tilt():
    # tilt 1.0 with kappa 0.5 puts 2*tilt at the exponent pole: the mean
    # exists but the variance does not, so no SE band is available. Fixed
    # seed, loose band; measured spread across seeds is ~0.5% at this size.
    fam = GammaFamily(m=1.0, kappa=0.5)
    t = 1.0
    rng = spawn_stream(31, 0)
    x = fam.sample_increment(t, rng, 500_000)
    m = np.exp(1.0 * x - t * fam.exponent(1.0))
    assert abs(np.mean(m) - 1.0) <= 0.02


# -- support and domain enforcement -------------------------------------------


def test_gamma_state_support_enforced():
    fam = GammaFamily(m=1.0, kappa=0.5)
    phi = ExpDecayPhi(c=-1.0, b=0.02)
    with pytest.raises(DomainError):
        martingale_value(fam, phi, ModelState(t=1.0, xi=-0.1), 2.0)
    assert martingale_value(fam, phi, ModelState(t=1.0, xi=0.0), 2.0) > 0.0


def test_negative_states_fine_for_two_sided_families():
    state = ModelState(t=1.0, xi=-2.5)
    assert martingale_value(BrownianFamily(), PHI, state, 3.0) > 0.0


def test_maturity_before_state_time_rejected():
    with pytest.raises(DomainError):
        martingale_value(BrownianFamily(), PHI, ModelState(t=2.0, xi=0.0), 1.0)
    with pytest.raises(DomainError):
        log_martingale_value(BrownianFamily(), PHI, ModelState(t=2.0, xi=0.0), np.array([2.0, 1.9]))


def test_inadmissible_tilt_rejected():
    fam = GammaFamily(m=1.0, kappa=0.5)
    phi = ExpDecayPhi(c=3.0, b=0.02)  # phi(0) = 3 beyond the pole at 2
    with pytest.raises(DomainError):
        martingale_value(fam, phi, ModelState(t=1.0, xi=0.5), 1.0)


@pytest.mark.parametrize(
    "fam",
    [
        BrownianFamily(),
        JumpDiffusionFamily(lam=5.0, mu=0.0, delta=1.0),
        GammaFamily(m=1.0, kappa=0.5),
        VarianceGammaFamily(mu=0.5, sigma=0.3, m=5.0),
    ],
    ids=lambda f: f.tag,
)
def test_nan_maturity_rejected(fam):
    # phi(nan) is nan, which the exponent's domain check refuses
    with pytest.raises(DomainError):
        martingale_value(fam, PHI, ModelState(t=1.0, xi=0.5), math.nan)


def test_model_state_validation():
    with pytest.raises(DomainError):
        ModelState(t=-1.0, xi=0.0)
    with pytest.raises(DomainError):
        ModelState(t=1.0, xi=float("nan"))
    with pytest.raises(DomainError):
        ModelState(t=float("inf"), xi=0.0)


@given(
    xi=st.floats(min_value=-5.0, max_value=5.0),
    t=st.floats(min_value=0.0, max_value=10.0),
    ds=st.floats(min_value=0.0, max_value=30.0),
)
@settings(max_examples=80, deadline=None)
def test_value_positive_and_finite(xi, t, ds):
    v = martingale_value(BrownianFamily(), PHI, ModelState(t=t, xi=xi), t + ds)
    assert v > 0.0 and math.isfinite(v)


# -- phi classes ---------------------------------------------------------------


def test_exp_decay_phi_classes_and_bounds():
    dec = ExpDecayPhi(c=0.3, b=0.02)
    assert dec.monotonicity == "positive-decreasing"
    assert dec.range_bounds(10.0) == (pytest.approx(0.3 * math.exp(-0.2)), 0.3)

    inc = ExpDecayPhi(c=-1.0, b=0.02)
    assert inc.monotonicity == "negative-increasing"
    lo, hi = inc.range_bounds(10.0)
    assert lo == -1.0 and hi == pytest.approx(-math.exp(-0.2))

    assert ExpDecayPhi(c=0.5, b=0.0).monotonicity == "constant"
    assert ExpDecayPhi(c=0.0, b=0.1).monotonicity == "constant"

    with pytest.raises(DomainError):
        ExpDecayPhi(c=0.3, b=-0.1)
    with pytest.raises(DomainError):
        ExpDecayPhi(c=float("inf"), b=0.1)


def test_gaussian_bump_phi():
    bump = GaussianBumpPhi(height=0.4, center=3.0, width=0.5)
    assert bump.monotonicity == "other"
    assert bump(3.0) == pytest.approx(0.4)
    lo, hi = bump.range_bounds(10.0)
    assert hi == pytest.approx(0.4)  # center inside the horizon
    assert lo == pytest.approx(min(bump(0.0), bump(10.0)))
    # horizon short of the center: the peak is not attained
    lo2, hi2 = bump.range_bounds(1.0)
    assert hi2 == pytest.approx(bump(1.0))
    with pytest.raises(DomainError):
        GaussianBumpPhi(height=0.4, center=3.0, width=0.0)


@pytest.mark.parametrize(
    "height, center, width",
    [
        (math.nan, 3.0, 0.5),
        (math.inf, 3.0, 0.5),
        (0.4, math.nan, 0.5),
        (0.4, -math.inf, 0.5),
        (0.4, 3.0, math.inf),
        (0.4, 3.0, math.nan),
    ],
)
def test_gaussian_bump_phi_rejects_non_finite_parameters(height, center, width):
    # a nan height built a model whose bond price failed deep in the panels
    with pytest.raises(DomainError, match="finite height and center and a finite positive width"):
        GaussianBumpPhi(height=height, center=center, width=width)


def test_phi_from_config():
    phi = phi_from_config({"c": 0.3, "b": 0.02})
    assert isinstance(phi, ExpDecayPhi) and phi.c == 0.3
    with pytest.raises(ConfigError):
        phi_from_config({"c": 0.3})
    with pytest.raises(ConfigError):
        phi_from_config({"c": 0.3, "b": 0.02, "shape": "bump"})
    with pytest.raises(ConfigError):
        phi_from_config({"c": 0.3, "b": -1.0})
