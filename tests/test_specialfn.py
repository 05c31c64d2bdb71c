import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

import levyrates as lr
from levyrates.errors import DomainError
from levyrates.specialfn import PsiArgs, norm_cdf, psi_integral, psi_integral_batch, reg_upper_gamma

# -- normal CDF ---------------------------------------------------------------


def test_norm_cdf_against_mpmath():
    import mpmath

    mpmath.mp.dps = 30
    xs = np.concatenate([np.linspace(-8.0, 8.0, 161), [-37.0, -12.0, 12.0, 37.0]])
    ours = norm_cdf(xs)
    for x, v in zip(xs, ours):
        ref = float(mpmath.ncdf(mpmath.mpf(float(x))))
        assert v == pytest.approx(ref, rel=1e-13, abs=1e-300)


def test_norm_cdf_symmetry_and_limits():
    xs = np.array([-5.5, -1.0, 0.0, 0.3, 4.2])
    assert np.allclose(norm_cdf(xs) + norm_cdf(-xs), 1.0, rtol=0, atol=1e-15)
    assert norm_cdf(0.0) == 0.5
    assert norm_cdf(40.0) == 1.0
    assert norm_cdf(-40.0) == 0.0
    assert isinstance(norm_cdf(0.3), float)


# -- regularized upper incomplete gamma ----------------------------------------


def test_reg_upper_gamma_exponential_identity():
    # Q(1, x) is exactly the exponential tail
    x = np.linspace(0.0, 60.0, 301)
    assert np.max(np.abs(reg_upper_gamma(1.0, x) - np.exp(-x))) < 1e-12


def test_reg_upper_gamma_against_mpmath():
    # independent oracle: reg_upper_gamma is scipy's gammaincc, so the
    # reference comes from mpmath's arbitrary-precision incomplete gamma
    import mpmath

    a_grid = np.array([0.1, 0.5, 1.0, 2.5, 7.0, 20.0, 55.0, 140.0, 400.0])
    with mpmath.workdps(30):
        for a in a_grid:
            x = np.linspace(0.0, 4.0 * a + 40.0, 173)
            ours = reg_upper_gamma(a, x)
            ref = np.array(
                [float(mpmath.gammainc(a, xi, mpmath.inf, regularized=True)) for xi in x]
            )
            assert np.max(np.abs(ours - ref)) < 1e-12, f"a={a}"


def test_reg_upper_gamma_recurrence():
    # Q(a+1, x) = Q(a, x) + x^a e^{-x} / Gamma(a+1)
    a = np.array([0.7, 3.0, 11.5])
    for ai in a:
        x = np.linspace(0.05, 3.0 * ai + 20.0, 97)
        extra = np.exp(ai * np.log(x) - x - gammaln(ai + 1.0))
        assert np.max(np.abs(reg_upper_gamma(ai + 1.0, x) - reg_upper_gamma(ai, x) - extra)) < 1e-12


def test_reg_upper_gamma_crossover_continuity():
    # Q is continuous across x = a+1, where implementations switch from
    # the series to the continued fraction
    for a in (0.4, 2.0, 33.0):
        lo = reg_upper_gamma(a, (a + 1.0) - 1e-9)
        hi = reg_upper_gamma(a, (a + 1.0) + 1e-9)
        assert abs(lo - hi) < 1e-9


def test_reg_upper_gamma_edges_and_domain():
    assert reg_upper_gamma(3.2, 0.0) == 1.0
    assert float(reg_upper_gamma(2.0, 800.0)) == 0.0
    with pytest.raises(DomainError):
        reg_upper_gamma(-1.0, 2.0)
    with pytest.raises(DomainError):
        reg_upper_gamma(2.0, -0.5)


def test_reg_upper_gamma_vectorized_matches_scalar():
    a = 4.5
    xs = np.array([0.0, 0.3, 4.5, 5.5, 9.0, 60.0])
    vec = reg_upper_gamma(a, xs)
    assert np.array_equal(vec, np.array([reg_upper_gamma(a, float(x)) for x in xs]))


@given(
    a=st.floats(min_value=0.05, max_value=300.0),
    x=st.floats(min_value=0.0, max_value=1000.0),
)
@settings(max_examples=200, deadline=None)
def test_reg_upper_gamma_in_unit_interval(a, x):
    q = float(reg_upper_gamma(a, x))
    assert 0.0 <= q <= 1.0


# -- gamma-mixture normal integral ---------------------------------------------


def test_psi_integral_center_is_half():
    # N(0) integrated against any normalized weight is exactly one half
    for c in (0.2, 1.0, 7.0, 150.0):
        assert psi_integral(PsiArgs(a=0.0, b=0.0, c=c)) == pytest.approx(0.5, abs=1e-12)


def test_psi_integral_matches_mc_oracle():
    rng = np.random.default_rng(20260818)
    cases = [
        (0.5, -0.3, 0.8),
        (-0.2, 0.6, 2.0),
        (1.5, -1.0, 5.0),
        (0.05, 0.02, 20.0),
        (-2.0, 0.4, 0.3),
    ]
    n = 400_000
    for a, b, c in cases:
        u = rng.standard_gamma(c, size=n)
        vals = norm_cdf(a / np.sqrt(u) + b * np.sqrt(u))
        mean, se = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))
        det = psi_integral(PsiArgs(a=a, b=b, c=c))
        assert abs(det - mean) <= 4.0 * se, (a, b, c, det, mean, se)


def test_psi_integral_batch_matches_adaptive():
    rng = np.random.default_rng(11)
    for c in (0.6, 3.0, 40.0):
        a = rng.uniform(-2.0, 2.0, size=12)
        b = rng.uniform(-1.5, 1.5, size=12)
        batch = psi_integral_batch(a, b, c)
        scalar = np.array([psi_integral(PsiArgs(a=ai, b=bi, c=c)) for ai, bi in zip(a, b)])
        assert np.max(np.abs(batch - scalar)) < 1e-9


def test_psi_integral_limits():
    assert psi_integral(PsiArgs(a=60.0, b=0.0, c=2.0)) == pytest.approx(1.0, abs=1e-10)
    assert psi_integral(PsiArgs(a=-60.0, b=0.0, c=2.0)) == pytest.approx(0.0, abs=1e-10)
    # large positive drift b pushes every normal argument to +inf
    assert psi_integral(PsiArgs(a=0.0, b=50.0, c=5.0)) == pytest.approx(1.0, abs=1e-10)


@given(
    a=st.floats(min_value=-3.0, max_value=3.0),
    b=st.floats(min_value=-2.0, max_value=2.0),
    c=st.floats(min_value=0.1, max_value=60.0),
)
@settings(max_examples=60, deadline=None)
def test_psi_integral_bounded_and_monotone_in_a(a, b, c):
    v = psi_integral(PsiArgs(a=a, b=b, c=c))
    assert 0.0 <= v <= 1.0
    v_up = psi_integral(PsiArgs(a=a + 0.5, b=b, c=c))
    assert v_up >= v - 1e-11


def test_psi_args_domain():
    with pytest.raises(DomainError):
        PsiArgs(a=0.0, b=0.0, c=0.0)
    with pytest.raises(DomainError):
        PsiArgs(a=float("inf"), b=0.0, c=1.0)
