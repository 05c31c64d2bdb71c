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
from scipy.special import gammaln

import levyrates as lr
from levyrates.errors import DomainError
from levyrates.specialfn import psi_integral_batch, reg_lower_gamma, reg_upper_gamma
from oracles import PsiArgs, norm_cdf, psi_integral


def test_oracles_are_not_package_api():
    # the normal CDF and the adaptive mixture integral live in tests/oracles.py
    for name in ("norm_cdf", "PsiArgs", "psi_integral"):
        assert not hasattr(lr, name) and name not in lr.__all__


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


def test_reg_lower_gamma_against_mpmath():
    # P = 1 - Q computed directly: relative accuracy where P is tiny,
    # which 1 - Q cannot give, and the same domain errors as Q
    import mpmath

    with mpmath.workdps(30):
        for a in (0.1, 1.0, 7.0, 55.0, 400.0):
            x = np.concatenate([a * np.geomspace(1e-3, 0.5, 40), np.linspace(0.0, 4.0 * a + 40.0, 41)])
            ours = reg_lower_gamma(a, x)
            ref = np.array([float(mpmath.gammainc(a, 0, xi, regularized=True)) for xi in x])
            normal = ref > 1e-300  # below, the subnormal range has no relative digits
            assert np.all(np.abs(ours - ref)[normal] <= 1e-12 * ref[normal]), f"a={a}"
            assert np.max(np.abs(ours + reg_upper_gamma(a, x) - 1.0)) <= 1e-15
    assert isinstance(reg_lower_gamma(2.0, 1.0), float)
    with pytest.raises(DomainError):
        reg_lower_gamma(0.0, 2.0)
    with pytest.raises(DomainError):
        reg_lower_gamma(2.0, -0.5)


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


def test_reg_gamma_rejects_nan_and_keeps_the_infinite_limit():
    # a nan argument returned nan
    for a, x in ((1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf)):
        with pytest.raises(DomainError):
            reg_upper_gamma(a, x)
        with pytest.raises(DomainError):
            reg_lower_gamma(a, x)
    assert reg_upper_gamma(2.0, math.inf) == 0.0
    assert reg_lower_gamma(2.0, math.inf) == 1.0


def test_psi_batch_shape_limit():
    # Lambert W's k = -1 branch collapses the panel window's right edge
    # onto the peak between c = 7e9 and 8e9 (CHANGES.md); c = inf raised a
    # bare ValueError and c = 1e10 warned. Below c = 0.1 the window, about
    # 36/c wide, grows without bound: about 770,000 nodes at c = 1e-3, and
    # a MemoryError at c = 1e-10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (1.01e9, 1e10, math.inf, math.nan, 0.0, 0.0999, 1e-3, 1e-10, 1e-20):
            with pytest.raises(DomainError, match="mixture shape c must lie in"):
                psi_integral_batch(0.0, 0.0, c)
        for c in (0.1, 510.0, 1e9):
            assert psi_integral_batch(0.0, 0.0, c)[0] == pytest.approx(0.5, abs=1e-15)


def _mp_psi(a: float, b: float, c: float) -> float:
    """psi(a, b, c) to 30 digits: mpmath.quad in w = ln(u/c), split where
    the weight exp(c (w - expm1 w)) is 4, 16, 36 and 64 e-folds below its
    peak (mpmath's own Lambert W) and at every even w inside, over the
    exact normalizer Gamma(c) e^c c^-c."""
    import mpmath

    with mpmath.workdps(30):
        a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        rc = mpmath.sqrt(c)
        pts = {mpmath.mpf(0)}
        for k in (2, 4, 6, 8):
            A = 1 + k * k / c
            pts.update(-A - mpmath.lambertw(-mpmath.exp(-A), branch).real for branch in (0, -1))
        pts.update(mpmath.mpf(w) for w in range(-8, 8, 2) if min(pts) < w < max(pts))

        def f(w):
            half = mpmath.exp(w / 2)
            x = a / (rc * half) + b * rc * half
            cdf = mpmath.ncdf(x) if abs(x) < 50 else float(x > 0)  # mpmath's erfc overflows far out
            return cdf * mpmath.exp(c * (w - mpmath.expm1(w)))

        num = mpmath.quad(f, sorted(pts), method="gauss-legendre")
        return float(num / mpmath.exp(mpmath.loggamma(c) + c - c * mpmath.log(c)))


def test_psi_batch_matches_mpmath():
    # both branches and both edges of the Laguerre band, and the cap; wide
    # arguments, and arguments that move the normal CDF by O(1) across
    # the weight's peak (a ~ sqrt(c), b ~ 1/sqrt(c))
    for c in (0.1, 1.0, 5.0, 9.99, 170.0, 500.0, 1e4, 1e9):
        rc = math.sqrt(c)
        args = [(-60.0, 1.5), (60.0, -3.0), (-0.05, 0.3), (0.3 * rc, -0.2 / rc), (-rc, 1.2 / rc)]
        got = psi_integral_batch(np.array([a for a, _ in args]), np.array([b for _, b in args]), c)
        for (a, b), v in zip(args, got):
            assert abs(v - _mp_psi(a, b, c)) < 1e-14, (a, b, c)


def test_psi_batch_rule_is_keyed_by_the_exact_shape():
    # the rule was cached under round(c, 12): after c = 10 - 1e-13 (below
    # the Laguerre band), c = 10 read that shape's rule and gave other
    # bits than in a fresh process
    code = (
        "import sys; from levyrates.specialfn import psi_integral_batch as psi; "
        "[psi(1.0, -0.5, c) for c in map(float, sys.argv[1:])]; print(repr(psi(1.0, -0.5, 10.0)[0]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lr.__file__).resolve().parents[1]))
    runs = [
        subprocess.Popen([sys.executable, "-c", code, *before], env=env, stdout=subprocess.PIPE, text=True)
        for before in ([], ["9.9999999999999"])
    ]
    fresh, after = (run.communicate()[0].strip() for run in runs)
    assert fresh and after == fresh


def test_psi_batch_rejects_nan_and_keeps_infinite_limits():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((math.nan, 0.0), (0.0, math.nan), (math.inf, -math.inf)):
            with pytest.raises(DomainError, match="must not be nan"):
                psi_integral_batch(np.array([0.1, a]), np.array([0.2, b]), 2.0)
        got = psi_integral_batch(np.array([math.inf, -math.inf, 0.3]), np.array([0.0, 0.0, math.inf]), 2.0)
    assert got == pytest.approx([1.0, 0.0, 1.0], abs=1e-15)  # weights sum to 1 up to rounding
