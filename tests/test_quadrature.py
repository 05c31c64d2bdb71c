import math
import warnings

import numpy as np
import pytest

from levyrates.errors import DomainError, QuadratureError
from levyrates.quadrature import MAX_PANELS, adaptive_integrate, gauss_legendre_nodes


def test_rule_nodes_weights():
    x, w = gauss_legendre_nodes(16)
    assert x.shape == w.shape == (16,)
    assert w.sum() == pytest.approx(2.0, rel=1e-14)
    assert np.allclose(x, -x[::-1], atol=1e-15)
    # cache returns the same arrays
    x2, _ = gauss_legendre_nodes(16)
    assert x2 is x


def test_polynomial_exact():
    # a 16-point rule is exact through degree 31; no refinement needed
    val, err = adaptive_integrate(lambda x: 7.0 * x**6, 0.0, 1.0, rel_tol=1e-12)
    assert val == pytest.approx(1.0, abs=1e-14)
    assert err <= 1e-12


def test_exponential_decay():
    val, _ = adaptive_integrate(np.exp, 0.0, 3.0, rel_tol=1e-12)
    assert val == pytest.approx(math.exp(3.0) - 1.0, rel=1e-12)


def test_narrow_peak_refines():
    # Gaussian bump of width 1e-3 inside [0, 1]: the 8-way initial split
    # cannot see it accurately, adaptivity must dig it out
    s = 1e-3

    def f(x):
        return np.exp(-0.5 * ((x - 0.37) / s) ** 2)

    val, _ = adaptive_integrate(f, 0.0, 1.0, rel_tol=1e-10)
    assert val == pytest.approx(s * math.sqrt(2.0 * math.pi), rel=1e-9)


def test_points_seed_breakpoints():
    # integrand with a kink: exact once the kink is a panel edge
    f = lambda x: np.abs(x - 0.25)
    val, _ = adaptive_integrate(f, 0.0, 1.0, rel_tol=1e-12, points=[0.25])
    exact = 0.25**2 / 2 + 0.75**2 / 2
    assert val == pytest.approx(exact, rel=1e-13)


def test_empty_and_reversed_interval():
    assert adaptive_integrate(np.exp, 2.0, 2.0) == (0.0, 0.0)
    with pytest.raises(QuadratureError):
        adaptive_integrate(np.exp, 3.0, 2.0)


def test_budget_exhaustion_raises_with_diagnostics():
    rng = np.random.default_rng(0)

    def noisy(x):
        # white noise cannot converge; the error should carry panel count
        return rng.standard_normal(np.shape(x))

    with pytest.raises(QuadratureError) as exc_info:
        adaptive_integrate(noisy, 0.0, 1.0, rel_tol=1e-14)
    assert exc_info.value.panels == MAX_PANELS


def test_panel_at_resolution_raises():
    # one panel one ulp wide: its midpoint is an edge, so it cannot be
    # bisected, and a noisy estimate there must not be dropped
    rng = np.random.default_rng(0)

    def noisy(x):
        return rng.standard_normal(np.shape(x))

    with pytest.raises(QuadratureError, match="floating-point resolution"):
        adaptive_integrate(noisy, 1.0, np.nextafter(1.0, 2.0), rel_tol=1e-14, points=[])


def test_deterministic():
    f = lambda x: np.sin(3.0 * x) * np.exp(-x)
    a = adaptive_integrate(f, 0.0, 5.0, rel_tol=1e-11)
    b = adaptive_integrate(f, 0.0, 5.0, rel_tol=1e-11)
    assert a == b


def test_abs_tol_floor():
    # integral that is exactly zero by symmetry: rel_tol alone could spin,
    # the absolute floor lets it settle
    val, err = adaptive_integrate(lambda x: x, -1.0, 1.0, rel_tol=1e-12, abs_tol=1e-13)
    assert abs(val) < 1e-13
    assert err <= 1e-13


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan)])
def test_bounds_must_be_finite(a, b):
    # an infinite bound gave bare RuntimeWarnings from the panel nodes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="integration bounds must be finite"):
            adaptive_integrate(np.exp, a, b)


@pytest.mark.parametrize(
    "rel_tol, abs_tol",
    [
        (math.nan, 0.0),
        (1e-10, math.nan),
        (-1e-10, 0.0),
        (1e-10, -1e-14),
        (math.inf, 0.0),
        (1e-10, math.inf),
        (0.0, 0.0),
    ],
)
def test_tolerances_must_be_usable(rel_tol, abs_tol):
    # rel_tol=nan split to MAX_PANELS panels and then raised "target nan"
    with pytest.raises(DomainError, match="tolerances must be finite, nonnegative and not both zero"):
        adaptive_integrate(np.exp, 0.0, 1.0, rel_tol=rel_tol, abs_tol=abs_tol)
