import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levyrates as lr
from levyrates.errors import DomainError

yields = st.floats(min_value=1e-4, max_value=0.25, allow_nan=False)


def test_flat_curve_closed_form():
    c = lr.FlatYieldCurve(y=0.02)
    assert c.discount_factor(0.0) == 1.0
    assert c.discount_factor(5.0) == pytest.approx(math.exp(-0.1), rel=1e-15)
    assert c.density(5.0) == pytest.approx(0.02 * math.exp(-0.1), rel=1e-15)
    # horizon: P0(S) = epsilon exactly
    S = c.truncation_horizon(1e-12)
    assert c.discount_factor(S) == pytest.approx(1e-12, rel=1e-9)


def test_flat_curve_vectorized_matches_scalar():
    c = lr.FlatYieldCurve(y=0.05)
    t = np.array([0.0, 0.5, 2.0, 30.0])
    assert np.allclose(c.discount_factor(t), [c.discount_factor(x) for x in t], rtol=0, atol=0)
    assert np.allclose(c.density(t), [c.density(x) for x in t], rtol=0, atol=0)


def test_log_density_consistent():
    c = lr.FlatYieldCurve(y=0.03)
    t = np.linspace(0.0, 50.0, 7)
    assert np.allclose(c.log_density(t), np.log(c.density(t)), rtol=1e-14)


def test_forward_price():
    c = lr.FlatYieldCurve(y=0.02)
    assert c.forward_price(1.0, 3.0) == pytest.approx(math.exp(-0.04), rel=1e-15)
    with pytest.raises(DomainError):
        c.forward_price(3.0, 1.0)


def test_negative_time_rejected():
    c = lr.FlatYieldCurve(y=0.02)
    with pytest.raises(DomainError):
        c.discount_factor(-0.5)
    with pytest.raises(DomainError):
        c.density(np.array([1.0, -2.0]))


def test_zero_yield_unconstructible():
    with pytest.raises(DomainError):
        lr.FlatYieldCurve(y=0.0)
    with pytest.raises(DomainError):
        lr.FlatYieldCurve(y=float("nan"))


def test_negative_yield_constructible_but_flagged():
    # increasing "discount" curve: buildable so it can be reported on,
    # but it has no horizon and the validator must fail it
    c = lr.FlatYieldCurve(y=-0.01)
    with pytest.raises(DomainError):
        c.truncation_horizon(1e-12)
    report = lr.validate_term_structure(c)
    assert isinstance(report, lr.ValidationReport) and not report.passed
    names = {chk.name: chk for chk in report.checks}
    assert not names["curve_strictly_decreasing"].passed
    assert not names["curve_decays_to_zero"].passed
    assert not names["curve_density_positive"].passed
    assert "curve_unit_mass" not in names  # no horizon to integrate to


@given(y=yields)
@settings(max_examples=25, deadline=None)
def test_valid_flat_curves_pass_validation(y):
    report = lr.validate_term_structure(lr.FlatYieldCurve(y=y))
    assert report.passed, [c for c in report.checks if not c.passed]


@given(y=yields)
@settings(max_examples=50, deadline=None)
def test_horizon_bounds_neglected_mass(y):
    c = lr.FlatYieldCurve(y=y)
    S = c.truncation_horizon(1e-10)
    assert c.discount_factor(S) <= 1e-10 * (1.0 + 1e-12)


def test_validation_report_names_every_check():
    report = lr.validate_term_structure(lr.FlatYieldCurve(y=0.02))
    assert [c.name for c in report.checks] == [
        "curve_unit_at_zero",
        "curve_strictly_decreasing",
        "curve_decays_to_zero",
        "curve_density_positive",
        "curve_unit_mass",
        "curve_density_matches_slope",
    ]
    assert report.passed
    assert report.lines()[-1] == "OK: 6/6 checks passed"


def test_curve_check_lines_print_their_bound():
    # each check is judged against its own tolerance, and its line says which
    report = lr.validate_term_structure(lr.FlatYieldCurve(y=-0.01))
    lines = {c.name: c.line() for c in report.checks}
    assert lines["curve_density_matches_slope"].startswith("PASS")
    assert "bound=1e-06" in lines["curve_density_matches_slope"]
