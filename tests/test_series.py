"""Exact coefficient data: ratios, differences, signs, truncated evaluation."""

import dataclasses
from fractions import Fraction

import pytest

import oracles
from meanslab.series import _REGISTRY as SERIES_REGISTRY
from meanslab import (
    DomainError,
    ParameterError,
    SeriesId,
    coefficient_ratio,
    consecutive_difference,
    difference_sign_check,
    series,
    truncated_series_eval,
)


def test_registry_metadata():
    h1, h2, h3 = series("H1"), series("H2"), series("H3")
    assert h1.limit_at_zero == Fraction(1, 12)
    assert h2.limit_at_zero == Fraction(1, 2)
    assert h3.limit_at_zero == Fraction(2, 5)
    assert h1.expected_monotonicity == "decreasing"
    assert h2.expected_monotonicity == "increasing"
    assert h3.expected_monotonicity == "decreasing"
    assert (h1.power_offset, h2.power_offset, h3.power_offset) == (3, 2, 2)


def test_leading_coefficients():
    h1 = series(SeriesId.H1)
    # sinh θ - θ = θ³/3! + θ⁵/5! + ...; 2θ sinh²θ = 2θ³ + ...
    assert h1.numerator_coeff(0) == Fraction(1, 6)
    assert h1.numerator_coeff(1) == Fraction(1, 120)
    assert h1.denominator_coeff(0) == 2
    h3 = series(SeriesId.H3)
    assert h3.numerator_coeff(0) == Fraction(2, 6)
    assert h3.denominator_coeff(0) == Fraction(5, 6)


def test_ratio_values():
    assert coefficient_ratio("H1", 0) == Fraction(1, 12)
    assert coefficient_ratio("H1", 1) == Fraction(1, 80)
    assert coefficient_ratio("H2", 0) == Fraction(1, 2)
    assert coefficient_ratio("H2", 1) == Fraction(37, 12)
    assert coefficient_ratio("H3", 0) == Fraction(2, 5)
    assert coefficient_ratio("H3", 1) == Fraction(4, 39)


def test_first_differences():
    assert consecutive_difference("H1", 0) == Fraction(-17, 240)
    assert consecutive_difference("H2", 0) == Fraction(31, 12)
    assert consecutive_difference("H3", 0) == Fraction(-58, 195)


@pytest.mark.parametrize("sid", list(SeriesId))
def test_closed_forms_agree_with_coefficients_up_to_200(sid):
    # coefficient_ratio and consecutive_difference each raise on any
    # disagreement between the two exact routes
    for n in range(201):
        coefficient_ratio(sid, n)
    for n in range(200):
        consecutive_difference(sid, n)


@pytest.mark.parametrize(
    "sid,negative", [(SeriesId.H1, True), (SeriesId.H2, False), (SeriesId.H3, True)]
)
def test_difference_signs_at_depth_200(sid, negative):
    rep = difference_sign_check(sid, depth=200)
    assert rep.passed
    assert rep.first_failure is None
    assert (rep.first_difference < 0) is negative
    for n in (0, 1, 7, 199):
        d = consecutive_difference(sid, n)
        assert (d < 0) is negative


def test_denominator_coefficients_positive():
    for sid in SeriesId:
        s = series(sid)
        for n in range(201):
            assert s.denominator_coeff(n) > 0


def test_tampered_closed_form_is_reported_not_raised(monkeypatch):
    broken = dataclasses.replace(
        series(SeriesId.H1), difference_closed=lambda n: Fraction(0)
    )
    monkeypatch.setitem(SERIES_REGISTRY, SeriesId.H1, broken)
    rep = difference_sign_check(SeriesId.H1, depth=5)
    assert not rep.passed
    assert rep.first_failure == 0


def test_truncated_eval_limits():
    # one float division of the exact leading coefficients; allow its rounding
    assert truncated_series_eval("H1", 0.0, 8) == pytest.approx(1 / 12, rel=1e-15)
    assert truncated_series_eval("H2", 0.0, 8) == pytest.approx(1 / 2, rel=1e-15)
    assert truncated_series_eval("H3", 0.0, 8) == pytest.approx(2 / 5, rel=1e-15)


def test_truncated_eval_converges_to_the_quotient():
    want = float(oracles.h1(0.5))
    got = truncated_series_eval(SeriesId.H1, 0.5, 30)
    assert got == pytest.approx(want, rel=1e-14)
    want = float(oracles.h2(0.25))
    got = truncated_series_eval(SeriesId.H2, 0.25, 30)
    assert got == pytest.approx(want, rel=1e-14)


def test_truncated_eval_tail_shrinks_geometrically():
    for sid in SeriesId:
        for x in (0.1, 0.5):
            coarse = truncated_series_eval(sid, x, 8)
            fine = truncated_series_eval(sid, x, 16)
            assert abs(coarse - fine) < x ** 14


def test_truncated_eval_validation():
    with pytest.raises(ParameterError):
        truncated_series_eval("H1", 0.5, 1)
    with pytest.raises(DomainError):
        truncated_series_eval("H1", 1.0, 8)
    with pytest.raises(DomainError):
        truncated_series_eval("H1", -0.1, 8)


def test_lookup_validation():
    assert series("h2") is series("H2") is series(SeriesId.H2)
    with pytest.raises(ParameterError):
        series("H9")
    with pytest.raises(ParameterError):
        series("h9")
    with pytest.raises(ParameterError):
        coefficient_ratio("H1", -1)
    with pytest.raises(ParameterError):
        consecutive_difference("H2", -3)
    with pytest.raises(ParameterError):
        difference_sign_check("H1", depth=0)
