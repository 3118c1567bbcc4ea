"""Exact coefficient data: ratios, differences, signs, float partial sums."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import hp_oracles
from meanslab import ParameterError, SeriesId, difference_sign_check
from meanslab.series import _REGISTRY as SERIES_REGISTRY
from meanslab.series import coefficient_floats, series


def truncated_quotient(sid, x, depth):
    """Quotient of the two depth-term float partial sums at x (h_eval's lane below θ = 2)."""
    num, den = coefficient_floats(sid, depth)
    x2 = x * x
    return np.polynomial.polynomial.polyval(x2, num) / np.polynomial.polynomial.polyval(x2, den)


def test_registry_metadata():
    h1, h2, h3 = series("H1"), series("H2"), series("H3")
    assert h1.limit_at_zero == Fraction(1, 12)
    assert h2.limit_at_zero == Fraction(1, 2)
    assert h3.limit_at_zero == Fraction(2, 5)
    assert h1.expected_monotonicity == "decreasing"
    assert h2.expected_monotonicity == "increasing"
    assert h3.expected_monotonicity == "decreasing"


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
    assert series("H1").ratio_closed(0) == Fraction(1, 12)
    assert series("H1").ratio_closed(1) == Fraction(1, 80)
    assert series("H2").ratio_closed(0) == Fraction(1, 2)
    assert series("H2").ratio_closed(1) == Fraction(37, 12)
    assert series("H3").ratio_closed(0) == Fraction(2, 5)
    assert series("H3").ratio_closed(1) == Fraction(4, 39)


def test_first_differences():
    assert series("H1").difference_closed(0) == Fraction(-17, 240)
    assert series("H2").difference_closed(0) == Fraction(31, 12)
    assert series("H3").difference_closed(0) == Fraction(-58, 195)


@pytest.mark.parametrize("sid", list(SeriesId))
def test_closed_forms_agree_with_coefficients_up_to_200(sid):
    # difference_sign_check compares both closed forms with the coefficient
    # quotients at every n below its depth: ratios to n = 200, differences
    # to c_201 - c_200
    assert difference_sign_check(sid, depth=201).first_failure is None


@pytest.mark.parametrize(
    "sid,negative", [(SeriesId.H1, True), (SeriesId.H2, False), (SeriesId.H3, True)]
)
def test_difference_signs_at_depth_200(sid, negative):
    rep = difference_sign_check(sid, depth=200)
    assert rep.passed
    assert rep.first_failure is None
    assert (rep.first_difference < 0) is negative
    for n in (0, 1, 7, 199):
        assert (series(sid).difference_closed(n) < 0) is negative


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


@pytest.mark.parametrize("sid", list(SeriesId))
def test_tampered_ratio_closed_form_is_reported(monkeypatch, sid):
    # the differences and their signs stay right; only ratio_closed(3) is off
    good = series(sid)

    def tampered(n):
        return good.ratio_closed(n) + (n == 3)

    monkeypatch.setitem(SERIES_REGISTRY, sid, dataclasses.replace(good, ratio_closed=tampered))
    rep = difference_sign_check(sid, depth=10)
    assert not rep.passed
    assert rep.first_failure == 3


def test_truncated_eval_limits():
    # the constant terms alone: one float division of the exact a_0/b_0
    assert truncated_quotient("H1", 0.0, 18) == pytest.approx(1 / 12, rel=1e-15)
    assert truncated_quotient("H2", 0.0, 18) == pytest.approx(1 / 2, rel=1e-15)
    assert truncated_quotient("H3", 0.0, 18) == pytest.approx(2 / 5, rel=1e-15)


def test_truncated_eval_converges_to_the_quotient():
    want = float(hp_oracles.h1(0.5))
    assert truncated_quotient(SeriesId.H1, 0.5, 30) == pytest.approx(want, rel=1e-14)
    want = float(hp_oracles.h2(0.25))
    assert truncated_quotient(SeriesId.H2, 0.25, 30) == pytest.approx(want, rel=1e-14)
    # 18 terms, as h_eval uses, are enough right up to its switch at θ = 2
    for sid in SeriesId:
        want = float(hp_oracles.H_FUNCS[sid.value.lower()](1.999))
        assert truncated_quotient(sid, 1.999, 18) == pytest.approx(want, rel=1e-15)


def test_truncated_eval_tail_shrinks_geometrically():
    for sid in SeriesId:
        for x in (0.1, 0.5):
            coarse = truncated_quotient(sid, x, 8)
            fine = truncated_quotient(sid, x, 16)
            assert abs(coarse - fine) < x ** 14


def test_lookup_validation():
    assert series("h2") is series("H2") is series(SeriesId.H2)
    with pytest.raises(ParameterError):
        series("H9")
    with pytest.raises(ParameterError):
        series("h9")
    with pytest.raises(ParameterError):
        difference_sign_check("H1", depth=0)


def test_series_submodule_is_not_shadowed():
    import meanslab.series as module

    assert module.difference_sign_check is difference_sign_check
    assert module.series("h2") is series("H2")
