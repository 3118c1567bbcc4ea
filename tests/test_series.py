"""Exact coefficient data: ratios, differences, signs, float partial sums, imports."""

import ast
import dataclasses
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hp_oracles
from meanslab import ParameterError, SeriesId, difference_sign_check
from meanslab.series import _REGISTRY as SERIES_REGISTRY
from meanslab.series import series


def truncated_quotient(sid, x, depth):
    """Quotient of the two depth-term float partial sums at x (h_eval's lane below θ = 2)."""
    s = series(sid)
    num = np.array([float(s.numerator_coeff(n)) for n in range(depth)])
    den = np.array([float(s.denominator_coeff(n)) for n in range(depth)])
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


# The textbook coefficients, each over its own factorial: the reference the
# numerators over the shared (2n+3)! are checked against.
FACTORIAL_FORMS = {
    SeriesId.H1: (lambda n: Fraction(1, math.factorial(2 * n + 3)),
                  lambda n: Fraction(2 ** (2 * n + 2), math.factorial(2 * n + 2))),
    SeriesId.H2: (lambda n: Fraction((2 * n + 3) * 2 ** (2 * n + 2) - 6, 6 * math.factorial(2 * n + 3)),
                  lambda n: Fraction(2 * n + 2, math.factorial(2 * n + 3))),
    SeriesId.H3: (lambda n: Fraction(2 * n + 2, math.factorial(2 * n + 3)),
                  lambda n: Fraction((2 * n + 3) * 2 ** (2 * n + 1) - 1, math.factorial(2 * n + 3))),
}


@pytest.mark.parametrize("sid", list(SeriesId))
def test_numerators_over_the_shared_factorial_are_the_coefficients(sid):
    s = series(sid)
    a, b = FACTORIAL_FORMS[sid]
    for n in range(301):
        assert s.numerator_coeff(n) == a(n), n
        assert s.denominator_coeff(n) == b(n), n


def ratio(sid, n):
    """c_n = a_n/b_n, read from the numerators over the shared (2n+3)!."""
    s = series(sid)
    return Fraction(s.numerator(n), s.denominator(n))


def test_ratio_values():
    assert ratio("H1", 0) == Fraction(1, 12)
    assert ratio("H1", 1) == Fraction(1, 80)
    assert ratio("H2", 0) == Fraction(1, 2)
    assert ratio("H2", 1) == Fraction(37, 12)
    assert ratio("H3", 0) == Fraction(2, 5)
    assert ratio("H3", 1) == Fraction(4, 39)


def test_first_differences():
    assert series("H1").difference_closed(0) == Fraction(-17, 240)
    assert series("H2").difference_closed(0) == Fraction(31, 12)
    assert series("H3").difference_closed(0) == Fraction(-58, 195)


@pytest.mark.parametrize("sid", list(SeriesId))
def test_closed_forms_agree_with_coefficients_up_to_200(sid):
    # difference_sign_check compares the difference closed form with the
    # coefficient quotients at every n below its depth, up to c_201 - c_200
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


@pytest.mark.parametrize("sid", list(SeriesId))
def test_difference_signs_at_depth_2000(sid):
    rep = difference_sign_check(sid, depth=2000)
    assert rep.passed and rep.first_failure is None and rep.depth == 2000


@pytest.mark.parametrize("sid", list(SeriesId))
def test_tampered_numerator_is_caught_by_the_direct_difference(monkeypatch, sid):
    # a_1500 off, then b_1500 off: every difference up to c_1499 - c_1498 is
    # right, c_1500 - c_1499 is not
    good = series(sid)
    for side in ("numerator", "denominator"):
        coefficient = getattr(good, side)
        tampered = dataclasses.replace(good, **{side: lambda n: coefficient(n) + (n == 1500)})
        monkeypatch.setitem(SERIES_REGISTRY, sid, tampered)
        rep = difference_sign_check(sid, depth=2000)
        assert not rep.passed, side
        assert rep.first_failure == 1499, side


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
    # the constant terms alone: one float division of the exact a_0/b_0
    assert truncated_quotient("H1", 0.0, 18) == pytest.approx(1 / 12, rel=1e-15, abs=0.0)
    assert truncated_quotient("H2", 0.0, 18) == pytest.approx(1 / 2, rel=1e-15, abs=0.0)
    assert truncated_quotient("H3", 0.0, 18) == pytest.approx(2 / 5, rel=1e-15, abs=0.0)


def test_truncated_eval_converges_to_the_quotient():
    want = float(hp_oracles.h1(0.5))
    assert truncated_quotient(SeriesId.H1, 0.5, 30) == pytest.approx(want, rel=1e-14, abs=0.0)
    want = float(hp_oracles.h2(0.25))
    assert truncated_quotient(SeriesId.H2, 0.25, 30) == pytest.approx(want, rel=1e-14, abs=0.0)
    # 18 terms, as h_eval uses, are enough right up to its switch at θ = 2
    for sid in SeriesId:
        want = float(hp_oracles.H_FUNCS[sid.value.lower()](1.999))
        assert truncated_quotient(sid, 1.999, 18) == pytest.approx(want, rel=1e-15, abs=0.0)


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


def test_the_exact_layer_imports_only_the_standard_library():
    # series is exact only: no numpy, no mpmath, nothing of meanslab but its errors
    import meanslab.series as module

    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(("meanslab." if node.level else "") + (node.module or ""))
    assert "meanslab.errors" in imported
    outside = {name for name in imported - {"meanslab.errors"} if name.split(".")[0] not in sys.stdlib_module_names}
    assert outside == set()
