"""Exact rational power-series data behind the three comparison lemmas.

Each of the three ratio functions handled by :mod:`meanslab.ratios` is a
quotient of two entire functions whose Taylor coefficients are known in
closed form.  This module owns those coefficients as exact rationals
(:class:`fractions.Fraction`), the closed forms of the coefficient ratios
c_n = a_n/b_n, and the closed forms of the consecutive differences
c_{n+1} - c_n, whose constant sign is what makes the quotients monotone.
:func:`difference_sign_check` is the one exact check of both closed forms
against the coefficients.

Everything here is exact integer arithmetic; the only floating point is
:func:`coefficient_floats` and the Horner sum at the bottom, which
:func:`meanslab.ratios.h_eval` uses below θ = 2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import ParameterError

__all__ = [
    "SeriesId",
    "LemmaSeries",
    "DifferenceReport",
    "series",
    "difference_sign_check",
    "coefficient_floats",
]


class SeriesId(enum.Enum):
    H1 = "H1"
    H2 = "H2"
    H3 = "H3"


# ---- H1: (sinh θ - θ) / (2θ sinh²θ); both sides carry a common θ³ factor


def _h1_num(n: int) -> Fraction:
    return Fraction(1, math.factorial(2 * n + 3))


def _h1_den(n: int) -> Fraction:
    return Fraction(2 ** (2 * n + 2), math.factorial(2 * n + 2))


def _h1_ratio(n: int) -> Fraction:
    return Fraction(1, (2 * n + 3) * 2 ** (2 * n + 2))


def _h1_diff(n: int) -> Fraction:
    return Fraction(-(6 * n + 17), (2 * n + 3) * (2 * n + 5) * 2 ** (2 * n + 4))


# ---- H2: (1 - sinhθ/θ + sinh²θ/3) / (cosh θ - sinhθ/θ); common factor θ²


def _h2_num(n: int) -> Fraction:
    return Fraction((2 * n + 3) * 2 ** (2 * n + 2) - 6, 6 * math.factorial(2 * n + 3))


def _h2_den(n: int) -> Fraction:
    return Fraction(2 * n + 2, math.factorial(2 * n + 3))


def _h2_ratio(n: int) -> Fraction:
    return Fraction((2 * n + 3) * 2 ** (2 * n + 1) - 3, 6 * (n + 1))


def _h2_diff(n: int) -> Fraction:
    num = 3 + 7 * 2 ** (2 * n + 2) + 21 * n * 2 ** (2 * n + 1) + 3 * n * n * 2 ** (2 * n + 2)
    return Fraction(num, 6 * (n + 1) * (n + 2))


# ---- H3: (cosh θ - sinhθ/θ) / (1 + sinh²θ - sinhθ/θ); common factor θ²
# Its numerator is H2's denominator, so it reuses _h2_den.


def _h3_den(n: int) -> Fraction:
    return Fraction((2 * n + 3) * 2 ** (2 * n + 1) - 1, math.factorial(2 * n + 3))


def _h3_ratio(n: int) -> Fraction:
    return Fraction(2 * n + 2, (2 * n + 3) * 2 ** (2 * n + 1) - 1)


def _h3_diff(n: int) -> Fraction:
    num = 1 + 7 * 2 ** (2 * n + 2) + 21 * n * 2 ** (2 * n + 1) + 3 * n * n * 2 ** (2 * n + 2)
    den = (3 * 2 ** (2 * n + 1) + n * 2 ** (2 * n + 2) - 1) * (
        5 * 2 ** (2 * n + 3) + n * 2 ** (2 * n + 4) - 1
    )
    return Fraction(-2 * num, den)


@dataclass(frozen=True)
class LemmaSeries:
    """One numerator/denominator coefficient pair with its exact ratio data.

    The coefficients are those of both sides divided by their common
    leading power of θ, so Σ a_n θ^(2n) / Σ b_n θ^(2n) is h itself.
    ``expected_monotonicity`` is the direction the exact coefficient ratios
    c_n move in — which, coefficientwise, is what drives the quotient
    function itself up or down.  This is the one record of h1, h2 and h3:
    :mod:`meanslab.ratios` takes each function's id and direction from it.
    """

    id: SeriesId
    numerator_coeff: Callable[[int], Fraction]
    denominator_coeff: Callable[[int], Fraction]
    ratio_closed: Callable[[int], Fraction]
    difference_closed: Callable[[int], Fraction]
    expected_monotonicity: str

    @property
    def limit_at_zero(self) -> Fraction:
        """a_0/b_0, the quotient's limit as x → 0⁺."""
        return self.ratio_closed(0)


_REGISTRY = {
    SeriesId.H1: LemmaSeries(SeriesId.H1, _h1_num, _h1_den, _h1_ratio, _h1_diff, "decreasing"),
    SeriesId.H2: LemmaSeries(SeriesId.H2, _h2_num, _h2_den, _h2_ratio, _h2_diff, "increasing"),
    SeriesId.H3: LemmaSeries(SeriesId.H3, _h2_den, _h3_den, _h3_ratio, _h3_diff, "decreasing"),
}


def series(series_id: SeriesId | str) -> LemmaSeries:
    """Look up the record of one lemma quotient by SeriesId or name ('H2' or 'h2')."""
    if isinstance(series_id, str):
        series_id = series_id.upper()
    try:
        return _REGISTRY[SeriesId(series_id)]
    except (KeyError, ValueError):
        raise ParameterError(f"unknown series id {series_id!r}") from None


@dataclass(frozen=True)
class DifferenceReport:
    """Outcome of checking the signs of c_{n+1} - c_n for n < depth.

    ``first_failure`` is the smallest n at which the sign disagrees with the
    expected direction, the coefficient quotient a_n/b_n does not equal
    ``ratio_closed(n)``, or the directly computed difference does not equal
    ``difference_closed(n)``; None when every index checks out.
    """

    series_id: SeriesId
    depth: int
    expected_monotonicity: str
    first_difference: Fraction
    first_failure: int | None
    passed: bool


def difference_sign_check(series_id: SeriesId | str, depth: int = 200) -> DifferenceReport:
    """Check, exactly, that the coefficient-ratio differences keep one sign.

    Along the way both closed forms are compared with the coefficients, so
    this is also the check that ``ratio_closed`` and ``difference_closed``
    are right below ``depth``.  A mismatch is reported in the verdict
    rather than raised: the point of the check is to produce a record of
    how far the monotonicity pattern was verified.
    """
    if depth < 1:
        raise ParameterError("depth must be >= 1")
    s = series(series_id)
    want_negative = s.expected_monotonicity == "decreasing"
    first_failure = None
    ratios = [s.numerator_coeff(n) / s.denominator_coeff(n) for n in range(depth + 1)]
    for n in range(depth):
        closed = s.difference_closed(n)
        direct = ratios[n + 1] - ratios[n]
        sign_ok = closed != 0 and (closed < 0) == want_negative
        if ratios[n] != s.ratio_closed(n) or direct != closed or not sign_ok:
            first_failure = n
            break
    return DifferenceReport(
        series_id=s.id,
        depth=depth,
        expected_monotonicity=s.expected_monotonicity,
        first_difference=s.difference_closed(0),
        first_failure=first_failure,
        passed=first_failure is None,
    )


@lru_cache(maxsize=None)
def coefficient_floats(series_id: SeriesId | str, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients a_0..a_{depth-1} and b_0..b_{depth-1} as doubles.

    float(Fraction) rounds to nearest, so each entry is the correctly
    rounded value of the exact rational.  The arrays are cached and shared.
    """
    s = series(series_id)
    num = np.array([float(s.numerator_coeff(n)) for n in range(depth)])
    den = np.array([float(s.denominator_coeff(n)) for n in range(depth)])
    return num, den


def _horner(coeffs: np.ndarray, x2):
    """Σ coeffs[n]·x2ⁿ by Horner's rule, elementwise over ``x2``."""
    acc = np.zeros_like(x2)
    for c in coeffs[::-1]:
        acc = acc * x2 + c
    return acc
