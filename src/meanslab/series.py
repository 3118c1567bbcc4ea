"""Exact rational power-series data behind the three comparison lemmas.

Each of the three ratio functions handled by :mod:`meanslab.ratios` is a
quotient of two entire functions whose Taylor coefficients are known in
closed form.  This module owns those coefficients as exact rationals
(:class:`fractions.Fraction`), the closed forms of the coefficient ratios
c_n = a_n/b_n, and the closed forms of the consecutive differences
c_{n+1} - c_n, whose constant sign is what makes the quotients monotone.

Everything here is exact integer arithmetic; the only floating point is the
truncated evaluator at the bottom, which the fast numeric path shares.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "SeriesId",
    "LemmaSeries",
    "DifferenceReport",
    "series",
    "coefficient_ratio",
    "consecutive_difference",
    "difference_sign_check",
    "truncated_series_eval",
    "coefficient_floats",
]


class SeriesId(enum.Enum):
    H1 = "H1"
    H2 = "H2"
    H3 = "H3"


def _fact(n: int) -> int:
    return math.factorial(n)


# ---- H1: (sinh θ - θ) / (2θ sinh²θ); both sides carry a common θ³ factor


def _h1_num(n: int) -> Fraction:
    return Fraction(1, _fact(2 * n + 3))


def _h1_den(n: int) -> Fraction:
    return Fraction(2 ** (2 * n + 2), _fact(2 * n + 2))


def _h1_ratio(n: int) -> Fraction:
    return Fraction(1, (2 * n + 3) * 2 ** (2 * n + 2))


def _h1_diff(n: int) -> Fraction:
    return Fraction(-(6 * n + 17), (2 * n + 3) * (2 * n + 5) * 2 ** (2 * n + 4))


# ---- H2: (1 - sinhθ/θ + sinh²θ/3) / (cosh θ - sinhθ/θ); common factor θ²


def _h2_num(n: int) -> Fraction:
    return Fraction((2 * n + 3) * 2 ** (2 * n + 2) - 6, 6 * _fact(2 * n + 3))


def _h2_den(n: int) -> Fraction:
    return Fraction(2 * n + 2, _fact(2 * n + 3))


def _h2_ratio(n: int) -> Fraction:
    return Fraction((2 * n + 3) * 2 ** (2 * n + 1) - 3, 6 * (n + 1))


def _h2_diff(n: int) -> Fraction:
    num = 3 + 7 * 2 ** (2 * n + 2) + 21 * n * 2 ** (2 * n + 1) + 3 * n * n * 2 ** (2 * n + 2)
    return Fraction(num, 6 * (n + 1) * (n + 2))


# ---- H3: (cosh θ - sinhθ/θ) / (1 + sinh²θ - sinhθ/θ); common factor θ²
# Its numerator is H2's denominator, so it reuses _h2_den.


def _h3_den(n: int) -> Fraction:
    return Fraction((2 * n + 3) * 2 ** (2 * n + 1) - 1, _fact(2 * n + 3))


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

    ``power_offset`` is the power of the expansion variable carried by the
    n = 0 term of the raw sums; it is common to numerator and denominator,
    so it cancels from the ratio and from everything checked here.
    ``expected_monotonicity`` is the direction the exact coefficient ratios
    c_n move in — which, coefficientwise, is what drives the quotient
    function itself up or down.  This is the one record of h1, h2 and h3:
    :mod:`meanslab.ratios` takes each function's id and direction from it.
    """

    id: SeriesId
    power_offset: int
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
    SeriesId.H1: LemmaSeries(SeriesId.H1, 3, _h1_num, _h1_den, _h1_ratio, _h1_diff, "decreasing"),
    SeriesId.H2: LemmaSeries(SeriesId.H2, 2, _h2_num, _h2_den, _h2_ratio, _h2_diff, "increasing"),
    SeriesId.H3: LemmaSeries(SeriesId.H3, 2, _h2_den, _h3_den, _h3_ratio, _h3_diff, "decreasing"),
}


def series(series_id: SeriesId | str) -> LemmaSeries:
    """Look up the record of one lemma quotient by SeriesId or name ('H2' or 'h2')."""
    if isinstance(series_id, str):
        series_id = series_id.upper()
    try:
        return _REGISTRY[SeriesId(series_id)]
    except (KeyError, ValueError):
        raise ParameterError(f"unknown series id {series_id!r}") from None


def coefficient_ratio(series_id: SeriesId | str, n: int) -> Fraction:
    """c_n = a_n/b_n, computed both from the coefficients and from the
    simplified closed form; the two exact routes must agree."""
    if n < 0:
        raise ParameterError("coefficient index must be >= 0")
    s = series(series_id)
    from_coeffs = s.numerator_coeff(n) / s.denominator_coeff(n)
    from_closed = s.ratio_closed(n)
    if from_coeffs != from_closed:
        raise ArithmeticError(
            f"{s.id.value}: ratio mismatch at n={n}: {from_coeffs} vs {from_closed}"
        )
    return from_closed


def consecutive_difference(series_id: SeriesId | str, n: int) -> Fraction:
    """c_{n+1} - c_n, again via two independent exact routes that must agree."""
    if n < 0:
        raise ParameterError("coefficient index must be >= 0")
    s = series(series_id)
    direct = coefficient_ratio(series_id, n + 1) - coefficient_ratio(series_id, n)
    closed = s.difference_closed(n)
    if direct != closed:
        raise ArithmeticError(
            f"{s.id.value}: difference mismatch at n={n}: {direct} vs {closed}"
        )
    return closed


@dataclass(frozen=True)
class DifferenceReport:
    """Outcome of checking the signs of c_{n+1} - c_n for n < depth.

    ``first_failure`` is the smallest n at which either the sign disagrees
    with the expected direction or the directly computed difference does not
    equal its closed form; None when every index checks out.
    """

    series_id: SeriesId
    depth: int
    expected_monotonicity: str
    first_difference: Fraction
    first_failure: int | None
    passed: bool


def difference_sign_check(series_id: SeriesId | str, depth: int = 200) -> DifferenceReport:
    """Check, exactly, that the coefficient-ratio differences keep one sign.

    A mismatch is reported in the verdict rather than raised: the point of
    the check is to produce a record of how far the monotonicity pattern
    was verified.
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
        if direct != closed or not sign_ok:
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


def truncated_series_eval(series_id: SeriesId | str, x, depth: int):
    """Evaluate the quotient of the two depth-term partial sums at ``x``.

    Both partial sums run over powers x^(2n) — the common offset factor has
    already cancelled — so the result approximates the lemma quotient
    itself and tends to ``limit_at_zero`` as x → 0.  Requires 0 <= x < 1
    (callers only need the unit interval, where the geometric tail bound
    is stated) and depth >= 2 so at least one non-constant term is kept.
    Accepts a scalar or an array.
    """
    if depth < 2:
        raise ParameterError("depth must be >= 2")
    x = np.asarray(x, dtype=np.float64)
    if not (np.isfinite(x).all() and (x >= 0.0).all() and (x < 1.0).all()):
        raise DomainError("series evaluation needs 0 <= x < 1")
    num_c, den_c = coefficient_floats(series_id, depth)
    x2 = x * x
    out = _horner(num_c, x2) / _horner(den_c, x2)
    return float(out) if out.ndim == 0 else out
