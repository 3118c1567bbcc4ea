"""Exact rational power-series data behind the three comparison lemmas.

Each of the three ratio functions handled by :mod:`meanslab.ratios` is a
quotient of two entire functions whose Taylor coefficients are known in
closed form.  This module owns those coefficients, exactly, as numerators
over the (2n+3)! that a_n and b_n share; the closed forms of the
differences c_{n+1} - c_n of the ratios c_n = a_n/b_n, whose constant sign
is what makes the quotients monotone; and :func:`difference_sign_check`,
the one exact check of those closed forms against the coefficients.

Everything here is exact integer and rational arithmetic; the doubles
that :func:`meanslab.ratios.h_eval` sums below θ = 2 are rounded from
these coefficients in :mod:`meanslab.ratios`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from typing import Callable

from .errors import ParameterError

__all__ = [
    "SeriesId",
    "LemmaSeries",
    "DifferenceReport",
    "difference_sign_check",
]


class SeriesId(enum.Enum):
    H1 = "H1"
    H2 = "H2"
    H3 = "H3"


def _x(n: int) -> int:
    # X = 4^n, as a shift: each closed form below is a polynomial in n and X
    return 1 << 2 * n


# ---- H1: (sinh θ - θ) / (2θ sinh²θ); both sides carry a common θ³ factor


def _h1_num(n: int) -> int:
    return 1


def _h1_den(n: int) -> int:
    return 4 * (2 * n + 3) * _x(n)


def _h1_diff(n: int) -> Fraction:
    return Fraction(-(6 * n + 17), 16 * (2 * n + 3) * (2 * n + 5) * _x(n))


# ---- H2: (1 - sinhθ/θ + sinh²θ/3) / (cosh θ - sinhθ/θ); common factor θ²


def _h2_num(n: int) -> Fraction:
    return Fraction(4 * (2 * n + 3) * _x(n) - 6, 6)


def _h2_den(n: int) -> int:
    return 2 * n + 2


def _h2_diff(n: int) -> Fraction:
    return Fraction(3 + (12 * n * n + 42 * n + 28) * _x(n), 6 * (n + 1) * (n + 2))


# ---- H3: (cosh θ - sinhθ/θ) / (1 + sinh²θ - sinhθ/θ); common factor θ²
# Its numerator is H2's denominator, so it reuses _h2_den.


def _h3_den(n: int) -> int:
    return 2 * (2 * n + 3) * _x(n) - 1


def _h3_diff(n: int) -> Fraction:
    x = _x(n)
    return Fraction(-2 * (1 + (12 * n * n + 42 * n + 28) * x), ((4 * n + 6) * x - 1) * ((16 * n + 40) * x - 1))


@dataclass(frozen=True)
class LemmaSeries:
    """One numerator/denominator coefficient pair with its exact difference data.

    a_n and b_n are the coefficients of both sides over their common
    leading power of θ, so Σ a_n θ^(2n) / Σ b_n θ^(2n) is h itself;
    ``numerator(n)`` and ``denominator(n)`` are a_n and b_n times their
    shared (2n+3)!.  ``difference_closed(n)`` is c_{n+1} - c_n for the ratios
    c_n = a_n/b_n, and ``expected_monotonicity`` is the direction c_n moves
    in, which drives the quotient up or down.  This is the one record of
    h1–h3: :mod:`meanslab.ratios` takes each id and direction from it.
    """

    id: SeriesId
    numerator: Callable[[int], int | Fraction]
    denominator: Callable[[int], int]
    difference_closed: Callable[[int], Fraction]
    expected_monotonicity: str

    def numerator_coeff(self, n: int) -> Fraction:
        return Fraction(self.numerator(n), math.factorial(2 * n + 3))

    def denominator_coeff(self, n: int) -> Fraction:
        return Fraction(self.denominator(n), math.factorial(2 * n + 3))

    @property
    def limit_at_zero(self) -> Fraction:
        """a_0/b_0, the quotient's limit as x → 0⁺."""
        return Fraction(self.numerator(0), self.denominator(0))


_REGISTRY = {
    SeriesId.H1: LemmaSeries(SeriesId.H1, _h1_num, _h1_den, _h1_diff, "decreasing"),
    SeriesId.H2: LemmaSeries(SeriesId.H2, _h2_num, _h2_den, _h2_diff, "increasing"),
    SeriesId.H3: LemmaSeries(SeriesId.H3, _h2_den, _h3_den, _h3_diff, "decreasing"),
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

    ``first_failure`` is the smallest n at which c_{n+1} - c_n from the
    coefficients is not ``difference_closed(n)`` or that closed form is not
    of the expected sign; None when all check out.
    """

    series_id: SeriesId
    depth: int
    expected_monotonicity: str
    first_difference: Fraction
    first_failure: int | None
    passed: bool


def difference_sign_check(series_id: SeriesId | str, depth: int = 200) -> DifferenceReport:
    """Check exactly that c_{n+1} - c_n keeps one sign and equals its closed
    form for n < ``depth``.  A mismatch is reported in the verdict, not
    raised, so the verdict records how far the pattern was verified.
    """
    if depth < 1:
        raise ParameterError("depth must be >= 1")
    s = series(series_id)
    want_negative = s.expected_monotonicity == "decreasing"
    first_failure = None
    ratios = (Fraction(s.numerator(n), s.denominator(n)) for n in range(depth + 1))
    for n, (ratio, following) in enumerate(pairwise(ratios)):
        closed = s.difference_closed(n)
        sign_ok = closed != 0 and (closed < 0) == want_negative
        if following - ratio != closed or not sign_ok:
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

