"""The three hyperbolic ratio functions and the substitution machinery.

Writing a = A(1 + t), b = A(1 - t) and t = sinh θ turns each comparison of
the asinh-based mean M with the quadratic-family means into a statement
about one of three ratios of entire functions of θ:

* h1(θ) = (sinh θ - θ) / (2θ sinh²θ)                      — decreasing,
* h2(θ) = (1 - sinhθ/θ + sinh²θ/3) / (cosh θ - sinhθ/θ)  — increasing,
* h3(θ) = (cosh θ - sinhθ/θ) / (1 + sinh²θ - sinhθ/θ)    — decreasing.

Pairs of positive reals only ever produce θ in (0, θ*] with
θ* = asinh(1) = ln(1 + √2), the image of t → 1, so the function
values at 0⁺ and θ* are exactly the sharp constants of the inequality
catalog.  This module evaluates the ratios accurately over the whole range
(the quotient of their power series below θ = 2, the closed form from
there on), checks the substitution identities numerically and scans
monotonicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath.libmp import (
    from_float, from_int, mpf_abs, mpf_add, mpf_asinh, mpf_div, mpf_mul, mpf_shift, mpf_sqrt, mpf_sub, to_float,
)

from .errors import DegeneratePairError, DomainError, ParameterError
from .means import PositivePair, _canon, _mean_gap, _ret
from .series import SeriesId, _horner, coefficient_floats, series

__all__ = [
    "TAU_H",
    "THETA_STAR",
    "IdentityResiduals",
    "ScanVerdict",
    "h_eval",
    "substitution_theta",
    "identity_residuals",
    "monotonicity_scan",
]

# Image of t -> 1 under θ = asinh(t): the right endpoint of the θ range
# that actual pairs can reach, correctly rounded (log(1 + sqrt 2) in
# doubles lands one ulp below it).
THETA_STAR = math.asinh(1.0)

# Not used by this package: the benchmark imports it to split its h_eval
# θ grids into a near-zero and a wider band, and keeps it until the
# benchmark is next changed.
TAU_H = 1e-3

# Largest θ that h_eval accepts.  Pairs only reach θ* and monotonicity_scan
# stops at 10, while sinh²θ overflows near θ ≈ 355 and turns the ratios
# into inf, 0 or NaN; the bound stays well below that.
_THETA_MAX = 300.0

# Both sides of h1-h3 are differences of near-equal terms for small θ, so
# below this cut each h is the quotient of its two power series (the common
# θ^k factor cancels, so nothing underflows even at θ = 1e-300).  At the
# cut the direct subtractions lose less than one bit, and 18 terms leave a
# tail far below an ulp.
_SERIES_CUT = 2.0
_SERIES_DEPTH = 18


def _closed_form(sid: SeriesId, th):
    """h at θ >= _SERIES_CUT from sinh and cosh, where nothing cancels badly."""
    s, c = np.sinh(th), np.cosh(th)
    sc = s / th
    if sid is SeriesId.H1:
        return (s - th) / (2.0 * th * s * s)
    if sid is SeriesId.H2:
        return (1.0 - sc + s * s / 3.0) / (c - sc)
    return (c - sc) / (1.0 + s * s - sc)


def _series_lane(sid: SeriesId, x2):
    """h below _SERIES_CUT: the quotient of its two power series in x2 = θ².

    Over a Python float it does the same IEEE operations, in the same order,
    as over a numpy scalar or array, so h_eval and identity_residuals share
    its bits.
    """
    num, den = coefficient_floats(sid, _SERIES_DEPTH)
    return _horner(num, x2) / _horner(den, x2)


def h_eval(which, theta):
    """Evaluate one of the ratio functions at 0 <= θ <= 300 (scalar or array).

    ``which`` is a SeriesId or a name such as 'h2'.  Below θ = 2 the value
    is the quotient of the function's numerator and denominator power
    series (which also covers h(0) = limit_at_zero); from θ = 2 on it is
    the closed form.
    """
    sid = series(which).id
    th = np.asarray(theta, dtype=np.float64)[()]  # a 0-d θ runs as a numpy scalar
    # the comparisons are False for NaN, so this also rejects non-finite θ
    if not ((th >= 0.0) & (th <= _THETA_MAX)).all():
        raise DomainError(f"h functions are evaluated for 0 <= θ <= {_THETA_MAX:g}")
    small = th < _SERIES_CUT
    everywhere = small.all()
    x2 = th * th if everywhere else np.where(small, th * th, 0.0)
    out = _series_lane(sid, x2)
    if not everywhere:
        out = np.where(small, out, _closed_form(sid, np.where(small, _SERIES_CUT, th)))
    return _ret(out)


def _gap_theta(pair: PositivePair) -> tuple[float, float]:
    # t = |a - b|/(a + b), as the kernels form it, and θ = asinh t
    if pair.degenerate:
        raise DegeneratePairError("equal arguments do not determine a θ")
    t = float(_mean_gap(*_canon(pair.a, pair.b), mean=False)[1])
    return t, math.asinh(t)


def substitution_theta(pair: PositivePair) -> float:
    """θ = asinh(|a - b|/(a + b)), the substitution variable of the proofs.

    Scale-free and symmetric; always lands in (0, θ*].  Equal arguments have
    no θ and raise.
    """
    return _gap_theta(pair)[1]


@dataclass(frozen=True)
class IdentityResiduals:
    """How well the four substitution identities hold on one pair.

    ``ratios`` holds the left-hand sides — (M-C)/CH, (C̄-M)/(Q-M),
    (Q-M)/(C-M), M/CH — computed with ``mpmath.libmp`` at 103 bits or more
    (see :func:`identity_residuals`) and rounded to nearest; ``residuals``
    holds the relative differences against the h-function values at θ as
    the fast evaluator produces them.
    """

    theta: float
    ratios: tuple[float, float, float, float]
    residuals: tuple[float, float, float, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals)


# Bits of the identity oracle: the 103 that 30 significant digits
# (mpmath's workdps(30)) set, raised for near-equal pairs.
_ORACLE_BITS = 103
_ONE, _THREE = from_int(1), from_int(3)


def identity_residuals(pair: PositivePair) -> IdentityResiduals:
    """Check the four mean-ratio identities behind the main comparisons.

    The mean differences on the left sides cancel catastrophically in
    doubles when a ≈ b (the interesting regime), so the left sides are
    computed from the exact a and b, with t = |a - b|/(a + b) and A = 1
    (every mean here is A times a function of t), by ``mpmath.libmp``
    operations rounded to nearest at p = max(103, 63 - 2e) bits, where
    e = math.frexp(t)[1]: C - M and Q - M are O(t²) and lose about
    2·log2(1/t) bits, so p keeps about 63 of them, and every pair with
    t >= 2^-21 runs at 103 bits.  The right sides are the ordinary
    double-precision evaluator's own bits: θ <= θ* < 2, so h1-h3 come from
    ``h_eval``'s series lane.  The residuals therefore measure exactly the
    error of the fast path.
    """
    t, theta = _gap_theta(pair)
    x2 = theta * theta
    h1, h2, h3 = (_series_lane(sid, x2) for sid in SeriesId)
    fast = (h1 - 0.5, h2, h3, 1.0 / (2.0 * t * theta))

    p, n = max(_ORACLE_BITS, 63 - 2 * math.frexp(t)[1]), "n"  # bits; round to nearest
    a, b = from_float(pair.a), from_float(pair.b)
    t = mpf_div(mpf_abs(mpf_sub(a, b, p, n)), mpf_add(a, b, p, n), p, n)
    t2 = mpf_mul(t, t, p, n)
    M = mpf_div(t, mpf_asinh(t, p, n), p, n)
    C = mpf_add(t2, _ONE, p, n)
    CH = mpf_shift(t2, 1)  # 2t², exact
    CBAR = mpf_add(mpf_div(t2, _THREE, p, n), _ONE, p, n)
    QM = mpf_sub(mpf_sqrt(C, p, n), M, p, n)
    exact = (mpf_div(mpf_sub(M, C, p, n), CH, p, n), mpf_div(mpf_sub(CBAR, M, p, n), QM, p, n),
             mpf_div(QM, mpf_sub(C, M, p, n), p, n), mpf_div(M, CH, p, n))
    residuals = tuple(
        to_float(mpf_div(mpf_abs(mpf_sub(from_float(v), r, p, n)), mpf_abs(r), p, n), rnd=n)
        for r, v in zip(exact, fast)
    )
    ratios = tuple(to_float(r, rnd=n) for r in exact)
    return IdentityResiduals(theta=theta, ratios=ratios, residuals=residuals)


@dataclass(frozen=True)
class ScanVerdict:
    """Result of a strict-monotonicity grid scan of one ratio function."""

    series_id: SeriesId
    direction: str
    grid: int
    passed: bool
    min_gap: float
    first_violation: float | None


def monotonicity_scan(which, grid: int) -> ScanVerdict:
    """Scan h over [θ*/grid, θ*] and [θ*, 10] on uniform grids.

    Consecutive values must move strictly in the function's direction; the
    verdict records the smallest correctly-signed step.  The second range
    goes past θ* because the underlying monotonicity claim is for all
    θ > 0, not just the part that pairs can reach.
    """
    if grid < 2:
        raise ParameterError("grid must be >= 2")
    s = series(which)
    sign = -1.0 if s.expected_monotonicity == "decreasing" else 1.0
    min_gap = math.inf
    first_violation = None
    for left, right in ((THETA_STAR / grid, THETA_STAR), (THETA_STAR, 10.0)):
        thetas = np.linspace(left, right, grid)
        values = h_eval(s.id, thetas)
        gaps = sign * np.diff(values)
        worst = int(np.argmin(gaps))
        min_gap = min(min_gap, float(gaps[worst]))
        if gaps[worst] <= 0.0 and first_violation is None:
            first_violation = float(thetas[worst])
    return ScanVerdict(
        series_id=s.id,
        direction=s.expected_monotonicity,
        grid=grid,
        passed=first_violation is None,
        min_gap=min_gap,
        first_violation=first_violation,
    )

