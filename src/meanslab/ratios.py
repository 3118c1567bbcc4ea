"""The three hyperbolic ratio functions and the substitution machinery.

Writing a = A(1 + t), b = A(1 - t) and t = sinh θ turns each comparison of
the asinh-based mean M with the quadratic-family means into a statement
about one of three ratios of entire functions of θ:

* h1(θ) = (sinh θ - θ) / (2θ sinh²θ)                      — decreasing,
* h2(θ) = (1 - sinhθ/θ + sinh²θ/3) / (cosh θ - sinhθ/θ)  — increasing,
* h3(θ) = (cosh θ - sinhθ/θ) / (1 + sinh²θ - sinhθ/θ)    — decreasing.

Pairs of positive reals only ever produce θ in (0, θ*) with
θ* = ln(1 + √2) — that is asinh(1), the image of t → 1 — so the function
values at 0⁺ and θ* are exactly the sharp constants of the inequality
catalog.  This module evaluates the ratios accurately over the whole range
(the quotient of their power series below θ = 2, the closed form from
there on), checks the substitution identities numerically, scans
monotonicity, and solves the scalar root equation for the exponent p0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import BracketError, DegeneratePairError, DomainError, ParameterError
from .means import PositivePair
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
    "solve_p0",
    "m_to_ch_ratio",
]

# Image of t -> 1 under θ = asinh(t): the right endpoint of the θ range
# that actual pairs can reach.
THETA_STAR = math.log(1.0 + math.sqrt(2.0))

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


def h_eval(which, theta):
    """Evaluate one of the ratio functions at 0 <= θ <= 300 (scalar or array).

    ``which`` is a SeriesId or a name such as 'h2'.  Below θ = 2 the value
    is the quotient of the function's numerator and denominator power
    series (which also covers h(0) = limit_at_zero); from θ = 2 on it is
    the closed form.
    """
    sid = series(which).id
    th = np.asarray(theta, dtype=np.float64)
    # the comparisons are False for NaN, so this also rejects non-finite θ
    if not ((th >= 0.0) & (th <= _THETA_MAX)).all():
        raise DomainError(f"h functions are evaluated for 0 <= θ <= {_THETA_MAX:g}")
    small = th < _SERIES_CUT
    ts = np.where(small, th, 0.0)
    x2 = ts * ts
    num, den = coefficient_floats(sid, _SERIES_DEPTH)
    from_series = _horner(num, x2) / _horner(den, x2)
    from_closed = _closed_form(sid, np.where(small, _SERIES_CUT, th))
    out = np.where(small, from_series, from_closed)
    return float(out) if np.ndim(out) == 0 else out


def substitution_theta(pair: PositivePair) -> float:
    """θ = asinh(|a - b|/(a + b)), the substitution variable of the proofs.

    Scale-free and symmetric; always lands in (0, θ*).  Equal arguments have
    no θ and raise.
    """
    if pair.degenerate:
        raise DegeneratePairError("equal arguments do not determine a θ")
    hi, lo = (pair.a, pair.b) if pair.a >= pair.b else (pair.b, pair.a)
    return math.asinh((hi - lo) / (hi + lo))


@dataclass(frozen=True)
class IdentityResiduals:
    """How well the four substitution identities hold on one pair.

    ``ratios`` holds the left-hand sides — (M-C)/CH, (C̄-M)/(Q-M),
    (Q-M)/(C-M), M/CH — computed in 30-digit arithmetic and rounded;
    ``residuals`` holds the relative differences against the h-function
    values at θ as the fast evaluator produces them.
    """

    theta: float
    ratios: tuple[float, float, float, float]
    residuals: tuple[float, float, float, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals)


def identity_residuals(pair: PositivePair) -> IdentityResiduals:
    """Check the four mean-ratio identities behind the main comparisons.

    The mean differences on the left sides cancel catastrophically in
    doubles when a ≈ b (the interesting regime), so the left sides are
    computed with mpmath at 30 significant digits; the right sides use the
    ordinary double-precision evaluator.  The residuals therefore measure
    exactly the error of the fast path.
    """
    if pair.degenerate:
        raise DegeneratePairError("identities need two distinct values")
    theta = substitution_theta(pair)
    v1 = h_eval(SeriesId.H1, theta) - 0.5
    v2 = h_eval(SeriesId.H2, theta)
    v3 = h_eval(SeriesId.H3, theta)
    tf = abs(pair.a - pair.b) / (pair.a + pair.b)
    v4 = 1.0 / (2.0 * tf * math.asinh(tf))

    with mp.workdps(30):
        a, b = mp.mpf(pair.a), mp.mpf(pair.b)
        A = (a + b) / 2
        t = abs(a - b) / (a + b)
        M = A * t / mp.asinh(t)
        C = (a * a + b * b) / (a + b)
        CH = (a - b) ** 2 / (a + b)
        CBAR = 2 * (a * a + a * b + b * b) / (3 * (a + b))
        Q = mp.sqrt((a * a + b * b) / 2)
        r1 = (M - C) / CH
        r2 = (CBAR - M) / (Q - M)
        r3 = (Q - M) / (C - M)
        r4 = M / CH
        pairs = ((r1, v1), (r2, v2), (r3, v3), (r4, v4))
        residuals = tuple(float(abs(v - r) / abs(r)) for r, v in pairs)
        ratios = tuple(float(r) for r, _ in pairs)
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


def m_to_ch_ratio(t):
    """f(t) = 1/(2t·asinh t): the ratio M/CH as a function of the half-gap t.

    Strictly decreasing on (0, 1) with limit 1/(2 ln(1+√2)) at t → 1⁻,
    which is where the one-sided sharp bound of that comparison comes from.
    Scalar or array, t in (0, 1).
    """
    tt = np.asarray(t, dtype=np.float64)
    if not ((tt > 0.0).all() and (tt < 1.0).all()):
        raise DomainError("the ratio is considered on 0 < t < 1")
    out = 1.0 / (2.0 * tt * np.arcsinh(tt))
    return float(out) if np.ndim(out) == 0 else out


def solve_p0(tol: float = 1e-12) -> float:
    """Solve (p+1)^(1/p) = 2 ln(1+√2) on [1.5, 2.5] by bisection.

    The target function is continuous and changes sign across the bracket;
    bisection to an interval shorter than ``tol`` gives the root to full
    double precision.  Raises BracketError if the bracket ever fails to
    straddle, which would mean the implementation (not the math) is broken.
    """
    target = 2.0 * math.log(1.0 + math.sqrt(2.0))

    def g(p: float) -> float:
        return (p + 1.0) ** (1.0 / p) - target

    lo, hi = 1.5, 2.5
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if (glo > 0.0) == (ghi > 0.0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: g={glo}, {ghi}")
    while hi - lo >= tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # interval has collapsed to adjacent doubles
            break
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm > 0.0) == (glo > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)
