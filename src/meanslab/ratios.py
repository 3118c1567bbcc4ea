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
monotonicity.  Long θ arrays go through the mean kernels' blocked walk:
2^14 θ at a time, with the same bits as one call.  A scan walks its grid
2^12 θ at a time, with the bits of one whole-grid scan, and fails on a NaN
step as on a wrong-signed one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from mpmath.libmp import (
    from_float, from_int, mpf_abs, mpf_add, mpf_asinh, mpf_div, mpf_mul, mpf_shift, mpf_sqrt, mpf_sub, to_float,
)

from .errors import DegeneratePairError, DomainError, ParameterError
from .means import _BLOCK, PositivePair, _all, _canon, _in_blocks, _mean_gap, _ret, _where
from .series import SeriesId, series

__all__ = [
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
# each h's a_n and b_n as the nearest doubles, highest power first, for _horner
_SERIES_COEFFS = {sid: [[float(coeff(n)) for n in reversed(range(_SERIES_DEPTH))]
                        for coeff in (series(sid).numerator_coeff, series(sid).denominator_coeff)] for sid in SeriesId}


def _horner(coeffs_high_first: list[float], x2):
    """Σ c_n·x2ⁿ by Horner's rule, elementwise over ``x2``, c_n highest power first."""
    acc = 0.0
    for c in coeffs_high_first:
        acc = acc * x2 + c
    return acc


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
    num, den = _SERIES_COEFFS[sid]
    return _horner(num, x2) / _horner(den, x2)


def h_eval(which, theta):
    """Evaluate one of the ratio functions at 0 <= θ <= 300 (scalar or array).

    ``which`` is a SeriesId or a name such as 'h2'.  Below θ = 2 the value
    is the quotient of the function's numerator and denominator power
    series (which also covers h(0) = limit_at_zero); from θ = 2 on it is
    the closed form.  An array longer than 2^14 θ is evaluated block by
    block into one C-ordered output, as the mean kernels are, with the same
    bits as one call; a θ out of range in any block raises the
    ``DomainError`` of the first such block.
    """
    sid = series(which).id
    if type(theta) is float:  # one θ runs as a Python float, as one pair does in the kernels
        return float(_h_block(sid, theta))
    th = np.asarray(theta, dtype=np.float64)
    if th.size <= _BLOCK:
        return _ret(_h_block(sid, th[()]))  # a 0-d θ runs as a numpy scalar
    return _in_blocks(partial(_h_block, sid), th)


def _h_block(sid: SeriesId, th):
    # Every step acts element by element: _all(small) only picks between two
    # paths that give each element the same value, so blocks keep the bits.
    # The comparisons are False for NaN, so this also rejects non-finite θ.
    if not _all((th >= 0.0) & (th <= _THETA_MAX)):
        raise DomainError(f"h functions are evaluated for 0 <= θ <= {_THETA_MAX:g}")
    small = th < _SERIES_CUT
    everywhere = _all(small)
    x2 = th * th if everywhere else _where(small, th * th, 0.0)
    out = _series_lane(sid, x2)
    if not everywhere:
        out = _where(small, out, _closed_form(sid, _where(small, _SERIES_CUT, th)))
    return out


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


# θ per piece of a monotonicity scan.  On a shared 2-core Xeon: the three
# scans at grid 10^5 (median of five, in each of two processes), how far they
# lifted the process's max RSS, and the tracemalloc peak of one 10^6 scan:
#   whole ranges, 2 threads   51-85 ms   4.7-6.6 MB   32.8 MiB
#   2^10                     122-143 ms   0.4 MB        0.10 MiB
#   2^11                      72-94 ms    0.4 MB        0.19 MiB
#   2^12                      59-61 ms    0.4 MB        0.38 MiB
#   2^13                      46-56 ms    0.4-0.5 MB    0.76 MiB
#   2^14                      55-65 ms    1.7 MB        1.52 MiB
# From 2^14 on the scan lifts max RSS again; below 2^12 the fixed cost of
# each piece's calls dominates its time.
_SCAN_PIECE = 1 << 12


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
    verdict records the smallest correctly-signed step, NaN if a step is
    NaN, and the left end of the first step, in grid order, that does not
    move that way, a NaN step included.  The second range goes past θ*
    because the underlying monotonicity claim is for all θ > 0, not just the
    part that pairs can reach.

    Each range is walked ``_SCAN_PIECE`` points at a time, with the bits of
    ``np.linspace`` and ``np.diff`` over the whole range: a piece's θ are
    its indices times the step plus the left end, the step into a piece
    starts from the previous piece's last value, and the gaps are folded in
    grid order.
    """
    if grid < 2:
        raise ParameterError("grid must be >= 2")
    s = series(which)
    sign = -1.0 if s.expected_monotonicity == "decreasing" else 1.0
    min_gap = math.inf
    first_violation = None
    for left, right in ((THETA_STAR / grid, THETA_STAR), (THETA_STAR, 10.0)):
        step = (right - left) / (grid - 1)  # np.linspace's step
        last = h_eval(s.id, left)  # point 0: 0·step + left is left
        for start in range(0, grid - 1, _SCAN_PIECE):
            stop = min(start + _SCAN_PIECE, grid - 1)
            # points start..stop, the left ends of steps start..stop - 1 and
            # the right end of the last; point start is the previous piece's last
            thetas = np.arange(start, stop + 1, dtype=np.float64)
            thetas *= step
            thetas += left
            if stop == grid - 1:
                thetas[-1] = right
            values = h_eval(s.id, thetas[1:])  # at most 2^12 θ: one block
            gaps = np.diff(values, prepend=last)
            gaps *= sign  # ±1.0 keeps the bits
            last = values[-1]
            least = float(gaps.min())  # NaN if a gap is NaN
            if math.isnan(least) or least < min_gap:
                min_gap = least
            if first_violation is None and not least > 0.0:
                first_violation = float(thetas[np.argmin(gaps > 0.0)])  # the first False
    return ScanVerdict(
        series_id=s.id,
        direction=s.expected_monotonicity,
        grid=grid,
        passed=first_violation is None,
        min_gap=min_gap,
        first_violation=first_violation,
    )
