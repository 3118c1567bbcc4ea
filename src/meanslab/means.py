"""Bivariate means of positive reals.

Every mean in this module is symmetric in its two arguments, homogeneous of
degree one, and internal (strictly between ``min(a, b)`` and ``max(a, b)``
when the arguments differ).  Equal arguments are allowed everywhere and give
back the common value — the continuous extension — with ``PositivePair``
recording that the pair is degenerate so downstream ratio checks can skip it.

The mean functions accept plain floats or NumPy arrays of the same shape and
return the matching kind; scalar in, float out.  All of them normalise the
operands to (hi, lo) order first, which makes symmetry exact at the bit
level rather than merely up to rounding.

``MEANS`` is the one table of means: it maps each symbol the inequality
catalog is written in to the label reports print, the names the command
line accepts, and the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "TAU_P",
    "TAU_SERIES",
    "MEANS",
    "Mean",
    "PositivePair",
    "arithmetic",
    "geometric",
    "harmonic",
    "centroidal",
    "contraharmonic",
    "first_seiffert",
    "second_seiffert",
    "root_square",
    "neuman_sandor",
    "generalized_logarithmic",
    "ch_difference",
    "parse",
]

# Below this value of t = (hi - lo)/(hi + lo) the Neuman–Sándor quotient
# t/asinh(t) is replaced by its even Taylor polynomial.
TAU_SERIES = 1e-4

# Half-width of the parameter windows around p = 0 and p = -1 in which the
# generalized logarithmic mean uses its limit branches.  The closed form
# loses roughly |p|⁻¹-amplified digits near the removable singularities.
TAU_P = 1e-6


@dataclass(frozen=True)
class PositivePair:
    """Two positive finite reals, validated once at construction.

    ``degenerate`` records whether ``a == b``.  The means themselves are
    total on pairs, but inequality checks between *distinct* means only
    separate when the arguments differ, so samplers look at this flag.
    """

    a: float
    b: float
    degenerate: bool = field(init=False)

    def __post_init__(self) -> None:
        a = float(self.a)
        b = float(self.b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"pair must be finite, got ({self.a!r}, {self.b!r})")
        if a <= 0.0 or b <= 0.0:
            raise DomainError(f"pair must be positive, got ({a!r}, {b!r})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "degenerate", a == b)

    def as_tuple(self) -> tuple[float, float]:
        return (self.a, self.b)


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips ``x``, without a dangling .0."""
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


# --------------------------------------------------------------------------
# kernels
#
# Each kernel takes scalars or same-shape arrays.  Branchy formulas use the
# masked-lane idiom: np.where picks the branch, and the unused lane is fed a
# harmless argument first so it cannot raise or emit warnings.


def _canon(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    hi = np.maximum(a, b)
    lo = np.minimum(a, b)
    ok = np.isfinite(lo) & (lo > 0.0) & np.isfinite(hi)
    if not ok.all():
        raise DomainError("mean arguments must be positive finite reals")
    return hi, lo


def _ret(x):
    return float(x) if np.ndim(x) == 0 else x


def _half_gap(hi, lo):
    # t = (hi - lo)/(hi + lo), the scale-free half-gap in [0, 1).
    return (hi - lo) / (hi + lo)


def arithmetic(a, b):
    """(a + b)/2."""
    hi, lo = _canon(a, b)
    return _ret(0.5 * (hi + lo))


def geometric(a, b):
    """sqrt(a*b), computed as sqrt(a)*sqrt(b) so large inputs cannot overflow."""
    hi, lo = _canon(a, b)
    # sqrt(x)*sqrt(x) can land one ulp off x; equal arguments must return exactly.
    return _ret(np.where(hi == lo, hi, np.sqrt(hi) * np.sqrt(lo)))


def harmonic(a, b):
    """2ab/(a + b)."""
    hi, lo = _canon(a, b)
    return _ret(hi * (2.0 * lo / (hi + lo)))


def centroidal(a, b):
    """2(a² + ab + b²)/(3(a + b)), evaluated as A·(1 + t²/3)."""
    hi, lo = _canon(a, b)
    t = _half_gap(hi, lo)
    return _ret(0.5 * (hi + lo) * (1.0 + t * t / 3.0))


def contraharmonic(a, b):
    """(a² + b²)/(a + b), evaluated as A·(1 + t²)."""
    hi, lo = _canon(a, b)
    t = _half_gap(hi, lo)
    return _ret(0.5 * (hi + lo) * (1.0 + t * t))


def root_square(a, b):
    """sqrt((a² + b²)/2)."""
    hi, lo = _canon(a, b)
    return _ret(np.where(hi == lo, hi, np.hypot(hi, lo) / math.sqrt(2.0)))


def first_seiffert(a, b):
    """(a - b)/(2 arcsin t) with t = (a - b)/(a + b); value a when a = b.

    The quotient t/arcsin(t) is well conditioned down to t = 0, but arcsin
    itself amplifies the rounding of t without bound as t -> 1 (lopsided
    pairs).  There we evaluate the same angle through its complement,
    arcsin(t) = pi/2 - 2*arcsin(sqrt(lo/(hi+lo))), whose argument comes
    straight from the inputs with small relative error.  That form would
    cancel catastrophically at small t, so each half keeps its own lane.
    """
    hi, lo = _canon(a, b)
    t = _half_gap(hi, lo)
    ts = np.where(t == 0.0, 0.5, t)
    direct = np.arcsin(np.where(t <= 0.5, ts, 0.5))
    comp = np.sqrt(lo / (hi + lo))
    flipped = 0.5 * math.pi - 2.0 * np.arcsin(np.where(t > 0.5, comp, 0.5))
    angle = np.where(t <= 0.5, direct, flipped)
    quotient = np.where(t == 0.0, 1.0, ts / angle)
    return _ret(0.5 * (hi + lo) * quotient)


def second_seiffert(a, b):
    """(a - b)/(2 arctan t) with t = (a - b)/(a + b); value a when a = b."""
    hi, lo = _canon(a, b)
    t = _half_gap(hi, lo)
    ts = np.where(t == 0.0, 0.5, t)
    quotient = np.where(t == 0.0, 1.0, ts / np.arctan(ts))
    return _ret(0.5 * (hi + lo) * quotient)


def neuman_sandor(a, b):
    """The mean (a - b)/(2 asinh t) with t = (a - b)/(a + b).

    For t below ``TAU_SERIES`` the quotient t/asinh(t) switches to its even
    Taylor polynomial 1 + t²/6 - 17t⁴/360 + 367t⁶/15120; the omitted t⁸
    term is ~1e-34 at the switch point, far below double rounding.
    """
    hi, lo = _canon(a, b)
    t = _half_gap(hi, lo)
    small = t < TAU_SERIES
    x2 = np.square(np.where(small, t, 0.0))
    series = 1.0 + x2 * (1.0 / 6.0 + x2 * (-17.0 / 360.0 + x2 * (367.0 / 15120.0)))
    ts = np.where(small, 0.5, t)
    quotient = ts / np.arcsinh(ts)
    return _ret(0.5 * (hi + lo) * np.where(small, series, quotient))


def generalized_logarithmic(p, a, b):
    """The generalized logarithmic mean L_p(a, b).

    Three branches on the order:

    * ``|p| < TAU_P``        — identric limit (1/e)·(b^b/a^a)^(1/(b-a));
    * ``|p + 1| < TAU_P``    — logarithmic limit (b - a)/(ln b - ln a);
    * otherwise              — [(b^(p+1) - a^(p+1))/((p+1)(b-a))]^(1/p).

    The general branch works on the reduced variable d = (hi - lo)/lo, with
    z = (p+1)·log1p(d); when z is large enough to overflow expm1 it moves to
    log space.  Pairs with hi/lo > 1e300, where d or its products overflow,
    are evaluated from logarithms instead (``_glog_far``).  Equal arguments
    return the common value for every p.
    """
    p = float(p)
    if not math.isfinite(p):
        raise ParameterError("order p must be finite")
    hi, lo = _canon(a, b)
    far = hi * 1e-300 > lo
    if far.any():
        # each lane set gets neutral inputs where the final where() drops its result
        rest = generalized_logarithmic(p, np.where(far, 1.0, hi), np.where(far, 1.0, lo))
        return _ret(np.where(far, _glog_far(p, np.where(far, hi, 2.0), np.where(far, lo, 1.0)), rest))
    d = (hi - lo) / lo
    dd = np.where(d == 0.0, 1.0, d)

    if abs(p) < TAU_P:
        u = np.log1p(d)
        expo = np.where(d == 0.0, 0.0, (1.0 + d) * u / dd - 1.0)
        return _ret(lo * np.exp(expo))

    if abs(p + 1.0) < TAU_P:
        u = np.log1p(d)
        quotient = np.where(d == 0.0, 1.0, d / np.where(u == 0.0, 1.0, u))
        return _ret(lo * quotient)

    z = (p + 1.0) * np.log1p(d)
    big = z > 500.0
    zs = np.where(big, 1.0, z)
    ratio = np.expm1(zs) / ((p + 1.0) * dd)
    ratio = np.where(ratio <= 0.0, 1.0, ratio)  # masked lanes only
    plain = np.power(ratio, 1.0 / p)
    zb = np.where(big, z, 1.0)
    # Feed neutral values into the lanes the final where() discards: z > 500
    # forces p + 1 > 0, so the log argument is positive wherever it is used.
    denom = np.where(big, (p + 1.0) * dd, 1.0)
    log_ratio = zb + np.log1p(-np.exp(-zb)) - np.log(denom)
    overflowing = np.exp(np.where(big, log_ratio, 0.0) / p)
    quotient = np.where(d == 0.0, 1.0, np.where(big, overflowing, plain))
    return _ret(lo * quotient)


def _glog_far(p, hi, lo):
    # L_p from log hi, log lo and log(hi - lo), for hi/lo too large to form.
    log_lo = np.log(lo)
    ell = np.log(hi) - log_lo
    if abs(p) < TAU_P:
        # log I = log hi - 1 + lo·ln(hi/lo)/(hi - lo)
        return hi * np.exp(lo * ell / (hi - lo) - 1.0)
    if abs(p + 1.0) < TAU_P:
        return (hi - lo) / ell
    # L_p = lo·[(X^(p+1) - 1)/((p+1)(X - 1))]^(1/p) with X = hi/lo, where
    # log|X^(p+1) - 1| = max(z, 0) + log1p(-exp(-|z|)) for z = (p+1)·ln X.
    z = (p + 1.0) * ell
    log_gap = np.maximum(z, 0.0) + np.log1p(-np.exp(-np.abs(z)))
    log_quotient = log_gap - math.log(abs(p + 1.0)) - (np.log(hi - lo) - log_lo)
    return np.exp(log_lo + log_quotient / p)


def ch_difference(a, b):
    """(a - b)²/(a + b): the gap between contraharmonic and arithmetic means, doubled.

    Equals C(a,b) - A(a,b) scaled by 2, and 2A·t²; it is the natural yardstick
    the additive mean comparisons are measured against.
    """
    hi, lo = _canon(a, b)
    gap = hi - lo
    return _ret(gap * (gap / (hi + lo)))


class Mean(NamedTuple):
    """One registry entry: the label reports print, every name the command
    line accepts for it (lower case), and its kernel."""

    label: str
    aliases: tuple[str, ...]
    kernel: Callable


# The means the catalog is written over, by the symbol its statements use.
MEANS = {
    "A": Mean("arithmetic", ("arithmetic", "a"), arithmetic),
    "G": Mean("geometric", ("geometric", "g"), geometric),
    "H": Mean("harmonic", ("harmonic", "h"), harmonic),
    "Cbar": Mean("centroidal", ("centroidal",), centroidal),
    "C": Mean("contraharmonic", ("contraharmonic", "c"), contraharmonic),
    "P": Mean("first-seiffert", ("first-seiffert", "seiffert1", "p"), first_seiffert),
    "T": Mean("second-seiffert", ("second-seiffert", "seiffert2", "t"), second_seiffert),
    "Q": Mean("root-square", ("root-square", "quadratic", "q"), root_square),
    "M": Mean("neuman-sandor", ("neuman-sandor", "ns", "m"), neuman_sandor),
    "I": Mean("L[0]", ("identric", "i"), partial(generalized_logarithmic, 0.0)),
    "L": Mean("L[-1]", ("logarithmic", "l"), partial(generalized_logarithmic, -1.0)),
}

_GLOG_HEADS = ("l", "glog", "generalized-logarithmic")


def parse(text: str) -> tuple[str, Callable]:
    """Resolve a mean name as used on the command line to ``(label, kernel)``.

    Accepts the aliases in ``MEANS`` in any case, and ``L:<p>`` (or
    ``glog:<p>``, ``generalized-logarithmic:<p>``) for the generalized
    logarithmic mean of any finite order p, labelled ``L[p]``.
    """
    key = text.strip().lower()
    head, colon, tail = key.partition(":")
    if colon and head in _GLOG_HEADS:
        try:
            p = float(tail)
        except ValueError:
            p = math.nan
        if not math.isfinite(p):
            raise ParameterError(f"bad order in mean name {text!r}")
        return f"L[{format_float(p)}]", partial(generalized_logarithmic, p)
    for mean in MEANS.values():
        if key in mean.aliases:
            return mean.label, mean.kernel
    raise ParameterError(f"unknown mean name {text!r}")
