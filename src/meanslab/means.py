"""Bivariate means of positive reals.

Every mean in this module is symmetric in its two arguments, homogeneous of
degree one, and internal (strictly between ``min(a, b)`` and ``max(a, b)``
when the arguments differ).  Equal arguments are allowed everywhere and give
back the common value — the continuous extension — with ``PositivePair``
recording that the pair is degenerate so downstream ratio checks can skip it.

The mean functions accept plain floats or NumPy arrays that broadcast together
and return the matching kind; scalar in, float out.  Two Python floats, or
ints as ``float()`` makes them, take the float lane: the kernel's one body
runs on them as they are, so its arithmetic is Python's and only its
transcendental steps call numpy, with the bits of a one-element array.
Arrays longer than ``_BLOCK`` = 2^14 pairs are evaluated block by block into
one output, with the same bits as one whole-array evaluation.  All of them
normalise the operands to (hi, lo) order first, which makes symmetry exact
at the bit level rather than merely up to rounding.  Most are A·φ(t) with
A = (a + b)/2 and t = |a - b|/(a + b); ``_mean_gap`` is the one place that
forms A and t.

``MEANS`` is the one table of means: it maps each symbol the inequality
catalog is written in to the label reports print, the names the command
line accepts, and the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial, wraps
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
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
    "format_float",
    "parse",
]

@dataclass(frozen=True, slots=True)
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
# Each kernel body takes the ordered pair (hi, lo) of floats or same-shape
# arrays, and ``_elementwise`` makes it the public kernel.  Branchy formulas
# use the masked-lane idiom: ``_where`` picks the branch, and the unused lane
# is fed a harmless argument first so it cannot raise or emit warnings.  The
# lanes of an equal pair and of t = 0, which almost no input takes, are
# computed only for a block that has such a pair; the bits are the same,
# because np.where would have picked the same element values.

# Pairs per block of a long array, small enough that a block's temporaries
# stay in cache.  On a shared 2-core Xeon, the 14 kernels of the kernel-bands
# benchmark, summed over its three bands of 1e6 pairs (best of three, four
# rounds), took 773-845 ms at 2^12, 674-716 ms at 2^13, 597-724 ms at 2^14,
# 577-806 ms at 2^15, 601-823 ms at 2^16 and 1,313-1,531 ms on whole arrays.
# verify-all, which walks its samples in these blocks, took 0.91 s at 1e6
# pairs at 2^14, 0.96 s at 2^13, 1.04 s at 2^15, 1.27 s at 2^12 and 1.25 s at
# 2^16 (median of three rounds of three passes).
_BLOCK = 1 << 14


# The types of one pair that the float lane takes; bool, an int subclass, is not one.
_PY_REALS = (float, int)


def _elementwise(body):
    """The public kernel ``(a, b, *params)`` of ``body(hi, lo, *params)``,
    which validates and orders the pair with ``_canon``.  Arrays longer than
    ``_BLOCK`` go through the body a block at a time in ``_in_blocks``, with
    the same bits: every step of a body, its whole-array tests too, acts
    element by element.

    Two Python floats take the float lane: the body runs on them as they
    are, skipping numpy's scalar machinery.  Python's + - * / on floats are
    the IEEE operations numpy does, the transcendental steps are the same
    ufuncs, and the body's tests read a bool as they read a mask, so the
    lane keeps the bits of a one-element array.  A Python int takes it as
    ``float()`` makes it, which is how numpy converts it too; a bool does not.
    """

    @wraps(body)
    def kernel(a, b, *params):
        if type(a) is float and type(b) is float:
            return float(body(*_canon(a, b), *params))
        # ints apart: folded into the test above, they cost floats 70-110 ns a call
        if type(a) in _PY_REALS and type(b) in _PY_REALS:
            return float(body(*_canon(float(a), float(b)), *params))
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.size <= _BLOCK and b.size <= _BLOCK:
            return _ret(body(*_canon(a, b), *params))
        # a partial, not a closure: a closure would make params a cell
        # variable, which slows every scalar call
        return _in_blocks(partial(_ordered, body, params), a, b)

    del kernel.__wrapped__  # callers pass (a, b) in either order, not the body's (hi, lo)
    return kernel


def _ordered(body, params, a, b):
    return body(*_canon(a, b), *params)


def _in_blocks(block, *operands):
    """One C-ordered array of ``block(*pieces)`` over the operands broadcast
    together, a ``_BLOCK``-long piece of each at a time: the long path of
    every elementwise evaluator.  ``block`` must act element by element, so
    that the blocks give the bits of one call over the whole array.  numpy's
    buffered iterator copies at most one block of an operand it cannot walk
    in place, so the peak allocation stays near the output's for any layout.
    The blocks run in order on the calling thread, so the first bad block's
    error is the call's and no later block is evaluated.
    """
    flags = ["external_loop", "buffered", "zerosize_ok"]
    op_flags = [["readonly"]] * len(operands) + [["writeonly", "allocate"]]
    # order="C": a transposed operand must not make the output F-ordered
    with np.nditer([*operands, None], flags, op_flags, order="C", buffersize=_BLOCK) as it:
        for *pieces, out in it:
            out[...] = block(*pieces)
        return it.operands[-1]


def _canon(a, b):
    if type(a) is float:  # one pair of Python floats
        hi, lo = (a, b) if a >= b else (b, a)
    else:
        hi, lo = np.maximum(a, b), np.minimum(a, b)
    # lo <= hi, so lo > 0 with hi finite covers both; a NaN, in hi or lo, fails its test
    if not (_least(lo) > 0.0 and _most(hi) < math.inf):
        raise DomainError("mean arguments must be positive finite reals")
    return hi, lo


def _ret(x):
    return float(x) if np.ndim(x) == 0 else x


# The whole-block tests and the lane picks of the bodies.  One pair's bool,
# float or numpy scalar is read directly, which is cheaper, and so is a 0-d
# array's value.
def _any(x):
    return x.any() if type(x) is np.ndarray else x


def _all(x):
    return x.all() if type(x) is np.ndarray else x


def _where(mask, x, y):
    return np.where(mask, x, y) if type(mask) is np.ndarray else x if mask else y


def _most(x):
    # x.max() with no temporary array
    return x.max(initial=-math.inf) if type(x) is np.ndarray and x.ndim else x


def _least(x):
    return x.min(initial=math.inf) if type(x) is np.ndarray and x.ndim else x


# Past _TOP, hi + lo and hypot(hi, lo) can overflow; below _TINY a double is subnormal.
_TOP, _TINY = 2.0**1022, 2.0**-1022


def _mean_gap(hi, lo, mean=True, gap=True):
    """(A, t) of an ordered pair of floats or arrays: A = (hi + lo)/2 and the
    half-gap t = (hi - lo)/(hi + lo) in [0, 1]; a part not asked for is None.

    An element with hi > 2^1022 takes both from its halved pair, which is
    exact and keeps the sum finite; the others keep the formulas as written.
    """
    half = 0.5
    if _most(hi) > _TOP:
        top = hi > _TOP
        hi, lo = _where(top, 0.5 * hi, hi), _where(top, 0.5 * lo, lo)
        half = _where(top, 1.0, half)
    s = hi + lo
    return half * s if mean else None, (hi - lo) / s if gap else None


@_elementwise
def arithmetic(hi, lo):
    """(a + b)/2."""
    return _mean_gap(hi, lo, gap=False)[0]


@_elementwise
def geometric(hi, lo):
    """sqrt(a*b), computed as sqrt(a)*sqrt(b) so large inputs cannot overflow."""
    # sqrt(x)*sqrt(x) can land one ulp off x; equal arguments must return exactly.
    return _equal_as_hi(hi, lo, np.sqrt(hi) * np.sqrt(lo))


@_elementwise
def harmonic(hi, lo):
    """2ab/(a + b) as hi·(lo/A), or as lo·(hi/A) where lo/A is subnormal (a/b past 1e308)."""
    mean = _mean_gap(hi, lo, gap=False)[0]
    q = lo / mean
    return _where(q < _TINY, lo * (hi / mean), hi * q) if _least(q) < _TINY else hi * q


@_elementwise
def centroidal(hi, lo):
    """2(a² + ab + b²)/(3(a + b)), evaluated as A·(1 + t²/3)."""
    mean, t = _mean_gap(hi, lo)
    return mean * (1.0 + t * t / 3.0)


@_elementwise
def contraharmonic(hi, lo):
    """(a² + b²)/(a + b), evaluated as A·(1 + t²)."""
    mean, t = _mean_gap(hi, lo)
    return mean * (1.0 + t * t)


@_elementwise
def root_square(hi, lo):
    """sqrt((a² + b²)/2)."""
    if _most(hi) > _TOP:  # as for A and t: hypot of the halved pair, doubled
        half = _where(hi > _TOP, 0.5, 1.0)
        return _equal_as_hi(hi, lo, np.hypot(half * hi, half * lo) / math.sqrt(2.0) / half)
    return _equal_as_hi(hi, lo, np.hypot(hi, lo) / math.sqrt(2.0))


def _equal_as_hi(hi, lo, value):
    # value, but hi itself at an equal pair
    equal = hi == lo
    return _where(equal, hi, value) if _any(equal) else value


def _over_angle(mean, t, angle):
    # A·t/angle(t), and A at t = 0, where the masked lane is fed t = 1/2
    zero = t == 0.0
    if not _any(zero):
        return mean * (t / angle(t))
    ts = _where(zero, 0.5, t)
    return mean * _where(zero, 1.0, ts / angle(ts))


@_elementwise
def first_seiffert(hi, lo):
    """(a - b)/(2 arcsin t) with t = (a - b)/(a + b); value a when a = b.

    The quotient t/arcsin(t) is well conditioned down to t = 0, but arcsin
    itself amplifies the rounding of t without bound as t -> 1 (lopsided
    pairs).  There we evaluate the same angle through its complement,
    arcsin(t) = pi/2 - 2*arcsin(sqrt(lo/(2A))), whose argument comes
    straight from the inputs with small relative error.  That form would
    cancel catastrophically at small t, so each half keeps its own lane.
    """
    mean, t = _mean_gap(hi, lo)
    near = t <= 0.5  # also where _over_angle feeds t = 0 its 1/2
    if _all(near):
        return _over_angle(mean, t, np.arcsin)
    flipped = 0.5 * math.pi - 2.0 * np.arcsin(np.sqrt(0.5 * (lo / mean)))
    return _over_angle(mean, t, lambda ts: _where(near, np.arcsin(ts), flipped))


@_elementwise
def second_seiffert(hi, lo):
    """(a - b)/(2 arctan t) with t = (a - b)/(a + b); value a when a = b."""
    return _over_angle(*_mean_gap(hi, lo), np.arctan)


@_elementwise
def neuman_sandor(hi, lo):
    """(a - b)/(2 asinh t) with t = (a - b)/(a + b); value a when a = b.

    The quotient t/asinh(t) does not cancel as t -> 0, so like the Seiffert
    means it is evaluated as written down to the smallest t.
    """
    return _over_angle(*_mean_gap(hi, lo), np.arcsinh)


def _log_f(x):
    # f(x) = ln((1 - e^-x)/x) for x > 0, the log of L_p's quotient in u
    return np.log(-np.expm1(-x) / x)


# Orders this small give L_p = I in doubles.  The small-order lane cannot
# take them: expm1(-|p|·u) goes subnormal once |p|·u < 2.2e-308.
_P_IS_ZERO = 1e-100
# Orders this large give L_p = hi for p > 0 and lo for p < 0 in doubles, as the
# formula does up to |p| = 1.2e305, past which its |p + 1|·u can overflow.
_P_IS_INFINITE = 1e300


def generalized_logarithmic(p, a, b):
    """The generalized logarithmic mean L_p(a, b) = [(b^(p+1) - a^(p+1))/((p+1)(b-a))]^(1/p).

    Its limits are the identric mean I = L_0 and the logarithmic mean L_-1.
    In u = ln(hi/lo) the formula is exactly L_p = B·exp((f(|p+1|·u) - f(u))/p)
    with f from ``_log_f``, f(0) = 0, and the anchor B = hi for p >= -1,
    hi^(-1/p)·lo^((p+1)/p) for p < -1.  The exponent stays small, so nothing
    overflows up to hi/lo = 1.8e308.  Four lanes evaluate it:

    * ``|p| < 1e-100``  — I itself, ln(I/hi) = u·e^-u/(1 - e^-u) - 1: to first
      order ln(L_p/I) is p/2 times the variance of ln x for x uniform on
      [lo, hi], at most |p|·u²/8, below 1e-88 for every pair of doubles;
    * ``|p| < 1/2``     — where the f terms cancel: (p+1)·(L/hi)^p = 1 + y with
      y = sign(p)·e^(-u(1 + min(p, 0)))·expm1(-|p|u)/expm1(-u);
    * ``|p| > 1e300``   — hi for p > 0 and lo for p < 0, the values the
      formula takes in doubles there, where |p+1|·u may overflow;
    * otherwise         — the formula itself; p = -1 is its f(0) term.

    Equal arguments return the common value for every p.
    """
    p = float(p)
    if not math.isfinite(p):
        raise ParameterError("order p must be finite")
    return _generalized_logarithmic(a, b, p)


@_elementwise
def _generalized_logarithmic(hi, lo, p):
    if abs(p) > _P_IS_INFINITE:
        return hi if p > 0.0 else lo
    far = hi * 1e-300 > lo
    if _any(far):
        # hi/lo may not be representable there; the masked lanes divide by hi
        u = _where(far, np.log(hi) - np.log(lo), np.log1p((hi - lo) / _where(far, hi, lo)))
    else:
        u = np.log1p((hi - lo) / lo)
    equal = u == 0.0
    some_equal = _any(equal)
    us = _where(equal, 1.0, u) if some_equal else u  # equal pairs: dropped by the last where()
    anchor = hi
    if abs(p) < _P_IS_ZERO:
        expo = us * np.exp(-us) / -np.expm1(-us) - 1.0
    elif abs(p) < 0.5:
        ratio = np.expm1(-abs(p) * us) / np.expm1(-us)
        y = math.copysign(1.0, p) * np.exp(-us * (1.0 + min(p, 0.0))) * ratio
        expo = (np.log1p(y) - math.log1p(p)) / p
    else:
        f_q = _log_f(abs(p + 1.0) * us) if p != -1.0 else 0.0
        expo = (f_q - _log_f(us)) / p
        if p < -1.0:
            anchor = np.power(hi, -1.0 / p) * np.power(lo, (p + 1.0) / p)
            if some_equal:  # equal pairs: e^expo > 1 could overflow hi
                expo = _where(equal, 0.0, expo)
    value = anchor * np.exp(expo)
    return _where(equal, hi, value) if some_equal else value


@_elementwise
def ch_difference(hi, lo):
    """(a - b)²/(a + b): the gap between contraharmonic and arithmetic means, doubled.

    Equals 2(C - A) = 2A·t², and is evaluated as (hi - lo)·t; it is the natural
    yardstick the additive mean comparisons are measured against.
    """
    return (hi - lo) * _mean_gap(hi, lo, mean=False)[1]


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
