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
A = (a + b)/2 and t = |a - b|/(a + b).

A kernel body reads its pairs from one ``_Pair``: the ordered, validated
(hi, lo) and the gap table formed from them, each entry once, when a body
first asks for it — (A, t), from ``_mean_gap``, the one place that forms
them; the mask of equal pairs; and L_p's log-ratio u with f(u).  A kernel
call makes one pair, or one per block of a long call; the catalog's lookup
makes one for all the kernels it evaluates on a block.

``MEANS`` is the one table of means: it maps each symbol the inequality
catalog is written in to the label reports print, the names the command
line accepts, the kernel, and the mean's two ends, from which the catalog
derives its sharp constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
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
# Each kernel body takes one ``_Pair`` of floats or same-shape arrays, and
# ``_elementwise`` makes it the public kernel.  Branchy formulas use the
# masked-lane idiom: ``_where`` picks the branch, and the unused lane is fed a
# harmless argument first so it cannot raise or emit warnings.  The lanes of
# an equal pair, which almost no input takes, are computed only for a block
# that has such a pair; the bits are the same, because np.where would have
# picked the same element values.

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
    """The public kernel ``(a, b, *params)`` of ``body(pair, *params)``, which
    reads the ``_Pair`` of (a, b); a body takes at most one param, as L_p's
    takes its order, and is the kernel's ``body`` attribute.  Arrays longer
    than ``_BLOCK`` go through the body a block at a time in ``_in_blocks``,
    one pair per block, with the same bits: every step of a body, its
    whole-array tests too, acts element by element.

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
            pair = _Pair(a, b)
            # no star call: it costs a float call 120 ns
            return float(body(pair, params[0]) if params else body(pair))
        # ints apart: folded into the test above, they cost floats 70-110 ns a call
        if type(a) in _PY_REALS and type(b) in _PY_REALS:
            return float(body(_Pair(float(a), float(b)), *params))
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.size <= _BLOCK and b.size <= _BLOCK:
            return _ret(body(_Pair(a, b), *params))
        # a partial, not a closure: a closure would make params a cell
        # variable, which slows every scalar call
        return _in_blocks(partial(_on_block, body, params), a, b)

    del kernel.__wrapped__  # callers pass (a, b) in either order, not the body's pair
    kernel.body = body
    return kernel


def _on_block(body, params, a, b):
    return body(_Pair(a, b), *params)


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
    # lo <= hi, so lo > 0 with hi finite covers both; a NaN, in hi or lo, fails its test
    if type(a) is float:  # one pair of Python floats, tested as they are
        hi, lo = (a, b) if a >= b else (b, a)
        if lo > 0.0 and hi < math.inf:
            return hi, lo
    else:
        hi, lo = np.maximum(a, b), np.minimum(a, b)
        if _least(lo) > 0.0 and _most(hi) < math.inf:
            return hi, lo
    raise DomainError("mean arguments must be positive finite reals")


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


def _mean_gap(hi, lo):
    """(A, t) of an ordered pair of floats or arrays: A = (hi + lo)/2 and the
    half-gap t = (hi - lo)/(hi + lo) in [0, 1].

    An element with hi > 2^1022 takes both from its halved pair, which is
    exact and keeps the sum finite; the others keep the formulas as written.
    t is 0 exactly at an equal pair: two distinct doubles differ by at least
    2^-53 of the smaller, so t > 2^-55 there.
    """
    half = 0.5
    if (hi if type(hi) is float else _most(hi)) > _TOP:  # one pair's float read directly
        top = hi > _TOP
        hi, lo = _where(top, 0.5 * hi, hi), _where(top, 0.5 * lo, lo)
        half = _where(top, 1.0, half)
    s = hi + lo
    return half * s, (hi - lo) / s


class _Pair:
    """One pair of floats, or a block of pairs, ordered and validated, with
    the gap table its kernel bodies read.  Each entry is formed at most once,
    when a body first asks for it, and lives as long as the pair does: a
    pair travels as an argument, so no state is shared between calls or
    threads.
    """

    __slots__ = ("hi", "lo", "_gap", "_equal", "_u", "_f_u")

    def __init__(self, a, b):
        self.hi, self.lo = _canon(a, b)
        self._gap = self._equal = self._u = self._f_u = None

    def mean_gap(self):
        """(A, t) of ``_mean_gap``."""
        if self._gap is None:
            self._gap = _mean_gap(self.hi, self.lo)
        return self._gap

    def equal(self):
        """The mask of equal pairs (a bool for one pair), or False where no
        pair is equal.  t = 0 and u = 0 exactly there."""
        if self._equal is None:
            equal = self.hi == self.lo
            self._equal = equal if _any(equal) else False
        return self._equal

    def log_ratio(self):
        """L_p's u = ln(hi/lo), 1 at an equal pair, with the mask of ``equal``
        that drops those lanes."""
        if self._u is None:
            hi, lo = self.hi, self.lo
            far = hi * 1e-300 > lo
            if _any(far):
                # hi/lo may not be representable there; the masked lanes divide by hi
                u = _where(far, np.log(hi) - np.log(lo), np.log1p((hi - lo) / _where(far, hi, lo)))
            else:
                u = np.log1p((hi - lo) / lo)
            equal = self.equal()
            self._u = (u if equal is False else _where(equal, 1.0, u)), equal
        return self._u

    def log_f(self):
        """f(u) of ``_log_f`` at ``log_ratio``."""
        if self._f_u is None:
            self._f_u = _log_f((self._u or self.log_ratio())[0])  # no method call once u is formed
        return self._f_u


@_elementwise
def arithmetic(pair):
    """(a + b)/2."""
    return pair.mean_gap()[0]


@_elementwise
def geometric(pair):
    """sqrt(a*b), computed as sqrt(a)*sqrt(b) so large inputs cannot overflow."""
    # sqrt(x)*sqrt(x) can land one ulp off x; equal arguments must return exactly.
    return _equal_as_hi(pair, np.sqrt(pair.hi) * np.sqrt(pair.lo))


@_elementwise
def harmonic(pair):
    """2ab/(a + b) as hi·(lo/A), or as lo·(hi/A) where lo/A is subnormal (a/b past 1e308)."""
    hi, lo, mean = pair.hi, pair.lo, pair.mean_gap()[0]
    q = lo / mean
    return _where(q < _TINY, lo * (hi / mean), hi * q) if _least(q) < _TINY else hi * q


@_elementwise
def centroidal(pair):
    """2(a² + ab + b²)/(3(a + b)), evaluated as A·(1 + t²/3)."""
    mean, t = pair.mean_gap()
    return mean * (1.0 + t * t / 3.0)


@_elementwise
def contraharmonic(pair):
    """(a² + b²)/(a + b), evaluated as A·(1 + t²)."""
    mean, t = pair.mean_gap()
    return mean * (1.0 + t * t)


@_elementwise
def root_square(pair):
    """sqrt((a² + b²)/2)."""
    hi, lo = pair.hi, pair.lo
    if _most(hi) > _TOP:  # as for A and t: hypot of the halved pair, doubled
        half = _where(hi > _TOP, 0.5, 1.0)
        return _equal_as_hi(pair, np.hypot(half * hi, half * lo) / math.sqrt(2.0) / half)
    return _equal_as_hi(pair, np.hypot(hi, lo) / math.sqrt(2.0))


def _equal_as_hi(pair, value):
    # value, but hi itself at an equal pair
    equal = pair.equal()
    return value if equal is False else _where(equal, pair.hi, value)


def _over_angle(pair, angle):
    # A·t/angle(t), and A at t = 0, an equal pair, where the masked lane is fed t = 1/2
    mean, t = pair.mean_gap()
    zero = pair.equal()
    if zero is False:
        return mean * (t / angle(t))
    ts = _where(zero, 0.5, t)
    return mean * _where(zero, 1.0, ts / angle(ts))


@_elementwise
def first_seiffert(pair):
    """(a - b)/(2 arcsin t) with t = (a - b)/(a + b); value a when a = b.

    The quotient t/arcsin(t) is well conditioned down to t = 0, but arcsin
    itself amplifies the rounding of t without bound as t -> 1 (lopsided
    pairs).  There we evaluate the same angle through its complement,
    arcsin(t) = pi/2 - 2*arcsin(sqrt(lo/(2A))), whose argument comes
    straight from the inputs with small relative error.  That form would
    cancel catastrophically at small t, so each half keeps its own lane.
    """
    mean, t = pair.mean_gap()
    near = t <= 0.5  # also where _over_angle feeds t = 0 its 1/2
    if _all(near):
        return _over_angle(pair, np.arcsin)
    flipped = 0.5 * math.pi - 2.0 * np.arcsin(np.sqrt(0.5 * (pair.lo / mean)))
    if not _any(near):  # every t > 1/2, so no pair is equal: the complement lane alone
        return mean * (t / flipped)
    return _over_angle(pair, lambda ts: _where(near, np.arcsin(ts), flipped))


@_elementwise
def second_seiffert(pair):
    """(a - b)/(2 arctan t) with t = (a - b)/(a + b); value a when a = b."""
    return _over_angle(pair, np.arctan)


@_elementwise
def neuman_sandor(pair):
    """(a - b)/(2 asinh t) with t = (a - b)/(a + b); value a when a = b.

    The quotient t/asinh(t) does not cancel as t -> 0, so like the Seiffert
    means it is evaluated as written down to the smallest t.
    """
    return _over_angle(pair, np.arcsinh)


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
    p = float(p)  # _order's check inline: the call costs a float call 60 ns
    if not math.isfinite(p):
        raise ParameterError("order p must be finite")
    return _generalized_logarithmic(a, b, p)


def _order(p) -> float:
    # an order of L_p as a float, refused unless finite
    p = float(p)
    if not math.isfinite(p):
        raise ParameterError("order p must be finite")
    return p


@_elementwise
def _generalized_logarithmic(pair, p):
    hi = pair.hi
    if abs(p) > _P_IS_INFINITE:
        return hi if p > 0.0 else pair.lo
    us, equal = pair.log_ratio()
    anchor = hi
    if abs(p) < _P_IS_ZERO:
        expo = us * np.exp(-us) / -np.expm1(-us) - 1.0
    elif abs(p) < 0.5:
        ratio = np.expm1(-abs(p) * us) / np.expm1(-us)
        y = math.copysign(1.0, p) * np.exp(-us * (1.0 + min(p, 0.0))) * ratio
        expo = (np.log1p(y) - math.log1p(p)) / p
    else:
        f_q = _log_f(abs(p + 1.0) * us) if p != -1.0 else 0.0
        expo = (f_q - pair.log_f()) / p
        if p < -1.0:
            anchor = np.power(hi, -1.0 / p) * np.power(pair.lo, (p + 1.0) / p)
            if equal is not False:  # equal pairs: e^expo > 1 could overflow hi
                expo = _where(equal, 0.0, expo)
    value = anchor * np.exp(expo)
    return value if equal is False else _where(equal, hi, value)


def _of_order(p: float):
    """L_p of one finite order p as a kernel of (a, b), with the ``body`` of a
    kernel: L_p on a ``_Pair``."""
    kernel = partial(generalized_logarithmic, p)
    kernel.body = partial(_generalized_logarithmic.body, p=p)
    return kernel


@_elementwise
def ch_difference(pair):
    """(a - b)²/(a + b): the gap between contraharmonic and arithmetic means, doubled.

    Equals 2(C - A) = 2A·t², and is evaluated as (hi - lo)·t; it is the natural
    yardstick the additive mean comparisons are measured against.
    """
    return (pair.hi - pair.lo) * pair.mean_gap()[1]


class Mean(NamedTuple):
    """One registry entry: the label reports print, every name the command
    line accepts for it (lower case), its kernel, and its two ends as A·φ(t):
    ``near``, the d in φ = 1 + d·t² + O(t⁴) at a = b, and ``far``, φ(1) at
    a/b → ∞, as text in the grammar of :func:`meanslab.constants.expr_value`."""

    label: str
    aliases: tuple[str, ...]
    kernel: Callable
    near: Fraction
    far: str


# The means the catalog is written over, by the symbol its statements use.
MEANS = {
    "A": Mean("arithmetic", ("arithmetic", "a"), arithmetic, Fraction(0), "1"),
    "G": Mean("geometric", ("geometric", "g"), geometric, Fraction(-1, 2), "0"),
    "H": Mean("harmonic", ("harmonic", "h"), harmonic, Fraction(-1), "0"),
    "Cbar": Mean("centroidal", ("centroidal",), centroidal, Fraction(1, 3), "4/3"),
    "C": Mean("contraharmonic", ("contraharmonic", "c"), contraharmonic, Fraction(1), "2"),
    "P": Mean("first-seiffert", ("first-seiffert", "seiffert1", "p"), first_seiffert, Fraction(-1, 6), "2/pi"),
    "T": Mean("second-seiffert", ("second-seiffert", "seiffert2", "t"), second_seiffert, Fraction(1, 3), "4/pi"),
    "Q": Mean("root-square", ("root-square", "quadratic", "q"), root_square, Fraction(1, 2), "sqrt(2)"),
    "M": Mean("neuman-sandor", ("neuman-sandor", "ns", "m"), neuman_sandor, Fraction(1, 6), "1/ln(1+sqrt(2))"),
    "I": Mean("L[0]", ("identric", "i"), _of_order(0.0), Fraction(-1, 6), "2/e"),
    "L": Mean("L[-1]", ("logarithmic", "l"), _of_order(-1.0), Fraction(-1, 3), "0"),
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
        return f"L[{format_float(p)}]", _of_order(p)
    for mean in MEANS.values():
        if key in mean.aliases:
            return mean.label, mean.kernel
    raise ParameterError(f"unknown mean name {text!r}")
