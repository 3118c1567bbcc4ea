"""Machine-checkable catalog of the sharp inequalities between the means.

Every record is declared in ``SPECS`` as one of five forms over the mean
symbols of :data:`meanslab.means.MEANS`, and that entry is its whole claim:
a sharp side names the end where its constant is attained, and the
constant's text, the claim it is sharp in and its probe's direction follow
from the spec and each mean's two ends.  :func:`build_record` reads the
spec once, refusing one outside the grammar of :class:`RecordSpec` (symbols
of a chain, a product or a window, or a quotient ``"Z-Y / X-W"``), and
binds the kernels and the vectorised margin function: positive margins mean
the inequality holds on that pair, and the attached
:class:`~meanslab.constants.SharpConstant` objects, listed by
:func:`sharp_constants`, are the claimed best-possible weights or bounds.
Thirteen records are the paper's linear relations between differences of
means, ``alpha*(X - W) < Z - Y < beta*(X - W)`` (``X - W`` may be ``CH``):
their margins are ``R - alpha`` and ``beta - R`` times the sign of
``X - W``, for ``R = (Z - Y)/(X - W)``, in the constant's own units.
Three things can be done with records:

* :func:`verify` — evaluate one record's margins on one pair; records
  verified in turn on the same pair share its mean values;
* :func:`verify_all` — sample many pairs (log-uniform in the ratio a/b,
  which is where sharpness lives) and aggregate minima and witnesses;
  records that share a sampler share one draw, made page by page so that
  memory does not grow with the sample count, and are evaluated block by
  block, each mean computed once per block for all of them
  (:func:`verify_random` is the one-record call);
* :func:`sharpness_probe` — tighten a sharp constant by ε and hunt for a
  violating pair near the endpoint where the constant is attained, which
  demonstrates that the constant cannot be improved.

Margins are classified against a noise threshold of 100 ulp of the means
they are formed from: a strict analytic inequality can round to equality in
doubles, so anything smaller in magnitude is reported as *indeterminate*
rather than as a pass or a failure, from 2^-1074 to 1.8e308 alike.
"""

from __future__ import annotations

import math
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import pairwise
from typing import Callable, NamedTuple

import numpy as np

from .constants import SharpConstant, _sharp_constant
from .errors import DegeneratePairError, NotApplicableError, ParameterError
from .means import (
    _PY_REALS, MEANS, Mean, PositivePair, _any, _generalized_logarithmic, _order, _Pair, _ret, _where, ch_difference,
)

__all__ = [
    "InequalityRecord",
    "MarginSample",
    "Margins",
    "ProbeResult",
    "ProbeSpec",
    "RecordSpec",
    "SPECS",
    "VerificationReport",
    "build_record",
    "catalog",
    "constant",
    "record",
    "sharp_constants",
    "verify",
    "verify_all",
    "verify_random",
    "sharpness_probe",
]

_EPS = float(np.finfo(np.float64).eps)
_NOISE = 100.0 * _EPS * 16.0  # 100 ulp of a noise sum, which is in 2^-4 units
_PROBE_STEPS = 64


class MarginSample(NamedTuple):
    """Raw signed margins for a batch of pairs plus their noise scales.

    A ``None`` side means the record makes no claim on that side.  Scales
    carry the magnitude of the quantities whose subtraction produced the
    margin, in units of 2^-4 (see :func:`_noise_sum`), so
    ``100 eps * 16 * scale`` bounds the rounding noise in it; for a quotient
    ``(Z - Y)/(X - W)`` that is the means' magnitudes over ``|X - W|``, plus
    1 for the rounding of the quotient itself.
    """

    lower: object
    upper: object
    lower_scale: object
    upper_scale: object


@dataclass(frozen=True)
class ProbeSpec:
    """How to attack one sharp constant: which side, which direction the
    tightening moves the constant, and the endpoint where violations live
    (``near`` is a/b → 1, ``far`` is a/b → ∞)."""

    side: str
    tighten: float
    endpoint: str


@dataclass(frozen=True)
class InequalityRecord:
    """One inequality with its margins and sharpness metadata.

    The form fixes the homogeneity degree, the sampler and the domain; see
    the properties below.  ``means_fn`` computes the margins from a lookup
    of mean values that records can share, and ``margin_fn`` on a pair: an
    array pair (the probes) gets a lookup of its own, and one scalar pair
    (:func:`verify`) shares the last pair's lookup with every record
    verified on it.  :func:`verify_all` shares one lookup per block.
    """

    id: str
    form: str
    lower: SharpConstant | None
    upper: SharpConstant | None
    probes: tuple[ProbeSpec, ...] = ()
    margin_fn: Callable = field(default=None, repr=False, compare=False)
    means_fn: Callable = field(default=None, repr=False, compare=False)

    @property
    def homogeneity_degree(self) -> int | None:
        """How margins respond to (a, b) → (λa, λb): degree 1 for
        mean-valued margins, 0 for ratio forms, 2 for the product form,
        ``None`` when the inequality is not scale-invariant at all."""
        return _FORMS[self.form].degree

    @property
    def sampler(self) -> str:
        """How :func:`verify_random` draws pairs: ``log-ratio`` everywhere,
        ``unit-interval`` inside a restricted domain."""
        return "log-ratio" if _FORMS[self.form].domain is None else "unit-interval"

    @property
    def domain_note(self) -> str | None:
        """The domain restriction of the inequality, if it has one."""
        return _domain_note(_FORMS[self.form].domain)

    def margins(self, a, b, *, lower_c: float | None = None, upper_c: float | None = None) -> MarginSample:
        """Margins on (a, b) with optional overrides for the constants.

        Overrides replace the record's lower/upper constant (for the
        exponent-window record, the L_p exponents); the probes use this to
        evaluate tightened variants of the inequality.
        """
        return self.margin_fn(a, b, lower_c, upper_c)


@lru_cache(maxsize=None)
def _domain_note(domain: tuple[float, float] | None) -> str | None:
    # made once: a pair outside the domain raises it on every verify
    return None if domain is None else "requires {} < a, b < {}".format(*map(Fraction, domain))


# --------------------------------------------------------------------------
# forms
#
# A form takes the record's kernels, as build_record made them from the
# spec's parse once, a lookup of the mean values on a pair (or arrays of pairs)
# and the two bounds in force (None where the record has no bound on that
# side), and returns the signed margins.  On one pair of floats the forms do
# Python's float arithmetic and call no numpy; they read its comparisons as
# bools, where an array's are masks.


class _Means(dict):
    """Mean values on one batch of pairs ``(a, b)``, keyed by kernel.  The
    lookup holds the one ``means._Pair`` of its pairs, so they are ordered
    and checked once and its gap table — (A, t), the equal pairs, L_p's u
    and f(u) — is formed once for every kernel; each kernel's body is
    evaluated on it at most once, when a form first asks for it.  The
    table's arrays are freed with the lookup."""

    __slots__ = ("a", "b", "pair")

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.pair = _Pair(a, b)

    def __missing__(self, kernel):
        value = self[kernel] = self.value(kernel.body)
        return value

    def value(self, body, *params):
        """``body`` on the lookup's pair, of the kind its public kernel returns."""
        value = body(self.pair, *params)
        return float(value) if type(self.a) is float else _ret(value)


@lru_cache(maxsize=1)
def _pair_means(a: float, b: float) -> _Means:
    # The last scalar pair's lookup: verify on one pair for every record
    # computes each mean once.  Arrays never come here.
    return _Means(a, b)


def _noise_sum(terms):
    """The sum of the terms (means, so positive) in 2^-4 units, which is
    exact in the normal range and keeps up to fifteen means finite.
    The start value counts each term as at least 2^-1022, which covers the
    absolute rounding noise of a subnormal mean and changes no sum whose
    first term is above about 1e-290."""
    total = len(terms) * 2.0**-1026
    for v in terms:  # sum() of a generator takes twice as long on one pair's floats
        total = total + 2.0**-4 * v
    return total


def _quotient_kernels(sides) -> tuple:
    # ((Z, Y), (X, W)) as the kernels (Z, Y, X, W), with None for a Y or W
    # left out, and the distinct means among them, the terms of R's noise sum.
    # R carries cancellation noise of order (Z + Y + X + W)/|X - W| ulp; CH is
    # computed without cancellation, so it adds none.
    kernels = tuple(s and _entry(s).kernel for side in sides for s in side)
    return kernels, tuple(k for k in dict.fromkeys(kernels) if k not in (None, ch_difference))


def _quotient(kernels, means, lo, up):
    # lo*(X - W) < Z - Y < up*(X - W) on R = (Z - Y)/(X - W), where an absent
    # Y or W leaves Z or X as it is
    (z, y, x, w), noisy = kernels
    num = means[z] if y is None else means[z] - means[y]
    den = means[x] if w is None else means[x] - means[w]
    zero = den == 0.0
    masked = _any(zero)  # X - W rounded to 0 leaves R unknown: margins 0
    if masked:
        den = _where(zero, 1.0, den)
    ratio, sign = num / den, _sign(den)
    scale = _noise_sum([means[k] for k in noisy]) / abs(den) + 2.0**-4  # means: no abs()
    lower = sign * (ratio - lo)
    upper = None if up is None else sign * (up - ratio)
    if masked:
        lower = _where(zero, 0.0, lower)
        upper = None if up is None else _where(zero, 0.0, upper)
    return MarginSample(lower, upper, scale, None if up is None else scale)


def _sign(x):
    # np.sign(x); on one pair's float, x + 0.0 is its 0.0 or NaN
    if type(x) is not float:
        return np.sign(x)
    return 1.0 if x > 0.0 else -1.0 if x < 0.0 else x + 0.0


def _minimum(x, y):
    # np.minimum(x, y), which passes a NaN on from either side
    if type(x) is not float or type(y) is not float:
        return np.minimum(x, y)
    return x if x < y or x != x else y


def _ordered(values):
    # Each value below the next: the smallest consecutive gap is the margin,
    # folded left to right, a NaN gap passed on
    gaps = (above - below for below, above in zip(values, values[1:]))
    return MarginSample(reduce(_minimum, gaps), None, _noise_sum(values), None)


def _chain(kernels, means, lo, up):
    return _ordered([means[k] for k in kernels])


def _ky_fan(kernels, means, lo, up):
    # the chain of X/X' with X' = X(1-a, 1-b), read off a lookup of the reflected pair
    reflected = _Means(1.0 - means.a, 1.0 - means.b)
    return _ordered([means[k] / reflected[k] for k in kernels])


def _product(kernels, means, lo, up):
    # X*Z < Y^2 < (X^2 + Z^2)/2.  Y^2 and X*Z are below X^2 + Z^2, so they
    # overflow only where that sum does, and (X^2 + Z^2)/2 is inf there:
    # inf - inf leaves the margins unknown, 0 as for a quotient over 0.
    # Arrays warn of that overflow and of inf - inf where floats do not.
    x, y, z = (means[k] for k in kernels)
    with nullcontext() if type(y) is float else np.errstate(over="ignore", invalid="ignore"):
        y2 = y * y
        low_ref = x * z
        up_ref = 0.5 * (x * x + z * z)
        lower, upper = y2 - low_ref, up_ref - y2
    over = up_ref == math.inf
    if _any(over):
        lower, upper = _where(over, 0.0, lower), _where(over, 0.0, upper)
    return MarginSample(lower, upper, _noise_sum((y2, low_ref)), _noise_sum((y2, up_ref)))


def _window(kernels, means, p, q):
    # L_p < X < L_q; the bounds in force are the exponents, and L_p is read
    # off the lookup's pair as a mean is
    m = means[kernels[0]]
    below = means.value(_generalized_logarithmic.body, _order(p))
    above = means.value(_generalized_logarithmic.body, _order(q))
    return MarginSample(m - below, above - m, _noise_sum((m, below)), _noise_sum((m, above)))


class _Form(NamedTuple):
    margins: Callable  # (kernels, means, lower bound, upper bound) -> MarginSample
    degree: int | None = 1
    domain: tuple[float, float] | None = None  # the open interval both arguments lie in
    shape: str = "{0}(?: {0})+"  # the means text as a regular expression, {0} a symbol of MEANS
    bounds: int = 0  # the sides, lower first, that need a bound; a form that needs none takes none


_FORMS = {
    "difference-ratio": _Form(_quotient, degree=0, shape="({0})(?:-({0}))? / (CH$|{0})(?:-({0}))?", bounds=1),
    "chain": _Form(_chain),
    "product-bound": _Form(_product, degree=2, shape="{0} {0} {0}"),
    "exponent-window": _Form(_window, shape="{0}", bounds=2),
    "ky-fan-chain": _Form(_ky_fan, degree=None, domain=(0.0, 0.5)),
}


# --------------------------------------------------------------------------
# the records


class RecordSpec(NamedTuple):
    """One catalog record, declared over the symbols of ``means.MEANS``.

    ``means`` lists the symbols one space apart, in the order the form takes
    them and none twice in a row: two or more in a chain, three for
    ``product-bound``, one for ``exponent-window``.  A ``difference-ratio``
    spec writes its quotient, ``"Z-Y / X-W"``, with Y and W optional but
    never Y = Z or W = X, or ``CH`` alone below the bar; it needs a lower
    side, the window both, and no other form takes one.  A side
    is ``None`` with no constant, a finite int or float for a fixed bound, or
    the end where its sharp constant ``{id}.lower`` or ``{id}.upper`` is
    attained, ``"near"`` (a = b) or ``"far"`` (a/b → ∞), which the other side
    does not share.  :func:`build_record` refuses any other spec.
    """

    id: str
    form: str
    means: str
    lower: str | float | None = None
    upper: str | float | None = None


SPECS = (
    RecordSpec("neuman-QA", "difference-ratio", "M-A / Q-A", "far", "near"),
    RecordSpec("neuman-CA", "difference-ratio", "M-A / C-A", "far", "near"),
    RecordSpec("zhao-HQ", "difference-ratio", "M-Q / H-Q", "near", "far"),
    RecordSpec("zhao-GQ", "difference-ratio", "M-Q / G-Q", "near", "far"),
    RecordSpec("zhao-HC", "difference-ratio", "M-C / H-C", "far", "near"),
    RecordSpec("identric-IQ", "difference-ratio", "M-Q / I-Q", "near", "far"),
    RecordSpec("thm3.1", "difference-ratio", "M-C / CH", "far", "near"),
    RecordSpec("thm3.2", "difference-ratio", "M / CH", "far"),
    RecordSpec("thm3.3", "difference-ratio", "Cbar-M / Q-M", "near", "far"),
    RecordSpec("thm3.4", "difference-ratio", "Q-M / C-M", "far", "near"),
    RecordSpec("cor3.1", "difference-ratio", "C-M / CH", "near", "far"),
    RecordSpec("cor3.2", "difference-ratio", "Cbar-M / CH", "near", "far"),
    RecordSpec("chain", "chain", "G L P A M T Q"),
    RecordSpec("lp0-l2", "exponent-window", "M", "far", 2.0),
    RecordSpec("amt", "difference-ratio", "M-A / T-A", 0.0, 1.0),
    RecordSpec("product", "product-bound", "A M T"),
    RecordSpec("kyfan", "ky-fan-chain", "G L P A M T"),
)


def _parse(spec: RecordSpec) -> tuple:
    """The symbols of a spec in the order its form reads them, a quotient's as
    ((Z, Y), (X, W)) with None for a Y or W left out.  ParameterError names
    the record of a spec outside the grammar of :class:`RecordSpec`."""
    form, ends, quotient = _FORMS.get(spec.form), (spec.lower, spec.upper), spec.form == "difference-ratio"
    symbol = "(?:" + "|".join(map(re.escape, MEANS)) + ")"  # MEANS as it is when the record is built
    shape = form and type(spec.means) is str and re.fullmatch(form.shape.format(symbol), spec.means)
    symbols = shape and ((shape.groups()[:2], shape.groups()[2:]) if quotient else tuple(spec.means.split()))
    fixed = [end for end in ends if end not in (None, "near", "far")]  # each a finite int or float, not a bool
    if (not shape or None in ends[: form.bounds] or not form.bounds and ends != (None, None)
            or spec.lower == spec.upper in ("near", "far")
            or any(type(end) not in (int, float) or not abs(end) <= sys.float_info.max for end in fixed)
            or any(x == y for x, y in (symbols if quotient else pairwise(symbols)))):  # a mean against itself
        raise ParameterError(f"{spec.id}: {spec!r} is outside the spec grammar")
    return symbols


def _entry(symbol: str) -> Mean:
    # a mean of MEANS, or CH = 2A·t² exactly: a t² term of 2, no t⁰ term, and φ(1) = 2
    return MEANS[symbol] if symbol != "CH" else Mean("CH", (), ch_difference, Fraction(2), "2")


def _near(side: tuple[Mean, ...]) -> Fraction:
    # the t² term over A of a side that vanishes at a = b, CH or Z - Y; a lone mean Z does not
    if len(side) == 1 and side[0].label != "CH":
        raise ParameterError("a lone mean does not vanish at a = b")
    return side[0].near - (side[1].near if len(side) == 2 else 0)


def _side(spec: RecordSpec, symbols: tuple, side: str):
    """(constant, bound, probe) of one side of a parsed spec.  A sharp constant
    is the limit of R = (Z - Y)/(X - W) at its endpoint: the ratio of the sides'
    t² terms at a = b, or of their φ(1) at a/b → ∞; a lower bound tightens by
    the sign of X - W's t² term, an upper one against it.  ParameterError
    names the record where these first-order ends leave either undecided."""
    endpoint, name = getattr(spec, side), f"{spec.id}.{side}"
    if endpoint not in ("near", "far"):
        return None, None if endpoint is None else float(endpoint), None
    try:
        if spec.form == "exponent-window":  # p0, where L_p's φ(1) meets M's; it tightens up
            if (symbols, endpoint) != (("M",), "far"):
                raise ParameterError("only the far order of L_p < M is derived")
            text, sign = "p0", Fraction(1)
        else:
            num, den = ([_entry(s) for s in part if s] for part in symbols)
            sign = _near(den)
            if endpoint == "near":
                text = str(_near(num) / sign)
            else:  # the sides' φ(1), term by term, a two-term side in parentheses
                text = "/".join(f"({s[0].far} - {s[1].far})" if len(s) == 2 else s[0].far for s in (num, den))
        const = _sharp_constant(name, _context(spec, symbols, side), text)
        tighten = float(sign / abs(sign)) * (1.0 if side == "lower" else -1.0)  # 0 has no sign: raises
    except (ParameterError, ZeroDivisionError) as exc:
        raise ParameterError(f"{name}: the first-order ends leave its {endpoint} constant undecided: {exc}") from None
    return const, const.float_value, ProbeSpec(side, tighten, endpoint)


def _context(spec: RecordSpec, symbols: tuple, side: str) -> str:
    """The claim a side's constant is sharp in, with ``alpha`` below and
    ``beta`` above: an exponent of L_p for the window, a weight for a
    quotient with Y = W, and a coefficient for any other quotient."""
    c = "alpha" if side == "lower" else "beta"
    if spec.form == "exponent-window":
        kind, bound, mean = "exponent", "L_p" if side == "lower" else "L_q", symbols[0]
    else:
        (z, y), (x, w) = symbols
        if y and y == w:
            kind, bound, mean = "weight", f"{c}*{x} + (1-{c})*{w}", z
        else:
            kind, bound, mean = "coefficient", f"{c}*" + (f"({x} - {w})" if w else x), f"{z} - {y}" if y else z
    return f"sharp {kind} in " + (f"{bound} < {mean}" if side == "lower" else f"{mean} < {bound}")


def build_record(spec: RecordSpec) -> InequalityRecord:
    """Bind a spec's kernels, constants and probes into a record; ParameterError refuses a malformed spec."""
    symbols = _parse(spec)
    form = _FORMS[spec.form]
    kernels = _quotient_kernels(symbols) if spec.form == "difference-ratio" else tuple(MEANS[s].kernel for s in symbols)
    lo_const, lo_default, lo_probe = _side(spec, symbols, "lower")
    up_const, up_default, up_probe = _side(spec, symbols, "upper")

    def means_fn(means, lo_c, up_c):
        lo = lo_default if lo_c is None else lo_c
        up = up_default if up_c is None else up_c
        return form.margins(kernels, means, lo, up)

    def margin_fn(a, b, lo_c, up_c):
        if type(a) in _PY_REALS and type(b) in _PY_REALS:
            return means_fn(_pair_means(float(a), float(b)), lo_c, up_c)
        return means_fn(_Means(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)), lo_c, up_c)

    return InequalityRecord(
        id=spec.id,
        form=spec.form,
        lower=lo_const,
        upper=up_const,
        probes=tuple(p for p in (lo_probe, up_probe) if p is not None),
        margin_fn=margin_fn,
        means_fn=means_fn,
    )


@lru_cache(maxsize=1)
def catalog() -> tuple[InequalityRecord, ...]:
    """All inequality records, in a stable order."""
    return tuple(build_record(spec) for spec in SPECS)


@lru_cache(maxsize=1)
def sharp_constants() -> tuple[SharpConstant, ...]:
    """All sharp constants of the catalog, record by record in catalog order,
    a lower one before an upper one."""
    return tuple(c for rec in catalog() for c in (rec.lower, rec.upper) if c is not None)


def constant(name: str) -> SharpConstant:
    """Look up a sharp constant by its catalog name."""
    for c in sharp_constants():
        if c.name == name:
            return c
    raise ParameterError(f"unknown sharp constant {name!r}")


def record(record_id: str) -> InequalityRecord:
    """Look up a catalog record by id."""
    for rec in catalog():
        if rec.id == record_id:
            return rec
    raise ParameterError(f"unknown record id {record_id!r}")


def _resolve(rec) -> InequalityRecord:
    return rec if isinstance(rec, InequalityRecord) else record(rec)


# --------------------------------------------------------------------------
# verification


_SIDES = ("lower", "upper")


def _threshold(scales):
    # the noise threshold of margins with these scales, which _judge compares them with
    return _NOISE * scales


def _judge(margins, scales, *, threshold=None, negative=True):
    """Masks of the margins that certify a failure and of those that certify
    a pass; a margin within the noise threshold is in neither.  Scales are
    not negative, so neither is a threshold, and only a negative margin can
    fail: a caller that knows none of its margins is negative passes
    ``negative=False`` and gets ``None`` for the failures, and one that has
    formed the scales' ``_threshold`` already passes it.  Takes arrays, or
    one pair's floats, for which the masks are two bools."""
    if threshold is None:
        threshold = _threshold(scales)
    return margins < -threshold if negative else None, margins > threshold


@dataclass(frozen=True)
class Margins:
    """Signed margins of one record on one pair, with noise classification."""

    record_id: str
    lower: float | None = None
    upper: float | None = None
    lower_state: str | None = None
    upper_state: str | None = None

    @property
    def passed(self) -> bool:
        return "fail" not in (self.lower_state, self.upper_state)


def verify(rec, pair: PositivePair) -> Margins:
    """Margins of one record on one pair.

    Raises DegeneratePairError for a = b (no strict inequality to check)
    and NotApplicableError when the pair is outside the record's stated
    domain — the latter is a skip signal, not a failure.

    The mean values on one pair are computed once and shared by every
    record verified on it in turn, so a loop over the catalog evaluates
    each mean once per pair.  ``product`` (degree 2) squares its means,
    which overflow from about 1e154 and underflow below about 1e-162; its
    margins are 0 there, so both sides are indeterminate.
    """
    rec = _resolve(rec)
    if pair.degenerate:
        raise DegeneratePairError(f"{rec.id}: equal arguments have zero margins")
    domain = _FORMS[rec.form].domain
    if domain is not None and not (domain[0] < pair.a < domain[1] and domain[0] < pair.b < domain[1]):
        raise NotApplicableError(f"{rec.id}: {rec.domain_note}")
    sample = rec.margin_fn(pair.a, pair.b, None, None)
    lower, lower_state = _verdict(sample.lower, sample.lower_scale)
    upper, upper_state = _verdict(sample.upper, sample.upper_scale)
    return Margins(rec.id, lower, upper, lower_state, upper_state)


def _verdict(margin, scale):
    # (margin, state) of one side of one pair's sample; None where it makes no claim
    if margin is None:
        return None, None
    fail, ok = _judge(margin, scale)
    return float(margin), "fail" if fail else "ok" if ok else "indeterminate"


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate of verify() over a deterministic random sample."""

    record_id: str
    samples: int
    seed: int
    min_lower_margin: float | None
    lower_witness: tuple[float, float] | None
    min_upper_margin: float | None
    upper_witness: tuple[float, float] | None
    failures: int
    indeterminate: int
    passed: bool


# Pairs per block of verify_all's walk, where one lookup holds every mean of
# the block for all the records, and pairs per page of the seeded draw, which
# is walked in blocks, so the draw's memory does not grow with the sample
# count.  verify_all of the catalog at 1e6 samples (seed 1), 7 passes in one
# process, two processes each, on a shared 2-core Xeon: peak RSS, the median
# pass and minor faults per pass, with each side of a block judged in about
# three passes.  The pass times spread by up to a third between processes.
#   block  page
#   2^12   2^16   41.8 MB        0.52-0.70 s    3.8k
#   2^13   2^16   42.6-42.7 MB   0.46 s         4.9k
#   2^14   2^16   44.7 MB        0.44-0.48 s    8.2k
#   2^13   2^15   41.7-41.8 MB   0.42-0.44 s    2.5k
#   2^13   2^17   44.7-44.8 MB   0.42-0.46 s    4.9k
# Judged in about eight passes a side, the 2^13/2^16 row read 42.8-42.9 MB,
# 0.48-0.50 s and 6.2k.  Each block's pair table lives as long as its lookup.
_FOLD_BLOCK = 1 << 13
_PAGE = 8 * _FOLD_BLOCK


def _pages(domain: tuple[float, float] | None, count: int, seed: int):
    """The ``count`` seeded pairs of one domain, ``_PAGE`` at a time, bit for
    bit those of one whole draw: ``count`` values for a (or the ratio a/b),
    then ``count`` for b.  Each double takes one 64-bit output of the
    stream, so b's stream is the same generator moved ``count`` outputs on."""
    first, second = np.random.default_rng(seed), np.random.default_rng(seed)
    second.bit_generator.advance(count)
    for start in range(0, count, _PAGE):
        n = min(_PAGE, count - start)
        if domain is not None:  # uniform, 1e-6 inside either end
            low, high = domain[0] + 1e-6, domain[1] - 1e-6
            yield first.uniform(low, high, n), second.uniform(low, high, n)
        else:  # a = 10^x·b in place: the bits of 10.0 ** x * b, with no temporaries
            a = first.uniform(0.0, 8.0, n)
            b = second.uniform(-3.0, 3.0, n)
            np.power(10.0, a, out=a)
            np.power(10.0, b, out=b)
            a *= b
            yield a, b


class _Fold:
    """One record's margins, folded block by block over a sample.  A side of
    a block takes about three passes: its least margin (the witness), its
    pass mask, and that mask folded into the pairs decided on every side.
    A threshold is formed once per scale array, which a quotient's sides
    share, and failures are counted only on a side whose least margin is
    negative, since no other can fail."""

    def __init__(self, rec: InequalityRecord):
        self.rec = rec
        self.least = {}  # side -> (rank: the margin with NaN as +inf, margin, witness)
        self.failures = self.indeterminate = 0

    def add(self, means: _Means) -> None:
        sample = self.rec.means_fn(means, None, None)
        decided = scale = None
        for side in _SIDES:
            m = getattr(sample, side)
            if m is None:
                continue
            if getattr(sample, f"{side}_scale") is not scale:  # a quotient's two sides share one
                scale = getattr(sample, f"{side}_scale")
                threshold = _threshold(scale)
            i = int(m.argmin())
            if math.isnan(m[i]):  # argmin stops at the first NaN; rank NaN as +inf
                i = int(np.where(np.isnan(m), np.inf, m).argmin())
            rank = math.inf if math.isnan(m[i]) else float(m[i])
            # strict: on a tie the earlier block keeps its witness, as argmin does
            if side not in self.least or rank < self.least[side][0]:
                self.least[side] = (rank, float(m[i]), (float(means.a[i]), float(means.b[i])))
            fail, ok = _judge(m, scale, threshold=threshold, negative=rank < 0.0)
            if fail is not None:
                self.failures += int(np.count_nonzero(fail))
                ok |= fail
            decided = ok if decided is None else np.logical_and(decided, ok, out=decided)
        self.indeterminate += decided.size - int(np.count_nonzero(decided))

    def report(self, count: int, seed: int) -> VerificationReport:
        sides = dict.fromkeys(("min_lower_margin", "lower_witness", "min_upper_margin", "upper_witness"))
        for side, (_, margin, witness) in self.least.items():
            sides[f"min_{side}_margin"] = margin
            sides[f"{side}_witness"] = witness
        return VerificationReport(self.rec.id, count, seed, failures=self.failures,
                                  indeterminate=self.indeterminate, passed=self.failures == 0, **sides)


def verify_all(records, count: int, seed: int) -> tuple[VerificationReport, ...]:
    """Run each record over ``count`` seeded random pairs and aggregate.

    Sampling is log-uniform in the ratio a/b over (1, 1e8] with a random
    decade scale (the Ky Fan record instead draws both arguments uniformly
    from its stated domain); each sampler draws once, seeded with ``seed``,
    for all its records.  The draw is made a page of pairs at a time, from
    two streams of one seeded generator, the second moved ``count`` outputs
    on, so the pairs are bit for bit those of one whole-array draw and
    memory does not grow with ``count``.  Each page is walked in blocks, and
    within a block each mean is computed once for all the records that read
    it.  ``passed`` means no sample produced a margin that is negative beyond
    the rounding-noise threshold.  Returns one report per record, in order.
    """
    folds = [_Fold(_resolve(rec)) for rec in records]
    if count < 1:
        raise ParameterError("sample count must be >= 1")
    if seed < 0:
        raise ParameterError("seed must be >= 0")
    for domain in dict.fromkeys(_FORMS[fold.rec.form].domain for fold in folds):
        _fold_sample(domain, [f for f in folds if _FORMS[f.rec.form].domain == domain], int(count), seed)
    return tuple(fold.report(int(count), int(seed)) for fold in folds)


def _fold_sample(domain, folds, count: int, seed: int) -> None:
    # The pairs of one domain, drawn page by page and walked in blocks whose
    # means all of its records read; a page is a whole number of blocks, so
    # the blocks are those of one whole draw.
    for a, b in _pages(domain, count, seed):
        for start in range(0, a.size, _FOLD_BLOCK):
            means = _Means(a[start : start + _FOLD_BLOCK], b[start : start + _FOLD_BLOCK])
            for fold in folds:
                fold.add(means)


def verify_random(rec, count: int, seed: int) -> VerificationReport:
    """:func:`verify_all` of one record."""
    return verify_all((rec,), count, seed)[0]


# --------------------------------------------------------------------------
# sharpness


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of tightening one sharp constant by ε and hunting a witness."""

    record_id: str
    constant_name: str
    side: str
    endpoint: str
    epsilon: float
    tightened: float
    found: bool
    witness: tuple[float, float] | None
    steps: int
    margin: float | None


def sharpness_probe(rec, epsilon: float = 1e-6) -> tuple[ProbeResult, ...]:
    """Demonstrate sharpness of each of the record's constants.

    Each constant is moved by ε in the direction that strengthens its
    inequality; the probe then walks geometrically toward the endpoint
    where the constant is attained (ratios 1 + 2^-k for the near end,
    2^k for the far end, k = 1..64) and reports the first pair whose
    tightened margin is negative beyond the noise threshold.  All steps
    are evaluated in one batch; the near-end ratios that round to 1
    (k >= 53) are left out, since an equal pair has no margin to test.
    """
    rec = _resolve(rec)
    if not (epsilon > 0.0):
        raise ParameterError("epsilon must be positive")
    if epsilon == math.inf:
        raise ParameterError("epsilon must be finite")
    if not rec.probes:
        raise ParameterError(f"record {rec.id!r} has no sharp constants to probe")
    steps = np.arange(1, _PROBE_STEPS + 1)
    results = []
    for spec in rec.probes:
        const = getattr(rec, spec.side)
        tightened = const.float_value + spec.tighten * epsilon
        ratios = 1.0 + np.ldexp(1.0, -steps) if spec.endpoint == "near" else np.ldexp(1.0, steps)
        distinct = ratios > 1.0
        ratios, k = ratios[distinct], steps[distinct]
        sample = rec.margins(ratios, np.ones_like(ratios), **{f"{spec.side}_c": tightened})
        m = getattr(sample, spec.side)
        fail, _ = _judge(m, getattr(sample, f"{spec.side}_scale"))
        hit = int(fail.argmax()) if fail.any() else None
        results.append(
            ProbeResult(
                record_id=rec.id,
                constant_name=const.name,
                side=spec.side,
                endpoint=spec.endpoint,
                epsilon=epsilon,
                tightened=tightened,
                found=hit is not None,
                witness=None if hit is None else (float(ratios[hit]), 1.0),
                steps=_PROBE_STEPS if hit is None else int(k[hit]),
                margin=None if hit is None else float(m[hit]),
            )
        )
    return tuple(results)
