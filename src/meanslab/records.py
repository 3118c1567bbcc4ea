"""Machine-checkable catalog of the sharp inequalities between the means.

Every record is declared in ``SPECS`` as one of five forms over the mean
symbols of :data:`meanslab.means.MEANS`; that entry, with the formula text
of its constants, is the record's claim.  :func:`build_record` binds the
kernels and the vectorised margin function: positive margins mean the
inequality holds on that pair, and the attached
:class:`~meanslab.constants.SharpConstant` objects are the claimed
best-possible weights or bounds.  Thirteen records are the paper's linear
relations between differences of means, ``alpha*(X - W) < Z - Y <
beta*(X - W)`` (``X - W`` may be ``CH``): their margins are ``R - alpha`` and
``beta - R`` times the sign of ``X - W``, for ``R = (Z - Y)/(X - W)``, in the
constant's own units.  Three things can be done with records:

* :func:`verify` — evaluate one record's margins on one pair; records
  verified in turn on the same pair share its mean values;
* :func:`verify_all` — sample many pairs (log-uniform in the ratio a/b,
  which is where sharpness lives) and aggregate minima and witnesses;
  records that share a sampler share one draw and are evaluated block by
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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .constants import SharpConstant, constant
from .errors import DegeneratePairError, NotApplicableError, ParameterError
from .means import _BLOCK, MEANS, PositivePair, ch_difference, generalized_logarithmic

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
    "record",
    "verify",
    "verify_all",
    "verify_random",
    "sharpness_probe",
]

_EPS = float(np.finfo(np.float64).eps)
_NOISE = 100.0 * _EPS * 16.0  # 100 ulp of a noise sum, which is in 2^-4 units
_PROBE_STEPS = 64


@dataclass(frozen=True)
class MarginSample:
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

    ``kind`` separates the package's core sharp results from the previously
    known bounds and classical orderings carried along for cross-checking.
    The form fixes the homogeneity degree, the sampler and the domain; see
    the properties below.  ``means_fn`` computes the margins from a lookup
    of mean values that records can share, and ``margin_fn`` on a pair: an
    array pair (the probes) gets a lookup of its own, and one scalar pair
    (:func:`verify`) shares the last pair's lookup with every record
    verified on it.  :func:`verify_all` shares one lookup per block.
    """

    id: str
    form: str
    kind: str
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
        domain = _FORMS[self.form].domain
        return None if domain is None else "requires {} < a, b < {}".format(*map(Fraction, domain))

    def margins(self, a, b, *, lower_c: float | None = None, upper_c: float | None = None) -> MarginSample:
        """Margins on (a, b) with optional overrides for the constants.

        Overrides replace the record's lower/upper constant (for the
        exponent-window record, the L_p exponents); the probes use this to
        evaluate tightened variants of the inequality.
        """
        return self.margin_fn(a, b, lower_c, upper_c)


# --------------------------------------------------------------------------
# forms
#
# A form takes the record's kernels, in the order its spec lists the means,
# a lookup of the mean values on a pair (or arrays of pairs) and the two
# bounds in force (None where the record has no bound on that side), and
# returns the signed margins.


class _Means(dict):
    """Mean values on one batch of pairs ``(a, b)``, keyed by kernel: each
    kernel is evaluated at most once, when a form first asks for it."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __missing__(self, kernel):
        value = self[kernel] = kernel(self.a, self.b)
        return value


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
    return sum((2.0**-4 * v for v in terms), len(terms) * 2.0**-1026)


def _quotient(kernels, means, lo, up):
    # lo*(X - W) < Z - Y < up*(X - W) on R = (Z - Y)/(X - W), an absent Y or W
    # being 0.  R carries cancellation noise of order (Z + Y + X + W)/|X - W|
    # ulp; CH is computed without cancellation, so it adds none.
    values = {k: means[k] for k in dict.fromkeys(kernels) if k is not None}
    z, y, x, w = (values.get(k, 0.0) for k in kernels)
    num, den = z - y, x - w
    positive = [v for k, v in values.items() if k is not ch_difference]  # means: no abs()
    zero = den == 0.0
    masked = np.count_nonzero(zero)  # X - W rounded to 0 leaves R unknown: margins 0
    if masked:
        den = np.where(zero, 1.0, den)
    ratio, sign = num / den, np.sign(den)
    scale = _noise_sum(positive) / abs(den) + 2.0**-4

    def margin(m):
        return np.where(zero, 0.0, sign * m) if masked else sign * m

    if up is None:
        return MarginSample(margin(ratio - lo), None, scale, None)
    return MarginSample(margin(ratio - lo), margin(up - ratio), scale, scale)


def _ordered(values):
    # Each value below the next: the smallest consecutive gap is the margin.
    gaps = np.diff(np.stack([np.asarray(v, dtype=np.float64) for v in values]), axis=0)
    return MarginSample(gaps.min(axis=0), None, _noise_sum(values), None)


def _chain(kernels, means, lo, up):
    return _ordered([means[k] for k in kernels])


def _ky_fan(kernels, means, lo, up):
    # the chain of X/X' with X' = X(1-a, 1-b); the reflected pair is not the
    # lookup's pair, so its values are computed here and not kept
    a2 = 1.0 - np.asarray(means.a, dtype=np.float64)
    b2 = 1.0 - np.asarray(means.b, dtype=np.float64)
    return _ordered([means[k] / k(a2, b2) for k in kernels])


def _product(kernels, means, lo, up):
    # X*Z < Y^2 < (X^2 + Z^2)/2.  Y^2 and X*Z are below X^2 + Z^2, so they
    # overflow only where that sum does, and (X^2 + Z^2)/2 is inf there:
    # inf - inf leaves the margins unknown, 0 as for a quotient over 0.
    # Arrays warn of that overflow and of inf - inf where floats do not.
    x, y, z = (means[k] for k in kernels)
    with np.errstate(over="ignore", invalid="ignore"):
        y2 = y * y
        low_ref = x * z
        up_ref = 0.5 * (x * x + z * z)
        lower, upper = y2 - low_ref, up_ref - y2
    over = up_ref == math.inf
    if np.count_nonzero(over):
        lower, upper = np.where(over, 0.0, lower), np.where(over, 0.0, upper)
    return MarginSample(lower, upper, _noise_sum((y2, low_ref)), _noise_sum((y2, up_ref)))


def _window(kernels, means, p, q):
    # L_p < X < L_q; the bounds in force are the exponents.
    m = means[kernels[0]]
    below = generalized_logarithmic(p, means.a, means.b)
    above = generalized_logarithmic(q, means.a, means.b)
    return MarginSample(m - below, above - m, _noise_sum((m, below)), _noise_sum((m, above)))


def _quotient_symbols(text: str) -> tuple:
    # "Z-Y / X-W" as (Z, Y, X, W), with None for a Y or W left out
    num, den = ((*side.strip().split("-"), None)[:2] for side in text.split("/"))
    return num + den


class _Form(NamedTuple):
    margins: Callable  # (kernels, means, lower bound, upper bound) -> MarginSample
    degree: int | None = 1
    domain: tuple[float, float] | None = None  # the open interval both arguments lie in
    symbols: Callable = str.split  # the spec's means text -> symbols, in margin order


_FORMS = {
    "difference-ratio": _Form(_quotient, degree=0, symbols=_quotient_symbols),
    "chain": _Form(_chain),
    "product-bound": _Form(_product, degree=2),
    "exponent-window": _Form(_window),
    "ky-fan-chain": _Form(_ky_fan, degree=None, domain=(0.0, 0.5)),
}


# --------------------------------------------------------------------------
# the records


class RecordSpec(NamedTuple):
    """One catalog record, declared over the symbols of ``means.MEANS``.

    ``means`` lists the symbols, space-separated, in the order the form
    takes them; a ``difference-ratio`` spec writes its quotient instead:
    ``"Z-Y / X-W"``, ``"Z-Y / CH"`` or ``"Z / CH"``.  Each side is ``None``
    when it carries no constant, a ``(tighten, endpoint)`` pair when its
    bound is the sharp constant ``{id}.lower`` or ``{id}.upper`` (see
    :class:`ProbeSpec`), or a plain float for a fixed bound not claimed sharp.
    """

    id: str
    kind: str
    form: str
    means: str
    lower: tuple[float, str] | float | None = None
    upper: tuple[float, str] | float | None = None


SPECS = (
    RecordSpec("neuman-QA", "prior-result", "difference-ratio", "M-A / Q-A", (+1.0, "far"), (-1.0, "near")),
    RecordSpec("neuman-CA", "prior-result", "difference-ratio", "M-A / C-A", (+1.0, "far"), (-1.0, "near")),
    RecordSpec("zhao-HQ", "prior-result", "difference-ratio", "M-Q / H-Q", (-1.0, "near"), (+1.0, "far")),
    RecordSpec("zhao-GQ", "prior-result", "difference-ratio", "M-Q / G-Q", (-1.0, "near"), (+1.0, "far")),
    RecordSpec("zhao-HC", "prior-result", "difference-ratio", "M-C / H-C", (-1.0, "far"), (+1.0, "near")),
    RecordSpec("identric-IQ", "prior-result", "difference-ratio", "M-Q / I-Q", (-1.0, "near"), (+1.0, "far")),
    RecordSpec("thm3.1", "core-result", "difference-ratio", "M-C / CH", (+1.0, "far"), (-1.0, "near")),
    RecordSpec("thm3.2", "core-result", "difference-ratio", "M / CH", (+1.0, "far")),
    RecordSpec("thm3.3", "core-result", "difference-ratio", "Cbar-M / Q-M", (+1.0, "near"), (-1.0, "far")),
    RecordSpec("thm3.4", "core-result", "difference-ratio", "Q-M / C-M", (+1.0, "far"), (-1.0, "near")),
    RecordSpec("cor3.1", "core-result", "difference-ratio", "C-M / CH", (+1.0, "near"), (-1.0, "far")),
    RecordSpec("cor3.2", "core-result", "difference-ratio", "Cbar-M / CH", (+1.0, "near"), (-1.0, "far")),
    RecordSpec("chain", "classical-ordering", "chain", "G L P A M T Q"),
    RecordSpec("lp0-l2", "core-result", "exponent-window", "M", (+1.0, "far"), 2.0),
    RecordSpec("amt", "classical-ordering", "difference-ratio", "M-A / T-A", 0.0, 1.0),
    RecordSpec("product", "classical-ordering", "product-bound", "A M T"),
    RecordSpec("kyfan", "classical-ordering", "ky-fan-chain", "G L P A M T"),
)


def _side(spec: RecordSpec, side: str):
    """(constant, bound, probe) of one side of a spec."""
    given = getattr(spec, side)
    if given is None:
        return None, None, None
    if isinstance(given, tuple):
        const = constant(f"{spec.id}.{side}")
        return const, const.float_value, ProbeSpec(side, *given)
    return None, float(given), None


def _kernel(symbol: str | None) -> Callable | None:
    return None if symbol is None else ch_difference if symbol == "CH" else MEANS[symbol].kernel


def build_record(spec: RecordSpec) -> InequalityRecord:
    """Bind a spec's kernels, constants and probes into a record."""
    form = _FORMS[spec.form]
    symbols = form.symbols(spec.means)
    kernels = tuple(_kernel(s) for s in symbols)
    lo_const, lo_default, lo_probe = _side(spec, "lower")
    up_const, up_default, up_probe = _side(spec, "upper")

    def means_fn(means, lo_c, up_c):
        lo = lo_default if lo_c is None else lo_c
        up = up_default if up_c is None else up_c
        return form.margins(kernels, means, lo, up)

    def margin_fn(a, b, lo_c, up_c):
        scalar = type(a) is float and type(b) is float
        return means_fn(_pair_means(a, b) if scalar else _Means(a, b), lo_c, up_c)

    return InequalityRecord(
        id=spec.id,
        form=spec.form,
        kind=spec.kind,
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


def _judge(margins, scales):
    """Masks of the margins that certify a failure and of those that certify
    a pass; a margin within the noise threshold is in neither (scales are not
    negative, so a failure is a negative margin).  Takes arrays, or floats for
    one pair, where numpy scalars would add per-call cost."""
    threshold = _NOISE * scales
    return margins < -threshold, margins > threshold


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


def _check_domain(rec: InequalityRecord, a: float, b: float) -> None:
    domain = _FORMS[rec.form].domain
    if domain is not None and not (domain[0] < a < domain[1] and domain[0] < b < domain[1]):
        raise NotApplicableError(f"{rec.id}: {rec.domain_note}")


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
    _check_domain(rec, pair.a, pair.b)
    sample = rec.margins(pair.a, pair.b)
    sides = {}
    for side in _SIDES:
        m = getattr(sample, side)
        if m is not None:
            m = sides[side] = float(m)
            fail, ok = _judge(m, float(getattr(sample, side + "_scale")))
            sides[side + "_state"] = "fail" if fail else "ok" if ok else "indeterminate"
    return Margins(rec.id, **sides)


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


def _sample_pairs(domain: tuple[float, float] | None, rng: np.random.Generator, count: int):
    if domain is not None:  # uniform, 1e-6 inside either end
        low, high = domain[0] + 1e-6, domain[1] - 1e-6
        a = rng.uniform(low, high, count)
        b = rng.uniform(low, high, count)
        return a, b
    ratio = 10.0 ** rng.uniform(0.0, 8.0, count)
    b = 10.0 ** rng.uniform(-3.0, 3.0, count)
    return ratio * b, b


class _Fold:
    """One record's margins, folded block by block over a sample."""

    def __init__(self, rec: InequalityRecord):
        self.rec = rec
        self.least = {}  # side -> (rank: the margin with NaN as +inf, margin, witness)
        self.failures = self.indeterminate = 0

    def add(self, means: _Means) -> None:
        sample = self.rec.means_fn(means, None, None)
        decided = True
        for side in _SIDES:
            m = getattr(sample, side)
            if m is None:
                continue
            fail, ok = _judge(m, getattr(sample, f"{side}_scale"))
            i = int(m.argmin())
            if math.isnan(m[i]):  # argmin stops at the first NaN; rank NaN as +inf
                i = int(np.where(np.isnan(m), np.inf, m).argmin())
            rank = math.inf if math.isnan(m[i]) else float(m[i])
            # strict: on a tie the earlier block keeps its witness, as argmin does
            if side not in self.least or rank < self.least[side][0]:
                self.least[side] = (rank, float(m[i]), (float(means.a[i]), float(means.b[i])))
            self.failures += int(np.count_nonzero(fail))
            decided = decided & (fail | ok)
        self.indeterminate += decided.size - int(np.count_nonzero(decided))

    def report(self, count: int, seed: int) -> VerificationReport:
        sides = dict.fromkeys(("min_lower_margin", "lower_witness", "min_upper_margin", "upper_witness"))
        for side, (_, margin, witness) in self.least.items():
            sides[f"min_{side}_margin"] = margin
            sides[f"{side}_witness"] = witness
        return VerificationReport(
            self.rec.id,
            count,
            seed,
            failures=self.failures,
            indeterminate=self.indeterminate,
            passed=self.failures == 0,
            **sides,
        )


def verify_all(records, count: int, seed: int) -> tuple[VerificationReport, ...]:
    """Run each record over ``count`` seeded random pairs and aggregate.

    Sampling is log-uniform in the ratio a/b over (1, 1e8] with a random
    decade scale (the Ky Fan record instead draws both arguments uniformly
    from its stated domain); each sampler draws once, from a generator
    seeded with ``seed``, for all its records.  The pairs are then walked in
    blocks, and within a block each mean is computed once for all the
    records that read it.  ``passed`` means no sample produced a margin that
    is negative beyond the rounding-noise threshold.  Returns one report per
    record, in order.
    """
    folds = [_Fold(_resolve(rec)) for rec in records]
    if count < 1:
        raise ParameterError("sample count must be >= 1")
    for sampler in dict.fromkeys(fold.rec.sampler for fold in folds):
        _fold_sample([f for f in folds if f.rec.sampler == sampler], int(count), seed)
    return tuple(fold.report(int(count), int(seed)) for fold in folds)


def _fold_sample(folds, count: int, seed: int) -> None:
    # One whole draw for the records of one sampler, from the domain they
    # share (drawn block by block, the random stream would differ), walked
    # in blocks whose mean values all of them read.
    a, b = _sample_pairs(_FORMS[folds[0].rec.form].domain, np.random.default_rng(seed), count)
    for start in range(0, count, _BLOCK):
        means = _Means(a[start : start + _BLOCK], b[start : start + _BLOCK])
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
