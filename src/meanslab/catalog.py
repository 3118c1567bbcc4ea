"""Machine-checkable catalog of the sharp inequalities between the means.

Every record is declared in ``SPECS`` as one of a few forms (a convex
combination, a bound on a difference over CH, a chain, ...) over the mean
symbols of :data:`meanslab.means.MEANS`.  :func:`build_record` binds the
kernels and derives the statement and the vectorised margin function:
positive margins mean the inequality holds on that pair, and the attached
:class:`~meanslab.constants.SharpConstant` objects are the claimed
best-possible weights or bounds.  Three things can be done with a record:

* :func:`verify` — evaluate the margins on one pair;
* :func:`verify_random` — sample many pairs (log-uniform in the ratio a/b,
  which is where sharpness lives) and aggregate minima and witnesses;
* :func:`sharpness_probe` — tighten a sharp constant by ε and hunt for a
  violating pair near the endpoint where the constant is attained, which
  demonstrates that the constant cannot be improved.

Margins are classified against a noise threshold of 100 ulp of the operand
scale: a strict analytic inequality can round to equality in doubles, so
anything smaller in magnitude is reported as *indeterminate* rather than as
a pass or a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .constants import SharpConstant, constant
from .errors import DegeneratePairError, NotApplicableError, ParameterError
from .means import MEANS, PositivePair, ch_difference, format_float, generalized_logarithmic

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
    "verify_random",
    "sharpness_probe",
]

_EPS = float(np.finfo(np.float64).eps)
_NOISE_FACTOR = 100.0
_PROBE_STEPS = 64


@dataclass(frozen=True)
class MarginSample:
    """Raw signed margins for a batch of pairs plus their noise scales.

    A ``None`` side means the record makes no claim on that side.  Scales
    carry the magnitude of the quantities whose subtraction produced the
    margin, so ``100 eps * scale`` bounds the rounding noise in it.
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
    the properties below.
    """

    id: str
    form: str
    statement: str
    kind: str
    lower: SharpConstant | None
    upper: SharpConstant | None
    probes: tuple[ProbeSpec, ...] = ()
    margin_fn: Callable = field(default=None, repr=False, compare=False)

    @property
    def homogeneity_degree(self) -> int | None:
        """How margins respond to (a, b) → (λa, λb): degree 1 for
        mean-valued margins, 0 for ratio forms, 2 for the product form,
        ``None`` when the statement is not scale-invariant at all."""
        return _FORMS[self.form].degree

    @property
    def sampler(self) -> str:
        """How :func:`verify_random` draws pairs: ``log-ratio`` everywhere,
        ``unit-interval`` inside a restricted domain."""
        return "unit-interval" if self.domain_note else "log-ratio"

    @property
    def domain_note(self) -> str | None:
        """The domain restriction of the statement, if it has one."""
        return _FORMS[self.form].domain

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
# a pair (or arrays of pairs) and the two bounds in force (None where the
# record has no bound on that side), and returns the signed margins.


def _combo(kernels, a, b, w_lo, w_up):
    # w*X + (1-w)*Y compared against Z, on both sides.
    mix, base, inner = (k(a, b) for k in kernels)
    scale = np.abs(mix) + np.abs(base) + np.abs(inner)
    lower = inner - (w_lo * mix + (1.0 - w_lo) * base)
    upper = (w_up * mix + (1.0 - w_up) * base) - inner
    return MarginSample(lower, upper, scale, scale)


def _ratio(kernels, a, b, lo, up):
    # (X - Y)/CH, or X/CH, against two constants; scale-free value, but the
    # float ratio carries cancellation noise of order (X + Y)/CH ulp.
    x = kernels[0](a, b)
    ch = ch_difference(a, b)
    if len(kernels) == 1:
        value = x / ch
        scale = value + 1.0
    else:
        y = kernels[1](a, b)
        value = (x - y) / ch
        scale = (x + y) / ch + 1.0
    if up is None:
        return MarginSample(value - lo, None, scale, None)
    return MarginSample(value - lo, up - value, scale, scale)


def _gap(kernels, a, b, lo, up):
    # lo*CH < X - Y < up*CH
    big, small = (k(a, b) for k in kernels)
    ch = ch_difference(a, b)
    gap = big - small
    scale = np.abs(big) + np.abs(small)
    return MarginSample(gap - lo * ch, up * ch - gap, scale, scale)


def _ordered(values):
    # Each value below the next: the smallest consecutive gap is the margin.
    values = np.stack([np.asarray(v, dtype=np.float64) for v in values])
    gaps = np.diff(values, axis=0)
    scale = np.abs(values).sum(axis=0)
    return MarginSample(gaps.min(axis=0), None, scale, None)


def _chain(kernels, a, b, lo, up):
    return _ordered([k(a, b) for k in kernels])


def _ky_fan(kernels, a, b, lo, up):
    # the chain of X/X' with X' = X(1-a, 1-b)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a2 = 1.0 - a
    b2 = 1.0 - b
    return _ordered([k(a, b) / k(a2, b2) for k in kernels])


def _sandwich(kernels, a, b, lo, up):
    # X < Y < Z, each side its own margin
    x, y, z = (k(a, b) for k in kernels)
    scale = np.abs(x) + np.abs(y) + np.abs(z)
    return MarginSample(y - x, z - y, scale, scale)


def _product(kernels, a, b, lo, up):
    # X*Z < Y^2 < (X^2 + Z^2)/2
    x, y, z = (k(a, b) for k in kernels)
    y2 = y * y
    low_ref = x * z
    up_ref = 0.5 * (x * x + z * z)
    return MarginSample(y2 - low_ref, up_ref - y2, y2 + low_ref, y2 + up_ref)


def _window(kernels, a, b, p, q):
    # L_p < X < L_q; the bounds in force are the exponents.
    m = kernels[0](a, b)
    below = generalized_logarithmic(p, a, b)
    above = generalized_logarithmic(q, a, b)
    scale_lo = np.abs(m) + np.abs(below)
    scale_up = np.abs(m) + np.abs(above)
    return MarginSample(m - below, above - m, scale_lo, scale_up)


def _between(*parts) -> str:
    return " < ".join(p for p in parts if p is not None)


class _Form(NamedTuple):
    margins: Callable  # (kernels, a, b, lower bound, upper bound) -> MarginSample
    text: Callable  # (symbols, lower text, upper text) -> statement
    degree: int | None = 1
    domain: str | None = None


_FORMS = {
    "convex-combination": _Form(
        _combo,
        lambda s, lo, up: (
            f"alpha*{s[0]} + (1-alpha)*{s[1]} < {s[2]} < beta*{s[0]} + (1-beta)*{s[1]}"
            f" with alpha = {lo}, beta = {up}"
        ),
    ),
    "ratio-bound": _Form(
        _ratio,
        lambda s, lo, up: _between(lo, f"({s[0]} - {s[1]})/CH" if len(s) > 1 else f"{s[0]}/CH", up),
        degree=0,
    ),
    "additive-gap": _Form(
        _gap, lambda s, lo, up: _between(f"({lo})*CH", " - ".join(s), f"({up})*CH")
    ),
    "chain": _Form(_chain, lambda s, lo, up: _between(*s)),
    "sandwich": _Form(_sandwich, lambda s, lo, up: _between(*s)),
    "product-bound": _Form(
        _product,
        lambda s, lo, up: f"{s[0]}*{s[2]} < {s[1]}^2 < ({s[0]}^2 + {s[2]}^2)/2",
        degree=2,
    ),
    "exponent-window": _Form(_window, lambda s, lo, up: _between(f"L[{lo}]", s[0], f"L[{up}]")),
    "ky-fan-chain": _Form(
        _ky_fan,
        lambda s, lo, up: _between(*(f"{x}/{x}'" for x in s)) + " with X' = X(1-a, 1-b)",
        degree=None,
        domain="requires 0 < a, b < 1/2",
    ),
}


# --------------------------------------------------------------------------
# the records


class RecordSpec(NamedTuple):
    """One catalog record, declared over the symbols of ``means.MEANS``.

    ``means`` lists the symbols, space-separated, in the order the form
    takes them.  Each side is ``None`` when it carries no constant, a
    ``(tighten, endpoint)`` pair when its bound is the sharp constant
    ``{id}.lower`` or ``{id}.upper`` (see :class:`ProbeSpec`), or a plain
    float for a fixed bound that is not claimed sharp.
    """

    id: str
    kind: str
    form: str
    means: str
    lower: tuple[float, str] | float | None = None
    upper: tuple[float, str] | float | None = None


SPECS = (
    RecordSpec("neuman-QA", "prior-result", "convex-combination", "Q A M", (+1.0, "far"), (-1.0, "near")),
    RecordSpec("neuman-CA", "prior-result", "convex-combination", "C A M", (+1.0, "far"), (-1.0, "near")),
    RecordSpec("zhao-HQ", "prior-result", "convex-combination", "H Q M", (-1.0, "near"), (+1.0, "far")),
    RecordSpec("zhao-GQ", "prior-result", "convex-combination", "G Q M", (-1.0, "near"), (+1.0, "far")),
    RecordSpec("zhao-HC", "prior-result", "convex-combination", "H C M", (-1.0, "far"), (+1.0, "near")),
    RecordSpec("identric-IQ", "prior-result", "convex-combination", "I Q M", (-1.0, "near"), (+1.0, "far")),
    RecordSpec("thm3.1", "core-result", "ratio-bound", "M C", (+1.0, "far"), (-1.0, "near")),
    RecordSpec("thm3.2", "core-result", "ratio-bound", "M", (+1.0, "far")),
    RecordSpec("thm3.3", "core-result", "convex-combination", "Q M Cbar", (+1.0, "near"), (-1.0, "far")),
    RecordSpec("thm3.4", "core-result", "convex-combination", "C M Q", (+1.0, "far"), (-1.0, "near")),
    RecordSpec("cor3.1", "core-result", "additive-gap", "C M", (+1.0, "near"), (-1.0, "far")),
    RecordSpec("cor3.2", "core-result", "additive-gap", "Cbar M", (+1.0, "near"), (-1.0, "far")),
    RecordSpec("chain", "classical-ordering", "chain", "G L P A M T Q"),
    RecordSpec("lp0-l2", "core-result", "exponent-window", "M", (+1.0, "far"), 2.0),
    RecordSpec("amt", "classical-ordering", "sandwich", "A M T"),
    RecordSpec("product", "classical-ordering", "product-bound", "A M T"),
    RecordSpec("kyfan", "classical-ordering", "ky-fan-chain", "G L P A M T"),
)


def _side(spec: RecordSpec, side: str):
    """(constant, bound, text, probe) of one side of a spec."""
    given = getattr(spec, side)
    if given is None:
        return None, None, None, None
    if isinstance(given, tuple):
        const = constant(f"{spec.id}.{side}")
        return const, const.float_value, const.text, ProbeSpec(side, *given)
    return None, float(given), format_float(given), None


def build_record(spec: RecordSpec) -> InequalityRecord:
    """Bind a spec's kernels, constants and probes into a record."""
    form = _FORMS[spec.form]
    symbols = spec.means.split()
    kernels = tuple(MEANS[s].kernel for s in symbols)
    lo_const, lo_default, lo_text, lo_probe = _side(spec, "lower")
    up_const, up_default, up_text, up_probe = _side(spec, "upper")

    def margin_fn(a, b, lo_c, up_c):
        lo = lo_default if lo_c is None else lo_c
        up = up_default if up_c is None else up_c
        return form.margins(kernels, a, b, lo, up)

    return InequalityRecord(
        id=spec.id,
        form=spec.form,
        statement=form.text(symbols, lo_text, up_text),
        kind=spec.kind,
        lower=lo_const,
        upper=up_const,
        probes=tuple(p for p in (lo_probe, up_probe) if p is not None),
        margin_fn=margin_fn,
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
    a pass; a margin within the noise threshold is in neither.  Takes arrays,
    or floats for one pair, where numpy scalars would add per-call cost."""
    threshold = _NOISE_FACTOR * _EPS * scales
    return (margins < 0.0) & (-margins > threshold), margins > threshold


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
    if rec.domain_note is not None and not (0.0 < a < 0.5 and 0.0 < b < 0.5):
        raise NotApplicableError(f"{rec.id}: {rec.domain_note}")


def verify(rec, pair: PositivePair) -> Margins:
    """Margins of one record on one pair.

    Raises DegeneratePairError for a = b (no strict inequality to check)
    and NotApplicableError when the pair is outside the record's stated
    domain — the latter is a skip signal, not a failure.
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
            m = float(m)
            fail, ok = _judge(m, float(getattr(sample, side + "_scale")))
            sides[side] = m
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


def _sample_pairs(rec: InequalityRecord, rng: np.random.Generator, count: int):
    if rec.sampler == "unit-interval":
        low, high = 1e-6, 0.5 - 1e-6
        a = rng.uniform(low, high, count)
        b = rng.uniform(low, high, count)
        return a, b
    ratio = 10.0 ** rng.uniform(0.0, 8.0, count)
    b = 10.0 ** rng.uniform(-3.0, 3.0, count)
    return ratio * b, b


def verify_random(rec, count: int, seed: int) -> VerificationReport:
    """Run one record over ``count`` seeded random pairs and aggregate.

    Sampling is log-uniform in the ratio a/b over (1, 1e8] with a random
    decade scale (the Ky Fan record instead draws both arguments uniformly
    from its stated domain).  ``passed`` means no sample produced a margin
    that is negative beyond the rounding-noise threshold.
    """
    rec = _resolve(rec)
    if count < 1:
        raise ParameterError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    a, b = _sample_pairs(rec, rng, int(count))
    sample = rec.margins(a, b)
    sides = dict.fromkeys(("min_lower_margin", "lower_witness", "min_upper_margin", "upper_witness"))
    failures = 0
    indeterminate = np.zeros(int(count), dtype=bool)
    for side in _SIDES:
        if getattr(sample, side) is None:
            continue
        m = getattr(sample, side)
        fail, ok = _judge(m, getattr(sample, f"{side}_scale"))
        i = int(np.where(np.isnan(m), np.inf, m).argmin())
        sides[f"min_{side}_margin"] = float(m[i])
        sides[f"{side}_witness"] = (float(a[i]), float(b[i]))
        failures += int(fail.sum())
        indeterminate |= ~(fail | ok)
    return VerificationReport(
        record_id=rec.id,
        samples=int(count),
        seed=int(seed),
        failures=failures,
        indeterminate=int(indeterminate.sum()),
        passed=failures == 0,
        **sides,
    )


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
