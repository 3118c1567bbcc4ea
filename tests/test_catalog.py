"""The inequality catalog: margins, random verification, scaling, sharpness."""

import csv
import dataclasses
import importlib
import io
import json
import math
import pkgutil
from collections import Counter, defaultdict
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import hp_oracles
import meanslab
from meanslab import (
    DegeneratePairError,
    NotApplicableError,
    ParameterError,
    PositivePair,
    catalog,
    constant,
    expr_value,
    record,
    reporting,
    sharp_constants,
    sharpness_probe,
    verify,
    verify_all,
    verify_random,
)
from meanslab.means import MEANS, arithmetic, centroidal, ch_difference, contraharmonic, harmonic
from meanslab.records import (
    _BLOCK,
    SPECS,
    InequalityRecord,
    Margins,
    MarginSample,
    RecordSpec,
    VerificationReport,
    _judge,
    _Means,
    _pair_means,
    build_record,
)

EXPECTED_IDS = {
    "neuman-QA", "neuman-CA", "zhao-HQ", "zhao-GQ", "zhao-HC", "identric-IQ",
    "thm3.1", "thm3.2", "thm3.3", "thm3.4", "cor3.1", "cor3.2",
    "chain", "lp0-l2", "amt", "product", "kyfan",
}


def test_every_submodule_imports_by_name_as_a_module():
    # no package-level name shadows a submodule; meanslab.catalog is the function
    names = [info.name for info in pkgutil.iter_modules(meanslab.__path__)]
    assert "records" in names and "catalog" not in names
    for name in names:
        module = importlib.import_module(f"meanslab.{name}")
        assert getattr(meanslab, name) is module, name
    assert callable(meanslab.catalog)


def test_catalog_contents():
    recs = catalog()
    assert {r.id for r in recs} == EXPECTED_IDS
    assert len(recs) == 17
    for r in recs:
        assert r.kind in ("core-result", "prior-result", "classical-ordering")
    with pytest.raises(ParameterError):
        record("thm9.9")


def test_attached_constants_are_the_sharp_constants_each_probed_once():
    attached = {}
    probed = Counter()
    for rec in catalog():
        for side in ("lower", "upper"):
            const = getattr(rec, side)
            if const is not None:
                assert const.name == f"{rec.id}.{side}"
                attached[const.name] = const
        probed.update(f"{rec.id}.{spec.side}" for spec in rec.probes)
    assert attached == {c.name: c for c in sharp_constants()}
    assert len(attached) == 24
    assert probed == Counter(attached.keys())


def test_ratio_record_margins_on_a_worked_pair():
    m = verify("thm3.1", PositivePair(3.0, 1.0))
    # (M-C)/CH on (3, 1) is about -0.421913; distance to the two bounds:
    assert m.lower == pytest.approx(0.010790592681772046, abs=1e-12)
    assert m.upper == pytest.approx(0.005246412098305796, abs=1e-12)
    assert m.lower_state == m.upper_state == "ok"
    assert m.passed

    m2 = verify("thm3.2", PositivePair(3.0, 1.0))
    assert m2.lower == pytest.approx(1.5107905926817720, rel=1e-13, abs=0.0)
    assert m2.upper is None


def test_chain_record_positive_gaps():
    m = verify("chain", PositivePair(2.0, 1.0))
    assert m.lower > 0
    assert m.upper is None
    assert m.passed


def test_every_record_passes_on_simple_pairs():
    for rec in catalog():
        pair = PositivePair(0.3, 0.2) if rec.sampler == "unit-interval" else PositivePair(3.0, 1.0)
        assert verify(rec, pair).passed, rec.id


def test_degenerate_pair_is_rejected():
    with pytest.raises(DegeneratePairError):
        verify("thm3.1", PositivePair(2.0, 2.0))


def test_ky_fan_domain_is_enforced():
    with pytest.raises(NotApplicableError):
        verify("kyfan", PositivePair(0.7, 0.2))
    assert verify("kyfan", PositivePair(0.45, 0.05)).passed


def test_verify_random_every_record_at_1e5():
    for rec, rep in zip(catalog(), verify_all(catalog(), 100_000, seed=42)):
        assert rep.record_id == rec.id
        assert rep.passed, (rec.id, rep)
        assert rep.failures == 0
        assert rep.samples == 100_000


def test_verify_random_is_deterministic():
    a = verify_random("thm3.3", 5_000, seed=11)
    b = verify_random("thm3.3", 5_000, seed=11)
    assert a == b
    c = verify_random("thm3.3", 5_000, seed=12)
    assert c != a


# two made-up chains: A < G fails on every pair, and M < M never clears the noise
FALSE_CHAIN = build_record(RecordSpec("false-ag", "classical-ordering", "chain", "A G"))
NOISE_CHAIN = build_record(RecordSpec("noise-mm", "classical-ordering", "chain", "M M"))


def test_verify_random_single_sample_matches_verify():
    for rec in ("thm3.1", "neuman-QA", "chain", "lp0-l2", "thm3.2", FALSE_CHAIN, NOISE_CHAIN):
        rep = verify_random(rec, 1, seed=3)
        pair = PositivePair(*rep.lower_witness)
        assert rep.upper_witness in (None, rep.lower_witness)
        m = verify(rec, pair)
        # bitwise: the scalar and the batch verdicts share one noise rule
        assert m.lower == rep.min_lower_margin
        assert m.upper == rep.min_upper_margin
        states = (m.lower_state, m.upper_state)
        assert rep.failures == states.count("fail")
        assert rep.indeterminate == int("indeterminate" in states)
        assert rep.passed == m.passed
    assert verify(FALSE_CHAIN, PositivePair(3.0, 1.0)).lower_state == "fail"
    assert verify(NOISE_CHAIN, PositivePair(3.0, 1.0)).lower_state == "indeterminate"


def test_verify_random_validation():
    with pytest.raises(ParameterError):
        verify_random("thm3.1", 0, seed=1)
    with pytest.raises(ParameterError):
        verify_all(catalog(), 0, seed=1)


# -------------------------------------------------------- fused verification


def _whole_array_report(rec, count, seed):
    # the aggregation verify_random did before blocks: its own draw, one
    # margins call on the whole arrays, argmin with NaN as +inf
    rng = np.random.default_rng(seed)
    if rec.sampler == "unit-interval":
        a = rng.uniform(1e-6, 0.5 - 1e-6, count)
        b = rng.uniform(1e-6, 0.5 - 1e-6, count)
    else:
        ratio = 10.0 ** rng.uniform(0.0, 8.0, count)
        b = 10.0 ** rng.uniform(-3.0, 3.0, count)
        a = ratio * b
    sample = rec.margins(a, b)
    sides = dict.fromkeys(("min_lower_margin", "lower_witness", "min_upper_margin", "upper_witness"))
    failures = 0
    indeterminate = np.zeros(count, dtype=bool)
    for side in ("lower", "upper"):
        m = getattr(sample, side)
        if m is None:
            continue
        # scales are in 2^-4 units
        noise = 100 * np.finfo(np.float64).eps * 16 * getattr(sample, f"{side}_scale")
        fail, ok = (m < 0.0) & (-m > noise), m > noise
        i = int(np.where(np.isnan(m), np.inf, m).argmin())
        sides[f"min_{side}_margin"] = float(m[i])
        sides[f"{side}_witness"] = (float(a[i]), float(b[i]))
        failures += int(fail.sum())
        indeterminate |= ~(fail | ok)
    return VerificationReport(rec.id, count, seed, failures=failures,
                              indeterminate=int(indeterminate.sum()), passed=failures == 0, **sides)


def _made_up(rec_id, margin):
    # a record whose lower margin is margin(a, b), with noise scale 1
    def margin_fn(a, b, lo_c, up_c):
        m = margin(np.asarray(a), np.asarray(b))
        return MarginSample(m, None, np.ones_like(m), None)

    return InequalityRecord(rec_id, "chain", "classical-ordering", None, None,
                            margin_fn=margin_fn,
                            means_fn=lambda means, lo_c, up_c: margin_fn(means.a, means.b, lo_c, up_c))


MADE_UP = (
    # M < M has margins of 0 on every pair, so every block ties and the first
    # pair must stay the witness
    FALSE_CHAIN,
    NOISE_CHAIN,
    # NaN ranks as +inf: NaN below a/b = 1e4, tied decades above it
    _made_up("nan-decades", lambda a, b: np.where(a < 1e4 * b, np.nan, np.floor(np.log10(a / b)))),
    _made_up("all-nan", lambda a, b: np.full_like(a, np.nan)),
)


@pytest.mark.parametrize("seed", [42, 3])
@pytest.mark.parametrize("count", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_fused_reports_equal_the_whole_array_aggregation(count, seed):
    records = catalog() + MADE_UP
    fused = verify_all(records, count, seed)
    assert [rep.record_id for rep in fused] == [rec.id for rec in records]
    for rec, rep in zip(records, fused):
        # repr: bitwise equal floats, NaN included
        assert repr(rep) == repr(_whole_array_report(rec, count, seed)), rec.id
    by_id = {rep.record_id: rep for rep in fused}
    assert by_id["false-ag"].failures == count
    assert by_id["noise-mm"].indeterminate == count
    assert math.isnan(by_id["all-nan"].min_lower_margin)


LOG_RATIO_MEANS = {"A", "G", "H", "Cbar", "C", "P", "T", "Q", "M", "I", "L", "CH"}


@pytest.fixture
def kernel_calls(monkeypatch):
    """Records rebuilt over counting kernels; returns them and the (a, b) of
    every call, by mean symbol."""
    calls = defaultdict(list)

    def counted(symbol, kernel):
        def wrapper(a, b):
            calls[symbol].append((a, b))
            return kernel(a, b)
        return wrapper

    for symbol, mean in list(MEANS.items()):
        monkeypatch.setitem(MEANS, symbol, mean._replace(kernel=counted(symbol, mean.kernel)))
    module = importlib.import_module("meanslab.records")
    monkeypatch.setattr(module, "ch_difference", counted("CH", ch_difference))
    return [build_record(spec) for spec in SPECS], calls


def test_each_mean_is_computed_once_per_block(kernel_calls):
    records, calls = kernel_calls
    log_ratio = [rec for rec in records if rec.sampler == "log-ratio"]
    blocks = 3
    verify_all(log_ratio, 2 * _BLOCK + 3, seed=1)
    assert {symbol: len(c) for symbol, c in calls.items()} == dict.fromkeys(LOG_RATIO_MEANS, blocks)
    # record by record, the same pairs cost 49 kernel calls
    calls.clear()
    a, b = np.full(4, 3.0), np.ones(4)
    for rec in log_ratio:
        rec.margins(a, b)
    assert sum(len(c) for c in calls.values()) == 49


def test_ky_fan_reflected_values_bypass_the_block_lookup(kernel_calls):
    records, calls = kernel_calls
    (kyfan,) = [rec for rec in records if rec.sampler == "unit-interval"]
    verify_all([kyfan], 2 * _BLOCK + 3, seed=1)
    assert set(calls) == {"G", "L", "P", "A", "M", "T"}
    for symbol, pairs in calls.items():
        # per block: the pair itself, then the reflected pair, freshly computed
        assert len(pairs) == 2 * 3, symbol
        for (a, b), (a2, b2) in zip(pairs[::2], pairs[1::2]):
            assert np.array_equal(a2, 1.0 - a) and np.array_equal(b2, 1.0 - b), symbol


# ---------------------------------------------------------------- scaling laws


@pytest.mark.parametrize("lam", [1e-6, 1e6])
def test_margins_scale_with_their_homogeneity_degree(lam):
    base = (3.0, 1.0)
    for rec in catalog():
        if rec.homogeneity_degree is None:
            continue
        m0 = rec.margins(*base)
        m1 = rec.margins(base[0] * lam, base[1] * lam)
        factor = lam ** rec.homogeneity_degree
        for side in ("lower", "upper"):
            v0, v1 = getattr(m0, side), getattr(m1, side)
            if v0 is None:
                continue
            assert float(v1) == pytest.approx(float(v0) * factor, rel=1e-12, abs=0.0), (
                rec.id, side)


def test_degree_zero_and_one_records_decide_at_the_top_of_the_range():
    # the kernels are exact scaled copies of themselves past 2^1022 and the
    # noise sums are formed in 2^-4 units, where they stay finite, so a record
    # of degree 0 or 1 has the margins and verdicts of the pair scaled down by
    # 2^-1020, scaled back by 2^(1020*degree), bit for bit
    top = PositivePair(1.7e308, 1e308)
    scaled = PositivePair(1.7e308 * 2.0**-1020, 1e308 * 2.0**-1020)
    records = [rec for rec in catalog() if rec.homogeneity_degree in (0, 1)]
    assert len(records) == 15
    for rec in records:
        margins, small = verify(rec, top), verify(rec, scaled)
        back = 2.0 ** (1020 * rec.homogeneity_degree)
        sides = {s: getattr(small, s) * back for s in ("lower", "upper") if getattr(small, s) is not None}
        assert margins == dataclasses.replace(small, **sides), rec.id
        assert {margins.lower_state, margins.upper_state} <= {"ok", None}, rec.id


# ------------------------------------------------- one lookup per verified pair

# past 2^1022, with a partner so small that 2^-4 times it would be subnormal
# or 0: no copy of these pairs scaled into range is exact
LOSSY_TOP_PAIRS = tuple(PositivePair(1.7e308, k * 2.0**-1074) for k in (1, 2, 3, 8, 9, 2**48))

MEMO_PAIRS = (
    PositivePair(1.0 + 2.0**-30, 1.0),  # near-equal
    PositivePair(1e8, 1e-3),  # lopsided
    PositivePair(0.3, 0.1),  # inside the Ky Fan domain
    PositivePair(1.7e308, 1e308),  # past 2^1022
) + LOSSY_TOP_PAIRS

# At a/b near 1.8e308 every side is decided except the 13 sharp sides attained
# at the far end, whose margins are about 0 there, and product's two, whose
# squares overflow.
TOP_OK = {
    ("neuman-QA", "upper"), ("neuman-CA", "upper"), ("zhao-HQ", "lower"), ("zhao-GQ", "lower"),
    ("zhao-HC", "upper"), ("identric-IQ", "lower"), ("thm3.1", "upper"), ("thm3.3", "lower"),
    ("thm3.4", "upper"), ("cor3.1", "lower"), ("cor3.2", "lower"), ("chain", "lower"),
    ("lp0-l2", "upper"), ("amt", "lower"), ("amt", "upper"),
}
TOP_INDETERMINATE = {
    ("neuman-QA", "lower"), ("neuman-CA", "lower"), ("zhao-HQ", "upper"), ("zhao-GQ", "upper"),
    ("zhao-HC", "lower"), ("identric-IQ", "upper"), ("thm3.1", "lower"), ("thm3.2", "lower"),
    ("thm3.3", "upper"), ("thm3.4", "lower"), ("cor3.1", "upper"), ("cor3.2", "upper"),
    ("lp0-l2", "lower"), ("product", "lower"), ("product", "upper"),
}


@pytest.mark.parametrize("pair", LOSSY_TOP_PAIRS + (PositivePair(1.7e308, 2.0**-1020),), ids=repr)
def test_a_top_pair_with_a_tiny_partner_decides_all_but_the_far_end_sides(pair):
    # the pair is evaluated as given; its noise sums stay finite, with no
    # exception and no RuntimeWarning
    states = {}
    for rec in catalog():
        if rec.domain_note is not None:
            with pytest.raises(NotApplicableError):
                verify(rec, pair)
            continue
        margins = verify(rec, pair)
        for side in ("lower", "upper"):
            if getattr(margins, f"{side}_state") is not None:
                states[rec.id, side] = getattr(margins, f"{side}_state")
    assert {key for key, state in states.items() if state == "ok"} == TOP_OK
    assert {key for key, state in states.items() if state == "indeterminate"} == TOP_INDETERMINATE
    assert len(states) == 30  # no side fails
    far = {(rec.id, probe.side) for rec in catalog() for probe in rec.probes if probe.endpoint == "far"}
    assert TOP_INDETERMINATE == far | {("product", "lower"), ("product", "upper")}


# below 2^-1000: small multiples of the least subnormal, and ratios from
# 1 + 2^-10 to 1e100 over smaller arguments from 2^-1074 to 2^-1002
BOTTOM_PAIRS = tuple(
    PositivePair(k * 2.0**-1074, j * 2.0**-1074) for k in range(2, 20) for j in range(1, k)
) + tuple(
    PositivePair(a, b)
    for b in (2.0**e for e in range(-1074, -1000, 4))
    for a in (float(r) * b for r in np.geomspace(1.0 + 2.0**-10, 1e100, 12))
    if a != b
)


def test_no_side_fails_below_2_to_the_minus_1000():
    # a subnormal mean carries absolute rounding noise of its last bits; each
    # mean counts as at least the smallest normal double in the noise sums,
    # so that noise leaves a side indeterminate, never failed
    assert len(BOTTOM_PAIRS) > 300
    for pair in BOTTOM_PAIRS:
        for rec in catalog():
            margins = verify(rec, pair)  # every pair is inside the Ky Fan domain too
            assert "fail" not in (margins.lower_state, margins.upper_state), (rec.id, pair)


def _verified(rec, pair) -> str:
    # repr: bitwise equal floats, NaN included
    try:
        return repr(verify(rec, pair))
    except NotApplicableError:
        return "not applicable"


def _fresh(rec, pair) -> str:
    # verify's margins from a lookup made for this record alone, judged
    # against the same threshold
    sample = rec.means_fn(_Means(pair.a, pair.b), None, None)
    sides = {}
    for side in ("lower", "upper"):
        m = getattr(sample, side)
        if m is not None:
            fail, ok = _judge(float(m), float(getattr(sample, f"{side}_scale")))
            sides[side] = float(m)
            sides[f"{side}_state"] = "fail" if fail else "ok" if ok else "indeterminate"
    return repr(Margins(rec.id, **sides))


def test_shared_pair_lookup_changes_no_margins():
    records = catalog()
    pair_major = [[_verified(rec, pair) for rec in records] for pair in MEMO_PAIRS]
    record_major = [[_verified(rec, pair) for pair in MEMO_PAIRS] for rec in records]
    assert pair_major == [list(row) for row in zip(*record_major)]
    for pair, row in zip(MEMO_PAIRS, pair_major):
        for rec, margins in zip(records, row):
            if margins != "not applicable":
                assert margins == _fresh(rec, pair), (rec.id, pair)


def test_an_override_after_a_shared_lookup_is_applied():
    rec = record("thm3.1")
    pair = PositivePair(3.0, 1.0)
    verify(rec, pair)  # the pair's mean values are now shared
    tightened = rec.lower.float_value + 0.01
    sample = rec.margins(pair.a, pair.b, lower_c=tightened)
    assert sample.lower == rec.means_fn(_Means(pair.a, pair.b), tightened, None).lower
    assert sample.lower != rec.margins(pair.a, pair.b).lower
    assert sample.upper == rec.margins(pair.a, pair.b).upper
    # arrays never reach the one-pair lookup
    info = _pair_means.cache_info()
    rec.margins(np.array([pair.a]), np.array([pair.b]), lower_c=tightened)
    assert _pair_means.cache_info() == info


def test_each_mean_is_computed_once_per_verified_pair(kernel_calls):
    records, calls = kernel_calls
    for rec in records:
        if rec.sampler == "log-ratio":
            verify(rec, PositivePair(3.0, 1.0))
    assert {symbol: len(c) for symbol, c in calls.items()} == dict.fromkeys(LOG_RATIO_MEANS, 1)


PAIRS = ((3.0, 1.0), (10.0, 1.0), (1.5, 1.0), (100.0, 7.0))
QUOTIENT_RECORDS = [spec for spec in SPECS if spec.form == "difference-ratio"]
NEGATIVE_DENOMINATORS = {"zhao-HQ", "zhao-GQ", "zhao-HC", "identric-IQ"}


def _difference(text, means, ch, a, b):
    # "Z-Y", "Z" or "CH" from the given means table and CH function
    terms = [ch(a, b) if s == "CH" else means[s](a, b) for s in text.strip().split("-")]
    return terms[0] - terms[1] if len(terms) == 2 else terms[0]


def test_quotient_records_are_thirteen_over_five_forms():
    assert len(QUOTIENT_RECORDS) == 13
    assert len({spec.form for spec in SPECS}) == 5


@pytest.mark.parametrize("spec", QUOTIENT_RECORDS, ids=lambda spec: spec.id)
def test_quotient_margins_match_the_oracle_quotient(spec):
    # each margin is sign(D)·(R - c) for R = N/D, in the constant's own units
    constants = hp_oracles.constants()
    bounds = {}
    for side in ("lower", "upper"):
        given = getattr(spec, side)
        if given is not None:
            bounds[side] = constants[f"{spec.id}.{side}"] if isinstance(given, tuple) else given
    rec = record(spec.id)
    for a, b in PAIRS:
        with mp.workdps(hp_oracles.DPS):
            num, den = (_difference(part, hp_oracles.MEANS, hp_oracles.ch_diff, a, b)
                        for part in spec.means.split("/"))
            ratio = num / den
            want = {side: mp.sign(den) * (ratio - c if side == "lower" else c - ratio)
                    for side, c in bounds.items()}
        got = rec.margins(a, b)
        for side, value in want.items():
            assert float(getattr(got, side)) == pytest.approx(float(value), rel=1e-10, abs=0.0), (side, a, b)


@pytest.mark.parametrize("spec", QUOTIENT_RECORDS, ids=lambda spec: spec.id)
def test_quotient_denominator_keeps_one_sign(spec):
    rng = np.random.default_rng(42)
    ratio = 10.0 ** rng.uniform(0.0, 8.0, 100_000)
    b = 10.0 ** rng.uniform(-3.0, 3.0, 100_000)
    kernels = {s: mean.kernel for s, mean in MEANS.items()}
    den = _difference(spec.means.split("/")[1], kernels, ch_difference, ratio * b, b)
    expected = -1.0 if spec.id in NEGATIVE_DENOMINATORS else 1.0
    assert np.all(np.sign(den) == expected)


def test_identities_between_records_in_the_quotient_unit():
    # (M-A)/(C-A) = 2(M-C)/CH + 1 and (M-C)/(H-C) = -(M-C)/CH, so neuman-CA is
    # twice thm3.1 and zhao-HC is thm3.1; (C-M)/CH = -(M-C)/CH and
    # (Cbar-M)/CH = (C-M)/CH - 1/3, so both corollaries are thm3.1 with the
    # sides swapped
    for pair in PAIRS:
        t31 = record("thm3.1").margins(*pair)
        ca = record("neuman-CA").margins(*pair)
        hc = record("zhao-HC").margins(*pair)
        c31 = record("cor3.1").margins(*pair)
        c32 = record("cor3.2").margins(*pair)
        for side in ("lower", "upper"):
            t = float(getattr(t31, side))
            assert float(getattr(ca, side)) == pytest.approx(2.0 * t, rel=1e-11, abs=0.0), pair
            assert float(getattr(hc, side)) == pytest.approx(t, rel=1e-11, abs=0.0), pair
        assert float(c31.lower) == float(t31.upper)
        assert float(c31.upper) == float(t31.lower)
        assert float(c32.lower) == pytest.approx(float(t31.upper), rel=1e-11, abs=0.0), pair
        assert float(c32.upper) == pytest.approx(float(t31.lower), rel=1e-11, abs=0.0), pair


# Every mean is A·φ(t) with t = |a - b|/(a + b).  Near a/b → 1 each is
# A·(1 + d·t² + O(t⁴)) and CH is A·2t²; far, at a/b → ∞, t → 1 and φ(1),
# in the constants' grammar, is the limit.
D_NEAR = {"A": Fraction(0), "G": Fraction(-1, 2), "H": Fraction(-1), "Cbar": Fraction(1, 3),
          "C": Fraction(1), "Q": Fraction(1, 2), "M": Fraction(1, 6), "I": Fraction(-1, 6)}
PHI_FAR = {"A": "1", "G": "0", "H": "0", "C": "2", "Cbar": "4/3", "Q": "sqrt(2)",
           "M": "1/ln(1+sqrt(2))", "I": "2/e", "CH": "2"}


def _near_terms(text):
    # "Z-Y", "Z" or "CH" as (its t⁰ coefficient, its t² coefficient) over A
    terms = [(0, Fraction(2)) if s == "CH" else (1, D_NEAR[s]) for s in text.strip().split("-")]
    if len(terms) == 1:
        return terms[0]
    (z0, z2), (y0, y2) = terms
    return z0 - y0, z2 - y2


def _far_value(text):
    terms = [expr_value(PHI_FAR[s]) for s in text.strip().split("-")]
    return terms[0] - terms[1] if len(terms) == 2 else terms[0]


def test_sharp_quotient_constants_are_the_limits_of_their_records():
    # R = (Z - Y)/(X - W) tends to each sharp constant at the end its probe
    # names and not at the other; R(0⁺) is exact, so a near-end constant's
    # text is the Fraction's
    checked = 0
    for spec in QUOTIENT_RECORDS:
        sharp = [(side, given[1]) for side, given in (("lower", spec.lower), ("upper", spec.upper))
                 if isinstance(given, tuple)]
        if not sharp:  # amt: fixed bounds, and T has no entry above
            continue
        num_text, den_text = spec.means.split("/")
        (num0, num2), (den0, den2) = _near_terms(num_text), _near_terms(den_text)
        assert den0 == 0 and den2 != 0, spec.id
        near = num2 / den2 if num0 == 0 else None  # "Z / CH" grows without bound near a = b
        with mp.workdps(40):
            limits = {"near": None if near is None else mp.mpf(near.numerator) / near.denominator,
                      "far": _far_value(num_text) / _far_value(den_text)}
            for side, endpoint in sharp:
                const = constant(f"{spec.id}.{side}")
                other = "far" if endpoint == "near" else "near"
                assert abs(limits[endpoint] - const.value) < mp.mpf("1e-35"), const.name
                assert limits[other] is None or abs(limits[other] - const.value) > mp.mpf("1e-35"), const.name
                if endpoint == "near":
                    assert const.exact_expr == str(near), const.name
                checked += 1
    assert checked == 23


def test_the_critical_exponent_is_the_far_end_root_of_its_record():
    # lp0-l2 is L_p0 < M < L_2.  At the far end its probe names, t -> 1,
    # L_p/M - 1 vanishes at the stored p0 and changes sign across it; near
    # a = b it is (p - 2)t^2/6 + O(t^4), so there the bound is attained at 2
    rec = record("lp0-l2")
    assert [probe.endpoint for probe in rec.probes] == ["far"]

    def gap(p, a, b):
        return hp_oracles.glog(p, a, b) / hp_oracles.neuman(a, b) - 1

    with mp.workdps(hp_oracles.DPS):
        p0, tiny, shift = rec.lower.value, mp.mpf("1e-35"), mp.mpf("1e-30")
        far = (mp.mpf(1), mp.mpf("1e-60"))
        near = (1 + mp.mpf("1e-3"), 1 - mp.mpf("1e-3"))
        assert abs(gap(p0, *far)) < tiny
        assert gap(p0 - shift, *far) < -tiny and gap(p0 + shift, *far) > tiny
        assert abs(gap(p0, *near)) > tiny
        assert gap(mp.mpf("1.99"), *near) < 0 < gap(2, *near)


def test_a_denominator_that_rounds_to_zero_gives_indeterminate_margins():
    # T - A rounds to 0 at a/b = 1 + 2^-30; no division by zero, no warning
    pair = PositivePair(1.0 + 2.0**-30, 1.0)
    m = verify("amt", pair)
    assert (m.lower, m.upper) == (0.0, 0.0)
    assert m.lower_state == m.upper_state == "indeterminate"
    for rec_id in ("neuman-QA", "zhao-HQ"):
        m = verify(rec_id, pair)
        assert m.lower_state == m.upper_state == "indeterminate", rec_id
    a = np.array([1.0 + 2.0**-30, 3.0])
    sample = record("amt").margins(a, np.ones(2))
    assert sample.lower[0] == sample.upper[0] == 0.0
    assert sample.lower[1] > 0.0 and sample.upper[1] > 0.0


def test_product_margins_of_arrays_that_overflow_are_indeterminate_without_a_warning():
    # the squares of a mean near 1e200 overflow in an array as on one pair;
    # the suite turns a RuntimeWarning on the way into an error
    sample = record("product").margins(np.array([1e200, 3.0]), np.ones(2))
    assert sample.lower[0] == sample.upper[0] == 0.0
    for side in ("lower", "upper"):
        fail, ok = _judge(getattr(sample, side), getattr(sample, side + "_scale"))
        assert not fail[0] and not ok[0], side
        assert ok[1], side


def test_squares_that_overflow_give_indeterminate_product_margins():
    # A^2 + T^2 overflows from about 1e154, and inf - inf is no margin: both
    # sides are 0 and indeterminate, and the machine rows stay strict JSON
    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    for a in (1e200, 1.7e308):
        row = reporting.pair_margins_row(verify("product", PositivePair(a, 1.0)), a, 1.0)
        (line,) = reporting.render([row], "json-lines").splitlines()
        parsed = json.loads(line, parse_constant=no_constant)
        assert parsed["margins"] == {"lower": 0.0, "upper": 0.0}
        assert parsed["values"] == {"lower_state": "indeterminate", "upper_state": "indeterminate"}
        assert parsed["pass"] is True
        (cells,) = csv.DictReader(io.StringIO(reporting.render([row], "csv")))
        assert json.loads(cells["margins"], parse_constant=no_constant) == parsed["margins"]


def test_linear_relations_between_quadratic_means():
    # 2(C-A) = C-H = CH and 6(Cbar-A) = 3(C-Cbar) = 2(A-H) = (3/2)(Cbar-H) = CH
    for a, b in ((3.0, 1.0), (7.0, 2.0), (1.5, 1.0), (250.0, 3.0)):
        ch = ch_difference(a, b)
        rels = (
            2 * (contraharmonic(a, b) - arithmetic(a, b)),
            contraharmonic(a, b) - harmonic(a, b),
            6 * (centroidal(a, b) - arithmetic(a, b)),
            3 * (contraharmonic(a, b) - centroidal(a, b)),
            2 * (arithmetic(a, b) - harmonic(a, b)),
            1.5 * (centroidal(a, b) - harmonic(a, b)),
        )
        for r in rels:
            assert r == pytest.approx(ch, rel=1e-14, abs=0.0)


def test_linear_relations_near_equal_in_high_precision():
    # the same identities at a/b = 1 + 1e-8, where double subtraction is
    # hopeless, hold exactly in high-precision arithmetic (60 digits leaves
    # ~43 after the 17 lost to the cancellation itself)
    with mp.workdps(60):
        a, b = mp.mpf(1) + mp.mpf("1e-8"), mp.mpf(1)
        A = (a + b) / 2
        H = 2 * a * b / (a + b)
        C = (a * a + b * b) / (a + b)
        CB = 2 * (a * a + a * b + b * b) / (3 * (a + b))
        CH = (a - b) ** 2 / (a + b)
        for r in (2 * (C - A), C - H, 6 * (CB - A), 3 * (C - CB), 2 * (A - H),
                  mp.mpf(3) / 2 * (CB - H)):
            assert abs(r - CH) / CH < mp.mpf("1e-30")


# ---------------------------------------------------------------- sharpness


def test_every_sharp_constant_probe_finds_a_witness():
    for rec in catalog():
        if not rec.probes:
            continue
        for result in sharpness_probe(rec, 1e-6):
            assert result.found, (rec.id, result.constant_name)
            assert result.witness is not None
            assert result.margin < 0
            # the witness really violates the tightened inequality
            overrides = {f"{result.side}_c": result.tightened}
            sample = rec.margins(*result.witness, **overrides)
            got = sample.lower if result.side == "lower" else sample.upper
            assert float(got) == result.margin


@pytest.mark.parametrize("epsilon", [1e-3, 1e-6, 1e-9, 1e-12])
def test_probe_reports_the_first_failing_step(epsilon):
    # the batched probe must return the witness a step-by-step walk finds first
    for rec in catalog():
        if not rec.probes:
            continue
        for result in sharpness_probe(rec, epsilon):
            if not result.found:
                continue
            ratio = result.witness[0]
            assert ratio > 1.0
            k = result.steps
            assert ratio == (1.0 + 2.0 ** -k if result.endpoint == "near" else 2.0 ** k)
            if k == 1:
                continue
            before = 1.0 + 2.0 ** (1 - k) if result.endpoint == "near" else 2.0 ** (k - 1)
            overrides = {f"{result.side}_c": result.tightened}
            sample = rec.margins(before, 1.0, **overrides)
            m = float(getattr(sample, result.side))
            noise = 100 * np.finfo(np.float64).eps * 16 * float(getattr(sample, f"{result.side}_scale"))
            assert not (m < 0.0 and -m > noise), (result.constant_name, k)


def test_probe_witnesses_sit_at_the_right_endpoints():
    by_name = {
        r.constant_name: r for r in sharpness_probe(record("thm3.1"), 1e-6)
    }
    upper = by_name["thm3.1.upper"]
    assert upper.endpoint == "near"
    assert 1.0 < upper.witness[0] < 1.1  # near-equal pair
    lower = by_name["thm3.1.lower"]
    assert lower.endpoint == "far"
    assert lower.witness[0] > 1e4  # extreme-ratio pair


@pytest.mark.parametrize("epsilon,steps", [(1e-6, 20), (1e-9, 29)])
def test_lp0_l2_probe_margin_matches_the_oracle(epsilon, steps):
    # the paper's sharp exponent: M - L_{p0 + eps} at the far witness, to
    # within 1e-15 M of its 50-digit value
    (result,) = (r for r in sharpness_probe("lp0-l2", epsilon) if r.side == "lower")
    assert (result.witness, result.steps) == ((2.0**steps, 1.0), steps)
    a, b = result.witness
    m = hp_oracles.neuman(a, b)
    want = m - hp_oracles.glog(result.tightened, a, b)
    assert abs(result.margin - float(want)) <= 1e-15 * float(m)


def test_tightened_lower_bound_fails_at_extreme_ratio():
    # tightening the lower ratio bound is violated by a/b ~ 1e8 directly
    rec = record("thm3.1")
    tight = rec.lower.float_value + 1e-6
    sample = rec.margins(1e8, 1.0, lower_c=tight)
    assert float(sample.lower) < 0


def test_probe_validation():
    with pytest.raises(ParameterError):
        sharpness_probe("chain", 1e-6)  # no sharp constants attached
    with pytest.raises(ParameterError):
        sharpness_probe("thm3.1", 0.0)
    with pytest.raises(ParameterError):
        sharpness_probe("thm3.1", -1e-6)
    with pytest.raises(ParameterError):
        sharpness_probe("thm3.1", float("inf"))
    with pytest.raises(ParameterError):
        sharpness_probe("thm3.1", float("nan"))


def test_probe_does_not_disturb_the_record():
    rec = record("thm3.4")
    before = verify(rec, PositivePair(3.0, 1.0))
    sharpness_probe(rec, 1e-6)
    after = verify(rec, PositivePair(3.0, 1.0))
    assert before == after
