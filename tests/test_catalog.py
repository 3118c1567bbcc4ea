"""The inequality catalog: margins, random verification, scaling, sharpness."""

import csv
import dataclasses
import importlib
import io
import json
import math
import pkgutil
import sys
import threading
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

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
from meanslab import means as means_module
from meanslab.means import _BLOCK, MEANS, _of_order, arithmetic, centroidal, ch_difference, contraharmonic, harmonic
from meanslab.records import (
    _FOLD_BLOCK,
    _PAGE,
    SPECS,
    InequalityRecord,
    Margins,
    MarginSample,
    RecordSpec,
    VerificationReport,
    _judge,
    _entry,
    _context,
    _Means,
    _minimum,
    _pair_means,
    _parse,
    _side,
    _sign,
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


# every name the package exported while it kept its own list; none may be dropped
EXPORTED_BEFORE = """
    DegeneratePairError DifferenceReport DomainError IdentityResiduals InequalityRecord
    LemmaSeries MEANS Margins NotApplicableError ParameterError PositivePair ProbeResult
    ProbeSpec ScanVerdict SeriesId SharpConstant THETA_STAR VerificationReport __version__
    arithmetic catalog centroidal ch_difference constant contraharmonic difference_sign_check
    expr_value first_seiffert format_float generalized_logarithmic geometric h_eval harmonic
    identity_residuals monotonicity_scan neuman_sandor record root_square second_seiffert
    sharp_constants sharpness_probe solve_p0 substitution_theta verify verify_all verify_random
""".split()


def test_the_package_exports_exactly_its_modules_public_names():
    star = {}
    exec("from meanslab import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(meanslab.__all__)
    owners = defaultdict(list)
    for name in ("constants", "errors", "means", "ratios", "records", "series"):
        module = importlib.import_module(f"meanslab.{name}")
        for public in module.__all__:
            owners[public].append(name)
            assert getattr(meanslab, public) is getattr(module, public), (name, public)
    # a name in two lists would be bound by whichever star import ran last
    assert {k: v for k, v in owners.items() if len(v) > 1} == {}
    assert sorted(meanslab.__all__) == sorted(["__version__", *owners])
    assert set(EXPORTED_BEFORE) <= set(meanslab.__all__)


def test_catalog_contents():
    recs = catalog()
    assert {r.id for r in recs} == EXPECTED_IDS
    assert len(recs) == 17
    with pytest.raises(ParameterError):
        record("thm9.9")


def test_record_ids_are_unique():
    # record() returns the first match, so a second spec of one id would never be looked up
    assert [rid for rid, n in Counter(spec.id for spec in SPECS).items() if n > 1] == []


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


def test_a_margin_sample_is_an_immutable_named_tuple():
    sample = record("thm3.1").margins(3.0, 1.0)
    assert isinstance(sample, tuple)
    assert sample._fields == ("lower", "upper", "lower_scale", "upper_scale")
    assert repr(sample) == "MarginSample(lower={!r}, upper={!r}, lower_scale={!r}, upper_scale={!r})".format(*sample)
    assert repr(sample).startswith("MarginSample(lower=0.010790592681771738, upper=0.005246412098306064, ")
    with pytest.raises(AttributeError):
        sample.lower = 0.0


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


# a made-up chain: A < G fails on every pair
FALSE_CHAIN = build_record(RecordSpec("false-ag", "chain", "A G"))


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


def _one_rule_pairs():
    rng = np.random.default_rng(71)
    ratio, b = 10.0 ** rng.uniform(0.0, 8.0, 150), 10.0 ** rng.uniform(-3.0, 3.0, 150)
    ky_fan = rng.uniform(1e-6, 0.5 - 1e-6, (2, 60))
    return (
        [PositivePair(float(r * y), float(y)) for r, y in zip(ratio, b)]  # certify's distribution
        + [PositivePair(1.0 + 2.0**-k, 1.0) for k in range(1, 53)]  # near-equal, down to one ulp
        + [PositivePair(1e300 * y, y) for y in (1e-300, 1e-150, 1.0, 1e8)]
        + [PositivePair(1.7e308, 1e308), PositivePair(1.79e308, 1.0), PositivePair(2.0**1023, 1.5 * 2.0**1022)]
        + list(LOSSY_TOP_PAIRS)
        + [PositivePair(float(x), float(y)) for x, y in ky_fan.T]
    )


def test_verify_judges_a_pair_by_the_rule_of_the_array_forms():
    # one pair's floats and a one-element array take the same forms and the
    # same _judge rule: equal margins, bit for bit, and equal states
    pairs = _one_rule_pairs()
    for rec in catalog():
        checked = 0
        for pair in pairs:
            try:
                m = verify(rec, pair)
            except NotApplicableError:
                assert rec.domain_note is not None
                continue
            sample = rec.margins(np.array([pair.a]), np.array([pair.b]))
            for side in ("lower", "upper"):
                margin, state, array = getattr(m, side), getattr(m, f"{side}_state"), getattr(sample, side)
                if array is None:
                    assert margin is None and state is None, (rec.id, side)
                    continue
                fail, ok = _judge(array, getattr(sample, f"{side}_scale"))
                assert type(margin) is float, (rec.id, pair)
                assert np.float64(margin).tobytes() == array[0].tobytes(), (rec.id, side, pair)
                assert state == ("fail" if fail[0] else "ok" if ok[0] else "indeterminate"), (rec.id, side, pair)
            checked += 1
        assert checked >= 60, rec.id
    # the float steps of the forms, on what no pair above reaches
    values = (-2.0, -0.0, 0.0, 3.0, math.inf, math.nan)
    for x in values:
        assert np.float64(_sign(x)).tobytes() == np.sign(np.array([x]))[0].tobytes(), x
        for y in values:
            assert np.float64(_minimum(x, y)).tobytes() == np.minimum(np.array([x]), y)[0].tobytes(), (x, y)


def test_verify_random_validation():
    with pytest.raises(ParameterError):
        verify_random("thm3.1", 0, seed=1)
    with pytest.raises(ParameterError):
        verify_all(catalog(), 0, seed=1)
    with pytest.raises(ParameterError, match="^seed must be >= 0$"):
        verify_all(catalog(), 10, seed=-1)


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


def _made_up(rec_id, margin, scale=None, upper=None, upper_scale=None):
    # a record whose margins are margin(a, b) and upper(a, b) (None: no upper
    # side), with noise scales scale(a, b) (None: 1); the upper side shares
    # the lower side's scale array unless it has an upper_scale of its own
    def margin_fn(a, b, lo_c, up_c):
        a, b = np.asarray(a), np.asarray(b)
        m = margin(a, b)
        s = np.ones_like(m) if scale is None else scale(a, b)
        if upper is None:
            return MarginSample(m, None, s, None)
        return MarginSample(m, upper(a, b), s, s if upper_scale is None else upper_scale(a, b))

    return InequalityRecord(rec_id, "chain", None, None,
                            margin_fn=margin_fn,
                            means_fn=lambda means, lo_c, up_c: margin_fn(means.a, means.b, lo_c, up_c))


NOISE = 100 * np.finfo(np.float64).eps * 16  # the threshold of a margin with noise scale 1
# margins of 0 on every pair, which no noise threshold clears (the grammar
# refuses M < M, the chain that would give them)
NOISE_CHAIN = _made_up("noise-zero", lambda a, b: np.zeros_like(a))


def _by_decade(*values):
    # (a, b) -> the value listed for the decade of a/b, the last one past the list
    def pick(a, b):
        decade = np.clip(np.floor(np.log10(a / b)), 0, len(values) - 1).astype(int)
        return np.choose(decade, values)

    return pick


MADE_UP = (
    # margins of 0 on every pair, so every block ties and the first pair must
    # stay the witness
    FALSE_CHAIN,
    NOISE_CHAIN,
    # NaN ranks as +inf: NaN below a/b = 1e4, tied decades above it
    _made_up("nan-decades", lambda a, b: np.where(a < 1e4 * b, np.nan, np.floor(np.log10(a / b)))),
    _made_up("all-nan", lambda a, b: np.full_like(a, np.nan)),
    # the least margin is negative but inside the noise: no failure, and
    # those pairs are indeterminate
    _made_up("inside-noise", _by_decade(-NOISE / 4, 1.0)),
    # failures, passes and indeterminate pairs in one block; the least margin
    # is inside its own (large) noise, and a smaller one is a failure
    _made_up("hidden-failure", _by_decade(-500 * NOISE, -NOISE / 100, NOISE / 4, 1.0),
             _by_decade(1e3, 1e-3, 1.0)),
    # +inf and NaN scales leave margins of either sign indeterminate
    _made_up("odd-scales", _by_decade(-1.0, 1.0, -1.0, 1.0, -1.0, 1.0),
             _by_decade(np.inf, np.inf, np.nan, np.nan, 1.0)),
    # a least margin of -0.0, beside +0.0, on a scale of 0: neither clears it
    _made_up("negative-zero", _by_decade(-0.0, 0.0, 1.0), _by_decade(0.0, 0.0, 1.0)),
    # two sides on one scale array, the lower one failing in some blocks
    _made_up("shared-scale", _by_decade(-2 * NOISE, 1.0, 1.0, NOISE / 2, 1.0), _by_decade(1.0, 1.0, 1.0, 0.1, 1.0),
             _by_decade(1.0, NOISE / 2, -2 * NOISE, 1.0, -NOISE / 2, 1.0)),
    # two sides with scales of their own: 0.1 decides the upper side's ±NOISE/2
    _made_up("own-scales", _by_decade(-NOISE / 2, 1.0), None,
             _by_decade(1.0, NOISE / 2, -NOISE / 2, 1.0), lambda a, b: np.full_like(a, 0.1)),
)


@pytest.mark.parametrize(
    "count,seed",
    [(count, seed) for count in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3) for seed in (42, 3)]
    # counts that straddle the blocks of the walk
    + [(count, 42) for count in (_FOLD_BLOCK - 1, _FOLD_BLOCK + 1, 2 * _FOLD_BLOCK + 3)]
    # counts that straddle the pages of the draw
    + [(count, 42) for count in (_PAGE - 1, _PAGE + 1, 2 * _PAGE - 1, 2 * _PAGE + 1, 4 * _PAGE + _BLOCK + 3)],
)
def test_fused_reports_equal_the_whole_array_aggregation(count, seed):
    records = catalog() + MADE_UP
    fused = verify_all(records, count, seed)
    assert [rep.record_id for rep in fused] == [rec.id for rec in records]
    for rec, rep in zip(records, fused):
        # repr: bitwise equal floats, NaN included
        assert repr(rep) == repr(_whole_array_report(rec, count, seed)), rec.id
    by_id = {rep.record_id: rep for rep in fused}
    assert by_id["false-ag"].failures == count
    assert by_id["noise-zero"].indeterminate == count
    assert math.isnan(by_id["all-nan"].min_lower_margin)
    if count > 1:  # each made-up record reaches the case it is named for
        inside = by_id["inside-noise"]
        assert inside.min_lower_margin < 0.0 and inside.failures == 0 < inside.indeterminate
        hidden = by_id["hidden-failure"]
        assert -NOISE * 1e3 < hidden.min_lower_margin < 0.0 < hidden.failures < count - hidden.indeterminate
        assert 0 < by_id["odd-scales"].failures < count - by_id["odd-scales"].indeterminate
        assert math.copysign(1.0, by_id["negative-zero"].min_lower_margin) == -1.0


def test_the_memory_of_a_sample_does_not_grow_with_its_count(traced_peak):
    # the draw is made page by page: four times the pairs, the same peak
    small, large = (traced_peak(verify_all, catalog(), count, 1)[1] for count in (2**18, 2**20))
    assert large <= 1.1 * small, (small, large)


def test_a_sample_allocates_a_few_blocks_and_a_page(traced_peak):
    # 6.51 MiB with 2^14-pair blocks, 2^17-pair pages drawn through temporaries
    # and a kernel call per mean; 3.20 MiB with 2^13-pair blocks, one pair
    # table per block and 2^16-pair pages drawn in place
    peak = traced_peak(verify_all, catalog(), 2**20, 1)[1]
    assert peak < 4.5 * 2**20, peak


def test_a_sample_far_beyond_memory_starts_its_walk(monkeypatch):
    # 10^12 pairs would be 16 TB drawn at once; the first block's fold runs
    # before more than a page of them is drawn
    class Sentinel(Exception):
        pass

    def stop(self, means):
        raise Sentinel

    monkeypatch.setattr(importlib.import_module("meanslab.records")._Fold, "add", stop)
    with pytest.raises(Sentinel):
        verify_all(catalog(), 10**12, 1)


LOG_RATIO_MEANS = {"A", "G", "H", "Cbar", "C", "P", "T", "Q", "M", "I", "L", "CH"}


@pytest.fixture
def kernel_calls(monkeypatch):
    """Records rebuilt over kernels whose bodies count their calls; returns
    them and the (hi, lo) of every call, by mean symbol."""
    calls = defaultdict(list)

    def counted(symbol, kernel):
        def body(pair):
            calls[symbol].append((pair.hi, pair.lo))
            return kernel.body(pair)

        spy = partial(kernel)  # the kernel, carrying the counting body
        spy.body = body
        return spy

    for symbol, mean in list(MEANS.items()):
        monkeypatch.setitem(MEANS, symbol, mean._replace(kernel=counted(symbol, mean.kernel)))
    module = importlib.import_module("meanslab.records")
    monkeypatch.setattr(module, "ch_difference", counted("CH", ch_difference))
    return [build_record(spec) for spec in SPECS], calls


def test_each_mean_is_computed_once_per_block(kernel_calls):
    records, calls = kernel_calls
    log_ratio = [rec for rec in records if rec.sampler == "log-ratio"]
    blocks = 3
    verify_all(log_ratio, 2 * _FOLD_BLOCK + 3, seed=1)
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
    verify_all([kyfan], 2 * _FOLD_BLOCK + 3, seed=1)
    assert set(calls) == {"G", "L", "P", "A", "M", "T"}
    for symbol, pairs in calls.items():
        # per block: the pair itself, then the reflected pair, freshly
        # computed on a lookup of its own; 1 - x reverses the order
        assert len(pairs) == 2 * 3, symbol
        for (hi, lo), (hi2, lo2) in zip(pairs[::2], pairs[1::2]):
            assert np.array_equal(hi2, 1.0 - lo) and np.array_equal(lo2, 1.0 - hi), symbol


@pytest.mark.parametrize("sampler,lookups", [("log-ratio", 1), ("unit-interval", 2)])
def test_a_block_orders_its_pairs_and_forms_its_gaps_once(sampler, lookups, monkeypatch):
    # one _canon and one (A, t) per lookup, however many kernels read them;
    # a Ky Fan block has a second lookup, of its reflected pair
    canon, mean_gap = means_module._canon, means_module._mean_gap
    calls = defaultdict(list)

    def spy(name, fn):
        def counted(hi, lo):
            calls[name].append(np.size(hi))
            return fn(hi, lo)
        return counted

    monkeypatch.setattr(means_module, "_canon", spy("canon", canon))
    monkeypatch.setattr(means_module, "_mean_gap", spy("mean_gap", mean_gap))
    verify_all([rec for rec in catalog() if rec.sampler == sampler], 2 * _FOLD_BLOCK + 3, 1)
    sizes = [size for size in (_FOLD_BLOCK, _FOLD_BLOCK, 3) for _ in range(lookups)]
    assert calls == {"canon": sizes, "mean_gap": sizes}


def test_lookups_on_two_threads_keep_their_own_bits():
    # the pair table travels with its lookup, so two callers' threads
    # switching every microsecond never read each other's gaps
    rng = np.random.default_rng(71)
    blocks = [(10.0 ** rng.uniform(0.0, 8.0, 512), np.ones(512)), (np.ones(512), 1.0 + rng.random(512))]
    p0 = constant("lp0-l2.lower").float_value
    kernels = [mean.kernel for mean in MEANS.values()] + [ch_difference, _of_order(p0), _of_order(2.0)]

    def bits(a, b):  # every kernel off one lookup
        lookup = _Means(a, b)
        return [lookup[k].tobytes() for k in kernels]

    want = [bits(*block) for block in blocks]
    both = threading.Barrier(2)

    def walk(i):
        both.wait(timeout=10)
        return all(bits(*blocks[i]) == want[i] for _ in range(50))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            assert list(pool.map(walk, (0, 1))) == [True, True]
    finally:
        sys.setswitchinterval(interval)


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


def test_python_ints_take_the_one_pair_lookup():
    # an int, with another int or a float, gives the margins of its float()
    for rec in catalog():
        if rec.sampler != "log-ratio":  # no int lies in (0, 1/2)
            continue
        for x, y in ((3, 1), (1, 3), (2, 7.5), (10**300, 1)):
            want = rec.margins(float(x), float(y))
            info = _pair_means.cache_info()
            got = rec.margins(x, y)
            lookups = _pair_means.cache_info()
            assert lookups.hits + lookups.misses == info.hits + info.misses + 1, (rec.id, x, y)
            assert repr(got) == repr(want), (rec.id, x, y)
            assert type(got.lower) is float, (rec.id, x, y)


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
            bounds[side] = constants[f"{spec.id}.{side}"] if given in ("near", "far") else given
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
    # tightening raises a lower bound on R where X - W > 0 and lowers it where X - W < 0
    assert all(p.tighten == (expected if p.side == "lower" else -expected) for p in record(spec.id).probes)


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


# Every mean is A·φ(t) with t = |a - b|/(a + b).  Near a = b each is
# A·(1 + d·t² + O(t⁴)), with d its ``near``, and CH is A·2t²; far, at
# a/b → ∞, t → 1 and its ``far`` text is the limit φ(1).
@pytest.mark.parametrize("symbol", [*MEANS, "CH"])
def test_each_mean_s_two_ends_are_its_oracle_s_limits(symbol):
    entry = _entry(symbol)
    oracle = hp_oracles.ch_diff if symbol == "CH" else hp_oracles.MEANS[symbol]
    with mp.workdps(hp_oracles.DPS):
        tiny = mp.mpf("1e-10")
        a, b = 1 + tiny, 1 - tiny
        mean, t = (a + b) / 2, (a - b) / (a + b)
        d = (oracle(a, b) / mean - (0 if symbol == "CH" else 1)) / t**2
        assert abs(d - mp.mpf(entry.near.numerator) / entry.near.denominator) < mp.mpf("1e-15"), symbol
        a, b = mp.mpf(10) ** 60, mp.mpf(1)
        mean, t = (a + b) / 2, (a - b) / (a + b)
        # L/A = 2t/ln(a/b) reaches its limit 0 only logarithmically; the others are within 1e-29
        slow = 2 * t / mp.log(a / b) if symbol == "L" else 0
        assert abs(oracle(a, b) / mean - slow - expr_value(entry.far)) < mp.mpf("1e-25"), symbol


def _oracle_quotient(spec, a, b):
    num, den = (_difference(part, hp_oracles.MEANS, hp_oracles.ch_diff, a, b) for part in spec.means.split("/"))
    return num / den


def test_sharp_quotient_constants_are_the_limits_of_their_records():
    # R = (Z - Y)/(X - W), from the oracles, tends to each sharp constant at
    # the end its spec names (a/b = 1 + 2e-10 and 1e60 here) and not at the other
    checked = 0
    for spec in QUOTIENT_RECORDS:
        with mp.workdps(hp_oracles.DPS):
            tiny = mp.mpf("1e-10")
            limits = {"near": _oracle_quotient(spec, 1 + tiny, 1 - tiny),
                      "far": _oracle_quotient(spec, mp.mpf(10) ** 60, mp.mpf(1))}
            for side in ("lower", "upper"):
                endpoint = getattr(spec, side)
                if endpoint not in ("near", "far"):  # amt: fixed bounds
                    continue
                const = constant(f"{spec.id}.{side}")
                other = "far" if endpoint == "near" else "near"
                assert abs(limits[endpoint] - const.value) < mp.mpf("1e-15"), const.name
                assert abs(limits[other] - const.value) > mp.mpf("1e-3"), const.name
                checked += 1
    assert checked == 23


@pytest.mark.parametrize("form,means,endpoint", [
    ("difference-ratio", "M-A / T-Cbar", "near"),  # d_T = d_Cbar = 1/3: T - Cbar has no t² term
    ("difference-ratio", "M-A / G-H", "far"),  # φ_G(1) = φ_H(1) = 0
    ("difference-ratio", "M / CH", "near"),  # M/CH grows without bound at a = b
    ("exponent-window", "M", "near"),  # p0 is the far order of L_p < M only
    ("exponent-window", "Q", "far"),
])
def test_ends_that_leave_a_constant_undecided_are_refused(form, means, endpoint):
    spec = RecordSpec("made-up", form, means, endpoint, 2.0)
    symbols = _parse(spec)  # in the grammar: only the derivation refuses it
    with pytest.raises(ParameterError, match=f"made-up.lower: .* {endpoint} constant"):
        _side(spec, symbols, "lower")
    with pytest.raises(ParameterError, match=f"made-up.lower: .* {endpoint} constant"):
        build_record(spec)


def test_a_new_record_needs_one_spec_line():
    # T-A / Q-A has no entry anywhere but its spec: the texts, the claims and
    # the probes of its constants all follow from it
    spec = RecordSpec("seiffert-TA", "difference-ratio", "T-A / Q-A", "far", "near")
    rec = build_record(spec)
    assert rec.lower.exact_expr == "(4/pi - 1)/(sqrt(2) - 1)"
    assert rec.upper.exact_expr == "2/3"
    with mp.workdps(hp_oracles.DPS):
        want = _oracle_quotient(spec, mp.mpf(10) ** 60, mp.mpf(1))
        assert mp.nstr(want, 20).startswith("0.6596586146762797")
        assert abs(expr_value(rec.lower.exact_expr) - want) < mp.mpf("1e-45")
    assert rec.lower.context == "sharp weight in alpha*Q + (1-alpha)*A < T"
    assert rec.upper.context == "sharp weight in T < beta*Q + (1-beta)*A"
    assert [(probe.tighten, probe.endpoint) for probe in rec.probes] == [(1.0, "far"), (-1.0, "near")]
    assert [result.found for result in sharpness_probe(rec, 1e-6)] == [True, True]
    assert len(sharp_constants()) == 24


@pytest.mark.parametrize("form,means,side,context", [
    ("difference-ratio", "M-A / T-Cbar", "lower", "sharp coefficient in alpha*(T - Cbar) < M - A"),
    ("difference-ratio", "M / CH", "upper", "sharp coefficient in M < beta*CH"),
    ("difference-ratio", "Q-A / C", "upper", "sharp coefficient in Q - A < beta*C"),
    ("exponent-window", "M", "upper", "sharp exponent in M < L_q"),
])
def test_contexts_of_shapes_outside_the_catalog(form, means, side, context):
    spec = RecordSpec("made-up", form, means, 0.0, 1.0)
    assert _context(spec, _parse(spec), side) == context


# Specs outside the grammar of RecordSpec: each must be refused before it can
# build a record that is silently wrong or fails at its first margins.
MALFORMED_SPECS = [
    RecordSpec("sharp-end-on-a-chain", "chain", "A G", "near"),
    RecordSpec("fixed-bound-on-a-chain", "chain", "A G", 0.0),
    RecordSpec("unknown-mean", "difference-ratio", "M-A / Q-X", "far", "near"),
    RecordSpec("unknown-form", "chian", "A G"),
    RecordSpec("three-term-side", "difference-ratio", "M-A-G / Q-A", "far", "near"),
    RecordSpec("three-sides", "difference-ratio", "M-A / Q-A / C", "far", "near"),
    RecordSpec("no-divisor", "difference-ratio", "M-A", "far"),
    RecordSpec("ch-above-the-bar", "difference-ratio", "CH-A / Q-A", "far", "near"),
    RecordSpec("ch-in-a-difference-below", "difference-ratio", "M-A / CH-A", "far"),
    RecordSpec("ch-in-a-chain", "chain", "A CH"),
    RecordSpec("capitalised-end", "difference-ratio", "M-A / Q-A", "Near", "near"),
    RecordSpec("one-end-on-both-sides", "difference-ratio", "M-A / Q-A", "far", "far"),
    RecordSpec("nan-bound", "difference-ratio", "M-A / T-A", math.nan, 1.0),
    RecordSpec("infinite-bound", "difference-ratio", "M-A / T-A", 0.0, math.inf),
    RecordSpec("int-bound-past-the-doubles", "difference-ratio", "M-A / T-A", 0, 10**400),
    RecordSpec("bool-bound", "difference-ratio", "M-A / T-A", True, 1.0),
    RecordSpec("quotient-without-a-lower-side", "difference-ratio", "M-A / T-A", None, 1.0),
    RecordSpec("window-without-an-upper-side", "exponent-window", "M", "far"),
    RecordSpec("two-means-in-a-product", "product-bound", "A M"),
    RecordSpec("four-means-in-a-product", "product-bound", "A M T Q"),
    RecordSpec("two-means-in-a-window", "exponent-window", "M Q", 1.0, 2.0),
    RecordSpec("one-mean-chain", "chain", "A"),
    RecordSpec("one-mean-ky-fan-chain", "ky-fan-chain", "A"),
    # a mean compared with itself: every margin would be 0 and never judged
    RecordSpec("divisor-a-mean-minus-itself", "difference-ratio", "M-A / Q-Q", 0.0, 1.0),
    RecordSpec("dividend-a-mean-minus-itself", "difference-ratio", "M-M / Q-A", 0.0, 1.0),
    RecordSpec("dividend-a-mean-minus-itself-sharp", "difference-ratio", "M-M / Q-A", "far", "near"),
    RecordSpec("chain-repeating-its-only-mean", "chain", "A A"),
    RecordSpec("chain-repeating-a-mean", "chain", "G A A Q"),
    RecordSpec("product-of-one-mean", "product-bound", "A A A"),
    RecordSpec("ky-fan-chain-repeating-a-mean", "ky-fan-chain", "A A"),
]


@pytest.mark.parametrize("spec", MALFORMED_SPECS, ids=lambda spec: spec.id)
def test_a_spec_outside_the_grammar_is_refused_by_its_id(spec):
    with pytest.raises(ParameterError, match=f"^{spec.id}: "):
        build_record(spec)


def test_the_catalog_names_its_constants_only_in_its_specs():
    # each constant's name is derived from its record's id: no module of the
    # package types one, so a new record is one SPECS line
    names = [f"{spec.id}.{side}" for spec in SPECS for side in ("lower", "upper")]
    for path in sorted(Path(meanslab.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert [name for name in names if name in text] == [], path.name


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
