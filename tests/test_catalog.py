"""The inequality catalog: margins, random verification, scaling, sharpness."""

from collections import Counter

import mpmath as mp
import numpy as np
import pytest

import hp_oracles
from meanslab import (
    DegeneratePairError,
    NotApplicableError,
    ParameterError,
    PositivePair,
    catalog,
    record,
    sharp_constants,
    sharpness_probe,
    verify,
    verify_random,
)
from meanslab.catalog import RecordSpec, build_record
from meanslab.means import arithmetic, centroidal, ch_difference, contraharmonic, harmonic

EXPECTED_IDS = {
    "neuman-QA", "neuman-CA", "zhao-HQ", "zhao-GQ", "zhao-HC", "identric-IQ",
    "thm3.1", "thm3.2", "thm3.3", "thm3.4", "cor3.1", "cor3.2",
    "chain", "lp0-l2", "amt", "product", "kyfan",
}


def test_catalog_contents():
    recs = catalog()
    assert {r.id for r in recs} == EXPECTED_IDS
    assert len(recs) == 17
    for r in recs:
        assert r.statement
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
    assert m2.lower == pytest.approx(1.5107905926817720, rel=1e-13)
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
    for rec in catalog():
        rep = verify_random(rec, 100_000, seed=42)
        assert rep.passed, (rec.id, rep)
        assert rep.failures == 0
        assert rep.samples == 100_000


def test_verify_random_is_deterministic():
    a = verify_random("thm3.3", 5_000, seed=11)
    b = verify_random("thm3.3", 5_000, seed=11)
    assert a == b
    c = verify_random("thm3.3", 5_000, seed=12)
    assert c != a


def test_verify_random_single_sample_matches_verify():
    # two made-up chains: A < G fails on every pair, and M < M never clears the noise
    false_chain = build_record(RecordSpec("false-ag", "classical-ordering", "chain", "A G"))
    noise_chain = build_record(RecordSpec("noise-mm", "classical-ordering", "chain", "M M"))
    for rec in ("thm3.1", "neuman-QA", "chain", "lp0-l2", "thm3.2", false_chain, noise_chain):
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
    assert verify(false_chain, PositivePair(3.0, 1.0)).lower_state == "fail"
    assert verify(noise_chain, PositivePair(3.0, 1.0)).lower_state == "indeterminate"


def test_verify_random_validation():
    with pytest.raises(ParameterError):
        verify_random("thm3.1", 0, seed=1)


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
            assert float(v1) == pytest.approx(float(v0) * factor, rel=1e-12), (
                rec.id, side)


def test_neuman_ca_margins_are_ch_times_the_ratio_margins():
    # algebraically, the convex-combination margins of the C/A record are
    # exactly CH times the (M-C)/CH ratio margins
    for pair in ((3.0, 1.0), (10.0, 1.0), (1.5, 1.0), (100.0, 7.0)):
        ca = record("neuman-CA").margins(*pair)
        t31 = record("thm3.1").margins(*pair)
        ch = ch_difference(*pair)
        assert float(ca.lower) == pytest.approx(ch * float(t31.lower), rel=1e-12)
        assert float(ca.upper) == pytest.approx(ch * float(t31.upper), rel=1e-12)


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
            assert r == pytest.approx(ch, rel=1e-14)


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
            noise = 100 * np.finfo(np.float64).eps * float(getattr(sample, f"{result.side}_scale"))
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
