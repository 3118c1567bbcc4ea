"""Acceptance suite: the eight headline checks, one test (and one printed
verdict line) per criterion.  Run with ``pytest -v`` to see the lines."""

import math
import time

import mpmath as mp
import numpy as np
import pytest

import hp_oracles
import meanslab.constants as constants_mod
import meanslab.records as records_mod
from meanslab import (
    PositivePair,
    SeriesId,
    arithmetic,
    catalog,
    difference_sign_check,
    h_eval,
    identity_residuals,
    neuman_sandor,
    record,
    sharp_constants,
    sharpness_probe,
    solve_p0,
    verify_all,
    verify_random,
)
from meanslab.ratios import THETA_STAR
from meanslab.reporting import constant_row, render


def _verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_sharp_constant_reproduction():
    """Every published 4-digit decimal prefix appears in the constants
    output, derived from the specs and produced in under a second."""
    records_mod.catalog.cache_clear()
    records_mod.sharp_constants.cache_clear()
    constants_mod._p0_hp.cache_clear()
    t0 = time.perf_counter()
    rows = [constant_row(c) for c in sharp_constants()]
    text = render(rows, "human")
    elapsed = time.perf_counter() - t0

    wanted = [
        "-0.4327", "-0.4166",          # ratio-bound ends
        "0.4327", "0.0993", "0.4166",  # additive-gap corollaries
        "0.5672",                      # one-sided ratio bound
        "0.7107", "0.3231",            # endpoint weights
        "0.1345", "0.3249",            # Q/A and C/A combinations
        "0.2222", "0.1977", "0.3333",  # H/Q and G/Q combinations
        "0.4121",                      # identric weight
    ]
    values = [line.split(" = ")[2] for line in text.strip().splitlines()]
    missing = [w for w in wanted if not any(v.startswith(w) for v in values)]
    _verdict(
        1,
        not missing and elapsed < 1.0,
        f"all 14 printed prefixes reproduced, table built in {elapsed:.3f}s",
    )


def test_criterion_2_endpoint_and_limit_consistency():
    """h values at θ* match their closed expressions; h values at 1e-8
    match the x→0 limits."""
    with mp.workdps(40):
        ts = mp.log(1 + mp.sqrt(2))
        h2_star = float((mp.mpf(4) / 3 - 1 / ts) / (mp.sqrt(2) - 1 / ts))
        h3_star = float((mp.sqrt(2) - 1 / ts) / (2 - 1 / ts))
    checks = [
        abs(h_eval("h1", THETA_STAR) - 0.5 - (1 / (2 * math.asinh(1.0)) - 1.0)) < 1e-12,
        abs(h_eval("h2", THETA_STAR) - h2_star) < 1e-9,
        abs(h_eval("h3", THETA_STAR) - h3_star) < 1e-9,
        abs(h_eval("h1", 1e-8) - 1 / 12) < 1e-8,
        abs(h_eval("h2", 1e-8) - 1 / 2) < 1e-8,
        abs(h_eval("h3", 1e-8) - 2 / 5) < 1e-8,
    ]
    _verdict(2, all(checks), "θ* endpoints within 1e-12/1e-9, 1e-8 limits within 1e-8")


def test_criterion_3_exact_series_verification():
    """All three coefficient-difference sign patterns hold exactly to depth
    200, with closed forms matching as rationals, in under 10 s."""
    t0 = time.perf_counter()
    reports = {sid: difference_sign_check(sid, depth=200) for sid in SeriesId}
    elapsed = time.perf_counter() - t0
    ok = (
        reports[SeriesId.H1].passed
        and reports[SeriesId.H1].first_difference < 0
        and reports[SeriesId.H2].passed
        and reports[SeriesId.H2].first_difference > 0
        and reports[SeriesId.H3].passed
        and reports[SeriesId.H3].first_difference < 0
        and elapsed < 10.0
    )
    _verdict(3, ok, f"H1 negative, H2 positive, H3 negative at depth 200 in {elapsed:.2f}s")


def test_criterion_4_identity_residuals():
    """On 1e5 seeded pairs with a/b log-uniform in (1, 1e8], every one of
    the four substitution identities holds to 1e-11 relative."""
    rng = np.random.default_rng(42)
    ratios = 10.0 ** rng.uniform(0.0, 8.0, 100_000)
    worst = 0.0
    for r in ratios:
        r = max(float(r), 1.0 + 1e-15)  # keep the open end of (1, 1e8]
        res = identity_residuals(PositivePair(r, 1.0))
        if res.max_residual > worst:
            worst = res.max_residual
    _verdict(4, worst < 1e-11, f"worst relative residual {worst:.3e} over 1e5 pairs")


def test_criterion_5_verify_all_at_1e6():
    """Every catalog record passes 1e6 seeded samples in under 2 minutes."""
    t0 = time.perf_counter()
    failed = [rep.record_id for rep in verify_all(catalog(), 1_000_000, 42) if not rep.passed]
    elapsed = time.perf_counter() - t0
    _verdict(
        5,
        not failed and elapsed < 120.0,
        f"17 records x 1e6 samples, no certified failures, {elapsed:.1f}s",
    )


def test_criterion_6_sharpness_probes():
    """Tightening any sharp constant by 1e-6 produces an explicit witness;
    the ratio-bound record breaks near equality above and at extreme ratios
    below."""
    misses = []
    for rec in catalog():
        if not rec.probes:
            continue
        for result in sharpness_probe(rec, 1e-6):
            if not result.found:
                misses.append(result.constant_name)
    t31 = {r.constant_name: r for r in sharpness_probe(record("thm3.1"), 1e-6)}
    near_ok = t31["thm3.1.upper"].witness[0] < 1.1
    far = record("thm3.1").margins(1e8, 1.0, lower_c=record("thm3.1").lower.float_value + 1e-6)
    far_ok = float(far.lower) < 0.0
    _verdict(
        6,
        not misses and near_ok and far_ok,
        "24 witnesses found; upper breaks near a=b, lower breaks at a/b=1e8",
    )


def test_criterion_7_critical_exponent():
    """The exponent solver lands on 1.843..., satisfies its equation to
    1e-11, and the resulting exponent window survives 1e5 samples."""
    p0 = solve_p0()
    eq_residual = abs((p0 + 1.0) ** (1.0 / p0) - 2.0 * math.asinh(1.0))
    rep = verify_random("lp0-l2", 100_000, 42)
    ok = str(p0).startswith("1.843") and eq_residual < 1e-11 and rep.passed
    _verdict(7, ok, f"p0 = {p0!r}, equation residual {eq_residual:.2e}, window verified")


def test_criterion_8_near_equal_stability():
    """At a/b = 1 + 1e-12 the asinh-based mean agrees with the arithmetic
    mean to 1e-10 relative — no cancellation blow-up."""
    a = 1.0 + 1e-12
    m = neuman_sandor(a, 1.0)
    am = arithmetic(a, 1.0)
    rel = abs(m - am) / am
    _verdict(8, rel < 1e-10, f"relative gap {rel:.3e} at ratio 1+1e-12")
