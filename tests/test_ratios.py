"""The hyperbolic ratio functions, substitution identities, scans, and p0."""

import hashlib
import math

import mpmath as mp
import numpy as np
import pytest

import hp_oracles
import meanslab.ratios as ratios
from meanslab import (
    THETA_STAR,
    DegeneratePairError,
    DomainError,
    ParameterError,
    PositivePair,
    SeriesId,
    constant,
    h_eval,
    identity_residuals,
    monotonicity_scan,
    solve_p0,
    substitution_theta,
)

LIMITS = {"h1": 1 / 12, "h2": 1 / 2, "h3": 2 / 5}
LIMITS_EXACT = {"h1": (1, 12), "h2": (1, 2), "h3": (2, 5)}


def test_theta_star_value():
    # θ* = asinh(1) = ln(1 + √2), correctly rounded; log(1 + sqrt 2) in
    # doubles lands one ulp below it
    assert THETA_STAR == float(hp_oracles.theta_star())
    assert THETA_STAR == math.asinh(1.0)
    # every pair with a/b past about 1e16 has t = 1 and reaches θ* exactly
    assert substitution_theta(PositivePair(1e16, 1.0)) == THETA_STAR
    assert substitution_theta(PositivePair(1.7e308, 5e-324)) == THETA_STAR


@pytest.mark.parametrize("which", ["h1", "h2", "h3"])
def test_limits_at_zero(which):
    assert abs(h_eval(which, 1e-8) - LIMITS[which]) < 1e-8
    # θ² underflows to 0 in the series quotient, which leaves a_0/b_0
    for theta in (0.0, 1e-300, 1e-160, 1e-100):
        assert h_eval(which, theta) == pytest.approx(LIMITS[which], rel=1e-15, abs=0.0), theta


# The unified proof: each sharp constant of Theorems 3.1, 3.3 and 3.4 is
# the value of h1, h2 or h3 at 0⁺ or at θ* (h1 shifted by -1/2).
END_VALUES = [
    ("thm3.1.upper", "h1", True, 0.5),
    ("thm3.1.lower", "h1", False, 0.5),
    ("thm3.3.lower", "h2", True, 0.0),
    ("thm3.3.upper", "h2", False, 0.0),
    ("thm3.4.upper", "h3", True, 0.0),
    ("thm3.4.lower", "h3", False, 0.0),
]


@pytest.mark.parametrize("name,which,at_zero,shift", END_VALUES, ids=[e[0] for e in END_VALUES])
def test_sharp_constants_are_h_end_values(name, which, at_zero, shift):
    c = constant(name)
    with mp.workdps(40):
        if at_zero:
            num, den = LIMITS_EXACT[which]
            end = mp.mpf(num) / den
        else:
            end = hp_oracles.H_FUNCS[which](hp_oracles.theta_star())
        assert abs(c.value - (end - shift)) < mp.mpf("1e-35")
    theta = 0.0 if at_zero else THETA_STAR
    assert h_eval(which, theta) - shift == pytest.approx(c.float_value, rel=1e-14, abs=0.0)


def test_h1_endpoint_relates_to_the_ratio_bound():
    # h1(θ*) - 1/2 is the lower end of the (M-C)/CH range
    lhs = h_eval("h1", THETA_STAR) - 0.5
    rhs = 1.0 / (2.0 * math.log(1.0 + math.sqrt(2.0))) - 1.0
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("which", ["h1", "h2", "h3"])
def test_matches_naive_form_at_moderate_theta(which):
    rng = np.random.default_rng(7)
    for theta in rng.uniform(1e-3, THETA_STAR, 50):
        assert h_eval(which, theta) == pytest.approx(
            float(hp_oracles.H_FUNCS[which](theta)), rel=1e-13, abs=0.0
        )


@pytest.mark.parametrize("which", ["h1", "h2", "h3"])
def test_accurate_down_to_tiny_theta(which):
    # straddles the series switch at θ = 2 and the cancellation-prone region
    for theta in (1e-12, 1e-8, 1e-5, 9.99e-4, 1.01e-3, 1e-2, 0.5, 1.999, 1.999999,
                  2.0, 2.000001, 5.0):
        want = float(hp_oracles.H_FUNCS[which](theta))
        assert h_eval(which, theta) == pytest.approx(want, rel=1e-13, abs=0.0), theta


def test_h_eval_vectorized_and_validated():
    thetas = np.array([0.0, 1e-6, 0.1, THETA_STAR])
    out = h_eval("h2", thetas)
    assert out.shape == (4,)
    assert out[0] == 0.5
    with pytest.raises(DomainError):
        h_eval("h1", -0.5)
    with pytest.raises(DomainError):
        h_eval("h1", float("nan"))
    with pytest.raises(ParameterError):
        h_eval("h9", 0.1)


@pytest.mark.parametrize("which", ["h1", "h2", "h3"])
def test_h_eval_array_equals_its_scalars(which):
    # both lanes, their boundary, and the ends of the accepted range
    thetas = np.array([0.0, 1e-300, 1e-9, 1e-3, 0.5, THETA_STAR, 1.999999, 2.0,
                       2.000001, 7.5, 300.0])
    out = h_eval(which, thetas)
    assert [float(v) for v in out] == [h_eval(which, float(t)) for t in thetas]


# 0, both neighbours of the switch at θ = 2, 300, and dense runs on each side
LANE_GRID = np.concatenate([
    [0.0, 1e-300, np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0), 300.0],
    np.linspace(0.0, 4.0, 4001),
    np.geomspace(1e-8, 300.0, 2001),
])

# sha256 of h_eval over LANE_GRID; a speedup of h_eval must leave these bits alone
H_EVAL_SHA256 = {
    "h1": "f98b90d982b4ecae4c70857cefb808ea97c59c6cc9ec3c8ced3e70154ed17e40",
    "h2": "b08093a7bce72c8e65e15d9f937d6d8377e31cb57eff1f125bd1adbb16a7785e",
    "h3": "fb966b5cc76699d59f7a87ac6176a89ab43edbd200ad822812694b451ab61e24",
}


@pytest.mark.parametrize("which", ["h1", "h2", "h3"])
def test_h_eval_lanes_alone_equal_the_mixed_array(which):
    # an array wholly below θ = 2 skips the closed form; a scalar or 0-d θ
    # runs on numpy scalars: neither may move a bit
    out = h_eval(which, LANE_GRID)
    assert hashlib.sha256(out.tobytes()).hexdigest() == H_EVAL_SHA256[which]
    small = LANE_GRID < 2.0
    assert h_eval(which, LANE_GRID[small]).tolist() == out[small].tolist()
    assert h_eval(which, LANE_GRID[~small]).tolist() == out[~small].tolist()
    for i in list(range(6)) + list(range(6, LANE_GRID.size, 97)):
        assert h_eval(which, LANE_GRID[i]) == out[i], LANE_GRID[i]
        assert h_eval(which, np.asarray(float(LANE_GRID[i]))) == out[i], LANE_GRID[i]
    assert type(h_eval(which, np.asarray(2.5))) is float
    assert h_eval(which, np.array([])).shape == (0,)


@pytest.mark.parametrize("which", ["h1", "h2", "h3"])
def test_h_eval_rejects_theta_past_the_overflow_bound(which):
    # sinh²θ overflows near θ = 355; at 400 the ratios came out as inf or 0
    for theta in (400.0, 800.0, np.array([0.1, 800.0])):
        with pytest.raises(DomainError):
            h_eval(which, theta)
    want = float(hp_oracles.H_FUNCS[which](10.0))
    assert h_eval(which, 10.0) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_substitution_theta():
    got = substitution_theta(PositivePair(3.0, 1.0))
    assert got == pytest.approx(math.asinh(0.5), abs=0)
    # symmetric and scale-free
    assert substitution_theta(PositivePair(1.0, 3.0)) == got
    assert substitution_theta(PositivePair(3e7, 1e7)) == pytest.approx(got, rel=1e-15, abs=0.0)
    with pytest.raises(DegeneratePairError):
        substitution_theta(PositivePair(2.0, 2.0))


def test_identity_residuals_on_a_simple_pair():
    res = identity_residuals(PositivePair(3.0, 1.0))
    assert res.theta == pytest.approx(math.asinh(0.5), abs=0)
    assert res.max_residual < 1e-12
    # (M - C)/CH on (3, 1), from the 30-digit side
    assert res.ratios[0] == pytest.approx(-0.4219130787649725, rel=1e-14, abs=0.0)


# a/b from 1e8 down to one ulp above 1, and the pair one ulp below 1
RATIO_RANGE = [(r, 1.0) for r in (1 + 1e-8, 1 + 1e-6, 1.5, 1e4, 1e8, 1 + 1e-10, 1 + 1e-12, 1 + 2**-52)]
RATIO_RANGE.append((1.0, 1 - 2**-53))


@pytest.mark.parametrize("a,b", RATIO_RANGE, ids=[str(a) if b == 1.0 else f"{a}-{b}" for a, b in RATIO_RANGE])
def test_identity_residuals_across_the_ratio_range(a, b):
    # near a = b the oracle's C - M and Q - M cancel about 2·log2(1/t) bits,
    # which its working precision makes up for down to the one-ulp pairs
    res = identity_residuals(PositivePair(a, b))
    assert res.max_residual < 1e-15


def _workdps30_identity_residuals(pair):
    """identity_residuals as an mpmath context at 30 digits computed it:
    the reference for every pair with t >= 2^-21, where the oracle works at
    103 bits."""
    t, theta = ratios._gap_theta(pair)
    h1, h2, h3 = (h_eval(sid, theta) for sid in SeriesId)
    m_over_ch = 1.0 / (2.0 * t * theta)
    with mp.workdps(30):
        a, b = mp.mpf(pair.a), mp.mpf(pair.b)
        t = abs(a - b) / (a + b)
        t2 = t * t
        M = t / mp.asinh(t)
        C = 1 + t2
        CH = 2 * t2
        CBAR = 1 + t2 / 3
        Q = mp.sqrt(C)
        exact = ((M - C) / CH, (CBAR - M) / (Q - M), (Q - M) / (C - M), M / CH)
        residuals = tuple(float(abs(v - r) / abs(r)) for r, v in zip(exact, (h1 - 0.5, h2, h3, m_over_ch)))
        ratios_ = tuple(float(r) for r in exact)
    return theta, ratios_, residuals


ORACLE_EDGE_PAIRS = [(3.0, 1.0), (1e8, 1.0), (1e300, 1.0), (1.7e308, 1e308), (1.7e308, 5e-324),
                     (5e-324, 1e-323), (1e-300, 3e-310)]


def test_identity_residuals_keep_the_bits_of_the_30_digit_oracle():
    # criterion 4's distribution (a/b log-uniform in (1, 1e8], b = 1) and
    # the ends of the double range: every bit as an mpmath context gave it
    rng = np.random.default_rng(2024)
    pairs = [(float(r), 1.0) for r in 10.0 ** rng.uniform(0.0, 8.0, 2000)] + ORACLE_EDGE_PAIRS
    for a, b in pairs:
        pair = PositivePair(a, b)
        assert ratios._gap_theta(pair)[0] >= 2.0**-21, pair
        res = identity_residuals(pair)
        assert (res.theta, res.ratios, res.residuals) == _workdps30_identity_residuals(pair), pair


def test_identity_residuals_measure_the_evaluators_own_bits(monkeypatch):
    # h1-h3 shifted by 1e-9 relative in the series lane that h_eval and the
    # oracle share: the residuals must see it
    good = ratios._series_lane
    monkeypatch.setattr(ratios, "_series_lane", lambda sid, x2: good(sid, x2) * (1.0 + 1e-9))
    for a, b in [(3.0, 1.0), (1 + 1e-6, 1.0), (1e8, 1.0)]:
        assert identity_residuals(PositivePair(a, b)).max_residual > 1e-11, (a, b)


def test_identity_residuals_scale_invariant_ratios():
    small = identity_residuals(PositivePair(3e-4, 1e-4))
    big = identity_residuals(PositivePair(3e5, 1e5))
    for x, y in zip(small.ratios, big.ratios):
        assert x == pytest.approx(y, rel=1e-13, abs=0.0)


def test_identity_residuals_rejects_equal_arguments():
    with pytest.raises(DegeneratePairError):
        identity_residuals(PositivePair(5.0, 5.0))


def test_monotonicity_scans():
    v1 = monotonicity_scan("h1", 20_000)
    assert v1.passed and v1.direction == "decreasing" and v1.min_gap > 0
    v2 = monotonicity_scan("h2", 20_000)
    assert v2.passed and v2.direction == "increasing"
    v3 = monotonicity_scan(SeriesId.H3, 2)
    assert v3.passed
    with pytest.raises(ParameterError):
        monotonicity_scan("h1", 1)


def test_a_scan_records_its_first_violation(monkeypatch):
    # h2 held flat past θ = 1: the first zero step starts at the first grid
    # point past 1, in the second range [θ*, 10]
    good = ratios.h_eval
    monkeypatch.setattr(ratios, "h_eval", lambda which, t: good(which, np.minimum(t, 1.0)))
    verdict = monotonicity_scan("h2", 100)
    grid = np.linspace(THETA_STAR, 10.0, 100)
    assert not verdict.passed
    assert verdict.min_gap == 0.0
    assert verdict.first_violation == grid[grid > 1.0][0]


def test_theta_and_identities_at_the_top_of_the_range():
    # a + b overflows there; t is taken of the halved pair, as in the kernels
    top = PositivePair(1.7e308, 1e308)
    scaled = PositivePair(1.7e308 * 2.0**-1020, 1e308 * 2.0**-1020)
    assert substitution_theta(top) == substitution_theta(scaled)
    assert substitution_theta(top) == pytest.approx(0.2564393783381375, rel=1e-15, abs=0.0)
    assert identity_residuals(top) == identity_residuals(scaled)


def test_solve_p0():
    root = solve_p0()
    assert f"{root:.3f}".startswith("1.84")
    assert str(root).startswith("1.843")
    assert root == float(hp_oracles.p_zero())
    # the defining equation holds to well below the stated tolerance
    target = 2.0 * math.log(1.0 + math.sqrt(2.0))
    assert abs((root + 1.0) ** (1.0 / root) - target) < 1e-11
