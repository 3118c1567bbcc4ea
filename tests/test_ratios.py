"""The hyperbolic ratio functions, substitution identities, scans, and p0."""

import math

import mpmath as mp
import numpy as np
import pytest

import hp_oracles
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
    m_to_ch_ratio,
    monotonicity_scan,
    solve_p0,
    substitution_theta,
)

LIMITS = {"h1": 1 / 12, "h2": 1 / 2, "h3": 2 / 5}
LIMITS_EXACT = {"h1": (1, 12), "h2": (1, 2), "h3": (2, 5)}


def test_theta_star_value():
    # log(1 + sqrt 2) and asinh(1) are the same number; the two library's
    # routes may disagree by an ulp
    assert THETA_STAR == pytest.approx(math.asinh(1.0), rel=5e-16)
    assert THETA_STAR == pytest.approx(float(hp_oracles.theta_star()), rel=5e-16)


@pytest.mark.parametrize("which", ["h1", "h2", "h3"])
def test_limits_at_zero(which):
    assert abs(h_eval(which, 1e-8) - LIMITS[which]) < 1e-8
    # θ² underflows to 0 in the series quotient, which leaves a_0/b_0
    for theta in (0.0, 1e-300, 1e-160, 1e-100):
        assert h_eval(which, theta) == pytest.approx(LIMITS[which], rel=1e-15), theta


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
    assert h_eval(which, theta) - shift == pytest.approx(c.float_value, rel=1e-14)


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
            float(hp_oracles.H_FUNCS[which](theta)), rel=1e-13
        )


@pytest.mark.parametrize("which", ["h1", "h2", "h3"])
def test_accurate_down_to_tiny_theta(which):
    # straddles the series switch at θ = 2 and the cancellation-prone region
    for theta in (1e-12, 1e-8, 1e-5, 9.99e-4, 1.01e-3, 1e-2, 0.5, 1.999, 1.999999,
                  2.0, 2.000001, 5.0):
        want = float(hp_oracles.H_FUNCS[which](theta))
        assert h_eval(which, theta) == pytest.approx(want, rel=1e-13), theta


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


@pytest.mark.parametrize("which", ["h1", "h2", "h3"])
def test_h_eval_rejects_theta_past_the_overflow_bound(which):
    # sinh²θ overflows near θ = 355; at 400 the ratios came out as inf or 0
    for theta in (400.0, 800.0, np.array([0.1, 800.0])):
        with pytest.raises(DomainError):
            h_eval(which, theta)
    assert h_eval(which, 10.0) == pytest.approx(float(hp_oracles.H_FUNCS[which](10.0)), rel=1e-13)


def test_substitution_theta():
    got = substitution_theta(PositivePair(3.0, 1.0))
    assert got == pytest.approx(math.asinh(0.5), abs=0)
    # symmetric and scale-free
    assert substitution_theta(PositivePair(1.0, 3.0)) == got
    assert substitution_theta(PositivePair(3e7, 1e7)) == pytest.approx(got, rel=1e-15)
    with pytest.raises(DegeneratePairError):
        substitution_theta(PositivePair(2.0, 2.0))


def test_identity_residuals_on_a_simple_pair():
    res = identity_residuals(PositivePair(3.0, 1.0))
    assert res.theta == pytest.approx(math.asinh(0.5), abs=0)
    assert res.max_residual < 1e-12
    # (M - C)/CH on (3, 1), from the 30-digit side
    assert res.ratios[0] == pytest.approx(-0.4219130787649725, rel=1e-14)


@pytest.mark.parametrize("ratio", [1 + 1e-8, 1 + 1e-6, 1.5, 1e4, 1e8])
def test_identity_residuals_across_the_ratio_range(ratio):
    res = identity_residuals(PositivePair(ratio, 1.0))
    assert res.max_residual < 1e-11


def test_identity_residuals_scale_invariant_ratios():
    small = identity_residuals(PositivePair(3e-4, 1e-4))
    big = identity_residuals(PositivePair(3e5, 1e5))
    for x, y in zip(small.ratios, big.ratios):
        assert x == pytest.approx(y, rel=1e-13)


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


def test_m_to_ch_ratio():
    # strictly decreasing on (0, 1), approaching 1/(2 ln(1+sqrt 2)) at 1
    t = np.linspace(1e-6, 1.0 - 1e-9, 10_000)
    f = m_to_ch_ratio(t)
    assert (np.diff(f) < 0).all()
    limit = 1.0 / (2.0 * math.log(1.0 + math.sqrt(2.0)))
    assert m_to_ch_ratio(1.0 - 1e-12) == pytest.approx(limit, rel=1e-9)
    assert m_to_ch_ratio(0.5) == pytest.approx(1.0 / (2 * 0.5 * math.asinh(0.5)), abs=0)
    with pytest.raises(DomainError):
        m_to_ch_ratio(1.5)
    with pytest.raises(DomainError):
        m_to_ch_ratio(0.0)


def test_solve_p0():
    root = solve_p0()
    assert f"{root:.3f}".startswith("1.84")
    assert str(root).startswith("1.843")
    want = float(hp_oracles.p_zero())
    assert root == pytest.approx(want, abs=2e-12)
    # the defining equation holds to well below the stated tolerance
    target = 2.0 * math.log(1.0 + math.sqrt(2.0))
    assert abs((root + 1.0) ** (1.0 / root) - target) < 1e-11
