"""Mean evaluators: frozen values, algebraic properties, branch stability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hp_oracles
from meanslab import (
    MEANS,
    DomainError,
    ParameterError,
    PositivePair,
    arithmetic,
    centroidal,
    ch_difference,
    contraharmonic,
    first_seiffert,
    generalized_logarithmic,
    geometric,
    harmonic,
    neuman_sandor,
    root_square,
    second_seiffert,
)
from meanslab.means import parse

KERNELS = [mean.kernel for mean in MEANS.values()]

positive = st.floats(min_value=1e-6, max_value=1e6)


# ---------------------------------------------------------------- frozen values


def test_textbook_values():
    assert arithmetic(1, 3) == 2.0
    assert geometric(4, 9) == 6.0
    assert harmonic(2, 6) == 3.0
    assert root_square(1, 7) == 5.0
    assert contraharmonic(1, 3) == 2.5
    assert centroidal(1, 3) == pytest.approx(13 / 6, rel=1e-15)
    assert ch_difference(3, 1) == 1.0
    assert ch_difference(2, 1) == pytest.approx(1 / 3, rel=1e-15)


def test_neuman_sandor_value():
    want = float(hp_oracles.neuman(3, 1))
    assert neuman_sandor(3, 1) == pytest.approx(want, rel=5e-16)


@pytest.mark.parametrize("fn,name", [(first_seiffert, "first-seiffert"),
                                     (second_seiffert, "second-seiffert")])
def test_seiffert_values(fn, name):
    (symbol,) = [s for s, mean in MEANS.items() if mean.label == name]
    assert MEANS[symbol].kernel is fn
    want = float(hp_oracles.MEANS[symbol](2, 5))
    assert fn(2, 5) == pytest.approx(want, rel=5e-16)


def test_generalized_logarithmic_members():
    e = math.e
    assert generalized_logarithmic(-1.0, 1.0, e) == pytest.approx(e - 1.0, rel=1e-15)
    assert generalized_logarithmic(1.0, 1.0, 3.0) == pytest.approx(2.0, rel=1e-15)
    assert generalized_logarithmic(2.0, 1.0, 3.0) == pytest.approx(
        math.sqrt(13 / 3), rel=1e-15
    )
    # identric mean of (1, e) is e^(1/(e-1))
    assert generalized_logarithmic(0.0, 1.0, e) == pytest.approx(
        math.exp(1.0 / (e - 1.0)), rel=1e-15
    )


def test_equal_arguments_return_the_argument():
    for fn in KERNELS:
        assert fn(2.5, 2.5) == 2.5
    for p in (-3.0, -1.0, 0.0, 1.0, 2.0):
        assert generalized_logarithmic(p, 2.5, 2.5) == 2.5
    assert ch_difference(2.5, 2.5) == 0.0


# ---------------------------------------------------------------- properties


@settings(max_examples=200)
@given(a=positive, b=positive)
def test_symmetry_is_exact(a, b):
    for fn in KERNELS:
        assert fn(a, b) == fn(b, a)
    assert generalized_logarithmic(2.0, a, b) == generalized_logarithmic(2.0, b, a)
    assert ch_difference(a, b) == ch_difference(b, a)


@settings(max_examples=100)
@given(a=positive, b=positive, lam=st.sampled_from([1e-6, 1.0, 1e6]))
def test_homogeneity(a, b, lam):
    for fn in KERNELS:
        assert fn(lam * a, lam * b) == pytest.approx(lam * fn(a, b), rel=1e-14)


@settings(max_examples=200)
@given(a=positive, b=positive)
def test_internality(a, b):
    lo, hi = min(a, b), max(a, b)
    slack = 2 * np.finfo(float).eps * hi
    for fn in KERNELS:
        v = fn(a, b)
        assert lo - slack <= v <= hi + slack
    for p in (-2.0, -1.0, 0.0, 1.5):
        v = generalized_logarithmic(p, a, b)
        assert lo - slack <= v <= hi + slack


def test_classical_ordering_on_a_grid():
    # H <= G <= L <= P <= A <= M <= T <= Q <= C-bar? (no: only the chain
    # through Q; the centroidal/contraharmonic pair sits above A separately)
    ratios = np.geomspace(1.0 + 1e-4, 1e6, 41)
    for r in ratios:
        a, b = float(r), 1.0
        chain = [
            harmonic(a, b),
            geometric(a, b),
            generalized_logarithmic(-1.0, a, b),
            first_seiffert(a, b),
            arithmetic(a, b),
            neuman_sandor(a, b),
            second_seiffert(a, b),
            root_square(a, b),
        ]
        assert all(x < y for x, y in zip(chain, chain[1:])), (a, b)
        assert arithmetic(a, b) < centroidal(a, b) < contraharmonic(a, b)


# ---------------------------------------------------------------- stability


def test_first_seiffert_matches_arctan_form_across_ratios():
    ratios = np.geomspace(1.0 + 1e-8, 1e8, 160)
    for r in ratios:
        mine = first_seiffert(float(r), 1.0)
        ref = float(hp_oracles.seiffert1(float(r), 1.0))
        assert mine == pytest.approx(ref, rel=1e-12), r


def test_second_seiffert_stable_across_ratios():
    ratios = np.geomspace(1.0 + 1e-8, 1e8, 160)
    for r in ratios:
        mine = second_seiffert(float(r), 1.0)
        ref = float(hp_oracles.seiffert2(float(r), 1.0))
        assert mine == pytest.approx(ref, rel=1e-12), r


def test_neuman_sandor_stable_across_ratios():
    ratios = np.geomspace(1.0 + 1e-12, 1e8, 200)
    for r in ratios:
        mine = neuman_sandor(float(r), 1.0)
        ref = float(hp_oracles.neuman(float(r), 1.0))
        assert mine == pytest.approx(ref, rel=1e-12), r


def test_neuman_sandor_series_switch_is_seamless():
    # straddle the series/quotient switch: values on either side agree with
    # the oracle and with each other to a few ulp
    for t in (0.99e-4, 1.01e-4):
        a = (1.0 + t) / (1.0 - t)
        mine = neuman_sandor(a, 1.0)
        ref = float(hp_oracles.neuman(a, 1.0))
        assert mine == pytest.approx(ref, rel=1e-13)


def test_near_equal_neuman_sandor_tracks_arithmetic():
    a = 1.0 + 1e-12
    m = neuman_sandor(a, 1.0)
    am = arithmetic(a, 1.0)
    assert abs(m - am) / am < 1e-10


def test_glog_continuous_across_the_limit_windows():
    for a, b in ((1.0, 3.0), (0.5, 200.0)):
        ident = generalized_logarithmic(0.0, a, b)
        logm = generalized_logarithmic(-1.0, a, b)
        for off in (-1e-9, 1e-9):
            assert generalized_logarithmic(off, a, b) == pytest.approx(ident, rel=1e-7)
            assert generalized_logarithmic(-1.0 + off, a, b) == pytest.approx(
                logm, rel=1e-7
            )


def test_glog_general_orders_match_oracle():
    for p in (-3.0, -0.5, 0.5, 2.0, 3.7, 40.0):
        for a in (1.0 + 1e-6, 2.0, 1e8):
            mine = generalized_logarithmic(p, a, 1.0)
            ref = float(hp_oracles.glog(p, a, 1.0))
            assert mine == pytest.approx(ref, rel=1e-12), (p, a)


def test_glog_just_outside_limit_windows_matches_oracle():
    for p in (2e-6, -2e-6, -1.0 + 2e-6, -1.0 - 2e-6):
        mine = generalized_logarithmic(p, 1.0, 3.0)
        ref = float(hp_oracles.glog(p, 1.0, 3.0))
        assert mine == pytest.approx(ref, rel=1e-7), p


P0 = 1.8435205184311405  # lp0-l2.lower, the critical exponent


@pytest.mark.parametrize("p", [0.0, -1.0, 2.0, 0.5, -0.5, -2.0, -3.0, P0])
def test_glog_at_extreme_finite_ratios_matches_oracle(p):
    # hi/lo > 1e300: the reduced variable d = (hi - lo)/lo, or (1 + d)·log1p(d),
    # or (p + 1)·d overflows there, so these pairs take the log-space lane
    pairs = [(1e306, 1.0), (1e308, 1.0), (1e300, 1e-300), (1e-300, 1e300)]
    for a, b in pairs:
        mine = generalized_logarithmic(p, a, b)
        assert mine == pytest.approx(float(hp_oracles.glog(p, a, b)), rel=1e-12), (a, b)
        assert min(a, b) <= mine <= max(a, b), (a, b)
    # a batch mixing both lanes gives each lane its scalar value
    a = np.array([a for a, _ in pairs] + [3.0])
    b = np.array([b for _, b in pairs] + [1.0])
    batch = generalized_logarithmic(p, a, b)
    assert batch.tolist() == [generalized_logarithmic(p, x, y) for x, y in zip(a, b)]


def test_glog_nondecreasing_in_p():
    ps = [-5.0, -2.0, -1.0 - 1e-7, -1.0, -0.5, -1e-8, 0.0, 0.5, 1.0, 2.0, 5.0]
    values = [generalized_logarithmic(p, 7.0, 1.0) for p in ps]
    assert all(x <= y * (1 + 1e-13) for x, y in zip(values, values[1:]))


def test_vectorized_evaluation():
    a = np.array([1.0, 4.0, 3.0])
    b = np.array([3.0, 9.0, 3.0])
    np.testing.assert_allclose(arithmetic(a, b), [2.0, 6.5, 3.0], rtol=0)
    np.testing.assert_allclose(geometric(a, b), [math.sqrt(3), 6.0, 3.0], rtol=1e-15)
    m = neuman_sandor(a, b)
    assert m.shape == (3,)
    assert m[2] == 3.0  # the degenerate lane goes through the series branch
    lp = generalized_logarithmic(2.0, a, b)
    assert lp[0] == pytest.approx(math.sqrt(13 / 3), rel=1e-15)


# ---------------------------------------------------------------- plumbing


def test_positive_pair_validation():
    assert PositivePair(2.0, 3.0).as_tuple() == (2.0, 3.0)
    assert PositivePair(2.0, 2.0).degenerate
    assert not PositivePair(2.0, 3.0).degenerate
    with pytest.raises(DomainError):
        PositivePair(-1.0, 2.0)
    with pytest.raises(DomainError):
        PositivePair(0.0, 2.0)
    with pytest.raises(DomainError):
        PositivePair(1.0, float("nan"))
    with pytest.raises(DomainError):
        PositivePair(1.0, float("inf"))


def test_mean_functions_reject_bad_input():
    with pytest.raises(DomainError):
        arithmetic(-1.0, 2.0)
    with pytest.raises(DomainError):
        neuman_sandor(0.0, 2.0)
    with pytest.raises(DomainError):
        generalized_logarithmic(2.0, float("nan"), 1.0)


# Names the command line accepts, with the label each one reports.
ACCEPTED_NAMES = {
    "arithmetic": "arithmetic", "a": "arithmetic", "A": "arithmetic",
    "geometric": "geometric", "g": "geometric", "G": "geometric",
    "harmonic": "harmonic", "h": "harmonic", "H": "harmonic",
    "centroidal": "centroidal",
    "contraharmonic": "contraharmonic", "c": "contraharmonic", "C": "contraharmonic",
    "first-seiffert": "first-seiffert", "seiffert1": "first-seiffert", "P": "first-seiffert",
    "second-seiffert": "second-seiffert", "seiffert2": "second-seiffert", "T": "second-seiffert",
    "root-square": "root-square", "quadratic": "root-square", "Q": "root-square",
    "neuman-sandor": "neuman-sandor", "ns": "neuman-sandor", "M": "neuman-sandor",
    " m ": "neuman-sandor",
    "identric": "L[0]", "I": "L[0]", "logarithmic": "L[-1]", "l": "L[-1]",
    "L:2": "L[2]", "l:2": "L[2]", "glog:-0.5": "L[-0.5]", "GLOG:2": "L[2]",
    "generalized-logarithmic:3.7": "L[3.7]", "L:0": "L[0]", "L:-0": "L[-0]",
    "L:-1": "L[-1]", "L:1e-7": "L[1e-07]", "L: 2": "L[2]",
}


def test_every_accepted_name_resolves_to_its_label():
    for name, label in ACCEPTED_NAMES.items():
        assert parse(name)[0] == label, name
    for name in ("bogus", "L:abc", "L:inf", "L:nan", "glog:", "a:1"):
        with pytest.raises(ParameterError):
            parse(name)
    assert parse("arithmetic")[1](1.0, 3.0) == 2.0
    assert parse("L:2")[1](1.0, 3.0) == generalized_logarithmic(2.0, 1.0, 3.0)
    assert parse("identric")[1](1.0, 3.0) == generalized_logarithmic(0.0, 1.0, 3.0)


# The tolerances of the value and stability tests above: a few ulp for the
# algebraic means, 1e-12 for the transcendental ones.
ORACLE_RTOL = {"P": 1e-12, "T": 1e-12, "M": 1e-12, "I": 1e-12, "L": 1e-12}


@pytest.mark.parametrize("symbol", list(MEANS))
def test_registry_kernels_match_their_oracles(symbol):
    kernel = MEANS[symbol].kernel
    rtol = ORACLE_RTOL.get(symbol, 1e-15)
    for r in np.geomspace(1.0 + 1e-8, 1e8, 40):
        for a, b in ((float(r), 1.0), (0.5, 0.5 * float(r))):
            want = float(hp_oracles.MEANS[symbol](a, b))
            assert kernel(a, b) == pytest.approx(want, rel=rtol), (a, b)
