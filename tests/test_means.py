"""Mean evaluators: frozen values, algebraic properties, branch stability."""

import hashlib
import math
import tracemalloc
from functools import partial

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
    constant,
    contraharmonic,
    first_seiffert,
    generalized_logarithmic,
    geometric,
    harmonic,
    neuman_sandor,
    root_square,
    second_seiffert,
)
from meanslab.means import _BLOCK, parse

KERNELS = [mean.kernel for mean in MEANS.values()]

positive = st.floats(min_value=1e-6, max_value=1e6)


# ---------------------------------------------------------------- frozen values


def test_textbook_values():
    assert arithmetic(1, 3) == 2.0
    assert geometric(4, 9) == 6.0
    assert harmonic(2, 6) == 3.0
    assert root_square(1, 7) == 5.0
    assert contraharmonic(1, 3) == 2.5
    assert centroidal(1, 3) == pytest.approx(13 / 6, rel=1e-15, abs=0.0)
    assert ch_difference(3, 1) == 1.0
    assert ch_difference(2, 1) == pytest.approx(1 / 3, rel=1e-15, abs=0.0)


def test_neuman_sandor_value():
    want = float(hp_oracles.neuman(3, 1))
    assert neuman_sandor(3, 1) == pytest.approx(want, rel=5e-16, abs=0.0)


@pytest.mark.parametrize("fn,name", [(first_seiffert, "first-seiffert"),
                                     (second_seiffert, "second-seiffert")])
def test_seiffert_values(fn, name):
    (symbol,) = [s for s, mean in MEANS.items() if mean.label == name]
    assert MEANS[symbol].kernel is fn
    want = float(hp_oracles.MEANS[symbol](2, 5))
    assert fn(2, 5) == pytest.approx(want, rel=5e-16, abs=0.0)


def test_generalized_logarithmic_members():
    e = math.e
    assert generalized_logarithmic(-1.0, 1.0, e) == pytest.approx(e - 1.0, rel=1e-15, abs=0.0)
    assert generalized_logarithmic(1.0, 1.0, 3.0) == pytest.approx(2.0, rel=1e-15, abs=0.0)
    assert generalized_logarithmic(2.0, 1.0, 3.0) == pytest.approx(
        math.sqrt(13 / 3), rel=1e-15, abs=0.0
    )
    # identric mean of (1, e) is e^(1/(e-1))
    assert generalized_logarithmic(0.0, 1.0, e) == pytest.approx(
        math.exp(1.0 / (e - 1.0)), rel=1e-15, abs=0.0
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
    # An absolute bound as well: CH at a near-equal pair is not relatively
    # homogeneous, since λa - λb carries the rounding of λa and λb.
    for fn in KERNELS:
        assert fn(lam * a, lam * b) == pytest.approx(lam * fn(a, b), rel=1e-14, abs=1e-12)


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
        assert mine == pytest.approx(ref, rel=1e-12, abs=0.0), r


def test_second_seiffert_stable_across_ratios():
    ratios = np.geomspace(1.0 + 1e-8, 1e8, 160)
    for r in ratios:
        mine = second_seiffert(float(r), 1.0)
        ref = float(hp_oracles.seiffert2(float(r), 1.0))
        assert mine == pytest.approx(ref, rel=1e-12, abs=0.0), r


def test_neuman_sandor_stable_across_ratios():
    ratios = np.geomspace(1.0 + 1e-12, 1e8, 200)
    for r in ratios:
        mine = neuman_sandor(float(r), 1.0)
        ref = float(hp_oracles.neuman(float(r), 1.0))
        assert mine == pytest.approx(ref, rel=1e-12, abs=0.0), r


def test_neuman_sandor_series_switch_is_seamless():
    # t/asinh(t) is evaluated as written at every t, with no series lane;
    # values on either side of t = 1e-4 agree with the oracle
    for t in (0.99e-4, 1.01e-4):
        a = (1.0 + t) / (1.0 - t)
        mine = neuman_sandor(a, 1.0)
        ref = float(hp_oracles.neuman(a, 1.0))
        assert mine == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_near_equal_neuman_sandor_tracks_arithmetic():
    a = 1.0 + 1e-12
    m = neuman_sandor(a, 1.0)
    am = arithmetic(a, 1.0)
    assert abs(m - am) / am < 1e-10


# The ten degree-one kernels: every mean of MEANS but I and L, and CH.
DEGREE_ONE = [mean.kernel for symbol, mean in MEANS.items() if symbol not in ("I", "L")] + [ch_difference]
TOP = [2.0**1022, 2.0**1023, 1e308, 1.7e308, 1.79e308]


@pytest.mark.parametrize("fn", DEGREE_ONE, ids=lambda fn: fn.__name__)
def test_kernels_at_the_top_of_the_range_are_scaled_copies(fn):
    # past 2^1022 the sum and hypot of a pair overflow; the kernels take them
    # of the halved pair, so the value is the exact scaled copy of a
    # moderate pair's value, with no RuntimeWarning on the way
    his, los = [], []
    for hi in TOP:
        for lo in (hi, hi / 3, hi / 1e8, hi * 1e-300):
            want = 2.0**1020 * fn(hi * 2.0**-1020, lo * 2.0**-1020)
            assert fn(hi, lo) == want, (hi, lo)
            his.append(hi)
            los.append(lo)
    # in one array with ordinary and subnormal pairs, each keeps its scalar bits
    a = np.array(his + [3.0, 3e-310, 1e-300])
    b = np.array(los + [1.0, 1e-310, 5e-324])
    assert fn(a, b).tolist() == [fn(x, y) for x, y in zip(a, b)]


@pytest.mark.parametrize("a,b", [(1e200, 1e-200), (1.79e308, 1e-300), (1e300, 1e-10), (3.0, 1.0)])
def test_harmonic_past_the_subnormal_quotient_matches_oracle(a, b):
    # 2·lo/(hi + lo) is subnormal in the first three: H is lo·(hi/A) there
    want = float(hp_oracles.harm(a, b))
    assert harmonic(a, b) == pytest.approx(want, rel=1e-15, abs=0.0)
    assert harmonic(np.array([a, 3.0]), np.array([b, 1.0]))[0] == harmonic(a, b)


P0 = 1.8435205184311405  # lp0-l2.lower, the critical exponent


def test_glog_continuous_across_the_limit_windows():
    for a, b in ((1.0, 3.0), (0.5, 200.0)):
        ident = generalized_logarithmic(0.0, a, b)
        logm = generalized_logarithmic(-1.0, a, b)
        for off in (-1e-9, 1e-9):
            assert generalized_logarithmic(off, a, b) == pytest.approx(ident, rel=1e-7, abs=0.0)
            assert generalized_logarithmic(-1.0 + off, a, b) == pytest.approx(
                logm, rel=1e-7, abs=0.0
            )


def test_glog_general_orders_match_oracle():
    # one formula in u = ln(hi/lo) for every order, out to the far band
    small = (0.01, -0.01, 0.02, -0.02, -0.03, 0.05, 0.1, -0.1, 0.0, -1.0, P0)
    for p in (-3.0, -0.5, 0.5, 2.0, 3.7, 40.0) + small:
        for a in (1.0 + 1e-6, 2.0, 1e8, 1e100, 1e250, 1e300, 1e305):
            mine = generalized_logarithmic(p, a, 1.0)
            ref = float(hp_oracles.glog(p, a, 1.0))
            assert mine == pytest.approx(ref, rel=1e-13, abs=0.0), (p, a)


def test_glog_just_outside_limit_windows_matches_oracle():
    for p in (2e-6, -2e-6, -1.0 + 2e-6, -1.0 - 2e-6):
        mine = generalized_logarithmic(p, 1.0, 3.0)
        ref = float(hp_oracles.glog(p, 1.0, 3.0))
        assert mine == pytest.approx(ref, rel=1e-7, abs=0.0), p


@pytest.mark.parametrize("p", [-1.0 + 9e-7, -1.0 - 9e-7, -1.0 + 1e-12])
def test_glog_next_to_the_logarithmic_mean_matches_oracle(p):
    # only p = -1 itself takes the logarithmic-mean branch; the general
    # branch stays accurate right next to it, out to the log-space lane
    for r in (1.5, 1e8, 1e100, 1e305):
        ref = float(hp_oracles.glog(p, r, 1.0))
        assert generalized_logarithmic(p, r, 1.0) == pytest.approx(ref, rel=1e-12, abs=0.0), r


@pytest.mark.parametrize("p", [9e-7, -9e-7, 2e-6, -2e-6, 1e-5, -1e-5, 1e-3, -1e-3])
def test_glog_next_to_the_identric_mean_matches_oracle(p):
    # only p = 0 itself takes the identric branch; small orders take the
    # log1p/expm1 rewrite, near and far lanes alike
    for r in (1.0 + 1e-8, 1.5, 1e4, 1e8, 1e100, 1e305):
        ref = float(hp_oracles.glog(p, r, 1.0))
        assert generalized_logarithmic(p, r, 1.0) == pytest.approx(ref, rel=1e-12, abs=0.0), r


@pytest.mark.parametrize("p", [5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300, 1e-290, -1e-290])
def test_glog_at_tiny_orders_is_the_identric_mean(p):
    # ln(L_p/I) is O(|p|·u²), far below an ulp here, so L_p is I in doubles;
    # expm1(-|p|·u) of the small-order rewrite is subnormal at these orders
    for r in (1.0 + 1e-12, 1.0 + 1e-6, 3.0, 1e8, 1e300):
        ident = generalized_logarithmic(0.0, r, 1.0)
        assert generalized_logarithmic(p, r, 1.0) == pytest.approx(ident, rel=1e-15, abs=0.0), r


@pytest.mark.parametrize("p", [-0.05, -0.02])
def test_glog_log_space_lane_takes_no_power_of_its_masked_quotient(p):
    # z = (p+1)·log1p(d) > 500 moves to log space; the 1/p power of the
    # unused tiny quotient there would overflow and warn for p < 0
    for r in (1e150, 1e250, 1e299):
        ref = float(hp_oracles.glog(p, r, 1.0))
        assert generalized_logarithmic(p, r, 1.0) == pytest.approx(ref, rel=1e-11, abs=0.0), r


@pytest.mark.parametrize("p", [0.0, -1.0, 2.0, 0.5, -0.5, -2.0, -3.0, P0])
def test_glog_at_extreme_finite_ratios_matches_oracle(p):
    # hi/lo > 1e300: the reduced variable d = (hi - lo)/lo, or (1 + d)·log1p(d),
    # or (p + 1)·d overflows there, so these pairs take the log-space lane
    pairs = [(1e306, 1.0), (1e308, 1.0), (1e300, 1e-300), (1e-300, 1e300)]
    for a, b in pairs:
        mine = generalized_logarithmic(p, a, b)
        assert mine == pytest.approx(float(hp_oracles.glog(p, a, b)), rel=1e-12, abs=0.0), (a, b)
        assert min(a, b) <= mine <= max(a, b), (a, b)
    # a batch mixing both lanes gives each lane its scalar value
    a = np.array([a for a, _ in pairs] + [3.0])
    b = np.array([b for _, b in pairs] + [1.0])
    batch = generalized_logarithmic(p, a, b)
    assert batch.tolist() == [generalized_logarithmic(p, x, y) for x, y in zip(a, b)]


@pytest.mark.parametrize("p", [-1.5, -3.0, -10.0])
def test_glog_below_minus_one_at_equal_pairs_at_the_top_of_the_range(p):
    # the masked equal-argument lane must not overflow (a leaked warning fails)
    top = 1.7e308
    assert generalized_logarithmic(p, top, top) == top
    a = np.array([top, top, 2.5, 3.0])
    b = np.array([top, 1e308, 2.5, 1.0])
    batch = generalized_logarithmic(p, a, b)
    assert batch.tolist() == [generalized_logarithmic(p, x, y) for x, y in zip(a, b)]
    assert batch[0] == top and batch[2] == 2.5


@pytest.mark.parametrize("a,b", [(1e-300, 5e-324), (1e-300, 1e-310)])
def test_identric_mean_at_tiny_pairs_matches_oracle(a, b):
    want = float(hp_oracles.glog(0, a, b))
    assert b < want < a
    assert generalized_logarithmic(0.0, a, b) == pytest.approx(want, rel=1e-15, abs=0.0)


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
    assert lp[0] == pytest.approx(math.sqrt(13 / 3), rel=1e-15, abs=0.0)


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


@pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
def test_glog_kernel_rejects_a_non_finite_order(p):
    # parse turns "L:inf" away before the kernel sees it; the kernel checks too
    with pytest.raises(ParameterError):
        generalized_logarithmic(p, 1.0, 3.0)


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
            assert kernel(a, b) == pytest.approx(want, rel=rtol, abs=0.0), (a, b)


# ---------------------------------------------------------------- pinned bits


def _band_pairs(rng, band, n):
    # the benchmark's kernel-bands recipe: t log-uniform in a band, or a/b far out
    b = 10.0 ** rng.uniform(-3.0, 3.0, n)
    if band == "far":
        ratio = 10.0 ** rng.uniform(math.log10(3.0), 300.0, n)
    else:
        lo, hi = {"near": (-8.0, -4.0), "mid": (-4.0, math.log10(0.5))}[band]
        t = 10.0 ** rng.uniform(lo, hi, n)
        ratio = (1.0 + t) / (1.0 - t)
    return ratio * b, b


# sha256 of each kernel's output on the near, mid and far bands in turn; a
# refactor of the kernels must leave these bits alone.
KERNEL_SHA256 = {
    "A": "84ec26ffe8be7ce8b0da1c86ef0bd53f9912816b4f0d2f79093046700752698c",
    "G": "522916ae63cd859ab2080ce52aa80753adf55772eb0a1832488342ec8e8243b3",
    "H": "39f675cca6680aa6f7634941e8ff4b85a9b7f2879cfa5e3deb7e8bac7c3864da",
    "Cbar": "2ff3447b4e0fa8192cb516cab734042955100e65ba896b00a126d19f7c331f87",
    "C": "94a894f0258d8ec35aacfd7cecf6650c5c5ca256a1b416f9ce858df2d53d4163",
    "P": "b362d5223349c2fd402b4783a79389b3df1ec768bce862a9649d44e9f62f7d9a",
    "T": "ce30963af5c8ac84ee432771ac6a1f0072d2c362502d10b29ea27a3aa8d30806",
    "Q": "62735c6b2c95a0b66254a86e398d797f10898e8b8d822a393d835cd9621817db",
    "M": "50e3dd2a222ae177a02c7a59bd193e52f8546f98a26aed0ce9142818f9f60328",
    "CH": "868e20f942151388af6ed3d03db298444ff0731a2527ee7920c56eed83a26d57",
    "L-1": "f3cb2c56373925c97887880744f7f58e0b1a4f9bfcb8045299d8152fdeaeb33e",
    "L0": "9e550164e7a3ded842576585f3a3788efbb36beda709a137c7b67c282a5bd988",
    "L2": "cfef77664565f3af9445e71f7d216d094095a6c7b25b5c188c68d46bc9f86b78",
    "Lp0": "ba9658e8c234cadf507a8b1f95843ddd6d215c39bcbd9a004a951cf863f1ceac",
}


# The kernels the pins cover, by the label of their row.
PINNED = {
    **{sym: MEANS[sym].kernel for sym in ("A", "G", "H", "Cbar", "C", "P", "T", "Q", "M")},
    "CH": ch_difference,
    "L-1": partial(generalized_logarithmic, -1.0),
    "L0": partial(generalized_logarithmic, 0.0),
    "L2": partial(generalized_logarithmic, 2.0),
    "Lp0": partial(generalized_logarithmic, constant("lp0-l2.lower").float_value),
}


def _digest(kernel, inputs):
    digest = hashlib.sha256()
    for a, b in inputs:
        digest.update(np.asarray(kernel(a, b), dtype=np.float64).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def band_inputs():
    rng = np.random.default_rng(11)
    return [_band_pairs(rng, band, 10_000) for band in ("near", "mid", "far")]


@pytest.mark.parametrize("label", list(KERNEL_SHA256))
def test_kernel_bits_are_pinned(label, band_inputs):
    assert _digest(PINNED[label], band_inputs) == KERNEL_SHA256[label]


# Two blocks and three pairs per band, so each array ends in a short block.
LONG = 2 * 2**14 + 3

# sha256 of each kernel's output on LONG pairs of the near, mid and far bands
# in turn, computed by the whole-array kernels before they were blocked.
LONG_KERNEL_SHA256 = {
    "A": "2e96e8d2c32476b388e082185683a41d9caac1f61e4ef385cc62cd4ff73781c3",
    "G": "328edc2c755488a3815b46f0ffe689b5ef2d7e115ebf1b174617562fba230f36",
    "H": "9b0a8b0ef0cf2c78638257892c8ef11f79c47c822191838cbaed54c4946d02c3",
    "Cbar": "6c72446c40bedd885d0168334129e79a21a490415708d93f4f0a1e0b26e15abb",
    "C": "1ead61bc7d8c995d01f0623e09c2ed1509f536e3d69b2a0c1651992ce19597c1",
    "P": "4ce08191cac1eab74c35acc172935ccd86f5b561767edad9810b34cde2956147",
    "T": "2cc5cf1be2cbd757a2612b49e4d95e516c6d33f1ad48eb324a41dc9fecb82878",
    "Q": "16321cad32d1acb9fa96852cec59328bc095497fd3acf7264dafe7abb37d9e0d",
    "M": "6a7496a87336a94a7056be1174af58a3ead39763c6b6f5ca308b7b4272a0c190",
    "CH": "04cd4c1eff42ac838b3a3be37ae2647f77fc4f5af1c1a731d0c63ceeed435757",
    "L-1": "b7bf2376e57956ed84da9039461e9a35332f00d6bc36b64db278e2278c30708a",
    "L0": "2e3151674f2ffe41f46db962e871a84810ea2c41ac46c49c2ba0f9977ee315e4",
    "L2": "890ce26ad5099d0d06116ecb983781992eb5865361beb68fb4c08c83c7289e3d",
    "Lp0": "05c98d1fce8410f098ce8dcf6585036792c04e9bfe948ab5d2592fbdeaa7f9c9",
}


@pytest.fixture(scope="module")
def long_band_inputs():
    rng = np.random.default_rng(23)
    return [_band_pairs(rng, band, LONG) for band in ("near", "mid", "far")]


@pytest.mark.parametrize("label", list(LONG_KERNEL_SHA256))
def test_kernel_bits_past_one_block_are_pinned(label, long_band_inputs):
    assert LONG > 2 * _BLOCK
    assert _digest(PINNED[label], long_band_inputs) == LONG_KERNEL_SHA256[label]


def _mixed_pairs(rng, n):
    # n pairs of each kind every lane has a branch for, swapped at random and shuffled
    x = 10.0 ** rng.uniform(-307.0, 308.0, n)
    top = 2.0 ** rng.uniform(1022.0, 1023.99, n)
    subnormal = rng.integers(1, 2**52, n) * 5e-324
    small = 10.0 ** rng.uniform(-300.0, 8.0, n)
    a = np.concatenate([top, subnormal, x, x, small * 1e300])
    b = np.concatenate([
        10.0 ** rng.uniform(-292.0, 308.0, n),  # against the top of the range: a/b up to 1e600
        10.0 ** rng.uniform(-320.0, 300.0, n),
        x,  # equal
        np.nextafter(x, math.inf),  # one ulp apart
        small,  # a/b = 1e300
    ])
    swap = rng.random(a.size) < 0.5
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    order = rng.permutation(a.size)
    return a[order], b[order]


# sha256 of each kernel's output on the 5·10,001 pairs of _mixed_pairs, not a
# multiple of the block, computed by the whole-array kernels.
MIXED_KERNEL_SHA256 = {
    "A": "4cd492ea0ade0e961d25ea8d9a413cfd8e15f5da2003565151d9899b92e03907",
    "G": "4ddf23c56260209106c7a478189a956a752f3065ed513f85174d71501d90774b",
    "H": "8c9eb15cc54bac8e53b928c9562da4ddc86c6e219af00b8847e8e8d84d44397c",
    "Cbar": "ea241e8e951a9360ef5816e9c37330123921db36c705bf93f3e2de1852f4b16d",
    "C": "767736596cdced198b9b46809370893bb69bd5a130f00a12437ceb7e188b125d",
    "P": "a3c10502504c6b983d9431be0a8fd7cf1d0c27e5b66c323c66620dacf5b52ac5",
    "T": "816e1e947894b41e06996ce1a03450ff0704bd6389bcd221536bdbd804314b33",
    "Q": "0ff9f4010ca66b0b00cf99bc1a494fa262930be0f09495be4f4536eb93c037fe",
    "M": "f2e0a887132c33200b2c6d30839313885ec34ace8023def9345cc72dc52c2dc7",
    "CH": "ae135483491cef9506edf021745357c694a49bc2532d28c147bdc6d800f43074",
    "L-1": "f25f0797ee319f1e1808e5790ec51efb59b656c673ba376406ed7c8a838be31d",
    "L0": "e9f160a38187df7264a4fdfb8a61f3531eb3f9b3b7f2aaa2183f6c405161d55d",
    "L2": "01e1f78ef2eba18ce96bd15687aee1b05c407540958053a8cb2a532037c6f6fa",
    "Lp0": "72ab8e8727ba1aaca7a4ee25e54da8332dd5daf745e2bc053cfa3ebaf138788e",
}


@pytest.fixture(scope="module")
def mixed_inputs():
    return _mixed_pairs(np.random.default_rng(31), 10_001)


@pytest.mark.parametrize("label", list(MIXED_KERNEL_SHA256))
def test_kernel_bits_on_mixed_pairs_are_pinned_in_1d_and_2d(label, mixed_inputs):
    a, b = mixed_inputs
    assert _digest(PINNED[label], [(a, b)]) == MIXED_KERNEL_SHA256[label]
    out = PINNED[label](a.reshape(5, -1), b.reshape(5, -1))
    assert out.shape == (5, 10_001)
    assert hashlib.sha256(out.tobytes()).hexdigest() == MIXED_KERNEL_SHA256[label]


# ---------------------------------------------------------------- long arrays


@pytest.fixture(scope="module")
def million_pairs():
    return _band_pairs(np.random.default_rng(5), "mid", 2**20)


@pytest.mark.parametrize("label", list(PINNED))
def test_a_call_on_long_arrays_allocates_little_beyond_its_output(label, million_pairs):
    # blocked evaluation keeps each temporary one block long; whole-array
    # evaluation had 4 to 9 output-sized temporaries alive at its peak
    a, b = million_pairs
    tracemalloc.start()
    try:
        out = PINNED[label](a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * out.nbytes, peak / out.nbytes


def test_long_arrays_keep_the_shape_and_broadcast_contract():
    assert neuman_sandor(np.ones((2, 3)), 2.0).shape == (2, 3)
    assert arithmetic(np.array([1.0, 2.0]), 3.0).tolist() == [2.0, 2.5]
    x = np.geomspace(1e-3, 1e3, LONG)
    short = [slice(i, i + 1000) for i in range(0, LONG, 1000)]
    # a scalar against a long array, either way round
    want = np.concatenate([neuman_sandor(x[s], 2.0) for s in short])
    assert neuman_sandor(x, 2.0).tolist() == want.tolist()
    assert neuman_sandor(2.0, x).tolist() == want.tolist()
    # 2-D in, 2-D out, and a row broadcast against a longer 2-D array
    grid = x[: 4 * 8001].reshape(4, 8001)
    out = generalized_logarithmic(2.0, grid, grid[::-1])
    assert out.shape == (4, 8001)
    assert out.tolist() == [generalized_logarithmic(2.0, r, q).tolist() for r, q in zip(grid, grid[::-1])]
    row = arithmetic(grid, grid[0])
    assert row.shape == (4, 8001)
    assert row.tolist() == [arithmetic(r, grid[0]).tolist() for r in grid]


def test_empty_and_scalar_inputs_keep_their_kinds():
    for fn in PINNED.values():
        assert fn(np.array([]), np.array([])).shape == (0,)
        assert type(fn(3.0, 1.0)) is float
        assert type(fn(np.float64(3.0), np.array(1.0))) is float


@pytest.mark.parametrize("bad", [math.nan, 0.0, math.inf])
@pytest.mark.parametrize("label", list(PINNED))
def test_a_bad_pair_in_the_last_block_is_a_domain_error(label, bad):
    a, b = np.full(LONG, 2.0), np.full(LONG, 3.0)
    b[-1] = bad
    with pytest.raises(DomainError, match="^mean arguments must be positive finite reals$"):
        PINNED[label](a, b)


def test_a_non_finite_order_is_refused_before_a_long_pair_is_checked():
    a, b = np.full(LONG, 2.0), np.full(LONG, 3.0)
    b[-1] = math.nan
    with pytest.raises(ParameterError):
        generalized_logarithmic(math.inf, a, b)
