"""The sharp constants: values, derived expression text, the grammar, and lookups."""

import re

import mpmath as mp
import pytest

import hp_oracles
from meanslab import SPECS, ParameterError, constant, expr_value, sharp_constants, solve_p0
from meanslab.constants import _p0_gap

# 4-digit decimal prefixes as printed in the source results
PREFIXES = {
    "thm3.1.lower": "-0.4327",
    "thm3.1.upper": "-0.4166",
    "cor3.1.lower": "0.4166",
    "cor3.1.upper": "0.4327",
    "cor3.2.lower": "0.0833",
    "cor3.2.upper": "0.0993",
    "thm3.2.lower": "0.5672",
    "thm3.3.lower": "0.5",
    "thm3.3.upper": "0.7107",
    "thm3.4.lower": "0.3231",
    "thm3.4.upper": "0.4",
    "neuman-QA.lower": "0.3249",
    "neuman-QA.upper": "0.3333",
    "neuman-CA.lower": "0.1345",
    "neuman-CA.upper": "0.1666",
    "zhao-HQ.lower": "0.2222",
    "zhao-HQ.upper": "0.1977",
    "zhao-GQ.lower": "0.3333",
    "zhao-GQ.upper": "0.1977",
    "zhao-HC.lower": "0.4327",
    "zhao-HC.upper": "0.4166",
    "identric-IQ.lower": "0.5",
    "identric-IQ.upper": "0.4121",
    "lp0-l2.lower": "1.8435",
}


def test_table_is_complete():
    names = [c.name for c in sharp_constants()]
    assert len(names) == len(set(names)) == len(PREFIXES)
    assert set(names) == set(PREFIXES)


def test_decimal_prefixes():
    for c in sharp_constants():
        assert mp.nstr(c.value, 20).startswith(PREFIXES[c.name]), c.name


def test_values_match_independent_expressions():
    want = hp_oracles.constants()
    with mp.workdps(40):
        for c in sharp_constants():
            rel = abs(mp.mpf(c.value) - want[c.name]) / abs(want[c.name])
            assert rel < mp.mpf("1e-30"), c.name


def test_expression_text_is_exact_arithmetic_notation():
    # a near-end constant is a Fraction's text; a far-end one is the quotient
    # of the sides' φ(1), term by term
    texts = {c.name: c.exact_expr for c in sharp_constants()}
    assert texts["thm3.1.lower"] == "(1/ln(1+sqrt(2)) - 2)/2"
    assert texts["thm3.1.upper"] == "-5/12"
    assert texts["cor3.2.upper"] == "(4/3 - 1/ln(1+sqrt(2)))/2"
    assert texts["thm3.2.lower"] == "1/ln(1+sqrt(2))/2"
    assert texts["zhao-HQ.upper"] == "(1/ln(1+sqrt(2)) - sqrt(2))/(0 - sqrt(2))"
    assert texts["identric-IQ.upper"] == "(1/ln(1+sqrt(2)) - sqrt(2))/(2/e - sqrt(2))"
    assert texts["lp0-l2.lower"] == "p0"


def test_derived_texts_have_the_values_of_the_paper_s_forms():
    # hp_oracles evaluates each constant from an mpmath form of its own
    derived = {c.name: c.exact_expr for c in sharp_constants()}
    want = hp_oracles.constants()
    assert set(derived) == set(want)
    with mp.workdps(50):
        for name, value in want.items():
            assert abs(expr_value(derived[name]) - value) < mp.mpf("1e-45"), name


def test_constants_are_listed_record_by_record_lower_before_upper():
    want = [f"{spec.id}.{side}" for spec in SPECS for side in ("lower", "upper") if getattr(spec, side) in ("near", "far")]
    assert [c.name for c in sharp_constants()] == want


def test_contexts_are_derived_from_the_spec():
    # one of each shape in the catalog: a weight, a coefficient of CH on a
    # difference, a lone mean over CH, and the exponent window
    contexts = {c.name: c.context for c in sharp_constants()}
    assert contexts["zhao-HQ.lower"] == "sharp weight in alpha*H + (1-alpha)*Q < M"
    assert contexts["cor3.1.upper"] == "sharp coefficient in C - M < beta*CH"
    assert contexts["thm3.2.lower"] == "sharp coefficient in alpha*CH < M"
    assert contexts["lp0-l2.lower"] == "sharp exponent in L_p < M"


def test_every_constant_has_context_and_text():
    for c in sharp_constants():
        assert c.context
        assert c.exact_expr
        assert float(c.value) == c.float_value


def test_value_is_the_value_of_the_stored_text():
    with mp.workdps(40):
        for c in sharp_constants():
            assert expr_value(c.exact_expr) == c.value, c.name


@pytest.mark.parametrize("text", [
    "__import__('os')", "2**3", "x", "sqrt(2, 3)", "1.5", "1/", "pi(1)", "PI",
    # a value that is not a finite real
    "1/0", "0/0", "ln(0)", "sqrt(-1)", "ln(-1)",
])
def test_expr_value_rejects_text_outside_the_grammar(text):
    with pytest.raises(ParameterError, match=re.escape(repr(text))):
        expr_value(text)


def test_pi_is_in_the_grammar():
    with mp.workdps(40):
        assert expr_value("4/pi") == 4 / mp.pi
        assert mp.nstr(expr_value("4/pi"), 40) == "1.273239544735162686151070106980114896276"


def test_p0_constant_definition_and_value():
    c = constant("lp0-l2.lower")
    assert c.definition and "root" in c.definition
    assert c.float_value == float(hp_oracles.p_zero())
    # one root: the solver returns the catalog's constant, not a nearby double
    assert solve_p0() == c.float_value


def test_p0_is_the_unique_root_its_definition_names():
    # the printed definition: the gap is positive at 1.5, negative at 2.5
    # and strictly decreasing between, so it has one root there
    assert constant("lp0-l2.lower").definition == "unique root of (p+1)^(1/p) = 2*ln(1+sqrt(2)) on [1.5, 2.5]"
    with mp.workdps(50):
        assert mp.nstr(_p0_gap(mp.mpf("1.5")), 3) == "0.0793"
        assert mp.nstr(_p0_gap(mp.mpf("2.5")), 4) == "-0.1122"
        gaps = [_p0_gap(p) for p in mp.linspace(mp.mpf("1.5"), mp.mpf("2.5"), 201)]
        assert all(left > right for left, right in zip(gaps, gaps[1:]))


def test_weight_pairs_bracket_an_interval():
    # For each two-sided record the two weights pin an open interval; which
    # one is numerically larger depends on which side of the combination the
    # first mean sits, so just check they are distinct and correctly ordered
    # for the known orientations.
    v = {c.name: c.float_value for c in sharp_constants()}
    assert v["thm3.1.lower"] < v["thm3.1.upper"]
    assert v["cor3.1.lower"] < v["cor3.1.upper"]
    assert v["cor3.2.lower"] < v["cor3.2.upper"]
    assert v["neuman-QA.lower"] < v["neuman-QA.upper"]
    assert v["neuman-CA.lower"] < v["neuman-CA.upper"]
    assert v["thm3.3.lower"] < v["thm3.3.upper"]
    assert v["thm3.4.lower"] < v["thm3.4.upper"]
    # these combinations mix against a *larger* partner, flipping the order
    assert v["zhao-HQ.lower"] > v["zhao-HQ.upper"]
    assert v["zhao-GQ.lower"] > v["zhao-GQ.upper"]
    assert v["zhao-HC.lower"] > v["zhao-HC.upper"]
    assert v["identric-IQ.lower"] > v["identric-IQ.upper"]


def test_lookup():
    c = constant("thm3.2.lower")
    assert c.name == "thm3.2.lower"
    with pytest.raises(ParameterError):
        constant("thm9.9.lower")
