"""The sharp-constant table: values, expression text, and lookups."""

import mpmath as mp
import pytest

import hp_oracles
from meanslab import ParameterError, constant, sharp_constants, solve_p0

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
    texts = {c.name: c.text for c in sharp_constants()}
    assert texts["thm3.1.lower"] == "1/(2*ln(1+sqrt(2))) - 1"
    assert texts["thm3.1.upper"] == "-5/12"
    assert texts["cor3.2.upper"] == "2/3 - 1/(2*ln(1+sqrt(2)))"
    assert texts["thm3.2.lower"] == "1/(2*ln(1+sqrt(2)))"
    assert texts["zhao-HQ.upper"] == "1 - 1/(sqrt(2)*ln(1+sqrt(2)))"
    assert texts["lp0-l2.lower"] == "p0"


def test_every_constant_has_context_and_text():
    for c in sharp_constants():
        assert c.context
        assert c.text
        assert float(c.value) == c.float_value


def test_p0_constant_definition_and_value():
    c = constant("lp0-l2.lower")
    assert c.definition and "root" in c.definition
    assert abs(c.float_value - solve_p0()) < 2e-12


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
