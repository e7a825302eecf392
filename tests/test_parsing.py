"""Expression parser: grammar coverage and error positions."""

from __future__ import annotations

import time
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from lqt import ParseError, Polynomial, RationalFunction, functions, parse_expr
from lqt.parsing import (MAX_BITS, MAX_NESTING, MAX_POWER, MAX_TERMS,
                         parse_rational)
from helpers import XY, record_calls


def f_of(text: str) -> RationalFunction:
    return parse_expr(text, XY)


# -- grammar ---------------------------------------------------------------

@pytest.mark.parametrize("text, same_as", [
    ("x + y*y", "x + y^2"),
    ("x - y - y", "x - 2*y"),
    ("-x^2", "-(x^2)"),
    ("(-x)^2", "x^2"),
    ("2*x/4", "x/2"),
    ("x/y/y", "x/y^2"),
    ("x - -y", "x + y"),
    ("(x^2)^3", "x^6"),
    ("  x\t+ y ", "x + y"),
    ("x^-1", "1/x"),
    ("(x + y)^-2", "1/(x + y)^2"),
    ("3/2*x", "(3*x)/2"),
])
def test_equivalent_spellings(text, same_as):
    assert f_of(text) == f_of(same_as)


def test_integer_literals_become_constants():
    assert f_of("7") == RationalFunction.constant(7, XY)
    assert f_of("0") == RationalFunction.constant(0, XY)


def test_rational_coefficients():
    f = f_of("1/3*x + y")
    assert f.numerator == Polynomial(XY, {(1, 0): Fraction(1, 3), (0, 1): 1})


def test_power_binds_tighter_than_unary_minus():
    assert f_of("-x^2") == -f_of("x^2")


# -- errors ------------------------------------------------------------------

def expect_error(text: str, fragment: str, position: int | None = None):
    with pytest.raises(ParseError) as info:
        f_of(text)
    assert fragment in str(info.value)
    if position is not None:
        assert info.value.position == position


def test_unknown_variable_lists_expected_names():
    expect_error("x + w", "unknown variable 'w'", 4)
    expect_error("x + w", "x, y")


def test_truncated_input():
    expect_error("x +", "end of input", 3)
    expect_error("", "empty expression", 0)


def test_unbalanced_parentheses():
    expect_error("(x + y", "expected ')'")


def test_chained_power_needs_parentheses():
    expect_error("x^2^3", "trailing input", 3)


def test_trailing_garbage_position():
    expect_error("x + y)", "trailing input ')'", 5)


def test_bad_exponent():
    expect_error("x^y", "exponent")
    expect_error("x^(2)", "exponent")


def test_division_by_zero_reported_with_position():
    expect_error("x/0", "division by zero")
    expect_error("x/(y - y)", "division by zero")
    expect_error("0^-1", "zero")


def test_stray_character():
    expect_error("x + $", "unexpected character '$'", 4)


def test_nesting_is_capped_before_the_recursion_limit():
    # the position is that of the first factor nested one level too deep
    expect_error("(" * 3000 + "x" + ")" * 3000, "nested too deeply",
                 MAX_NESTING + 1)
    expect_error("-" * 3000 + "x", "nested too deeply", MAX_NESTING + 1)
    expect_error("-(" * 3000 + "x" + ")" * 3000, "nested too deeply",
                 MAX_NESTING + 1)


def test_tokens_are_read_no_further_than_the_nesting_cap():
    # the stray character lies past the factor that is nested too deeply,
    # so the parse ends before the tokenizer reaches it
    expect_error("(" * 200 + "x" + ")" * 200 + "$", "nested too deeply",
                 MAX_NESTING + 1)


def test_nesting_up_to_the_cap_parses():
    deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert f_of(deep) == f_of("x")
    assert f_of("-" * MAX_NESTING + "x") == f_of("x")
    half = MAX_NESTING // 2
    assert f_of("(" * half + "x" + ")" * half + " + " + "(" * half + "y"
                + ")" * half) == f_of("x + y")


def test_powers_of_sums_are_refused_before_they_are_computed():
    expect_error("(1 + x + y)^3000", "too large for a base of several terms",
                 12)
    expect_error("(1 + x)^-3000", "too large")
    expect_error(f"((x + y)/x)^{MAX_POWER + 1}", "too large")
    # (1 + x + y)^9 has 55 terms, so its square could have 1540
    expect_error("((1 + x + y)^9)^2", f"could have more than {MAX_TERMS}")
    assert len(f_of(f"(1 + x)^{MAX_POWER}").numerator.terms) == MAX_POWER + 1


def test_monomial_powers_are_not_capped():
    assert f_of("x^3000").numerator.terms == {(3000, 0): 1}
    assert f_of("(2*x/y)^-500") == f_of("y^500/x^500") / f_of("2^500")
    assert f_of("(x*y)^5000") == f_of("x^5000*y^5000")


def test_values_with_too_many_terms_are_refused():
    expect_error("(1 + x)^40*(1 + y)^40", f"more than {MAX_TERMS} terms", 11)
    expect_error("1/((1 + x)^40*(1 + y)^40)", f"more than {MAX_TERMS} terms")
    # 861 + 205 terms: each summand is within the cap, the sum is not
    big = "(1 + x)^40*(1 + y)^20"
    expect_error(f"{big} + y^21*(1 + x)^40*(1 + y)^4",
                 f"more than {MAX_TERMS} terms", len(big) + 3)


_X, _Y = (RationalFunction.variable(v, XY) for v in XY)
_ONE = RationalFunction.constant(1, XY)


@pytest.mark.parametrize("text, want", [
    ("1/(x + 1) + 1/(y + 1)", _ONE / (_X + _ONE) + _ONE / (_Y + _ONE)),
    ("-(1/(x + y + 1))", -(_ONE / (_X + _Y + _ONE))),
    ("x - 1/(x + y)", _X - _ONE / (_X + _Y)),
    ("1/(x + 1) - (y - 1)/(x + 2*y)",
     _ONE / (_X + _ONE) - (_Y - _ONE) / (_X + _Y + _Y)),
])
def test_sums_and_negations_of_fractions(text, want):
    """A sum with a fraction on either side, and the negation of a
    fraction, leave term maps for RationalFunction arithmetic."""
    assert f_of(text) == want


def test_sums_of_fractions_are_capped():
    # 31*34 terms in the denominator of the sum; each summand is far below
    left = "1/(1 + x)^30"
    expect_error(f"{left} + 1/(1 + y)^33", f"more than {MAX_TERMS} terms",
                 len(left) + 3)
    expect_error(f"{left} - 1/(1 + y)^33", f"more than {MAX_TERMS} terms",
                 len(left) + 3)


def test_constant_powers_are_refused_before_they_are_computed():
    start = time.perf_counter()
    expect_error("3^100000000*x", f"more than {MAX_BITS} bits", 2)
    expect_error("x*(2/3)^-100000000", f"more than {MAX_BITS} bits", 8)
    assert time.perf_counter() - start < 1
    # 2 has two bits, so 2^k passes the check up to k = MAX_BITS/2
    assert f_of(f"2^{MAX_BITS // 2}").numerator.terms == {
        (0, 0): 2 ** (MAX_BITS // 2)}
    expect_error(f"2^{MAX_BITS // 2 + 1}", f"more than {MAX_BITS} bits")
    # coefficients 1 and -1 count as zero bits
    assert f_of("(-x/y)^100001") == -f_of("x^100001/y^100001")


def test_values_with_too_large_coefficients_are_refused():
    big = "2^2000"
    # numerator and denominator bits add up, as do the factors of a product
    expect_error(f"{big}*{big}*{big}", f"more than {MAX_BITS} bits",
                 2 * len(big) + 2)
    expect_error(f"{big}*{big}/3^1300", f"more than {MAX_BITS} bits")
    expect_error(f"x + {big}*{big}*{big}*y", f"more than {MAX_BITS} bits")
    assert f_of(f"{big}*{big}/{big}") == f_of(big)


def test_sums_and_products_are_measured_where_they_can_grow():
    # h has MAX_BITS bits, written out so that it passes the literal cap
    h = str(2 ** (MAX_BITS - 1))
    left = f"{h}*x + y"
    # only the coefficient of x, where the addend lies, passes the cap
    expect_error(f"{left} + {h}*x", f"more than {MAX_BITS} bits",
                 len(left) + 3)
    expect_error(f"y - {h}*x - {h}*x", f"more than {MAX_BITS} bits",
                 len(h) + 9)
    assert f_of(f"{left} - {h}*x + {h}*x") == f_of(left)
    # a signed monomial factor keeps the other factor's coefficients
    assert f_of(f"({left})*(-x*y^2)") == -f_of(f"{h}*x^2*y^2 + x*y^3")
    expect_error(f"({left})*(2*y)", f"more than {MAX_BITS} bits",
                 len(left) + 3)


# every error through a term-map value, message and position in full
_H = str(2 ** 4095)


def _short(text: str) -> str:
    return text if len(text) <= 40 else f"{text[:30]}...({len(text)} chars)"


@pytest.mark.parametrize("text, message", [
    ("x^-1*(1 + x + y)^65", "exponent 65 is too large for a base of several "
     "terms (at most 64) (at position 17)"),
    ("/x + ".join(f"x^{k}" for k in range(1001)) + "/x",
     "expression has more than 1000 terms (at position 9890)"),
    ("y/x*" + "1" * 1366,
     "integer literal of more than 1365 digits (at position 4)"),
    ("x^-2*(x - x)^-1", "zero raised to a negative power (at position 13)"),
    ("(x^-1 - x^-1)^-3", "zero raised to a negative power (at position 14)"),
    ("x/(y - y)", "division by zero (at position 2)"),
    ("x/0", "division by zero (at position 2)"),
    ("x/y/(x/y - x/y)", "division by zero (at position 4)"),
    ("2^5000*x^-1", "power could have a coefficient of more than 4096 bits "
     "(at position 2)"),
    ("(2/3*x^-1)^-7000", "power could have a coefficient of more than 4096 "
     "bits (at position 11)"),
    ("x^-1*(1 + x)^40*(1 + y)^40",
     "expression has more than 1000 terms (at position 16)"),
    ("((1 + x + y)^9/x)^2",
     "power could have more than 1000 terms (at position 18)"),
    ("(1/x + y)^-65", "exponent -65 is too large for a base of several terms "
     "(at most 64) (at position 10)"),
    ("2^2000*2^2000/x*2^2000", "expression has a coefficient of more than "
     "4096 bits (at position 16)"),
    ("x^-1*" + "7" * 1365, "expression has a coefficient of more than 4096 "
     "bits (at position 5)"),
    (f"{_H}*x/y + y + {_H}*x/y", "expression has a coefficient of more than "
     "4096 bits (at position 1244)"),
    (f"y/x - {_H}*x - {_H}*x", "expression has a coefficient of more than "
     "4096 bits (at position 1244)"),
    (f"({_H}*x + y/x)*(2*y)", "expression has a coefficient of more than "
     "4096 bits (at position 1244)"),
    ("x/y + w",
     "unknown variable 'w' (expected one of x, y) (at position 6)"),
    ("x^-1 +", "expected a value, found 'end of input' (at position 6)"),
    ("x/y)", "unexpected trailing input ')' (at position 3)"),
    ("x/y^z", "expected integer exponent, found 'z' (at position 4)"),
    ("(x/y", "expected ')', found 'end of input' (at position 4)"),
    ("x/y $", "unexpected character '$' (at position 4)"),
    ("x^-1*" + "-(" * 200 + "x" + ")" * 200,
     "expression nested too deeply (at position 106)"),
], ids=_short)
def test_term_map_errors_keep_their_messages(text, message):
    with pytest.raises(ParseError) as info:
        f_of(text)
    assert str(info.value) == message


def test_term_maps_take_no_gcd(monkeypatch):
    calls = record_calls(monkeypatch, functions, "cofactors")
    # monomial divisors and negative powers of monomials stay term maps
    for text in ["-3*(y)^-2*(y - x)^1*(1 + 139*x)", "y*(1 + 5*x)/x^40"]:
        f_of(text)
        assert calls == []
    # a negative power of a sum is a fraction, which its product with
    # another sum reduces once
    assert f_of("(y - x)^-1*(1 + x)") == f_of("(1 + x)/(y - x)")
    calls.clear()
    f_of("(y - x)^-1*(1 + x)")
    assert len(calls) <= 1


# texts for the fuzz test: pieces of the grammar, some too large or wrong,
# and stray characters, among them digits int() refuses
_FRAGMENTS = ["x", "y", "w", "x_1", "0", "1", "7", "999", "9" * 1400, "(",
              ")", "+", "-", "*", "/", "^", "^2", "^0", "^-1", "^-3", "^65",
              "^5000", " ", "(x - y)", "(1 + x + y)", "x/y", "2^2000", "$",
              ".", "\u00b2", "\u0663", "\u00e9", "\n"]


@settings(deadline=None, max_examples=400)
@given(st.lists(st.sampled_from(_FRAGMENTS) | st.characters(),
                max_size=24).map("".join))
def test_any_text_parses_or_fails_with_a_position(text):
    try:
        value = f_of(text)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)
    else:
        assert isinstance(value, RationalFunction)


def test_long_integer_literals_are_refused_before_conversion():
    cap = MAX_BITS // 3
    digits = "9" * 5000
    expect_error(f"{digits}*x", f"more than {cap} digits", 0)
    expect_error(f"x^{digits}", f"more than {cap} digits", 2)
    expect_error("1" + "0" * cap, f"more than {cap} digits")
    # within the digit cap, the value cap still applies
    expect_error("7" * cap, f"more than {MAX_BITS} bits", 0)
    assert f_of("1" + "0" * 1000) == f_of("10^1000")


def test_rational_literals_are_capped_like_coefficients():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational(" 0.25 ") == Fraction(1, 4)
    assert parse_rational("1e-3") == Fraction(1, 1000)
    assert parse_rational(str(2 ** (MAX_BITS - 1))) == 2 ** (MAX_BITS - 1)
    start = time.perf_counter()
    for text, fragment in [
            (str(2 ** MAX_BITS), f"more than {MAX_BITS} bits"),
            ("1/3e400", "bad rational"),
            ("1e1300", f"more than {MAX_BITS} bits"),
            ("1e99999", f"more than {MAX_BITS // 3} digits"),
            ("0e-" + "9" * 5000, f"more than {MAX_BITS // 3} digits"),
            ("9" * 5000, f"more than {MAX_BITS // 3} digits"),
            ("1/0", "bad rational '1/0'"),
            ("x", "bad rational 'x'")]:
        with pytest.raises(ValueError) as info:
            parse_rational(text)
        assert fragment in str(info.value)
    assert time.perf_counter() - start < 1
