"""Rational function field arithmetic, canonical form and printing.

Canonical form means numerator and denominator are coprime and the
denominator is monic in the grlex-leading coefficient; equality and hashing
rely on it.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest
import sympy as sp

from lqt import (Polynomial, RationalFunction, functions, parse_expr, poly_gcd,
                 polynomials)
from helpers import (XY, XYZ, monomial_unit_parts, ord_at_origin, random_rf,
                     record_calls, to_sympy, to_sympy_rf)


def f_of(text: str, variables=XY) -> RationalFunction:
    return parse_expr(text, variables)


# -- canonical form ------------------------------------------------------------

def test_common_factors_cancel():
    f = f_of("(x^2 - y^2)/(x - y)")
    assert f == f_of("x + y")
    assert f.denominator.is_one()


def test_denominator_is_monic():
    f = f_of("x / (2*y)")
    assert f.denominator == Polynomial.variable("y", XY)
    assert f.numerator == Polynomial(XY, {(1, 0): Fraction(1, 2)})


def test_canonical_form_is_coprime():
    rng = random.Random(505)
    for _ in range(30):
        f = random_rf(rng)
        assert poly_gcd(f.numerator, f.denominator).is_constant()


def test_equality_and_hash_across_construction_routes():
    a = f_of("(x*y + x)/(x^2)")
    b = f_of("(y + 1)/x")
    assert a == b
    assert hash(a) == hash(b)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Polynomial.one(XY), Polynomial.zero(XY))
    with pytest.raises(ZeroDivisionError):
        f_of("x") / f_of("0")


# -- field arithmetic -----------------------------------------------------------

def test_arithmetic_matches_sympy():
    rng = random.Random(606)
    for _ in range(40):
        f = random_rf(rng)
        g = random_rf(rng)
        assert to_sympy_rf(f + g) == sp.cancel(to_sympy_rf(f) + to_sympy_rf(g))
        assert to_sympy_rf(f * g) == sp.cancel(to_sympy_rf(f) * to_sympy_rf(g))
        assert to_sympy_rf(f - g) == sp.cancel(to_sympy_rf(f) - to_sympy_rf(g))
        if not g.is_zero():
            assert to_sympy_rf(f / g) == sp.cancel(to_sympy_rf(f) / to_sympy_rf(g))


def test_field_identities():
    rng = random.Random(707)
    one = RationalFunction.constant(1, XY)
    for _ in range(20):
        f = random_rf(rng)
        assert f + (-f) == RationalFunction.constant(0, XY)
        if not f.is_zero():
            assert f * f.inverse() == one
            assert f**3 * f**-3 == one


def test_scaling_by_zero_gives_zero_over_one():
    f = f_of("(y + 1)/x")
    assert f.numerator.scale(0) == Polynomial.zero(XY)
    assert (RationalFunction(f.numerator.scale(0), f.denominator)
            == RationalFunction.constant(0, XY))


def test_negative_powers():
    f = f_of("x/y")
    assert f**-2 == f_of("y^2/x^2")
    assert f**0 == RationalFunction.constant(1, XY)
    with pytest.raises(ZeroDivisionError):
        RationalFunction.constant(0, XY) ** -1


def test_substitute_with_rational_images():
    f = f_of("y/x")
    g = f.substitute({"x": f_of("x"), "y": f_of("y/x")})
    assert g == f_of("y/x^2")


def test_substitute_matches_sympy_with_rational_images():
    rng = random.Random(909)
    syms = sp.symbols(XY)
    checked = 0
    for _ in range(25):
        f = random_rf(rng, max_terms=3, max_exp=2)
        images = {v: random_rf(rng, max_terms=2, max_exp=2) for v in XY}
        subs = {s: to_sympy_rf(images[v]) for s, v in zip(syms, XY)}
        den = sp.cancel(to_sympy(f.denominator).subs(subs, simultaneous=True))
        if den == 0:
            with pytest.raises(ZeroDivisionError):
                f.substitute(images)
            continue
        want = to_sympy_rf(f).subs(subs, simultaneous=True)
        assert sp.cancel(to_sympy_rf(f.substitute(images)) - want) == 0
        if not all(g.denominator.is_constant() for g in images.values()):
            checked += 1
    assert checked >= 20


def test_substitute_raises_when_the_denominator_maps_to_zero():
    f = f_of("x/(x^2 - y)")
    images = {"x": f_of("1/(x + 1)"), "y": f_of("1/(x^2 + 2*x + 1)")}
    with pytest.raises(ZeroDivisionError):
        f.substitute(images)
    with pytest.raises(ZeroDivisionError):
        f_of("1/(x - y)").substitute({"x": f_of("y/(x + 1)"),
                                      "y": f_of("y/(x + 1)")})


def test_each_operation_reduces_once(monkeypatch):
    """Sums and products take gcds of their parts: one call on the
    denominators of a sum, plus one on (t, g) when g = gcd(b, d) is not
    constant; one per product cross pair whose denominator is not one; one
    for the constructor's reduction (b == d, substitution); none for
    operations that cannot create a common factor."""
    calls = record_calls(monkeypatch, functions, "cofactors")
    f = f_of("(x + y)/(x - 2*y)")
    g = f_of("(x^2 + 1)/(x*y + 3)")
    p = f_of("x^2 - y")
    # denominators sharing x: t = x*y + x + 1 stays coprime to it
    h1, h2 = f_of("1/(x*(y + 1))"), f_of("(x - 1)/(x*(y + 2))")
    same = f_of("x/(x - 2*y)")
    images = {"x": f_of("x/(y + 1)"), "y": f_of("(x - y)/(x + 2)")}
    b, d = f.denominator, g.denominator
    shapes = [
        (lambda: f + g, [(b, d)]),
        (lambda: f - g, [(b, d)]),
        (lambda: h1 + h2, [(h1.denominator, h2.denominator),
                           (f_of("x*y + x + 1").numerator,
                            Polynomial.variable("x", XY))]),
        (lambda: f + same, [(f_of("2*x + y").numerator, b)]),
        (lambda: f * g, [(f.numerator, d), (g.numerator, b)]),
        (lambda: f / g, [(f.numerator, g.numerator), (d, b)]),
        (lambda: p * f, [(p.numerator, b)]),
        (lambda: f * p, [(p.numerator, b)]),
    ]
    for op, expected in shapes:
        calls.clear()
        op()
        assert calls == expected
    calls.clear()
    f.substitute(images)
    assert len(calls) == 1
    never = [lambda: -f, lambda: f.inverse(), lambda: f ** 3,
             lambda: f ** -2, lambda: p * p, lambda: p + p,
             lambda: p - p ** 2]
    for op in never:
        calls.clear()
        op()
        assert calls == []


def _factor(rng: random.Random) -> Polynomial:
    """A constant term and one or two others with small exponents, so that
    no monomial divides it."""
    terms = {(0, 0): rng.randint(1, 3)}
    for _ in range(2):
        e = (rng.randint(0, 2), rng.randint(0, 2))
        if e != (0, 0):
            terms[e] = rng.choice([-2, -1, 1, 2])
    if len(terms) == 1:
        terms[(1, 0)] = 1
    return Polynomial(XY, terms)


def _branch_pairs(rng: random.Random):
    """Pairs of reduced fractions whose denominators share factors: equal
    denominators, coprime ones, a shared q, a shared q that the sum's
    numerator cancels, and numerators that cancel across a product."""
    p1, p2, q, r1, r2 = (_factor(rng) for _ in range(5))
    f = RationalFunction(p1, q * r1)
    yield RationalFunction(p1, q), RationalFunction(p2, q)
    yield RationalFunction(p1, r1), RationalFunction(p2, r2)
    yield f, RationalFunction(p2, q * r2)
    # g = p2/r2 - f by the constructor, so f + g = p2/r2 and t shares q*r1
    a, b = f.numerator, f.denominator
    yield f, RationalFunction(p2 * b - a * r2, b * r2)
    yield RationalFunction(p1 * r2, q * r1), RationalFunction(p2 * r1, q * r2)


def test_sums_and_products_match_the_constructor_on_every_branch():
    """Henrici's sum and product against one reduction of the full
    fraction, which is in turn checked against sympy's cancel."""
    rng = random.Random(1717)
    seen = set()
    for _ in range(2):
        for f, g in _branch_pairs(rng):
            a, b = f.numerator, f.denominator
            c, d = g.numerator, g.denominator
            total = RationalFunction(a * d + c * b, b * d)
            product = RationalFunction(a * c, b * d)
            assert f + g == total
            assert f * g == product
            sf, sg = (to_sympy(h.numerator) / to_sympy(h.denominator)
                      for h in (f, g))
            assert to_sympy_rf(total) == sp.cancel(sf + sg)
            assert to_sympy_rf(product) == sp.cancel(sf * sg)
            # the branches the pair reaches
            gcd = poly_gcd(b, d)
            if b == d:
                seen.add("b == d")
            elif gcd.is_one():
                seen.add("g constant")
            else:
                t = (a * polynomials.exact_div(d, gcd)
                     + c * polynomials.exact_div(b, gcd))
                seen.add("t cancels g" if not poly_gcd(t, gcd).is_one()
                         else "t coprime to g")
            if not poly_gcd(a, d).is_one():
                seen.add("a cancels d")
            if not poly_gcd(c, b).is_one():
                seen.add("c cancels b")
    assert seen == {"b == d", "g constant", "t coprime to g", "t cancels g",
                    "a cancels d", "c cancels b"}


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
@pytest.mark.parametrize("zero_first", [True, False], ids=["zero-first",
                                                           "zero-second"])
def test_zero_from_another_field_is_refused(op, zero_first):
    zero = f_of("0")
    other = f_of("1/(z + 1)", XYZ)
    left, right = (zero, other) if zero_first else (other, zero)
    with pytest.raises(ValueError):
        {"+": operator.add, "-": operator.sub, "*": operator.mul,
         "/": operator.truediv}[op](left, right)


def test_polynomial_products_take_no_gcd(monkeypatch):
    calls = record_calls(monkeypatch, functions, "cofactors")
    one = Polynomial.one(XY)
    a = f_of("x^2 - 3*x*y + 1")
    c = f_of("(2*x*y - 4)/3")
    for f, g in [(a, c), (c, a), (a, a), (a, f_of("0")), (f_of("1"), c)]:
        calls.clear()
        product = f * g
        assert calls == []
        assert product.denominator.is_one()
        assert product == RationalFunction(f.numerator * g.numerator, one)
    # one returns the other factor, but only over the same variables
    p = Polynomial.variable("z", XYZ)
    assert one * a.numerator is a.numerator
    assert a.numerator * one is a.numerator
    with pytest.raises(ValueError):
        one * p
    with pytest.raises(ValueError):
        p * one
    with pytest.raises(ValueError):
        f_of("1") * f_of("z", XYZ)


def test_reduce_takes_no_exact_division(monkeypatch):
    divisions = record_calls(monkeypatch, polynomials, "exact_div")
    reductions = record_calls(monkeypatch, functions, "cofactors")
    f = f_of("(x + y)/(x^2 - 2*x*y)")
    g = f_of("(x - 2*y)/(x^2*y + 3*x)")
    # t = (x + y + 1)*(y + 2) + (x - y - 2)*(y + 1) vanishes at x = 0
    h1 = f_of("(x + y + 1)/(x*(y + 1))")
    h2 = f_of("(x - y - 2)/(x*(y + 2))")
    # same denominator, and a + c = 2*(x - 2*y)
    k = f_of("(x - 5*y)/(x^2 - 2*x*y)")
    images = {"x": f_of("x/(y + 1)"), "y": f_of("x*y")}
    for op in [lambda: f + g, lambda: f - g, lambda: f * g, lambda: f / g,
               lambda: h1 + h2, lambda: h1 - (-h2), lambda: f + k,
               lambda: f.substitute(images)]:
        divisions.clear()
        reductions.clear()
        op()
        # a nontrivial common factor is cancelled, from the cofactors alone
        assert any(not poly_gcd(num, den).is_one() for num, den in reductions)
        assert divisions == []
    assert (h1 + h2).denominator == f_of("(y + 1)*(y + 2)").numerator


# -- order and monomial-times-unit shape ----------------------------------------

@pytest.mark.parametrize("text, order", [
    ("x", 1),
    ("x*y + x^3", 2),
    ("(y + 1)/x", -1),
    ("(x^2 + x^3)/(y + 1)", 2),
    ("5", 0),
])
def test_ord_at_origin(text, order):
    assert ord_at_origin(f_of(text)) == order


def test_ord_at_origin_of_zero_rejected():
    with pytest.raises(ValueError):
        ord_at_origin(f_of("0"))


def test_monomial_unit_parts_splits_unit_factors():
    parts = monomial_unit_parts(f_of("(x^2*y + x^2)/(y + 2)"))
    assert parts is not None
    e, u, v = parts
    assert e == (2, 0)
    assert u == Polynomial(XY, {(0, 1): 1, (0, 0): 1})
    assert v == Polynomial(XY, {(0, 1): Fraction(1, 2), (0, 0): 1}).scale(2)


def test_monomial_unit_parts_none_when_not_monomial():
    assert monomial_unit_parts(f_of("x + y")) is None
    assert monomial_unit_parts(f_of("1/(x + y)")) is None


# -- printing --------------------------------------------------------------------

@pytest.mark.parametrize("text, shown", [
    ("y/x", "y/x"),
    ("(y + 1)/x", "(y + 1)/x"),
    ("(y - x)/x^2", "(-x + y)/x^2"),
    ("x*y", "x*y"),
    ("1/(x + y)", "1/(x + y)"),
    ("1/(x*y)", "1/(x*y)"),
    ("x/(2*y)", "1/2*x/y"),
])
def test_str_forms(text, shown):
    assert str(f_of(text)) == shown


def test_str_parses_back():
    rng = random.Random(808)
    for _ in range(30):
        f = random_rf(rng, XYZ)
        assert parse_expr(str(f), XYZ) == f
