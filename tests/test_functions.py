"""Rational function field arithmetic, canonical form and printing.

Canonical form means numerator and denominator are coprime and the
denominator is monic in the grlex-leading coefficient; equality and hashing
rely on it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy as sp

from lqt import (Polynomial, RationalFunction, functions, monomial_unit_parts,
                 ord_at_origin, parse_expr, poly_gcd)
from helpers import XY, XYZ, random_rf, to_sympy, to_sympy_rf


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
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(functions, "poly_gcd", counted)
    f = f_of("(x + y)/(x - 2*y)")
    g = f_of("(x^2 + 1)/(x*y + 3)")
    images = {"x": f_of("x/(y + 1)"), "y": f_of("(x - y)/(x + 2)")}
    once = [lambda: f + g, lambda: f - g, lambda: f * g, lambda: f / g,
            lambda: f.substitute(images)]
    for op in once:
        calls.clear()
        op()
        assert len(calls) == 1
    never = [lambda: -f, lambda: f.inverse(), lambda: f ** 3,
             lambda: f ** -2, lambda: f.scale(3)]
    for op in never:
        calls.clear()
        op()
        assert calls == []


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
    ("x/(2*y)", "1/2*x/y"),
])
def test_str_forms(text, shown):
    assert str(f_of(text)) == shown


def test_str_parses_back():
    rng = random.Random(808)
    for _ in range(30):
        f = random_rf(rng, XYZ)
        assert parse_expr(str(f), XYZ) == f
