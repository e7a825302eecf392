"""Sparse polynomial arithmetic checked against sympy as an oracle.

Randomized cases use a fixed seed so failures are reproducible; hand cases
freeze the behavior the rest of the package leans on (orders, monomial
extraction, substitution).
"""

from __future__ import annotations

import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
import sympy as sp

from lqt import (Directive, Polynomial, RationalFunction, exact_div,
                 poly_gcd, polynomials)
from lqt.polynomials import cofactors, pow_terms, substitute_terms
from helpers import (XY, XYZ, divides, random_poly, record_calls, rename,
                     to_sympy, to_sympy_rf)


# -- construction and normalization -----------------------------------------

def test_zero_coefficients_are_dropped():
    p = Polynomial(XY, {(1, 0): 1, (0, 1): 0})
    assert p == Polynomial.variable("x", XY)
    assert len(p.terms) == 1


def test_mismatched_exponent_width_rejected():
    with pytest.raises(ValueError):
        Polynomial(XY, {(1, 0, 0): 1})


def test_equality_and_hash_by_value():
    a = Polynomial(XY, {(1, 1): Fraction(2)})
    b = Polynomial.monomial((1, 1), XY, 2)
    assert a == b
    assert hash(a) == hash(b)


def test_immutability():
    p = Polynomial.one(XY)
    with pytest.raises(AttributeError):
        p.terms = {}


# -- arithmetic against sympy ------------------------------------------------

def test_arithmetic_matches_sympy():
    rng = random.Random(101)
    for _ in range(60):
        a = random_poly(rng, XYZ)
        b = random_poly(rng, XYZ)
        assert to_sympy(a + b) == sp.expand(to_sympy(a) + to_sympy(b))
        assert to_sympy(a - b) == sp.expand(to_sympy(a) - to_sympy(b))
        assert to_sympy(a * b) == sp.expand(to_sympy(a) * to_sympy(b))
    a = random_poly(rng, XY)
    assert to_sympy(a**3) == sp.expand(to_sympy(a) ** 3)


def test_power_cases():
    x = Polynomial.variable("x", XY)
    assert x**0 == Polynomial.one(XY)
    with pytest.raises(ValueError):
        x ** (-1)
    # monomial powers, by exponents alone, against repeated products
    for m in [x.scale(-3), Polynomial(XY, {(2, 1): Fraction(-2, 3)})]:
        power = Polynomial.one(XY)
        for n in range(6):
            assert m ** n == power
            power = power * m
    assert (x + x * x) ** 3 == (x + x * x) * (x + x * x) * (x + x * x)
    # a term map of several terms, or zero, has no negative power
    for terms in [(x + x * x).terms, {}]:
        with pytest.raises(ValueError, match="negative power of zero or"):
            pow_terms(terms, -2, (0, 0))


# -- degrees, orders and monomial shape --------------------------------------

def test_order_and_degree():
    p = Polynomial(XY, {(1, 1): 1, (3, 0): 2, (0, 4): -1})
    assert p.order() == 2
    assert p.degree_in(0) == 3
    assert p.degree_in(1) == 4


def test_order_of_zero_is_infinite_sentinel_free():
    with pytest.raises(ValueError):
        Polynomial.zero(XY).order()


def test_min_exponents_and_leading():
    p = Polynomial(XY, {(2, 1): 3, (1, 2): -1})
    assert p.min_exponents() == (1, 1)
    assert p.leading() == ((2, 1), Fraction(3))


def test_zero_has_no_min_exponents():
    with pytest.raises(ValueError, match="zero polynomial has no exponents"):
        Polynomial.zero(XY).min_exponents()


def test_zero_has_no_leading_term():
    with pytest.raises(ValueError,
                       match="zero polynomial has no leading term"):
        Polynomial.zero(XY).leading()


def test_unit_at_origin():
    assert Polynomial(XY, {(0, 0): 2, (1, 0): 1}).is_unit_at_origin()
    assert not Polynomial.variable("x", XY).is_unit_at_origin()
    assert not Polynomial.zero(XY).is_unit_at_origin()


# -- substitution -------------------------------------------------------------

def test_substitute_requires_every_variable():
    p = Polynomial.variable("x", XY)
    with pytest.raises(KeyError):
        p.substitute({"x": Polynomial.one(XY)})


def test_substitute_terms_refuses_images_over_another_ring():
    x = Polynomial.variable("x", XY)
    with pytest.raises(ValueError, match="do not all live in the ring"):
        substitute_terms([x.terms.items()], [x, Polynomial.one(XYZ)], XY)


def test_substitute_matches_sympy():
    rng = random.Random(202)
    sx, sy = sp.symbols(XY)
    for _ in range(25):
        p = random_poly(rng, XY)
        gx = random_poly(rng, XY, max_terms=2, max_exp=2)
        gy = random_poly(rng, XY, max_terms=2, max_exp=2)
        got = p.substitute({"x": gx, "y": gy})
        want = sp.expand(to_sympy(p).subs({sx: to_sympy(gx), sy: to_sympy(gy)},
                                          simultaneous=True))
        assert to_sympy(got) == want


def _walk_step_images(rng: random.Random) -> list[tuple[Polynomial, ...]]:
    """Directive.images for every pivot over XYZ, each non-pivot coordinate
    translated or not: monomial and monomial-times-binomial images."""
    out = []
    for pivot in range(3):
        others = [j for j in range(3) if j != pivot]
        for chosen in ([], others[:1], others[1:], others):
            trans = [(j, Fraction(rng.choice([-2, -1, 1, 3]),
                                  rng.randint(1, 2))) for j in chosen]
            out.append(Directive(pivot, trans).images(XYZ))
    return out


def _image_of_each_shape(rng: random.Random) -> list[Polynomial]:
    c = Fraction(rng.choice([-3, -2, 2, 3]), rng.randint(1, 2))
    return [
        Polynomial.monomial(tuple(rng.randint(0, 2) for _ in XYZ), XYZ, c),
        Polynomial.constant(c, XYZ),
        Polynomial.one(XYZ),
        Polynomial.zero(XYZ),
        # a binomial with a monomial factor, and a general polynomial
        Polynomial(XYZ, {(1, 1, 0): c, (2, 0, 1): 1}),
        random_poly(rng, XYZ, max_terms=3, max_exp=2),
    ]


def _sympy_subs(p: Polynomial, images) -> sp.Expr:
    syms = sp.symbols(XYZ)
    return to_sympy(p).subs(dict(zip(syms, images)), simultaneous=True)


def test_substitute_matches_sympy_for_every_image_shape():
    rng = random.Random(212)
    # nine terms sharing y^2: one cofactor power spread over a whole group
    shared = Polynomial(XYZ, {(i, 2, k): i + k + 1
                              for i in range(3) for k in range(3)})
    polys = [shared] + [random_poly(rng, XYZ, max_terms=8, max_exp=4)
                        for _ in range(12)]
    cases = _walk_step_images(rng)
    for _ in range(40):
        shapes = _image_of_each_shape(rng)
        cases.append(tuple(rng.choice(shapes) for _ in XYZ))
    for images in cases:
        for p in (shared, rng.choice(polys)):
            got = p.substitute(dict(zip(XYZ, images)))
            want = sp.expand(_sympy_subs(p, [to_sympy(g) for g in images]))
            assert to_sympy(got) == want


def test_rational_substitute_matches_sympy_for_every_image_shape():
    rng = random.Random(213)
    fs = [RationalFunction(random_poly(rng, XYZ, max_terms=4, max_exp=2),
                           random_poly(rng, XYZ, max_terms=3, max_exp=2))
          for _ in range(6)]
    cases = [tuple(RationalFunction.from_polynomial(g) for g in images)
             for images in _walk_step_images(rng)]
    for _ in range(30):
        shapes = _image_of_each_shape(rng)
        cases.append(tuple(
            RationalFunction(rng.choice(shapes),
                             rng.choice([g for g in shapes if not g.is_zero()]))
            for _ in XYZ))
    raised = 0
    for images in cases:
        f = rng.choice(fs)
        want_num = _sympy_subs(f.numerator, [to_sympy_rf(g) for g in images])
        want_den = _sympy_subs(f.denominator, [to_sympy_rf(g) for g in images])
        if sp.cancel(want_den) == 0:
            raised += 1
            with pytest.raises(ZeroDivisionError):
                f.substitute(dict(zip(XYZ, images)))
            continue
        got = f.substitute(dict(zip(XYZ, images)))
        assert sp.cancel(to_sympy_rf(got) - want_num / want_den) == 0
    assert 0 < raised < len(cases)


def test_walk_step_substitution_takes_no_product_per_term(monkeypatch):
    # a 50-term polynomial through x -> x, y -> x*(y + 1), z -> x*z: only
    # the powers of the one binomial cofactor need polynomial products
    rng = random.Random(214)
    terms = {}
    while len(terms) < 50:
        terms[tuple(rng.randint(0, 6) for _ in XYZ)] = rng.randint(1, 9)
    p = Polynomial(XYZ, terms)
    images = dict(zip(XYZ, Directive(0, [(1, Fraction(1))]).images(XYZ)))
    want = sp.expand(_sympy_subs(p, [to_sympy(g) for g in images.values()]))
    calls = record_calls(monkeypatch, Polynomial, "__mul__")
    got = p.substitute(images)
    assert len(calls) <= p.degree_in(1)
    assert to_sympy(got) == want


def test_rename():
    p = Polynomial(XYZ, {(1, 0, 0): 1, (0, 0, 2): 3})
    assert str(rename(p, ("a", "b", "c"))) == "3*c^2 + a"


# -- exact division and gcd ---------------------------------------------------

def test_exact_div_roundtrip():
    rng = random.Random(303)
    for _ in range(40):
        a = random_poly(rng, XY)
        b = random_poly(rng, XY)
        if b.is_zero():
            continue
        assert exact_div(a * b, b) == a
        assert divides(b, a * b)


def test_exact_div_failure_returns_none():
    x = Polynomial.variable("x", XY)
    y = Polynomial.variable("y", XY)
    assert exact_div(x, y) is None
    assert exact_div(x + y, x) is None
    assert not divides(y, x)


def test_exact_div_of_zero_and_by_zero():
    x = Polynomial.variable("x", XY)
    zero = Polynomial.zero(XY)
    assert exact_div(zero, x) == zero
    with pytest.raises(ZeroDivisionError, match="zero polynomial"):
        exact_div(x, zero)


def _gcd_pairs() -> list[tuple[Polynomial, Polynomial]]:
    rng = random.Random(404)
    pairs = []
    for _ in range(20):
        a = random_poly(rng, XYZ, max_terms=3, max_exp=2)
        b = random_poly(rng, XYZ, max_terms=3, max_exp=2)
        c = random_poly(rng, XYZ, max_terms=2, max_exp=1)
        pairs.append((a * c, b * c))
    x, y, z = (Polynomial.variable(v, XYZ) for v in XYZ)
    one = Polynomial.one(XYZ)
    pairs += [
        # a gcd lying only in the content of one variable, either way round
        ((y + one) * (x + y), (y + one) * (x - y)),
        ((x + one) * (x + y), (x + one) * (y - x)),
        ((z - one) * (x * y + one), (z - one) * (x - y) * (z + one)),
        # polynomials in z alone
        ((z + one) ** 2 * (z - one), (z + one) * (z * z + one)),
        ((z ** 3).scale(2) - one, z * z + z),
        # rational coefficients with different integer contents
        (((x + y) * (z + one)).scale(Fraction(6, 5)),
         ((x + y) * (x - z)).scale(Fraction(-10, 21))),
        ((x.scale(Fraction(4, 3)) + y.scale(6)) * (y - z),
         (x.scale(9) + y.scale(Fraction(3, 2))) * (y - z)),
        # a common monomial factor around a nontrivial gcd
        (x * x * y * (x + z), x * y ** 3 * (x + z) * (y + one)),
    ]
    # numerator and denominator of f + g for f = a/b, g = c/d with two- or
    # three-term numerators and two-term denominators, exponents up to 2,
    # with and without a shared denominator
    for variables in (XY, XYZ):
        exponents = list(itertools.product(range(3), repeat=len(variables)))

        def shaped(count):
            return Polynomial(variables, {
                e: Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]),
                            rng.randint(1, 3))
                for e in rng.sample(exponents, count)})

        for shared in (False, True):
            for _ in range(3):
                a, c = shaped(rng.randint(2, 3)), shaped(rng.randint(2, 3))
                b, d = shaped(2), shaped(2)
                if shared:
                    d = b
                pairs.append((a * d + c * b, b * d))
    return pairs


def _assert_sympy_associate(g: Polynomial, p: Polynomial, q: Polynomial):
    syms = sp.symbols(p.variables)
    want = sp.gcd(to_sympy(p), to_sympy(q), *syms)
    quot, rem = sp.div(to_sympy(g), want, *syms)
    assert rem == 0 and quot.is_constant()


def test_gcd_matches_sympy_up_to_associates():
    for p, q in _gcd_pairs():
        g = poly_gcd(p, q)
        assert divides(g, p)
        assert divides(g, q)
        _assert_sympy_associate(g, p, q)


def test_cofactors_match_sympy():
    x, y = (Polynomial.variable(v, XY) for v in XY)
    zero, one = Polynomial.zero(XY), Polynomial.one(XY)
    shortcuts = [
        (zero, zero),
        (zero, x.scale(Fraction(-3, 2))),
        ((x + y).scale(3), zero),
        ((x * y - one).scale(Fraction(2, 7)),) * 2,
        (one.scale(Fraction(5, 3)), x + y),
        (x * x + y, one.scale(-2)),
        # a monomial once the common monomial is stripped
        ((x * y ** 2).scale(4), x * x * y * (x + y)),
        (x * (y - one), (x ** 3 * y).scale(Fraction(-1, 2))),
        # a common monomial factor around coprime stripped parts
        (x * y * (x + one), (y * y * (y - x)).scale(6)),
    ]
    for p, q in _gcd_pairs() + shortcuts:
        g, cp, cq = cofactors(p, q)
        assert g * cp == p
        assert g * cq == q
        assert g == poly_gcd(p, q)
        if p.is_zero() and q.is_zero():
            assert g.is_zero()
            continue
        assert g.leading()[1] == 1
        _assert_sympy_associate(g, p, q)


def _doubt_every_pair(monkeypatch):
    # coprime pairs mostly stop at the certificate, so without it every
    # pair reaches the subresultant sequence again
    monkeypatch.setattr(polynomials, "_coprime", lambda ta, tb: False)


def test_subresultant_gcd_matches_sympy_up_to_associates(monkeypatch):
    _doubt_every_pair(monkeypatch)
    test_gcd_matches_sympy_up_to_associates()


def test_subresultant_cofactors_match_sympy(monkeypatch):
    _doubt_every_pair(monkeypatch)
    test_cofactors_match_sympy()


def _doubted_coprime_pairs() -> list[tuple[Polynomial, Polynomial]]:
    x, y = (Polynomial.variable(v, XY) for v in XY)
    one = Polynomial.one(XY)
    at_y = one.scale(polynomials._point(1))
    return [
        # lc_x = y - at_y vanishes at the point, so the image drops a degree
        ((y - at_y) * x + one, x + y),
        # 1/(2^61 - 1) has no residue modulo the prime
        (x * y + one.scale(Fraction(1, polynomials._P)), x + y),
        # an unlucky point: x - y and x - at_y share the image x - at_y
        (x - y, x - at_y),
    ]


@pytest.mark.parametrize("row", range(3),
                         ids=["degree-drops", "denominator", "image-gcd"])
def test_a_doubted_certificate_falls_through_to_the_subresultant_gcd(
        monkeypatch, row):
    p, q = _doubted_coprime_pairs()[row]
    assert not polynomials._coprime(p.terms, q.terms)
    calls = record_calls(monkeypatch, polynomials, "_gcd")
    assert cofactors(p, q) == (Polynomial.one(XY), p, q)
    assert calls
    _assert_sympy_associate(Polynomial.one(XY), p, q)


def test_coprime_dense_powers_never_reach_the_subresultant_gcd(monkeypatch):
    x, y = (Polynomial.variable(v, XY) for v in XY)
    one = Polynomial.one(XY)
    p, q = (x - y + one) ** 20, (x + y + one) ** 20
    calls = record_calls(monkeypatch, polynomials, "_gcd")
    assert cofactors(p, q) == (one, p, q)
    assert calls == []


def test_the_certificate_keeps_sparse_images():
    # a dense image of x^400000 + 1 would hold 400,001 residues
    x = Polynomial.variable("x", XY)
    one = Polynomial.one(XY)
    p, q = x ** 400000 + one, x + one.scale(2)
    tracemalloc.start()
    try:
        g = cofactors(p, q)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == one
    assert peak < 1 << 20


@pytest.mark.parametrize("exponent", [400000, 99999999999])
def test_the_certificate_squares_its_way_down_huge_sparse_degrees(
        monkeypatch, exponent):
    # the division loop takes one step per degree of x^exponent
    x, y = (Polynomial.variable(v, XY) for v in XY)
    p, q = x ** exponent + y, x + y
    squarings = record_calls(monkeypatch, polynomials, "_rem_by_squaring")
    start = time.perf_counter()
    assert polynomials._coprime(p.terms, q.terms)
    assert time.perf_counter() - start < 1
    assert squarings


def test_gcd_takes_contents_without_reentering_poly_gcd(monkeypatch):
    from lqt import polynomials
    calls = record_calls(monkeypatch, polynomials, "poly_gcd")
    x, y, z = (Polynomial.variable(v, XYZ) for v in XYZ)
    one = Polynomial.one(XYZ)
    common = (y + one) * (x + y * z)
    # each input has a content in y and z when read as a polynomial in x
    p = common * (z - one.scale(2)) * (x - one)
    q = common * (z + one.scale(3)) * (x * z + one)
    assert polynomials.poly_gcd(p, q) == common
    assert len(calls) == 1


def test_the_shared_nested_one_stays_one():
    # every level's one is a single shared value, which no gcd, cofactor
    # or power step may change in place
    from lqt.polynomials import _one, _pow
    for p, q in _gcd_pairs():
        cofactors(p, q)
    assert _pow({1: 2, 0: -1}, 0, 1) is _one(1)
    fresh = 1
    for k in range(4):
        assert _one(k) == fresh
        fresh = {0: fresh}


def test_gcd_edge_cases():
    x = Polynomial.variable("x", XY)
    zero = Polynomial.zero(XY)
    assert poly_gcd(zero, x) == x
    assert poly_gcd(x, zero) == x
    assert poly_gcd(x, Polynomial.one(XY)).is_constant()


# -- printing -----------------------------------------------------------------

def test_str_is_grlex_descending():
    p = Polynomial(XY, {(0, 0): -1, (1, 0): 1, (1, 2): Fraction(1, 2)})
    assert str(p) == "1/2*x*y^2 + x - 1"
    assert str(Polynomial.zero(XY)) == "0"
