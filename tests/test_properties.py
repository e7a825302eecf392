"""Property tests: algebraic laws the exact arithmetic must satisfy on any
input, checked over small random elements."""

import contextlib
import math
from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
import pytest
import sympy as sp
from hypothesis import assume, given, settings

from lqt import (Directive, GeometricGaps, NEG_INF, POS_INF, ParseError,
                 PeriodicCoefficients, Polynomial, ProgramConsistencyError,
                 ProgramStep, RationalFunction, SeriesDVR, ValuationProgram,
                 exact_div, functions, parse_expr, poly_gcd, series_value)
from lqt.polynomials import (_P, _coprime, _rem_by_squaring, _rem_mod,
                             cofactors, coefficient, mul_terms, pow_terms)
from lqt.series import _evaluate_truncated
from helpers import (XY, XYZ, divides, evaluate_tree, ord_at_origin,
                     render_tree, to_sympy, two_loop_next_values)

F = Fraction

coefficients = st.fractions(
    min_value=-4, max_value=4, max_denominator=3).filter(lambda c: c != 0)
exponent_pairs = st.tuples(st.integers(0, 3), st.integers(0, 3))

polynomials = st.dictionaries(
    exponent_pairs, coefficients, max_size=3).map(lambda t: Polynomial(XY, t))
nonzero_polynomials = polynomials.filter(lambda p: not p.is_zero())

# Field operations canonicalize through gcds, so the element strategies stay
# a notch smaller than the raw polynomial ones.
small_pairs = st.tuples(st.integers(0, 2), st.integers(0, 2))
small_polynomials = st.dictionaries(
    small_pairs, coefficients, max_size=2).map(lambda t: Polynomial(XY, t))
small_nonzero = small_polynomials.filter(lambda p: not p.is_zero())

elements = st.builds(RationalFunction, small_polynomials, small_nonzero)
nonzero_elements = st.builds(RationalFunction, small_nonzero, small_nonzero)


# -- ring and field laws --------------------------------------------------------------

@settings(deadline=None)
@given(polynomials, polynomials, polynomials)
def test_polynomial_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + (-a)).is_zero()
    assert a * Polynomial.one(XY) == a


@settings(deadline=None, max_examples=50)
@given(nonzero_elements, nonzero_elements)
def test_field_laws(f, g):
    assert f * f.inverse() == RationalFunction.constant(1, XY)
    assert (f / g) * g == f
    assert (f + g) - g == f


# -- gcd and divisibility -------------------------------------------------------------

@settings(deadline=None)
@given(nonzero_polynomials, nonzero_polynomials)
def test_gcd_divides_and_leaves_coprime_parts(a, b):
    g = poly_gcd(a, b)
    assert divides(g, a)
    assert divides(g, b)
    assert poly_gcd(exact_div(a, g), exact_div(b, g)).is_one()
    assert poly_gcd(a, b) == poly_gcd(b, a)
    h, ca, cb = cofactors(a, b)
    assert h == g and h.leading()[1] == 1
    assert g * ca == a and g * cb == b
    assert cofactors(b, a) == (g, cb, ca)


@settings(deadline=None)
@given(nonzero_polynomials, nonzero_polynomials)
def test_the_coprimality_certificate_is_sound(a, b):
    if _coprime(a.terms, b.terms):
        gcd = sp.gcd(to_sympy(a), to_sympy(b), *sp.symbols(XY))
        assert not gcd.free_symbols


@settings(deadline=None)
@given(nonzero_polynomials.filter(lambda g: not g.is_constant()),
       nonzero_polynomials, nonzero_polynomials)
def test_the_certificate_never_passes_a_shared_factor(g, a, b):
    assert not _coprime((g * a).terms, (g * b).terms)


def _monic_mod_p(r: dict[int, int]) -> dict[int, int]:
    if not r:
        return r
    inv = pow(r[max(r)], -1, _P)
    return {d: c * inv % _P for d, c in r.items()}


residues = st.integers(1, _P - 1)


@settings(deadline=None)
@given(st.dictionaries(st.integers(0, 6), residues, min_size=1, max_size=4),
       st.data())
def test_remainders_by_squaring_match_the_division_loop(b, data):
    # degrees low enough that _rem_mod keeps its loop
    top = 64 * (max(b) + 1)
    r = data.draw(st.dictionaries(st.integers(0, top), residues, min_size=1,
                                  max_size=6))
    with mock.patch("lqt.polynomials._rem_by_squaring") as fast:
        looped = _rem_mod(dict(r), b)
    fast.assert_not_called()
    squared = _rem_by_squaring(dict(r), b)
    assert max(squared, default=-1) < max(b)
    assert _monic_mod_p(squared) == _monic_mod_p(looped)


@settings(deadline=None)
@given(nonzero_polynomials, nonzero_polynomials)
def test_exact_division_undoes_multiplication(a, b):
    assert exact_div(a * b, b) == a


@settings(deadline=None)
@given(polynomials, nonzero_polynomials)
def test_canonical_form_is_coprime_with_monic_denominator(num, den):
    f = RationalFunction(num, den)
    if f.is_zero():
        assert f.denominator.is_one()
        return
    assert poly_gcd(f.numerator, f.denominator).is_one()
    assert f.denominator.leading()[1] == 1


# -- coefficient representation -------------------------------------------------------

def _is_coefficient(c) -> bool:
    """An int, or a Fraction that is not whole: never a float."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def _polynomials_of(*values):
    for v in values:
        if isinstance(v, RationalFunction):
            yield v.numerator
            yield v.denominator
        else:
            yield v


@settings(deadline=None, max_examples=50)
@given(elements, nonzero_elements, nonzero_polynomials, nonzero_polynomials,
       coefficients, st.integers(-2, 2),
       st.lists(coefficients, min_size=1, max_size=3))
def test_coefficients_are_ints_when_whole(two_var, f, g, a, b, c, n, cycle):
    x, y = (RationalFunction.variable(v, XY) for v in XY)
    shift = {"x": x, "y": x * (y + RationalFunction.constant(c, XY))}
    state = two_var.initial_state(g)
    state = two_var.advance_state(two_var.advance_state(state, 1), 2)
    polys = list(_polynomials_of(
        f + g, f - g, f * g, f / g, g ** n, f.substitute(shift),
        parse_expr(str(f), XY), a + b, a - b, a * b, a ** 2,
        a.scale(c), a.scale(1 / c), a.substitute({"x": a, "y": b}),
        *cofactors(a, b), *cofactors(a, a), *cofactors(a, a.scale(c)),
        *cofactors(a, Polynomial.zero(XY)), exact_div(a * b, b),
        state.num, state.den))
    for p in polys:
        assert all(_is_coefficient(k) for k in p.terms.values()), p.terms
    dvr = SeriesDVR(XY, PeriodicCoefficients(cycle))
    truncated = _evaluate_truncated(a, dvr, 6)
    assert all(_is_coefficient(k) for k in truncated.values()), truncated


# Laurent term maps over XY and XYZ, with the exponents of a constant
term_maps = st.sampled_from([2, 3]).flatmap(lambda k: st.tuples(
    st.just((0,) * k),
    st.dictionaries(st.tuples(*[st.integers(-2, 3)] * k),
                    coefficients.map(coefficient), max_size=4)))


@settings(deadline=None)
@given(term_maps, st.integers(0, 6), st.integers(-4, -1))
def test_term_map_powers_are_repeated_products(case, n, m):
    """pow_terms(a, n) is n products from {one: 1} with whole coefficients
    ints, and leaves a as it was; for one term, a negative power inverts
    the positive one."""
    one, a = case
    before = dict(a)
    expected = {one: 1}
    for _ in range(n):
        expected = mul_terms(expected, a)
    power = pow_terms(a, n, one)
    assert power == expected
    assert all(_is_coefficient(k) for k in power.values()), power
    assert a == before
    if len(a) == 1:
        inverse = pow_terms(a, m, one)
        assert all(_is_coefficient(k) for k in inverse.values()), inverse
        assert mul_terms(inverse, pow_terms(a, -m, one)) == {one: 1}


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError, match="float coefficient"):
        Polynomial(XY, {(1, 0): 0.5})
    with pytest.raises(TypeError, match="float coefficient"):
        Polynomial.one(XY).scale(1 / 3)
    assert Polynomial.constant(F(6, 3), XY).terms == {(0, 0): 2}
    assert type(Polynomial.constant(F(6, 3), XY).terms[(0, 0)]) is int


# -- parser ---------------------------------------------------------------------------

@settings(deadline=None)
@given(elements)
def test_printed_elements_parse_back(f):
    assert parse_expr(str(f), XY) == f


# -- orders ---------------------------------------------------------------------------

@settings(deadline=None)
@given(nonzero_elements, nonzero_elements)
def test_order_is_additive_on_products(f, g):
    assert ord_at_origin(f * g) == ord_at_origin(f) + ord_at_origin(g)


@settings(deadline=None, max_examples=40)
@given(nonzero_elements, nonzero_elements, st.integers(0, 3))
def test_stage_orders_are_additive(two_var, f, g, n):
    assert two_var.ord_at(f * g, n) == (two_var.ord_at(f, n)
                                        + two_var.ord_at(g, n))


# -- single transform steps -----------------------------------------------------------

translation_constants = st.fractions(
    min_value=-2, max_value=2, max_denominator=2)


@settings(deadline=None, max_examples=40)
@given(nonzero_elements, st.integers(0, 1), translation_constants)
def test_single_step_substitution_is_invertible(f, pivot, c):
    directive = Directive(pivot, [(1 - pivot, c)] if c else ())
    pivot_el = RationalFunction.variable(XY[directive.pivot], XY)
    other = XY[1 - directive.pivot]
    other_el = RationalFunction.variable(other, XY)
    shift = RationalFunction.constant(c, XY)
    forward = {XY[directive.pivot]: pivot_el,
               other: other_el / pivot_el - shift}
    backward = {XY[directive.pivot]: pivot_el,
                other: pivot_el * (other_el + shift)}
    assert f.substitute(backward).substitute(forward) == f


# -- membership and values ------------------------------------------------------------

small_powers = st.tuples(st.integers(0, 2), st.integers(0, 2),
                         st.integers(0, 2)).filter(lambda t: any(t))


def resolved_element(powers: tuple[int, int, int]) -> RationalFunction:
    i, j, k = powers
    x = RationalFunction.variable("x", XY)
    y = RationalFunction.variable("y", XY)
    return x**i * y**j * (y - x)**k


@settings(deadline=None, max_examples=40)
@given(small_powers, small_powers)
def test_values_are_additive_on_products(two_var, a, b):
    f, g = resolved_element(a), resolved_element(b)
    vf, _ = two_var.value_of(f)
    vg, _ = two_var.value_of(g)
    vfg, _ = two_var.value_of(f * g)
    assert vfg == vf + vg


@settings(deadline=None, max_examples=40)
@given(small_powers, small_powers)
def test_values_are_ultrametric_on_sums(two_var, a, b):
    assume(a != b)
    f, g = resolved_element(a), resolved_element(b)
    s = f + g
    assume(not s.is_zero())
    vf, _ = two_var.value_of(f)
    vg, _ = two_var.value_of(g)
    resolved = two_var.value_of(s, budget=12)
    assume(resolved is not None)
    vs, _ = resolved
    assert vs >= min(vf, vg)
    if vf != vg:
        assert vs == min(vf, vg)


@settings(deadline=None, max_examples=30)
@given(st.dictionaries(exponent_pairs, coefficients, min_size=1, max_size=2),
       st.integers(0, 1), st.integers(0, 1))
def test_membership_never_retracts(two_var, terms, a, b):
    num = Polynomial(XY, terms)
    assume(not num.is_zero())
    den = Polynomial(XY, {(a, b): F(1)})
    f = RationalFunction(num, den)
    verdict = two_var.member(f, budget=6)
    assume(verdict.decided)
    for n in range(verdict.stage, verdict.stage + 4):
        assert two_var.state_at(f, n).in_ring()


# -- integer stages against Fraction steps ---------------------------------------------

stage_values = st.sampled_from([F(1, 2), F(2, 3), 1, F(5, 6), F(3, 2), 2])
step_factors = st.sampled_from([F(2, 3), F(3, 2), F(1, 2), 1, 2, F(4, 9)])


def _consistency_outcome(call):
    """The result of call, or the message, stage and coordinate of the
    consistency error it raises."""
    try:
        return call()
    except ProgramConsistencyError as exc:
        return str(exc), exc.stage, exc.coordinate


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_integer_stages_match_fraction_steps(data):
    """A program's scaled stages, read out, are the values the two-loop
    step gives on Fractions, and fail with the same error at the same
    stage; every stage stays reduced.  Steps mostly pivot on a minimal
    coordinate and translate those sharing its value, so walks run long
    enough for the denominator to grow and shrink; now and then a step
    ignores the values, which a later stage must refuse."""
    dim = data.draw(st.integers(2, 3))
    bases = XYZ[:dim]
    values = tuple(data.draw(stage_values) for _ in range(dim))
    initial, steps, expected = values, [], [values]
    for stage in range(1, 13):
        if data.draw(st.integers(0, 9)):
            pivot = data.draw(st.sampled_from(
                [j for j in range(dim) if values[j] == min(values)]))
            shared = [j for j in range(dim)
                      if j != pivot and values[j] == values[pivot]]
        else:
            pivot = data.draw(st.integers(0, dim - 1))
            shared = data.draw(st.lists(
                st.sampled_from([j for j in range(dim) if j != pivot]),
                unique=True))
        steps.append(ProgramStep(pivot, [(j, 1, data.draw(step_factors))
                                         for j in shared]))
        values = _consistency_outcome(
            lambda: two_loop_next_values(steps[-1], values, stage, bases))
        expected.append(values)
        if type(values[0]) is str:
            break
    program = ValuationProgram(bases, initial, steps[:-1], steps[-1:])
    for n, want in enumerate(expected):
        assert _consistency_outcome(lambda: program.value_vector_at(n)) \
            == want, n
        if type(want[0]) is not str:
            nums, den = program.scaled_vector_at(n)
            assert den > 0 and math.gcd(den, *nums) == 1, (n, nums, den)


# -- series values --------------------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(nonzero_elements, nonzero_elements)
def test_series_value_is_additive_on_products(f, g):
    dvr = SeriesDVR(XY, GeometricGaps(2))
    vf = series_value(dvr, f)
    vg = series_value(dvr, g)
    vfg = series_value(dvr, f * g)
    assume(vf is not None and vg is not None)
    assert vfg == vf + vg


@settings(deadline=None, max_examples=40)
@given(nonzero_elements, nonzero_elements)
def test_series_value_is_ultrametric_on_sums(f, g):
    dvr = SeriesDVR(XY, GeometricGaps(2))
    s = f + g
    assume(not s.is_zero())
    vf = series_value(dvr, f)
    vg = series_value(dvr, g)
    vs = series_value(dvr, s)
    assume(vf is not None and vg is not None and vs is not None)
    assert vs >= min(vf, vg)
    if vf != vg:
        assert vs == min(vf, vg)


# -- the parser against field operations ------------------------------------------------

def _neg(t):
    return st.tuples(st.just("neg"), t)


def _binary(ops, a, b):
    return st.tuples(st.sampled_from(ops), a, b)


def _expression_trees(variables, laurent: bool):
    """Trees over the ints 0..9 and the variables with unary minus, + - * /
    and exponents -3..4 (see `helpers.render_tree`).  A power's base holds
    no power of several terms and at most three leaves, which keeps every
    value far inside the parser's caps.  When laurent is set, every divisor
    and every base of a negative power is a monomial, so the value stays a
    Laurent term map from start to end; otherwise divisors, often sums, and
    negative powers of sums make it a fraction."""
    leaves = st.integers(0, 9) | st.sampled_from(variables)
    exponents = st.integers(-3, 4)
    monomials = st.recursive(
        leaves, lambda m: (_neg(m) | _binary("*/", m, m)
                           | st.tuples(st.just("^"), m, exponents)),
        max_leaves=3)
    sum_exponents = st.integers(0, 4) if laurent else exponents

    def operations(t):
        divisors = monomials if laurent else _binary("+-", t, t) | t
        return (_neg(t) | _binary("+-*", t, t)
                | st.tuples(st.just("/"), t, divisors))

    flat = st.recursive(monomials, operations, max_leaves=3)
    atoms = monomials | st.tuples(st.just("^"), flat, sum_exponents)
    trees = st.recursive(atoms, operations, max_leaves=4)
    return st.tuples(st.just(variables), trees)


def _parse_and_evaluate(variables, tree, gcd_free: bool):
    """parse_expr of the rendered tree, checked against the tree's value by
    field operations; a ParseError exactly where the operations divide by
    zero.  When gcd_free is set, a gcd taken by the parse fails the test."""
    text = render_tree(tree)
    guard = (mock.patch.object(functions, "cofactors",
                               side_effect=AssertionError("gcd taken"))
             if gcd_free else contextlib.nullcontext())
    try:
        want = evaluate_tree(tree, variables)
    except ZeroDivisionError:
        with guard, pytest.raises(ParseError):
            parse_expr(text, variables)
        return
    with guard:
        got = parse_expr(text, variables)
    assert got == want, text
    for p in (got.numerator, got.denominator):
        assert all(type(c) is int or c.denominator > 1
                   for c in p.terms.values())


@settings(deadline=None, max_examples=80)
@given(_expression_trees(XY, laurent=True)
       | _expression_trees(XYZ, laurent=True))
def test_parse_of_laurent_trees_matches_field_operations(case):
    # these parses stay term maps until the end, which takes no gcd
    _parse_and_evaluate(*case, gcd_free=True)


@settings(deadline=None, max_examples=80)
@given(_expression_trees(XY, laurent=False)
       | _expression_trees(XYZ, laurent=False))
def test_parse_of_fraction_trees_matches_field_operations(case):
    _parse_and_evaluate(*case, gcd_free=False)


# -- infinite values ------------------------------------------------------------------

@given(st.fractions(min_value=-100, max_value=100, max_denominator=50))
def test_infinities_bound_every_fraction(q):
    assert NEG_INF < q < POS_INF
    assert q + POS_INF == POS_INF
    assert q + NEG_INF == NEG_INF
