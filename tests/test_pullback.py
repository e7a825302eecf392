"""Tests for pulling a quotient valuation back through a coordinate prime:
localization, residues, composite values, and lifted transform sequences."""

import random
from fractions import Fraction

import pytest

from lqt import (AnalysisSession, CompositeValue, CoordinatePrime, Directive,
                 FactorialGaps, GeometricGaps, LiftedTrace, POS_INF,
                 ProgramError, PullbackVerdict, RationalFunction, SeriesDVR,
                 composite_value, get_example, member_RP, member_pullback,
                 multiplicity_sequence, parse_program, quotient_value,
                 residue)
from helpers import (XY, XYZ, composite_by_field_arithmetic, in_prime,
                     induced_quotient_program, random_rf, record_calls,
                     stage_values)
from conftest import el_on

F = Fraction


@pytest.fixture(scope="module")
def prime_z() -> CoordinatePrime:
    return CoordinatePrime(XYZ, ("z",))


@pytest.fixture(scope="module")
def geometric_quotient() -> SeriesDVR:
    return SeriesDVR(XY, GeometricGaps(2))


def e3(text: str):
    return el_on(text, XYZ)


# -- the prime itself -----------------------------------------------------------------

def test_prime_shape(prime_z):
    assert prime_z.generators == ("z",)
    assert prime_z.indices == (2,)
    assert prime_z.residue_bases == ("x", "y")
    assert prime_z == CoordinatePrime(XYZ, ("z",))
    assert prime_z != CoordinatePrime(XYZ, ("y",))


def test_prime_validation():
    with pytest.raises(ValueError, match="needs a generator"):
        CoordinatePrime(XYZ, ())
    with pytest.raises(ValueError, match="not a variable"):
        CoordinatePrime(XYZ, ("w",))
    with pytest.raises(ValueError, match="duplicate prime generators"):
        CoordinatePrime(XYZ, ("z", "z"))
    with pytest.raises(ValueError, match="must be proper"):
        CoordinatePrime(XY, ("x", "y"))


def test_poly_order_counts_prime_factors(prime_z):
    assert prime_z.poly_order(e3("z^2*x + z^3").numerator) == 2
    assert prime_z.poly_order(e3("x + z").numerator) == 0
    assert prime_z.contains_poly(e3("x*z").numerator)
    assert not prime_z.contains_poly(e3("x").numerator)
    with pytest.raises(ValueError, match="order of zero"):
        prime_z.poly_order(e3("0").numerator)


def test_poly_order_sums_over_several_generators():
    prime = CoordinatePrime(XYZ, ("y", "z"))
    assert prime.poly_order(e3("y*z").numerator) == 2
    assert prime.poly_order(e3("x*y + z").numerator) == 1
    assert prime.residue_bases == ("x",)


# -- localization and residues --------------------------------------------------------

def test_member_RP(prime_z):
    assert member_RP(e3("x/(1 + z)"), prime_z)
    assert member_RP(e3("z^5"), prime_z)
    assert not member_RP(e3("x/z"), prime_z)
    assert not member_RP(e3("y/(z + z^2)"), prime_z)


def test_in_prime(prime_z):
    assert in_prime(e3("z/(1 + z)"), prime_z)
    assert in_prime(e3("0"), prime_z)
    assert not in_prime(e3("x + z"), prime_z)
    assert not in_prime(e3("1/z"), prime_z)


def test_residue_hand_cases(prime_z):
    assert residue(e3("x + z"), prime_z) == el_on("x", XY)
    assert residue(e3("(x + z)/(y - z)"), prime_z) == el_on("x/y", XY)
    assert residue(e3("x*z/y"), prime_z).is_zero()


def test_residue_sets_the_generators_to_zero(prime_z):
    """The residue map drops every term a generator divides and reads the
    rest over the residue variables, wherever the generators sit."""
    assert residue(e3("x + 3*z^2"), prime_z) == el_on("x", XY)
    assert residue(e3("x + 5*y^2"), prime_z) == el_on("x + 5*y^2", XY)
    prime_y = CoordinatePrime(XYZ, ("y",))
    assert residue(e3("2*x + 5*y^2 + 3*z^2"), prime_y) \
        == el_on("2*x + 3*z^2", ("x", "z"))


def test_residue_needs_a_local_element(prime_z):
    with pytest.raises(ValueError, match="no residue"):
        residue(e3("x/z"), prime_z)


def test_field_mismatch_is_rejected(prime_z):
    with pytest.raises(ValueError, match="does not live in the field"):
        member_RP(el_on("x", XY), prime_z)


# -- quotient values ------------------------------------------------------------------

def test_quotient_value_series(geometric_quotient):
    """A series quotient's values are whole, so they are ints."""
    for text, value in [("y - x", 2), ("1/x", -1)]:
        got = quotient_value(geometric_quotient, el_on(text, XY))
        assert (type(got), got) == (int, value)


def test_quotient_value_series_undecided():
    fac = SeriesDVR(XY, FactorialGaps())
    hard = el_on("(y - x - x^2 - x^6 - x^24 - x^120)^2", XY)
    assert quotient_value(fac, hard) is None


def test_quotient_value_program():
    program = get_example("ex3.7-2d").source
    assert quotient_value(program, el_on("y - x", XY)) == F(3, 2)
    assert quotient_value(program, el_on("y - x - x^2", XY), budget=1) is None


# -- pullback membership --------------------------------------------------------------

def test_pullback_rejects_nonlocal_denominator(prime_z, geometric_quotient):
    verdict = member_pullback(e3("x/z"), prime_z, geometric_quotient)
    assert verdict.status == "NotIn"
    assert "denominator lies in the prime" in verdict.detail


def test_pullback_accepts_zero_residue(prime_z, geometric_quotient):
    verdict = member_pullback(e3("z"), prime_z, geometric_quotient)
    assert verdict.status == "In"
    assert verdict.detail == "the residue is zero"


def test_pullback_accepts_nonnegative_residue_value(prime_z,
                                                    geometric_quotient):
    verdict = member_pullback(e3("y - x"), prime_z, geometric_quotient)
    assert verdict.status == "In"
    assert verdict.detail == "the residue has value 2"


def test_pullback_rejects_negative_residue_value(prime_z, geometric_quotient):
    verdict = member_pullback(e3("(y - x)/x^3"), prime_z, geometric_quotient)
    assert verdict.status == "NotIn"
    assert verdict.detail == "the residue has value -1"


def test_pullback_undecided_when_precision_runs_out(prime_z):
    fac = SeriesDVR(XY, FactorialGaps())
    hard = e3("(y - x - x^2 - x^6 - x^24 - x^120)^2")
    verdict = member_pullback(hard, prime_z, fac)
    assert verdict.status == "Undecided"
    assert not verdict.decided
    assert verdict.detail == (
        "no order of the residue was certified by series degree 1024, or a "
        "part of it vanishes on a rational series' curve")


def test_pullback_undecided_when_the_program_budget_runs_out(prime_z):
    program = get_example("ex3.7-2d").source
    verdict = member_pullback(e3("y - x"), prime_z, program, budget=0)
    assert verdict.status == "Undecided"
    assert verdict.detail == "the residue value did not resolve within budget"


def test_pullback_verdict_equality():
    assert PullbackVerdict("In", "one") == PullbackVerdict("In", "one")
    assert PullbackVerdict("In", "one") != PullbackVerdict("In", "two")
    assert PullbackVerdict("In") != PullbackVerdict("NotIn")


# -- composite values -----------------------------------------------------------------

def test_composite_value_hand_cases(prime_z, geometric_quotient):
    assert composite_value(e3("x + y"), prime_z, geometric_quotient) \
        == CompositeValue(0, F(1))
    assert composite_value(e3("z^2*(y - x)"), prime_z, geometric_quotient) \
        == CompositeValue(2, F(2))
    assert composite_value(e3("(y - x)/z"), prime_z, geometric_quotient) \
        == CompositeValue(-1, F(2))


def test_composite_value_builds_no_field_product(monkeypatch, prime_z,
                                                geometric_quotient):
    """The leading part along the prime is read off the terms, so no
    product, power or inverse of fractions is formed."""
    elements = [e3("z^2*(y - x)"), e3("(y - x)/z")]
    calls = [record_calls(monkeypatch, RationalFunction, name)
             for name in ("__mul__", "__pow__", "inverse")]
    for f in elements:
        composite_value(f, prime_z, geometric_quotient)
    assert calls == [[], [], []]


@pytest.mark.parametrize("name", ["ex5.3-shape", "nonarch2d"])
def test_composite_value_matches_field_arithmetic(name):
    """150 random elements per example, each times the generator to a
    power in -3..3, against the leading part found by field arithmetic."""
    example = get_example(name)
    prime, quotient = example.prime, example.quotient
    session = (None if isinstance(quotient, SeriesDVR)
               else AnalysisSession(quotient))
    gen = RationalFunction.variable(prime.generators[0], prime.bases)
    rng = random.Random(2017)
    for _ in range(150):
        f = random_rf(rng, prime.bases, 3, 2) * gen ** rng.randint(-3, 3)
        assert composite_value(f, prime, quotient, session=session) \
            == composite_by_field_arithmetic(f, prime, quotient, session), f


def test_composite_value_is_additive(prime_z, geometric_quotient):
    a = e3("z*(x + y)")
    b = e3("(y - x)/z^2")
    ca = composite_value(a, prime_z, geometric_quotient)
    cb = composite_value(b, prime_z, geometric_quotient)
    cab = composite_value(a * b, prime_z, geometric_quotient)
    assert cab.prime_order == ca.prime_order + cb.prime_order
    assert cab.residue_value == ca.residue_value + cb.residue_value


def test_composite_values_order_lexicographically():
    assert CompositeValue(0, F(5)) < CompositeValue(1, F(-3))
    assert CompositeValue(1, F(2)) < CompositeValue(1, F(3))
    undecided = CompositeValue(2, None)
    assert not undecided.decided
    assert repr(undecided) == "(2, ?)"
    with pytest.raises(ValueError, match="partially known"):
        undecided.sort_key()


def test_composite_value_input_checks(prime_z, geometric_quotient):
    with pytest.raises(ValueError, match="value of zero"):
        composite_value(e3("0"), prime_z, geometric_quotient)
    wide = CoordinatePrime(XYZ, ("y", "z"))
    with pytest.raises(ValueError, match="single-generator"):
        composite_value(e3("x"), wide, geometric_quotient)


# -- induced and lifted sequences -----------------------------------------------------

def test_induced_program_projects_to_the_residue_field(prime_z):
    ambient = get_example("ex3.7-3d").source
    induced = induced_quotient_program(ambient, prime_z)
    assert induced == get_example("ex3.7-2d").source


def test_induced_program_rejects_prime_pivots_and_translations():
    ambient = get_example("ex3.7-3d").source
    with pytest.raises(ProgramError,
                       match="period step 1 pivots x, which generates"):
        induced_quotient_program(ambient, CoordinatePrime(XYZ, ("x",)))
    with pytest.raises(ProgramError,
                       match="period step 1 translates y, which generates"):
        induced_quotient_program(ambient, CoordinatePrime(XYZ, ("y",)))


def test_induced_program_names_the_preperiod():
    text = ("[vars]\nx y\n[values]\nx = 1\ny = 1\n"
            "[preperiod]\npivot=y\n[period]\npivot=x\n")
    program = parse_program(text)
    with pytest.raises(ProgramError, match="preperiod step 1 pivots y"):
        induced_quotient_program(program, CoordinatePrime(XY, ("y",)))


def test_induced_program_checks_the_field():
    with pytest.raises(ProgramError, match="does not match the prime"):
        induced_quotient_program(get_example("ex3.7-2d").source,
                                 CoordinatePrime(XYZ, ("z",)))


def test_lifted_trace_carries_infinite_values():
    source = get_example("nonarch2d").source
    assert stage_values(source, 0) == (F(1), POS_INF)
    assert stage_values(source, 7) == (F(1), POS_INF)
    assert source.directive_at(1) == Directive(0)
    assert multiplicity_sequence(source, 4) == [F(1)] * 4


def test_lifted_trace_reindexes_directives():
    prime = CoordinatePrime(XYZ, ("y",))
    quotient = parse_program(
        "[vars]\nx z\n[values]\nx = 1\nz = 1\n"
        "[period]\npivot=x translate z:1->1/2\npivot=z\n")
    lifted = LiftedTrace(quotient, prime)
    assert lifted.bases == XYZ
    assert lifted.directive_at(1) == Directive(0, [(2, F(1))])
    assert lifted.directive_at(2) == Directive(2)
    assert stage_values(lifted, 0) == (F(1), POS_INF, F(1))
    # the quotient's numerators over its denominator, POS_INF on y
    assert lifted.scaled_vector_at(3) == ((2, POS_INF, 1), 4)
    assert stage_values(lifted, 3) == (F(1, 2), POS_INF, F(1, 4))


def test_lifted_series_trace(prime_z):
    lifted = LiftedTrace(SeriesDVR(XY, FactorialGaps()), prime_z)
    assert lifted.directive_at(1) == Directive(0, [(1, F(1))])
    assert stage_values(lifted, 2) == (F(1), F(4), POS_INF)
    assert multiplicity_sequence(lifted, 3) == [F(1)] * 3


@pytest.mark.parametrize("name", ["nonarch2d", "ex5.3-shape"])
def test_lifted_walks_refuse_negative_stages(name):
    """nonarch2d lifts a program walk and ex5.3-shape a series walk.  The
    refusal holds after later stages have been read."""
    lifted = get_example(name).source
    assert isinstance(lifted, LiftedTrace)
    lifted.scaled_vector_at(5)
    for n in (-1, -6):
        with pytest.raises(ValueError, match=f"^stage {n} out of range$"):
            lifted.scaled_vector_at(n)


def test_walks_build_each_distinct_step_once(monkeypatch):
    """A series walk keeps one step per distinct coefficient and a lifted
    walk one per distinct quotient step, however many stages are read.
    ex5.3-shape's series coefficients are 0 and 1 only."""
    source = get_example("ex5.3-shape").source
    built = record_calls(monkeypatch, Directive, "__init__")
    steps = {id(source.directive_at(n)) for n in range(1, 301)}
    assert len(steps) <= 2
    # the two lifted steps, and the two series steps they lift
    assert len(built) <= 4


def test_lift_checks_the_residue_field():
    prime = CoordinatePrime(XY, ("y",))
    with pytest.raises(ValueError, match="does not match the residue field"):
        LiftedTrace(get_example("ex3.7-2d").source, prime)


def test_membership_through_a_lifted_trace(prime_z):
    """The prime generator has infinite value, so dividing it by anything of
    finite value stays in the union; the reverse quotient never enters."""
    lifted = LiftedTrace(SeriesDVR(XY, FactorialGaps()), prime_z)
    session = AnalysisSession(lifted)
    assert session.member(e3("z/(y - x)")).stage == 2
    assert not session.member(e3("1/(y - x)"), budget=10).decided
