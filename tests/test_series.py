"""Tests for series-defined valuations: coefficient streams, exact values
with certified precision, and the induced transform sequence."""

from fractions import Fraction
from math import factorial
from unittest.mock import patch

import hypothesis.strategies as st
import pytest
import sympy as sp
from hypothesis import assume, given, settings

import lqt.series
from lqt import (AnalysisSession, CoefficientStream, Directive,
                 FactorialGaps, GeometricGaps, PeriodicCoefficients,
                 Polynomial, RationalFunction, SeriesDVR, StreamError,
                 multiplicity_sequence, parse_stream, series_value)
from helpers import XY, fuzz_texts, record_calls, stage_values
from conftest import el_on

F = Fraction


def geometric_dvr(base: int = 2) -> SeriesDVR:
    return SeriesDVR(XY, GeometricGaps(base))


def factorial_dvr() -> SeriesDVR:
    return SeriesDVR(XY, FactorialGaps())


# -- coefficient streams --------------------------------------------------------------

def test_geometric_gaps_support():
    s = GeometricGaps(2)
    assert [s.coefficient(i) for i in range(1, 9)] == [
        F(1), F(1), F(0), F(1), F(0), F(0), F(0), F(1)]
    assert s.next_nonzero(0) == 1
    assert s.next_nonzero(1) == 2
    assert s.next_nonzero(2) == 4
    assert s.next_nonzero(5) == 8
    assert s.describe() == "geometric(2)"


def test_geometric_gaps_base_check():
    with pytest.raises(StreamError, match="must be >= 2"):
        GeometricGaps(1)


def test_factorial_gaps_support():
    s = FactorialGaps()
    assert [i for i in range(1, 30) if s.coefficient(i) != 0] == [1, 2, 6, 24]
    assert s.next_nonzero(6) == 24
    assert s.next_nonzero(24) == 120
    assert s.describe() == "factorial"


def test_periodic_coefficients():
    s = PeriodicCoefficients([F(1), F(0), F(-1, 2)])
    assert [s.coefficient(i) for i in range(1, 7)] == [
        F(1), F(0), F(-1, 2), F(1), F(0), F(-1, 2)]
    assert s.coefficient(0) == 0
    assert s.next_nonzero(1) == 3
    assert s.next_nonzero(3) == 4
    assert s.describe() == "periodic(1,0,-1/2)"


def test_periodic_needs_a_nonzero_entry():
    with pytest.raises(StreamError, match="nonzero entry"):
        PeriodicCoefficients([F(0), F(0)])
    with pytest.raises(StreamError, match="nonzero entry"):
        PeriodicCoefficients([])


def test_truncate_collects_support_up_to_cap():
    s = GeometricGaps(2)
    assert s.truncate(8) == {1: F(1), 2: F(1), 4: F(1), 8: F(1)}
    assert s.truncate(3) == {1: F(1), 2: F(1)}


@pytest.mark.parametrize("stream", [
    GeometricGaps(2), GeometricGaps(3), FactorialGaps(),
    PeriodicCoefficients([F(0), F(1), F(0)]),
], ids=lambda s: s.describe())
def test_truncate_keys_rise(stream):
    """Horner's rule in _evaluate_truncated stops each row at the first
    exponent past the cap, so truncate must hand its keys out in order.
    The tracer wraps truncate where CoefficientStream defines it."""
    assert "truncate" in CoefficientStream.__dict__
    for cap in range(1, 65):
        keys = list(stream.truncate(cap))
        assert keys == sorted(keys)


def test_stream_equality_follows_description():
    assert GeometricGaps(2) == GeometricGaps(2)
    assert GeometricGaps(2) != GeometricGaps(3)
    assert hash(FactorialGaps()) == hash(FactorialGaps())


# -- stream parsing -------------------------------------------------------------------

def test_parse_stream_forms():
    assert parse_stream("factorial") == FactorialGaps()
    assert parse_stream("geometric(3)") == GeometricGaps(3)
    assert parse_stream(" periodic(1, 0, 2/3) ") == PeriodicCoefficients(
        [F(1), F(0), F(2, 3)])


@pytest.mark.parametrize("text, fragment", [
    ("geometric(2,3)", "exactly one argument"),
    ("geometric(x)", "bad geometric base"),
    ("geometric()", "geometric needs arguments"),
    ("periodic(1/0)", "bad periodic cycle"),
    ("waves", "unknown series form"),
])
def test_parse_stream_errors(text, fragment):
    with pytest.raises(StreamError, match=fragment.replace("(", "\\(")):
        parse_stream(text)


# the stream forms, their arguments and stray characters for the fuzz test,
# some arguments too large or wrong
_STREAM_SHAPES = st.sampled_from(["factorial", "geometric(3)",
                                  " periodic(1, 0, 2/3) ", "periodic(-1/2)"])
_STREAM_FRAGMENTS = ["factorial", "geometric", "periodic", "(", ")", ",", " ",
                     "0", "1", "-1", "2/3", "1/0", "0.5", "1e-3", "1e999999",
                     "9" * 1400, "9" * 5000, "x", "\u0663", "\u00e9", "\n"]


@settings(deadline=None, max_examples=200)
@given(fuzz_texts(_STREAM_SHAPES, _STREAM_FRAGMENTS))
def test_any_text_parses_to_a_stream_or_raises_stream_error(text):
    try:
        stream = parse_stream(text)
    except StreamError:
        return
    assert isinstance(stream, CoefficientStream)


# -- the valuation --------------------------------------------------------------------

def test_series_dvr_needs_two_variables():
    with pytest.raises(StreamError, match="exactly two variables"):
        SeriesDVR(("x",), GeometricGaps(2))
    with pytest.raises(StreamError, match="exactly two variables"):
        SeriesDVR(("x", "y", "z"), GeometricGaps(2))
    assert geometric_dvr().bases == XY


@pytest.mark.parametrize("text, want", [
    ("x", 1),
    ("y", 1),
    ("y - x", 2),
    ("y - x - x^2", 4),
    ("(y - x)/x^2", 0),
    ("1/(y - x)", -2),
    ("y^2", 2),
    ("1 + x", 0),
    ("5", 0),
    ("y^2 - x^2", 3),
])
def test_series_value_geometric_hand_values(text, want):
    dvr = geometric_dvr()
    assert series_value(dvr, el_on(text, XY)) == want


@pytest.mark.parametrize("text, want", [
    ("y - x", 2),
    ("y - x - x^2", 6),
    ("y - x - x^2 - x^6", 24),
    ("(y - x - x^2)/(y - x)", 4),
])
def test_series_value_factorial_hand_values(text, want):
    dvr = factorial_dvr()
    assert series_value(dvr, el_on(text, XY)) == want


def test_series_value_escalates_precision():
    """The value 24 lies past the first truncation, of degree 16: doubling
    reaches it, and a cap of 16 cannot."""
    dvr = factorial_dvr()
    f = el_on("y - x - x^2 - x^6", XY)
    with patch.object(lqt.series, "MAX_PRECISION", 16):
        assert series_value(dvr, f) is None
    assert series_value(dvr, f) == 24


def test_series_value_none_past_the_cap():
    """The first six series terms cancel, so the square has value 1440 and
    no truncation up to the cap can certify it."""
    dvr = factorial_dvr()
    g = el_on("y - x - x^2 - x^6 - x^24 - x^120", XY)
    assert series_value(dvr, g) == 720
    assert series_value(dvr, g * g) is None


def rational_dvr() -> SeriesDVR:
    """tau = x^5/(1 - x^5): cycle length k = 5, and tau has order 5."""
    return SeriesDVR(XY, PeriodicCoefficients([0, 0, 0, 0, 1]))


@pytest.mark.parametrize("text, want", [
    ("y", 5),
    ("y^4", 20),  # exactly the degree bound 0 + 4*5, past degree 16
    ("x^13*y", 18),
    ("(1 - x^5)*y - x^5", None),
    ("((1 - x^5)*y - x^5)^3*(x + y)", None),
    ("(x + y)/((1 - x^5)*y - x^5)", None),
])
def test_series_value_rational_hand_values(text, want):
    assert series_value(rational_dvr(), el_on(text, XY)) == want


def test_series_value_stops_at_the_degree_bound(monkeypatch):
    """The cube vanishes on the curve and has x-degree 15 and y-degree 3,
    so its degree bound is 15 + 3*5 = 30: the truncations of degree 16
    and 32 are the last it reads, not those up to MAX_PRECISION."""
    caps = record_calls(monkeypatch, lqt.series, "_evaluate_truncated")
    f = el_on("((1 - x^5)*y - x^5)^3", XY)
    assert series_value(rational_dvr(), f) is None
    assert [cap for _, _, cap in caps] == [16, 32]


def test_series_value_input_checks():
    dvr = geometric_dvr()
    with pytest.raises(ValueError, match="valuation of zero"):
        series_value(dvr, el_on("x - x", XY))
    with pytest.raises(ValueError, match="does not live in the field"):
        series_value(dvr, el_on("x", ("x", "z")))


# -- series values against sympy ------------------------------------------------------

# Each series with its truncation to degree n, written out from its
# definition rather than read from the stream.  With MAX_PRECISION patched
# to ORACLE_DEGREE, series_value looks at the truncations of degree 16 and
# 32, so ORACLE_DEGREE is the last one it sees.
ORACLE_DEGREE = 32
SERIES = [
    (GeometricGaps(2), lambda n: {2 ** k: 1 for k in range(n.bit_length())
                                  if 2 ** k <= n}),
    (FactorialGaps(), lambda n: {factorial(k): 1 for k in range(1, 8)
                                 if factorial(k) <= n}),
    (PeriodicCoefficients([F(1), F(-1, 2)]),
     lambda n: {i: 1 if i % 2 else F(-1, 2) for i in range(1, n + 1)}),
]


def _truncation_poly(tau: dict[int, Fraction]) -> Polynomial:
    """y minus the truncated series, a polynomial in x and y."""
    terms = {(i, 0): -c for i, c in tau.items()}
    terms[(0, 1)] = 1
    return Polynomial(XY, terms)


def _sympy_order(p: Polynomial, tau: dict[int, Fraction]) -> int | None:
    """The x-adic order of p(x, tau(x)) computed by sympy, or None when
    the truncation cannot certify it (the order lies above its degree)."""
    x = sp.Symbol("x")

    def poly(coeffs: dict[int, Fraction]) -> sp.Poly:
        return sp.Poly.from_dict({(i,): sp.Rational(c.numerator, c.denominator)
                                  for i, c in coeffs.items()}, x, domain=sp.QQ)

    by_y_degree: dict[int, dict[int, Fraction]] = {}
    for (i, j), c in p.terms.items():
        by_y_degree.setdefault(j, {})[i] = c
    # Horner's rule in y, over polynomials in x
    t, value = poly(tau), poly({})
    for j in range(max(by_y_degree), -1, -1):
        value = value * t + poly(by_y_degree.get(j, {}))
    if value.is_zero:
        return None
    order = min(m[0] for m in value.monoms())
    return order if order <= ORACLE_DEGREE else None


small_coefficients = st.fractions(
    min_value=-3, max_value=3, max_denominator=2).filter(lambda c: c != 0)
small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), small_coefficients,
    max_size=3).map(lambda t: Polynomial(XY, t))


@st.composite
def series_elements(draw, streams=SERIES):
    """A series with an element a*(y - tau_k)^e + b over c*(y - tau_l)^f + d:
    the truncations make the numerator or denominator vanish to high
    order, which is where a wrong truncation would show."""
    series, truncation = draw(st.sampled_from(streams))
    parts = []
    for _ in range(2):
        a = draw(small_polys.filter(lambda p: not p.is_zero()))
        k = draw(st.integers(0, 16))
        e = draw(st.integers(1, 2))
        b = draw(st.one_of(st.just(Polynomial.zero(XY)), small_polys))
        parts.append(a * _truncation_poly(truncation(k)) ** e + b)
    num, den = parts
    if den.is_zero():
        den = Polynomial.one(XY)
    return series, truncation, RationalFunction(num, den)


@settings(deadline=None, max_examples=50)
@given(series_elements())
def test_series_value_matches_sympy(case):
    series, truncation, f = case
    assume(not f.is_zero())
    dvr = SeriesDVR(XY, series)
    with patch.object(lqt.series, "MAX_PRECISION", ORACLE_DEGREE):
        got = series_value(dvr, f)
    tau = truncation(ORACLE_DEGREE)
    num = _sympy_order(f.numerator, tau)
    den = _sympy_order(f.denominator, tau)
    if num is None or den is None:
        # at the cap lqt sees the same truncation, so it cannot certify
        assert got is None
    else:
        assert got == num - den


@settings(deadline=None, max_examples=50)
@given(series_elements())
def test_series_value_agrees_with_the_stage_walk(case):
    """A series valuation is also a walk, so the session's stage search
    and the truncation certificate are two algorithms for one value: when
    both decide, they agree."""
    series, _, f = case
    assume(not f.is_zero())
    dvr = SeriesDVR(XY, series)
    walked = AnalysisSession(dvr).value_of(f, 60)
    certified = series_value(dvr, f)
    if walked is not None and certified is not None:
        assert (type(walked[0]), walked[0]) == (int, certified)


@st.composite
def started_elements(draw):
    """A starting degree and a series element; the dense periodic stream
    takes seconds per element at degree 1000, so only the sparse streams
    start there."""
    start = draw(st.sampled_from([1, 5, 1000]))
    streams = SERIES if start < 1000 else SERIES[:2]
    return start, draw(series_elements(streams))


@settings(deadline=None, max_examples=50)
@given(started_elements())
def test_series_value_does_not_depend_on_the_start(started):
    """Certification is monotone in the truncation degree, so any starting
    degree gives the default's answer or no answer at all."""
    start, (series, _, f) = started
    assume(not f.is_zero())
    dvr = SeriesDVR(XY, series)
    want = series_value(dvr, f)
    with patch.object(lqt.series, "START_PRECISION", start):
        got = series_value(dvr, f)
    assert got is None or got == want


# -- a rational series against exact substitution ------------------------------------

def _sympy_rational_order(p: Polynomial, cycle: list[Fraction]) -> int | None:
    """The x-adic order of p(x, P/Q), where P/Q is the periodic series of
    this cycle, by exact substitution in sympy's field Q(x), which cancels
    as it goes; None when p vanishes on the curve."""
    _, x = sp.field("x", sp.QQ)
    k = len(cycle)
    tau = sum(sp.QQ(c.numerator, c.denominator) * x ** (i + 1)
              for i, c in enumerate(cycle)) / (1 - x ** k)
    value = 0
    for d in range(max(j for _, j in p.terms), -1, -1):  # Horner's rule
        value = value * tau + sum(sp.QQ(c.numerator, c.denominator) * x ** i
                                  for (i, j), c in p.terms.items() if j == d)
    if value == 0:
        return None
    return (min(m[0] for m in value.numer.monoms())
            - min(m[0] for m in value.denom.monoms()))


@st.composite
def periodic_elements(draw):
    """A cycle of 1-5 entries, so tau = P/Q with Q = 1 - x^k, and an
    element a*(Q*y - P)^e + b over one of the same shape, b zero or x^m:
    with b zero a part vanishes on the curve, and with m past the first
    truncation its order shows only at a deeper one."""
    cycle = draw(st.lists(st.fractions(min_value=-2, max_value=2,
                                       max_denominator=3),
                          min_size=1, max_size=5).filter(any))
    curve = Polynomial(XY, {(i + 1, 0): -c for i, c in enumerate(cycle)})
    curve += Polynomial(XY, {(0, 1): 1, (len(cycle), 1): -1})
    parts = []
    for _ in range(2):
        a = draw(small_polys.filter(lambda p: not p.is_zero()))
        e = draw(st.integers(1, 2))
        m = draw(st.none() | st.integers(0, 40))
        b = Polynomial(XY, {} if m is None else {(m, 0): 1})
        parts.append(a * curve ** e + b)
    return cycle, RationalFunction(*parts)


@settings(deadline=None, max_examples=30)
@given(periodic_elements())
def test_rational_series_value_matches_exact_substitution(case):
    """The degree bound of a periodic series never stops the search before
    an order exists: series_value, at the default MAX_PRECISION, is the
    order of the exact substitution y = P/Q, and None exactly when the
    numerator or the denominator vanishes on the curve."""
    cycle, f = case
    got = series_value(SeriesDVR(XY, PeriodicCoefficients(cycle)), f)
    num = _sympy_rational_order(f.numerator, cycle)
    den = _sympy_rational_order(f.denominator, cycle)
    assert got == (None if num is None or den is None else num - den)


# -- the induced transform sequence ---------------------------------------------------

def test_trace_directives_follow_the_coefficients():
    trace = geometric_dvr()
    assert trace.directive_at(1) == Directive(0, [(1, F(1))])
    assert trace.directive_at(2) == Directive(0, [(1, F(1))])
    assert trace.directive_at(3) == Directive(0)
    assert trace.directive_at(4) == Directive(0, [(1, F(1))])
    with pytest.raises(ValueError, match="out of range"):
        trace.directive_at(0)


def test_trace_value_vectors_carry_the_gap():
    trace = geometric_dvr()
    vectors = [stage_values(trace, n) for n in range(5)]
    assert vectors == [(F(1), F(1)), (F(1), F(1)), (F(1), F(2)),
                       (F(1), F(1)), (F(1), F(4))]
    with pytest.raises(ValueError, match="out of range"):
        stage_values(trace, -1)


def test_trace_multiplicities_are_all_one():
    trace = factorial_dvr()
    assert multiplicity_sequence(trace, 5) == [F(1)] * 5
    assert multiplicity_sequence(trace, 0) == []
    with pytest.raises(ValueError, match="nonnegative"):
        multiplicity_sequence(trace, -2)


def test_trace_shape():
    trace = geometric_dvr()
    assert trace.bases == XY
