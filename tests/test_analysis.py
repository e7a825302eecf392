"""Tests for the stage analysis engine: membership, exact values, limit
approximants, and the union ring classifier."""

import random
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from lqt import (AnalysisSession, CoordinatePrime, Directive, LiftedTrace,
                 LimitTrace, MembershipVerdict, POS_INF, Polynomial,
                 RationalFunction,
                 SeriesDVR, ShannonClass, analysis, classify_shannon,
                 example_names, get_example, load_config_file,
                 load_config_text, multiplicity_sequence, parse_program,
                 polynomials)
from lqt.programs import read_values
from conftest import el
from helpers import (XY, XYZ, Chart, apply_directive, general_states, ord_n,
                     random_rf, record_calls, stepped_e_approx)

F = Fraction


# -- verdict and trace shapes ---------------------------------------------------------

def test_membership_verdict_semantics():
    found = MembershipVerdict(3, 24)
    missed = MembershipVerdict(None, 24)
    assert found.decided and bool(found)
    assert not missed.decided and not bool(missed)
    assert repr(found) == "In(stage=3)"
    assert repr(missed) == "NotWithinBudget(budget=24)"
    assert found == MembershipVerdict(3, 24)
    assert found != missed


def test_limit_trace_stabilization():
    steady = LimitTrace("w", 0, [F(1), F(2), F(2), F(2), F(2), F(2)])
    assert steady.stabilized
    assert steady.last == F(2)
    short = LimitTrace("w", 0, [F(2), F(2), F(2)])
    assert not short.stabilized
    drifting = LimitTrace("w", 0, [F(1)] * 4 + [F(2)])
    assert not drifting.stabilized
    empty = LimitTrace("w", 0, [])
    assert empty.last is None


# -- input checking -------------------------------------------------------------------

def test_analysis_rejects_zero_and_foreign_elements(two_var):
    with pytest.raises(ValueError, match="zero element"):
        two_var.state_at(el("x - x", two_var), 0)
    with pytest.raises(ValueError, match="does not live in the field"):
        two_var.initial_state(el("z", get_example("ex3.7-3d").session))
    with pytest.raises(ValueError, match="the value of zero"):
        two_var.value_of(el("0", two_var))
    with pytest.raises(ValueError, match="approximants of zero"):
        two_var.e_approx(el("0", two_var))
    with pytest.raises(ValueError, match="approximants of zero"):
        two_var.w_approx(el("0", two_var), el("x", two_var))


def test_negative_stages_are_refused():
    """A negative stage is no index into the kept states, cached or not."""
    session = AnalysisSession(get_example("dvr-curve").source)
    f = el("y - x - x^2", session)
    assert session.value_of(f, 10) == (6, 2)
    for n in (-1, -2):
        with pytest.raises(ValueError, match=f"stage {n} out of range"):
            session.state_at(f, n)
        with pytest.raises(ValueError, match=f"stage {n} out of range"):
            session.ord_at(f, n)


def test_negative_budgets_search_no_stage():
    """x^2*y is a monomial of value 3 at stage 0, but a budget of -1 allows
    no stage at all, before or after the element's states are cached."""
    session = AnalysisSession(get_example("dvr-curve").source)
    f, x = el("x^2*y", session), el("x", session)
    for _ in range(2):
        assert session.member(f, -1) == MembershipVerdict(None, -1)
        assert session.value_of(f, -1) is None
        assert session.w_approx(f, x, -1) == LimitTrace("w", 0, [])
        assert session.e_approx(f, -1) == MembershipVerdict(None, -1)
        assert session.value_of(f, 0) == (3, 0)


# -- membership -----------------------------------------------------------------------

def test_membership_hand_cases(two_var):
    assert two_var.member(el("x", two_var)) == MembershipVerdict(0, 24)
    assert two_var.member(el("y/x", two_var)).stage == 1
    assert two_var.member(el("(y - x)/x", two_var)).stage == 1
    assert two_var.member(el("0", two_var)).stage == 0


def test_membership_fails_for_negative_value(two_var):
    verdict = two_var.member(el("y/x^2", two_var), budget=8)
    assert not verdict.decided
    assert verdict.budget == 8


def test_membership_fails_for_fractional_monomial(two_var):
    """(y - x)/x^2 has value -1/2, so no stage ring ever absorbs it."""
    assert not two_var.member(el("(y - x)/x^2", two_var), budget=8).decided


def test_membership_is_monotone_once_found(two_var):
    f = el("(y - x)/x", two_var)
    stage = two_var.member(f).stage
    assert stage == 1
    for n in range(stage, stage + 6):
        assert two_var.state_at(f, n).in_ring()


def test_infinite_value_coordinate_divides_forever(nonarch):
    assert nonarch.member(el("y/x^5", nonarch)).stage == 5
    assert not nonarch.member(el("1/x", nonarch), budget=10).decided


# -- exact values ---------------------------------------------------------------------

def value_and_stage(session, text, **kwargs):
    """value_of an element given as text, checking the coefficient rule: a
    whole value is an int, never a whole Fraction."""
    result = session.value_of(el(text, session), **kwargs)
    value = result[0]
    assert type(value) is not Fraction or value.denominator != 1
    return result


@pytest.mark.parametrize("text, value, stage", [
    ("x", F(1), 0),
    ("y/x", F(0), 0),
    ("y/x^2", F(-1), 0),
    ("y - x", F(3, 2), 1),
    ("(y - x)/x^2", F(-1, 2), 1),
    ("x*y^2", F(3), 0),
])
def test_value_hand_cases(two_var, text, value, stage):
    assert value_and_stage(two_var, text) == (value, stage)


def test_value_undecided_for_stubborn_elements(two_var):
    """1 + x never reduces to a monomial: it is a unit, normalized to 1 with
    exponent zero, so it resolves immediately instead."""
    assert value_and_stage(two_var, "1 + x") == (0, 0)
    assert value_and_stage(two_var, "y - x - x^2", budget=2) == (F(3, 2), 2)


def test_value_in_three_variables(three_var):
    assert value_and_stage(three_var, "z") == (4, 0)
    assert value_and_stage(three_var, "(y - x)/z") == (F(-5, 2), 1)


def test_value_with_infinite_coordinate(nonarch):
    assert value_and_stage(nonarch, "y") == (POS_INF, 0)
    assert value_and_stage(nonarch, "x*y") == (POS_INF, 0)
    assert value_and_stage(nonarch, "x") == (1, 0)


def test_whole_series_value_is_an_int():
    """The stage walk of a series valuation gives a whole value as an int."""
    session = get_example("dvr-curve").session
    assert value_and_stage(session, "y - x - x^2") == (6, 2)


# -- limit approximants ---------------------------------------------------------------

def test_w_approx_converges_to_the_value_ratio(two_var):
    trace = two_var.w_approx(el("y - x", two_var), el("x", two_var))
    assert trace.approximants[:5] == [F(1), F(2), F(3, 2), F(3, 2), F(3, 2)]
    assert trace.last == F(3, 2)
    assert trace.stabilized
    assert trace.start == 0


def test_w_approx_of_self_is_one(two_var):
    trace = two_var.w_approx(el("x", two_var), el("x", two_var))
    assert set(trace.approximants) == {F(1)}


def test_whole_w_approximants_are_ints(two_var):
    trace = two_var.w_approx(el("x^2", two_var), el("x", two_var))
    assert set(trace.approximants) == {2}
    assert all(type(a) is int for a in trace.approximants)
    mixed = two_var.w_approx(el("(y - x)/x", two_var), el("x", two_var))
    assert mixed.approximants[:3] == [0, 1, F(1, 2)]
    assert [type(a) for a in mixed.approximants[:3]] == [int, int, F]


def test_w_approx_rejects_order_zero_reference(two_var):
    with pytest.raises(ValueError, match="order 0 at stage 0"):
        two_var.w_approx(el("y - x", two_var), el("1 + x", two_var))


def test_e_approx_drops_to_zero_once_resolved(two_var):
    trace = two_var.e_approx(el("y - x", two_var))
    assert trace.approximants[:4] == [F(1), F(1), F(0), F(0)]
    assert trace.last == F(0)
    assert trace.stabilized
    trace = two_var.e_approx(el("x", two_var))
    assert trace.approximants[:3] == [F(1), F(0), F(0)]


def test_e_approx_starts_at_the_membership_stage(two_var):
    f = el("(y - x)/x", two_var)
    trace = two_var.e_approx(f)
    assert trace.start == 1
    assert trace.approximants[0] == F(1)


def test_e_approx_passes_through_failed_membership(two_var):
    outcome = two_var.e_approx(el("y/x^2", two_var), budget=6)
    assert isinstance(outcome, MembershipVerdict)
    assert not outcome.decided


def test_session_reads_each_directive_once():
    from lqt import AnalysisSession
    source = get_example("ex3.7-2d").source
    calls = []

    class Counted:
        bases = source.bases
        scaled_vector_at = source.scaled_vector_at

        def directive_at(self, n):
            calls.append(n)
            return source.directive_at(n)

    session = AnalysisSession(Counted())
    for text in ["y - x", "y/x^2", "(y - x)/x^2"]:
        session.e_approx(el(text, session), budget=6)
    assert calls == [1, 2, 3, 4, 5, 6]


ALT3 = Path(__file__).parent.parent / "perfbench" / "configs" / "alt3.cfg"


@pytest.mark.parametrize("name", example_names() + ["alt3"])
def test_three_methods_are_the_whole_walk_interface(name):
    """A walk that hands out only bases, directive_at and scaled_vector_at
    answers every query the real walk does."""
    source = (load_config_file(str(ALT3)) if name == "alt3"
              else get_example(name)).source

    class Bare:
        bases = source.bases
        directive_at = source.directive_at
        scaled_vector_at = source.scaled_vector_at

    bare, real = AnalysisSession(Bare()), AnalysisSession(source)
    b0, b1 = source.bases[0], source.bases[-1]
    reference = el(b0, real)
    for text in [f"{b1} - {b0}", f"{b1}/{b0}^2", f"({b1} - {b0})/{b0}^2",
                 f"{b0}^2 + {b1}^3"]:
        f = el(text, real)
        assert bare.member(f) == real.member(f), text
        assert bare.value_of(f) == real.value_of(f), text
        assert bare.w_approx(f, reference) == real.w_approx(f, reference)
        assert bare.e_approx(f) == real.e_approx(f), text
    assert multiplicity_sequence(Bare(), 50) == multiplicity_sequence(
        source, 50)


def _stage_coordinates(session, k):
    """The stage-k coordinates as elements of the ambient field: each step
    maps x_p to x_p and x_j to x_j/x_p - c_j."""
    bases = session.bases
    coords = [RationalFunction.variable(v, bases) for v in bases]
    for n in range(1, k + 1):
        directive = session.source.directive_at(n)
        p = directive.pivot
        coords = [c if j == p else c / coords[p] - RationalFunction.constant(
                      directive.translation_of(j), bases)
                  for j, c in enumerate(coords)]
    return coords


def test_walk_steps_match_the_general_path(monkeypatch):
    from lqt import AnalysisSession, analysis, example_names
    for name in example_names():
        session = AnalysisSession(get_example(name).source)
        x, y, z = (session.bases * 2)[:3]
        one = RationalFunction.constant(1, session.bases)
        # the stage-8 coordinates keep a side that is not one up to stage 8
        late, early = (_stage_coordinates(session, k) for k in (8, 5))
        elements = [el(text, session) for text in [
            # monomial times unit: num and den are one from stage 0
            f"3*{x}^2*{y}^-1*(1 + 5*{x})/(2 + {z})",
            f"{x}/{z}^2",
            f"({y} - {x})*{x}^2*(1 + {y})",
            f"(1 - 7*{z})/({y} - {x}^2)",
        ]] + [
            late[1], late[1].inverse(), late[-1],
            late[1] / early[1], (late[1] + one) / (early[1] - one),
        ]
        for f in elements:
            oracle = general_states(session, f, 40)
            for n in range(41):
                state = session.state_at(f, n)
                assert (state.exponents, state.num, state.den) == oracle[n], \
                    (name, str(f), n)
    # untranslated runs between the translated steps 1, 2, 6 and 24
    session = AnalysisSession(get_example("dvr-curve").source)
    f = el("(y - x - x^2 - x^6 - x^24)*(1 + 37*x)", session)
    oracle = general_states(session, f, 30)
    for n in range(31):
        state = session.state_at(f, n)
        assert (state.exponents, state.num, state.den) == oracle[n], n
    # x/z is monomial at stage 0 and no step moves z, so member neither
    # advances, substitutes nor moves its exponents
    session = AnalysisSession(get_example("ex3.7-3d").source)
    substitutions = record_calls(monkeypatch, analysis, "substitute_terms")
    steps = record_calls(monkeypatch, AnalysisSession, "advance_state")
    moves = record_calls(monkeypatch, analysis, "_moved")
    verdict = session.member(el("x/z", session), 300)
    assert verdict == MembershipVerdict(None, 300)
    assert steps == substitutions == moves == []


def test_a_walk_step_builds_each_side_once(monkeypatch):
    session = AnalysisSession(get_example("ex3.7-2d").source)
    state = session.state_at(el("(y - x + y^2)/(y - x - x^2)", session), 0)
    assert not (state.num.is_one() or state.den.is_one())
    session.state_at(el("y - x", session), 1)  # builds step 1's images
    makes = record_calls(monkeypatch, Polynomial, "_make")
    shifts = record_calls(monkeypatch, polynomials, "_shift")
    # step 1 translates y, so one image is not a monomial
    assert session.source.directive_at(1).translations
    after = session.advance_state(state, 1)
    assert not (after.num.is_one() or after.den.is_one())
    assert len(makes) == 2
    assert shifts == []


def test_an_untranslated_step_substitutes_nothing(monkeypatch):
    session = AnalysisSession(get_example("dvr-curve").source)
    f = el("(y - x - x^2 - x^6)/(y - x - x^2 - 2*x^4)", session)
    state = session.state_at(f, 2)
    assert not (state.num.is_one() or state.den.is_one())
    assert not session.source.directive_at(3).translations
    session.state_at(el("x", session), 3)  # builds step 3
    makes = record_calls(monkeypatch, Polynomial, "_make")
    substitutions = record_calls(monkeypatch, analysis, "substitute_terms")
    after = session.advance_state(state, 3)
    assert not (after.num.is_one() or after.den.is_one())
    assert len(makes) == 2
    assert substitutions == []


def _substituted_stages(monkeypatch) -> list[int]:
    """A list that records, in call order, the stage n of every
    advance_state call that substitutes from now on."""
    advances = record_calls(monkeypatch, AnalysisSession, "advance_state")
    stages: list[int] = []
    original = analysis.substitute_terms

    def recorded(*args):
        stages.append(advances[-1][2])
        return original(*args)

    monkeypatch.setattr(analysis, "substitute_terms", recorded)
    return stages


def test_a_value_substitutes_only_at_translated_steps(monkeypatch):
    session = AnalysisSession(get_example("dvr-curve").source)
    f = el("(y - x - x^2 - x^6 - x^24)*(1 + 37*x)", session)
    substituted = _substituted_stages(monkeypatch)
    assert session.value_of(f, 30) == (120, 24)
    # the state is a monomial from stage 24 on
    assert substituted == [1, 2, 6, 24]


def test_a_value_keeps_one_state_per_run(monkeypatch):
    """The series walk of dvr-curve translates at steps 1, 2, 6, 24 and
    120 only, so value_of on the x^120 truncation keeps nine states and
    builds the images of its one distinct translated step once."""
    session = AnalysisSession(get_example("dvr-curve").source)
    f = el("(y - x - x^2 - x^6 - x^24 - x^120)*(1 + 37*x)", session)
    makes = record_calls(monkeypatch, Directive, "images")
    substituted = _substituted_stages(monkeypatch)
    assert session.value_of(f, 130) == (720, 120)
    assert substituted == [1, 2, 6, 24, 120]
    assert session._bounds == [0, 1, 2, 5, 6, 23, 24, 119, 120]
    assert len(session._states[f]) == 9
    assert len(makes) == 1
    assert list(session._images) == [Directive(0, [(1, 1)])]


def _drawn_side(draw, n: int):
    """A side that is not one as a normalized state holds it: a term map
    over n variables with componentwise minimum 0 and no constant term."""
    exps = st.tuples(*[st.integers(0, 4)] * n)
    terms = draw(st.dictionaries(exps, st.integers(-5, 5).filter(bool),
                                 min_size=1, max_size=5))
    terms.pop((0,) * n, None)
    if not terms:
        terms = {(1,) + (0,) * (n - 1): 1}
    m = tuple(map(min, zip(*terms)))
    return {tuple(a - b for a, b in zip(e, m)): c for e, c in terms.items()}


@st.composite
def untranslated_steps(draw):
    """(bases, pivot, exponents, num, den) for one Directive(pivot) step;
    a side is the session's one (None), a one built elsewhere ("one") or a
    normalized term map that is not a unit."""
    bases = draw(st.sampled_from([XY, XYZ]))
    n = len(bases)
    sides = [draw(st.sampled_from([None, "one", "terms", "terms"]))
             for _ in range(2)]
    sides = [_drawn_side(draw, n) if side == "terms" else side
             for side in sides]
    exponents = draw(st.tuples(*[st.integers(-4, 4)] * n))
    return bases, draw(st.integers(0, n - 1)), exponents, *sides


class _OneStep:
    def __init__(self, bases, pivot):
        self.bases = bases
        self.directive = Directive(pivot)

    def directive_at(self, n):
        return self.directive


@settings(deadline=None, max_examples=300)
@given(untranslated_steps())
# x + y^2 under pivot x becomes x*(1 + x*y^2), a unit times x
@example((XY, 0, (1, -2), {(1, 0): 1, (0, 2): 1}, {(0, 1): 3, (2, 0): 1}))
@example((XY, 1, (0, 0), "one", {(1, 1): 2, (0, 3): -1}))
def test_an_untranslated_step_matches_substitution(drawn):
    bases, pivot, exponents, num, den = drawn
    session = AnalysisSession(_OneStep(bases, pivot))
    one = session._one
    sides = tuple(one if q is None else Polynomial.one(bases) if q == "one"
                  else Polynomial(bases, q) for q in (num, den))
    state = analysis.ElementState(exponents, *sides)
    p, kept, directive = session._step(1)
    assert len(kept) == len(bases) - 1
    images = directive.images(bases)
    done = iter(polynomials.substitute_terms(
        [q.terms.items() for q in sides if q is not one], images, bases))
    want = analysis._normalized(analysis._moved(exponents, p, kept),
                                tuple(q if q is one else next(done)
                                      for q in sides), one)
    got = session.advance_state(state, 1)
    assert (got.exponents, got.num, got.den) == (want.exponents, want.num,
                                                 want.den)
    assert (got.num is one, got.den is one) == (want.num is one,
                                                want.den is one)


@st.composite
def untranslated_runs(draw):
    """(bases, pivot, exponents, num, den, t) for t Directive(pivot) steps.
    A side is the session's one (None), a one built elsewhere ("one"), or
    a normalized term map that is not a unit: with pure pivot powers added,
    or, over three variables, with none, so that it never becomes one."""
    bases = draw(st.sampled_from([XY, XYZ]))
    n = len(bases)
    p = draw(st.integers(0, n - 1))
    others = [j for j in range(n) if j != p]
    coefficients = st.integers(-5, 5).filter(bool)
    sides = []
    for _ in range(2):
        kind = draw(st.sampled_from([None, "one", "pure", "pure", "free"]))
        if kind in ("pure", "free"):
            terms = _drawn_side(draw, n)
            if kind == "free" and n == 3:
                terms = {k: c for k, c in terms.items() if sum(k) != k[p]}
                # one term free of each other coordinate keeps it normalized
                for j in others:
                    k = [0] * n
                    k[p] = draw(st.integers(0, 6))
                    k[j] = draw(st.integers(1, 3))
                    terms[tuple(k)] = draw(coefficients)
                low = min(k[p] for k in terms)
                kind = {tuple(a - low if j == p else a
                              for j, a in enumerate(k)): c
                        for k, c in terms.items()}
            else:
                for a in draw(st.lists(st.integers(1, 9), min_size=1,
                                       max_size=3)):
                    k = tuple(a if j == p else 0 for j in range(n))
                    terms[k] = draw(coefficients)
                kind = terms
        sides.append(kind)
    exponents = draw(st.tuples(*[st.integers(-4, 4)] * n))
    return bases, p, exponents, *sides, draw(st.integers(1, 200))


@settings(deadline=None, max_examples=120)
@given(untranslated_runs())
# several pure powers y^5 and y^3: x^2 gives up order 2 a step until U
# reaches the least of them, at t = 2, not the first one's t = 3
@example((XY, 1, (0, -1), {(0, 5): 2, (0, 3): 2, (2, 0): 1}, None, 6))
# x^3 + y becomes one at t = 3, y + z never does
@example((XYZ, 0, (-2, 1, 0), {(3, 0, 0): 1, (0, 1, 0): -1},
          {(0, 1, 0): 1, (2, 0, 1): 3}, 12))
# a one built elsewhere becomes the session's one at t = 1
@example((XY, 0, (1, 1), "one", {(4, 0): 1, (0, 2): 7}, 5))
def test_a_run_in_closed_form_matches_its_steps(drawn):
    """Every stage of a run read in closed form equals that many steps of
    the general path (substitution, then normalization), including which
    sides are the session's one; so do the orders along the run and the
    first monomial and first ring stages the queries solve for."""
    bases, p, exponents, num, den, last = drawn
    session = AnalysisSession(_OneStep(bases, p))
    one = session._one
    sides = tuple(one if q is None else Polynomial.one(bases) if q == "one"
                  else Polynomial(bases, q) for q in (num, den))
    start = analysis.ElementState(exponents, *sides)
    kept = tuple(j for j in range(len(bases)) if j != p)
    images = Directive(p).images(bases)
    pivot = analysis._pivot_exponent(start, p)
    assert pivot(1) == start.order()
    state, monomial, ring = start, None, None
    for t in range(1, last + 1):
        done = iter(polynomials.substitute_terms(
            [q.terms.items() for q in (state.num, state.den) if q is not one],
            images, bases))
        state = analysis._normalized(
            analysis._moved(state.exponents, p, kept),
            tuple(q if q is one else next(done)
                  for q in (state.num, state.den)), one)
        got = session.advance_state(start, 1, t)
        assert (got.exponents, got.num, got.den) == (state.exponents,
                                                     state.num, state.den), t
        assert (got.num is one, got.den is one) == (state.num is one,
                                                    state.den is one), t
        assert pivot(t) == state.exponents[p]
        assert pivot(t + 1) == state.order()
        if monomial is None and state.is_monomial():
            monomial = t
        if ring is None and state.in_ring():
            ring = t
    assert analysis._monomial_in_run(start, p, last) == monomial
    assert analysis._ring_in_run(start, p, last) == ring


def _truncation(exponents) -> str:
    return "y - " + " - ".join(f"x^{e}" for e in exponents)


# elements whose walks cross long runs, with the budget each is asked at
RUN_WALKS = {
    "dvr-curve": (130, [
        f"({_truncation([1, 2, 6, 24, 120])})*(1 + 37*x)",
        f"({_truncation([1, 2, 6, 24])})/x^100",
        f"({_truncation([1, 2, 6])})*(1 - 5*x)/x^30",
        f"({_truncation([1, 2, 6, 24])})/({_truncation([1, 2, 6])})",
        f"x^3/({_truncation([1, 2])} + x^40)",
    ]),
    "ex5.3-shape": (130, [
        f"z*({_truncation([1, 2, 4, 8, 16, 32, 64])})*(1 + 11*x)",
        f"({_truncation([1, 2, 4, 8, 16, 32, 64])})*(1 + 3*x)",
        f"({_truncation([1, 2, 4, 8, 16])})*(1 + 2*y)/x^40",
        f"({_truncation([1, 2, 4])})/(x^9*z)",
    ]),
    "nonarch2d": (90, [
        "y*(1 + 5*x)/x", "y*(1 + 9*x)/x^7", "y*(1 - 2*x)/x^33",
        "y*(1 + 4*x)/x^80", "(y + x^3)*(1 + 5*x)/x^20",
        "x^2/(y^2 + x^5)", "(y^3 + x^2*y + x^9)/(x^12*(y + x^4))",
    ]),
    "pivots-change": (60, [
        "(y - x)*(1 + 2*z)/z^3", "(x^2 + y^3 + z)/(y^2 - x*z)",
        "x^4/(z^2 + y^3)", "(y + x^3)*(z + y^2)/x^9",
        # monomial at stage 0 with z negative until step 4 pivots z
        "x^3/z",
    ]),
    # monomial tails: states read by exponents from the first monomial
    # stage, which enter at most two stages on, or never
    "ex3.7-2d": (60, [
        "y^3/x^5", "(1 + 7*x)*x^4/y^9", "(y - x)^4/(x^3*y^2)",
        "x^3/(y - x)^2", "(y - x)^3/x^5",
    ]),
    # and with z, which no step moves, negative
    "ex3.7-3d": (60, [
        "x/z", "x^2*(1 + 5*y)/z^2", "y^3/x^5", "(1 + 7*x)*x^4/y^9",
        "(y - x)^4*(1 + z)/(x^3*y^2)", "(y - x)^2*z/x^3",
    ]),
}


class _PivotsChange:
    """A walk whose runs end where the pivot changes as well as at a
    translated step.  Its stages all hold the same values, which no
    program could, but the session does not check them."""

    bases = XYZ
    period = [Directive(0), Directive(0), Directive(1), Directive(2),
              Directive(2), Directive(2), Directive(0, [(1, 1)]),
              Directive(1)]

    def directive_at(self, n):
        return self.period[(n - 1) % len(self.period)]

    def scaled_vector_at(self, n):
        return (1, 2, 3), 1


def test_membership_reads_on_to_the_step_that_moves_a_negative_exponent():
    """x^3/z is monomial at stage 0 on the pivots-change walk, and z first
    moves at step 4, where x^3/z enters its stage ring.  A search reads
    no step past its budget or past step 4, in any order of budgets."""
    for budgets in ([3, 4], [4, 3], [60, 3, 4]):
        session = AnalysisSession(_PivotsChange())
        f = el("x^3/z", session)
        read = 0
        for budget in budgets:
            assert session.member(f, budget) == MembershipVerdict(
                4 if budget >= 4 else None, budget), budgets
            read = max(read, min(budget, 4))
            assert len(session._steps) == read, budgets


def test_membership_stops_on_a_negative_value():
    """A monomial state's value is the same at every stage, and a program's
    or a series walk's values are positive, so a negative value puts it in
    no stage ring: y^3/x^5 on ex3.7-2d (value -2) and y/x^3 on dvr-curve
    (value -2) end member at stage 0, every coordinate moving or not.  A
    lifted walk is not taken for a valuation's: 1/x on nonarch2d reads on
    to its budget."""
    for name, text in [("ex3.7-2d", "y^3/x^5"), ("dvr-curve", "y/x^3")]:
        session = AnalysisSession(get_example(name).source)
        f = el(text, session)
        assert session.member(f, 100000) == MembershipVerdict(None, 100000)
        assert session.e_approx(f, 100000) == MembershipVerdict(None, 100000)
        assert len(session._steps) == 0, name
    session = AnalysisSession(get_example("nonarch2d").source)
    assert session.member(el("1/x", session), 10) == MembershipVerdict(None,
                                                                       10)
    assert len(session._steps) == 10


def test_a_monomial_run_is_solved_without_stepping(monkeypatch):
    """nonarch2d's walk is one untranslated run, so a warm member of
    y*(1 + 5*x)/x^80, monomial at stage 0, bisects the run for stage 80 and
    neither walks nor moves its exponents a step at a time."""
    session = AnalysisSession(get_example("nonarch2d").source)
    assert session.member(el("y*(1 + 3*x)/x^85", session), 90).stage == 85
    walks = record_calls(monkeypatch, AnalysisSession, "_walk")
    moves = record_calls(monkeypatch, analysis, "_moved")
    f = el("y*(1 + 5*x)/x^80", session)
    assert session.member(f, 90) == MembershipVerdict(80, 90)
    assert walks == moves == []


def _run_walk_oracle(name: str):
    """Per element of RUN_WALKS[name]: its states, value, membership stage
    and orders at stages 0..budget by the general path, and its e_approx by
    stepping."""
    budget, texts = RUN_WALKS[name]
    source = (_PivotsChange() if name == "pivots-change"
              else get_example(name).source)
    oracle = AnalysisSession(source)
    answers = {}
    for text in texts:
        f = el(text, oracle)
        states = general_states(oracle, f, budget)
        answers[f] = (states, *_general_answers(source, states),
                      stepped_e_approx(AnalysisSession(source), f, budget))
    return source, budget, answers


def _general_answers(source, states):
    """From an element's states by the general path: its value with the
    first monomial stage, the first stage in its ring, and its orders."""
    value = member = None
    for n, (e, num, den) in enumerate(states):
        if member is None and den.is_one() and min(e) >= 0:
            member = n
        if value is None and num.is_one() and den.is_one():
            nums, d = source.scaled_vector_at(n)
            total = 0
            for ej, vj in zip(e, nums):
                if ej:
                    total = total + ej * vj
            value = (read_values((total,), d)[0], n)
    orders = [sum(e) + num.order() - den.order() for e, num, den in states]
    return value, member, orders


def _ratios(orders, reference_orders):
    """w approximants: each ratio, an int when whole."""
    return [o // r if o % r == 0 else F(o, r)
            for o, r in zip(orders, reference_orders)]


@pytest.mark.parametrize("name", list(RUN_WALKS))
def test_kept_states_answer_like_every_stage(name):
    """The queries of one session, asked in several orders on the same
    elements, against every stage built by the general path: value_of then
    the approximants, state_at inside a run first, member then value_of."""
    source, budget, answers = _run_walk_oracle(name)
    session = AnalysisSession(source)
    x = el("x*y*z" if name == "pivots-change" else "x", session)
    x_orders = [sum(e) for e, _, _ in general_states(session, x, budget)]
    steps = budget // 3

    def check(f, query):
        states, value, member, orders, e_trace = answers[f]
        if query == "value":
            assert session.value_of(f, budget) == value
        elif query == "member":
            assert session.member(f, budget) == MembershipVerdict(member,
                                                                  budget)
        elif query == "w":
            assert session.w_approx(f, x, budget).approximants == _ratios(
                orders, x_orders)
        elif query == "e":
            assert session.e_approx(f, budget) == e_trace
        else:
            for n in range(query, budget + 1, steps):
                got = session.state_at(f, n)
                assert (got.exponents, got.num, got.den) == states[n], n
                assert session.ord_at(f, n) == orders[n], n

    orders_of_queries = [["value", "w", "e", "member", 0],
                         [budget // 2 + 1, "value", "member", "e", "w", 1],
                         ["member", "value", "w", 2, "e"]]
    for i, f in enumerate(answers):
        for query in orders_of_queries[i % 3]:
            check(f, query)
        for query in orders_of_queries[(i + 1) % 3]:
            check(f, query)


class _DrawnWalk:
    """A stand-in walk: head directives, then a period repeated forever.
    Its stage values change with the stage, so a value read at the wrong
    stage shows; they belong to no valuation, which the session does not
    check."""

    def __init__(self, bases, head, period):
        self.bases, self.head, self.period = bases, head, period

    def directive_at(self, n):
        if n <= len(self.head):
            return self.head[n - 1]
        return self.period[(n - 1 - len(self.head)) % len(self.period)]

    def scaled_vector_at(self, n):
        return tuple(n + j + 1 for j in range(len(self.bases))), 2

    def __repr__(self):
        return f"_DrawnWalk({self.bases}, {self.head}, {self.period})"


_ATOMS = {XY: ["x", "y", "y - x", "y + x^2", "x - 2*y^3", "1 + x"],
          XYZ: ["x", "y", "z", "y - x", "z + x*y", "x - 2*z^2", "1 + y"]}
_QUERIES = ["member", "value_of", "w_approx", "e_approx", "state_at",
            "ord_at"]


@st.composite
def _drawn_directives(draw, n: int):
    p = draw(st.integers(0, n - 1))
    moved = draw(st.lists(st.sampled_from([j for j in range(n) if j != p]),
                          unique=True))
    return Directive(p, [(j, draw(st.sampled_from([1, -1, 2, F(1, 2)])))
                         for j in moved])


@st.composite
def drawn_sessions(draw):
    """(walk, elements, queries): a drawn walk over two or three variables
    whose period sometimes holds a long untranslated run, products of up to
    three atoms, and up to six queries (kind, element, budget or stage)."""
    bases = draw(st.sampled_from([XY, XYZ]))
    directives = _drawn_directives(len(bases))
    head = draw(st.lists(directives, max_size=3))
    period = draw(st.lists(directives, min_size=1, max_size=6))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(period) - 1))
        period[k:k + 1] = [Directive(period[k].pivot)] * draw(
            st.integers(5, 25))
    factors = st.lists(st.tuples(st.sampled_from(_ATOMS[bases]),
                                 st.integers(-4, 4)), min_size=1, max_size=3)
    elements = draw(st.lists(factors, min_size=1, max_size=2))
    queries = draw(st.lists(st.tuples(st.sampled_from(_QUERIES),
                                      st.integers(0, len(elements) - 1),
                                      st.integers(0, 30)),
                            min_size=1, max_size=6))
    return _DrawnWalk(bases, head, period), elements, queries


@settings(deadline=None, max_examples=250)
@given(drawn_sessions())
# runs of one and of two steps, each shorter than the stretch that the
# closed form of its pivot would need
@example((_DrawnWalk(XY, [], [Directive(1), Directive(0)]),
          [[("x - 2*y^3", 1)]], [("value_of", 0, 3)]))
@example((_DrawnWalk(XY, [], [Directive(0), Directive(0), Directive(1)]),
          [[("y", 1), ("x", -4)]], [("member", 0, 12)]))
def test_a_session_answers_like_the_general_path(drawn):
    """Queries in any order on one session, each against the element's
    states by the general path, and e_approx against stepping."""
    walk, factors, queries = drawn
    session, oracle = AnalysisSession(walk), AnalysisSession(walk)
    elements = []
    for atoms in factors:
        f = RationalFunction.constant(1, walk.bases)
        for atom, e in atoms:
            f *= el(atom, oracle) ** e
        elements.append(f)
    reference = RationalFunction.variable(walk.bases[0], walk.bases)
    *_, reference_orders = _general_answers(
        walk, general_states(oracle, reference, 30))
    answers = {}
    for kind, k, budget in queries:
        f = elements[k]
        if k not in answers:
            states = general_states(oracle, f, 30)
            answers[k] = (states, *_general_answers(walk, states))
        states, value, member, orders = answers[k]
        if kind == "member":
            assert session.member(f, budget) == MembershipVerdict(
                member if member is not None and member <= budget else None,
                budget)
        elif kind == "value_of":
            assert session.value_of(f, budget) == (
                value if value is not None and value[1] <= budget else None)
        elif kind == "w_approx":
            assert session.w_approx(f, reference, budget).approximants == \
                _ratios(orders, reference_orders)[:budget + 1]
        elif kind == "e_approx":
            assert session.e_approx(f, budget) == stepped_e_approx(
                AnalysisSession(walk), f, budget)
        elif kind == "state_at":
            got = session.state_at(f, budget)
            assert (got.exponents, got.num, got.den) == states[budget]
        else:
            assert session.ord_at(f, budget) == orders[budget]


def test_an_idle_negative_exponent_keeps_one_state():
    """x/z is monomial at stage 0 on ex3.7-3d and z never moves, so the
    queries read every stage from the stage-0 exponents and keep nothing
    else."""
    session = AnalysisSession(get_example("ex3.7-3d").source)
    f, x = el("x/z", session), el("x", session)
    assert session.member(f, 1000) == MembershipVerdict(None, 1000)
    # ord_n(x/z) / ord_n(x) is -(2^k - 1)/2^(k-1) at n = 2k - 1 and 2k
    assert session.w_approx(f, x, 1000).approximants[-3:] == [
        -F(2 ** 499 - 1, 2 ** 498), -F(2 ** 500 - 1, 2 ** 499),
        -F(2 ** 500 - 1, 2 ** 499)]
    assert session.e_approx(f, 1000) == MembershipVerdict(None, 1000)
    assert len(session._states[f]) == len(session._states[x]) == 1
    assert session._touched[2] == 0
    # stages asked for past the first monomial stage are not kept either
    assert session.ord_at(f, 999) == -(2 ** 500 - 1)
    assert session.state_at(f, 1000).exponents == (-(2 ** 500 - 2),
                                                   -(2 ** 500 - 1), -1)
    g = el("(y - x)^4/(x^3*y^2)", session)  # monomial from stage 1
    trace = session.e_approx(g, 1000)
    assert trace.start == 3
    assert trace == stepped_e_approx(
        AnalysisSession(get_example("ex3.7-3d").source), g, 1000)
    assert len(session._states[f]) == 1
    assert len(session._states[g]) == 2


def test_e_approx_after_w_approx_substitutes_nothing(monkeypatch):
    session = AnalysisSession(get_example("ex3.7-2d").source)
    f = el("(y - x)^2*(x - 2*y)*(1 + x)/x^3", session)
    session.w_approx(f, el("x", session), 14)
    steps = record_calls(monkeypatch, AnalysisSession, "advance_state")
    substitutions = record_calls(monkeypatch, analysis, "substitute_terms")
    trace = session.e_approx(f, 12)
    assert steps == substitutions == []
    assert trace == stepped_e_approx(
        AnalysisSession(get_example("ex3.7-2d").source), f, 12)


@pytest.mark.parametrize("name", example_names())
def test_e_approx_matches_the_stepped_oracle(name):
    """e_approx against the stepping loop on random elements and on stage
    coordinates, first on a fresh session and after other queries."""
    source = get_example(name).source
    oracle = AnalysisSession(source)
    rng = random.Random(20261019)
    budgets = range(6, 41)
    fresh = AnalysisSession(source)
    for i in range(100):
        if name == "ex3.7-3d":
            # z never pivots there, and a part that mixes z into the
            # leading form of x and y grows its states sevenfold every two
            # stages; the stage coordinates below carry z
            f = el(str(random_rf(rng, XY)), oracle)
        else:
            f = random_rf(rng, oracle.bases)
        budget = budgets[i % len(budgets)]
        assert fresh.e_approx(f, budget) == stepped_e_approx(
            oracle, f, budget), (str(f), budget)
    coords = _stage_coordinates(oracle, 8) + _stage_coordinates(oracle, 3)
    for budget in (6, 17, 40):
        # first query on each element, then after w_approx stored fewer
        # stages than the trace reads, then with every stage cached
        sessions = [AnalysisSession(source) for _ in range(3)]
        reference = RationalFunction.variable(oracle.bases[0], oracle.bases)
        for f in coords:
            want = stepped_e_approx(oracle, f, budget)
            sessions[1].w_approx(f, reference, budget // 2)
            sessions[2].value_of(f, budget)
            sessions[2].state_at(f, budget)
            for session in sessions:
                assert session.e_approx(f, budget) == want, (
                    name, str(f), budget)


# -- agreement with explicit charts ---------------------------------------------------

def test_session_orders_match_chart_orders(two_var):
    texts = ["y - x", "x", "x*y", "(y - x)/x^2", "y - x - x^2"]
    chart = Chart.initial(two_var.bases)
    charts = [chart]
    for n in range(1, 4):
        chart = apply_directive(chart, two_var.source.directive_at(n))
        charts.append(chart)
    for text in texts:
        f = el(text, two_var)
        for n, c in enumerate(charts):
            assert two_var.ord_at(f, n) == ord_n(f, c)


# -- classification -------------------------------------------------------------------

def test_classify_fully_scaling_program_is_unknown(two_var):
    outcome = classify_shannon(two_var.source)
    assert outcome.kind == "Unknown"
    assert "every coordinate pivots" in outcome.reason
    assert outcome.witness is None


def test_classify_idle_coordinate_witnesses_nonvaluation(three_var):
    outcome = classify_shannon(three_var.source)
    assert outcome.kind == "ArchimedeanNonValuation"
    assert outcome.witness == "z"
    assert "converges to 3" in outcome.reason
    assert "never a pivot" in outcome.reason
    assert outcome.multiplicity.kind == "Convergent"
    assert outcome.multiplicity.limit == 3
    assert outcome.union_is_pullback is None


def test_classify_divergent_program_is_a_valuation_ring(nonarch):
    outcome = classify_shannon(get_example("nonarch2d").quotient)
    assert outcome.kind == "ValuationRing"
    assert "diverges" in outcome.reason


def test_classify_series_trace_is_a_valuation_ring(curve_dvr):
    source = curve_dvr.source
    assert isinstance(source, SeriesDVR)
    outcome = classify_shannon(source)
    assert outcome.kind == "ValuationRing"
    assert "multiplicity 1" in outcome.reason


def test_classify_rational_series_follows_a_curve():
    """y -> tau(x) sends (1 - x^2) y - x + x^2/2 to 0 when tau is
    periodic(1,-1/2), so the union is no series valuation ring."""
    source = load_config_text(
        "[vars]\nx y\n[series]\ny = periodic(1,-1/2)\n", "curve").source
    outcome = classify_shannon(source)
    assert outcome.kind == "ValuationRing"
    assert outcome.multiplicity.kind == "Divergent"
    assert outcome.reason == (
        "every stage has multiplicity 1, so the multiplicity sum diverges "
        "and the union is a valuation ring; the series is rational, so the "
        "walk follows the curve it parametrizes")


def test_classify_needs_enough_passes(two_var, monkeypatch):
    program = parse_program(
        "[vars]\nx y z\n[values]\nx = 1\ny = 1\nz = 3073/1024\n"
        "[period]\npivot=x translate y:1->1/2\npivot=y\n")
    tight = classify_shannon(program)
    assert tight.kind == "Unknown"
    assert tight.reason == "no stable pass ratio within 8 passes"
    monkeypatch.setattr("lqt.programs.MAX_PASSES", 12)
    roomy = classify_shannon(program)
    assert roomy.kind == "ArchimedeanNonValuation"
    assert roomy.witness == "z"


@pytest.mark.parametrize("name, prime", [("nonarch2d", "(y)"),
                                         ("ex5.3-shape", "(z)")])
def test_classify_lifted_divergent_walk_is_the_full_pullback(name, prime):
    outcome = classify_shannon(get_example(name).source)
    assert outcome.kind == "NonArchimedean"
    assert outcome.union_is_pullback is True
    assert outcome.multiplicity.kind == "Divergent"
    assert f"the full pullback along {prime}" in outcome.reason


def test_classify_lifted_convergent_walk_is_unknown():
    quotient = parse_program(
        "[vars]\nx y\n[values]\nx = 1\ny = 1\n"
        "[period]\npivot=x translate y:1->1/2\npivot=y\n")
    lifted = LiftedTrace(quotient, CoordinatePrime(("x", "y", "z"), ("z",)))
    outcome = classify_shannon(lifted)
    assert outcome.kind == "Unknown"
    assert outcome.union_is_pullback is False
    assert outcome.multiplicity.limit == 3
    assert "may be smaller than the pullback along (z)" in outcome.reason


def test_classify_rejects_other_sources():
    with pytest.raises(TypeError, match="cannot classify"):
        classify_shannon(42)


def test_shannon_class_equality():
    a = ShannonClass("ValuationRing", "first reason")
    assert a == ShannonClass("ValuationRing", "first reason")
    assert a != ShannonClass("ValuationRing", "second reason")
    assert a != ShannonClass("ValuationRing", "first reason",
                             union_is_pullback=False)
    assert a != ShannonClass("Unknown", "first reason")
