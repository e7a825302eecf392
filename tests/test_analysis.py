"""Tests for the stage analysis engine: membership, exact values, limit
approximants, and the union ring classifier."""

from fractions import Fraction

import pytest

from lqt import (CoordinatePrime, LimitTrace, MembershipVerdict, POS_INF,
                 ShannonClass, SeriesTrace, classify_shannon, get_example,
                 lift_along, ord_n, parse_program)
from conftest import el

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

@pytest.mark.parametrize("text, value, stage", [
    ("x", F(1), 0),
    ("y/x", F(0), 0),
    ("y/x^2", F(-1), 0),
    ("y - x", F(3, 2), 1),
    ("(y - x)/x^2", F(-1, 2), 1),
    ("x*y^2", F(3), 0),
])
def test_value_hand_cases(two_var, text, value, stage):
    assert two_var.value_of(el(text, two_var)) == (value, stage)


def test_value_undecided_for_stubborn_elements(two_var):
    """1 + x never reduces to a monomial: it is a unit, normalized to 1 with
    exponent zero, so it resolves immediately instead."""
    assert two_var.value_of(el("1 + x", two_var)) == (F(0), 0)
    assert two_var.value_of(el("y - x - x^2", two_var),
                            budget=2) == (F(3, 2), 2)


def test_value_in_three_variables(three_var):
    assert three_var.value_of(el("z", three_var)) == (F(4), 0)
    assert three_var.value_of(el("(y - x)/z", three_var)) == (F(-5, 2), 1)


def test_value_with_infinite_coordinate(nonarch):
    assert nonarch.value_of(el("y", nonarch)) == (POS_INF, 0)
    assert nonarch.value_of(el("x*y", nonarch)) == (POS_INF, 0)
    assert nonarch.value_of(el("x", nonarch)) == (F(1), 0)


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
        value_vector_at = source.value_vector_at

        def directive_at(self, n):
            calls.append(n)
            return source.directive_at(n)

    session = AnalysisSession(Counted())
    for text in ["y - x", "y/x^2", "(y - x)/x^2"]:
        session.e_approx(el(text, session), budget=6)
    assert calls == [1, 2, 3, 4, 5, 6]


# -- agreement with explicit charts ---------------------------------------------------

def test_session_orders_match_chart_orders(two_var):
    from lqt import Chart, apply_directive
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
    assert isinstance(source, SeriesTrace)
    outcome = classify_shannon(source)
    assert outcome.kind == "ValuationRing"
    assert "multiplicity 1" in outcome.reason


def test_classify_needs_enough_passes(two_var):
    program = parse_program(
        "[vars]\nx y z\n[values]\nx = 1\ny = 1\nz = 3073/1024\n"
        "[period]\npivot=x translate y:1->1/2\npivot=y\n")
    tight = classify_shannon(program)
    assert tight.kind == "Unknown"
    assert tight.reason == "no stable pass ratio within 8 passes"
    roomy = classify_shannon(program, max_passes=12)
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
    lifted = lift_along(quotient, CoordinatePrime(("x", "y", "z"), ("z",)))
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
    b = ShannonClass("ValuationRing", "second reason")
    assert a == b
    assert a != ShannonClass("Unknown", "first reason")
