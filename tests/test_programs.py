"""Tests for valuation programs: steps, value evolution, classification,
and the text format."""

import itertools
import json
import os
import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from lqt import (Directive, Infinite, MultiplicityClass, NEG_INF, POS_INF,
                 ProgramConsistencyError, ProgramError, ProgramFormatError,
                 ProgramStep, ValuationProgram, classify_multiplicity,
                 classify_shannon, get_example, multiplicity_sequence,
                 parse_program)
from lqt.cli import main
from lqt.config import load_config_file
from helpers import (BAD_STEP_LINES, PROGRAM_FRAGMENTS, PROGRAM_SHAPES,
                     bad_step_program, fuzz_texts, scaled_step,
                     serialize_program, stage_values, two_loop_next_values)

F = Fraction


def two_var_program() -> ValuationProgram:
    return get_example("ex3.7-2d").source


def three_var_program() -> ValuationProgram:
    return get_example("ex3.7-3d").source


# -- infinite values ----------------------------------------------------------------

def test_infinite_repr_and_equality():
    assert str(POS_INF) == "inf"
    assert str(NEG_INF) == "-inf"
    assert POS_INF == Infinite(1)
    assert POS_INF != NEG_INF
    assert hash(POS_INF) == hash(Infinite(1))
    assert -POS_INF == NEG_INF
    assert -NEG_INF == POS_INF


def test_infinite_addition():
    assert POS_INF + 5 == POS_INF
    assert F(1, 2) + POS_INF == POS_INF
    assert NEG_INF + NEG_INF == NEG_INF
    with pytest.raises(ArithmeticError):
        POS_INF + NEG_INF


def test_infinite_scaling():
    assert POS_INF * 2 == POS_INF
    assert F(-1, 3) * POS_INF == NEG_INF
    assert NEG_INF * -1 == POS_INF
    with pytest.raises(ArithmeticError):
        POS_INF * 0


def test_infinite_ordering():
    assert NEG_INF < F(-100) < POS_INF
    assert POS_INF > 100
    assert not POS_INF < POS_INF
    assert POS_INF <= POS_INF
    assert POS_INF >= F(7)
    assert F(7) < POS_INF
    assert sorted([POS_INF, F(0), NEG_INF], key=lambda v: (v > NEG_INF, v)) \
        == [NEG_INF, F(0), POS_INF]
    assert NEG_INF <= 0
    assert not NEG_INF > 0
    assert not NEG_INF >= 0
    assert POS_INF > NEG_INF
    with pytest.raises(TypeError):
        POS_INF < "a"


def test_infinite_is_immutable():
    with pytest.raises(AttributeError):
        POS_INF.sign = -1


# -- single steps -------------------------------------------------------------------

def test_step_rejects_nonpositive_factor():
    with pytest.raises(ProgramError, match="must be positive"):
        ProgramStep(0, [(1, F(1), F(0))])
    with pytest.raises(ProgramError, match="must be positive"):
        ProgramStep(0, [(1, F(1), F(-1, 2))])


def test_step_serialization():
    step = ProgramStep(0, [(1, F(1), F(1, 2))])
    assert step.describe(("x", "y")) == "pivot=x translate y:1->1/2"
    assert ProgramStep(1).describe(("x", "y")) == "pivot=y"


def test_step_equality_and_hash():
    a = ProgramStep(0, [(1, F(1), F(1, 2))])
    b = ProgramStep(0, [(1, F(1), F(1, 2))])
    assert a == b
    assert hash(a) == hash(b)
    assert a != ProgramStep(0, [(1, F(2), F(1, 2))])


def test_step_is_immutable():
    step = ProgramStep(0)
    with pytest.raises(AttributeError):
        step.pivot = 1


# -- value evolution ----------------------------------------------------------------

def test_next_values_translated_and_untranslated():
    bases = ("x", "y")
    step = ProgramStep(0, [(1, F(1), F(1, 2))])
    # (1, 1) over 1 becomes (2, 1) over 2
    assert step.next_values((1, 1), 1, 1, bases) == ((2, 1), 2)
    assert scaled_step(step, (F(1), F(1)), 1, bases) == (F(1), F(1, 2))
    plain = ProgramStep(0)
    assert plain.next_values((1, 3), 1, 1, bases) == ((1, 2), 1)
    assert scaled_step(plain, (F(1), F(3)), 1, bases) == (F(1), F(2))


def test_next_values_requires_minimal_pivot():
    step = ProgramStep(0)
    with pytest.raises(ProgramConsistencyError,
                       match="pivot value 1 is not minimal") as info:
        scaled_step(step, (F(1), F(1, 2)), 2, ("x", "y"))
    assert info.value.stage == 2
    assert info.value.coordinate == "x"


def test_next_values_translated_must_match_pivot():
    step = ProgramStep(0, [(1, F(1), F(1, 2))])
    with pytest.raises(ProgramConsistencyError,
                       match="must equal the pivot value") as info:
        scaled_step(step, (F(1), F(2)), 3, ("x", "y"))
    assert info.value.coordinate == "y"


def test_next_values_untranslated_must_exceed_pivot():
    step = ProgramStep(0)
    with pytest.raises(ProgramConsistencyError,
                       match="must be translated"):
        scaled_step(step, (F(1), F(1)), 1, ("x", "y"))


def _outcome(call):
    """The result of call, or the type, message, stage and coordinate of
    the consistency error it raises."""
    try:
        return call()
    except ProgramConsistencyError as exc:
        return type(exc), str(exc), exc.stage, exc.coordinate


def test_next_values_matches_the_two_loop_form():
    """One comparison per coordinate gives the values, or the error, that
    checking every value against the pivot's first and each coordinate's
    own rule second gives."""
    bases = ("x", "y", "z")
    steps = [ProgramStep(0),
             ProgramStep(0, [(1, F(1), F(1, 2)), (2, F(-1), 3)]),
             ProgramStep(1, [(0, F(2), F(3, 2))])]
    grid = (F(1, 2), 1, 2, 3)
    for step in steps:
        for values in itertools.product(grid, repeat=3):
            new = _outcome(lambda: scaled_step(step, values, 4, bases))
            old = _outcome(lambda: two_loop_next_values(step, values, 4,
                                                        bases))
            assert new == old, (step, values)
    # y shares the pivot value, which alone would ask for a translation,
    # but z below the pivot value is reported first
    assert _outcome(lambda: scaled_step(
        ProgramStep(0), (1, 1, F(1, 2)), 4, bases)) == (
        ProgramConsistencyError,
        "stage 4, coordinate x: pivot value 1 is not minimal: z has value "
        "1/2", 4, "x")


def test_program_constructor_errors():
    step = ProgramStep(0)
    with pytest.raises(ProgramError, match="duplicate variable"):
        ValuationProgram(("x", "x"), [F(1), F(1)], (), (step,))
    with pytest.raises(ProgramError, match="at least one variable"):
        ValuationProgram((), [], (), (step,))
    with pytest.raises(ProgramError, match="2 variables but 1 values"):
        ValuationProgram(("x", "y"), [F(1)], (), (step,))
    with pytest.raises(ProgramError, match="must be positive"):
        ValuationProgram(("x",), [F(0)], (), (step,))
    with pytest.raises(ProgramError, match="at least one step"):
        ValuationProgram(("x",), [F(1)], (), ())
    with pytest.raises(ValueError, match="out of range"):
        ValuationProgram(("x",), [F(1)], (), (ProgramStep(1),))


def test_step_indexing_follows_preperiod_then_cycle():
    a = ProgramStep(0, [(1, F(1), F(1, 2))])
    b = ProgramStep(1)
    c = ProgramStep(0, [(1, F(2), F(1, 3))])
    program = ValuationProgram(("x", "y"), [F(1), F(1)], (a,), (b, c))
    steps = [program.directive_at(n) for n in (1, 2, 3, 4, 5)]
    assert steps == [a, b, c, b, c]
    # the program's step is the directive itself, factors and all
    assert program.directive_at(1) is a
    assert (a.pivot, a.translations, a.factors) == (0, ((1, 1),), (F(1, 2),))
    with pytest.raises(ValueError, match="out of range"):
        program.directive_at(0)


def test_two_var_value_vectors():
    expected = [(F(1), F(1)),
                (F(1), F(1, 2)),
                (F(1, 2), F(1, 2)),
                (F(1, 2), F(1, 4)),
                (F(1, 4), F(1, 4))]
    program = two_var_program()
    for n, want in enumerate(expected):
        assert program.value_vector_at(n) == want
    with pytest.raises(ValueError, match="out of range"):
        program.value_vector_at(-1)


def test_three_var_extra_coordinate_drains():
    program = three_var_program()
    z_values = [program.value_vector_at(n)[2] for n in range(5)]
    assert z_values == [F(4), F(3), F(5, 2), F(2), F(7, 4)]
    assert program.value_vector_at(20)[2] > F(1)


def test_value_vectors_are_kept_and_failures_repeat():
    program = two_var_program()
    far = program.scaled_vector_at(6)
    assert program.value_vector_at(3) == two_var_program().value_vector_at(3)
    assert program.scaled_vector_at(6) is far
    drifting = ValuationProgram(("u", "v"), [F(1), F(3, 2)], (),
                                (ProgramStep(0),))
    assert drifting.value_vector_at(1) == (F(1), F(1, 2))
    for _ in range(2):
        with pytest.raises(ProgramConsistencyError,
                           match="^stage 2, coordinate u: pivot value 1 is "
                                 "not minimal"):
            drifting.value_vector_at(5)
    assert drifting.value_vector_at(1) == (F(1), F(1, 2))


def test_multiplicity_sequence_hand_values():
    program = two_var_program()
    assert multiplicity_sequence(program, 7) == [
        F(1), F(1, 2), F(1, 2), F(1, 4), F(1, 4), F(1, 8), F(1, 8)]
    assert multiplicity_sequence(program, 0) == []
    with pytest.raises(ValueError, match="nonnegative"):
        multiplicity_sequence(program, -1)


def _is_value(v) -> bool:
    """An int, an infinity or a Fraction that is not whole: never a float."""
    return (type(v) in (int, Infinite)
            or (type(v) is Fraction and v.denominator > 1))


def test_stage_values_are_ints_when_whole(capsys):
    alt3 = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "configs", "alt3.cfg")
    names = ("ex3.7-2d", "ex3.7-3d", "ex5.3-shape", "nonarch2d", "dvr-curve")
    examples = [get_example(name) for name in names] + [load_config_file(alt3)]
    flags = [["--example", name] for name in names] + [["--config", alt3]]
    for example, flag in zip(examples, flags):
        source = example.source
        for n in range(301):
            values = stage_values(source, n)
            assert all(_is_value(v) for v in values), (example.name, n,
                                                        values)
            if n:
                # series and lifted steps keep their constants the same way
                step = source.directive_at(n)
                assert all(_is_value(c) for _, c in step.translations), (
                    example.name, n, step)
        entries = multiplicity_sequence(source, 301)
        assert all(_is_value(m) for m in entries), example.name
        # the CLI adds the minima over the lcm of their denominators
        assert main(["multiplicity", *flag, "--steps", "301", "--sum"]) == 0
        line = json.loads(capsys.readouterr().out)
        assert line["sum"] == str(sum(entries, F(0))), example.name
        outcome = classify_shannon(source).multiplicity
        # the limit and the pass ratio are exact, Fractions even when whole
        assert outcome.limit is None or type(outcome.limit) is Fraction
        for ratio in re.findall(r"ratio (\S+)", outcome.detail):
            assert "." not in ratio, (example.name, outcome.detail)
    assert type(stage_values(get_example("dvr-curve").source, 1)[1]) is int
    whole = ProgramStep(0, [(1, F(2), F(4, 2))])
    ((j, c),), (r,) = whole.translations, whole.factors
    assert [type(part) for part in (j, c, r)] == [int, int, int]
    ((_, constant),) = Directive(0, [(1, F(4, 2))]).translations
    assert type(constant) is int
    with pytest.raises(TypeError, match="float"):
        ValuationProgram(("x",), [0.5], (), (ProgramStep(0),))
    with pytest.raises(TypeError, match="float"):
        ProgramStep(0, [(1, 1, 0.5)])
    with pytest.raises(TypeError, match="float"):
        Directive(0, [(1, 0.5)])


# -- multiplicity classification ------------------------------------------------------

def test_classify_fully_scaling_pair():
    result = classify_multiplicity(two_var_program())
    assert result.kind == "Convergent"
    assert result.limit == F(3)
    assert result.detail == "pass ratio 1/2 from pass 1"
    assert result.nonscaling == ()


def test_classify_split_with_idle_coordinate():
    result = classify_multiplicity(three_var_program())
    assert result.kind == "Convergent"
    assert result.limit == F(3)
    assert result.detail == "pass ratio 1/2 on 2 coordinates from pass 1"
    assert result.nonscaling == (2,)


def test_classify_single_variable_is_divergent():
    program = parse_program("[vars]\nx\n[values]\nx = 1\n[period]\npivot=x\n")
    result = classify_multiplicity(program)
    assert result.kind == "Divergent"
    assert result.detail == "pass ratio 1 from pass 1"


def test_classify_constant_translation_is_divergent():
    program = parse_program(
        "[vars]\nx y\n[values]\nx = 1\ny = 1\n"
        "[period]\npivot=x translate y:1->1\n")
    result = classify_multiplicity(program)
    assert result.kind == "Divergent"
    assert result.detail == "pass ratio 1 from pass 1"


def test_classify_walks_a_growing_program_into_its_inconsistent_stage():
    """u grows to 3/2 in the first pass, so the second pass cannot pivot v;
    one pass whose values do not decrease decides nothing."""
    program = parse_program(
        "[vars]\nu v\n[values]\nu = 1\nv = 1\n"
        "[period]\npivot=v translate u:1->3/2\n")
    with pytest.raises(ProgramConsistencyError,
                       match="^stage 2, coordinate u: ") as info:
        classify_multiplicity(program)
    assert info.value.stage == 2


def test_classify_needs_enough_passes_for_close_margins(monkeypatch):
    """An idle coordinate ending 1/1024 above the drained total separates
    from the scaled part only once the scaled values fall below that gap."""
    program = parse_program(
        "[vars]\nx y z\n[values]\nx = 1\ny = 1\nz = 3073/1024\n"
        "[period]\npivot=x translate y:1->1/2\npivot=y\n")
    tight = classify_multiplicity(program)
    assert tight.kind == "Undecided"
    assert tight.detail == "no stable pass ratio within 8 passes"
    monkeypatch.setattr("lqt.programs.MAX_PASSES", 12)
    roomy = classify_multiplicity(program)
    assert roomy.kind == "Convergent"
    assert roomy.limit == F(3)
    assert roomy.detail == "pass ratio 1/2 on 2 coordinates from pass 11"
    assert roomy.nonscaling == (2,)


@pytest.mark.parametrize("text", [
    # y scales by 2/9 in pass 1 and x, which step 2 pivots, does not
    "[vars]\nx y\n[values]\nx = 4/3\ny = 3/4\n[period]\npivot=y\n"
    "pivot=x\n",
    # x and y halve in pass 1 and z, which step 1 translates, does not
    "[vars]\nx y z\n[values]\nx = 1\ny = 1\nz = 1\n[period]\n"
    "pivot=y translate x:1->1/2 translate z:1->4\npivot=x\n",
], ids=["pivots", "translates"])
def test_classify_refuses_a_period_that_moves_a_nonscaling_coordinate(
        monkeypatch, text):
    """The coordinate off the pass ratio ends pass 1 high enough that the
    drained floor alone would clear the scaled part, but the period moves
    it, so pass 1 decides nothing.  Pass 2 of each program is
    inconsistent, so one pass is all there is to classify."""
    monkeypatch.setattr("lqt.programs.MAX_PASSES", 1)
    result = classify_multiplicity(parse_program(text))
    assert result == MultiplicityClass(
        "Undecided", detail="no stable pass ratio within 1 passes")


def test_classification_equality_uses_every_field():
    a = MultiplicityClass("Convergent", F(3), detail="one")
    assert a == MultiplicityClass("Convergent", F(3), detail="one")
    assert a != MultiplicityClass("Convergent", F(3), detail="two")
    assert a != MultiplicityClass("Convergent", F(3), detail="one",
                                  nonscaling=(2,))
    assert a != MultiplicityClass("Divergent")


# -- text format --------------------------------------------------------------------

def test_parse_serialize_round_trip():
    text = ("[vars]\nx y\n[values]\nx = 1\ny = 1\n"
            "[preperiod]\npivot=x translate y:-2->3/2\n"
            "[period]\npivot=y translate x:1->1/2\npivot=x\n")
    program = parse_program(text)
    assert len(program.preperiod) == 1
    step = program.preperiod[0]
    assert (step.translations, step.factors) == (((1, F(-2)),), (F(3, 2),))
    out = serialize_program(program)
    again = parse_program(out)
    assert again == program
    assert serialize_program(again) == out


def test_parse_accepts_commas_and_comments():
    text = ("# leading comment\n[vars]\nx, y\n[values]\n"
            "x = 1  # unit value\ny = 2\n[period]\npivot=x\n")
    program = parse_program(text)
    assert program.bases == ("x", "y")
    assert program.initial_values == (F(1), F(2))


@pytest.mark.parametrize("text, fragment", [
    ("pivot=x\n[vars]\nx", "content before the first section"),
    ("[vars]\nx\n[vars]\ny", "duplicate section [vars]"),
    ("[vars]\nx\n[period]\npivot=x", "missing section [values]"),
    ("[vars]\nx\n[values]\nx = 1", "missing section [period]"),
    ("[vars]\nx\n[values]\nx = 1/0\n[period]\npivot=x", "bad rational '1/0'"),
    ("[vars]\nx\n[values]\nx = 1\nx = 2\n[period]\npivot=x",
     "value of x given twice"),
    ("[vars]\nx y\n[values]\nx = 1\n[period]\npivot=x", "no value given for y"),
    ("[vars]\nx\n[values]\nbogus\n[period]\npivot=x",
     "expected <var> = <value>"),
    ("[vars]\nx\n[values]\ny = 1\n[period]\npivot=x", "unknown variable 'y'"),
    ("[vars]\nx\n[values]\nx = 1\n[period]\nstep one", "expected pivot=<var>"),
    ("[vars]\nx\n[values]\nx = 1\n[period]\npivot=q",
     "unknown pivot variable 'q'"),
    ("[vars]\nx y\n[values]\nx = 1\ny = 1\n[period]\npivot=x chop y",
     "expected translate"),
    ("[vars]\nx y\n[values]\nx = 1\ny = 1\n[period]\n"
     "pivot=x translate q:1->1", "unknown variable 'q'"),
    ("[vars]\nx\n[values]\nx = 1\n[period]\npivot=x\n[junk]\nz",
     "unknown section [junk]"),
])
def test_parse_program_errors(text, fragment):
    with pytest.raises(ProgramFormatError) as info:
        parse_program(text)
    assert fragment in str(info.value)


def test_format_errors_carry_line_numbers():
    with pytest.raises(ProgramFormatError) as info:
        parse_program("[vars]\nx\n[values]\nx = oops\n[period]\npivot=x")
    assert info.value.line == 4
    assert str(info.value).startswith("line 4:")


@pytest.mark.parametrize("line, message", BAD_STEP_LINES)
def test_step_faults_carry_line_numbers(line, message):
    with pytest.raises(ProgramFormatError) as info:
        parse_program(bad_step_program(line))
    assert info.value.line == 7
    assert str(info.value) == f"line 7: {message}"


@settings(deadline=None, max_examples=200)
@given(fuzz_texts(PROGRAM_SHAPES, PROGRAM_FRAGMENTS))
def test_any_text_parses_to_a_program_or_raises_program_error(text):
    try:
        program = parse_program(text)
    except ProgramError:
        return
    assert isinstance(program, ValuationProgram)
