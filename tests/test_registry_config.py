"""Tests for the built-in example registry and user config loading."""

from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from lqt import (ConfigError, FactorialGaps, GeometricGaps, POS_INF,
                 SeriesDVR, ValuationProgram, example_names, get_example,
                 load_config_file, load_config_text, parse_program)
from helpers import (PROGRAM_FRAGMENTS, PROGRAM_SHAPES, fuzz_texts,
                     stage_values)

F = Fraction

PROGRAM_TEXT = """\
[vars]
u v
[values]
u = 1
v = 2
[period]
pivot=u
"""


# -- the registry ---------------------------------------------------------------------

def test_example_names_are_stable():
    assert example_names() == [
        "ex3.7-2d", "ex3.7-3d", "ex5.3-shape", "nonarch2d", "dvr-curve"]


def test_builtin_shapes():
    two = get_example("ex3.7-2d")
    assert two.kind == "program"
    assert two.ambient == ("x", "y")
    assert isinstance(two.source, ValuationProgram)
    assert not two.has_pullback

    shape = get_example("ex5.3-shape")
    assert shape.kind == "pullback"
    assert shape.ambient == ("x", "y", "z")
    assert shape.prime.generators == ("z",)
    assert shape.quotient == SeriesDVR(("x", "y"), GeometricGaps(2))
    assert shape.has_pullback
    assert shape.prime is shape.source.prime
    assert shape.quotient is shape.source.quotient

    curve = get_example("dvr-curve")
    assert curve.kind == "series"
    assert curve.source == SeriesDVR(("x", "y"), FactorialGaps())
    assert curve.prime is None
    assert curve.quotient is None

    nonarch = get_example("nonarch2d")
    assert nonarch.kind == "pullback"
    assert isinstance(nonarch.quotient, ValuationProgram)
    assert nonarch.quotient.bases == ("x",)
    assert nonarch.prime is nonarch.source.prime
    assert nonarch.quotient is nonarch.source.quotient


def test_alias_resolves_to_the_three_variable_example():
    assert get_example("ex3.7").name == "ex3.7-3d"


def test_unknown_example_lists_the_names():
    with pytest.raises(KeyError) as info:
        get_example("nope")
    message = str(info.value)
    assert "unknown example 'nope'" in message
    assert "ex3.7-2d" in message and "dvr-curve" in message


def test_each_lookup_builds_a_fresh_example():
    a = get_example("ex3.7-2d")
    b = get_example("ex3.7-2d")
    assert a is not b
    assert a.source is not b.source
    assert a.session is a.session


def test_builtins_read_no_text(monkeypatch):
    """Every builtin is built from values: none goes through the program
    text reader."""
    def refuse(text):
        raise AssertionError("a builtin read program text")

    monkeypatch.setattr("lqt.programs.split_sections", refuse)
    for name in example_names():
        stage_values(get_example(name).source, 4)


# -- program configs ------------------------------------------------------------------

def test_program_config(tmp_path):
    example = load_config_text(PROGRAM_TEXT, "mine")
    assert example.name == "mine"
    assert example.kind == "program"
    assert example.source == parse_program(PROGRAM_TEXT)
    path = tmp_path / "walk.vp"
    path.write_text(PROGRAM_TEXT, encoding="utf-8")
    from_file = load_config_file(str(path))
    assert from_file.name == "walk"
    assert from_file.source == example.source


def test_series_config():
    example = load_config_text(
        "[vars]\nx y\n[series]\ny = geometric(3)\n", "geo")
    assert example.kind == "series"
    assert example.source == SeriesDVR(("x", "y"), GeometricGaps(3))
    prefixed = load_config_text(
        "[vars]\nx y\n[series]\nseries y = factorial\n", "fac")
    assert prefixed.source == SeriesDVR(("x", "y"), FactorialGaps())


def test_pullback_config_with_series_quotient():
    example = load_config_text(
        "[vars]\nx y z\n[pullback]\nprime = [z]\nseries y = factorial\n",
        "lifted")
    assert example.kind == "pullback"
    assert example.prime.generators == ("z",)
    assert example.quotient == SeriesDVR(("x", "y"), FactorialGaps())
    assert example.prime is example.source.prime
    assert example.quotient is example.source.quotient
    assert stage_values(example.source, 0) == (F(1), F(1), POS_INF)


def test_pullback_config_with_program_quotient():
    example = load_config_text(
        "[vars]\nx y\n[pullback]\nprime = [y]\n"
        "[values]\nx = 1\n[period]\npivot=x\n", "xadic")
    assert example.kind == "pullback"
    assert isinstance(example.quotient, ValuationProgram)
    assert example.quotient.bases == ("x",)
    assert example.prime is example.source.prime
    assert example.quotient is example.source.quotient
    assert stage_values(example.source, 0) == (F(1), POS_INF)


@pytest.mark.parametrize("text, fragment", [
    ("[vars]\nx y\n[junk]\nz", "unknown section [junk]"),
    ("[vars]\nx y\n[series]\ny = factorial\n[pullback]\nprime = [y]",
     "cannot be combined"),
    ("[values]\nx = 1\n[period]\npivot=x", "missing section [vars]"),
    ("pivot=x\n[vars]\nx", "content before the first section"),
    ("[vars]\nx y\n[series]\ny = factorial\ny = factorial",
     "exactly one <var> = <form> line"),
    ("[vars]\nx y\n[values]\nx = 1\n[series]\ny = factorial",
     "does not belong in a series config"),
    ("[vars]\nx\n[series]\nx = factorial", "needs exactly two variables"),
    ("[vars]\nx y\n[series]\nx = factorial", "must be the last one (y)"),
    ("[vars]\nx y\n[series]\ny = waves", "unknown series form"),
    ("[vars]\nx y z\n[pullback]\nprime = [z]\nprime = [z]", "prime given twice"),
    ("[vars]\nx y z\n[pullback]\nprime = [z]\nseries y = factorial\n"
     "series y = factorial", "series given twice"),
    ("[vars]\nx y z\n[pullback]\nprime = [z]\nchop", "expected prime"),
    ("[vars]\nx y z\n[pullback]\nseries y = factorial",
     "needs a prime = [...] line"),
    ("[vars]\nx y z\n[pullback]\nprime = [w]\nseries y = factorial",
     "not a variable"),
    ("[vars]\nx y z\n[pullback]\nprime = [z]\nseries y = factorial\n"
     "[values]\nx = 1", "not both"),
    ("[vars]\nx y z\n[pullback]\nprime = [z]", "needs a quotient"),
    ("[vars]\nx y\n[pullback]\nprime = [y]\nseries x = factorial",
     "needs exactly two variables"),
    ("[vars]\nx y z\n[pullback]\nprime = [z]\n[values]\nx = 1\n"
     "[period]\npivot=x", "no value given for y"),
    ("[vars]\nx y\n[values]\nx = 1\ny = 1\n[period]\npivot=q",
     "unknown pivot variable"),
    ("[vars]\nx x\n[values]\nx = 1\n[period]\npivot=x",
     "duplicate variable names"),
    ("[vars]\nx y z\n[pullback]\nprime = [z]\nseries y",
     "expected <var> = <form>"),
])
def test_config_errors(text, fragment):
    with pytest.raises(ConfigError) as info:
        load_config_text(text, "bad")
    assert fragment in str(info.value)


def test_readme_config_blocks_load():
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    blocks = [b for b in readme.split("```")[1::2] if "[vars]" in b]
    kinds = [load_config_text(text, "readme").kind for text in blocks]
    assert kinds == ["program", "series", "pullback"]


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)


# well-formed configs of all three shapes for the fuzz test, and pieces of
# their lines, some wrong
_CONFIG_SHAPES = PROGRAM_SHAPES | st.sampled_from([
    "[vars]\nx y\n[series]\ny = factorial\n",
    "[series]\ny = periodic(1, 0, 2/3)\n[vars]\nx, y\n",
    "[vars]\nx y z\n[pullback]\nprime = [z]\nseries y = geometric(2)\n",
    "[vars]\nx y z\n[pullback]\nprime = [y]\n"
    "[values]\nx = 1\nz = 2\n[period]\npivot=x\n",
])
_CONFIG_FRAGMENTS = PROGRAM_FRAGMENTS + [
    "[series]\n", "[pullback]\n", "prime = [z]", "prime = [y, z]",
    "prime = [x, y, z]", "prime = []", "series ", "y = ", "factorial",
    "geometric(1)", "periodic(0)", "periodic(1/0)", "x y z"]


@settings(deadline=None, max_examples=200)
@given(fuzz_texts(_CONFIG_SHAPES, _CONFIG_FRAGMENTS))
def test_any_text_loads_an_example_or_raises_config_error(text):
    try:
        example = load_config_text(text, "fuzz")
    except ConfigError:
        return
    assert example.kind in ("program", "series", "pullback")
