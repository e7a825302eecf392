"""Directive validation, images and description."""

from __future__ import annotations

from fractions import Fraction

import pytest

from lqt import Directive, Polynomial
from helpers import XY


def test_directive_validation():
    with pytest.raises(ValueError):
        Directive(0, ((0, Fraction(1)),))
    with pytest.raises(ValueError):
        Directive(0, ((1, Fraction(1)), (1, Fraction(2))))
    with pytest.raises(ValueError):
        Directive(0, ((1, Fraction(0)),))
    with pytest.raises(ValueError, match="pivot index -1 out of range"):
        Directive(-1)
    with pytest.raises(ValueError, match="translation index -1 out of range"):
        Directive(0, ((-1, Fraction(1)),))


def test_directive_dimension_check():
    d = Directive(2)
    with pytest.raises(ValueError):
        d.check_dimension(2)
    d.check_dimension(3)


def test_directive_images():
    u, v = (Polynomial.variable(name, ("u", "v")) for name in ("u", "v"))
    two = Polynomial.constant(2, ("u", "v"))
    assert Directive(0).images(("u", "v")) == (u, u * v)
    assert Directive(1, ((0, Fraction(2)),)).images(("u", "v")) == (
        v * (u + two), v)
    with pytest.raises(ValueError):
        Directive(2).images(("u", "v"))


def test_directive_describe():
    d = Directive(0, ((1, Fraction(1)),))
    assert d.describe(XY) == "pivot=x translate y:1"
    assert Directive(1).describe(XY) == "pivot=y"
