"""Chart construction, coordinate rewriting and local-ring predicates.

The forward/backward round trip is the core exactness check: rewriting an
element in stage-n coordinates and then substituting each stage coordinate
by its expression over the base field must reproduce the element.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lqt import (Directive, Polynomial, RationalFunction, get_example,
                 parse_expr)
from helpers import (XY, Chart, apply_directive, express_in_chart, in_ring,
                     monomial_unit_split, ord_n, random_rf)


def charts_for(name: str, depth: int) -> list[Chart]:
    """Charts 0..depth following a builtin example's directives."""
    example = get_example(name)
    charts = [Chart.initial(example.ambient)]
    for n in range(1, depth + 1):
        charts.append(apply_directive(charts[-1],
                                      example.source.directive_at(n)))
    return charts


def forward_images(name: str, depth: int) -> list[dict[str, RationalFunction]]:
    """Stage coordinates written over the base field, per stage.

    Inverts each directive: the pivot is unchanged, a coordinate translated
    by c becomes old/pivot - c, and any other becomes old/pivot.
    """
    example = get_example(name)
    bases = example.ambient
    current = {b: RationalFunction.variable(b, bases) for b in bases}
    images = [dict(current)]
    for n in range(1, depth + 1):
        d = example.source.directive_at(n)
        pivot = current[bases[d.pivot]]
        stage: dict[str, RationalFunction] = {}
        for j, b in enumerate(bases):
            if j == d.pivot:
                stage[b] = pivot
            else:
                c = d.translation_of(j)
                img = current[b] / pivot
                if c:
                    img = img - RationalFunction.constant(c, bases)
                stage[b] = img
        current = stage
        images.append({f"{b}_{n}": current[b] for b in bases})
    return images


# -- directives ----------------------------------------------------------------

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


# -- chart construction ----------------------------------------------------------

def test_initial_chart_uses_base_names():
    chart = Chart.initial(XY)
    assert chart.stage == 0
    assert chart.coords == XY
    assert express_in_chart(parse_expr("y/x", XY), chart) == parse_expr("y/x", XY)


def test_stage_coordinates_are_suffixed():
    charts = charts_for("ex3.7-2d", 2)
    assert charts[1].coords == ("x_1", "y_1")
    assert charts[2].coords == ("x_2", "y_2")


def test_duplicate_base_names_rejected():
    with pytest.raises(ValueError):
        Chart.initial(("x", "x"))


# -- rewriting hand cases ---------------------------------------------------------

def test_translated_difference_becomes_monomial():
    charts = charts_for("ex3.7-2d", 1)
    f = parse_expr("y - x", XY)
    assert str(express_in_chart(f, charts[1])) == "x_1*y_1"


def test_rewrite_tracks_two_steps():
    charts = charts_for("ex3.7-2d", 2)
    f = parse_expr("y - x", XY)
    assert str(express_in_chart(f, charts[2])) == "x_2*y_2^2"


def test_rewrite_of_unit_shift():
    charts = charts_for("ex3.7-2d", 1)
    f = parse_expr("(y - x - x^2)/x^2", XY)
    assert str(express_in_chart(f, charts[1])) == "(-x_1 + y_1)/x_1"


def test_express_rejects_foreign_variables():
    chart = Chart.initial(XY)
    with pytest.raises(ValueError):
        express_in_chart(parse_expr("z", ("z",)), chart)


# -- order and membership ----------------------------------------------------------

def test_ord_sequence_of_translated_difference():
    charts = charts_for("ex3.7-2d", 4)
    f = parse_expr("y - x", XY)
    assert [ord_n(f, c) for c in charts] == [1, 2, 3, 3, 6]


def test_ord_sequence_of_pivot():
    charts = charts_for("ex3.7-2d", 4)
    x = parse_expr("x", XY)
    assert [ord_n(x, c) for c in charts] == [1, 1, 2, 2, 4]


def test_in_ring_progression():
    charts = charts_for("ex3.7-2d", 3)
    f = parse_expr("(y - x)/x", XY)
    assert [in_ring(f, c) for c in charts] == [False, True, True, True]


def test_in_ring_never_for_negative_value():
    charts = charts_for("ex3.7-2d", 8)
    f = parse_expr("(y - x)/x^2", XY)
    assert not any(in_ring(f, c) for c in charts)


def test_monomial_unit_split():
    charts = charts_for("ex3.7-2d", 1)
    f = parse_expr("(y - x)/x", XY)
    split = monomial_unit_split(f, charts[1])
    assert split is not None
    e, unit = split
    assert e == (0, 1)
    assert unit == RationalFunction.constant(1, ("x_1", "y_1"))


def test_monomial_unit_split_absorbs_unit_sums():
    charts = charts_for("ex3.7-2d", 1)
    split = monomial_unit_split(parse_expr("x + y", XY), charts[1])
    assert split is not None
    e, unit = split
    assert e == (1, 0)
    assert unit == parse_expr("y_1 + 2", ("x_1", "y_1"))


def test_monomial_unit_split_none_when_residual_vanishes():
    charts = charts_for("ex3.7-2d", 1)
    f = parse_expr("y - x - x^2", XY)
    assert monomial_unit_split(f, charts[1]) is None


# -- round trip --------------------------------------------------------------------

@pytest.mark.parametrize("name, depth", [("ex3.7-2d", 3), ("ex3.7-3d", 3)])
def test_round_trip_hand_elements(name, depth):
    example = get_example(name)
    charts = charts_for(name, depth)
    images = forward_images(name, depth)
    texts = ["y - x", "(y - x)/x^2", "x*y", "1/(1 + x)", "y^3 - x*y"]
    for text in texts:
        f = parse_expr(text, example.ambient)
        for n in (1, 2, depth):
            g = express_in_chart(f, charts[n])
            assert g.substitute(images[n]) == f


def test_round_trip_random_elements():
    rng = random.Random(909)
    charts = charts_for("ex3.7-2d", 3)
    images = forward_images("ex3.7-2d", 3)
    done = 0
    while done < 6:
        f = random_rf(rng, max_terms=2, max_exp=2)
        if f.is_zero():
            continue
        g = express_in_chart(f, charts[3])
        assert g.substitute(images[3]) == f
        done += 1


def test_single_step_round_trip_along_deep_walk():
    """Each directive's coordinate change is invertible, checked per step.

    The cumulative round trip composes from these, so deep stages are
    covered without building the full stage-n expressions.
    """
    rng = random.Random(911)
    example = get_example("ex3.7-2d")
    bases = example.ambient
    for n in range(1, 31):
        d = example.source.directive_at(n)
        pivot = RationalFunction.variable(bases[d.pivot], bases)
        forward: dict[str, RationalFunction] = {}
        backward: dict[str, RationalFunction] = {}
        for j, b in enumerate(bases):
            var = RationalFunction.variable(b, bases)
            if j == d.pivot:
                forward[b] = var
                backward[b] = var
            else:
                c = d.translation_of(j)
                shift = RationalFunction.constant(c, bases)
                forward[b] = var / pivot - shift
                backward[b] = pivot * (var + shift)
        f = random_rf(rng)
        if f.is_zero():
            continue
        assert f.substitute(backward).substitute(forward) == f


def test_rewrite_is_a_field_homomorphism():
    rng = random.Random(910)
    chart = charts_for("ex3.7-2d", 2)[2]
    for _ in range(6):
        f = random_rf(rng, max_terms=2, max_exp=2)
        g = random_rf(rng, max_terms=2, max_exp=2)
        assert express_in_chart(f * g, chart) == (express_in_chart(f, chart)
                                                  * express_in_chart(g, chart))
        assert express_in_chart(f + g, chart) == (express_in_chart(f, chart)
                                                  + express_in_chart(g, chart))
