"""End-to-end acceptance checklist, one test per shipped guarantee.

Each test pins exact rational values, agreement rates or byte-identical
output, together with a wall-clock bound where the guarantee includes one.
Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
guarantee.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from lqt import (AnalysisSession, CoordinatePrime, FactorialGaps, LiftedTrace,
                 Polynomial, RationalFunction, SeriesDVR,
                 classify_multiplicity, composite_value, get_example,
                 member_pullback, multiplicity_sequence, parse_expr)
from lqt.cli import main

from golden_cases import GOLDEN_CASES
from helpers import is_unit_at_origin, random_rf

GOLDEN_DIR = Path(__file__).parent / "golden"

F = Fraction


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def random_monomial_product(rng: random.Random, example,
                            atoms: list[tuple[str, int]]) -> RationalFunction:
    """A nonzero product of atom powers with a random nonzero coefficient.

    Atoms with an infinite assigned value keep nonnegative exponents so that
    every drawn element has a well-defined value in the ordered group
    extended by its top element.
    """
    while True:
        f = RationalFunction.constant(
            F(rng.choice([-3, -2, -1, 1, 2, 3])), example.ambient)
        for text, lowest in atoms:
            e = rng.randint(lowest, 2)
            if e:
                f = f * parse_expr(text, example.ambient) ** e
        if not f.is_zero():
            return f


def test_01_multiplicity_sequence_and_convergent_sum():
    """First seven stage multiplicities are exact and the sum converges to 3,
    with 100 stages computed in under a second."""
    start = time.monotonic()
    two = get_example("ex3.7-2d")
    three = get_example("ex3.7-3d")
    seq = multiplicity_sequence(two.source, 100)
    outcome = classify_multiplicity(two.source)
    elapsed = time.monotonic() - start

    expected = [F(1), F(1, 2), F(1, 2), F(1, 4), F(1, 4), F(1, 8), F(1, 8)]
    assert seq[:7] == expected
    assert len(seq) == 100
    assert outcome.kind == "Convergent" and outcome.limit == F(3)
    assert multiplicity_sequence(three.source, 7) == expected
    three_outcome = classify_multiplicity(three.source)
    assert three_outcome.kind == "Convergent" and three_outcome.limit == F(3)
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_02_assigned_value_vectors_along_both_programs():
    """The first five value vectors of the two- and three-coordinate
    alternating programs, including the third coordinate reaching 5/2."""
    two = get_example("ex3.7-2d")
    three = get_example("ex3.7-3d")
    assert [two.source.value_vector_at(n) for n in range(5)] == [
        (F(1), F(1)),
        (F(1), F(1, 2)),
        (F(1, 2), F(1, 2)),
        (F(1, 2), F(1, 4)),
        (F(1, 4), F(1, 4)),
    ]
    vectors = [three.source.value_vector_at(n) for n in range(5)]
    assert vectors == [
        (F(1), F(1), F(4)),
        (F(1), F(1, 2), F(3)),
        (F(1, 2), F(1, 2), F(5, 2)),
        (F(1, 2), F(1, 4), F(2)),
        (F(1, 4), F(1, 4), F(7, 4)),
    ]
    assert vectors[2][2] == F(5, 2)


def test_03_directional_membership_at_budget_200():
    """z/x enters the union at stage 1 while x/z stays out for 200 stages,
    decided in under five seconds."""
    start = time.monotonic()
    three = get_example("ex3.7-3d")
    session = three.session
    forward = session.member(parse_expr("z/x", three.ambient), 200)
    backward = session.member(parse_expr("x/z", three.ambient), 200)
    elapsed = time.monotonic() - start

    assert forward.decided and forward.stage == 1
    assert not backward.decided and backward.budget == 200
    assert elapsed < 5.0, f"took {elapsed:.3f}s"


def _agreement_corpus(rng: random.Random, ambient: tuple[str, ...],
                      size: int) -> list[RationalFunction]:
    """Pseudo-random field elements biased toward decidable membership.

    Shapes: plain polynomials, polynomials over powers of the first
    coordinate, prime multiples over powers of the translated difference,
    elements with unit denominators, and a few that no stage ring contains.
    """
    def poly(terms: int, max_exp: int, min_total: int = 0) -> Polynomial:
        out = Polynomial.zero(ambient)
        for _ in range(terms):
            while True:
                exps = [rng.randint(0, max_exp) for _ in ambient]
                if sum(exps) >= min_total:
                    break
            mono = Polynomial.constant(
                F(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])), ambient)
            for name, e in zip(ambient, exps):
                mono = mono * Polynomial.variable(name, ambient) ** e
            out = out + mono
        return out

    x = RationalFunction.variable("x", ambient)
    y = RationalFunction.variable("y", ambient)
    z = RationalFunction.variable("z", ambient)
    one = RationalFunction.constant(1, ambient)
    difference = y - x
    corpus: list[RationalFunction] = []
    while len(corpus) < size:
        kind = rng.random()
        if kind < 0.30:
            p = poly(rng.randint(1, 4), 3)
            if p.is_zero():
                continue
            f = RationalFunction.from_polynomial(p)
        elif kind < 0.55:
            k = rng.randint(1, 3)
            p = poly(rng.randint(1, 3), 3, min_total=k)
            if p.is_zero():
                continue
            f = RationalFunction.from_polynomial(p) / x ** k
        elif kind < 0.75:
            j = rng.randint(1, 2)
            p = poly(rng.randint(1, 2), 2)
            if p.is_zero():
                continue
            f = (z ** (j + rng.randint(0, 1))
                 * RationalFunction.from_polynomial(p) / difference ** j)
        elif kind < 0.95:
            p = poly(rng.randint(1, 3), 2)
            q = poly(rng.randint(1, 2), 2, min_total=1)
            if p.is_zero():
                continue
            f = (RationalFunction.from_polynomial(p)
                 / (one + RationalFunction.from_polynomial(q)))
        elif rng.random() < 0.5:
            f = (one + x) / difference ** rng.randint(1, 2)
        else:
            f = RationalFunction.constant(F(rng.randint(1, 3)), ambient) / z
        if not f.is_zero():
            corpus.append(f)
    return corpus


def test_04_union_and_pullback_memberships_agree_on_a_corpus():
    """On the factorial-gap valuation lifted along (z), stage-ring search and
    the pullback criterion agree on every doubly decided element of a seeded
    220-element corpus, at least 90% of which decides, within a minute."""
    ambient = ("x", "y", "z")
    prime = CoordinatePrime(ambient, ("z",))
    dvr = SeriesDVR(("x", "y"), FactorialGaps())
    session = AnalysisSession(LiftedTrace(dvr, prime))
    corpus = _agreement_corpus(random.Random(20260814), ambient, 220)

    start = time.monotonic()
    both_decided = agreeing = pullback_rejections = 0
    for f in corpus:
        union = session.member(f, 100)
        pulled = member_pullback(f, prime, dvr, budget=100)
        if pulled.status == "NotIn":
            pullback_rejections += 1
        if union.decided and pulled.decided:
            both_decided += 1
            if pulled.status == "In":
                agreeing += 1
    elapsed = time.monotonic() - start

    assert len(corpus) == 220
    assert both_decided >= 198, f"only {both_decided} of 220 decided"
    assert agreeing == both_decided, (
        f"{both_decided - agreeing} disagreements")
    assert pullback_rejections > 0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


VALUE_ATOMS = {
    "ex3.7-2d": [("x", -2), ("y", -2), ("y - x", -2)],
    "ex3.7-3d": [("x", -2), ("y", -2), ("y - x", -2), ("z", 0)],
    "ex5.3-shape": [("x", -2), ("y", -2), ("y - x", -2), ("z", 0)],
    "nonarch2d": [("x", -2), ("y", 0)],
    "dvr-curve": [("x", -2), ("y", -2), ("y - x", -2), ("y - x - x^2", -1)],
}


def test_05_values_are_additive_and_ultrametric():
    """On 100 random resolved pairs per builtin example, values add on
    products and obey the ultrametric bound on sums; composite values do the
    same lexicographically on the lifted series example."""
    for name, atoms in VALUE_ATOMS.items():
        example = get_example(name)
        session = example.session
        rng = random.Random(414)
        pairs = skipped = 0
        while pairs < 100:
            f = random_monomial_product(rng, example, atoms)
            g = random_monomial_product(rng, example, atoms)
            vf = session.value_of(f, 12)[0]
            vg = session.value_of(g, 12)[0]
            product = session.value_of(f * g, 12)
            assert product is not None and product[0] == vf + vg, (name, f, g)
            h = f + g
            if not h.is_zero():
                res = session.value_of(h, 8)
                if res is None:
                    skipped += 1
                    assert skipped < 400, name
                    continue
                low = min(vf, vg)
                assert res[0] >= low, (name, f, g)
                if vf != vg:
                    assert res[0] == low, (name, f, g)
            pairs += 1

    shape = get_example("ex5.3-shape")
    rng = random.Random(53)
    pairs = skipped = 0
    while pairs < 100:
        f = random_monomial_product(rng, shape, VALUE_ATOMS["ex5.3-shape"])
        g = random_monomial_product(rng, shape, VALUE_ATOMS["ex5.3-shape"])
        cf = composite_value(f, shape.prime, shape.quotient)
        cg = composite_value(g, shape.prime, shape.quotient)
        assert cf.decided and cg.decided
        cp = composite_value(f * g, shape.prime, shape.quotient)
        assert cp.decided
        assert cp.prime_order == cf.prime_order + cg.prime_order
        assert cp.residue_value == cf.residue_value + cg.residue_value
        h = f + g
        if not h.is_zero():
            ch = composite_value(h, shape.prime, shape.quotient)
            if not ch.decided:
                skipped += 1
                assert skipped < 400
                continue
            assert ch.sort_key() >= min(cf.sort_key(), cg.sort_key()), (f, g)
        pairs += 1


STABILIZING_SET = [
    ("x", F(1)), ("y", F(1)), ("x*y", F(2)), ("x^2", F(2)), ("y^2", F(2)),
    ("x^3", F(3)), ("y - x", F(3, 2)), ("x*(y - x)", F(5, 2)),
    ("y*(y - x)", F(5, 2)), ("(y - x)^2", F(3)), ("(y - x)/x", F(1, 2)),
    ("(y - x)/x^2", F(-1, 2)), ("(y - x)^2/x", F(2)),
    ("(y - x)^2/x^3", F(0)), ("x^2*y", F(3)), ("y^3", F(3)),
    ("y^2 - x^2", F(5, 2)), ("y - x - x^2", F(3, 2)), ("x/y", F(0)),
    ("(y - x)^3/x^2", F(5, 2)),
]


def test_06_order_ratios_stabilize_to_exact_values():
    """For twenty resolved elements, the order ratios against the first
    coordinate stabilize over a five-stage window to the exact value."""
    two = get_example("ex3.7-2d")
    session = two.session
    reference = parse_expr("x", two.ambient)
    assert len(STABILIZING_SET) == 20
    for text, expected in STABILIZING_SET:
        f = parse_expr(text, two.ambient)
        value = session.value_of(f, 14)
        assert value is not None and value[0] == expected, text
        trace = session.w_approx(f, reference, 14)
        assert trace.window == 5
        assert trace.stabilized, text
        assert trace.last == expected, text


def test_07_prime_multiples_are_members_and_classify_nonarchimedean():
    """Every y/x^k joins the union at stage k for k up to 50, and the
    classification reports a non-archimedean pullback with a divergent
    quotient."""
    example = get_example("nonarch2d")
    session = example.session
    for k in range(1, 51):
        verdict = session.member(parse_expr(f"y/x^{k}", example.ambient), 55)
        assert verdict.decided and verdict.stage == k, k

    code, out = run_cli(["classify", "--example", "nonarch2d"])
    assert code == 0
    line = json.loads(out)
    assert line["shannon"]["kind"] == "NonArchimedean"
    assert line["shannon"]["union_is_pullback"] is True
    assert line["quotient_multiplicity"]["kind"] == "Divergent"


def _step_maps(example, n: int):
    """Forward and backward coordinate changes of one walk step, both written
    over the same names so they compose directly."""
    bases = example.ambient
    directive = example.source.directive_at(n)
    pivot = RationalFunction.variable(bases[directive.pivot], bases)
    forward: dict[str, RationalFunction] = {}
    backward: dict[str, RationalFunction] = {}
    for j, b in enumerate(bases):
        var = RationalFunction.variable(b, bases)
        if j == directive.pivot:
            forward[b] = var
            backward[b] = var
        else:
            shift = RationalFunction.constant(directive.translation_of(j),
                                              bases)
            forward[b] = var / pivot - shift
            backward[b] = pivot * (var + shift)
    return forward, backward


def test_08_round_trips_and_ring_invariants_along_deep_walks():
    """100 random elements survive the per-step coordinate round trip at all
    50 stages of both alternating walks, and the descent states keep their
    ring invariants, in under 30 seconds."""
    start = time.monotonic()

    for name in ("ex3.7-2d", "ex3.7-3d"):
        example = get_example(name)
        rng = random.Random(808)
        elements = []
        while len(elements) < 100:
            f = random_rf(rng, variables=example.ambient, max_terms=2,
                          max_exp=2)
            if not f.is_zero():
                elements.append(f)
        for n in range(1, 51):
            forward, backward = _step_maps(example, n)
            for f in elements:
                assert f.substitute(backward).substitute(forward) == f

    two = get_example("ex3.7-2d")
    session = AnalysisSession(two.source)
    rng = random.Random(809)
    elements = []
    while len(elements) < 100:
        f = random_rf(rng, max_terms=2, max_exp=2)
        if not f.is_zero():
            elements.append(f)
    states = [session.initial_state(f) for f in elements]
    member_before = [False] * len(elements)
    for n in range(1, 51):
        for i, state in enumerate(states):
            state = session.advance_state(state, n)
            states[i] = state
            if is_unit_at_origin(state.num):
                assert state.num.is_one()
            if is_unit_at_origin(state.den):
                assert state.den.is_one()
            if member_before[i]:
                assert state.in_ring()
            elif state.in_ring():
                member_before[i] = True

    rng = random.Random(810)
    pairs = []
    while len(pairs) < 50:
        f = random_rf(rng, max_terms=2, max_exp=2)
        g = random_rf(rng, max_terms=2, max_exp=2)
        if not f.is_zero() and not g.is_zero():
            pairs.append((f, g))
    for f, g in pairs:
        sf = session.initial_state(f)
        sg = session.initial_state(g)
        sp = session.initial_state(f * g)
        for n in range(1, 51):
            sf = session.advance_state(sf, n)
            sg = session.advance_state(sg, n)
            sp = session.advance_state(sp, n)
            assert sp.order() == sf.order() + sg.order()

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_09_cli_output_is_byte_identical_to_golden_files():
    """Every recorded command reproduces its golden JSON byte for byte, and
    the recorded set covers every builtin example."""
    covered = set()
    for filename, argv in GOLDEN_CASES:
        code, out = run_cli(list(argv))
        assert code == 0, argv
        expected = (GOLDEN_DIR / filename).read_text()
        assert out == expected, filename
        for record in out.splitlines():
            covered.add(json.loads(record).get("example"))
    missing = {"ex3.7-2d", "ex3.7-3d", "ex5.3-shape", "nonarch2d",
               "dvr-curve"} - covered
    assert not missing, missing
