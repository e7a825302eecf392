"""Shared test helpers: sympy conversion, seeded random generators, a call
recorder, the polynomial utilities only tests use, the reference forms of
fast paths (the walk states and the iterated transforms of `e_approx`),
texts for fuzzing the parsers, and oracles the package itself does not
need: expression trees evaluated with field operations, explicit coordinate
charts, orders and monomial-unit splits at the origin, prime membership,
induced quotient programs and program text written back."""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from typing import Iterable

import hypothesis.strategies as st
import sympy as sp

from lqt import (CompositeValue, CoordinatePrime, Directive, LimitTrace,
                 Polynomial, ProgramConsistencyError, ProgramError,
                 ProgramStep, RationalFunction, ValuationProgram, exact_div,
                 member_RP, quotient_value, residue)
from lqt.analysis import ElementState
from lqt.programs import read_values

XY = ("x", "y")
XYZ = ("x", "y", "z")


def to_sympy(p: Polynomial) -> sp.Expr:
    syms = sp.symbols(p.variables)
    total = sp.Integer(0)
    for exps, coeff in p.terms.items():
        term = sp.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(syms, exps):
            term *= s**e
        total += term
    return sp.expand(total)


def to_sympy_rf(f: RationalFunction) -> sp.Expr:
    return sp.cancel(to_sympy(f.numerator) / to_sympy(f.denominator))


def random_poly(rng: random.Random, variables: tuple[str, ...],
                max_terms: int = 4, max_exp: int = 3) -> Polynomial:
    """A nonzero polynomial with small exponents and coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[exps] = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]),
                               rng.randint(1, 3))
    return Polynomial(variables, terms)


def random_rf(rng: random.Random, variables: tuple[str, ...] = XY,
              max_terms: int = 4, max_exp: int = 3) -> RationalFunction:
    return RationalFunction(random_poly(rng, variables, max_terms, max_exp),
                            random_poly(rng, variables, max_terms, max_exp))


def record_calls(monkeypatch, owner, name: str) -> list[tuple]:
    """Patch owner.name (a module function or a method) with a wrapper that
    records the positional arguments of every call; returns the list they
    go into.  Keyword arguments are passed on unrecorded."""
    calls: list[tuple] = []
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


# An expression tree is an int, a variable name, ("neg", t), (op, a, b) for
# op in "+-*/", or ("^", t, n) for an int n.
TREE_OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                   "/": operator.truediv}


def render_tree(tree) -> str:
    """The tree as parser input, every operand in parentheses."""
    if isinstance(tree, (int, str)):
        return str(tree)
    if tree[0] == "neg":
        return f"-({render_tree(tree[1])})"
    if tree[0] == "^":
        return f"({render_tree(tree[1])})^{tree[2]}"
    op, a, b = tree
    return f"({render_tree(a)}) {op} ({render_tree(b)})"


def evaluate_tree(tree, variables: tuple[str, ...]) -> RationalFunction:
    """The tree's value by RationalFunction operations; a zero divisor or a
    negative power of zero raises ZeroDivisionError."""
    if isinstance(tree, int):
        return RationalFunction.constant(tree, variables)
    if isinstance(tree, str):
        return RationalFunction.variable(tree, variables)
    if tree[0] == "neg":
        return -evaluate_tree(tree[1], variables)
    if tree[0] == "^":
        return evaluate_tree(tree[1], variables) ** tree[2]
    op, a, b = tree
    f, g = evaluate_tree(a, variables), evaluate_tree(b, variables)
    return TREE_OPERATIONS[op](f, g)


def divides(b: Polynomial, a: Polynomial) -> bool:
    return exact_div(a, b) is not None


def rename(p: Polynomial, variables: tuple[str, ...]) -> Polynomial:
    """p reinterpreted over a same-length variable list."""
    if len(variables) != len(p.variables):
        raise ValueError("variable count mismatch in rename")
    return Polynomial(variables, p.terms)


def general_states(session, f: RationalFunction,
                   last: int) -> list[tuple[tuple[int, ...], Polynomial,
                                            Polynomial]]:
    """(exponents, num, den) of f at stages 0..last by the general path,
    as an oracle for AnalysisSession.state_at.

    Every step substitutes the coordinate images into both sides, one or
    not, and moves the monomial part by each image's monomial factor (the
    rest of an image, x_j + c_j, is a unit).  Each side is then stripped of
    its monomial factor into the exponents, and a unit side becomes one."""
    bases = session.bases
    one = Polynomial.one(bases)

    def normalized(e, num, den):
        sides = []
        for sign, p in ((1, num), (-1, den)):
            m = p.min_exponents()
            e = tuple(a + sign * b for a, b in zip(e, m))
            p = Polynomial(bases, {tuple(a - b for a, b in zip(k, m)): c
                                   for k, c in p.terms.items()})
            sides.append(one if p.constant_term() else p)
        return (e, *sides)

    states = [normalized((0,) * len(bases), f.numerator, f.denominator)]
    for n in range(1, last + 1):
        images = session.source.directive_at(n).images(bases)
        monomials = [img.min_exponents() for img in images]
        e, num, den = states[-1]
        moved = tuple(sum(ej * m[i] for ej, m in zip(e, monomials))
                      for i in range(len(bases)))
        subs = dict(zip(bases, images))
        states.append(normalized(moved, num.substitute(subs),
                                 den.substitute(subs)))
    return states


def stepped_e_approx(session, f: RationalFunction, budget: int):
    """AnalysisSession.e_approx by stepping, as an oracle for its reading
    of the cached states: from the membership stage, a state of its own is
    advanced one walk step at a time and then divided by the pivot raised
    to the previous order."""
    verdict = session.member(f, budget)
    if not verdict.decided:
        return verdict
    state = session.state_at(f, verdict.stage)
    approx = []
    for n in range(verdict.stage, budget + 1):
        o = state.order()
        approx.append(o)
        if n == budget:
            break
        state = session.advance_state(state, n + 1)
        if o:
            e = list(state.exponents)
            e[session.source.directive_at(n + 1).pivot] -= o
            state = ElementState(tuple(e), state.num, state.den)
    return LimitTrace("e", verdict.stage, approx)


def scale(values) -> tuple[tuple[int, ...], int]:
    """Finite values as a reduced scaled stage: numerators over the lcm of
    their denominators."""
    den = math.lcm(*(Fraction(v).denominator for v in values))
    return tuple(int(v * den) for v in values), den


def stage_values(walk, n: int):
    """Stage n of any walk read out as values: the scaled stage over its
    denominator, an int when whole and Infinite kept as is."""
    return read_values(*walk.scaled_vector_at(n))


def scaled_step(step, values, stage: int, bases: tuple[str, ...]):
    """The integer step ProgramStep.next_values applied to values, read
    out: the values after the step; raises its consistency error."""
    return read_values(*step.next_values(*scale(values), stage, bases))


def two_loop_next_values(step, values, stage: int, bases: tuple[str, ...]):
    """A step on Fraction values in two loops, as an oracle for the
    one-loop integer step: first every value is checked against the
    pivot's, then each coordinate in turn against its own rule."""
    p = step.pivot
    vp = values[p]
    for j, vj in enumerate(values):
        if vj < vp:
            raise ProgramConsistencyError(
                stage, bases[p],
                f"pivot value {vp} is not minimal: {bases[j]} has value "
                f"{vj}")
    factors = {j: r for (j, _), r in zip(step.translations, step.factors)}
    out = []
    for j, vj in enumerate(values):
        if j == p:
            out.append(vp)
        elif j in factors:
            if vj != vp:
                raise ProgramConsistencyError(
                    stage, bases[j],
                    f"translated coordinate has value {vj}, which must "
                    f"equal the pivot value {vp}")
            out.append(factors[j] * vp)
        else:
            if vj == vp:
                raise ProgramConsistencyError(
                    stage, bases[j],
                    f"coordinate shares the pivot value {vp} and must be "
                    f"translated")
            out.append(vj - vp)
    return tuple(out)


# -- orders and splits at the origin ------------------------------------------

def ord_at_origin(f: RationalFunction) -> int:
    """Order of vanishing at the origin: minimal total degree of the
    numerator minus minimal total degree of the denominator."""
    if f.is_zero():
        raise ValueError("order of zero is undefined")
    return f.numerator.order() - f.denominator.order()


def monomial_unit_parts(
        f: RationalFunction
) -> tuple[tuple[int, ...], Polynomial, Polynomial] | None:
    """Split f as monomial^e * (u/v) with u, v units at the origin.

    Returns (e, u, v) where e may have negative entries, or None when either
    the numerator or the denominator is not monomial-times-unit.
    """
    if f.is_zero():
        return None
    en = f.numerator.min_exponents()
    ed = f.denominator.min_exponents()
    u = Polynomial(
        f.variables,
        {tuple(i - j for i, j in zip(e, en)): c
         for e, c in f.numerator.terms.items()})
    v = Polynomial(
        f.variables,
        {tuple(i - j for i, j in zip(e, ed)): c
         for e, c in f.denominator.terms.items()})
    if not (u.is_unit_at_origin() and v.is_unit_at_origin()):
        return None
    return tuple(i - j for i, j in zip(en, ed)), u, v


# -- explicit coordinate charts -----------------------------------------------
#
# A Chart records, at each stage, polynomial expressions for the ambient
# variables in terms of the stage coordinates, so an ambient element can be
# rewritten in any chart by substitution.  Stage-n coordinates are named
# ``<base>_<n>``; the stage-0 chart uses the plain ambient names.  The
# analysis session never builds one: charts are the oracle its states are
# checked against.

class Chart:
    __slots__ = ("stage", "bases", "coords", "inverse_subst", "_cache")

    def __init__(self, stage: int, bases: tuple[str, ...],
                 coords: tuple[str, ...],
                 inverse_subst: dict[str, Polynomial]):
        self.stage = stage
        self.bases = bases
        self.coords = coords
        self.inverse_subst = inverse_subst
        self._cache: dict[RationalFunction, RationalFunction] = {}

    @classmethod
    def initial(cls, bases: Iterable[str]) -> Chart:
        bs = tuple(bases)
        if len(set(bs)) != len(bs):
            raise ValueError("duplicate variable names")
        subst = {b: Polynomial.variable(b, bs) for b in bs}
        return cls(0, bs, bs, subst)

    def __repr__(self) -> str:
        return f"Chart(stage={self.stage}, coords={self.coords})"


def apply_directive(chart: Chart, directive: Directive) -> Chart:
    next_stage = chart.stage + 1
    new_coords = tuple(f"{b}_{next_stage}" for b in chart.bases)
    step = dict(zip(chart.coords, directive.images(new_coords)))
    inverse = {b: p.substitute(step) for b, p in chart.inverse_subst.items()}
    return Chart(next_stage, chart.bases, new_coords, inverse)


def express_in_chart(f: RationalFunction, chart: Chart) -> RationalFunction:
    """Rewrite an ambient-field element in the chart's coordinates."""
    if f.variables != chart.bases:
        raise ValueError(f"element over {f.variables} does not live in a "
                         f"chart over {chart.bases}")
    if chart.stage == 0:
        return f
    cached = chart._cache.get(f)
    if cached is None:
        cached = RationalFunction(
            f.numerator.substitute(chart.inverse_subst),
            f.denominator.substitute(chart.inverse_subst))
        chart._cache[f] = cached
    return cached


def ord_n(f: RationalFunction, chart: Chart) -> int:
    """Order of vanishing at the origin of the chart."""
    if f.is_zero():
        raise ValueError("order of zero is undefined")
    return ord_at_origin(express_in_chart(f, chart))


def in_ring(f: RationalFunction, chart: Chart) -> bool:
    """Whether f lies in the local ring at the chart origin."""
    g = express_in_chart(f, chart)
    return g.denominator.is_unit_at_origin()


def monomial_unit_split(
        f: RationalFunction,
        chart: Chart) -> tuple[tuple[int, ...], RationalFunction] | None:
    """Split f as coords^e * u with u a unit at the chart origin.

    Returns (e, u), where e may have negative entries, or None when f has no
    such factorization in this chart.
    """
    g = express_in_chart(f, chart)
    parts = monomial_unit_parts(g)
    if parts is None:
        return None
    e, u, v = parts
    return e, RationalFunction(u, v)


# -- primes and programs ------------------------------------------------------

def in_prime(f: RationalFunction, prime: CoordinatePrime) -> bool:
    """Whether f lies in the extension of the prime to the localization."""
    return member_RP(f, prime) and (f.is_zero()
                                    or prime.contains_poly(f.numerator))


def composite_by_field_arithmetic(f: RationalFunction,
                                  prime: CoordinatePrime, quotient,
                                  session=None) -> CompositeValue:
    """The rank-two value of f along a single-generator prime, its leading
    part found by field arithmetic: the residue of f * gen^(-k), for k the
    order of f along the prime."""
    gen = prime.generators[0]
    k = prime.poly_order(f.numerator) - prime.poly_order(f.denominator)
    shift = RationalFunction.variable(gen, prime.bases) ** (-k)
    leading = residue(f * shift, prime)
    return CompositeValue(k, quotient_value(quotient, leading,
                                            session=session))


def induced_quotient_program(program: ValuationProgram,
                             prime: CoordinatePrime) -> ValuationProgram:
    """Project an ambient program to the residue field at the prime.

    Fails if any step pivots or translates a prime coordinate: such a
    sequence does not stay along the prime.
    """
    if program.bases != prime.bases:
        raise ProgramError(f"program over {program.bases} does not match the "
                           f"prime over {prime.bases}")
    inside = set(prime.indices)
    new_index = {j: i for i, j in enumerate(
        j for j in range(len(program.bases)) if j not in inside)}

    def project(steps, label):
        out = []
        for i, step in enumerate(steps, start=1):
            if step.pivot in inside:
                raise ProgramError(
                    f"{label} step {i} pivots {program.bases[step.pivot]}, "
                    f"which generates the prime")
            for j, _ in step.translations:
                if j in inside:
                    raise ProgramError(
                        f"{label} step {i} translates "
                        f"{program.bases[j]}, which generates the prime")
            out.append(ProgramStep(
                new_index[step.pivot],
                [(new_index[j], c, r) for (j, c), r in zip(step.translations,
                                                           step.factors)]))
        return out

    return ValuationProgram(
        prime.residue_bases,
        [v for j, v in enumerate(program.initial_values) if j not in inside],
        project(program.preperiod, "preperiod"),
        project(program.period, "period"))


# step lines that the line pattern accepts but the step itself refuses,
# each with the step's message
BAD_STEP_LINES = [
    ("pivot=x translate x:1->1", "cannot translate the pivot coordinate"),
    ("pivot=x translate y:1->1 translate y:2->1",
     "coordinate 1 translated twice"),
    ("pivot=x translate y:0->1", "translation constant must be nonzero"),
]


def bad_step_program(line: str) -> str:
    """A program whose period step, on line 7, is `line`."""
    return f"[vars]\nx y\n[values]\nx = 1\ny = 1\n[period]\n{line}\n"


def serialize_program(program: ValuationProgram) -> str:
    """The program in the text format `parse_program` reads."""
    lines = ["[vars]", " ".join(program.bases), "", "[values]"]
    for b, v in zip(program.bases, program.initial_values):
        lines.append(f"{b} = {v}")
    if program.preperiod:
        lines.append("")
        lines.append("[preperiod]")
        for step in program.preperiod:
            lines.append(step.describe(program.bases))
    lines.append("")
    lines.append("[period]")
    for step in program.period:
        lines.append(step.describe(program.bases))
    lines.append("")
    return "\n".join(lines)


# the sections of well-formed program texts for the parser fuzz tests, one
# of each row in any order; the [values] that names z fits [vars] x y too
_PROGRAM_SECTIONS = [
    ["[vars]\nx y\n", "[vars]\nx, y, z\n"],
    ["[values]\nx = 1\ny = 1\n", "[values]\nx = 1/2\ny = 2 # ok\nz = 5\n"],
    ["", "[preperiod]\npivot=y translate x:-2/3->2\n"],
    ["[period]\npivot=x translate y:1->1/2\npivot=y\n",
     "[period]\npivot=x\n"],
]
PROGRAM_SHAPES = st.tuples(*map(st.sampled_from, _PROGRAM_SECTIONS)).flatmap(
    st.permutations).map("".join)
# pieces of program lines for the parser fuzz tests, some too large or wrong
PROGRAM_FRAGMENTS = ["[vars]\n", "[values]\n", "[period]\n", "[junk]\n",
                     "[", "]", "\n", " ", ",", "#", "=", "x x", "x = 0",
                     "y = 1e999999", "9" * 1400, "pivot=q",
                     " translate y:0->1", " translate z:1->-1",
                     " translate y:1/0->1", " translate x:1->1", "->", ":",
                     "\u00e9", "\u0663"]


def fuzz_texts(shapes: st.SearchStrategy[str],
               fragments: list[str]) -> st.SearchStrategy[str]:
    """Texts for a parser fuzz test: a well-formed shape with up to three
    edits (a fragment or any character inserted, or a span cut out, at a
    drawn place), or fragments and characters strung together."""
    pieces = st.sampled_from(fragments) | st.characters()

    @st.composite
    def edited(draw) -> str:
        text = draw(shapes)
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(text)))
            if draw(st.booleans()):
                text = text[:i] + draw(pieces) + text[i:]
            else:
                text = text[:i] + text[draw(st.integers(i, len(text))):]
        return text

    return edited() | st.lists(pieces, max_size=24).map("".join)
