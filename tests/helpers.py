"""Shared test helpers: sympy conversion, seeded random generators, a call
recorder, the polynomial utilities only tests use and the reference forms
of fast paths."""

from __future__ import annotations

import random
from fractions import Fraction

import sympy as sp

from lqt import (Polynomial, ProgramConsistencyError, RationalFunction,
                 exact_div)

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
    records the arguments of every call; returns the list they go into."""
    calls: list[tuple] = []
    original = getattr(owner, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, recorded)
    return calls


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


def two_loop_next_values(step, values, stage: int, bases: tuple[str, ...]):
    """ProgramStep.next_values as two loops, as an oracle for the one-loop
    form: first every value is checked against the pivot's, then each
    coordinate in turn against its own rule."""
    p = step.pivot
    vp = values[p]
    for j, vj in enumerate(values):
        if vj < vp:
            raise ProgramConsistencyError(
                stage, bases[p],
                f"pivot value {vp} is not minimal: {bases[j]} has value "
                f"{vj}")
    factors = {j: r for j, _, r in step.translations}
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
