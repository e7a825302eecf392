"""Shared test helpers: sympy conversion, seeded random generators, a call
recorder and the polynomial utilities only tests use."""

from __future__ import annotations

import random
from fractions import Fraction

import sympy as sp

from lqt import Polynomial, RationalFunction, exact_div

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
