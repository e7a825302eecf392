"""Correctness checks for the benchmark's answers.

Every checker returns a list of problems, empty when the answer is right.
Each compares against something computed here, apart from lqt (the exponent
gaps of the series, replays of the examples' value rules, the closed form
of a multiplicity sum, sympy's cancel), or tests a property the method must
have (values add on products, the union search never reports "not in").
``selftest.py`` feeds each checker a corrupted answer to show it objects.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

INF = "inf"

# -- the examples, written down apart from the registry ---------------------

# The alternating period shared by the program examples: stage 2k+1 pivots on
# x and translates y with value factor 1/2, stage 2k+2 pivots on y.
ALTERNATING = ((0, {1: Fraction(1, 2)}), (1, {}))

PROGRAM_START = {
    "ex3.7-2d": (Fraction(1), Fraction(1)),
    "ex3.7-3d": (Fraction(1), Fraction(1), Fraction(4)),
    # perfbench/configs/alt3.cfg
    "alt3": (Fraction(1), Fraction(1), Fraction(5)),
}

# Stage-0 values of every example's coordinates ("inf" on a lifted prime).
STAGE0 = {
    "ex3.7-2d": (Fraction(1), Fraction(1)),
    "ex3.7-3d": (Fraction(1), Fraction(1), Fraction(4)),
    "dvr-curve": (Fraction(1), Fraction(1)),
    "ex5.3-shape": (Fraction(1), Fraction(1), INF),
    "nonarch2d": (Fraction(1), INF),
}


def factorial_exponents(limit: int) -> list[int]:
    """Exponents of the factorial-gap series up to limit: 1, 2, 6, 24, ..."""
    out, k = [], 1
    while math.factorial(k) <= limit:
        out.append(math.factorial(k))
        k += 1
    return out


def power_exponents(limit: int, base: int = 2) -> list[int]:
    """Exponents of the geometric-gap series up to limit: 1, 2, 4, 8, ..."""
    out, e = [], 1
    while e <= limit:
        out.append(e)
        e *= base
    return out


def next_exponent(series: str, n: int) -> int:
    """The first series exponent above n."""
    if series == "factorial":
        k = 1
        while math.factorial(k) <= n:
            k += 1
        return math.factorial(k)
    e = 1
    while e <= n:
        e *= 2
    return e


def replay_values(example: str, steps: int) -> list[tuple]:
    """Value vectors of stages 0..steps by each example's defining rule."""
    if example in PROGRAM_START:
        values = list(PROGRAM_START[example])
        out = [tuple(values)]
        for n in range(1, steps + 1):
            pivot, factors = ALTERNATING[(n - 1) % 2]
            vp = values[pivot]
            values = [vp if j == pivot else
                      factors[j] * vp if j in factors else v - vp
                      for j, v in enumerate(values)]
            out.append(tuple(values))
        return out
    if example == "dvr-curve":
        return [(Fraction(1), Fraction(next_exponent("factorial", n) - n))
                for n in range(steps + 1)]
    if example == "ex5.3-shape":
        return [(Fraction(1), Fraction(next_exponent("geometric", n) - n),
                 INF) for n in range(steps + 1)]
    if example == "nonarch2d":
        return [(Fraction(1), INF) for _ in range(steps + 1)]
    raise KeyError(example)


def minimum(values) -> Fraction | str:
    finite = [v for v in values if v != INF]
    return min(finite) if finite else INF


def multiplicity_sum_closed_form(count: int) -> Fraction:
    """Sum of the first `count` multiplicities 1, 1/2, 1/2, 1/4, 1/4, ...
    of the two-coordinate alternating program."""
    k, odd = divmod(count, 2)
    if odd:
        return 3 - Fraction(2, 2 ** k)
    return 3 - Fraction(3, 2 ** k)


# -- table rendering ----------------------------------------------------------

def table_row(record: dict) -> str:
    """A JSON record in the CLI's documented table layout: sorted
    ``key: value`` fields two spaces apart, without the schema."""
    parts = []
    for key in sorted(record):
        if key == "schema":
            continue
        value = record[key]
        if isinstance(value, dict):
            inner = " ".join(f"{k}={value[k]}" for k in sorted(value))
            parts.append(f"{key}: [{inner}]")
        elif isinstance(value, list):
            parts.append(f"{key}: {' '.join(str(v) for v in value)}")
        else:
            parts.append(f"{key}: {value}")
    return "  ".join(parts)


_FIELD = re.compile(r"(\w+): (.*?)(?=  \w+: |$)")


def parse_table_row(row: str) -> dict[str, str]:
    return dict(_FIELD.findall(row))


# -- cli-walk -----------------------------------------------------------------

def check_run(example: str, steps: int, fmt: str, out: str) -> list[str]:
    """Every run.stage record against the replayed value rule."""
    lines = out.splitlines()
    if len(lines) != steps + 2:
        return [f"run {example}: {len(lines)} lines for {steps} steps"]
    expected = replay_values(example, steps)
    problems = []
    for n, line in enumerate(lines[1:]):
        if fmt == "json":
            record = json.loads(line)
            stage, values = record["stage"], record["values"]
            mult = record["multiplicity"]
        else:
            record = parse_table_row(line)
            stage = int(record.get("stage", -1))
            values = record.get("values", "").split(" ")
            mult = record.get("multiplicity")
        want = [str(v) for v in expected[n]]
        if stage != n or values != want:
            problems.append(f"run {example} stage {n}: got {stage} {values}, "
                            f"replay gives {want}")
        elif mult != str(minimum(expected[n])):
            problems.append(f"run {example} stage {n}: multiplicity {mult} "
                            f"is not the minimum of {values}")
        if len(problems) > 3:
            break
    return problems


def check_multiplicity(example: str, steps: int, fmt: str,
                       out: str) -> list[str]:
    """Entries are the stage minima; the sum on ex3.7-2d has a closed form."""
    if fmt == "json":
        record = json.loads(out)
        entries, total = record["entries"], record["sum"]
    else:
        record = parse_table_row(out.rstrip("\n"))
        entries = record.get("entries", "").split(" ")
        total = record.get("sum")
    want = [str(minimum(v)) for v in replay_values(example, steps - 1)]
    problems = []
    if entries != want:
        problems.append(f"multiplicity {example}: entries differ from the "
                        f"stage minima of the replay")
    if total != str(sum((Fraction(e) for e in want), Fraction(0))):
        problems.append(f"multiplicity {example}: sum {total} is not the "
                        f"sum of its entries")
    if example == "ex3.7-2d" and total != str(
            multiplicity_sum_closed_form(steps)):
        problems.append(f"multiplicity ex3.7-2d: sum {total} differs from "
                        f"the closed form {multiplicity_sum_closed_form(steps)}")
    return problems


def check_golden(name: str, out: str, expected: str) -> list[str]:
    if out != expected:
        return [f"golden {name}: output differs from tests/golden/{name}"]
    return []


def check_table(name: str, out: str, json_expected: str) -> list[str]:
    """A --format table output against the JSON records it renders."""
    want = "".join(table_row(json.loads(line)) + "\n"
                   for line in json_expected.splitlines())
    if out != want:
        return [f"table {name}: rows differ from the JSON records"]
    return []


# -- walk-queries -------------------------------------------------------------

def value_of_monomial(example: str, exponents) -> Fraction | str:
    """Dot product of an exponent vector with the stage-0 values."""
    total = Fraction(0)
    for e, v in zip(exponents, STAGE0[example]):
        if e:
            if v == INF:
                return INF if e > 0 else "-inf"
            total += e * v
    return total


def check_value(label: str, got, want) -> list[str]:
    if got is None:
        return [f"{label}: undecided, expected {want}"]
    value, _stage = got
    if str(value) != str(want):
        return [f"{label}: value {value}, expected {want}"]
    return []


def check_additive(label: str, vf, vg, vfg, vsum) -> list[str]:
    """v(fg) = v(f) + v(g); v(f+g) >= min, with equality when they differ."""
    problems = []
    if vf is None or vg is None or vfg is None:
        return [f"{label}: a product factor stayed undecided"]
    f, g, fg = vf[0], vg[0], vfg[0]
    if fg != f + g:
        problems.append(f"{label}: v(fg) = {fg}, v(f) + v(g) = {f + g}")
    if vsum is not None:
        low = min(f, g)
        if vsum[0] < low or (f != g and vsum[0] != low):
            problems.append(f"{label}: v(f+g) = {vsum[0]} breaks the "
                            f"ultrametric bound against {f}, {g}")
    return problems


def check_stage(label: str, verdict, stage: int) -> list[str]:
    if verdict.stage != stage:
        return [f"{label}: entered at stage {verdict.stage}, expected {stage}"]
    return []


def check_never_not_in(label: str, verdict, budget: int) -> list[str]:
    """The union search can only certify membership: an element outside
    every stage ring must come back undecided with the budget it was given."""
    if verdict.stage is not None or verdict.budget != budget:
        return [f"{label}: reported {verdict!r}, expected undecided within "
                f"budget {budget}"]
    return []


def check_agreement(label: str, union, pullback) -> list[str]:
    """Union and pullback membership never contradict where both decide."""
    if union.stage is not None and pullback.status == "NotIn":
        return [f"{label}: the union contains it but the pullback says NotIn"]
    return []


def check_composite(label: str, cv, order: int, value) -> list[str]:
    if cv.prime_order != order or str(cv.residue_value) != str(value):
        return [f"{label}: composite ({cv.prime_order}, {cv.residue_value}), "
                f"expected ({order}, {value})"]
    return []


# -- field-roundtrip ------------------------------------------------------------

def check_equal(label: str, got, want) -> list[str]:
    if got != want:
        return [f"{label}: got {got}, expected {want}"]
    return []


def check_canonical_with_sympy(samples) -> list[str]:
    """The program's canonical form against sympy, on (numerator terms,
    denominator terms, variables, RationalFunction) samples.

    The canonical pair must equal the original fraction, share no
    non-constant factor, and have a denominator whose leading coefficient in
    graded lex order is 1."""
    import sympy as sp

    problems = []
    for num_terms, den_terms, variables, f in samples:
        syms = sp.symbols(variables)

        def expr(terms):
            return sp.Add(*[sp.Rational(c.numerator, c.denominator)
                            * sp.Mul(*[s ** e for s, e in zip(syms, exps)])
                            for exps, c in terms.items()])

        got_num, got_den = expr(f.numerator.terms), expr(f.denominator.terms)
        original = sp.cancel(expr(num_terms) / expr(den_terms))
        if sp.expand(sp.cancel(got_num / got_den) - original) != 0:
            problems.append(f"canonical form of {f} differs from sympy's "
                            f"{original}")
        elif sp.Poly(sp.gcd(got_num, got_den), *syms).total_degree() > 0:
            problems.append(f"{f} is not reduced")
        else:
            lead = max(f.denominator.terms, key=lambda e: (sum(e), e))
            if f.denominator.terms[lead] != 1:
                problems.append(f"denominator of {f} is not monic")
        if len(problems) > 3:
            break
    return problems
