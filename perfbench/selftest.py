"""Self-test of the benchmark's checkers: each must accept a right answer
and reject a deliberately corrupted one, so that no check passes vacuously.

    python3 perfbench/selftest.py

Exit status 0 when every checker behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import lqt  # noqa: E402
from lqt.analysis import MembershipVerdict  # noqa: E402
from lqt.pullback import CompositeValue, PullbackVerdict  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import run_cli  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"


def replace_once(text: str, old: str, new: str) -> str:
    assert old in text, old
    return text.replace(old, new, 1)


def nesting_problems(rows) -> list[str]:
    """What Tracer.summarize finds wrong with spans given as (name, start,
    end, parent row) rows of operation 0."""
    spans = tracer.Tracer()
    for name, start, end, parent in rows:
        spans.name_id.append(spans.names.index(name))
        spans.start.append(start)
        spans.end.append(end)
        spans.parent.append(parent)
        spans.op.append(0)
    return spans.summarize()["problems"]


def cases():
    """(name, problems for the right answer, problems for the corrupted)."""
    run_json = (GOLDEN / "run_ex37_2d.jsonl").read_text()
    lines = run_json.splitlines(keepends=True)
    yield ("run: a value off by one", checks.check_run(
        "ex3.7-2d", 4, "json", run_json), checks.check_run(
        "ex3.7-2d", 4, "json", replace_once(
            run_json, '"values":["1","1/2"]', '"values":["2","1/2"]')))
    yield ("run: a missing stage", [], checks.check_run(
        "ex3.7-2d", 4, "json", "".join(lines[:2] + lines[3:])))
    yield ("run: a multiplicity that is not the minimum", [],
           checks.check_run("ex3.7-2d", 4, "json", replace_once(
               run_json, '"multiplicity":"1/2"', '"multiplicity":"1"')))
    _, table, _ = run_cli(["run", "--example", "nonarch2d", "--steps", "30",
                           "--format", "table"])
    yield ("run table: a finite value on the prime", checks.check_run(
        "nonarch2d", 30, "table", table), checks.check_run(
        "nonarch2d", 30, "table", replace_once(table, "values: 1 inf",
                                               "values: 1 7")))
    _, shape, _ = run_cli(["run", "--example", "ex5.3-shape", "--steps",
                           "40"])
    yield ("run series: a gap off by one", checks.check_run(
        "ex5.3-shape", 40, "json", shape), checks.check_run(
        "ex5.3-shape", 40, "json", replace_once(
            shape, '"values":["1","16","inf"]', '"values":["1","15","inf"]')))

    mult = (GOLDEN / "multiplicity_ex37_2d.jsonl").read_text()
    yield ("multiplicity: a sum off the closed form", checks.check_multiplicity(
        "ex3.7-2d", 7, "json", mult), checks.check_multiplicity(
        "ex3.7-2d", 7, "json", replace_once(mult, '"sum":"11/4"',
                                            '"sum":"3"')))
    yield ("multiplicity: an entry off", [], checks.check_multiplicity(
        "ex3.7-2d", 7, "json", replace_once(mult, '"1/8","1/8"',
                                            '"1/8","1/16"')))
    _, mult_table, _ = run_cli(["multiplicity", "--example", "ex3.7-3d",
                                "--steps", "50", "--sum", "--format", "table"])
    yield ("multiplicity table: an entry off", checks.check_multiplicity(
        "ex3.7-3d", 50, "table", mult_table), checks.check_multiplicity(
        "ex3.7-3d", 50, "table", replace_once(mult_table, "entries: 1 1/2",
                                              "entries: 1 1/3")))

    golden = (GOLDEN / "classify_ex37_3d.jsonl").read_text()
    yield ("golden: one byte changed", checks.check_golden(
        "classify_ex37_3d.jsonl", golden, golden), checks.check_golden(
        "classify_ex37_3d.jsonl", replace_once(golden, "witness", "witnesz"),
        golden))
    _, classify_table, _ = run_cli(["classify", "--example", "ex3.7-3d",
                                    "--format", "table"])
    yield ("table: a changed field", checks.check_table(
        "ex3.7-3d", classify_table, golden), checks.check_table(
        "ex3.7-3d", replace_once(classify_table, "witness=z", "witness=y"),
        golden))

    yield ("value: off by one", checks.check_value(
        "v", (Fraction(24), 6), 24), checks.check_value(
        "v", (Fraction(25), 6), 24))
    yield ("value: undecided", [], checks.check_value("v", None, 24))
    yield ("additive: product off by one", checks.check_additive(
        "p", (Fraction(1), 0), (Fraction(3, 2), 1), (Fraction(5, 2), 1),
        (Fraction(1), 1)), checks.check_additive(
        "p", (Fraction(1), 0), (Fraction(3, 2), 1), (Fraction(7, 2), 1),
        None))
    yield ("additive: sum below the minimum", [], checks.check_additive(
        "p", (Fraction(1), 0), (Fraction(3, 2), 1), (Fraction(5, 2), 1),
        (Fraction(1, 2), 1)))
    yield ("stage: entered one stage late", checks.check_stage(
        "s", MembershipVerdict(7, 17), 7), checks.check_stage(
        "s", MembershipVerdict(8, 17), 7))
    yield ("never not in: a decided verdict", checks.check_never_not_in(
        "n", MembershipVerdict(None, 250), 250), checks.check_never_not_in(
        "n", MembershipVerdict(3, 250), 250))
    yield ("never not in: the budget cut short", [],
           checks.check_never_not_in("n", MembershipVerdict(None, 20), 250))
    yield ("agreement: union In, pullback NotIn", checks.check_agreement(
        "a", MembershipVerdict(0, 40), PullbackVerdict("In")),
        checks.check_agreement("a", MembershipVerdict(0, 40),
                               PullbackVerdict("NotIn")))
    yield ("composite: residue value off by one", checks.check_composite(
        "c", CompositeValue(1, Fraction(-5)), 1, -5), checks.check_composite(
        "c", CompositeValue(1, Fraction(-4)), 1, -5))

    bases = ("x", "y")
    num = {(1, 0): Fraction(2), (0, 2): Fraction(-1, 3)}
    den = {(1, 1): Fraction(3), (0, 0): Fraction(1)}
    f = lqt.RationalFunction(lqt.Polynomial(bases, num),
                             lqt.Polynomial(bases, den))
    g = lqt.Polynomial(bases, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    unreduced = lqt.RationalFunction._make(f.numerator * g,
                                           f.denominator * g)
    doubled = lqt.RationalFunction._make(f.numerator.scale(2),
                                         f.denominator.scale(2))
    other = lqt.RationalFunction._make(f.numerator.scale(2), f.denominator)
    yield ("canonical: an unreduced fraction", checks.check_canonical_with_sympy(
        [(num, den, bases, f)]), checks.check_canonical_with_sympy(
        [(num, den, bases, unreduced)]))
    yield ("canonical: a denominator that is not monic", [],
           checks.check_canonical_with_sympy([(num, den, bases, doubled)]))
    yield ("canonical: a different value", [],
           checks.check_canonical_with_sympy([(num, den, bases, other)]))
    nested = [(tracer.OP, 0, 100, -1), ("functions.arith", 10, 60, 0),
              ("polynomials.gcd", 20, 50, 1), ("polynomials.gcd", 60, 90, 0)]
    right = nesting_problems(nested)
    yield ("spans: a child sticking out of its parent", right,
           nesting_problems(nested[:2] + [("polynomials.gcd", 20, 70, 1)]
                            + nested[3:]))
    yield ("spans: siblings that overlap", [],
           nesting_problems(nested[:3] + [("polynomials.gcd", 50, 90, 0)]))
    yield ("spans: a span ending after its operation", [],
           nesting_problems(nested[:3] + [("polynomials.gcd", 60, 110, 0)]))
    yield ("spans: a span outside every operation", [],
           nesting_problems(nested[:3] + [("polynomials.gcd", 60, 90, -1)]))
    yield ("equal: a round trip that lost a sign", checks.check_equal(
        "e", f, f), checks.check_equal("e", -f, f))


def main() -> int:
    bad = 0
    for name, right, corrupted in cases():
        ok = not right and bool(corrupted)
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}"
              + ("" if ok else f": right {right}, corrupted {corrupted}"))
    print(json.dumps({"checkers_ok": bad == 0}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
