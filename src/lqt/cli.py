"""Command line interface.

Commands operate on an example (built in, or loaded from a config file) and
print one JSON object per line by default; --format table renders the same
data for reading.  Exact values are serialized as strings ("3/2", "inf"),
counters as integers, so output is byte-stable across runs.  Every record
goes through Reporter.emit except `run`'s stage lines, which cmd_run writes
directly, each equal to the line emit would print for its record.

Exit codes: 0 success, 2 usage or config errors, 3 consistency failures
(a stage that contradicts its program, or cross-checks that disagree),
4 undecided results under --strict.  Every failure, argparse's usage errors
included, writes exactly one line to stderr.  Commands let faults propagate;
main alone maps them to a code, whichever command raised them:
ProgramConsistencyError to 3, any other ValueError or ArithmeticError to 2
(bar argparse's usage errors, which _ArgumentParser.error reports itself).
A command that ends normally leaves 3 and 4 to main, which writes their
line from the Reporter's counts.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from .analysis import DEFAULT_BUDGET, LimitTrace, MembershipVerdict
from .config import load_config_file
from .parsing import ParseError, parse_expr
from .programs import Infinite, ProgramConsistencyError
from .pullback import (classify_shannon, composite_value, member_pullback,
                       member_RP, residue)
from .registry import Example, get_example

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3
EXIT_UNDECIDED = 4

# Caps far above any walk the examples need, so every command ends.
MAX_STEPS = 5000
MAX_BUDGET = 1000
# Longest prefix of a bad element or argument that an error message echoes.
ECHO_LIMIT = 60

# json.dumps with any non-default argument builds a new encoder per call
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class Reporter:
    """Collects output lines and the facts that drive the exit code."""

    def __init__(self, fmt: str, strict: bool):
        self.fmt = fmt
        self.strict = strict
        self.undecided = 0
        self.disagreements = 0

    def emit(self, obj: dict) -> None:
        if self.fmt == "json":
            print(_JSON.encode(obj))
        else:
            print(self._as_table_row(obj))

    @staticmethod
    def _as_table_row(obj: dict) -> str:
        parts = []
        for key in sorted(obj):
            if key == "schema":
                continue
            value = obj[key]
            if isinstance(value, dict):
                inner = " ".join(f"{k}={value[k]}" for k in sorted(value))
                parts.append(f"{key}: [{inner}]")
            elif isinstance(value, list):
                parts.append(f"{key}: {' '.join(str(v) for v in value)}")
            else:
                parts.append(f"{key}: {value}")
        return "  ".join(parts)

    def exit_code(self) -> int:
        if self.disagreements:
            return EXIT_INCONSISTENT
        if self.strict and self.undecided:
            return EXIT_UNDECIDED
        return EXIT_OK


def enc(value) -> str | None:
    """Exact scalar to its stable string form."""
    if value is None:
        return None
    # int and Infinite first: they never reach Fraction's ABC check
    if isinstance(value, (int, Infinite, Fraction)):
        return str(value)
    raise TypeError(f"cannot serialize {value!r}")


def enc_scaled(num, den: int) -> str:
    """The value num/den as `enc` writes it, by one gcd and no Fraction."""
    if type(num) is Infinite:
        return str(num)
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


# -- command implementations --------------------------------------------------

def cmd_run(example: Example, args, rep: Reporter) -> None:
    rep.emit({"schema": "run.header", "example": example.name,
              "kind": example.kind, "bases": list(example.ambient),
              "description": example.description})
    source = example.source
    bases = tuple(source.bases)
    as_json = rep.fmt == "json"
    encode = _JSON.encode if as_json else str
    # each run.stage line is the one emit would print for its record, built
    # here directly; redirect_stdout and capsys swap sys.stdout before a call
    write = sys.stdout.write
    # a periodic walk repeats a few steps: each one's text is built once
    texts: dict = {}
    text = encode(None)
    for n in range(args.steps + 1):
        nums, den = source.scaled_vector_at(n)
        values = [enc_scaled(v, den) for v in nums]
        mult = values[nums.index(min(nums))]
        if n:
            step = source.directive_at(n)
            text = texts.get(step)
            if text is None:
                text = texts[step] = encode(step.describe(bases))
        if as_json:
            joined = '","'.join(values)
            write(f'{{"directive":{text},"multiplicity":"{mult}","schema":'
                  f'"run.stage","stage":{n},"values":["{joined}"]}}\n')
        else:
            write(f"directive: {text}  multiplicity: {mult}  stage: {n}  "
                  f"values: {' '.join(values)}\n")


def cmd_member(example: Example, args, rep: Reporter) -> None:
    mode = args.mode
    if mode in ("pullback", "both") and not example.has_pullback:
        raise ValueError(f"example {example.name} has no pullback side; "
                         f"--mode {mode} does not apply")
    for expr in args.elements:
        f = _parse_element(expr, example)
        line: dict = {"schema": "member", "element": expr,
                      "example": example.name, "mode": mode,
                      "budget": args.budget}
        union = pull = None
        if mode in ("union", "both"):
            union = example.session.member(f, args.budget)
            line["union"] = _member_dict(union)
            if not union.decided:
                rep.undecided += 1
        if mode in ("pullback", "both"):
            pull = member_pullback(f, example.prime, example.quotient,
                                   args.budget)
            line["pullback"] = {"status": pull.status, "detail": pull.detail}
            if not pull.decided:
                rep.undecided += 1
        if mode == "both":
            agreement = _agreement(union, pull)
            line["agreement"] = agreement
            if agreement == "disagree":
                rep.disagreements += 1
        rep.emit(line)


def _member_dict(v: MembershipVerdict) -> dict:
    if v.decided:
        return {"verdict": "In", "stage": v.stage}
    return {"verdict": "NotWithinBudget", "budget": v.budget}


def _agreement(union: MembershipVerdict, pull) -> str:
    """The union search can only certify membership, never exclusion, so a
    budget exhaustion only counts as agreement against a definite NotIn."""
    if union.decided and pull.status == "In":
        return "agree"
    if not union.decided and pull.status == "NotIn":
        return "agree"
    if union.decided and pull.status == "NotIn":
        return "disagree"
    return "undecided"


def cmd_classify(example: Example, args, rep: Reporter) -> None:
    shannon = classify_shannon(example.source)
    outcome = shannon.multiplicity
    key = ("quotient_multiplicity" if example.kind == "pullback"
           else "multiplicity")
    rep.emit({"schema": "classify", "example": example.name,
              "kind": example.kind, key: _mult_dict(outcome),
              "shannon": _shannon_dict(shannon)})
    if outcome.kind == "Undecided" or shannon.kind == "Unknown":
        rep.undecided += 1


def _mult_dict(outcome) -> dict:
    d = {"kind": outcome.kind, "detail": outcome.detail}
    if outcome.limit is not None:
        d["limit"] = enc(outcome.limit)
    return d


def _shannon_dict(shannon) -> dict:
    d = {"kind": shannon.kind, "reason": shannon.reason}
    if shannon.witness is not None:
        d["witness"] = shannon.witness
    if shannon.union_is_pullback is not None:
        d["union_is_pullback"] = shannon.union_is_pullback
    return d


def cmd_multiplicity(example: Example, args, rep: Reporter) -> None:
    minima = [(min(nums), den) for nums, den in
              map(example.source.scaled_vector_at, range(args.steps))]
    line = {"schema": "multiplicity", "example": example.name,
            "steps": args.steps,
            "entries": [enc_scaled(m, den) for m, den in minima]}
    if args.sum:
        common = math.lcm(*(den for _, den in minima))  # reduced once
        line["sum"] = enc_scaled(
            sum(m * (common // den) for m, den in minima), common)
    rep.emit(line)


def cmd_value(example: Example, args, rep: Reporter) -> None:
    for expr in args.elements:
        f = _parse_element(expr, example)
        res = example.session.value_of(f, args.budget)
        line = {"schema": "value", "element": expr, "example": example.name,
                "budget": args.budget}
        if res is None:
            line.update({"value": None, "stage": None, "decided": False})
            rep.undecided += 1
        else:
            value, stage = res
            line.update({"value": enc(value), "stage": stage,
                         "decided": True})
        rep.emit(line)


def cmd_wapprox(example: Example, args, rep: Reporter) -> None:
    ref_expr = args.reference or example.ambient[0]
    ref = _parse_element(ref_expr, example)
    for expr in args.elements:
        f = _parse_element(expr, example)
        trace = example.session.w_approx(f, ref, args.budget)
        rep.emit(_trace_dict(trace, {"schema": "wapprox", "element": expr,
                                     "reference": ref_expr,
                                     "example": example.name,
                                     "budget": args.budget}))
        if not trace.stabilized:
            rep.undecided += 1


def cmd_eapprox(example: Example, args, rep: Reporter) -> None:
    for expr in args.elements:
        f = _parse_element(expr, example)
        result = example.session.e_approx(f, args.budget)
        line = {"schema": "eapprox", "element": expr,
                "example": example.name, "budget": args.budget}
        if isinstance(result, MembershipVerdict):
            line.update({"verdict": "NotWithinBudget",
                         "note": "the element never entered the union, so "
                                 "there is nothing to transform"})
            rep.undecided += 1
        else:
            line = _trace_dict(result, line)
            if not result.stabilized:
                rep.undecided += 1
        rep.emit(line)


def _trace_dict(trace: LimitTrace, line: dict) -> dict:
    line.update({
        "start": trace.start,
        "approximants": [enc(a) for a in trace.approximants],
        "stabilized": trace.stabilized,
        "last": enc(trace.last),
    })
    return line


def cmd_composite(example: Example, args, rep: Reporter) -> None:
    if not example.has_pullback:
        raise ValueError(f"example {example.name} has no prime/quotient pair; "
                         f"composite values do not apply")
    for expr in args.elements:
        f = _parse_element(expr, example)
        cv = composite_value(f, example.prime, example.quotient, args.budget)
        line = {"schema": "composite", "element": expr,
                "example": example.name,
                "prime_order": cv.prime_order,
                "residue_value": enc(cv.residue_value),
                "decided": cv.decided}
        if not cv.decided:
            rep.undecided += 1
        if args.diagnostic:
            local = member_RP(f, example.prime)
            diag = {"member_rp": local}
            if local:
                diag["residue"] = str(residue(f, example.prime))
            verdict = member_pullback(f, example.prime, example.quotient,
                                      args.budget)
            diag["pullback"] = verdict.status
            line["diagnostic"] = diag
        rep.emit(line)


# -- argument plumbing ---------------------------------------------------------

def _parse_element(expr: str, example: Example):
    try:
        f = parse_expr(expr, example.ambient)
    except ParseError as exc:
        raise ValueError(f"bad element {_shorten(expr)!r}: {exc}") from None
    return f


def _shorten(text: str, limit: int = ECHO_LIMIT) -> str:
    return text if len(text) <= limit else text[:limit] + "..."


def _resolve_example(args) -> Example:
    if args.example and args.config:
        raise ValueError("give either --example or --config, not both")
    if args.example:
        try:
            return get_example(args.example)
        except KeyError as exc:
            raise ValueError(str(exc.args[0])) from None
    if args.config:
        try:
            return load_config_file(args.config)
        except FileNotFoundError:
            raise ValueError(f"config file not found: {args.config}") from None
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ValueError(f"cannot read config {args.config}: "
                             f"{reason}") from None
        except ValueError as exc:
            raise ValueError(f"bad config {args.config}: {exc}") from None
    raise ValueError("an example is required: --example NAME or --config FILE")


class _ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are one line, like every other
    failure of a command; add_subparsers builds its subparsers from this
    class too."""

    def error(self, message: str):
        # argparse echoes bad arguments in full: each word is shortened like
        # a bad element, and the whole message to a few such echoes
        line = " ".join(_shorten(word) for word in message.split())
        print(f"error: {_shorten(line, 3 * ECHO_LIMIT)}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(parser: argparse.ArgumentParser, strict: bool = False,
                elements: bool = False) -> None:
    """--example, --config and --format; --strict for a command that can
    leave an answer undecided; --budget and -e for one asked about elements."""
    parser.add_argument("--example", help="name of a built-in example")
    parser.add_argument("--config", help="path to a config file")
    parser.add_argument("--format", choices=("json", "table"),
                        default="json", help="output format")
    if strict or elements:
        parser.add_argument("--strict", action="store_true",
                            help="exit with status 4 if anything stays "
                                 "undecided")
    if elements:
        parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                            help="maximum stage to explore")
        parser.add_argument("-e", "--element", dest="elements",
                            action="append", required=True, metavar="EXPR",
                            help="element of the ambient field (repeatable)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call of main and shared by
    every later one: parse_args leaves it as it was.  Examples and sessions
    are still built afresh for each call."""
    parser = _ArgumentParser(
        prog="lqt",
        description="exact computations along iterated local quadratic "
                    "transforms")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="walk the stages: directives, values, "
                                   "multiplicities")
    _add_common(p)
    p.add_argument("--steps", type=int, default=8,
                   help="number of transform steps to walk")

    p = sub.add_parser("member", help="membership of elements in the union "
                                      "ring")
    _add_common(p, elements=True)
    p.add_argument("--mode", choices=("union", "pullback", "both"),
                   default="union",
                   help="check the stage union, the pullback ring, or both")

    p = sub.add_parser("classify", help="classify the union ring")
    _add_common(p, strict=True)

    p = sub.add_parser("multiplicity", help="stage multiplicities")
    _add_common(p)
    p.add_argument("--steps", type=int, default=8,
                   help="number of entries to list")
    p.add_argument("--sum", action="store_true",
                   help="include the partial sum")

    p = sub.add_parser("value", help="exact values of elements")
    _add_common(p, elements=True)

    p = sub.add_parser("wapprox", help="order-ratio approximants")
    _add_common(p, elements=True)
    p.add_argument("--ref", dest="reference", metavar="EXPR",
                   help="reference element (default: the first variable)")

    p = sub.add_parser("eapprox", help="transform-order approximants")
    _add_common(p, elements=True)

    p = sub.add_parser("composite", help="rank-two values along the prime")
    _add_common(p, elements=True)
    p.add_argument("--diagnostic", action="store_true",
                   help="include localization and pullback details")

    return parser


def _validate_args(args) -> None:
    for flag, value, cap in (
            ("--budget", getattr(args, "budget", 0), MAX_BUDGET),
            ("--steps", getattr(args, "steps", 0), MAX_STEPS)):
        if value < 0:
            raise ValueError(f"{flag} must be nonnegative")
        if value > cap:
            raise ValueError(f"{flag} must be at most {cap}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    rep = Reporter(args.format, getattr(args, "strict", False))
    try:
        _validate_args(args)
        example = _resolve_example(args)
        # looked up at each call, so that a wrapped or patched command runs
        globals()[f"cmd_{args.command}"](example, args, rep)
    except ProgramConsistencyError as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    code = rep.exit_code()
    if code == EXIT_INCONSISTENT:
        print(f"inconsistent: union and pullback disagree on "
              f"{rep.disagreements} element(s)", file=sys.stderr)
    elif code == EXIT_UNDECIDED:
        print(f"undecided: {rep.undecided} answer(s) under --strict",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
