"""Spans around the public functions of each lqt layer, recorded in memory.

The benchmark installs the wrappers itself; nothing under src/ knows about
them.  A function is patched under every name its callers look it up by:
``poly_gcd``, for example, is imported by name into ``lqt.functions``, so
patching ``lqt.polynomials.poly_gcd`` alone would miss every call that
matters.  Methods are patched on their class, which operator dispatch reads.

Each span is one row of five parallel arrays: name id, start, end (both
``perf_counter_ns``), parent row and operation number.  Rows stay in memory
until the run ends; ``write`` dumps them, ``summarize`` turns them into
per-layer self times.  Calls made outside an operation, such as those of
the correctness checks between operations, record nothing.  A span's self
time is its duration minus the durations of its direct children.  In a
single-threaded process children lie inside their parent and one after
another, so no self time is negative and those of one operation add up to
its duration; ``summarize`` checks that they do.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# (span name, owner, attribute).  owner is "module:Class" for a method and
# "module" for a function; functions are also replaced in every lqt module
# that imported them by name.
TARGETS = [
    ("polynomials.mul", "lqt.polynomials:Polynomial", "__mul__"),
    ("polynomials.substitute", "lqt.polynomials:Polynomial", "substitute"),
    ("polynomials.gcd", "lqt.polynomials", "poly_gcd"),
    ("polynomials.exact_div", "lqt.polynomials", "exact_div"),
    ("functions.canonical", "lqt.functions:RationalFunction", "__init__"),
    ("functions.arith", "lqt.functions:RationalFunction", "__add__"),
    ("functions.arith", "lqt.functions:RationalFunction", "__sub__"),
    ("functions.arith", "lqt.functions:RationalFunction", "__mul__"),
    ("functions.arith", "lqt.functions:RationalFunction", "__truediv__"),
    ("functions.substitute", "lqt.functions:RationalFunction", "substitute"),
    ("parsing.parse", "lqt.parsing", "parse_expr"),
    ("analysis.advance", "lqt.analysis:AnalysisSession", "advance_state"),
    ("analysis.state_at", "lqt.analysis:AnalysisSession", "state_at"),
    ("analysis.query", "lqt.analysis:AnalysisSession", "member"),
    ("analysis.query", "lqt.analysis:AnalysisSession", "value_of"),
    ("analysis.query", "lqt.analysis:AnalysisSession", "w_approx"),
    ("analysis.query", "lqt.analysis:AnalysisSession", "e_approx"),
    ("series.value", "lqt.series", "series_value"),
    ("series.truncate", "lqt.series:CoefficientStream", "truncate"),
    ("pullback.member", "lqt.pullback", "member_pullback"),
    ("pullback.composite", "lqt.pullback", "composite_value"),
    ("pullback.residue", "lqt.pullback", "residue"),
    ("programs.value_vector", "lqt.programs:ValuationProgram",
     "value_vector_at"),
    ("programs.step", "lqt.programs:ProgramStep", "next_values"),
    ("programs.classify", "lqt.programs", "classify_multiplicity"),
    ("registry.build", "lqt.registry", "get_example"),
    ("registry.build", "lqt.config", "load_config_text"),
    ("cli.emit", "lqt.cli:Reporter", "emit"),
] + [("cli.command", "lqt.cli", name) for name in (
    "cmd_run", "cmd_member", "cmd_classify", "cmd_multiplicity", "cmd_value",
    "cmd_wapprox", "cmd_eapprox", "cmd_composite")]

OP = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP] + list(dict.fromkeys(
            name for name, _, _ in TARGETS))
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_index = -1
        self.gcd_nontrivial = 0

    # -- recording ---------------------------------------------------------

    def begin_op(self, t0: int) -> None:
        """Open the span of an operation timed from t0 (perf_counter_ns)."""
        self.op_index += 1
        self.stack.append(len(self.start))
        self.name_id.append(0)
        self.parent.append(-1)
        self.op.append(self.op_index)
        self.start.append(t0)
        self.end.append(0)

    def end_op(self, t1: int) -> None:
        """Close the operation's span at t1, the end of its timed region."""
        self.end[self.stack.pop()] = t1

    def wrap(self, name: str, fn):
        """A span-recording wrapper around fn.

        The wrapper calls only builtins between entering and the try block,
        so a RecursionError (the deep-nesting operation raises one) can only
        surface before any array is touched or inside fn."""
        nid = self.names.index(name)
        stack, clock = self.stack, time.perf_counter_ns
        name_id, start, end = self.name_id, self.start, self.end
        parent, op = self.parent, self.op
        tracer = self
        count_nontrivial = name == "polynomials.gcd"

        def wrapper(*args, **kwargs):
            if len(stack) == 1:
                return fn(*args, **kwargs)
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_index)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count_nontrivial and not result.is_one():
                tracer.gcd_nontrivial += 1
            return result
        return functools.update_wrapper(wrapper, fn)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target under each name its callers use."""
        for name, owner, attr in TARGETS:
            module_name, _, class_name = owner.partition(":")
            module = sys.modules[module_name]
            if class_name:
                cls = getattr(module, class_name)
                setattr(cls, attr, self.wrap(name, cls.__dict__[attr]))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "lqt" or mod_name.startswith("lqt."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    # -- results -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Dump the span arrays: a JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["name_id", "H"], ["start", "q"], ["end", "q"],
                             ["parent", "i"], ["op", "i"]],
                  "clock": "perf_counter_ns"}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.start, self.end, self.parent,
                        self.op):
                arr.tofile(handle)

    def summarize(self, op_scales: list[float] | None = None) -> dict:
        """Per-name call counts and self times, the counts behind the three
        ratios, and ``problems``: every way the spans fail to nest.  A span
        must end after it starts, an operation's span must have no parent
        and every other span one, a child must lie inside its parent and
        start after its previous sibling ends, and no self time may be
        negative.  Only then do the self times of an operation add up to no
        more than its traced duration.  ``op_scales[k]``, when given, scales
        the self times of operation k to the reference host speed, as the
        worker scales its latency; the nesting checks use the raw times."""
        n = len(self.start)
        ids = {name: k for k, name in enumerate(self.names)}
        name_id, start, end, parent = (self.name_id, self.start, self.end,
                                       self.parent)
        problems: list[str] = []
        errors = 0

        def bad(i: int, what: str) -> None:
            nonlocal errors
            errors += 1
            if len(problems) < 10:
                problems.append(f"span {i} ({self.names[name_id[i]]} in "
                                f"operation {self.op[i]}) {what}")

        child_ns = [0] * n
        last_end = start[:]  # per parent: where its next child may start
        for i in range(n):
            if end[i] < start[i]:
                bad(i, "ends before it starts")
            p = parent[i]
            if (name_id[i] == 0) != (p < 0):
                bad(i, "is not nested in exactly one operation")
                continue
            if p < 0:
                continue
            if start[i] < start[p] or end[i] > end[p]:
                bad(i, "sticks out of its parent")
            elif start[i] < last_end[p]:
                bad(i, "overlaps an earlier sibling")
            last_end[p] = end[i]
            child_ns[p] += end[i] - start[i]
        calls = [0] * len(ids)
        self_ns = [0] * len(ids)
        advanced_from: set[int] = set()
        steps_in_vectors = 0
        for i in range(n):
            nid = name_id[i]
            own = end[i] - start[i] - child_ns[i]
            if own < 0:
                bad(i, "has a negative self time")
            calls[nid] += 1
            self_ns[nid] += own * op_scales[self.op[i]] if op_scales else own
            if nid == ids["analysis.advance"]:
                advanced_from.add(parent[i])
            elif (nid == ids["programs.step"] and parent[i] >= 0
                  and name_id[parent[i]] == ids["programs.value_vector"]):
                steps_in_vectors += 1
        if errors > len(problems):
            problems.append(f"{errors - len(problems)} more spans that do "
                            f"not nest")
        state_at = ids["analysis.state_at"]
        hits = sum(1 for i in range(n)
                   if name_id[i] == state_at and i not in advanced_from)
        return {"by_name": {name: (calls[k], self_ns[k] / 1e9)
                            for name, k in ids.items()},
                "ops": calls[0], "spans": n,
                "problems": problems,
                "gcd_nontrivial": self.gcd_nontrivial,
                "state_hits": hits,
                "steps_in_vectors": steps_in_vectors}


LAYER_METRICS = [
    # (metric, span name, what)  what: calls | self
    ("polynomials.mul.calls", "polynomials.mul", "calls"),
    ("polynomials.mul.self_s", "polynomials.mul", "self"),
    ("polynomials.substitute.calls", "polynomials.substitute", "calls"),
    ("polynomials.substitute.self_s", "polynomials.substitute", "self"),
    ("polynomials.gcd.calls", "polynomials.gcd", "calls"),
    ("polynomials.gcd.self_s", "polynomials.gcd", "self"),
    ("polynomials.exact_div.calls", "polynomials.exact_div", "calls"),
    ("polynomials.exact_div.self_s", "polynomials.exact_div", "self"),
    ("functions.canonical.calls", "functions.canonical", "calls"),
    ("functions.canonical.self_s", "functions.canonical", "self"),
    ("functions.arith.calls", "functions.arith", "calls"),
    ("functions.arith.self_s", "functions.arith", "self"),
    ("functions.substitute.calls", "functions.substitute", "calls"),
    ("functions.substitute.self_s", "functions.substitute", "self"),
    ("parsing.parse.calls", "parsing.parse", "calls"),
    ("parsing.parse.self_s", "parsing.parse", "self"),
    ("analysis.advance.calls", "analysis.advance", "calls"),
    ("analysis.advance.self_s", "analysis.advance", "self"),
    ("analysis.state_at.calls", "analysis.state_at", "calls"),
    ("analysis.query.calls", "analysis.query", "calls"),
    ("analysis.query.self_s", "analysis.query", "self"),
    ("series.value.calls", "series.value", "calls"),
    ("series.value.self_s", "series.value", "self"),
    ("series.truncate.calls", "series.truncate", "calls"),
    ("series.truncate.self_s", "series.truncate", "self"),
    ("pullback.member.calls", "pullback.member", "calls"),
    ("pullback.member.self_s", "pullback.member", "self"),
    ("pullback.composite.calls", "pullback.composite", "calls"),
    ("pullback.composite.self_s", "pullback.composite", "self"),
    ("pullback.residue.calls", "pullback.residue", "calls"),
    ("pullback.residue.self_s", "pullback.residue", "self"),
    ("programs.value_vector.calls", "programs.value_vector", "calls"),
    ("programs.value_vector.self_s", "programs.value_vector", "self"),
    ("programs.step.calls", "programs.step", "calls"),
    ("programs.step.self_s", "programs.step", "self"),
    ("programs.classify.calls", "programs.classify", "calls"),
    ("programs.classify.self_s", "programs.classify", "self"),
    ("registry.build.calls", "registry.build", "calls"),
    ("registry.build.self_s", "registry.build", "self"),
    ("cli.emit.calls", "cli.emit", "calls"),
    ("cli.emit.self_s", "cli.emit", "self"),
    ("cli.command.self_s", "cli.command", "self"),
    ("op.self_s", OP, "self"),
]


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics: calls per operation and self seconds per
    operation, plus the three ratios."""
    ops = summary["ops"]
    by_name = summary["by_name"]
    out: dict[str, tuple[float, str]] = {}
    for metric, span, what in LAYER_METRICS:
        calls, self_s = by_name[span]
        if what == "calls":
            out[metric] = (calls / ops, "1/op")
        else:
            out[metric] = (self_s / ops, "s/op")
    gcd_calls = by_name["polynomials.gcd"][0]
    state_calls = by_name["analysis.state_at"][0]
    vectors = by_name["programs.value_vector"][0]
    out["polynomials.gcd.nontrivial_ratio"] = (
        summary["gcd_nontrivial"] / gcd_calls if gcd_calls else 0.0, "ratio")
    out["analysis.state_hit_ratio"] = (
        summary["state_hits"] / state_calls if state_calls else 0.0, "ratio")
    out["programs.steps_per_vector"] = (
        summary["steps_in_vectors"] / vectors if vectors else 0.0, "ratio")
    return out
