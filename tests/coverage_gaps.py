"""Print every statement of src/lqt that no test executes.

The test suite runs in this process under a line tracer (`sys.settrace`),
so no coverage package is needed.  A statement counts when it starts a
line that carries bytecode; one that only a subprocess reaches (the CLI
tests that start `lqt` anew, say) is reported as well.  Run it from the
repository root, with any pytest arguments after it:

    python3 tests/coverage_gaps.py
    python3 tests/coverage_gaps.py tests/test_programs.py

The output is one `path:line: statement` row per statement not executed,
then a count per module.  The exit code is the suite's.  Tracing makes the
suite take about twice as long, so the tier-1 run does not include it.
"""

from __future__ import annotations

import ast
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "lqt")


def statement_lines(path: str) -> set[int]:
    """The first lines of the statements in a source file that carry
    bytecode (so not docstrings or `global` declarations)."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    with_code: set[int] = set()
    codes = [compile(source, path, "exec")]
    while codes:
        code = codes.pop()
        with_code.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    starts = {node.lineno for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.stmt)}
    return starts & with_code


def main(argv: list[str]) -> int:
    import pytest

    executed = {os.path.join(PACKAGE, name): set()
                for name in sorted(os.listdir(PACKAGE))
                if name.endswith(".py")}
    # co_filename -> its set in executed, or None for any other file
    seen: dict[str, set[int] | None] = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        lines = seen.get(name, False)
        if lines is False:
            lines = seen[name] = executed.get(os.path.realpath(name))
        return None if lines is None else trace_lines

    sys.path[:0] = [os.path.join(ROOT, "src")]
    sys.settrace(trace_calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
    total = 0
    counts = []
    for path, lines in executed.items():
        with open(path, encoding="utf-8") as handle:
            text = handle.read().splitlines()
        missed = sorted(statement_lines(path) - lines)
        rel = os.path.relpath(path, ROOT)
        for line in missed:
            print(f"{rel}:{line}: {text[line - 1].strip()}")
        counts.append(f"{rel}: {len(missed)} not executed")
        total += len(missed)
    print("\n".join(counts))
    print(f"{total} statements of src/lqt not executed")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
