"""The package surface: what `lqt` exports, and what the benchmark under
`perfbench/` uses of it."""

import dataclasses
import importlib.util
import inspect
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lqt


def test_every_public_name_has_a_docstring():
    """Each class and function in `lqt.__all__` carries a docstring of its
    own, not one inherited from a base class."""
    missing = []
    for name in lqt.__all__:
        obj = getattr(lqt, name)
        if inspect.isclass(obj):
            doc = vars(obj).get("__doc__")
        elif inspect.isfunction(obj):
            doc = obj.__doc__
        else:
            continue
        if not (doc and doc.strip()):
            missing.append(name)
    assert missing == []


ROOT = Path(__file__).resolve().parents[1]


def test_every_tracer_target_resolves():
    """The benchmark's tracer patches lqt functions and methods by name, so
    a renamed target would break only a traced run.  Each target is read
    from `perfbench/tracer.py` without installing the tracer: a function
    must be an attribute of its module, and a method must sit in its
    class's own `__dict__`, where the tracer looks it up."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = []
    for _, owner, attr in tracer.TARGETS:
        module_name, _, class_name = owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            cls = getattr(module, class_name, None)
            found = cls is not None and attr in vars(cls)
        else:
            found = hasattr(module, attr)
        if not found:
            missing.append(f"{owner}.{attr}")
    assert missing == []


def test_benchmark_checkers_pass_their_self_test():
    """perfbench/selftest.py builds result types by position; -B keeps
    the run from writing bytecode under perfbench/."""
    done = subprocess.run([sys.executable, "-B", "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == '{"checkers_ok": true}'


# One round of each workload, with the worker's bookkeeping: an operation
# either fails or has its answer checked, then the workload's final checks.
ONE_ROUND = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
import workloads
ops, failed, problems = 0, 0, []
for make in workloads.WORKLOADS.values():
    workload = make(1)
    for op in workload.next_round():
        ops += 1
        answer = op.run()
        if op.failed(answer):
            failed += 1
        else:
            problems += op.check(answer)
    problems += workload.final_checks()
print(json.dumps({"ops": ops, "failed": failed, "problems": problems}))
"""


def test_one_round_of_each_benchmark_workload_passes_its_checks():
    """The workloads call lqt as the benchmark does, with session= on the
    pullback queries; every operation must succeed and pass its check."""
    done = subprocess.run([sys.executable, "-B", "-c", ONE_ROUND], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    outcome = json.loads(done.stdout.splitlines()[-1])
    assert outcome["ops"] > 0
    assert (outcome["failed"], outcome["problems"]) == (0, [])


# Each result type with its field names in constructor order, one value's
# fields and, for each field, another value that differs from it there.
RESULT_TYPES = [
    (lqt.MembershipVerdict, ("stage", "budget"), (3, 24), (None, 25)),
    (lqt.LimitTrace, ("quantity", "start", "approximants"),
     ("w", 0, [1, Fraction(1, 2)]), ("e", 1, [1])),
    (lqt.MultiplicityClass, ("kind", "limit", "detail", "nonscaling"),
     ("Convergent", Fraction(3), "pass ratio 1/2", (2,)),
     ("Divergent", None, "", ())),
    (lqt.Infinite, ("sign",), (1,), (-1,)),
    (lqt.PullbackVerdict, ("status", "detail"),
     ("In", "the residue is zero"), ("NotIn", "")),
    (lqt.CompositeValue, ("prime_order", "residue_value"),
     (2, Fraction(1, 2)), (1, None)),
    (lqt.ShannonClass,
     ("kind", "reason", "witness", "multiplicity", "union_is_pullback"),
     ("Unknown", "a reason", "z", lqt.MultiplicityClass("Divergent"), False),
     ("NonArchimedean", "another", None, None, True)),
]


@pytest.mark.parametrize("cls, names, fields, others", RESULT_TYPES,
                         ids=[entry[0].__name__ for entry in RESULT_TYPES])
def test_result_types_are_frozen_values(cls, names, fields, others):
    """Every result type is a frozen dataclass whose fields come in the
    order positional construction relies on; two values are equal only
    when every field is, and equal values hash alike."""
    assert dataclasses.is_dataclass(cls)
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    value = cls(*fields)
    assert value == cls(*fields)
    for name, other in zip(names, others):
        with pytest.raises(AttributeError):
            setattr(value, name, other)
        assert dataclasses.replace(value, **{name: other}) != value
    if cls is not lqt.LimitTrace:  # its approximants are a list
        assert hash(value) == hash(cls(*fields))
