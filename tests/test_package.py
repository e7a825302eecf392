"""The package surface: what `lqt` exports."""

import importlib.util
import inspect
from pathlib import Path

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


def test_every_tracer_target_resolves():
    """The benchmark's tracer patches lqt functions and methods by name, so
    a renamed target would break only a traced run.  Each target is read
    from `perfbench/tracer.py` without installing the tracer: a function
    must be an attribute of its module, and a method must sit in its
    class's own `__dict__`, where the tracer looks it up."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
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
