"""The package surface: what `lqt` exports."""

import inspect

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
