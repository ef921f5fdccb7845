"""Every annotation in the package names something in scope.

The modules postpone evaluation of annotations, so a name that is never
imported goes unnoticed until ``typing.get_type_hints`` resolves it.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import boxsem

MODULES = [f"boxsem.{m.name}" for m in pkgutil.iter_modules(boxsem.__path__)]


def _defined_in(mod):
    """The classes and functions a module defines, and the methods of
    those classes, by qualified name."""
    out = []
    for obj in vars(mod).values():
        if (inspect.isclass(obj) or inspect.isfunction(obj)) \
                and obj.__module__ == mod.__name__:
            out.append((obj.__qualname__, obj))
            if inspect.isclass(obj):
                out.extend((m.__qualname__, m) for m in vars(obj).values()
                           if inspect.isfunction(m))
    return out


@pytest.mark.parametrize("name", MODULES)
def test_annotations_resolve(name):
    mod = importlib.import_module(name)
    unresolved = []
    for attr, obj in _defined_in(mod):
        try:
            typing.get_type_hints(obj)
        except NameError as e:
            unresolved.append(f"{attr}: {e}")
    assert not unresolved, unresolved
