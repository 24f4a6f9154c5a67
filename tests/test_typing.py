"""Every annotation in the package resolves.

With `from __future__ import annotations` an annotation is a string that
nothing evaluates at import time, so a type that is named but never
imported goes unnoticed until someone resolves the hints. No linter runs
on this package; this test is the guard.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import typing

import latent_motor


def package_members():
    """(module, object) for every class and function the package defines."""
    for info in pkgutil.iter_modules(latent_motor.__path__):
        module = importlib.import_module(f"latent_motor.{info.name}")
        for obj in vars(module).values():
            if (inspect.isclass(obj) or inspect.isfunction(obj)) \
                    and obj.__module__ == module.__name__:
                yield obj


def package_dataclasses():
    return [obj for obj in package_members() if dataclasses.is_dataclass(obj)]


def test_every_dataclass_annotation_resolves():
    found = package_dataclasses()
    names = {cls.__name__ for cls in found}
    assert {"EarCache", "OheCache", "MhmtCache", "TrainConfig", "AdamState"} <= names
    for cls in found:
        hints = typing.get_type_hints(cls)
        assert set(hints) >= {f.name for f in dataclasses.fields(cls)}, cls.__name__


def method_functions(cls):
    """The plain functions behind cls's own methods, class methods and properties."""
    for name, attr in vars(cls).items():
        fn = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
        if inspect.isfunction(fn):
            yield f"{cls.__name__}.{name}", fn


def test_every_function_and_method_annotation_resolves():
    functions = []
    for obj in package_members():
        functions += method_functions(obj) if inspect.isclass(obj) else [(obj.__name__, obj)]
    names = {name for name, _ in functions}
    assert {"lse_trajectory_analysis", "evaluate_sphere", "VecRollout.step",
            "RngStreams.restore", "SacModel.alpha"} <= names
    for name, fn in functions:
        try:
            typing.get_type_hints(fn)
        except NameError as err:
            raise AssertionError(f"{name}: {err}") from err
