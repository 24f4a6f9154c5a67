"""Every dataclass annotation in the package resolves.

With `from __future__ import annotations` a field's annotation is a
string that nothing evaluates at import time, so a type that is named
but never imported goes unnoticed until someone resolves the hints. No
linter runs on this package; this test is the guard.
"""

import dataclasses
import importlib
import pkgutil
import typing

import latent_motor


def package_dataclasses():
    for info in pkgutil.iter_modules(latent_motor.__path__):
        module = importlib.import_module(f"latent_motor.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                yield obj


def test_every_dataclass_annotation_resolves():
    found = list(package_dataclasses())
    names = {cls.__name__ for cls in found}
    assert {"EarCache", "OheCache", "MhmtCache", "TrainConfig", "AdamState"} <= names
    for cls in found:
        hints = typing.get_type_hints(cls)
        assert set(hints) >= {f.name for f in dataclasses.fields(cls)}, cls.__name__
