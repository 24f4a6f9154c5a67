"""Guard for the benchmark's span tracer (perfbench/spans.py).

The traced benchmark run wraps package functions and methods by name.
Installing the tracer here makes a renamed or deleted traced name fail
this suite instead of the benchmark's traced run. The tracer file is
imported read-only; nothing under perfbench/ is changed.
"""

import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans as module
    return module


def test_tracer_patches_every_traced_name_and_restores_it(spans):
    functions = {(home, attr): getattr(spans.MODULES[home], attr)
                 for _, home, attr, _ in spans.FUNCTIONS}
    methods = {(home, cls, attr): spans.MODULES[home].__dict__[cls].__dict__[attr]
               for _, home, classes, attr, _ in spans.METHODS for cls in classes}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (home, attr), original in functions.items():
            patched = getattr(spans.MODULES[home], attr)
            assert patched is not original and patched.__wrapped__ is original, attr
        for (home, cls, attr), original in methods.items():
            patched = spans.MODULES[home].__dict__[cls].__dict__[attr]
            assert patched is not original and patched.__wrapped__ is original, (cls, attr)
    finally:
        tracer.uninstall()
    for (home, attr), original in functions.items():
        assert getattr(spans.MODULES[home], attr) is original, attr
    for (home, cls, attr), original in methods.items():
        assert spans.MODULES[home].__dict__[cls].__dict__[attr] is original, (cls, attr)
    assert set(tracer.names) == spans.SPANS
