"""The acceptance cache key follows the training code, not its comments
or docstrings: an edit that cannot change a model's bytes must not make
every acceptance model retrain, and one that can must."""

import os
import shutil

import pytest

import latent_motor
from conftest import TRAINING_MODULES, _training_sources_sha256


@pytest.fixture
def package_copy(tmp_path, monkeypatch):
    """A copy of the training modules that the cache key is read from."""
    src = os.path.dirname(latent_motor.__file__)
    for name in TRAINING_MODULES:
        shutil.copy(os.path.join(src, f"{name}.py"), tmp_path)
    monkeypatch.setattr(latent_motor, "__file__", str(tmp_path / "__init__.py"))
    return tmp_path


def edit(path, old, new):
    text = path.read_text()
    assert text.count(old) == 1, old
    path.write_text(text.replace(old, new))


def test_copy_has_the_key_of_the_package(package_copy, monkeypatch):
    key = _training_sources_sha256()
    monkeypatch.undo()
    assert _training_sources_sha256() == key


@pytest.mark.parametrize("old, new", [
    # a module docstring, a function docstring, one removed, a comment and layout
    ('"""Dense network engine:', '"""The dense network engine:'),
    ('"""Evaluate the network; returns a fresh output and the cache for backward."""',
     '"""Evaluate the network.\n\n    Returns a fresh output and the cache.\n    """'),
    ('    """Polyak update: target <- tau*live + (1-tau)*target, in place."""\n', ""),
    ("ADAM_EPS = 1e-8\n", "ADAM_EPS = 1e-8  # keeps the step finite\n\n\n"),
])
def test_comment_and_docstring_edits_keep_the_key(package_copy, old, new):
    key = _training_sources_sha256()
    edit(package_copy / "nn.py", old, new)
    assert _training_sources_sha256() == key


@pytest.mark.parametrize("module, old, new", [
    ("nn", "ADAM_EPS = 1e-8", "ADAM_EPS = 1e-7"),
    ("envs", "cost = ctrl *", "cost = 2 * ctrl *"),
    # a string that is not a docstring is code
    ("envs", 'VEL1D = "vel1d"', 'VEL1D = "vel1"'),
])
def test_code_edits_change_the_key(package_copy, module, old, new):
    key = _training_sources_sha256()
    edit(package_copy / f"{module}.py", old, new)
    assert _training_sources_sha256() != key
