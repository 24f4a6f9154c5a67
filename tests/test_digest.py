"""The digest of scripts/run_digest.py, held to its recorded lines.

tests/digest.txt holds the 29 lines the digest printed and, in its "# "
header, the numeric environment they were made under: the NumPy version,
the BLAS name and version and the OpenBLAS configuration string, which
names the kernel core OpenBLAS picked at run time. Under another
environment the bits may differ, so the test skips and names the
difference; it never compares across environments. A change that moves
numerics on purpose re-records the lines (python3 scripts/run_digest.py)
and says which ones moved.
"""

import importlib.util
import os

import pytest

from conftest import _numeric_environment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "tests", "digest.txt")
PERFBENCH = os.path.join(ROOT, "perfbench")


def read_record():
    """The recorded environment and digest lines."""
    with open(RECORD) as fh:
        lines = fh.read().splitlines()
    environment = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
    return environment, [line for line in lines if not line.startswith("# ")]


def test_digest_matches_the_recorded_lines(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from run import blas_info  # reads OpenBLAS's configuration string through ctypes

    recorded_env, recorded = read_record()
    env = {key: str(value) for key, value in _numeric_environment().items()}
    env["blas_config"] = str(blas_info().get("config"))
    differ = {k: (recorded_env.get(k), env.get(k)) for k in recorded_env.keys() | env.keys()
              if recorded_env.get(k) != env.get(k)}
    if differ:
        pytest.skip(f"digest recorded under another numeric environment (recorded, here): {differ}")
    spec = importlib.util.spec_from_file_location(
        "run_digest", os.path.join(ROOT, "scripts", "run_digest.py"))
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    assert digest.run_all(str(tmp_path)) == 0
    assert capsys.readouterr().out.splitlines() == recorded
