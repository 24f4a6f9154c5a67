"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at the tiny size, untraced and traced, and checks
that each run ends with a correct result naming every metric of
BENCHMARK.json with its unit. Then checks that a directory holding only
BENCHMARK.json and the benchmark exits with an error and no result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 180


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: not correct: {record.get('problems')}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        errors.append(f"{where}: missing {missing}, unexpected {extra}, wrong units {wrong}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)) or isinstance(metric["value"], bool):
            errors.append(f"{where}: {name} is not a number")
    for key in ("python", "numpy", "blas", "nproc", "git_commit", "seed"):
        if key not in record["env"]:
            errors.append(f"{where}: record lacks env.{key}")
    if "threads" not in record["env"]["blas"]:
        errors.append(f"{where}: record lacks the BLAS thread count")
    return errors


def check_without_program() -> list[str]:
    """Only BENCHMARK.json and perfbench/: must fail without a result."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "train", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_result(spec, workload, trace)
    errors += check_without_program()
    for line in errors:
        print(f"FAIL {line}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
