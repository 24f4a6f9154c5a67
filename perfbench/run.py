"""latent-motor benchmark runner.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}

where W is one of train, sphere, adapt, interp, ckpt_save, ckpt_load.

Run from the root of a source checkout; the program is imported from
`src/`. With `--trace 0` the run builds its fixture three times (set-up
time is the import time plus the median build), then repeats the
workload's iteration for about S seconds and reports the end-to-end
metrics. With `--trace 1` it builds the fixture once and runs the
iteration alternately untraced and traced, reporting the per-layer
metrics and the tracing overhead. Temporary files live under `.perfbench_out/` and are
removed at exit; the traced run leaves its spans there.

The last line of stdout is the result object; the line before it holds
the record (environment, checksums, per-command timings).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("train", "sphere", "adapt", "interp", "ckpt_save", "ckpt_load")


def parse_args(argv=None):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the smoke test only")
    return p.parse_args(argv)


def import_program() -> bool:
    """Import the program from this checkout's src/; False if it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import latent_motor
    except ImportError:
        return False
    if Path(latent_motor.__file__).resolve().parent.parent != src:
        return False
    import workloads  # noqa: F401  (imports the program's modules)
    return True


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        return (ROOT / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return None


def blas_info() -> dict:
    """BLAS name, version and the thread count it will use."""
    import ctypes

    import numpy as np
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    info["threads"] = int(getter())
                    config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    if config is not None:
                        config.restype = ctypes.c_char_p
                        info["config"] = config().decode()
                    return info
    info["threads"] = None
    return info


def environment(args) -> dict:
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
    }


def measure(wl, fixture, out, seconds):
    """Iterate until the next iteration would end past `seconds`."""
    steps, spent = [], []
    t0 = perf_counter()
    while True:
        t = perf_counter()
        steps.append(wl.iterate(fixture, out))
        spent.append(perf_counter() - t)
        if perf_counter() - t0 + median(spent) > seconds:
            return steps


def slow_rate(steps) -> float:
    """Operations per second of the slow iterations: the 10th percentile
    of per-iteration rates.

    A shared host runs the program in slow and fast spells of seconds to
    minutes. Every run meets slow spells, but not every run meets fast
    ones, so the slow tail reads steadier between runs than the mean.
    """
    import numpy as np
    return float(np.percentile([s.ops / s.wall for s in steps], 10))


def run(args, import_s: float) -> tuple[dict, dict]:
    from spans import SpanSummary, Tracer, layer_metrics
    from workloads import WORKLOADS, SetupError, rng_draws

    work = OUT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.size, str(work))
        builds, digests = [], []
        for k in range(1 if args.trace else SETUP_REPEATS):
            t0 = perf_counter()
            fixture = wl.build_fixture(str(work / f"setup{k}"))
            builds.append(perf_counter() - t0)
            digests.append(wl.digest(fixture))
            if digests[-1] != digests[0]:
                raise SetupError("fixture builds of one seed differ")
        out = str(work / "run")
        record = {"env": environment(args), "import_s": import_s, "fixture_s": builds}

        if args.trace:
            # Untraced and traced iterations alternate, so that a slow spell
            # of the machine falls on both sides of the overhead figure.
            base, traced, tracer = [], [], Tracer()
            for _ in range(wl.trace_iterations):
                base.append(wl.iterate(fixture, out))
                tracer.install()
                try:
                    traced.append(wl.iterate(fixture, out))
                finally:
                    tracer.uninstall()
            steps = base + traced
            failed = sum(s.failed for s in steps)
            spans_path = OUT / f"spans-{args.workload}.npz"
            tracer.write(str(spans_path))
            draws = rng_draws(wl.checkpoints(fixture, out))
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
            metrics = layer_metrics(SpanSummary(tracer), spec["per_layer"], draws,
                                    sum(s.wall for s in base), sum(s.wall for s in traced))
            record["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            steps = measure(wl, fixture, out, args.seconds)
            failed = sum(s.failed for s in steps)
            draws = rng_draws(wl.checkpoints(fixture, out))
            attempted = sum(s.ops for s in steps)
            metrics = {
                "setup_s": (import_s + median(builds), "s"),
                "ops_per_s": (slow_rate(steps), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "ok_ratio": (1.0 - failed / attempted, "ratio"),
            }
        record.update(iterations=len(steps), walls=[s.wall for s in steps],
                      ops=[s.ops for s in steps],
                      rng_draws=draws, problems=wl.problems, **wl.record(steps))
        result = {
            "correct": not wl.problems and failed == 0,
            "attempted": sum(s.ops for s in steps),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return record, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    t0 = perf_counter()
    if not import_program():
        print(f"error: the program is not importable from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    from workloads import SetupError
    try:
        record, result = run(args, import_s)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
