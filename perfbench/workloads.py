"""The benchmark's workloads: `train`, `sphere`, `adapt`, `interp`,
`ckpt_save` and `ckpt_load`.

Each workload turns the workload seed into its inputs (config files and,
for the analysis commands, the task indices and adaptation target),
builds a fixture, and then runs iterations of user-visible work through the program's
public surface: `latent_motor.cli.main([...])` and the public functions
of `latent_motor.checkpoint`. Every iteration checks the program's
outputs; a failed check counts the iteration's operations as failed.

An operation is one SAC update on `train`, one evaluation rollout
(episode) on `sphere`, `adapt` and `interp`, and one checkpoint save or
load on `ckpt_save` and `ckpt_load`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import latent_motor.checkpoint as checkpoint
import latent_motor.cli as cli

# Default sizes are what the benchmark measures; "tiny" is for the smoke
# test only. Budgets absent from a dict keep the program's defaults
# (TrainConfig: batch 256, width 64, 200 updates per epoch).
SIZES = {
    "full": {
        "frames": 200,
        "train": {"pretrain_epochs": 5, "train_epochs": 2},
        "fixture": {"pretrain_epochs": 2, "train_epochs": 1, "optimization_times": 20},
        "sphere_resolution": 12,
        "cem": {},
        "betas": 11,
        "ckpt_trace_cycles": 4,
    },
    "tiny": {
        "frames": 20,
        "train": {"pretrain_epochs": 1, "train_epochs": 1, "optimization_times": 4,
                  "batch_size": 16},
        "fixture": {"pretrain_epochs": 1, "train_epochs": 1, "optimization_times": 2,
                    "batch_size": 16},
        "sphere_resolution": 3,
        "cem": {"elite_capacity": 2, "samples_per_elite": 2, "adapt_epochs": 2},
        "betas": 3,
        "ckpt_trace_cycles": 1,
    },
}

N_TASKS = 5  # the default vel1d task set
# Twice the terminal speed f_max/drag of the default physics: no blend
# reaches it, so search-beta always runs its full 17-point grid and finds
# nothing. A reachable target would make its bisection count (0-40) vary
# with the seed.
UNREACHABLE_SPEED = 40.0
SEARCH_GRID = 17  # grid points search-beta scans before it would bisect
STREAMS = ("env", "policy", "noise", "batch")


class SetupError(RuntimeError):
    """The fixture could not be built; the run reports no result."""


@dataclass
class Step:
    """One measured iteration."""

    wall: float
    ops: int
    failed: int = 0
    times: dict = field(default_factory=dict)   # named sub-timings, seconds
    notes: dict = field(default_factory=dict)   # digests and outputs for the record


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def rng_draws(paths: list[str]) -> dict:
    """Draw counts of the training streams, summed over checkpoints."""
    total = dict.fromkeys(STREAMS, 0)
    for path in paths:
        with open(path) as fh:
            streams = json.load(fh)["rng"]["streams"]
        for name in STREAMS:
            total[name] += int(streams[name]["draws"])
    return total


def run_cli(argv: list[str]) -> tuple[int, float]:
    """One CLI command in-process; returns (exit code, wall seconds)."""
    t0 = perf_counter()
    rc = cli.main(argv)
    return rc, perf_counter() - t0


def write_config(path: str, doc: dict) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    return path


def config_doc(seed: int, size: dict, train: dict, **sections) -> dict:
    return {"seed": seed,
            "env": {"family": "vel1d", "count": N_TASKS, "max_episode_frames": size["frames"]},
            "train": train, **sections}


def _finite(row: dict, keys) -> bool:
    return all(math.isfinite(float(row[k])) for k in keys)


class Workload:
    name = ""
    trace_iterations = 1

    def __init__(self, size: str):
        self.size = SIZES[size]
        self.problems: list[str] = []

    def problem(self, message: str) -> None:
        if message not in self.problems:
            self.problems.append(message)

    def build_fixture(self, out: str):
        raise NotImplementedError

    def digest(self, fixture):
        """What must be identical between fixture builds of one seed."""
        raise NotImplementedError

    def iterate(self, fixture, out: str) -> Step:
        raise NotImplementedError

    def checkpoints(self, fixture, out: str) -> list[str]:
        """Checkpoints whose stream draw counts the run reports."""
        raise NotImplementedError

    def record(self, steps: list[Step]) -> dict:
        """Workload-specific figures for the record line."""
        raise NotImplementedError

    def _train_fixture(self, out: str, kind: str = "ear") -> str:
        argv = ["train"] if kind == "ear" else ["train-baseline", "--kind", kind]
        rc, _ = run_cli(argv + ["--config", self.fixture_cfg, "--out", out])
        if rc != 0:
            raise SetupError(f"fixture training ({kind}) exited with {rc}")
        return os.path.join(out, "model.ckpt.json")


class TrainWorkload(Workload):
    """`latent-motor train`, ear policy, default 5-task vel1d set."""

    name = "train"

    def __init__(self, seed, size, work):
        super().__init__(size)
        s = self.size
        self.cfg = write_config(os.path.join(work, "train.json"),
                                config_doc(seed, s, s["train"]))
        self.fixture_cfg = write_config(os.path.join(work, "fixture.json"),
                                        config_doc(seed, s, s["fixture"]))
        self.updates = s["train"]["train_epochs"] * s["train"].get("optimization_times", 200)
        self.digests = None

    def build_fixture(self, out):
        # A short warm-up run, so lazy set-up in the program and in BLAS
        # is paid before timing starts.
        return self._train_fixture(out)

    def digest(self, fixture):
        return sha256_file(fixture)

    def iterate(self, fixture, out):
        rc, wall = run_cli(["train", "--config", self.cfg, "--out", out])
        step = Step(wall, self.updates)
        if rc != 0:
            self.problem(f"train exited with {rc}")
            step.failed = self.updates
            return step
        curves = read_csv(os.path.join(out, "curves.csv"))
        if not all(_finite(r, ("j_q1", "j_q2", "j_pi", "j_alpha", "alpha")) for r in curves):
            self.problem("non-finite loss column in curves.csv")
            step.failed = self.updates
        last = max(int(r["epoch"]) for r in curves)
        step.notes["final_return"] = float(np.mean(
            [float(r["mean_return"]) for r in curves if int(r["epoch"]) == last]))
        digests = {"model.ckpt.json": sha256_file(os.path.join(out, "model.ckpt.json")),
                   "curves.csv": sha256_file(os.path.join(out, "curves.csv"))}
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.problem("train outputs differ between runs of one seed")
            step.failed = self.updates
        step.notes["sha256"] = digests
        return step

    def checkpoints(self, fixture, out):
        return [os.path.join(out, "model.ckpt.json")]

    def record(self, steps):
        return {"updates_per_s": sum(s.ops for s in steps) / sum(s.wall for s in steps),
                "final_return": steps[-1].notes.get("final_return"),
                "sha256": steps[-1].notes.get("sha256")}


class ScanWorkload(Workload):
    """Analysis commands, repeated, on a checkpoint built at set-up.

    Subclasses run their commands with `--threads 1`; an operation is one
    evaluation rollout. Every iteration must give the same output bytes.
    """

    def __init__(self, seed, size, work):
        super().__init__(size)
        s = self.size
        gen = np.random.default_rng([seed, 17])
        self.task_index = int(gen.integers(N_TASKS))
        self.task_i, self.task_j = (int(v) for v in gen.choice(N_TASKS, 2, replace=False))
        self.target = round(float(gen.uniform(0.5, 2.5)), 3)
        betas = [round(float(b), 6) for b in np.linspace(1.0, 0.0, s["betas"])]
        self.resolution = s["sphere_resolution"]
        self.fixture_cfg = write_config(os.path.join(work, "scan.json"), config_doc(
            seed, s, s["fixture"], cem=s["cem"],
            analysis={"sphere_resolution": self.resolution, "betas": betas}))
        self.n_betas = len(betas)
        self.digests = None

    def build_fixture(self, out):
        return self._train_fixture(out)

    def digest(self, fixture):
        return sha256_file(fixture)

    def _cmd(self, command, checkpoint_path, out, *extra):
        return run_cli([command, "--config", self.fixture_cfg, "--checkpoint", checkpoint_path,
                        "--threads", "1", "--out", os.path.join(out, command), *extra])

    def run_commands(self, fixture, out, step: Step) -> dict:
        """Run the iteration's commands into `step`; returns output digests."""
        raise NotImplementedError

    def iterate(self, fixture, out):
        step = Step(0.0, 0)
        digests = self.run_commands(fixture, out, step)
        step.wall = sum(step.times.values())
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.problem(f"{self.name} outputs differ between iterations")
            step.failed = step.ops
        step.notes["sha256"] = digests
        return step

    @staticmethod
    def _count(step: Step, rollouts: int, ok: bool) -> None:
        # A command that failed before reporting its rollouts counts as one.
        rollouts = max(rollouts, 1)
        step.ops += rollouts
        if not ok:
            step.failed += rollouts

    def checkpoints(self, fixture, out):
        return [fixture]

    def record(self, steps):
        return {f"{self.name}_s": float(np.median([s.wall for s in steps])),
                "rollouts_per_iteration": steps[-1].ops,
                "sha256": steps[-1].notes.get("sha256")}


class SphereWorkload(ScanWorkload):
    """`latent-motor sphere`: one rollout per cell of the embedding sphere."""

    name = "sphere"

    def run_commands(self, fixture, out, step):
        rc, step.times["sphere_s"] = self._cmd("sphere", fixture, out,
                                               "--task-index", str(self.task_index))
        cells = 2 * self.resolution ** 2
        path = os.path.join(out, "sphere", "sphere.csv")
        ok = rc == 0 and len(rows := read_csv(path)) == cells and all(
            _finite(r, ("achieved_metric", "mean_return")) for r in rows)
        if not ok:
            self.problem(f"sphere: expected {cells} finite cells")
        self._count(step, cells, ok)
        return {"sphere.csv": sha256_file(path)} if ok else {}


class AdaptWorkload(ScanWorkload):
    """`latent-motor adapt`: CEM over the embedding, default CemConfig."""

    name = "adapt"

    def run_commands(self, fixture, out, step):
        rc, step.times["adapt_s"] = self._cmd("adapt", fixture, out,
                                              "--target", repr(self.target))
        path = os.path.join(out, "adapt", "trace.csv")
        episodes = 0
        ok = rc == 0
        if ok:
            rows = read_csv(path)
            best = [float(r["best_return"]) for r in rows]
            episodes = sum(int(r["episodes_used"]) for r in rows)
            ok = all(math.isfinite(b) for b in best) and all(
                b1 >= b0 for b0, b1 in zip(best, best[1:]))
        if not ok:
            self.problem("adapt: best return is not non-decreasing")
        self._count(step, episodes, ok)
        return {"trace.csv": sha256_file(path)} if ok else {}


class InterpWorkload(ScanWorkload):
    """`latent-motor interp` then `search-beta` between two task embeddings."""

    name = "interp"

    def run_commands(self, fixture, out, step):
        pair = ("--task-i", str(self.task_i), "--task-j", str(self.task_j))
        rc, step.times["interp_s"] = self._cmd("interp", fixture, out, *pair)
        path = os.path.join(out, "interp", "sweep.csv")
        ok = rc == 0 and len(rows := read_csv(path)) == self.n_betas and all(
            r["skipped"] == "1" or _finite(r, ("achieved_metric", "mean_return")) for r in rows)
        if not ok:
            self.problem("interp: sweep rows must be finite or marked skipped")
        self._count(step, self.n_betas, ok)
        digests = {"sweep.csv": sha256_file(path)} if ok else {}

        rc, step.times["search_s"] = self._cmd("search-beta", fixture, out, *pair,
                                               "--target", repr(UNREACHABLE_SPEED),
                                               "--tol", "0.1")
        path = os.path.join(out, "search-beta", "search_beta.json")
        evaluations = 0
        ok = rc == 0
        if ok:
            with open(path) as fh:
                res = json.load(fh)
            evaluations = int(res["evaluations"])
            ok = not res["found"] and evaluations == SEARCH_GRID
        if not ok:
            self.problem(f"search-beta: expected not found after {SEARCH_GRID} evaluations")
        self._count(step, evaluations, ok)
        return digests


@dataclass
class CkptFixture:
    models: dict
    sha256: dict
    paths: dict


class CkptWorkload(Workload):
    """Checkpoints of short-trained ear, ohe and mhmt models.

    An iteration handles each kind once; an operation is one save or one
    load, and only those calls are timed.
    """

    kinds = ("ear", "ohe", "mhmt")

    def __init__(self, seed, size, work):
        super().__init__(size)
        s = self.size
        self.fixture_cfg = write_config(os.path.join(work, "ckpt.json"),
                                        config_doc(seed, s, s["fixture"]))
        self.trace_iterations = s["ckpt_trace_cycles"]

    def build_fixture(self, out):
        paths = {k: self._train_fixture(os.path.join(out, k), k) for k in self.kinds}
        return CkptFixture(models={k: checkpoint.load_checkpoint(p) for k, p in paths.items()},
                           sha256={k: sha256_file(p) for k, p in paths.items()}, paths=paths)

    def digest(self, fixture):
        return fixture.sha256

    def iterate(self, fixture, out):
        os.makedirs(out, exist_ok=True)
        step = Step(0.0, len(self.kinds), times={"op_s": []})
        for kind in self.kinds:
            t, digest = self.operate(fixture, kind, os.path.join(out, f"{kind}.ckpt.json"))
            step.times["op_s"].append(t)
            step.wall += t
            if digest != fixture.sha256[kind]:
                self.problem(f"{kind}: {self.op} does not reproduce the fixture's bytes")
                step.failed += 1
        return step

    def operate(self, fixture, kind: str, path: str) -> tuple[float, str]:
        """One timed operation; returns (seconds, sha256 of a re-save)."""
        raise NotImplementedError

    def checkpoints(self, fixture, out):
        return list(fixture.paths.values())

    def record(self, steps):
        return {f"{self.op}_ms": timing([1e3 * t for s in steps for t in s.times["op_s"]])}


class CkptSaveWorkload(CkptWorkload):
    """save_checkpoint of models loaded at set-up, which must give the fixture's bytes."""

    name = "ckpt_save"
    op = "save"

    def operate(self, fixture, kind, path):
        t0 = perf_counter()
        digest = checkpoint.save_checkpoint(fixture.models[kind], path)
        return perf_counter() - t0, digest


class CkptLoadWorkload(CkptWorkload):
    """load_checkpoint of the fixture files; each loaded model is re-saved, untimed."""

    name = "ckpt_load"
    op = "load"

    def operate(self, fixture, kind, path):
        t0 = perf_counter()
        model = checkpoint.load_checkpoint(fixture.paths[kind])
        t = perf_counter() - t0
        return t, checkpoint.save_checkpoint(model, path)


def timing(values: list[float]) -> dict:
    """Median and the highest percentile that still has ten samples above it."""
    n = len(values)
    pct = 100 * (n - 10) // n if n > 10 else 100
    return {"n": n, "median": float(np.median(values)), "tail_pct": pct,
            "tail": float(np.percentile(values, pct))}


WORKLOADS = {w.name: w for w in (TrainWorkload, SphereWorkload, AdaptWorkload, InterpWorkload,
                                 CkptSaveWorkload, CkptLoadWorkload)}
