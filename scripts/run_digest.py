#!/usr/bin/env python3
"""Fingerprint training and analysis: run six fixed short trainings and
then every analysis subcommand through the CLI, and print the sha256 of
each run's model.ckpt.json and curves.csv, of the state of the model that
loading model.ckpt.json gives, and of every analysis output file.

The runs are ear, ohe and mhmt on vel1d, and ear on dir2d and runjump, all
with seed 3 and small fixed budgets (a few seconds each) at batch 64, plus
ear on vel1d at the default batch of 256, the size at which each hidden
activation of a training step is a 256x64 array. Two source trees
that print the same lines train and analyze bit for bit the same, so
running this before and after a refactor is its proof.

The "model state" line hashes what a checkpoint stores, read back through
the package's own loader: every network's flat parameter buffer, each
Adam optimizer's moments and step count, log_alpha, and the states of
the init, env, policy, noise and batch RNG streams. The twin critic, its
target and its Adam moments are hashed as the model holds them, one
buffer each with Q1 and Q2 stacked. It does not depend on the file
format, so across a format change that keeps the in-memory layout the
state and curves.csv lines must stay equal while the model.ckpt.json
line may not.

The analysis runs read the ear-vel1d checkpoint (compose reads
ear-runjump, the one run/jump model) with that run's config; sphere runs
twice, at resolution 3 (18 rows) and at the benchmark's resolution 12
(288 rows). Each prints
one line per output file the command writes; config.json and
manifest.json are left out, since they record the run rather than its
results (and the manifest holds argv and versions).

    python3 scripts/run_digest.py              # outputs go to a temp dir
    python3 scripts/run_digest.py --out runs/digest
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from latent_motor.checkpoint import load_checkpoint
from latent_motor.cli import main as cli_main

TRAIN = {"pretrain_epochs": 2, "train_epochs": 3, "optimization_times": 25,
         "batch_size": 64, "buffer_capacity": 2000, "eval_episodes": 1}

VEL3 = {"family": "vel1d", "count": 3}

# name -> (CLI command and flags, env section, train section)
RUNS = {
    "ear-vel1d": (["train"], VEL3, TRAIN),
    "ohe-vel1d": (["train-baseline", "--kind", "ohe"], VEL3, TRAIN),
    "mhmt-vel1d": (["train-baseline", "--kind", "mhmt"], VEL3, TRAIN),
    "ear-dir2d": (["train"], {"family": "dir2d", "count": 3}, TRAIN),
    "ear-runjump": (["train"], {"family": "runjump", "run_count": 2}, TRAIN),
    "ear-vel1d-b256": (["train"], VEL3, dict(TRAIN, batch_size=256)),
}

# name -> (CLI command and flags, training run whose checkpoint it reads,
# output files)
ANALYSES = {
    "eval": (["eval", "--task-index", "1", "--episodes", "2"], "ear-vel1d", ["eval.json"]),
    "sphere": (["sphere", "--resolution", "3"], "ear-vel1d",
               ["sphere.csv", "sphere_edges.csv"]),
    # the benchmark's sphere size: 288 rows, where batched sgemm rows no
    # longer match small-batch rows bit for bit as they do at 18 rows
    "sphere-r12": (["sphere", "--resolution", "12"], "ear-vel1d", ["sphere.csv"]),
    "interp": (["interp", "--task-i", "0", "--task-j", "2"], "ear-vel1d", ["sweep.csv"]),
    "search-beta": (["search-beta", "--task-i", "0", "--task-j", "2", "--target", "0.1985",
                     "--tol", "1e-5"], "ear-vel1d", ["search_beta.json"]),
    "adapt": (["adapt", "--target", "1.25"], "ear-vel1d",
              ["trace.csv", "best_lte.json"]),
    "lse-viz": (["lse-viz", "--task-index", "1"], "ear-vel1d",
                ["lse_pca.csv", "lse_scores.json"]),
    "compose": (["compose", "--task-a", "1", "--task-b", "2", "--beta-count", "5"],
                "ear-runjump", ["compose.csv"]),
}


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def state_sha256(path: str) -> str:
    """sha256 of the state of the model loaded from the checkpoint at path."""
    model = load_checkpoint(path)
    arrays = [model.policy.flat, model.q.flat, model.q_target.flat, model.log_alpha]
    for opt in (model.opt_policy, model.opt_q, model.opt_alpha):
        arrays += [opt.m, opt.v, np.array(float(opt.step))]
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.asarray(a, dtype="<f8").tobytes())
    for name in ("init", "env", "policy", "noise", "batch"):
        digest.update(json.dumps(model.rngs.get(name).state(), sort_keys=True).encode())
    return digest.hexdigest()


def run_all(root: str) -> int:
    for name, (command, env, train) in RUNS.items():
        out = os.path.join(root, name)
        os.makedirs(out, exist_ok=True)
        config = os.path.join(out, "input.json")
        with open(config, "w") as fh:
            json.dump({"seed": 3, "env": dict(env, max_episode_frames=60),
                       "train": train}, fh)
        code = cli_main(command + ["--config", config, "--out", out])
        if code != 0:
            print(f"{name}: latent-motor exited with {code}", file=sys.stderr)
            return code
        for artifact in ("model.ckpt.json", "curves.csv"):
            print(f"{name:14s} {artifact:16s} {sha256(os.path.join(out, artifact))}")
        print(f"{name:14s} {'model state':16s} "
              f"{state_sha256(os.path.join(out, 'model.ckpt.json'))}")
    for name, (command, source, outputs) in ANALYSES.items():
        out = os.path.join(root, name)
        code = cli_main(command + ["--config", os.path.join(root, source, "input.json"),
                                   "--checkpoint", os.path.join(root, source, "model.ckpt.json"),
                                   "--out", out])
        if code != 0:
            print(f"{name}: latent-motor exited with {code}", file=sys.stderr)
            return code
        for artifact in outputs:
            print(f"{name:14s} {artifact:16s} {sha256(os.path.join(out, artifact))}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="keep the run directories here")
    args = ap.parse_args()
    if args.out:
        return run_all(args.out)
    with tempfile.TemporaryDirectory() as root:
        return run_all(root)


if __name__ == "__main__":
    sys.exit(main())
