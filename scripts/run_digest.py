#!/usr/bin/env python3
"""Fingerprint training: run five fixed short trainings through the CLI and
print the sha256 of each run's model.ckpt.json and curves.csv.

The runs are ear, ohe and mhmt on vel1d, and ear on dir2d and runjump, all
with seed 3 and small fixed budgets (a few seconds each). Two source trees
that print the same lines train bit for bit the same, so running this
before and after a refactor of the training path is its proof.

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

from latent_motor.cli import main as cli_main

TRAIN = {"pretrain_epochs": 2, "train_epochs": 3, "optimization_times": 25,
         "batch_size": 64, "buffer_capacity": 2000, "eval_episodes": 1}

# name -> (CLI command and flags, env section)
RUNS = {
    "ear-vel1d": (["train"], {"family": "vel1d", "count": 3}),
    "ohe-vel1d": (["train-baseline", "--kind", "ohe"], {"family": "vel1d", "count": 3}),
    "mhmt-vel1d": (["train-baseline", "--kind", "mhmt"], {"family": "vel1d", "count": 3}),
    "ear-dir2d": (["train"], {"family": "dir2d", "count": 3}),
    "ear-runjump": (["train"], {"family": "runjump", "run_count": 2, "jump_count": 2}),
}


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_all(root: str) -> int:
    for name, (command, env) in RUNS.items():
        out = os.path.join(root, name)
        os.makedirs(out, exist_ok=True)
        config = os.path.join(out, "input.json")
        with open(config, "w") as fh:
            json.dump({"seed": 3, "env": dict(env, max_episode_frames=60),
                       "train": TRAIN}, fh)
        code = cli_main(command + ["--config", config, "--out", out])
        if code != 0:
            print(f"{name}: latent-motor exited with {code}", file=sys.stderr)
            return code
        for artifact in ("model.ckpt.json", "curves.csv"):
            print(f"{name:12s} {artifact:16s} {sha256(os.path.join(out, artifact))}")
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
