#!/usr/bin/env python3
"""Train the shared-interface agent on the 5-velocity task set, then sweep
interpolations between every adjacent pair and color the embedding sphere.

Writes curves.csv, model.ckpt.json, sweep_pair<k>.csv, and sphere.csv under
--out. A desk-scale end-to-end demo of training plus the reuse analyses.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from latent_motor.analysis import evaluate_sphere, interpolation_sweep, spearman
from latent_motor.checkpoint import save_checkpoint
from latent_motor.cli import _curves_csv, write_csv
from latent_motor.envs import make_task_set
from latent_motor.sac import TrainConfig, train


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=60)
    ap.add_argument("--out", default="runs/vel1d_demo")
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    tasks = make_task_set("vel1d", count=5)
    config = TrainConfig(seed=args.seed, train_epochs=args.epochs)

    def progress(epoch, reports):
        errs = [r.extras["vel_abs_error"] for r in reports]
        print(f"epoch {epoch:3d}  max |v - v*| = {max(errs):.3f}")

    model, curves = train(config, tasks, "ear", progress=progress)
    _curves_csv(os.path.join(args.out, "curves.csv"), curves)
    save_checkpoint(model, os.path.join(args.out, "model.ckpt.json"))

    betas = np.linspace(1.0, 0.0, 11)
    for k in range(len(tasks) - 1):
        rows = interpolation_sweep(model, model.lte_for_task(k),
                                   model.lte_for_task(k + 1), betas,
                                   tasks[k], eval_seed=args.seed)
        write_csv(os.path.join(args.out, f"sweep_pair{k}.csv"),
                  ["beta", "achieved_velocity", "mean_return", "skipped"],
                  [[r.beta, r.metric, r.mean_return, int(r.skipped)] for r in rows])
        rho = spearman([r.metric for r in rows], 1.0 - betas)
        print(f"pair {k}: rank correlation of velocity vs (1 - beta) = {rho:.3f}")

    cells = evaluate_sphere(model, tasks[0], resolution=12, eval_seed=args.seed)
    write_csv(os.path.join(args.out, "sphere.csv"),
              ["index", "theta", "phi", "zx", "zy", "zz", "velocity", "mean_return"],
              [[c.index, c.theta, c.phi, *c.embedding, c.metric, c.mean_return]
               for c in cells])
    print(f"artifacts in {args.out}")


if __name__ == "__main__":
    main()
