#!/usr/bin/env python3
"""Adapt a trained checkpoint to an unseen target with embedding-space
search, comparing the found embedding against the interpolation sweep
between the two nearest training tasks. --seed is the evaluation seed of
the sweep, the search and the final check, as `latent-motor adapt --seed`
is."""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from latent_motor.analysis import interpolation_sweep
from latent_motor.cem import CemConfig, cem_adapt
from latent_motor.checkpoint import load_checkpoint
from latent_motor.envs import TaskSpec
from latent_motor.sac import evaluate_policy


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--checkpoint", required=True)
    ap.add_argument("--target", type=float, default=1.25)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=3)
    args = ap.parse_args()

    model = load_checkpoint(args.checkpoint)
    if model.family != "vel1d":
        raise SystemExit("this demo expects a velocity-family checkpoint")
    task = TaskSpec("vel1d", (args.target,),
                    reward_ctrl_cost=model.tasks[0].reward_ctrl_cost)

    targets = [t.target_array[0] for t in model.tasks]
    below = max([i for i, t in enumerate(targets) if t <= args.target], default=0)
    above = min(below + 1, len(targets) - 1)
    rows = interpolation_sweep(model, model.lte_for_task(below),
                               model.lte_for_task(above),
                               np.linspace(0, 1, 21), task, eval_seed=args.seed)
    sweep_best = max(r.mean_return for r in rows)
    print(f"sweep over tasks ({targets[below]}, {targets[above]}): best return {sweep_best:.2f}")

    best, trace = cem_adapt(model, task, CemConfig(adapt_epochs=args.epochs), eval_seed=args.seed)
    print("search best-return curve:", [round(e.best_return, 2) for e in trace.epochs])
    rep = evaluate_policy(model, best, task, episodes=3, eval_seed=args.seed)
    print(f"found embedding {np.round(best, 4).tolist()}  "
          f"achieved velocity {rep.extras['mean_velocity']:.3f} for target {args.target}")


if __name__ == "__main__":
    main()
