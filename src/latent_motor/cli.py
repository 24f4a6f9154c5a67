"""Command-line entry point and experiment orchestration.

Every subcommand reads an optional JSON experiment config; --seed and
--out override its seed and out_dir. The seed is the run's one seed:
train roots the model's streams in it, adapt seeds its search and
rollouts with it, and the analyses evaluate on it. `main` resolves the
config, creates the output directory, loads --checkpoint, runs the
command and records the run as config.json (the resolved config) and
manifest.json (command, config and checkpoint hashes, versions, numeric
environment); grad-check writes no run directory.
Exit codes: 0 ok, 1 runtime failure (single machine-parsable line on
stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys

import numpy as np

from . import __version__, nn
from .analysis import (
    compose,
    evaluate_sphere,
    interpolation_sweep,
    lse_trajectory_analysis,
    search_beta,
)
from .cem import cem_adapt
from .checkpoint import file_sha256, load_checkpoint, save_checkpoint
from .config import ExperimentConfig, load_config
from .embedding import sphere_adjacency
from .envs import DIR2D, RUNJUMP, VEL1D, TaskSpec
from .errors import ConfigurationError, LatentMotorError
from .nn import finite_difference_check, mlp_init
from .sac import SacModel, evaluate_policy, train


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def parse_floats(text: str, flag: str) -> list[float]:
    """The numbers of a comma-separated option value."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigurationError(f"{flag} must be comma-separated numbers, "
                                 f"got {text!r}") from None


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_records(argv: list[str], args, cfg: ExperimentConfig) -> None:
    """Write the run's manifest.json and config.json into cfg.out_dir."""
    manifest = {
        "command": args.command,
        "argv": argv,
        "seed": cfg.seed,
        "threads": args.threads,
        "config_sha256": file_sha256(args.config) if args.config else None,
        "checkpoint_sha256": file_sha256(args.checkpoint) if args.checkpoint else None,
        "versions": {
            "latent_motor": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "numeric": _numeric_environment(),
    }
    write_json(os.path.join(cfg.out_dir, "manifest.json"), manifest)
    # Last, so that a --config naming this directory's config.json is
    # hashed as it was given.
    write_json(os.path.join(cfg.out_dir, "config.json"), dataclasses.asdict(cfg))


def _numeric_environment() -> dict:
    """What a run's bits may depend on beyond the package and NumPy versions."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "nproc": os.cpu_count(), "libc": " ".join(platform.libc_ver()).strip(),
            "network_dtype": np.dtype(nn.DTYPE).name}


def _resolve(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None and args.seed < 0:
        raise ConfigurationError(f"the seed must be >= 0, got {args.seed}")
    return dataclasses.replace(cfg, seed=cfg.seed if args.seed is None else args.seed,
                               out_dir=args.out or cfg.out_dir)


def _curves_csv(path: str, curves) -> None:
    header = ["epoch", "task_id", "mean_return", "achieved_metric",
              "j_q1", "j_q2", "j_pi", "j_alpha", "alpha"]
    rows = [[c.epoch, c.task_id, c.mean_return, c.metric, c.j_q1, c.j_q2,
             c.j_pi, c.j_alpha, c.alpha] for c in curves]
    write_csv(path, header, rows)


def cmd_train(args, cfg: ExperimentConfig, model: None) -> None:
    model, curves = train(cfg.train, cfg.env.task_set(), args.kind, cfg.env.constants(),
                          cfg.seed)
    _curves_csv(os.path.join(cfg.out_dir, "curves.csv"), curves)
    save_checkpoint(model, os.path.join(cfg.out_dir, "model.ckpt.json"))


def _adapt_task(model, args) -> TaskSpec:
    fam = model.family
    if args.jump_weight is not None and fam != RUNJUMP:
        raise ConfigurationError(f"--jump-weight needs a {RUNJUMP} checkpoint, this one is {fam}")
    ctrl = model.tasks[0].reward_ctrl_cost
    if fam == VEL1D:
        return TaskSpec(VEL1D, (args.target,), reward_ctrl_cost=ctrl)
    if fam == DIR2D:
        ang = np.radians(args.target)
        u = np.array([np.cos(ang), np.sin(ang)])
        u = u / np.linalg.norm(u)
        return TaskSpec(DIR2D, (float(u[0]), float(u[1])), reward_ctrl_cost=ctrl)
    if args.jump_weight is not None:
        return TaskSpec(RUNJUMP, (0.0,), modality_weight=args.jump_weight,
                        jump_modality=True, reward_ctrl_cost=ctrl)
    return TaskSpec(RUNJUMP, (args.target,), reward_ctrl_cost=ctrl)


def cmd_adapt(args, cfg: ExperimentConfig, model: SacModel) -> None:
    task = _adapt_task(model, args)
    best, trace = cem_adapt(model, task, cfg.cem, cfg.seed)
    rows = [[i, e.best_return, e.sigma, e.episodes_used]
            for i, e in enumerate(trace.epochs)]
    write_csv(os.path.join(cfg.out_dir, "trace.csv"),
              ["epoch", "best_return", "sigma", "episodes_used"], rows)
    write_json(os.path.join(cfg.out_dir, "best_lte.json"), {
        "lte": [float(v) for v in best],
        "best_return": trace.epochs[-1].best_return,
        "task": dataclasses.asdict(task),
    })


def cmd_interp(args, cfg: ExperimentConfig, model: SacModel) -> None:
    betas = parse_floats(args.beta_list, "--beta-list") if args.beta_list \
        else list(cfg.analysis.betas)
    rows = interpolation_sweep(model, model.lte_for_task(args.task_i),
                               model.lte_for_task(args.task_j), betas, model.task(args.task_i),
                               eval_seed=cfg.seed, episodes=cfg.analysis.episodes)
    write_csv(os.path.join(cfg.out_dir, "sweep.csv"),
              ["beta", "achieved_metric", "mean_return", "skipped"],
              [[r.beta, r.metric, r.mean_return, int(r.skipped)] for r in rows])


def cmd_search_beta(args, cfg: ExperimentConfig, model: SacModel) -> None:
    if not args.tol >= 0:  # also rejects nan
        raise ConfigurationError(f"--tol must be >= 0, got {args.tol}")
    if not np.isfinite(args.target):
        raise ConfigurationError(f"--target must be finite, got {args.target}")
    res = search_beta(model, model.lte_for_task(args.task_i),
                      model.lte_for_task(args.task_j), args.target, args.tol,
                      model.task(args.task_i), eval_seed=cfg.seed,
                      episodes=cfg.analysis.episodes)
    write_json(os.path.join(cfg.out_dir, "search_beta.json"), {
        "found": res.found, "beta": res.beta, "achieved": res.achieved,
        "evaluations": res.evaluations, "target": args.target, "tol": args.tol,
    })


def cmd_compose(args, cfg: ExperimentConfig, model: SacModel) -> None:
    if args.beta_count < 1:
        raise ConfigurationError(f"--beta-count must be >= 1, got {args.beta_count}")
    rows = compose(model, model.lte_for_task(args.task_a), model.lte_for_task(args.task_b),
                   np.linspace(0.1, 0.9, args.beta_count), model.task(args.task_a),
                   eval_seed=cfg.seed, episodes=cfg.analysis.episodes)
    write_csv(os.path.join(cfg.out_dir, "compose.csv"),
              ["beta", "mean_abs_vx", "mean_height", "mean_return", "skipped"],
              [[r.beta, r.extras.get("mean_abs_vx", np.nan),
                r.extras.get("mean_height", np.nan), r.mean_return, int(r.skipped)]
               for r in rows])


def cmd_sphere(args, cfg: ExperimentConfig, model: SacModel) -> None:
    res = cfg.analysis.sphere_resolution if args.resolution is None else args.resolution
    task = model.task(args.task_index)
    cells = evaluate_sphere(model, task, res, eval_seed=cfg.seed,
                            episodes=cfg.analysis.episodes)
    write_csv(os.path.join(cfg.out_dir, "sphere.csv"),
              ["index", "theta", "phi", "zx", "zy", "zz", "achieved_metric", "mean_return"],
              [[c.index, c.theta, c.phi, c.embedding[0], c.embedding[1], c.embedding[2],
                c.metric, c.mean_return] for c in cells])
    write_csv(os.path.join(cfg.out_dir, "sphere_edges.csv"), ["a", "b"],
              [list(e) for e in sphere_adjacency(res)])


def cmd_lse_viz(args, cfg: ExperimentConfig, model: SacModel) -> None:
    task = model.task(args.task_index)
    res = lse_trajectory_analysis(model, task, args.task_index, eval_seed=cfg.seed)
    raw = res.raw_projections
    lse = res.lse_projections
    rows = []
    for t in range(lse.shape[0]):
        raw_p2 = raw[t, 1] if raw.shape[1] > 1 else 0.0
        rows.append([t, raw[t, 0], raw_p2, lse[t, 0], lse[t, 1]])
    write_csv(os.path.join(cfg.out_dir, "lse_pca.csv"),
              ["t", "raw_p1", "raw_p2", "lse_p1", "lse_p2"], rows)
    write_json(os.path.join(cfg.out_dir, "lse_scores.json"),
               {"raw_score": res.raw_score, "lse_score": res.lse_score})


def cmd_eval(args, cfg: ExperimentConfig, model: SacModel) -> None:
    lte = np.array(parse_floats(args.lte, "--lte")) if args.lte else None
    task = model.task(args.task_index)
    rep = evaluate_policy(model, lte, task, args.episodes, eval_seed=cfg.seed,
                          task_id=args.task_index)
    write_json(os.path.join(cfg.out_dir, "eval.json"), {
        "mean_return": rep.mean_return,
        "achieved_metric": rep.metric,
        "extras": rep.extras,
        "episode_returns": [float(r) for r in rep.episode_returns],
    })


def grad_check(seed: int) -> int:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        n_layers = int(rng.integers(1, 5))
        dims = [int(rng.integers(1, 7)) for _ in range(n_layers + 1)]
        mlp = mlp_init(dims, rng)
        for a in mlp.weights + mlp.biases:
            a += rng.normal(scale=0.3, size=a.shape)
        x = rng.normal(size=dims[0])
        worst = max(worst, finite_difference_check(mlp, x))
    print(f"grad-check: max relative error {worst:.3e} over 100 networks")
    if worst >= 1e-4:
        print("error: gradient check failed", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latent-motor",
        description="Multi-task SAC with reusable unit-sphere task embeddings")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False):
        p.add_argument("--config", default=None, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--threads", type=int, default=1,
                       help="recorded in manifest.json only; evaluation is batched "
                            "over embeddings, not threaded")
        if checkpoint:
            p.add_argument("--checkpoint", required=True)
        else:
            p.set_defaults(checkpoint=None)

    p = sub.add_parser("train", help="multi-task training")
    common(p)
    p.set_defaults(fn=cmd_train, kind="ear")

    p = sub.add_parser("train-baseline", help="baseline trainer")
    common(p)
    p.add_argument("--kind", choices=["mhmt", "ohe"], required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("adapt", help="embedding-space adaptation to an unseen task")
    common(p, checkpoint=True)
    p.add_argument("--target", type=float, default=1.25,
                   help="target velocity (vel1d/runjump) or direction in degrees (dir2d)")
    p.add_argument("--jump-weight", type=float, default=None)
    p.set_defaults(fn=cmd_adapt)

    p = sub.add_parser("interp", help="interpolation sweep between two task embeddings")
    common(p, checkpoint=True)
    p.add_argument("--task-i", type=int, required=True)
    p.add_argument("--task-j", type=int, required=True)
    p.add_argument("--beta-list", default=None, help="comma-separated coefficients")
    p.set_defaults(fn=cmd_interp)

    p = sub.add_parser("search-beta", help="find a coefficient hitting a target metric")
    common(p, checkpoint=True)
    p.add_argument("--task-i", type=int, required=True)
    p.add_argument("--task-j", type=int, required=True)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--tol", type=float, default=0.1)
    p.set_defaults(fn=cmd_search_beta)

    p = sub.add_parser("compose", help="cross-modality composition probe")
    common(p, checkpoint=True)
    p.add_argument("--task-a", type=int, required=True)
    p.add_argument("--task-b", type=int, required=True)
    p.add_argument("--beta-count", type=int, default=9)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("sphere", help="evaluate the whole embedding sphere")
    common(p, checkpoint=True)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--task-index", type=int, default=0)
    p.set_defaults(fn=cmd_sphere)

    p = sub.add_parser("lse-viz", help="PCA of raw states vs sensory embeddings")
    common(p, checkpoint=True)
    p.add_argument("--task-index", type=int, default=0)
    p.set_defaults(fn=cmd_lse_viz)

    p = sub.add_parser("grad-check", help="finite-difference gradient verification")
    common(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one task")
    common(p, checkpoint=True)
    p.add_argument("--task-index", type=int, default=0)
    p.add_argument("--episodes", type=int, default=3)
    p.add_argument("--lte", default=None, help="comma-separated embedding override")
    p.set_defaults(fn=cmd_eval)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        if args.command == "grad-check":
            return grad_check(cfg.seed)
        os.makedirs(cfg.out_dir, exist_ok=True)
        model = load_checkpoint(args.checkpoint) if args.checkpoint else None
        args.fn(args, cfg, model)
        write_records(argv, args, cfg)
        return 0
    except (LatentMotorError, OSError) as exc:
        message = str(exc).replace("\n", " ")
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
