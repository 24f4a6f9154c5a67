"""Command-line entry point and experiment orchestration.

Every subcommand reads an optional JSON experiment config, honors
--seed (flag > LATENT_MOTOR_SEED env var > config), writes its artifacts
into one output directory together with a manifest that pins the
command, config hash, checkpoint hash, and versions. Exit codes: 0 ok,
1 runtime failure (single machine-parsable line on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys

import numpy as np

from . import __version__
from .analysis import (
    compose,
    evaluate_sphere,
    interpolation_sweep,
    lse_trajectory_analysis,
    search_beta,
)
from .cem import adaptation_curve, cem_adapt
from .checkpoint import file_sha256, load_checkpoint, save_checkpoint
from .config import ExperimentConfig, config_to_dict, load_config
from .embedding import sphere_adjacency
from .envs import DIR2D, RUNJUMP, VEL1D, TaskSpec
from .errors import ConfigurationError, LatentMotorError
from .nn import finite_difference_check, mlp_init
from .sac import evaluate_policy, train


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


def write_sidecar(csv_path: str, cfg: ExperimentConfig | None, ckpt_hash: str | None) -> None:
    write_json(csv_path + ".meta.json", {
        "config": config_to_dict(cfg) if cfg else None,
        "checkpoint_sha256": ckpt_hash,
    })


def write_manifest(out_dir: str, args, cfg_path: str | None, ckpt_path: str | None) -> None:
    manifest = {
        "command": args.command,
        "argv": sys.argv[1:],
        "seed": getattr(args, "effective_seed", None),
        "threads": getattr(args, "threads", 1),
        "config_sha256": file_sha256(cfg_path) if cfg_path else None,
        "checkpoint_sha256": file_sha256(ckpt_path) if ckpt_path else None,
        "versions": {
            "latent_motor": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _resolve(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    seed = args.seed
    if seed is None and os.environ.get("LATENT_MOTOR_SEED"):
        text = os.environ["LATENT_MOTOR_SEED"]
        try:
            seed = int(text)
        except ValueError:
            raise ConfigurationError(
                f"LATENT_MOTOR_SEED must be an integer, got {text!r}") from None
    if seed is not None and seed < 0:
        raise ConfigurationError(f"the seed must be >= 0, got {seed}")
    cfg = cfg.resolved(seed)
    if getattr(args, "out", None):
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    args.effective_seed = cfg.seed
    return cfg


def _prepare_out(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _curves_csv(path: str, curves) -> None:
    header = ["epoch", "task_id", "mean_return", "achieved_metric",
              "j_q1", "j_q2", "j_pi", "j_alpha", "alpha"]
    rows = [[c.epoch, c.task_id, c.mean_return, c.metric, c.j_q1, c.j_q2,
             c.j_pi, c.j_alpha, c.alpha] for c in curves]
    write_csv(path, header, rows)


def cmd_train(args) -> int:
    cfg = _resolve(args)
    out = _prepare_out(cfg)
    tasks = cfg.env.task_set()
    kind = "ear" if args.command == "train" else args.kind
    model, curves = train(cfg.train, tasks, kind, cfg.env.constants())
    write_json(os.path.join(out, "config.json"), config_to_dict(cfg))
    _curves_csv(os.path.join(out, "curves.csv"), curves)
    save_checkpoint(model, os.path.join(out, "model.ckpt.json"))
    write_manifest(out, args, args.config, None)
    return 0


def _adapt_task(model, args) -> TaskSpec:
    fam = model.family
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


def cmd_adapt(args) -> int:
    cfg = _resolve(args)
    out = _prepare_out(cfg)
    model = load_checkpoint(args.checkpoint)
    task = _adapt_task(model, args)
    best, trace = cem_adapt(model, task, cfg.cem)
    rows = [[i, e.best_return, e.sigma, e.episodes_used]
            for i, e in enumerate(trace.epochs)]
    write_csv(os.path.join(out, "trace.csv"),
              ["epoch", "best_return", "sigma", "episodes_used"], rows)
    curve = adaptation_curve([trace])
    write_csv(os.path.join(out, "adaptation_curve.csv"),
              ["epoch", "mean_best_return", "std_best_return"],
              [[r["epoch"], r["mean_best_return"], r["std_best_return"]] for r in curve])
    write_json(os.path.join(out, "best_lte.json"), {
        "lte": [float(v) for v in best],
        "best_return": trace.epochs[-1].best_return,
        "task": task.as_dict(),
    })
    write_manifest(out, args, args.config, args.checkpoint)
    return 0


def cmd_interp(args) -> int:
    cfg = _resolve(args)
    betas = parse_floats(args.beta_list, "--beta-list") if args.beta_list \
        else list(cfg.analysis.betas)
    out = _prepare_out(cfg)
    model = load_checkpoint(args.checkpoint)
    z_i = model.lte_for_task(args.task_i)
    z_j = model.lte_for_task(args.task_j)
    task = model.task(args.task_i)
    rows = interpolation_sweep(model, z_i, z_j, betas, task,
                               eval_seed=cfg.seed, episodes=cfg.analysis.episodes)
    csv_path = os.path.join(out, "sweep.csv")
    write_csv(csv_path, ["beta", "achieved_metric", "mean_return", "skipped"],
              [[r.beta, r.metric, r.mean_return, int(r.skipped)] for r in rows])
    write_sidecar(csv_path, cfg, file_sha256(args.checkpoint))
    write_manifest(out, args, args.config, args.checkpoint)
    return 0


def cmd_search_beta(args) -> int:
    if not args.tol >= 0:  # also rejects nan
        raise ConfigurationError(f"--tol must be >= 0, got {args.tol}")
    if not np.isfinite(args.target):
        raise ConfigurationError(f"--target must be finite, got {args.target}")
    cfg = _resolve(args)
    out = _prepare_out(cfg)
    model = load_checkpoint(args.checkpoint)
    res = search_beta(model, model.lte_for_task(args.task_i),
                      model.lte_for_task(args.task_j), args.target, args.tol,
                      model.task(args.task_i), eval_seed=cfg.seed,
                      episodes=cfg.analysis.episodes)
    write_json(os.path.join(out, "search_beta.json"), {
        "found": res.found, "beta": res.beta, "achieved": res.achieved,
        "evaluations": res.evaluations, "target": args.target, "tol": args.tol,
    })
    write_manifest(out, args, args.config, args.checkpoint)
    return 0


def cmd_compose(args) -> int:
    if args.beta_count < 1:
        raise ConfigurationError(f"--beta-count must be >= 1, got {args.beta_count}")
    cfg = _resolve(args)
    out = _prepare_out(cfg)
    model = load_checkpoint(args.checkpoint)
    rows = compose(model, model.lte_for_task(args.task_a), model.lte_for_task(args.task_b),
                   np.linspace(0.1, 0.9, args.beta_count), model.task(args.task_a),
                   eval_seed=cfg.seed, episodes=cfg.analysis.episodes)
    csv_path = os.path.join(out, "compose.csv")
    write_csv(csv_path, ["beta", "mean_abs_vx", "mean_height", "mean_return", "skipped"],
              [[r.beta, r.extras.get("mean_abs_vx", np.nan),
                r.extras.get("mean_height", np.nan), r.mean_return, int(r.skipped)]
               for r in rows])
    write_sidecar(csv_path, cfg, file_sha256(args.checkpoint))
    write_manifest(out, args, args.config, args.checkpoint)
    return 0


def cmd_sphere(args) -> int:
    cfg = _resolve(args)
    out = _prepare_out(cfg)
    model = load_checkpoint(args.checkpoint)
    res = args.resolution or cfg.analysis.sphere_resolution
    task = model.task(args.task_index)
    cells = evaluate_sphere(model, task, res, eval_seed=cfg.seed,
                            episodes=cfg.analysis.episodes)
    csv_path = os.path.join(out, "sphere.csv")
    write_csv(csv_path,
              ["index", "theta", "phi", "zx", "zy", "zz", "achieved_metric", "mean_return"],
              [[c.index, c.theta, c.phi, c.embedding[0], c.embedding[1], c.embedding[2],
                c.metric, c.mean_return] for c in cells])
    edges = sphere_adjacency(res)
    write_csv(os.path.join(out, "sphere_edges.csv"), ["a", "b"], [list(e) for e in edges])
    write_sidecar(csv_path, cfg, file_sha256(args.checkpoint))
    write_manifest(out, args, args.config, args.checkpoint)
    return 0


def cmd_lse_viz(args) -> int:
    cfg = _resolve(args)
    out = _prepare_out(cfg)
    model = load_checkpoint(args.checkpoint)
    task = model.task(args.task_index)
    res = lse_trajectory_analysis(model, task, args.task_index, eval_seed=cfg.seed)
    csv_path = os.path.join(out, "lse_pca.csv")
    raw = res.raw_projections
    lse = res.lse_projections
    rows = []
    for t in range(lse.shape[0]):
        raw_p2 = raw[t, 1] if raw.shape[1] > 1 else 0.0
        rows.append([t, raw[t, 0], raw_p2, lse[t, 0], lse[t, 1]])
    write_csv(csv_path, ["t", "raw_p1", "raw_p2", "lse_p1", "lse_p2"], rows)
    write_json(os.path.join(out, "lse_scores.json"),
               {"raw_score": res.raw_score, "lse_score": res.lse_score})
    write_sidecar(csv_path, cfg, file_sha256(args.checkpoint))
    write_manifest(out, args, args.config, args.checkpoint)
    return 0


def cmd_grad_check(args) -> int:
    _resolve(args)
    rng = np.random.default_rng(args.effective_seed or 0)
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


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    lte = np.array(parse_floats(args.lte, "--lte")) if args.lte else None
    out = _prepare_out(cfg)
    model = load_checkpoint(args.checkpoint)
    task = model.task(args.task_index)
    rep = evaluate_policy(model, lte, task, args.episodes, eval_seed=cfg.seed,
                          task_id=args.task_index)
    write_json(os.path.join(out, "eval.json"), {
        "mean_return": rep.mean_return,
        "achieved_metric": rep.metric,
        "extras": rep.extras,
        "episode_returns": [float(r) for r in rep.episode_returns],
    })
    write_manifest(out, args, args.config, args.checkpoint)
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

    p = sub.add_parser("train", help="multi-task training")
    common(p)
    p.set_defaults(fn=cmd_train)

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
    p.set_defaults(fn=cmd_grad_check)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one task")
    common(p, checkpoint=True)
    p.add_argument("--task-index", type=int, default=0)
    p.add_argument("--episodes", type=int, default=3)
    p.add_argument("--lte", default=None, help="comma-separated embedding override")
    p.set_defaults(fn=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (LatentMotorError, OSError) as exc:
        message = str(exc).replace("\n", " ")
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
