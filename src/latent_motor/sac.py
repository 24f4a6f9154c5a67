"""Off-policy multi-task soft actor-critic.

The trainer follows a two-phase loop: a pretraining phase that fills the
replay buffer with one episode per task per epoch, then training epochs
that (by default) keep collecting one episode per task before running a
fixed number of gradient steps on uniformly sampled batches.

Per update step:
  * both critics regress onto y = r + gamma * (min target Q - alpha*logp')
    with the successor action freshly sampled from the current policy
    (time-limit truncation bootstraps; only physical termination masks),
  * the policy minimizes alpha*logp - min(Q1, Q2) with reparameterized
    actions and freshly noise-injected task embeddings,
  * the temperature descends E[-alpha*(logp + target_entropy)],
  * targets track the critics with a Polyak step.

Critics condition on a one-hot task label, never on the task embedding,
so embedding gradients flow through the policy objective alone.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import envs
from .envs import (
    DEFAULT_CONSTANTS,
    EnvConstants,
    TaskSpec,
    VecRollout,
    action_dim,
    obs_dim,
)
from .errors import ConfigurationError, TrainingDiverged
from .nn import Mlp, adam_init, adam_step, mlp_backward, mlp_forward, mlp_init, soft_update
from .policies import build_policy
from .replay import Batch, ReplayBuffer
from .rng import RngStreams, eval_generator


@dataclass
class TrainConfig:
    """Training hyperparameters, desk-scale defaults.

    Scaled-down knobs relative to a full-size run: batch_size 256
    (vs 1280) and buffer_capacity 1e5 (vs 1e6); everything else is the
    standard setup.
    """

    pretrain_epochs: int = 20
    train_epochs: int = 300
    optimization_times: int = 200
    batch_size: int = 256
    gamma: float = 0.99
    tau: float = 0.005
    lr: float = 3e-4
    sigma_noise: float = 0.05
    buffer_capacity: int = 100_000
    eval_episodes: int = 3
    seed: int = 0
    hidden_width: int = 64
    lse_dim: int = 16
    lte_dim: int = 3
    normalize_lte: bool = True
    noise_in_collection: bool = True
    collect_each_epoch: bool = True

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigurationError("gamma must be in (0, 1]")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigurationError("tau must be in (0, 1]")
        if self.sigma_noise < 0:
            raise ConfigurationError("sigma_noise must be >= 0")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class LossReport:
    j_q1: float
    j_q2: float
    j_pi: float
    j_alpha: float
    alpha: float
    skipped: bool = False


@dataclass
class EvalReport:
    mean_return: float
    metric: float
    extras: dict
    episode_returns: np.ndarray
    traces: list


@dataclass
class CurvePoint:
    epoch: int
    task_id: int
    mean_return: float
    metric: float
    j_q1: float
    j_q2: float
    j_pi: float
    j_alpha: float
    alpha: float


class SacModel:
    """Policy, twin critics with targets, temperature, and run state."""

    def __init__(self, kind: str, tasks: list[TaskSpec], config: TrainConfig,
                 constants: EnvConstants = DEFAULT_CONSTANTS):
        if not tasks:
            raise ConfigurationError("empty task set")
        self.kind = kind
        self.tasks = tasks
        self.family = tasks[0].family
        self.config = config
        self.constants = constants
        self.obs_dim = obs_dim(self.family)
        self.action_dim = action_dim(self.family)
        self.n_tasks = len(tasks)
        self.target_entropy = -float(self.action_dim)
        self.rngs = RngStreams(config.seed)
        init = self.rngs.get("init").gen
        self.policy = build_policy(kind, self.obs_dim, self.action_dim, self.n_tasks,
                                   init, config.lse_dim, config.lte_dim,
                                   config.hidden_width, config.normalize_lte)
        qdims = [self.obs_dim + self.action_dim + self.n_tasks,
                 config.hidden_width, config.hidden_width, config.hidden_width, 1]
        self.q1 = mlp_init(qdims, init)
        self.q2 = mlp_init(qdims, init)
        self.q1_target = Mlp(qdims, self.q1.flat.copy())
        self.q2_target = Mlp(qdims, self.q2.flat.copy())
        self.log_alpha = np.array(0.0)
        self.opt_policy = adam_init(self.policy.flat, lr=config.lr)
        self.opt_q1 = adam_init(self.q1.flat, lr=config.lr)
        self.opt_q2 = adam_init(self.q2.flat, lr=config.lr)
        self.opt_alpha = adam_init(self.log_alpha, lr=config.lr)
        # Buffers every update reuses: critic gradients, and a copy of what a
        # critic step changes, so that a failed actor or temperature phase can undo it.
        self._q_grads = (Mlp(qdims), Mlp(qdims))
        self._critic_state = [self.q1.flat, self.q2.flat, self.opt_q1.m, self.opt_q1.v,
                              self.opt_q2.m, self.opt_q2.v]
        self._critic_copy = [np.empty_like(a) for a in self._critic_state]
        self._eye = np.eye(self.n_tasks)
        self._bad_steps = 0
        self.buffer = None  # attached by train() for post-run inspection

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha))

    def onehot(self, task_ids: np.ndarray) -> np.ndarray:
        return self._eye[np.asarray(task_ids)]

    def task(self, task_index: int) -> TaskSpec:
        """The training task at task_index, which must be in [0, n_tasks)."""
        if not 0 <= task_index < self.n_tasks:
            raise ConfigurationError(
                f"task index {task_index} out of range [0, {self.n_tasks})")
        return self.tasks[task_index]

    def lte_for_task(self, task_index: int) -> np.ndarray:
        if self.kind != "ear":
            raise ConfigurationError("only the shared-interface policy has task embeddings")
        self.task(task_index)
        return self.policy.lte_set()[task_index]

    def lte_set(self) -> np.ndarray:
        if self.kind != "ear":
            raise ConfigurationError("only the shared-interface policy has task embeddings")
        return self.policy.lte_set()


def q_target(model: SacModel, batch: Batch) -> np.ndarray:
    """Bootstrap targets y for both critics (clean task embeddings)."""
    b = len(batch)
    samp = model.rngs.get("policy").standard_normal((b, model.action_dim))
    a2, logp2, _ = model.policy.forward_train(batch.next_obs, batch.task_id, None, samp)
    onehot = model.onehot(batch.task_id)
    x2 = np.concatenate([batch.next_obs, a2, onehot], axis=1)
    q1t = mlp_forward(model.q1_target, x2)[0][:, 0]
    q2t = mlp_forward(model.q2_target, x2)[0][:, 0]
    v = np.minimum(q1t, q2t) - model.alpha * logp2
    mask = 1.0 - batch.terminal.astype(np.float64)
    return batch.reward + model.config.gamma * mask * v


def sac_update(model: SacModel, batch: Batch) -> LossReport:
    """One full optimization step, applied whole or not at all: if a loss or
    gradient is NaN or Inf, the step is skipped and counted, and parameters,
    Adam states, temperature and targets stay byte-equal to their values
    before the call. Random draws made before the failure stay consumed."""
    if len(batch) < 2:
        raise ConfigurationError("batch size must be >= 2")
    report = _sac_update_inner(model, batch)
    if report is None:
        model._bad_steps += 1
        if model._bad_steps >= 10:
            raise TrainingDiverged("10 consecutive non-finite optimization steps")
        return LossReport(np.nan, np.nan, np.nan, np.nan, model.alpha, skipped=True)
    model._bad_steps = 0
    return report


def _finite(*values) -> bool:
    return all(np.isfinite(v).all() for v in values)


def _sac_update_inner(model: SacModel, batch: Batch) -> LossReport | None:
    """The update of sac_update; None, with nothing changed, on a NaN or Inf."""
    b = len(batch)
    cfg = model.config
    onehot = model.onehot(batch.task_id)

    # Critics: both gradients are checked before either is applied (q2's
    # pass does not read q1).
    y = q_target(model, batch)
    x = np.concatenate([batch.obs, batch.action, onehot], axis=1)
    losses, grads = [], []
    for q, grad in zip((model.q1, model.q2), model._q_grads):
        pred, cache = mlp_forward(q, x)
        err = pred[:, 0] - y
        losses.append(0.5 * float(np.mean(err ** 2)))
        grads.append(mlp_backward(q, cache, (err / b)[:, None], grad)[0].flat)
    if not _finite(losses, *grads):
        return None
    for state, copy in zip(model._critic_state, model._critic_copy):
        np.copyto(copy, state)
    adam_step(model.q1.flat, grads[0], model.opt_q1)
    adam_step(model.q2.flat, grads[1], model.opt_q2)

    # Actor: reparameterized actions with fresh noisy embeddings.
    lte_noise = None
    if model.kind == "ear" and cfg.sigma_noise > 0:
        lte_noise = model.rngs.get("noise").standard_normal((b, cfg.lte_dim)) * cfg.sigma_noise
    samp = model.rngs.get("policy").standard_normal((b, model.action_dim))
    action, logp, pcache = model.policy.forward_train(batch.obs, batch.task_id,
                                                      lte_noise, samp)
    xa = np.concatenate([batch.obs, action, onehot], axis=1)
    q1v, c1 = mlp_forward(model.q1, xa)
    q2v, c2 = mlp_forward(model.q2, xa)
    q1v, q2v = q1v[:, 0], q2v[:, 0]
    qmin = np.minimum(q1v, q2v)
    alpha = model.alpha
    j_pi = float(np.mean(alpha * logp - qmin))
    take1 = (q1v <= q2v).astype(np.float64)
    d_q1out = (-take1 / b)[:, None]
    d_q2out = (-(1.0 - take1) / b)[:, None]
    _, dx1 = mlp_backward(model.q1, c1, d_q1out, model._q_grads[0])
    _, dx2 = mlp_backward(model.q2, c2, d_q2out, model._q_grads[1])
    sl = slice(model.obs_dim, model.obs_dim + model.action_dim)
    d_action = dx1[:, sl] + dx2[:, sl]
    d_logp = np.full(b, alpha / b)
    pgrad = model.policy.backward_train(pcache, d_action, d_logp)

    # Temperature.
    j_alpha = float(np.mean(-alpha * (logp + model.target_entropy)))
    d_log_alpha = np.array(-alpha * float(np.mean(logp + model.target_entropy)))

    if not _finite([j_pi, j_alpha], pgrad, d_log_alpha):
        for state, copy in zip(model._critic_state, model._critic_copy):
            np.copyto(state, copy)
        model.opt_q1.step -= 1
        model.opt_q2.step -= 1
        return None
    adam_step(model.policy.flat, pgrad, model.opt_policy)
    adam_step(model.log_alpha, d_log_alpha, model.opt_alpha)

    # Targets.
    soft_update(model.q1_target, model.q1, cfg.tau)
    soft_update(model.q2_target, model.q2, cfg.tau)

    return LossReport(losses[0], losses[1], j_pi, j_alpha, model.alpha)


def _collect(model: SacModel, buffer: ReplayBuffer) -> None:
    """One episode per task, stepped in lockstep, appended to the buffer."""
    cfg = model.config
    vec = VecRollout(model.tasks, model.constants)
    obs = vec.reset(model.rngs.get("env"))
    ids = np.arange(model.n_tasks)
    noisy = cfg.noise_in_collection and model.kind == "ear" and cfg.sigma_noise > 0
    for _ in range(model.constants.max_episode_frames):
        lte_noise = None
        if noisy:
            lte_noise = model.rngs.get("noise").standard_normal(
                (model.n_tasks, cfg.lte_dim)) * cfg.sigma_noise
        samp = model.rngs.get("policy").standard_normal((model.n_tasks, model.action_dim))
        action, _, _ = model.policy.forward_train(obs, ids, lte_noise, samp)
        next_obs, rewards, truncated = vec.step(action)
        buffer.add(obs, action, rewards, next_obs, np.full(model.n_tasks, truncated), ids)
        obs = next_obs


def _metric_windows(family: str, traces: dict, task: TaskSpec, warmup: int) -> dict:
    """Achieved-behavior metrics over the post-warmup window.

    The double integrator needs ~25 frames of full thrust to reach the
    fastest targets, so steady behavior is measured after the transient.
    """
    if family == envs.VEL1D:
        v = traces["velocity"][:, warmup:]
        return {
            "mean_velocity": float(np.mean(v)),
            "vel_abs_error": float(np.mean(np.abs(v - task.target_array[0]))),
        }
    if family == envs.DIR2D:
        vx = traces["vx"][:, warmup:]
        vy = traces["vy"][:, warmup:]
        u = task.target_array
        along = vx * u[0] + vy * u[1]
        perp = vx * (-u[1]) + vy * u[0]
        mean_v = np.array([np.mean(vx), np.mean(vy)])
        return {
            "speed_along": float(np.mean(along)),
            "speed_perp": float(np.mean(np.abs(perp))),
            "direction_deg": float(np.degrees(np.arctan2(mean_v[1], mean_v[0])) % 360.0),
        }
    vx = traces["vx"][:, warmup:]
    height = traces["height"][:, warmup:]
    return {
        "mean_vx": float(np.mean(vx)),
        "mean_abs_vx": float(np.mean(np.abs(vx))),
        "mean_height": float(np.mean(height)),
        "vel_abs_error": float(np.mean(np.abs(vx - task.target_array[0]))),
    }


def _primary_metric(family: str, task: TaskSpec, extras: dict) -> float:
    if family == envs.VEL1D:
        return extras["mean_velocity"]
    if family == envs.DIR2D:
        return extras["direction_deg"]
    return extras["mean_height"] if task.jump_modality else extras["mean_vx"]


def evaluate_policy(model: SacModel, lte: np.ndarray | None, task: TaskSpec,
                    episodes: int = 3, eval_seed: int = 0,
                    task_id: int | None = None) -> EvalReport:
    """Deterministic-policy evaluation on one task.

    For the shared-interface policy any embedding is accepted, trained or
    not; this is the high-level control interface. Baselines evaluate by
    task_id instead and take no embedding. Same seed and embedding give an identical report, and
    the model is left untouched (evaluation draws no mutable stream).
    """
    if model.kind == "ear":
        if lte is None and task_id is None:
            raise ConfigurationError("need an embedding or task_id")
        if lte is None:
            lte = model.lte_for_task(task_id)
        return evaluate_embeddings(model, np.asarray(lte)[None, :], task,
                                   episodes, eval_seed)[0]
    if lte is not None:
        raise ConfigurationError(f"a {model.kind} policy takes no task embedding")
    if task_id is None:
        raise ConfigurationError("baseline evaluation needs task_id")
    return _rollout(model, task, 1, episodes, eval_seed, ids=np.full(episodes, task_id))[0]


def evaluate_embeddings(model: SacModel, Z: np.ndarray, task: TaskSpec,
                        episodes: int = 1, eval_seed: int = 0) -> list[EvalReport]:
    """evaluate_policy for every row of Z, all rolled in one VecRollout.

    Every embedding meets the reset states of evaluate_policy at this seed,
    so report n matches evaluate_policy(model, Z[n], ...) up to the last
    bits, which depend on how BLAS blocks the batched matrix products.
    """
    if model.kind != "ear":
        raise ConfigurationError("only the shared-interface policy has task embeddings")
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or len(Z) == 0 or Z.shape[1] != model.config.lte_dim:
        raise ConfigurationError(f"embeddings must form an (N >= 1, "
                                 f"{model.config.lte_dim}) matrix, got shape {Z.shape}")
    if not np.all(np.isfinite(Z)):
        raise ConfigurationError("embeddings must be finite")
    return _rollout(model, task, len(Z), episodes, eval_seed,
                    lte_rows=np.repeat(Z, episodes, axis=0))


def _rollout(model: SacModel, task: TaskSpec, n: int, episodes: int, eval_seed: int,
             lte_rows: np.ndarray | None = None,
             ids: np.ndarray | None = None) -> list[EvalReport]:
    """Roll n conditionings x episodes rows; row i*episodes + e is episode
    e of conditioning i. Returns one report per conditioning."""
    if episodes < 1:
        raise ConfigurationError("episodes must be >= 1")
    vec = VecRollout([task] * (n * episodes), model.constants)
    obs = vec.reset(eval_generator(eval_seed), repeats=n)
    frames = model.constants.max_episode_frames
    returns = np.zeros(n * episodes)
    rec = {k: np.zeros((n * episodes, frames)) for k in _trace_keys(model.family)}
    for t in range(frames):
        action = model.policy.action_eval(obs, task_ids=ids, lte_rows=lte_rows)
        obs, rewards, _ = vec.step(action)
        returns += rewards
        _record(model.family, rec, t, vec)
    warmup = frames // 4
    reports = []
    for i in range(n):
        rows = slice(i * episodes, (i + 1) * episodes)
        own = {k: v[rows] for k, v in rec.items()}
        extras = _metric_windows(model.family, own, task, warmup)
        reports.append(EvalReport(
            mean_return=float(np.mean(returns[rows])),
            metric=_primary_metric(model.family, task, extras),
            extras=extras,
            episode_returns=returns[rows],
            traces=[{k: v[e] for k, v in own.items()} for e in range(episodes)],
        ))
    return reports


def _trace_keys(family: str) -> tuple:
    if family == envs.VEL1D:
        return ("velocity",)
    if family == envs.DIR2D:
        return ("vx", "vy")
    return ("vx", "height")


def _record(family: str, rec: dict, t: int, vec: VecRollout) -> None:
    if family == envs.VEL1D:
        rec["velocity"][:, t] = vec.vel[:, 0]
    elif family == envs.DIR2D:
        rec["vx"][:, t] = vec.vel[:, 0]
        rec["vy"][:, t] = vec.vel[:, 1]
    else:
        rec["vx"][:, t] = vec.vel[:, 0]
        rec["height"][:, t] = vec.pos[:, 1]


def eval_all_tasks(model: SacModel, episodes: int, eval_seed: int) -> list[EvalReport]:
    return [evaluate_policy(model, None, task, episodes, eval_seed, task_id=i)
            for i, task in enumerate(model.tasks)]


def train(config: TrainConfig, task_set: list[TaskSpec], kind: str = "ear",
          constants: EnvConstants = DEFAULT_CONSTANTS, stop_fn=None,
          progress=None) -> tuple[SacModel, list[CurvePoint]]:
    """Run the full multi-task training loop for a policy kind: "ear" (the
    shared-interface policy), or the "ohe" or "mhmt" baseline.

    stop_fn, when given, receives (epoch, reports) after each epoch's
    evaluation and may end training early by returning True; the curve
    then covers only the epochs actually run.
    """
    if config.train_epochs < 1 or config.pretrain_epochs < 0:
        raise ConfigurationError("epoch counts must be positive")
    model = SacModel(kind, task_set, config, constants)
    buffer = ReplayBuffer(config.buffer_capacity, model.obs_dim, model.action_dim)
    for _ in range(config.pretrain_epochs):
        _collect(model, buffer)
    curves: list[CurvePoint] = []
    for epoch in range(config.train_epochs):
        if config.collect_each_epoch:
            _collect(model, buffer)
        losses = []
        for _ in range(config.optimization_times):
            batch = buffer.sample(config.batch_size, model.rngs.get("batch"))
            losses.append(sac_update(model, batch))
        kept = [l for l in losses if not l.skipped]
        mean_l = {
            "j_q1": float(np.mean([l.j_q1 for l in kept])) if kept else np.nan,
            "j_q2": float(np.mean([l.j_q2 for l in kept])) if kept else np.nan,
            "j_pi": float(np.mean([l.j_pi for l in kept])) if kept else np.nan,
            "j_alpha": float(np.mean([l.j_alpha for l in kept])) if kept else np.nan,
        }
        reports = eval_all_tasks(model, config.eval_episodes, eval_seed=epoch)
        for i, rep in enumerate(reports):
            curves.append(CurvePoint(epoch, i, rep.mean_return, rep.metric,
                                     mean_l["j_q1"], mean_l["j_q2"], mean_l["j_pi"],
                                     mean_l["j_alpha"], model.alpha))
        if progress is not None:
            progress(epoch, reports)
        if stop_fn is not None and stop_fn(epoch, reports):
            break
    model.buffer = buffer
    return model, curves
