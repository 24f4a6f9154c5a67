"""Off-policy multi-task soft actor-critic.

The trainer follows a two-phase loop: a pretraining phase that fills the
replay buffer with one episode per task per epoch, then training epochs
that each collect one more episode per task before running a fixed
number of gradient steps on uniformly sampled batches.

Per update step:
  * both critics regress onto y = r + gamma * (min target Q - alpha*logp')
    with the successor action freshly sampled from the current policy;
    episodes only truncate at the time limit, so every target bootstraps,
  * the policy minimizes alpha*logp - min(Q1, Q2) with reparameterized
    actions and freshly noise-injected task embeddings,
  * the temperature descends E[-alpha*(logp + target_entropy)], with
    target_entropy = -dim(A), the usual SAC heuristic,
  * targets track the critics with a Polyak step.

Critics condition on a one-hot task label, never on the task embedding,
so embedding gradients flow through the policy objective alone. Q1 and
Q2 are slices 0 and 1 of one network stacked on a leading axis (see nn).
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .nn import Mlp, adam_init, adam_step, init_uniform, mlp_backward, mlp_forward, soft_update
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
    hidden_width: int = 64
    lse_dim: int = 16
    lte_dim: int = 3
    normalize_lte: bool = True

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigurationError("gamma must be in (0, 1]")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigurationError("tau must be in (0, 1]")
        if self.sigma_noise < 0:
            raise ConfigurationError("sigma_noise must be >= 0")
        if not self.lr > 0:
            raise ConfigurationError(f"lr must be > 0, got {self.lr}")
        if self.buffer_capacity < self.batch_size:
            raise ConfigurationError(f"buffer_capacity {self.buffer_capacity} must be >= "
                                     f"batch_size {self.batch_size}")


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
    traces: np.ndarray  # (episodes, frames + 1, obs_dim) observations, reset first


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
    """Policy, twin critics with targets, temperature, and run state. What
    the policy kind changes is decided here: conditioning, embedding_noise.
    seed roots the RNG streams: the init weights and every training draw."""

    def __init__(self, kind: str, tasks: list[TaskSpec], config: TrainConfig,
                 constants: EnvConstants = DEFAULT_CONSTANTS, seed: int = 0):
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
        self.rngs = RngStreams(seed)
        init = self.rngs.get("init").gen
        self.policy = build_policy(kind, self.obs_dim, self.action_dim, self.n_tasks,
                                   init, config.lse_dim, config.lte_dim,
                                   config.hidden_width, config.normalize_lte)
        qdims = [self.obs_dim + self.action_dim + self.n_tasks,
                 config.hidden_width, config.hidden_width, config.hidden_width, 1]
        self.q = Mlp(qdims, lead=(2,))
        for k in range(2):  # critic k draws its weights after critic k-1's
            init_uniform([w[k] for w in self.q.weights], init)
        self.q_target = Mlp(qdims, self.q.flat.copy(), lead=(2,))
        self.log_alpha = np.array(0.0)
        self.opt_policy = adam_init(self.policy.flat, lr=config.lr)
        self.opt_q = adam_init(self.q.flat, lr=config.lr)
        self.opt_alpha = adam_init(self.log_alpha, lr=config.lr)
        # Buffers every update reuses: the critic gradient, and a copy of what a
        # critic step changes, so that a failed actor or temperature phase can undo it.
        self._q_grad = Mlp(qdims, lead=(2,))
        self._critic_state = [self.q.flat, self.opt_q.m, self.opt_q.v]
        self._critic_copy = [np.empty_like(a) for a in self._critic_state]
        self._eye = np.eye(self.n_tasks)
        self._bad_steps = 0

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
        self.task(task_index)
        return self.lte_set()[task_index]

    def lte_set(self) -> np.ndarray:
        if self.kind != "ear":
            raise ConfigurationError(f"a {self.kind} policy takes no task embedding")
        return self.policy.lte_set()

    def conditioning(self, task_ids) -> np.ndarray:
        """What the policy acts on in evaluation for each of task_ids: its
        embedding for the shared-interface policy, the id for a baseline."""
        return self.lte_set()[task_ids] if self.kind == "ear" else np.asarray(task_ids)

    def embedding_noise(self, rows: int) -> np.ndarray | None:
        """Training noise for rows task embeddings, drawn from the noise
        stream; None (no draw) for a baseline or at sigma_noise 0."""
        cfg = self.config
        if self.kind == "ear" and cfg.sigma_noise > 0:
            return self.rngs.get("noise").standard_normal((rows, cfg.lte_dim)) * cfg.sigma_noise
        return None


def q_target(model: SacModel, batch: Batch) -> np.ndarray:
    """Bootstrap targets y for both critics (clean task embeddings)."""
    b = len(batch)
    samp = model.rngs.get("policy").standard_normal((b, model.action_dim))
    a2, logp2, _ = model.policy.forward_train(batch.next_obs, batch.task_id, None, samp)
    onehot = model.onehot(batch.task_id)
    x2 = np.concatenate([batch.next_obs, a2, onehot], axis=1, dtype=model.q.flat.dtype)
    qt = mlp_forward(model.q_target, x2)[0][..., 0]
    v = np.minimum(qt[0], qt[1]) - model.alpha * logp2
    return batch.reward + model.config.gamma * v.astype(np.float64)  # float64, as r is


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

    # Critics: one pass of both, checked before the step is applied.
    y = q_target(model, batch)
    x = np.concatenate([batch.obs, batch.action, onehot], axis=1, dtype=model.q.flat.dtype)
    pred, cache = mlp_forward(model.q, x)
    err = pred[..., 0] - y
    losses = [0.5 * float(np.mean(e ** 2)) for e in err]
    grad = mlp_backward(model.q, cache, (err / b)[..., None], model._q_grad)[0].flat
    if not _finite(losses, grad):
        return None
    for state, copy in zip(model._critic_state, model._critic_copy):
        np.copyto(copy, state)
    adam_step(model.q.flat, grad, model.opt_q)

    # Actor: reparameterized actions with fresh noisy embeddings.
    lte_noise = model.embedding_noise(b)
    samp = model.rngs.get("policy").standard_normal((b, model.action_dim))
    action, logp, pcache = model.policy.forward_train(batch.obs, batch.task_id,
                                                      lte_noise, samp)
    xa = np.concatenate([batch.obs, action, onehot], axis=1, dtype=model.q.flat.dtype)
    qv, qcache = mlp_forward(model.q, xa)
    qv = qv[..., 0]
    qmin = np.minimum(qv[0], qv[1])
    alpha = model.alpha
    j_pi = float(np.mean(alpha * logp - qmin))
    take1 = (qv[0] <= qv[1]).astype(qv.dtype)
    d_qout = (-np.stack([take1, 1.0 - take1]) / b)[..., None]
    _, dx = mlp_backward(model.q, qcache, d_qout)  # the input gradient alone
    sl = slice(model.obs_dim, model.obs_dim + model.action_dim)
    d_action = dx[0, :, sl] + dx[1, :, sl]
    d_logp = np.full(b, alpha / b)
    pgrad = model.policy.backward_train(pcache, d_action, d_logp)

    # Temperature.
    j_alpha = float(np.mean(-alpha * (logp + model.target_entropy)))
    d_log_alpha = np.array(-alpha * float(np.mean(logp + model.target_entropy)))

    if not _finite([j_pi, j_alpha], pgrad, d_log_alpha):
        for state, copy in zip(model._critic_state, model._critic_copy):
            np.copyto(state, copy)
        model.opt_q.step -= 1
        return None
    adam_step(model.policy.flat, pgrad, model.opt_policy)
    adam_step(model.log_alpha, d_log_alpha, model.opt_alpha)

    # Targets.
    soft_update(model.q_target, model.q, cfg.tau)

    return LossReport(losses[0], losses[1], j_pi, j_alpha, model.alpha)


def _collect(model: SacModel, buffer: ReplayBuffer) -> None:
    """One episode per task, stepped in lockstep, appended to the buffer."""
    vec = VecRollout(model.tasks, model.constants)
    obs = vec.reset(model.rngs.get("env"))
    ids = np.arange(model.n_tasks)
    for _ in range(model.constants.max_episode_frames):
        lte_noise = model.embedding_noise(model.n_tasks)
        samp = model.rngs.get("policy").standard_normal((model.n_tasks, model.action_dim))
        action, _, _ = model.policy.forward_train(obs, ids, lte_noise, samp)
        next_obs, rewards = vec.step(action)
        buffer.add(obs, action, rewards, next_obs, ids)
        obs = next_obs


def _metric_windows(family: str, obs: np.ndarray, task: TaskSpec, warmup: int) -> dict:
    """Achieved-behavior metrics over the post-warmup window of the
    post-step observations obs, shaped (episodes, frames, obs_dim).

    The double integrator needs ~25 frames of full thrust to reach the
    fastest targets, so steady behavior is measured after the transient.
    """
    obs = obs[:, warmup:]
    if family == envs.VEL1D:
        v = obs[..., 0]
        return {
            "mean_velocity": float(np.mean(v)),
            "vel_abs_error": float(np.mean(np.abs(v - task.target_array[0]))),
        }
    if family == envs.DIR2D:
        vx, vy = obs[..., 0], obs[..., 1]
        u = task.target_array
        along = vx * u[0] + vy * u[1]
        perp = vx * (-u[1]) + vy * u[0]
        mean_v = np.array([np.mean(vx), np.mean(vy)])
        return {
            "speed_along": float(np.mean(along)),
            "speed_perp": float(np.mean(np.abs(perp))),
            "direction_deg": float(np.degrees(np.arctan2(mean_v[1], mean_v[0])) % 360.0),
        }
    vx, height = obs[..., 0], obs[..., 1]
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
    """Deterministic-policy evaluation on one task under the embedding lte
    (the shared-interface policy accepts any, trained or not: this is the
    high-level control interface), or else under training task task_id's
    conditioning. Same seed and conditioning give an identical report, and
    the model is left untouched (evaluation draws no mutable stream)."""
    if lte is not None:
        return evaluate_embeddings(model, np.asarray(lte)[None, :], task, episodes, eval_seed)[0]
    if task_id is None:
        raise ConfigurationError("need an embedding or task_id")
    model.task(task_id)
    return _rollout(model, [task], model.conditioning([task_id]), episodes, eval_seed)[0]


def evaluate_embeddings(model: SacModel, Z: np.ndarray, task: TaskSpec,
                        episodes: int = 1, eval_seed: int = 0) -> list[EvalReport]:
    """evaluate_policy for every row of Z, all rolled in one VecRollout.

    Every embedding meets the reset states of evaluate_policy at this seed,
    so report n matches evaluate_policy(model, Z[n], ...) up to the last
    bits, which depend on how BLAS blocks the batched matrix products.
    """
    if model.kind != "ear":
        raise ConfigurationError(f"a {model.kind} policy takes no task embedding")
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or len(Z) == 0 or Z.shape[1] != model.config.lte_dim:
        raise ConfigurationError(f"embeddings must form an (N >= 1, "
                                 f"{model.config.lte_dim}) matrix, got shape {Z.shape}")
    if not np.all(np.isfinite(Z)):
        raise ConfigurationError("embeddings must be finite")
    return _rollout(model, [task] * len(Z), Z, episodes, eval_seed)


def _rollout(model: SacModel, tasks: list[TaskSpec], cond: np.ndarray, episodes: int,
             eval_seed: int) -> list[EvalReport]:
    """Roll conditioning cond[i] (see SacModel.conditioning) on tasks[i];
    row i*episodes + e is episode e of conditioning i. Episode e of every
    conditioning starts from the same reset state. Returns one report
    per conditioning."""
    if episodes < 1:
        raise ConfigurationError("episodes must be >= 1")
    n = len(tasks)
    cond = np.repeat(cond, episodes, axis=0)
    vec = VecRollout([task for task in tasks for _ in range(episodes)], model.constants)
    obs = vec.reset(eval_generator(eval_seed), repeats=n)
    frames = model.constants.max_episode_frames
    returns = np.zeros(n * episodes)
    trace = np.empty((n * episodes, frames + 1, model.obs_dim))
    trace[:, 0] = obs
    for t in range(frames):
        action = model.policy.action_eval(obs, cond)
        obs, rewards = vec.step(action)
        returns += rewards
        trace[:, t + 1] = obs
    reports = []
    for i, task in enumerate(tasks):
        rows = slice(i * episodes, (i + 1) * episodes)
        extras = _metric_windows(model.family, trace[rows, 1:], task, frames // 4)
        reports.append(EvalReport(
            mean_return=float(np.mean(returns[rows])),
            metric=_primary_metric(model.family, task, extras),
            extras=extras,
            episode_returns=returns[rows],
            traces=trace[rows],
        ))
    return reports


def eval_all_tasks(model: SacModel, episodes: int, eval_seed: int) -> list[EvalReport]:
    """One report per training task under its own conditioning, all tasks
    rolled together."""
    return _rollout(model, model.tasks, model.conditioning(np.arange(model.n_tasks)),
                    episodes, eval_seed)


def train(config: TrainConfig, task_set: list[TaskSpec], kind: str = "ear",
          constants: EnvConstants = DEFAULT_CONSTANTS, seed: int = 0,
          stop_fn=None) -> tuple[SacModel, list[CurvePoint]]:
    """Run the full multi-task training loop for a policy kind: "ear" (the
    shared-interface policy), or the "ohe" or "mhmt" baseline, from the
    model that SacModel builds with seed.

    stop_fn, when given, receives (epoch, reports) after each epoch's
    evaluation and may end training early by returning True; the curve
    then covers only the epochs actually run.
    """
    if config.train_epochs < 1 or config.pretrain_epochs < 0:
        raise ConfigurationError("epoch counts must be positive")
    model = SacModel(kind, task_set, config, constants, seed)
    buffer = ReplayBuffer(config.buffer_capacity, model.obs_dim, model.action_dim)
    for _ in range(config.pretrain_epochs):
        _collect(model, buffer)
    curves: list[CurvePoint] = []
    for epoch in range(config.train_epochs):
        _collect(model, buffer)
        losses = []
        for _ in range(config.optimization_times):
            batch = buffer.sample(config.batch_size, model.rngs.get("batch"))
            losses.append(sac_update(model, batch))
        kept = [l for l in losses if not l.skipped]
        mean_l = {k: float(np.mean([getattr(l, k) for l in kept])) if kept else np.nan
                  for k in ("j_q1", "j_q2", "j_pi", "j_alpha")}
        reports = eval_all_tasks(model, config.eval_episodes, eval_seed=epoch)
        curves += [CurvePoint(epoch, i, rep.mean_return, rep.metric, **mean_l, alpha=model.alpha)
                   for i, rep in enumerate(reports)]
        if stop_fn is not None and stop_fn(epoch, reports):
            break
    return model, curves
