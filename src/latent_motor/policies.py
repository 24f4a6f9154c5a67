"""Policy networks for the shared-interface agent and the two baselines.

All three expose the same training surface:

  flat, layout                                          -> parameter buffer, its nn.carve layout
  forward_train(obs, task_ids, lte_noise, sample_noise) -> (action, log_prob, cache)
  backward_train(cache, d_action, d_log_prob)           -> gradient like flat, reused buffer
  action_eval(obs, cond)                                -> deterministic actions

Every parameter array is a view into flat. Training conditions on task
ids; evaluation is handed cond, one row per observation as
sac.SacModel.conditioning gives it: an embedding for the shared-interface
policy, a task id for the baselines. The shared-interface policy encodes
the observation to a sensory embedding, looks up a unit-norm task
embedding by task id in training, optionally perturbs it, and decodes
the concatenation into a squashed Gaussian. Its backward pass chains
through the sampler, the decoder, the encoder, and the two sphere
projections back to the task-encoder weights; only this path carries
gradient to the embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import normalize_backward, normalize_rows
from .errors import ConfigurationError
from .nn import (
    Mlp,
    MlpCache,
    SampleCache,
    carve,
    gaussian_head,
    init_uniform,
    mlp_backward,
    mlp_forward,
    policy_sample_backward,
    sample_squashed,
)


def _mean_action(head_raw: np.ndarray) -> np.ndarray:
    """The deterministic action: tanh of the mean half of a head output,
    which is what tanh(gaussian_head(head_raw).mean) computes."""
    return np.tanh(head_raw[:, : head_raw.shape[1] // 2])


@dataclass
class EarCache:
    enc_cache: MlpCache
    dec_cache: MlpCache
    samp_cache: SampleCache
    task_ids: np.ndarray
    raw_lte: np.ndarray       # encoder output before projection
    lte: np.ndarray           # projected embedding
    noisy_pre: np.ndarray     # lte + noise, before re-projection
    noisy_lte: np.ndarray     # what the decoder consumed


class EarPolicy:
    """State encoder + task encoder + action decoder."""

    def __init__(self, obs_dim: int, action_dim: int, n_tasks: int, rng,
                 lse_dim: int = 16, lte_dim: int = 3, width: int = 64,
                 normalize_lte: bool = True):
        self.lse_dim = lse_dim
        self.normalize_lte = normalize_lte
        self.layout = [[obs_dim, width, lse_dim],
                       [lse_dim + lte_dim, width, width, width, 2 * action_dim],
                       (lte_dim, n_tasks), (lte_dim,)]
        # task_weight (lte_dim, n_tasks) and task_bias (lte_dim,) are the task
        # encoder, a linear map from task one-hots to embedding space
        self.flat, blocks = carve(self.layout)
        self.encoder, self.decoder, self.task_weight, self.task_bias = blocks
        init_uniform(self.encoder.weights + self.decoder.weights + [self.task_weight], rng)
        self._grad = carve(self.layout)

    def lte_set(self) -> np.ndarray:
        """The float64 embedding of every task, as training computes it."""
        raw = self.task_weight.T + self.task_bias
        return normalize_rows(raw) if self.normalize_lte else raw.astype(np.float64)

    def _embed(self, task_ids: np.ndarray):
        # the input is a one-hot, so task k's raw embedding is column k plus the bias
        raw = self.task_weight.T[task_ids] + self.task_bias
        lte = normalize_rows(raw) if self.normalize_lte else raw
        return raw, lte

    def forward_train(self, obs: np.ndarray, task_ids: np.ndarray,
                      lte_noise: np.ndarray | None, sample_noise: np.ndarray):
        """lte_noise None means a clean embedding."""
        lse, enc_cache = mlp_forward(self.encoder, obs)
        raw, lte = self._embed(np.asarray(task_ids))
        if lte_noise is not None:
            pre = lte + lte_noise
            noisy = normalize_rows(pre) if self.normalize_lte else pre
        else:
            pre = lte
            noisy = lte
        dec_in = np.concatenate([lse, noisy], axis=1, dtype=lse.dtype)
        head_raw, dec_cache = mlp_forward(self.decoder, dec_in)
        out = gaussian_head(head_raw)
        action, log_prob, samp_cache = sample_squashed(out, sample_noise)
        cache = EarCache(enc_cache, dec_cache, samp_cache,
                         np.asarray(task_ids), raw, lte, pre, noisy)
        return action, log_prob, cache

    def backward_train(self, cache: EarCache, d_action: np.ndarray,
                       d_log_prob: np.ndarray) -> np.ndarray:
        grad, (enc_g, dec_g, te_w, te_b) = self._grad
        te_w.fill(0.0)
        te_b.fill(0.0)
        d_head = policy_sample_backward(cache.samp_cache, d_action, d_log_prob)
        _, d_dec_in = mlp_backward(self.decoder, cache.dec_cache, d_head, dec_g)
        d_lse = d_dec_in[:, : self.lse_dim]
        d_noisy = d_dec_in[:, self.lse_dim:]
        mlp_backward(self.encoder, cache.enc_cache, d_lse, enc_g)
        if self.normalize_lte and cache.noisy_lte is not cache.lte:
            d_lte = normalize_backward(cache.noisy_pre, cache.noisy_lte, d_noisy)
        else:
            d_lte = d_noisy
        if self.normalize_lte:
            d_raw = normalize_backward(cache.raw_lte, cache.lte, d_lte)
        else:
            d_raw = d_lte
        # cast first: add.at of float64 values into float32 is ~4x slower
        np.add.at(te_w.T, cache.task_ids, d_raw.astype(te_w.dtype))
        te_b += d_raw.sum(axis=0)
        return grad

    def encode_obs(self, obs: np.ndarray) -> np.ndarray:
        return mlp_forward(self.encoder, obs)[0]

    def action_eval(self, obs: np.ndarray, cond: np.ndarray) -> np.ndarray:
        """Deterministic actions for one embedding row of cond per observation."""
        lse = self.encode_obs(obs)
        dec_in = np.concatenate([lse, cond], axis=1, dtype=lse.dtype)
        return _mean_action(mlp_forward(self.decoder, dec_in)[0])


@dataclass
class OheCache:
    net_cache: MlpCache
    samp_cache: SampleCache


class OhePolicy:
    """One-hot baseline: [obs, one_hot(task)] through a single MLP of the
    same depth as the composite shared-interface stack."""

    def __init__(self, obs_dim: int, action_dim: int, n_tasks: int, rng, width: int = 64):
        self._eye = np.eye(n_tasks)
        self.layout = [[obs_dim + n_tasks, width, width, width, width, width, 2 * action_dim]]
        self.flat, (self.net,) = carve(self.layout)
        init_uniform(self.net.weights, rng)
        self._grad = Mlp(self.net.dims)

    def _input(self, obs, task_ids):
        onehot = self._eye[np.asarray(task_ids)]
        return np.concatenate([obs, onehot], axis=1, dtype=self.flat.dtype)

    def forward_train(self, obs, task_ids, lte_noise, sample_noise):
        head_raw, net_cache = mlp_forward(self.net, self._input(obs, task_ids))
        out = gaussian_head(head_raw)
        action, log_prob, samp_cache = sample_squashed(out, sample_noise)
        return action, log_prob, OheCache(net_cache, samp_cache)

    def backward_train(self, cache: OheCache, d_action, d_log_prob) -> np.ndarray:
        d_head = policy_sample_backward(cache.samp_cache, d_action, d_log_prob)
        return mlp_backward(self.net, cache.net_cache, d_head, self._grad)[0].flat

    def action_eval(self, obs, cond):
        return _mean_action(mlp_forward(self.net, self._input(obs, cond))[0])


@dataclass
class MhmtCache:
    obs: np.ndarray
    task_ids: np.ndarray
    head_post: np.ndarray
    trunk_cache: MlpCache
    samp_cache: SampleCache


class MhmtPolicy:
    """Multi-head baseline: a per-task first layer feeding a shared trunk."""

    def __init__(self, obs_dim: int, action_dim: int, n_tasks: int, rng, width: int = 64):
        self.layout = [(n_tasks, width, obs_dim), (n_tasks, width),
                       [width, width, width, width, 2 * action_dim]]
        self.flat, (self.head_w, self.head_b, self.trunk) = carve(self.layout)
        init_uniform([self.head_w] + self.trunk.weights, rng)
        self._grad = carve(self.layout)

    def _head(self, obs, task_ids):
        ids = np.asarray(task_ids)
        obs = np.asarray(obs, dtype=self.flat.dtype)
        z = np.einsum("boi,bi->bo", self.head_w[ids], obs) + self.head_b[ids]
        return np.tanh(z)

    def forward_train(self, obs, task_ids, lte_noise, sample_noise):
        h = self._head(obs, task_ids)
        head_raw, trunk_cache = mlp_forward(self.trunk, h)
        out = gaussian_head(head_raw)
        action, log_prob, samp_cache = sample_squashed(out, sample_noise)
        return action, log_prob, MhmtCache(np.asarray(obs, h.dtype), np.asarray(task_ids), h,
                                           trunk_cache, samp_cache)

    def backward_train(self, cache: MhmtCache, d_action, d_log_prob) -> np.ndarray:
        grad, (gw, gb, trunk_g) = self._grad
        gw.fill(0.0)
        gb.fill(0.0)
        d_head_out = policy_sample_backward(cache.samp_cache, d_action, d_log_prob)
        _, d_h = mlp_backward(self.trunk, cache.trunk_cache, d_head_out, trunk_g)
        dz = d_h * (1.0 - cache.head_post ** 2)
        np.add.at(gw, cache.task_ids, np.einsum("bo,bi->boi", dz, cache.obs))
        np.add.at(gb, cache.task_ids, dz)
        return grad

    def action_eval(self, obs, cond):
        return _mean_action(mlp_forward(self.trunk, self._head(obs, cond))[0])


def build_policy(kind: str, obs_dim: int, action_dim: int, n_tasks: int, rng,
                 lse_dim: int = 16, lte_dim: int = 3, width: int = 64,
                 normalize_lte: bool = True):
    if kind == "ear":
        return EarPolicy(obs_dim, action_dim, n_tasks, rng, lse_dim, lte_dim,
                         width, normalize_lte)
    if kind == "ohe":
        return OhePolicy(obs_dim, action_dim, n_tasks, rng, width)
    if kind == "mhmt":
        return MhmtPolicy(obs_dim, action_dim, n_tasks, rng, width)
    raise ConfigurationError(f"unknown policy kind {kind!r}")
