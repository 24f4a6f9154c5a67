"""Straight-line oracle for one full optimization step.

Re-derives every number sac_update reports for a single (duplicated)
transition on deliberately tiny networks: the bootstrap target, both
critic losses, the critic Adam updates, the policy loss against the
updated critics, and the temperature loss. Nothing here calls into the
package's network code; it is all inline numpy, fed by a replay of the
exact stream draws the update consumes.
"""

import numpy as np
import pytest

from latent_motor.envs import make_task_set
from latent_motor.replay import Batch
from latent_motor.rng import RngStreams
from latent_motor.sac import SacModel, TrainConfig, sac_update

GAMMA = 0.99
LOG2PI = np.log(2.0 * np.pi)


def mlp_eval(weights, biases, x):
    h = x
    last = len(weights) - 1
    acts = [x]
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w.T + b
        h = z if k == last else np.tanh(z)
        acts.append(h)
    return h, acts


def mlp_grads(weights, acts, dy):
    gw, gb = [], []
    dh = dy
    for k in range(len(weights) - 1, -1, -1):
        dz = dh if k == len(weights) - 1 else dh * (1.0 - acts[k + 1] ** 2)
        gw.insert(0, dz.T @ acts[k])
        gb.insert(0, dz.sum(axis=0))
        dh = dz @ weights[k]
    return gw, gb


def adam_apply(params, grads, ms, vs, step, lr=3e-4, b1=0.9, b2=0.999, eps=1e-8):
    for p, g, m, v in zip(params, grads, ms, vs):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        p -= lr * (m / (1 - b1 ** step)) / (np.sqrt(v / (1 - b2 ** step)) + eps)


def squashed(mean, log_std_raw, noise):
    log_std = np.clip(log_std_raw, -20.0, 2.0)
    std = np.exp(log_std)
    u = mean + std * noise
    a = np.tanh(u)
    gauss = -0.5 * LOG2PI - log_std - 0.5 * noise ** 2
    corr = 2.0 * (np.log(2.0) - u - np.logaddexp(0.0, -2.0 * u))
    return a, np.sum(gauss - corr, axis=-1)


def policy_eval(model, obs, task_ids, lte_noise, samp_noise):
    enc = model.policy.encoder
    dec = model.policy.decoder
    lse, _ = mlp_eval([w.copy() for w in enc.weights], [b.copy() for b in enc.biases], obs)
    raw = model.policy.task_weight.T[task_ids] + model.policy.task_bias
    z = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    if lte_noise is not None:
        pre = z + lte_noise
        z = pre / np.linalg.norm(pre, axis=1, keepdims=True)
    head, _ = mlp_eval([w.copy() for w in dec.weights], [b.copy() for b in dec.biases],
                       np.concatenate([lse, z], axis=1))
    a_dim = model.action_dim
    return squashed(head[:, :a_dim], head[:, a_dim:], samp_noise)


def test_full_update_matches_straight_line_oracle():
    cfg = TrainConfig(pretrain_epochs=0, train_epochs=1, optimization_times=1,
                      batch_size=2, hidden_width=3, lse_dim=2, lte_dim=3)
    tasks = make_task_set("vel1d", count=2)
    model = SacModel("ear", tasks, cfg, seed=11)

    rng = np.random.default_rng(5)
    s = np.tile(rng.normal(size=(1, 1)), (2, 1))
    a = np.tile(rng.uniform(-1, 1, (1, 1)), (2, 1))
    r = np.full(2, 0.7)
    s2 = np.tile(rng.normal(size=(1, 1)), (2, 1))
    batch = Batch(obs=s, action=a, reward=r, next_obs=s2, task_id=np.zeros(2, np.int64))

    # Replay the exact draws the update will consume.
    streams = RngStreams(11)
    streams.restore(model.rngs.state())
    noise_target = streams.get("policy").standard_normal((2, 1))
    lte_noise = streams.get("noise").standard_normal((2, 3)) * cfg.sigma_noise
    noise_actor = streams.get("policy").standard_normal((2, 1))

    onehot = np.eye(2)[batch.task_id]
    alpha0 = float(np.exp(model.log_alpha))

    # Target y (clean embedding, target critics, duplicated rows agree).
    a2, logp2 = policy_eval(model, s2, batch.task_id, None, noise_target)
    x2 = np.concatenate([s2, a2, onehot], axis=1)
    # The twin critics are slices 0 and 1 of the stacked q and q_target.
    q1t, _ = mlp_eval([w[0] for w in model.q_target.weights],
                      [b[0] for b in model.q_target.biases], x2)
    q2t, _ = mlp_eval([w[1] for w in model.q_target.weights],
                      [b[1] for b in model.q_target.biases], x2)
    y = r + GAMMA * (np.minimum(q1t[:, 0], q2t[:, 0]) - alpha0 * logp2)

    # Critic losses and their Adam updates, replicated on copies.
    x = np.concatenate([s, a, onehot], axis=1)
    expected_jq = []
    updated_critics = []
    for k in range(2):
        w = [wk[k].copy() for wk in model.q.weights]
        b = [bk[k].copy() for bk in model.q.biases]
        pred, acts = mlp_eval(w, b, x)
        err = pred[:, 0] - y
        expected_jq.append(0.5 * float(np.mean(err ** 2)))
        gw, gb = mlp_grads(w, acts, (err / 2.0)[:, None])
        params = [val for pair in zip(w, b) for val in pair]
        grads = [val for pair in zip(gw, gb) for val in pair]
        ms = [np.zeros_like(p) for p in params]
        vs = [np.zeros_like(p) for p in params]
        adam_apply(params, grads, ms, vs, step=1, lr=cfg.lr)
        updated_critics.append((w, b))

    # Policy loss against the *updated* critics, noisy embedding path.
    a_pi, logp_pi = policy_eval(model, s, batch.task_id, lte_noise, noise_actor)
    xa = np.concatenate([s, a_pi, onehot], axis=1)
    q1u, _ = mlp_eval(*updated_critics[0], xa)
    q2u, _ = mlp_eval(*updated_critics[1], xa)
    expected_jpi = float(np.mean(alpha0 * logp_pi - np.minimum(q1u[:, 0], q2u[:, 0])))
    expected_jalpha = float(np.mean(-alpha0 * (logp_pi + model.target_entropy)))

    # The oracle evaluates the float32 parameters in float64; the update
    # rounds each of its O(1) intermediates to float32 (unit round-off
    # 2**-24, ~6e-8), so the losses agree to a few such roundings.
    report = sac_update(model, batch)
    assert report.j_q1 == pytest.approx(expected_jq[0], abs=1e-6)
    assert report.j_q2 == pytest.approx(expected_jq[1], abs=1e-6)
    assert report.j_pi == pytest.approx(expected_jpi, abs=1e-6)
    assert report.j_alpha == pytest.approx(expected_jalpha, abs=1e-6)
