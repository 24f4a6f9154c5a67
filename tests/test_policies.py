"""Gradient checks for the composite policies.

These lock in the hand-derived backward passes (sampler, decoder,
encoder, sphere projections, task-encoder accumulation, per-task heads)
against central finite differences on a scalar probe loss.
"""

import numpy as np
import pytest

from latent_motor.nn import carve
from latent_motor.policies import EarPolicy, MhmtPolicy, build_policy
from latent_motor.errors import ConfigurationError


def probe_loss(policy, obs, ids, lte_noise, samp, ca, cl):
    action, logp, _ = policy.forward_train(obs, ids, lte_noise, samp)
    return float(np.sum(ca * action) + np.sum(cl * logp))


def fd_worst(policy, obs, ids, lte_noise, samp, ca, cl, h=1e-6):
    _, _, cache = policy.forward_train(obs, ids, lte_noise, samp)
    gf = policy.backward_train(cache, ca, cl).copy()
    # the gradient buffer is reused, so a second call must not add to the first
    assert np.array_equal(policy.backward_train(cache, ca, cl), gf)
    flat = policy.flat
    assert gf.shape == flat.shape
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = probe_loss(policy, obs, ids, lte_noise, samp, ca, cl)
        flat[i] = orig - h
        lm = probe_loss(policy, obs, ids, lte_noise, samp, ca, cl)
        flat[i] = orig
        fd = (lp - lm) / (2 * h)
        worst = max(worst, abs(fd - gf[i]) / max(abs(fd), abs(gf[i]), 1e-7))
    return worst


@pytest.mark.parametrize("noisy,normalize", [(True, True), (False, True),
                                             (True, False), (False, False)])
def test_shared_interface_policy_gradients(noisy, normalize):
    rng = np.random.default_rng(0)
    pol = EarPolicy(obs_dim=2, action_dim=2, n_tasks=3, rng=rng,
                    lse_dim=4, lte_dim=3, width=5, normalize_lte=normalize)
    obs = rng.normal(size=(5, 2))
    ids = rng.integers(0, 3, size=5)
    noise = rng.normal(scale=0.05, size=(5, 3)) if noisy else None
    samp = rng.normal(size=(5, 2))
    ca, cl = rng.normal(size=(5, 2)), rng.normal(size=5)
    assert fd_worst(pol, obs, ids, noise, samp, ca, cl) < 1e-4


@pytest.mark.parametrize("kind", ["ohe", "mhmt"])
def test_baseline_policy_gradients(kind):
    rng = np.random.default_rng(1)
    pol = build_policy(kind, 2, 2, 3, rng, width=4)
    obs = rng.normal(size=(5, 2))
    ids = rng.integers(0, 3, size=5)
    samp = rng.normal(size=(5, 2))
    ca, cl = rng.normal(size=(5, 2)), rng.normal(size=5)
    assert fd_worst(pol, obs, ids, None, samp, ca, cl) < 1e-4


def test_build_policy_unknown_kind():
    with pytest.raises(ConfigurationError):
        build_policy("rnn", 2, 2, 3, np.random.default_rng(0))


def test_mhmt_rows_only_touch_their_head():
    rng = np.random.default_rng(3)
    pol = MhmtPolicy(2, 1, 3, rng, width=4)
    obs = rng.normal(size=(4, 2))
    ids = np.array([0, 0, 2, 2])
    samp = rng.normal(size=(4, 1))
    _, _, cache = pol.forward_train(obs, ids, None, samp)
    grad = pol.backward_train(cache, np.ones((4, 1)), np.zeros(4))
    _, (gw, _, _) = carve(pol.layout, grad)
    assert np.any(gw[0] != 0.0)
    assert np.all(gw[1] == 0.0)
    assert np.any(gw[2] != 0.0)
