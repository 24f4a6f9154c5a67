"""Unit tests for the dense network engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_motor.errors import ConfigurationError, InternalError, NonFiniteGradient
from latent_motor.nn import (
    GaussianPolicyOutput,
    Mlp,
    adam_init,
    adam_step,
    finite_difference_check,
    gaussian_head,
    mlp_backward,
    mlp_forward,
    mlp_init,
    policy_log_prob,
    sample_squashed,
    soft_update,
)


def test_forward_identity_single_layer():
    mlp = Mlp([2, 2])
    mlp.weights[0][...] = np.eye(2)
    out, _ = mlp_forward(mlp, np.array([3.0, -2.0]))
    assert np.array_equal(out, np.array([3.0, -2.0]))


def test_forward_zero_weight_hidden():
    # hidden layer collapses to tanh(0)=0, output layer gives 2*0+1
    mlp = Mlp([1, 1, 1], np.array([0.0, 0.0, 2.0, 1.0]))
    out, _ = mlp_forward(mlp, np.array([5.0]))
    assert out == pytest.approx([1.0], abs=0)


def test_forward_matches_straight_line_evaluation():
    rng = np.random.default_rng(7)
    mlp = mlp_init([3, 4, 2], rng)
    x = rng.normal(size=3)
    out, _ = mlp_forward(mlp, x)
    # independent re-evaluation, written long-hand
    h = np.tanh(mlp.weights[0] @ x + mlp.biases[0])
    expected = mlp.weights[1] @ h + mlp.biases[1]
    assert np.max(np.abs(out - expected)) < 1e-12


def test_forward_dimension_mismatch():
    mlp = mlp_init([3, 2], np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        mlp_forward(mlp, np.zeros(4))


def test_forward_is_pure():
    rng = np.random.default_rng(3)
    mlp = mlp_init([2, 5, 5, 1], rng)
    x = rng.normal(size=2)
    a, _ = mlp_forward(mlp, x)
    b, _ = mlp_forward(mlp, x)
    assert np.array_equal(a, b)


def test_backward_zero_grad_gives_zero():
    rng = np.random.default_rng(1)
    mlp = mlp_init([2, 3, 2], rng)
    out, cache = mlp_forward(mlp, np.ones(2))
    grads, dx = mlp_backward(mlp, cache, np.zeros_like(out))
    assert np.all(grads.flat == 0)
    assert np.all(dx == 0)


def test_backward_linear_analytic():
    # y = w*x + b, dL/dy = 1  ->  dw = x, db = 1
    mlp = Mlp([1, 1], np.array([1.7, 0.3]))
    x = np.array([2.5])
    out, cache = mlp_forward(mlp, x)
    grads, dx = mlp_backward(mlp, cache, np.array([1.0]))
    assert grads.weights[0][0, 0] == pytest.approx(2.5, abs=1e-15)
    assert grads.biases[0][0] == pytest.approx(1.0, abs=1e-15)
    assert dx[0] == pytest.approx(1.7, abs=1e-15)


def test_backward_three_layer_finite_difference():
    rng = np.random.default_rng(11)
    mlp = mlp_init([3, 4, 4, 2], rng)
    for w in mlp.weights:
        w += rng.normal(scale=0.3, size=w.shape)
    assert finite_difference_check(mlp, rng.normal(size=3), h=1e-5) < 1e-4


def test_backward_stale_cache_rejected():
    rng = np.random.default_rng(2)
    a = mlp_init([2, 3], rng)
    b = mlp_init([2, 4], rng)
    _, cache = mlp_forward(a, np.zeros(2))
    with pytest.raises(InternalError):
        mlp_backward(b, cache, np.zeros(4))


def test_gradients_exact_across_random_configurations():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n_layers = int(rng.integers(1, 5))
        dims = [int(rng.integers(1, 7)) for _ in range(n_layers + 1)]
        mlp = mlp_init(dims, rng)
        for w in mlp.weights:
            w += rng.normal(scale=0.3, size=w.shape)
        for b in mlp.biases:
            b += rng.normal(scale=0.3, size=b.shape)
        worst = max(worst, finite_difference_check(mlp, rng.normal(size=dims[0])))
    assert worst < 1e-4


def test_adam_zero_gradient_keeps_params():
    rng = np.random.default_rng(5)
    mlp = mlp_init([2, 3, 1], rng)
    before = mlp.flat.copy()
    state = adam_init(mlp.flat, lr=1e-3)
    for _ in range(3):
        adam_step(mlp.flat, np.zeros_like(mlp.flat), state)
    assert np.array_equal(before, mlp.flat)


def test_flat_adam_step_matches_per_array_steps_bitwise():
    # reference: the same update applied to each weight and bias as its own array
    rng = np.random.default_rng(12)
    mlp = mlp_init([3, 5, 2], rng)
    ref = [a.copy() for a in mlp.weights + mlp.biases]
    ref_m = [np.zeros_like(a) for a in ref]
    ref_v = [np.zeros_like(a) for a in ref]
    state = adam_init(mlp.flat, lr=1e-2)
    for t in range(1, 4):
        grad = Mlp(mlp.dims, rng.normal(size=mlp.flat.size))
        adam_step(mlp.flat, grad.flat, state)
        for p, g, m, v in zip(ref, grad.weights + grad.biases, ref_m, ref_v):
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            p -= 1e-2 * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
    for p, a in zip(ref, mlp.weights + mlp.biases):
        assert p.tobytes() == a.tobytes()


def test_adam_first_step_matches_hand_formula():
    p = np.array(1.0)
    state = adam_init(p, lr=1e-3)
    adam_step(p, np.array(4.0), state)
    # hand evaluation: m=0.4/0.1=4, v=0.016/0.001=16, step = -1e-3*4/(4+1e-8)
    expected = 1.0 - 1e-3 * 4.0 / (4.0 + 1e-8)
    assert float(p) == pytest.approx(expected, abs=1e-15)


def test_adam_two_step_trace():
    # oracle: straight-line evaluation of the update formula, two steps
    def oracle(g, lr, b1, b2, eps, steps):
        p, m, v = 1.0, 0.0, 0.0
        for t in range(1, steps + 1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            p -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        return p
    p = np.array(1.0)
    state = adam_init(p, lr=1e-3)
    adam_step(p, np.array(4.0), state)
    adam_step(p, np.array(4.0), state)
    assert float(p) == pytest.approx(oracle(4.0, 1e-3, 0.9, 0.999, 1e-8, 2), abs=1e-12)


def test_adam_rejects_non_finite():
    p = np.array(1.0)
    state = adam_init(p)
    with pytest.raises(NonFiniteGradient):
        adam_step(p, np.array(np.nan), state)
    assert float(p) == 1.0
    assert state.step == 0


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_adam_second_moments_nonnegative(seed):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=4)
    state = adam_init(p)
    for _ in range(5):
        adam_step(p, rng.normal(size=4), state)
    assert np.all(state.v >= 0)


def test_gaussian_head_clamps_log_std():
    raw = np.array([[0.0, 0.0, -50.0, 9.0]])
    out = gaussian_head(raw)
    assert np.all(out.log_std >= -20.0)
    assert np.all(out.log_std <= 2.0)
    assert np.array_equal(out.clamp_mask, np.array([[0.0, 0.0]]))


def test_policy_sample_deterministic_at_tiny_std():
    out = gaussian_head(np.array([0.0, -20.0]))
    action, _, _ = sample_squashed(out, np.zeros(1))
    assert abs(action[0]) < 1e-12


def test_policy_sample_density_integrates_to_one():
    # quadrature oracle: midpoint rule on a 10^4-point grid over (-1, 1)
    out = gaussian_head(np.array([0.3, -0.5]))
    n = 10_000
    grid = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    dens = np.array([np.exp(policy_log_prob(out, np.array([a]))) for a in grid])
    integral = float(np.sum(dens) * (2.0 / n))
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_policy_sample_fixed_seed_reproduces():
    out = gaussian_head(np.array([[0.1, -0.2, 0.0, -1.0]]))
    a1, l1, _ = sample_squashed(out, np.random.default_rng(9).standard_normal((1, 2)))
    a2, l2, _ = sample_squashed(out, np.random.default_rng(9).standard_normal((1, 2)))
    assert np.array_equal(a1, a2)
    assert np.array_equal(l1, l2)


@given(st.floats(min_value=-20.0, max_value=2.0),
       st.floats(min_value=-1e6, max_value=1e6),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_log_prob_finite_and_action_interior(log_std, mean, seed):
    out = GaussianPolicyOutput(np.array([mean]), np.array([log_std]))
    noise = np.random.default_rng(seed).standard_normal(1)
    action, log_prob, _ = sample_squashed(out, noise)
    assert np.isfinite(log_prob).all()
    assert np.all(action > -1.0) and np.all(action < 1.0)


def test_soft_update_convex_combination():
    rng = np.random.default_rng(8)
    live = mlp_init([2, 3], rng)
    target = mlp_init([2, 3], rng)
    tau = 0.25
    expected = tau * live.flat + (1 - tau) * target.flat
    soft_update(target, live, tau)
    assert np.allclose(expected, target.flat, atol=1e-15)
