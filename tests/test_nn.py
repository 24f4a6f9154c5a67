"""Unit tests for the dense network engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_motor import nn
from latent_motor.checkpoint import load_checkpoint, save_checkpoint
from latent_motor.envs import make_task_set
from latent_motor.errors import ConfigurationError, InternalError, NonFiniteGradient
from latent_motor.nn import (
    GaussianPolicyOutput,
    Mlp,
    adam_init,
    adam_step,
    finite_difference_check,
    gaussian_head,
    init_uniform,
    mlp_backward,
    mlp_forward,
    mlp_init,
    policy_log_prob,
    sample_squashed,
    soft_update,
)
from latent_motor.sac import SacModel, TrainConfig


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
    # independent re-evaluation, written long-hand in float64; the float32
    # pass rounds x and a few O(1) sums and products (unit round-off 2**-24)
    h = np.tanh(mlp.weights[0] @ x + mlp.biases[0])
    expected = mlp.weights[1] @ h + mlp.biases[1]
    assert out.dtype == np.float32
    assert np.max(np.abs(out - expected)) < 1e-6


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
    grads, dx = mlp_backward(mlp, cache, np.zeros_like(out), Mlp(mlp.dims))
    assert np.all(grads.flat == 0)
    assert np.all(dx == 0)


def test_backward_linear_analytic():
    # y = w*x + b, dL/dy = 1  ->  dw = x, db = 1
    mlp = Mlp([1, 1], np.array([1.7, 0.3]))
    x = np.array([2.5])
    out, cache = mlp_forward(mlp, x)
    grads, dx = mlp_backward(mlp, cache, np.array([1.0]), Mlp(mlp.dims))
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


def reference_forward(mlp, x):
    """The allocating forward expressions the workspace pass replaced, in
    the network's dtype."""
    h = np.atleast_2d(x).astype(mlp.flat.dtype)
    inputs, post = [], []
    for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        inputs.append(h)
        z = h @ w.T + b
        h = z if k == len(mlp.weights) - 1 else np.tanh(z)
        post.append(h)
    return h, inputs, post


def reference_backward(mlp, inputs, post, g):
    grad = Mlp(mlp.dims)
    last = len(mlp.weights) - 1
    dh = np.atleast_2d(g).astype(mlp.flat.dtype)
    for k in range(last, -1, -1):
        dz = dh if k == last else dh * (1.0 - post[k] ** 2)
        np.matmul(dz.T, inputs[k], out=grad.weights[k])
        np.sum(dz, axis=0, out=grad.biases[k])
        dh = dz @ mlp.weights[k]
    return grad, dh


@pytest.mark.parametrize("rows", [None, 3, 256, 300])
@pytest.mark.parametrize("dims", [[7, 64, 64, 64, 1], [19, 64, 64, 64, 2], [5, 64, 16],
                                  [4, 9, 3, 6], [3, 2]])
def test_workspace_pass_bit_identical_to_allocating_reference(dims, rows):
    # rows None is one 1-d input; the widths include a critic's, the ear
    # decoder's and encoder's, uneven ones and a single layer
    rng = np.random.default_rng(len(dims) * 1000 + (rows or 1))
    mlp = mlp_init(dims, rng)
    mlp.flat += rng.normal(scale=0.1, size=mlp.flat.size)
    shape = (dims[0],) if rows is None else (rows, dims[0])
    for _ in range(2):  # the second pass reuses the first one's workspace
        x = rng.normal(size=shape)
        g = rng.normal(size=shape[:-1] + (dims[-1],))
        out, cache = mlp_forward(mlp, x)
        ref_out, inputs, post = reference_forward(mlp, x)
        assert out.tobytes() == (ref_out[0] if rows is None else ref_out).tobytes()
        grad, dx = mlp_backward(mlp, cache, g, Mlp(dims))
        ref_grad, ref_dx = reference_backward(mlp, inputs, post, g)
        assert grad.flat.tobytes() == ref_grad.flat.tobytes()
        assert dx.tobytes() == (ref_dx[0] if rows is None else ref_dx).tobytes()
        assert dx.shape == x.shape


@pytest.mark.parametrize("rows", [None, 3, 256])
@pytest.mark.parametrize("dims", [[7, 64, 64, 64, 1], [4, 9, 3, 6], [3, 2]])
def test_stacked_pass_bit_identical_to_one_pass_per_network(dims, rows):
    # slice k of a stacked pass over a shared input equals the pass of an
    # unstacked network holding slice k's parameters, bit for bit
    rng = np.random.default_rng(len(dims) * 100 + (rows or 1))
    stack = Mlp(dims, lead=(2,))
    stack.flat[...] = rng.normal(scale=0.3, size=stack.flat.size)
    nets = [Mlp(dims) for _ in range(2)]
    for k, net in enumerate(nets):
        for a, b in zip(net.weights + net.biases, stack.weights + stack.biases):
            a[...] = b[k]
    shape = (dims[0],) if rows is None else (rows, dims[0])
    x = rng.normal(size=shape)
    g = rng.normal(size=(2,) + shape[:-1] + (dims[-1],))
    out, cache = mlp_forward(stack, x)
    grad, dx = mlp_backward(stack, cache, g, Mlp(dims, lead=(2,)))
    _, dx_only = mlp_backward(stack, cache, g)
    assert out.shape == g.shape and dx.shape == (2,) + shape
    for k, net in enumerate(nets):
        out_k, cache_k = mlp_forward(net, x)
        grad_k, dx_k = mlp_backward(net, cache_k, g[k], Mlp(dims))
        assert out[k].tobytes() == out_k.tobytes()
        for a, b in zip(grad.weights + grad.biases, grad_k.weights + grad_k.biases):
            assert a[k].tobytes() == b.tobytes()
        assert dx[k].tobytes() == dx_only[k].tobytes() == dx_k.tobytes()


def matmul_pass(mlp, x, g):
    """Output, parameter gradient and input gradient with np.matmul for
    every product, stack included: the expressions the width-1 products
    replaced."""
    h = np.asarray(x, mlp.flat.dtype)
    h = h[None] if h.ndim == 1 else h
    dz = np.asarray(g, mlp.flat.dtype)
    dz = dz[..., None, :] if np.ndim(x) == 1 else dz
    inputs, post, last = [], [], len(mlp.weights) - 1
    for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        inputs.append(h)
        z = np.matmul(h, np.swapaxes(w, -1, -2)) + b[..., None, :]
        h = z if k == last else np.tanh(z)
        post.append(h)
    grad = Mlp(mlp.dims, lead=mlp.lead)
    for k in range(last, -1, -1):
        grad.weights[k][...] = np.matmul(np.swapaxes(dz, -1, -2), inputs[k])
        grad.biases[k][...] = np.sum(dz, axis=-2)
        dh = np.matmul(dz, mlp.weights[k])
        if k:
            dz = dh * (1.0 - post[k - 1] ** 2)
    one = np.ndim(x) == 1
    return (h[..., 0, :] if one else h), grad, (dh[..., 0, :] if one else dh)


@pytest.mark.parametrize("rows", [None, 2, 45, 256])
@pytest.mark.parametrize("lead", [(), (2,)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dims", [[1, 64, 16], [7, 64, 64, 64, 1], [1, 6, 1, 5, 2], [1, 1],
                                  [3, 1]])
def test_width_1_products_bit_identical_to_matmul(monkeypatch, dims, dtype, lead, rows):
    # the vel1d encoder (fan-in 1), a critic (width-1 output), a width-1
    # hidden layer and one-layer nets; a one-term product may differ from
    # np.matmul's only in the sign of an exact zero, which + 0.0 erases
    monkeypatch.setattr(nn, "DTYPE", dtype)
    rng = np.random.default_rng(len(dims) + 10 * len(lead) + (rows or 1))
    mlp = Mlp(dims, lead=lead)
    mlp.flat[...] = rng.normal(scale=0.5, size=mlp.flat.size)
    shape = (dims[0],) if rows is None else (rows, dims[0])
    x = rng.normal(size=shape)
    x.reshape(-1)[:4] = [0.0, -0.0, 0.0, -0.0][:x.size]
    g = rng.normal(size=lead + shape[:-1] + (dims[-1],))
    g.reshape(-1)[::3] = 0.0
    g.reshape(-1)[1::3] = -0.0  # as the actor step's critic output gradient holds
    out, cache = mlp_forward(mlp, x)
    grad, dx = mlp_backward(mlp, cache, g, Mlp(dims, lead=lead))
    ref_out, ref_grad, ref_dx = matmul_pass(mlp, x, g)
    for a, b in ((out, ref_out), (grad.flat, ref_grad.flat), (dx, ref_dx)):
        assert a.dtype == b.dtype == dtype and a.shape == b.shape
        assert (a + 0.0).tobytes() == (b + 0.0).tobytes()
    assert mlp_backward(mlp, cache, g)[1].tobytes() == dx.tobytes()


def test_transposed_weight_views_follow_the_parameters(tmp_path):
    # weights_t is built once: it must stay a view of flat through every
    # in-place update (Adam, Polyak, a checkpoint load)
    rng = np.random.default_rng(9)

    def views_hold(mlp):
        return all(np.shares_memory(w_t, mlp.flat) and np.shares_memory(w_t, w)
                   and np.array_equal(w_t, np.swapaxes(w, -1, -2))
                   for w, w_t in zip(mlp.weights, mlp.weights_t))

    live, target = Mlp([1, 4, 1], lead=(2,)), Mlp([1, 4, 1], lead=(2,))
    live.flat[...] = rng.normal(size=live.flat.size)
    assert views_hold(live) and len(live.weights_t) == 2
    state = adam_init(live.flat, lr=0.1)
    adam_step(live.flat, rng.normal(size=live.flat.size).astype(live.flat.dtype), state)
    soft_update(target, live, 0.5)
    assert views_hold(live) and views_hold(target)
    assert np.array_equal(target.weights_t[0], 0.5 * np.swapaxes(live.weights[0], -1, -2))

    model = SacModel("ear", make_task_set("vel1d", count=2), TrainConfig(), seed=1)
    for buf in (model.policy.flat, model.q.flat, model.q_target.flat):
        buf += rng.normal(size=buf.size).astype(buf.dtype)
    path = str(tmp_path / "m.ckpt.json")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    pairs = [(model.q, loaded.q), (model.q_target, loaded.q_target),
             (model.policy.encoder, loaded.policy.encoder),
             (model.policy.decoder, loaded.policy.decoder)]
    for saved, mlp in pairs:
        assert views_hold(mlp)
        assert all(np.array_equal(a, b) for a, b in zip(saved.weights_t, mlp.weights_t))


def test_input_gradient_only_matches_full_backward():
    rng = np.random.default_rng(8)
    mlp = mlp_init([10, 64, 64, 64, 1], rng)
    out, cache = mlp_forward(mlp, rng.normal(size=(256, 10)))
    g = rng.normal(size=out.shape)
    none, dx = mlp_backward(mlp, cache, g)
    _, full_dx = mlp_backward(mlp, cache, g, Mlp(mlp.dims))  # backward leaves the cache valid
    assert none is None
    assert dx.tobytes() == full_dx.tobytes()


def test_backward_on_a_stale_cache_raises():
    rng = np.random.default_rng(4)
    mlp = mlp_init([3, 8, 8, 2], rng)
    x = rng.normal(size=(5, 3))
    out, old = mlp_forward(mlp, x)
    mlp_forward(mlp, x)  # same rows: the old cache's activations are overwritten
    with pytest.raises(InternalError, match="stale"):
        mlp_backward(mlp, old, out, Mlp(mlp.dims))
    _, other_rows = mlp_forward(mlp, x[:2])
    mlp_forward(mlp, x)
    with pytest.raises(InternalError, match="stale"):
        mlp_backward(mlp, other_rows, out[:2])


def test_forward_passes_at_one_row_count_reuse_hidden_buffers():
    rng = np.random.default_rng(6)
    mlp = mlp_init([3, 8, 5, 2], rng)
    x = rng.normal(size=(4, 3))
    out1, c1 = mlp_forward(mlp, x)
    out2, c2 = mlp_forward(mlp, x)
    assert all(a is b for a, b in zip(c1.post[:-1], c2.post[:-1]))
    assert not np.shares_memory(out1, out2)  # outputs are fresh arrays
    mlp_backward(mlp, c2, out2, Mlp(mlp.dims))
    scratch = mlp._scratch
    mlp_backward(mlp, mlp_forward(mlp, x)[1], out2, Mlp(mlp.dims))
    assert mlp._scratch is scratch
    _, c3 = mlp_forward(mlp, x[:3])  # a new row count gets new buffers
    assert c3.post[0].shape == (3, 8) and not np.shares_memory(c3.post[0], c2.post[0])


def test_gradients_exact_across_random_configurations():
    # every other network is a stack of two, as the twin critics are
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(100):
        n_layers = int(rng.integers(1, 5))
        dims = [int(rng.integers(1, 7)) for _ in range(n_layers + 1)]
        mlp = Mlp(dims, lead=((), (2,))[i % 2])
        init_uniform(mlp.weights, rng)
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
