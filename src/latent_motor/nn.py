"""Dense network engine: fixed-topology MLPs with exact reverse-mode
gradients, Adam, and a tanh-squashed Gaussian policy head.

Everything is float64 and deliberately minimal: hidden layers use tanh,
the output layer is linear, and the backward pass is written by hand so
it can be checked against central finite differences. There is no
autodiff graph; the only differentiable composite beyond a plain MLP is
the squashed-Gaussian sampler, whose backward is also explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InternalError, NonFiniteGradient

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0

# Largest double strictly below 1; keeps sampled actions inside (-1, 1)
# even when tanh rounds to +-1.
_ACTION_MAX = float(np.nextafter(1.0, 0.0))

_LOG_2PI = float(np.log(2.0 * np.pi))
_LOG_2 = float(np.log(2.0))


@dataclass
class Mlp:
    """Weights and biases of a tanh MLP; weight k maps layer k-1 to k."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def dims(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def param_arrays(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self) -> "Mlp":
        return Mlp([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def validate(self) -> None:
        for k in range(self.n_layers):
            if self.biases[k].shape != (self.weights[k].shape[0],):
                raise ConfigurationError(f"layer {k}: bias shape does not match weight rows")
            if k > 0 and self.weights[k].shape[1] != self.weights[k - 1].shape[0]:
                raise ConfigurationError(f"layer {k}: input dim does not chain with layer {k - 1}")
        for arr in self.param_arrays():
            if not np.all(np.isfinite(arr)):
                raise ConfigurationError("non-finite parameter entry")


def mlp_init(dims: list[int], rng) -> Mlp:
    """Uniform +-1/sqrt(fan_in) weights, zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Mlp(weights, biases)


@dataclass
class MlpCache:
    """Per-layer activations from a forward pass, consumed by backward."""

    dims: list[int]
    inputs: list[np.ndarray]   # input to each layer, 2-d (batch, features)
    post: list[np.ndarray]     # post-activation output of each layer
    was_1d: bool


def mlp_forward(mlp: Mlp, x: np.ndarray) -> tuple[np.ndarray, MlpCache]:
    """Evaluate the network; returns output and the cache for backward."""
    x = np.asarray(x, dtype=np.float64)
    was_1d = x.ndim == 1
    h = x[None, :] if was_1d else x
    if h.shape[-1] != mlp.weights[0].shape[1]:
        raise ConfigurationError(
            f"input has {h.shape[-1]} features, first layer expects {mlp.weights[0].shape[1]}"
        )
    inputs, post = [], []
    last = mlp.n_layers - 1
    for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        inputs.append(h)
        z = h @ w.T + b
        h = z if k == last else np.tanh(z)
        post.append(h)
    out = h[0] if was_1d else h
    return out, MlpCache(mlp.dims(), inputs, post, was_1d)


def mlp_backward(
    mlp: Mlp, cache: MlpCache, output_grad: np.ndarray
) -> tuple[Mlp, np.ndarray]:
    """Exact gradients of the forward map.

    `output_grad` is dL/d(output); returns an Mlp-shaped gradient holder
    (summed over the batch) and dL/d(input).
    """
    if cache.dims != mlp.dims():
        raise InternalError("backward cache does not match this network")
    g = np.asarray(output_grad, dtype=np.float64)
    if cache.was_1d:
        g = g[None, :]
    if g.shape != cache.post[-1].shape:
        raise InternalError("output_grad shape does not match cached forward output")
    grad_w = [None] * mlp.n_layers
    grad_b = [None] * mlp.n_layers
    last = mlp.n_layers - 1
    dh = g
    for k in range(last, -1, -1):
        dz = dh if k == last else dh * (1.0 - cache.post[k] ** 2)
        grad_w[k] = dz.T @ cache.inputs[k]
        grad_b[k] = dz.sum(axis=0)
        dh = dz @ mlp.weights[k]
    dx = dh[0] if cache.was_1d else dh
    return Mlp(grad_w, grad_b), dx


@dataclass
class AdamState:
    """First/second moment accumulators for a list of parameter arrays."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(params: list[np.ndarray], lr: float = 3e-4, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    return AdamState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        step=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps,
    )


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> None:
    """One Adam update with bias correction, in place.

    Raises NonFiniteGradient (before touching any state) if a gradient
    entry is NaN or Inf.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ConfigurationError("parameter / gradient / state length mismatch")
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ConfigurationError(f"param {i}: grad shape {g.shape} != param shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"non-finite gradient entry in parameter {i}")
    state.step += 1
    b1c = 1.0 - state.beta1 ** state.step
    b2c = 1.0 - state.beta2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.lr * (m / b1c) / (np.sqrt(v / b2c) + state.eps)


@dataclass
class GaussianPolicyOutput:
    """Mean and clamped log-std of a diagonal Gaussian over pre-tanh actions."""

    mean: np.ndarray
    log_std: np.ndarray
    clamp_mask: np.ndarray = field(default=None)  # 1 where raw log_std was inside the clamp

    def __post_init__(self):
        if self.clamp_mask is None:
            self.clamp_mask = np.ones_like(self.log_std)


def gaussian_head(raw: np.ndarray) -> GaussianPolicyOutput:
    """Split a 2A-wide network output into mean and clamped log-std."""
    raw = np.asarray(raw, dtype=np.float64)
    a = raw.shape[-1] // 2
    if raw.shape[-1] != 2 * a:
        raise ConfigurationError("policy head output width must be even")
    mean = raw[..., :a]
    raw_log_std = raw[..., a:]
    log_std = np.clip(raw_log_std, LOG_STD_MIN, LOG_STD_MAX)
    mask = ((raw_log_std > LOG_STD_MIN) & (raw_log_std < LOG_STD_MAX)).astype(np.float64)
    return GaussianPolicyOutput(mean, log_std, mask)


@dataclass
class SampleCache:
    """Intermediates of sample_squashed needed for its backward pass."""

    action: np.ndarray
    pre_tanh: np.ndarray
    noise: np.ndarray
    std: np.ndarray
    clamp_mask: np.ndarray


def sample_squashed(
    out: GaussianPolicyOutput, noise: np.ndarray
) -> tuple[np.ndarray, np.ndarray, SampleCache]:
    """Squashed-Gaussian action and its log density for explicit noise.

    action = tanh(mean + std * noise); zero noise gives the deterministic
    (mean) action. log_prob uses the softplus form of the change-of-variables
    correction, so it stays finite for any clamped log_std and bounded mean.
    Returns (action, log_prob, cache); log_prob sums over action dims.
    """
    std = np.exp(out.log_std)
    u = out.mean + std * noise
    action = np.clip(np.tanh(u), -_ACTION_MAX, _ACTION_MAX)
    log_prob = _squashed_log_prob(out.log_std, noise, u)
    return action, log_prob, SampleCache(action, u, noise, std, out.clamp_mask)


def _squashed_log_prob(log_std: np.ndarray, noise: np.ndarray, u: np.ndarray) -> np.ndarray:
    gauss = -0.5 * _LOG_2PI - log_std - 0.5 * noise ** 2
    # log(1 - tanh(u)^2) = 2*(log 2 - u - softplus(-2u))
    correction = 2.0 * (_LOG_2 - u - np.logaddexp(0.0, -2.0 * u))
    return np.sum(gauss - correction, axis=-1)


def policy_log_prob(out: GaussianPolicyOutput, action: np.ndarray) -> np.ndarray:
    """Log density of a given action under the squashed Gaussian."""
    action = np.asarray(action, dtype=np.float64)
    u = np.arctanh(np.clip(action, -_ACTION_MAX, _ACTION_MAX))
    std = np.exp(out.log_std)
    noise = (u - out.mean) / std
    return _squashed_log_prob(out.log_std, noise, u)


def policy_sample_backward(
    cache: SampleCache, d_action: np.ndarray, d_log_prob: np.ndarray
) -> np.ndarray:
    """Chain gradients from (action, log_prob) back to the raw head output.

    d_log_prob has one entry per sample; d_action matches action's shape.
    Returns the gradient w.r.t. the concatenated [mean, raw_log_std] head
    output, with the clamp mask applied to the log-std half.
    """
    a = cache.action
    dlp = np.asarray(d_log_prob, dtype=np.float64)[..., None]
    sig_eps = cache.std * cache.noise
    ta = np.tanh(cache.pre_tanh)
    da_du = 1.0 - ta ** 2
    d_mean = dlp * (2.0 * ta) + d_action * da_du
    d_log_std = dlp * (-1.0 + 2.0 * ta * sig_eps) + d_action * da_du * sig_eps
    d_log_std = d_log_std * cache.clamp_mask
    return np.concatenate([d_mean, d_log_std], axis=-1)


def soft_update(target: Mlp, live: Mlp, tau: float) -> None:
    """Polyak update: target <- tau*live + (1-tau)*target, in place."""
    for tw, lw in zip(target.param_arrays(), live.param_arrays()):
        tw *= 1.0 - tau
        tw += tau * lw


def finite_difference_check(mlp: Mlp, x: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error of analytic vs central-difference gradients.

    The scalar probe loss is ||output||^2 / 2, so output_grad = output.
    Used by the grad-check CLI command and the test suite.
    """
    out, cache = mlp_forward(mlp, x)
    grads, _ = mlp_backward(mlp, cache, out)
    worst = 0.0
    for arr, garr in zip(mlp.param_arrays(), grads.param_arrays()):
        flat = arr.ravel()
        gflat = garr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = 0.5 * np.sum(mlp_forward(mlp, x)[0] ** 2)
            flat[i] = orig - h
            lm = 0.5 * np.sum(mlp_forward(mlp, x)[0] ** 2)
            flat[i] = orig
            fd = (lp - lm) / (2.0 * h)
            denom = max(abs(fd), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst
