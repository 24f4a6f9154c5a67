"""Dense network engine: fixed-topology MLPs with exact reverse-mode
gradients, Adam, and a tanh-squashed Gaussian policy head.

Everything is float64 and deliberately minimal: hidden layers use tanh,
the output layer is linear, and the backward pass is written by hand so
it can be checked against central finite differences. There is no
autodiff graph; the only differentiable composite beyond a plain MLP is
the squashed-Gaussian sampler, whose backward is also explicit.

Each network keeps its parameters in one float64 buffer, `flat`, and
its arrays are views into it (see carve). Gradients and Adam moments are
vectors in the same layout, so Adam, Polyak averaging and the finiteness
check are one elementwise operation per network.
"""

from __future__ import annotations

import math
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


def shapes_of(layout: list) -> list[tuple]:
    """The array shapes of a layout (see carve) in buffer order; an MLP's
    are weight 0, bias 0, weight 1, ..."""
    return [shape for part in layout for shape in (
        [s for fan_in, fan_out in zip(part[:-1], part[1:])
         for s in ((fan_out, fan_in), (fan_out,))] if isinstance(part, list) else [part])]


def carve(layout: list, flat: np.ndarray | None = None) -> tuple[np.ndarray, list]:
    """(flat, views of its consecutive blocks). A layout entry is a shape
    tuple (an array) or a list of layer widths (an Mlp). flat None
    allocates zeros."""
    sizes = [sum(math.prod(s) for s in shapes_of([part])) for part in layout]
    if flat is None:
        flat = np.zeros(sum(sizes))
    if flat.size != sum(sizes):
        raise InternalError(f"buffer of {flat.size} entries does not fit layout {layout}")
    line = flat.reshape(-1)  # a view; 1-d even for the 0-d temperature
    blocks, at = [], 0
    for part, n in zip(layout, sizes):
        block = line[at:at + n]
        blocks.append(Mlp(part, block) if isinstance(part, list) else block.reshape(part))
        at += n
    return flat, blocks


class Mlp:
    """A tanh MLP; weight k maps layer k-1 to layer k. weights and biases
    are views into flat, which may be a block of a policy's buffer."""

    def __init__(self, dims: list[int], flat: np.ndarray | None = None):
        self.dims = list(dims)
        self.flat, arrays = carve(shapes_of([self.dims]), flat)
        self.weights, self.biases = arrays[0::2], arrays[1::2]


def init_uniform(weights: list[np.ndarray], rng) -> None:
    """Fill each weight in place with U(+-1/sqrt(fan_in)), fan_in being
    its last axis; biases stay zero."""
    for w in weights:
        bound = 1.0 / np.sqrt(w.shape[-1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)


def mlp_init(dims: list[int], rng) -> Mlp:
    """Uniform +-1/sqrt(fan_in) weights, zero biases."""
    mlp = Mlp(dims)
    init_uniform(mlp.weights, rng)
    return mlp


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
    last = len(mlp.weights) - 1
    for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        inputs.append(h)
        z = h @ w.T + b
        h = z if k == last else np.tanh(z)
        post.append(h)
    out = h[0] if was_1d else h
    return out, MlpCache(mlp.dims, inputs, post, was_1d)


def mlp_backward(
    mlp: Mlp, cache: MlpCache, output_grad: np.ndarray, grad: Mlp | None = None
) -> tuple[Mlp, np.ndarray]:
    """Exact gradients of the forward map.

    `output_grad` is dL/d(output); returns the parameter gradient (summed
    over the batch) as an Mlp, whose flat is one gradient vector, and
    dL/d(input). The gradient is written into `grad` when given (e.g. a
    block of a policy's gradient vector), else into a new Mlp.
    """
    if cache.dims != mlp.dims:
        raise InternalError("backward cache does not match this network")
    g = np.asarray(output_grad, dtype=np.float64)
    if cache.was_1d:
        g = g[None, :]
    if g.shape != cache.post[-1].shape:
        raise InternalError("output_grad shape does not match cached forward output")
    grad = Mlp(mlp.dims) if grad is None else grad
    last = len(mlp.weights) - 1
    dh = g
    for k in range(last, -1, -1):
        dz = dh if k == last else dh * (1.0 - cache.post[k] ** 2)
        np.matmul(dz.T, cache.inputs[k], out=grad.weights[k])
        np.sum(dz, axis=0, out=grad.biases[k])
        dh = dz @ mlp.weights[k]
    dx = dh[0] if cache.was_1d else dh
    return grad, dx


@dataclass
class AdamState:
    """First/second moment accumulators, each shaped like the parameter
    buffer they serve."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(params: np.ndarray, lr: float = 3e-4, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    return AdamState(m=np.zeros_like(params), v=np.zeros_like(params),
                     step=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One Adam update with bias correction of a parameter buffer, in place.

    Raises NonFiniteGradient (before touching any state) if a gradient
    entry is NaN or Inf.
    """
    if not params.shape == grad.shape == state.m.shape:
        raise ConfigurationError(f"shapes differ: {params.shape}, {grad.shape}, {state.m.shape}")
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradient("non-finite gradient entry")
    state.step += 1
    b1c = 1.0 - state.beta1 ** state.step
    b2c = 1.0 - state.beta2 ** state.step
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * grad
    v *= state.beta2
    v += (1.0 - state.beta2) * grad * grad
    params -= state.lr * (m / b1c) / (np.sqrt(v / b2c) + state.eps)


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
    target.flat *= 1.0 - tau
    target.flat += tau * live.flat


def finite_difference_check(mlp: Mlp, x: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error of analytic vs central-difference gradients.

    The scalar probe loss is ||output||^2 / 2, so output_grad = output.
    Used by the grad-check CLI command and the test suite.
    """
    out, cache = mlp_forward(mlp, x)
    grad = mlp_backward(mlp, cache, out)[0].flat
    flat = mlp.flat
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = 0.5 * np.sum(mlp_forward(mlp, x)[0] ** 2)
        flat[i] = orig - h
        lm = 0.5 * np.sum(mlp_forward(mlp, x)[0] ** 2)
        flat[i] = orig
        fd = (lp - lm) / (2.0 * h)
        denom = max(abs(fd), abs(grad[i]), 1e-8)
        worst = max(worst, abs(fd - grad[i]) / denom)
    return worst
