"""Dense network engine: fixed-topology MLPs with exact reverse-mode
gradients, Adam, and a tanh-squashed Gaussian policy head.

Everything is deliberately minimal: hidden layers use tanh, the output
layer is linear, and the backward pass is written by hand so it can be
checked against central finite differences. There is no autodiff graph;
the only differentiable composite beyond a plain MLP is the
squashed-Gaussian sampler, whose backward is also explicit.

Each network keeps its parameters in one buffer, `flat`, and its arrays
are views into it (see carve), the transposed weights_t included, so
parameters change only in place. Gradients and Adam moments are vectors in
the same layout, so Adam, Polyak averaging and the finiteness check are
one elementwise operation per network.

A network may carry a leading stack axis, lead (the twin critics'
is (2,)): each weight is then (2, out, in), each bias (2, out), and a
pass runs both networks with one np.matmul per layer, in the same code
as an unstacked network. An input without the axis is shared.

Buffers are float32 (DTYPE). A pass computes in its network's dtype, the
sampler in its head's, casting inputs once on entry, so a float64 network
runs the same code (finite_difference_check uses one).

Each network also owns a workspace that its passes reuse, so a training
step allocates no (rows, hidden width) temporary: the forward pass writes
its hidden activations into buffers sized for the latest row count, and
the backward pass its intermediate gradients into two scratch buffers.
The rule that follows: a forward cache is valid until the next forward
pass of the same network; backward only reads it, never consumes it; and
a backward pass on a stale cache raises InternalError. Network outputs
and input gradients are always fresh arrays. The package starts no
threads, and a network must not run passes from two threads at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InternalError, NonFiniteGradient

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0

# The dtype carve allocates parameter, gradient and Adam buffers in.
DTYPE = np.float32

# The largest value below 1 per dtype; keeps sampled actions inside (-1, 1)
# even when tanh rounds to +-1.
_BELOW_ONE = {np.dtype(t): np.nextafter(t(1), t(0)) for t in (np.float32, np.float64)}

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
        flat = np.zeros(sum(sizes), dtype=DTYPE)
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
    are views into flat, which may be a block of a policy's buffer. lead
    is the stack axis, () for a single network: weight k is then
    lead + (dims[k], dims[k-1]) and bias k lead + (dims[k],)."""

    def __init__(self, dims: list[int], flat: np.ndarray | None = None, lead: tuple = ()):
        self.dims = list(dims)
        self.lead = tuple(lead)
        self.flat, arrays = carve([self.lead + s for s in shapes_of([self.dims])], flat)
        self.weights, self.biases = arrays[0::2], arrays[1::2]
        self.weights_t = [w.swapaxes(-1, -2) for w in self.weights]  # views, like weights
        self.forwards = 0     # forward passes run; only the latest one's cache is valid
        self._rows = None     # the row count the workspace below is sized for
        self._hidden = []     # one lead + (rows, width) activation buffer per hidden layer
        self._scratch = None  # two backward buffers of lead * rows * (widest hidden layer)

    def _activations(self, rows: int) -> list[np.ndarray]:
        """The hidden-layer buffers for a forward pass of `rows` rows,
        reallocated (with no backward scratch) when the row count changes."""
        if rows != self._rows:
            self._rows = rows
            self._hidden = [np.empty(self.lead + (rows, width), self.flat.dtype)
                            for width in self.dims[1:-1]]
            self._scratch = None
        return self._hidden

    def _backward_buffers(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Two distinct lead + (rows, width) scratch arrays for a hidden
        layer of this width, carved from buffers allocated on the first
        backward pass."""
        shape = self.lead + (self._rows, width)
        if self._scratch is None:
            self._scratch = np.empty((2, math.prod(shape[:-1]) * max(self.dims[1:-1])),
                                     self.flat.dtype)
        n = math.prod(shape)
        return self._scratch[0, :n].reshape(shape), self._scratch[1, :n].reshape(shape)


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
    """Per-layer activations from a forward pass, read by backward. The
    hidden ones live in the network's workspace, so the cache is valid
    only until that network's next forward pass."""

    dims: list[int]
    inputs: list[np.ndarray]   # input to each layer, (..., batch, features)
    post: list[np.ndarray]     # post-activation output of each layer
    was_1d: bool
    forward: int               # the network's forward counter after this pass


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b. Over a contracted axis of length 1 this is the broadcast
    a * b, which np.matmul runs 4-5x slower; a one-term product rounds
    the same either way, though np.matmul may turn an exact -0.0 into +0.0."""
    return (np.multiply if a.shape[-1] == 1 else np.matmul)(a, b, out=out)


def mlp_forward(mlp: Mlp, x: np.ndarray) -> tuple[np.ndarray, MlpCache]:
    """Evaluate the network; returns a fresh output and the cache for backward."""
    x = np.asarray(x, dtype=mlp.flat.dtype)
    was_1d = x.ndim == 1
    h = x[None, :] if was_1d else x
    if h.shape[-1] != mlp.weights[0].shape[-1]:
        raise ConfigurationError(
            f"input has {h.shape[-1]} features, first layer expects {mlp.weights[0].shape[-1]}"
        )
    inputs, post = [], []
    # The hidden layers, each into its workspace buffer; then the linear output.
    for w_t, b, z in zip(mlp.weights_t, mlp.biases, mlp._activations(h.shape[-2])):
        inputs.append(h)
        _product(h, w_t, z)
        z += b[..., None, :]
        h = np.tanh(z, out=z)
        post.append(h)
    inputs.append(h)
    h = _product(h, mlp.weights_t[-1]) + mlp.biases[-1][..., None, :]
    post.append(h)
    mlp.forwards += 1
    out = h[..., 0, :] if was_1d else h
    return out, MlpCache(mlp.dims, inputs, post, was_1d, mlp.forwards)


def mlp_backward(
    mlp: Mlp, cache: MlpCache, output_grad: np.ndarray, grad: Mlp | None = None
) -> tuple[Mlp | None, np.ndarray]:
    """Exact gradients of the forward map.

    `output_grad` is dL/d(output); returns the parameter gradient (summed
    over the batch) and a fresh dL/d(input). The parameter gradient is
    written into `grad`, an Mlp of the same dims and stack (e.g. a block
    of a policy's gradient vector); with grad None only the input
    gradient is computed, and None is returned in its place. A stacked
    network returns one input gradient per network, even for a shared input.
    """
    if cache.dims != mlp.dims:
        raise InternalError("backward cache does not match this network")
    if cache.forward != mlp.forwards:
        raise InternalError("backward cache is stale: the network ran a forward pass since")
    g = np.asarray(output_grad, dtype=mlp.flat.dtype)
    if cache.was_1d:
        g = g[..., None, :]
    if g.shape != cache.post[-1].shape:
        raise InternalError("output_grad shape does not match cached forward output")
    dz = g
    for k in range(len(mlp.weights) - 1, -1, -1):
        if grad is not None:
            _product(dz.swapaxes(-1, -2), cache.inputs[k], grad.weights[k])
            np.sum(dz, axis=-2, out=grad.biases[k])
        if k == 0:
            break
        # dz <- (dz @ W_k) * (1 - post**2), back through layer k-1's tanh
        dh, factor = mlp._backward_buffers(mlp.dims[k])
        _product(dz, mlp.weights[k], dh)
        post = cache.post[k - 1]
        np.multiply(post, post, out=factor)
        np.subtract(1.0, factor, out=factor)
        dz = np.multiply(dh, factor, out=factor)
    dx = _product(dz, mlp.weights[0])
    return grad, dx[..., 0, :] if cache.was_1d else dx


# Adam's fixed constants (Kingma & Ba, 2015); only the learning rate is configurable.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, each shaped like the parameter
    buffer they serve."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 3e-4


def adam_init(params: np.ndarray, lr: float = 3e-4) -> AdamState:
    return AdamState(m=np.zeros_like(params), v=np.zeros_like(params), lr=lr)


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
    b1c = 1.0 - ADAM_BETA1 ** state.step
    b2c = 1.0 - ADAM_BETA2 ** state.step
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    params -= state.lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)


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
    raw = np.asarray(raw)
    a = raw.shape[-1] // 2
    if raw.shape[-1] != 2 * a:
        raise ConfigurationError("policy head output width must be even")
    mean = raw[..., :a]
    raw_log_std = raw[..., a:]
    log_std = np.clip(raw_log_std, LOG_STD_MIN, LOG_STD_MAX)
    mask = ((raw_log_std > LOG_STD_MIN) & (raw_log_std < LOG_STD_MAX)).astype(raw.dtype)
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
    noise = np.asarray(noise, dtype=out.mean.dtype)
    std = np.exp(out.log_std)
    u = out.mean + std * noise
    action = np.clip(np.tanh(u), -_BELOW_ONE[u.dtype], _BELOW_ONE[u.dtype])
    log_prob = _squashed_log_prob(out.log_std, noise, u)
    return action, log_prob, SampleCache(action, u, noise, std, out.clamp_mask)


def _squashed_log_prob(log_std: np.ndarray, noise: np.ndarray, u: np.ndarray) -> np.ndarray:
    gauss = -0.5 * _LOG_2PI - log_std - 0.5 * noise ** 2
    # log(1 - tanh(u)^2) = 2*(log 2 - u - softplus(-2u))
    correction = 2.0 * (_LOG_2 - u - np.logaddexp(0.0, -2.0 * u))
    return np.sum(gauss - correction, axis=-1)


def policy_log_prob(out: GaussianPolicyOutput, action: np.ndarray) -> np.ndarray:
    """Log density of a given action under the squashed Gaussian."""
    action = np.asarray(action, dtype=out.mean.dtype)
    u = np.arctanh(np.clip(action, -_BELOW_ONE[action.dtype], _BELOW_ONE[action.dtype]))
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
    dlp = np.asarray(d_log_prob, dtype=cache.action.dtype)[..., None]
    d_action = np.asarray(d_action, dtype=cache.action.dtype)
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

    The scalar probe loss is ||output||^2 / 2, so output_grad = output; it
    runs on a float64 copy of mlp, stack included. Used by the grad-check
    CLI and the tests.
    """
    mlp = Mlp(mlp.dims, mlp.flat.astype(np.float64), mlp.lead)
    out, cache = mlp_forward(mlp, x)
    grad = mlp_backward(mlp, cache, out, Mlp(mlp.dims, lead=mlp.lead))[0].flat
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
