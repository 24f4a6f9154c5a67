"""Task embeddings on the unit hypersphere.

A task embedding is a plain float64 vector of unit norm (dimension 3 by
default). This module owns projection onto the sphere and its gradient,
training-time noise injection, linear interpolation/extrapolation with
re-projection, and the lattice used to scan the whole sphere. The
embedding set itself comes from the task-encoder weights of the
shared-interface policy (policies.EarPolicy).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DegenerateEmbedding

DEGENERATE_NORM = 1e-9


def normalize(v: np.ndarray) -> np.ndarray:
    """Project v onto the unit sphere; rejects near-zero input."""
    v = np.asarray(v, dtype=np.float64)
    n = float(np.linalg.norm(v))
    if n <= DEGENERATE_NORM:
        raise DegenerateEmbedding(f"cannot normalize vector with norm {n:.3e}")
    return v / n


def normalize_rows(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    n = np.linalg.norm(m, axis=-1, keepdims=True)
    if np.any(n <= DEGENERATE_NORM):
        raise DegenerateEmbedding("near-zero row in batch normalization")
    return m / n


def normalize_backward(pre: np.ndarray, post: np.ndarray, d_post: np.ndarray) -> np.ndarray:
    """Gradient of row-wise normalization: d_pre = (I - z z^T) d_post / ||pre||."""
    n = np.linalg.norm(pre, axis=-1, keepdims=True)
    proj = np.sum(post * d_post, axis=-1, keepdims=True)
    return (d_post - post * proj) / n


def inject_noise(z: np.ndarray, sigma: float, rng) -> np.ndarray:
    """Perturb an embedding with isotropic Gaussian noise and re-project.

    sigma=0 returns z unchanged. A degenerate perturbed sum is retried
    with fresh noise, so this never raises.
    """
    if sigma < 0:
        raise ConfigurationError("noise sigma must be >= 0")
    z = np.asarray(z, dtype=np.float64)
    if sigma == 0.0:
        return z.copy()
    while True:
        noisy = z + sigma * rng.standard_normal(z.shape)
        if np.linalg.norm(noisy) > DEGENERATE_NORM:
            return normalize(noisy)


def interpolate(z_i: np.ndarray, z_j: np.ndarray, beta: float, normalized: bool = True) -> np.ndarray:
    """Blend two embeddings: project(beta*z_i + (1-beta)*z_j).

    beta in (0, 1) interpolates; beta outside [0, 1] extrapolates. A
    combination that lands at the origin (e.g. antipodal inputs with
    beta=0.5) raises DegenerateEmbedding rather than picking an
    arbitrary direction.
    """
    if not np.isfinite(beta):
        raise ConfigurationError("beta must be finite")
    combo = beta * np.asarray(z_i, dtype=np.float64) + (1.0 - beta) * np.asarray(z_j, dtype=np.float64)
    return normalize(combo) if normalized else combo


def sphere_grid(resolution: int, dim: int = 3) -> np.ndarray:
    """Near-uniform lattice on the unit 2-sphere.

    Two poles plus (resolution - 1) latitude rings of 2*(resolution + 1)
    points each, for resolution * 2*resolution points total; each pole
    appears exactly once. Rows are ordered north pole, rings from north
    to south (longitude ascending), south pole.
    """
    if dim != 3:
        raise ConfigurationError("sphere_grid is defined for 3-d embeddings only")
    if resolution < 2:
        raise ConfigurationError("resolution must be >= 2")
    r = int(resolution)
    cols = 2 * (r + 1)
    points = [np.array([0.0, 0.0, 1.0])]
    for i in range(1, r):
        theta = np.pi * i / r
        st, ct = np.sin(theta), np.cos(theta)
        for j in range(cols):
            phi = 2.0 * np.pi * j / cols
            points.append(np.array([st * np.cos(phi), st * np.sin(phi), ct]))
    points.append(np.array([0.0, 0.0, -1.0]))
    grid = np.stack(points)
    return normalize_rows(grid)


def sphere_grid_angles(resolution: int) -> np.ndarray:
    """(theta, phi) in radians for each sphere_grid row; poles have phi=0."""
    r = int(resolution)
    cols = 2 * (r + 1)
    rows = [(0.0, 0.0)]
    for i in range(1, r):
        for j in range(cols):
            rows.append((np.pi * i / r, 2.0 * np.pi * j / cols))
    rows.append((np.pi, 0.0))
    return np.array(rows)


def sphere_adjacency(resolution: int) -> list[tuple[int, int]]:
    """Lattice edges of sphere_grid: ring neighbours, same-column ring-to-ring
    links, and pole-to-first-ring links."""
    r = int(resolution)
    cols = 2 * (r + 1)
    edges = []
    def ring_start(i):  # ring index 1..r-1
        return 1 + (i - 1) * cols
    north, south = 0, 1 + (r - 1) * cols
    for j in range(cols):
        edges.append((north, ring_start(1) + j))
        edges.append((ring_start(r - 1) + j, south))
    for i in range(1, r):
        base = ring_start(i)
        for j in range(cols):
            edges.append((base + j, base + (j + 1) % cols))
        if i + 1 < r:
            nxt = ring_start(i + 1)
            for j in range(cols):
                edges.append((base + j, nxt + j))
    return edges
