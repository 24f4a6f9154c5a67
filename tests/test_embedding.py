"""Tests for sphere projection, the task encoder, noise, interpolation,
and the sphere lattice."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_motor.embedding import (
    inject_noise,
    interpolate,
    normalize,
    sphere_adjacency,
    sphere_grid,
)
from latent_motor.envs import make_task_set
from latent_motor.errors import ConfigurationError, DegenerateEmbedding
from latent_motor.sac import SacModel, TrainConfig

unit_vectors = st.builds(
    lambda seed: normalize(np.random.default_rng(seed).normal(size=3)),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)


def test_normalize_identity():
    assert np.array_equal(normalize(np.array([1.0, 0.0, 0.0])), [1.0, 0.0, 0.0])


def test_normalize_analytic():
    assert normalize(np.array([3.0, 4.0, 0.0])) == pytest.approx([0.6, 0.8, 0.0], abs=1e-15)


def test_normalize_degenerate():
    with pytest.raises(DegenerateEmbedding):
        normalize(np.array([1e-12, 0.0, 0.0]))


@given(unit_vectors, st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=50, deadline=None)
def test_normalize_scale_invariant(v, c):
    assert np.max(np.abs(normalize(c * v) - normalize(v))) < 1e-12


def model_with_encoder(weight, bias):
    """A tiny shared-interface model whose task encoder is set by hand."""
    model = SacModel("ear", make_task_set("vel1d", count=weight.shape[1]),
                     TrainConfig(hidden_width=4, lse_dim=2, lte_dim=weight.shape[0]))
    model.policy.task_weight[...] = weight
    model.policy.task_bias[...] = bias
    return model


def test_lte_for_task_identity_rows():
    model = model_with_encoder(np.eye(3), np.zeros(3))
    assert model.lte_for_task(0) == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)
    assert np.array_equal(model.lte_set(), np.eye(3))


def test_lte_for_task_scale_invariance():
    model = model_with_encoder(np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), np.zeros(3))
    assert model.lte_for_task(0) == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)


def test_lte_for_task_unit_norm_and_range():
    rng = np.random.default_rng(4)
    model = model_with_encoder(rng.normal(size=(3, 5)), rng.normal(size=3))
    for k in range(5):
        assert np.linalg.norm(model.lte_for_task(k)) == pytest.approx(1.0, abs=1e-9)
        assert np.array_equal(model.lte_for_task(k), model.lte_set()[k])
    for bad in (5, -1):
        with pytest.raises(ConfigurationError, match="out of range"):
            model.lte_for_task(bad)
    assert model.lte_set().shape == (5, 3)


def test_inject_noise_sigma_zero_exact():
    z = normalize(np.array([0.3, -0.2, 0.93]))
    out = inject_noise(z, 0.0, np.random.default_rng(0))
    assert np.array_equal(out, z)


@given(unit_vectors, st.floats(min_value=1e-4, max_value=2.0),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=50, deadline=None)
def test_inject_noise_unit_norm(z, sigma, seed):
    out = inject_noise(z, sigma, np.random.default_rng(seed))
    assert abs(np.linalg.norm(out) - 1.0) < 1e-9


def test_inject_noise_mean_angle_matches_monte_carlo():
    # oracle: an independent Monte-Carlo simulation of the same formula
    sigma, n = 0.05, 100_000
    z = np.array([0.0, 0.0, 1.0])
    rng = np.random.default_rng(123)
    sampled = np.array([
        np.arccos(np.clip(np.dot(inject_noise(z, sigma, rng), z), -1, 1))
        for _ in range(n)
    ])
    oracle_rng = np.random.default_rng(987)
    pert = z + sigma * oracle_rng.standard_normal((n, 3))
    pert /= np.linalg.norm(pert, axis=1, keepdims=True)
    oracle = np.arccos(np.clip(pert @ z, -1, 1))
    assert np.mean(sampled) == pytest.approx(np.mean(oracle), rel=0.05)


def test_interpolate_endpoints():
    rng = np.random.default_rng(6)
    z_i = normalize(rng.normal(size=3))
    z_j = normalize(rng.normal(size=3))
    assert interpolate(z_i, z_j, 1.0) == pytest.approx(z_i, abs=1e-12)
    assert interpolate(z_i, z_j, 0.0) == pytest.approx(z_j, abs=1e-12)


def test_interpolate_analytic_midpoint():
    z = interpolate(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), 0.5)
    assert z == pytest.approx([1 / np.sqrt(2), 1 / np.sqrt(2), 0.0], abs=1e-12)


def test_interpolate_analytic_quarter():
    z = interpolate(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), 0.25)
    assert z == pytest.approx([0.31623, 0.94868, 0.0], abs=1e-5)


def test_interpolate_antipodal_degenerate():
    z = normalize(np.array([0.2, -0.5, 0.6]))
    with pytest.raises(DegenerateEmbedding):
        interpolate(z, -z, 0.5)


@given(unit_vectors, st.floats(min_value=-2.0, max_value=3.0))
@settings(max_examples=50, deadline=None)
def test_interpolate_self_identity(z, beta):
    assert interpolate(z, z, beta) == pytest.approx(z, abs=1e-12)


@given(unit_vectors, unit_vectors, st.floats(min_value=-1.0, max_value=2.0))
@settings(max_examples=50, deadline=None)
def test_interpolate_symmetry(z_i, z_j, beta):
    combo = beta * z_i + (1 - beta) * z_j
    if np.linalg.norm(combo) < 1e-6:
        return
    a = interpolate(z_i, z_j, beta)
    b = interpolate(z_j, z_i, 1.0 - beta)
    assert a == pytest.approx(b, abs=1e-12)


def test_interpolate_angle_monotone_for_orthogonal_pair():
    z_i = np.array([1.0, 0.0, 0.0])
    z_j = np.array([0.0, 1.0, 0.0])
    betas = np.linspace(0.0, 1.0, 21)
    angles = [np.arccos(np.clip(np.dot(interpolate(z_i, z_j, b), z_j), -1, 1))
              for b in betas]
    assert all(a2 > a1 - 1e-12 for a1, a2 in zip(angles, angles[1:]))


def test_sphere_grid_count_and_norms():
    grid = sphere_grid(2)
    assert grid.shape == (8, 3)
    assert np.allclose(np.linalg.norm(grid, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("resolution", [2, 3, 7])
def test_sphere_grid_count_formula(resolution):
    assert sphere_grid(resolution).shape[0] == resolution * 2 * resolution


def test_sphere_grid_poles_once():
    grid = sphere_grid(5)
    north = np.sum(np.all(np.abs(grid - [0, 0, 1]) < 1e-12, axis=1))
    south = np.sum(np.all(np.abs(grid - [0, 0, -1]) < 1e-12, axis=1))
    assert north == 1 and south == 1


def test_sphere_grid_nearest_neighbor_spacing():
    # oracle: exhaustive pairwise angle computation
    grid = sphere_grid(50)
    dots = np.clip(grid @ grid.T, -1.0, 1.0)
    np.fill_diagonal(dots, -1.0)
    nearest = np.arccos(np.max(dots, axis=1))
    assert np.max(nearest) <= 2 * np.pi / 50 * 1.5


def test_sphere_grid_rejects_bad_args():
    with pytest.raises(ConfigurationError):
        sphere_grid(1)
    with pytest.raises(ConfigurationError):
        sphere_grid(4, dim=4)


def test_sphere_adjacency_indices_valid():
    res = 4
    n = res * 2 * res
    for a, b in sphere_adjacency(res):
        assert 0 <= a < n and 0 <= b < n
