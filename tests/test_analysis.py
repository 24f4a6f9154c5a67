"""Analysis tests: PCA, periodicity, sweeps, beta search, composition."""

from types import SimpleNamespace

import numpy as np
import pytest

from latent_motor.analysis import (
    compose,
    evaluate_sphere,
    interpolation_sweep,
    lse_trajectory_analysis,
    pca,
    pca_reconstruct,
    periodicity_score,
    search_beta,
    spearman,
)
from latent_motor.embedding import sphere_adjacency
from latent_motor.envs import VecRollout, make_task_set
from latent_motor.errors import ConfigurationError, DegenerateEmbedding
from latent_motor.rng import eval_generator
from latent_motor.sac import SacModel, TrainConfig, evaluate_policy

# Batched and one-row matrix products may round a float32 action
# differently (unit round-off 2**-24); over a 200-frame episode such
# differences add up to at most about 200 * 2**-24 ~ 1.2e-5 of a metric.
ROLLOUT_REL = 200 * 2.0 ** -24


def tiny_model(family="vel1d", count=3):
    cfg = TrainConfig(pretrain_epochs=0, train_epochs=1, optimization_times=1,
                      batch_size=4, hidden_width=6, lse_dim=4)
    return SacModel("ear", make_task_set(family, count=count), cfg)


# --- PCA ---

def test_pca_line_case():
    t = np.linspace(-1, 1, 50)
    data = np.stack([t, 2 * t], axis=1)
    res = pca(data, 2)
    direction = res.components[0] * np.sign(res.components[0, 0])
    assert direction == pytest.approx(np.array([1.0, 2.0]) / np.sqrt(5), abs=1e-9)
    assert res.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)


def test_pca_isotropic_eigenvalues():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((20_000, 3))
    res = pca(data, 3)
    # oracle: the directly computed sample covariance has the same trace
    cov = np.cov(data.T)
    assert np.sum(res.eigenvalues) == pytest.approx(np.trace(cov), rel=1e-9)
    for ev in res.eigenvalues:
        assert ev == pytest.approx(1.0, rel=0.1)


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(40, 5)) @ rng.normal(size=(5, 5))
    res = pca(data, 5)
    assert np.max(np.abs(pca_reconstruct(res) - data)) < 1e-9


def test_pca_components_orthonormal_projections_centered():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(100, 6)) * np.array([3, 2, 1, 1, 0.5, 0.1])
    res = pca(data, 4)
    gram = res.components @ res.components.T
    assert np.max(np.abs(gram - np.eye(4))) < 1e-9
    assert np.max(np.abs(res.projections.mean(axis=0))) < 1e-9
    assert np.all(np.diff(res.eigenvalues) <= 1e-12)
    assert np.all(res.eigenvalues >= -1e-12)


def test_pca_k_too_large():
    with pytest.raises(ConfigurationError):
        pca(np.zeros((10, 2)), 3)


def test_pca_matches_numpy_eigh():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(60, 4)) @ rng.normal(size=(4, 4))
    res = pca(data, 4)
    ref = np.linalg.eigvalsh(np.cov(data.T))[::-1]
    assert res.eigenvalues == pytest.approx(ref, rel=1e-9, abs=1e-11)


# --- periodicity ---

def test_periodicity_pure_sine():
    t = np.arange(200)
    assert periodicity_score(np.sin(2 * np.pi * t / 10)) > 0.9


def test_periodicity_white_noise():
    # oracle bound: peak autocorrelation of iid noise stays small
    rng = np.random.default_rng(123)
    assert periodicity_score(rng.standard_normal(200)) < 0.3


def test_periodicity_constant_is_zero():
    assert periodicity_score(np.ones(100)) == 0.0


def test_lse_trajectory_analysis_shapes():
    m = tiny_model("dir2d", count=3)
    res = lse_trajectory_analysis(m, m.tasks[0], 0, eval_seed=1)
    frames = m.constants.max_episode_frames
    assert res.raw_projections.shape == (frames, 2)
    assert res.lse_projections.shape == (frames, 2)
    assert 0.0 <= res.raw_score <= 1.0 + 1e-12
    assert 0.0 <= res.lse_score <= 1.0 + 1e-12


@pytest.mark.parametrize("family", ["dir2d", "runjump"])
def test_lse_trajectory_raw_trace_is_the_pre_step_observations(family):
    m = tiny_model(family, count=3)
    vec = VecRollout([m.tasks[1]], m.constants)
    obs = vec.reset(eval_generator(2))
    raw = []
    for _ in range(m.constants.max_episode_frames):
        raw.append(obs[0])
        obs, _ = vec.step(m.policy.action_eval(obs, m.lte_for_task(1)[None]))
    expected = pca(np.array(raw), 2).projections
    res = lse_trajectory_analysis(m, m.tasks[1], 1, eval_seed=2)
    assert np.array_equal(res.raw_projections, expected)
    assert res.raw_score == periodicity_score(expected[:, 0])


# --- sphere ---

def test_evaluate_sphere_grid_size_and_consistency():
    m = tiny_model()
    cells = evaluate_sphere(m, m.tasks[0], 3, eval_seed=5)
    assert len(cells) == 3 * 6
    # consistency: direct evaluation at a grid embedding matches the cell,
    # up to the rounding of the batched float32 matmuls (measured: ~4e-8
    # relative in metric)
    probe = cells[4]
    rep = evaluate_policy(m, probe.embedding, m.tasks[0], episodes=1, eval_seed=5)
    assert rep.metric == pytest.approx(probe.metric, rel=ROLLOUT_REL, abs=ROLLOUT_REL)
    assert rep.mean_return == pytest.approx(probe.mean_return, rel=ROLLOUT_REL,
                                            abs=ROLLOUT_REL)


def test_evaluate_sphere_pure_wrt_model():
    m = tiny_model()
    before = m.policy.flat.copy()
    state_before = m.rngs.state()
    evaluate_sphere(m, m.tasks[0], 2, eval_seed=1)
    assert np.array_equal(before, m.policy.flat)
    assert m.rngs.state() == state_before


def test_sphere_edges_cover_grid():
    edges = sphere_adjacency(3)
    touched = set()
    for a, b in edges:
        touched.add(a)
        touched.add(b)
    assert touched == set(range(3 * 6))


# --- sweeps ---

def test_sweep_endpoints_and_determinism():
    m = tiny_model()
    z_i, z_j = m.lte_for_task(0), m.lte_for_task(1)
    rows1 = interpolation_sweep(m, z_i, z_j, [1.0, 0.5, 0.0], m.tasks[0], eval_seed=2)
    rows2 = interpolation_sweep(m, z_i, z_j, [1.0, 0.5, 0.0], m.tasks[0], eval_seed=2)
    assert [(r.beta, r.metric, r.mean_return) for r in rows1] == \
           [(r.beta, r.metric, r.mean_return) for r in rows2]
    end_i = evaluate_policy(m, z_i, m.tasks[0], episodes=1, eval_seed=2)
    end_j = evaluate_policy(m, z_j, m.tasks[0], episodes=1, eval_seed=2)
    assert rows1[0].metric == pytest.approx(end_i.metric, rel=ROLLOUT_REL)
    assert rows1[2].metric == pytest.approx(end_j.metric, rel=ROLLOUT_REL)


def test_sweep_records_degenerate_rows_as_skipped():
    m = tiny_model()
    z = m.lte_for_task(0)
    rows = interpolation_sweep(m, z, -z, [0.5, 1.0], m.tasks[0], eval_seed=0)
    assert rows[0].skipped and not rows[1].skipped


# --- beta search ---

# Two orthogonal unit embeddings: the blend at beta is proportional to
# (beta, 1 - beta, 0), so the fake evaluator below reads beta back off it.
E0, E1 = np.eye(3)[0], np.eye(3)[1]


def fake_batched_evaluator(monkeypatch, metric_of_beta):
    """Replace the batched evaluator behind interpolation_sweep with a
    synthetic metric of the blend coefficient; returns the list of batch
    sizes it was called with."""
    import latent_motor.analysis as an
    sizes = []

    def fake(model, Z, task, episodes=1, eval_seed=0):
        sizes.append(len(Z))
        return [SimpleNamespace(metric=metric_of_beta(z[0] / (z[0] + z[1])),
                                mean_return=0.0, extras={}) for z in Z]
    monkeypatch.setattr(an, "evaluate_embeddings", fake)
    return sizes


def test_search_beta_monotone_synthetic(monkeypatch):
    m = tiny_model()
    # synthetic metric: linear in beta, from 2.0 (beta=0) to 1.0 (beta=1)
    sizes = fake_batched_evaluator(monkeypatch, lambda beta: 2.0 - beta)
    res = search_beta(m, E0, E1, 1.5, 0.01, m.tasks[0])
    assert res.found
    assert res.achieved == pytest.approx(1.5, abs=0.01)
    assert 0.1 <= res.beta <= 0.9
    # the grid point 0.5 hits: one 17-row sweep, every grid blend counted
    assert sizes == [17] and res.evaluations == 17


def test_search_beta_no_crossing_not_found(monkeypatch):
    m = tiny_model()
    sizes = fake_batched_evaluator(monkeypatch, lambda beta: 0.0)
    res = search_beta(m, E0, E1, 5.0, 0.1, m.tasks[0])
    assert not res.found
    assert res.beta is None
    assert sizes == [17] and res.evaluations == 17


def test_search_beta_boundary_target(monkeypatch):
    m = tiny_model()
    fake_batched_evaluator(monkeypatch, lambda beta: 2.0 - beta)
    # target equals the beta=0.9-end metric: first grid hit happens late
    res = search_beta(m, E0, E1, 2.0 - 0.9, 0.01, m.tasks[0])
    assert res.found and res.beta == pytest.approx(0.9, abs=0.01)


def test_search_beta_result_revalidates(monkeypatch):
    m = tiny_model()
    fake_batched_evaluator(monkeypatch, lambda beta: 1.0 + beta ** 2)
    res = search_beta(m, E0, E1, 1.3, 0.05, m.tasks[0])
    assert res.found
    assert abs((1.0 + res.beta ** 2) - 1.3) <= 0.05


def test_search_beta_bisects_one_blend_at_a_time(monkeypatch):
    m = tiny_model()
    # no grid point is within 1e-4 of 1.3; bisection of [0.5, 0.55] finds it
    sizes = fake_batched_evaluator(monkeypatch, lambda beta: 1.0 + beta ** 2)
    res = search_beta(m, E0, E1, 1.3, 1e-4, m.tasks[0])
    assert res.found and abs((1.0 + res.beta ** 2) - 1.3) <= 1e-4
    assert sizes[0] == 17 and len(sizes) > 1 and set(sizes[1:]) == {1}
    assert res.evaluations == 17 + len(sizes) - 1


def test_search_beta_degenerate_blend_before_hit_raises(monkeypatch):
    m = tiny_model()
    fake_batched_evaluator(monkeypatch, lambda beta: 0.0)
    # z and -z blend to the zero vector at beta = 0.5, the 9th grid point
    with pytest.raises(DegenerateEmbedding):
        search_beta(m, E0, -E0, 5.0, 0.1, m.tasks[0])
    # a hit before the degenerate point returns; the skipped blend is not counted
    res = search_beta(m, E0, -E0, 0.0, 0.1, m.tasks[0])
    assert res.found and res.beta == pytest.approx(0.1) and res.evaluations == 16


# --- composition ---

COMPOSE_BETAS = np.linspace(0.1, 0.9, 9)


def test_compose_runs_and_reports_both_metrics():
    m = tiny_model("runjump", count=None)
    rows = compose(m, m.lte_for_task(0), m.lte_for_task(4), [0.5], m.tasks[0], eval_seed=1)
    assert len(rows) == 1 and not rows[0].skipped
    assert np.isfinite(rows[0].extras["mean_abs_vx"])
    assert np.isfinite(rows[0].extras["mean_height"])
    assert rows[0].extras["mean_height"] >= 0.0


def test_compose_pure_endpoint_matches_eval():
    m = tiny_model("runjump", count=None)
    z_a = m.lte_for_task(0)
    rows = compose(m, z_a, m.lte_for_task(4), COMPOSE_BETAS.tolist() + [1.0], m.tasks[0],
                   eval_seed=3)
    rep = evaluate_policy(m, z_a, m.tasks[0], episodes=1, eval_seed=3)
    assert [r.beta for r in rows] == COMPOSE_BETAS.tolist() + [1.0]
    # batched rows round differently from a one-row rollout in the last bits
    assert rows[-1].extras["mean_abs_vx"] == pytest.approx(rep.extras["mean_abs_vx"],
                                                           rel=ROLLOUT_REL)
    assert rows[-1].extras["mean_height"] == pytest.approx(rep.extras["mean_height"],
                                                           abs=ROLLOUT_REL)


def test_compose_antipodal_recorded_skipped():
    m = tiny_model("runjump", count=None)
    z = m.lte_for_task(0)
    rows = compose(m, z, -z, [0.25, 0.5], m.tasks[0])
    assert not rows[0].skipped and rows[1].skipped
    assert rows[1].extras == {} and np.isnan(rows[1].mean_return)


def test_compose_rejects_wrong_family():
    m = tiny_model("vel1d")
    with pytest.raises(ConfigurationError):
        compose(m, m.lte_for_task(0), m.lte_for_task(1), [0.5], m.tasks[0])


# --- one batched rollout per blend set ---

def test_blends_roll_out_in_one_batch(monkeypatch):
    import latent_motor.sac as sac
    built = []

    class CountingRollout(sac.VecRollout):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(sac, "VecRollout", CountingRollout)
    rj = tiny_model("runjump", count=None)
    rows = compose(rj, rj.lte_for_task(0), rj.lte_for_task(4), COMPOSE_BETAS, rj.tasks[0])
    assert len(rows) == 9 and len(built) == 1
    m = tiny_model()
    z_i, z_j = m.lte_for_task(0), m.lte_for_task(1)
    res = search_beta(m, z_i, z_j, 1e6, 0.1, m.tasks[0])
    assert not res.found and res.evaluations == 17 and len(built) == 2
    interpolation_sweep(m, z_i, z_j, np.linspace(1.0, 0.0, 11), m.tasks[0])
    assert len(built) == 3
    evaluate_sphere(m, m.tasks[0], 3)
    assert len(built) == 4


# --- spearman ---

def test_spearman_perfect_and_reversed():
    x = [1.0, 2.0, 3.0, 4.0]
    assert spearman(x, [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman(x, [40, 30, 20, 10]) == pytest.approx(-1.0)


def test_spearman_matches_scipy():
    from scipy import stats
    rng = np.random.default_rng(4)
    x = rng.normal(size=30)
    y = x + rng.normal(scale=0.5, size=30)
    assert spearman(x, y) == pytest.approx(stats.spearmanr(x, y).statistic, abs=1e-12)
