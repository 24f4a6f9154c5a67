"""Representation analyses: PCA of rollout embeddings, sphere coloring,
interpolation sweeps, target-metric beta search, and composition probes.

Everything here is read-only with respect to the model: evaluations use
stateless seeded generators, outputs are plain rows ready for CSV, and
identical inputs give identical rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embedding import interpolate, sphere_grid, sphere_grid_angles
from .envs import RUNJUMP, TaskSpec
from .errors import ConfigurationError, DegenerateEmbedding
from .sac import SacModel, evaluate_embeddings

MAX_BISECTIONS = 40  # search_beta's bisection steps after its grid scan


@dataclass
class PcaResult:
    mean: np.ndarray
    components: np.ndarray    # (k, dim), rows orthonormal
    eigenvalues: np.ndarray   # (k,), descending
    projections: np.ndarray   # (n_samples, k)


def pca(data: np.ndarray, k: int) -> PcaResult:
    """Top-k principal components of mean-centered data."""
    data = np.asarray(data, dtype=np.float64)
    n, dim = data.shape
    if k > dim:
        raise ConfigurationError(f"k={k} exceeds data dimension {dim}")
    if n < k + 1:
        raise ConfigurationError(f"need at least k+1={k + 1} samples, got {n}")
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(-eigvals)[:k]
    components = eigvecs[:, order].T
    eigenvalues = eigvals[order]
    projections = centered @ components.T
    return PcaResult(mean, components, eigenvalues, projections)


def pca_reconstruct(result: PcaResult) -> np.ndarray:
    return result.mean + result.projections @ result.components


def periodicity_score(series: np.ndarray) -> float:
    """Peak normalized autocorrelation over lags 2..T/2.

    A clean periodic signal scores near 1, white noise near 0; a
    constant series scores 0 by convention.
    """
    x = np.asarray(series, dtype=np.float64)
    x = x - x.mean()
    denom = float(np.sum(x * x))
    if denom < 1e-18:
        return 0.0
    t = len(x)
    best = 0.0
    for lag in range(2, t // 2 + 1):
        r = float(np.sum(x[:-lag] * x[lag:])) / denom
        best = max(best, r)
    return best


@dataclass
class LseAnalysis:
    raw_projections: np.ndarray
    lse_projections: np.ndarray
    raw_score: float
    lse_score: float


def lse_trajectory_analysis(model: SacModel, task: TaskSpec, task_id: int = 0,
                            eval_seed: int = 0) -> LseAnalysis:
    """Roll one deterministic episode and compare how periodic the raw
    observations and the sensory embeddings look after projecting each
    to its first principal components."""
    [rep] = evaluate_embeddings(model, model.lte_for_task(task_id)[None], task, 1, eval_seed)
    raw = rep.traces[0, :-1]  # the observation each action was taken on
    lse = model.policy.encode_obs(raw)
    k_raw = min(2, raw.shape[1])
    raw_proj = pca(raw, k_raw).projections
    lse_proj = pca(lse, 2).projections
    return LseAnalysis(
        raw_projections=raw_proj,
        lse_projections=lse_proj,
        raw_score=periodicity_score(raw_proj[:, 0]),
        lse_score=periodicity_score(lse_proj[:, 0]),
    )


@dataclass
class SphereCell:
    index: int
    theta: float
    phi: float
    embedding: np.ndarray
    metric: float
    mean_return: float


def evaluate_sphere(model: SacModel, task: TaskSpec, resolution: int,
                    eval_seed: int = 0, episodes: int = 1) -> list[SphereCell]:
    """Score every lattice point of the embedding sphere on one task.

    Emits both the achieved-behavior metric and the reward, since either
    can serve as the coloring. Cells are ordered by grid index; all
    points are rolled out together on stateless seeds.
    """
    if model.config.lte_dim != 3:
        raise ConfigurationError("sphere evaluation is defined for 3-d embeddings only")
    grid = sphere_grid(resolution)
    angles = sphere_grid_angles(resolution)
    reports = evaluate_embeddings(model, grid, task, episodes, eval_seed)
    return [SphereCell(i, float(angles[i, 0]), float(angles[i, 1]), grid[i],
                       rep.metric, rep.mean_return) for i, rep in enumerate(reports)]


@dataclass
class SweepRow:
    beta: float
    metric: float
    mean_return: float
    extras: dict = field(default_factory=dict)
    skipped: bool = False


def interpolation_sweep(model: SacModel, z_i: np.ndarray, z_j: np.ndarray,
                        betas, task: TaskSpec, eval_seed: int = 0,
                        episodes: int = 1) -> list[SweepRow]:
    """Evaluate the blend of two embeddings across a list of coefficients,
    all blends in one batched rollout.

    A degenerate blend (zero vector) is recorded as a skipped row rather
    than aborting the sweep.
    """
    betas = [float(b) for b in betas]
    blends = {}
    for k, beta in enumerate(betas):
        try:
            blends[k] = interpolate(z_i, z_j, beta, normalized=model.config.normalize_lte)
        except DegenerateEmbedding:
            pass
    reports = {}
    if blends:
        evaluated = evaluate_embeddings(model, np.stack(list(blends.values())), task,
                                        episodes, eval_seed)
        reports = dict(zip(blends, evaluated))
    return [SweepRow(beta, reports[k].metric, reports[k].mean_return, reports[k].extras)
            if k in reports else SweepRow(beta, np.nan, np.nan, skipped=True)
            for k, beta in enumerate(betas)]


@dataclass
class BetaSearchResult:
    found: bool
    beta: float | None
    achieved: float | None
    evaluations: int


def search_beta(model: SacModel, z_i: np.ndarray, z_j: np.ndarray,
                target_metric: float, tol: float, task: TaskSpec,
                eval_seed: int = 0, episodes: int = 1) -> BetaSearchResult:
    """Find a blend coefficient whose achieved metric hits a target.

    Scans a 17-point grid over [0.1, 0.9] in one batched sweep and returns
    the first hit within tol in ascending order; otherwise bisects the
    first bracketing interval one blend at a time. Not finding one is a
    regular outcome, not an error; a degenerate blend reached before a hit
    raises DegenerateEmbedding. evaluations counts the blends rolled out.
    """
    grid = np.linspace(0.1, 0.9, 17)
    rows = interpolation_sweep(model, z_i, z_j, grid, task, eval_seed, episodes)
    evals = sum(not r.skipped for r in rows)
    for r in rows:
        if r.skipped:
            raise DegenerateEmbedding(f"blend at beta={r.beta} is the zero vector")
        if abs(r.metric - target_metric) <= tol:
            return BetaSearchResult(True, r.beta, r.metric, evals)
    values = np.array([r.metric for r in rows])
    sign = np.sign(values - target_metric)
    lo = hi = None
    for a in range(len(grid) - 1):
        if sign[a] == 0 or sign[a] != sign[a + 1]:
            lo, hi = grid[a], grid[a + 1]
            f_lo = values[a]
            break
    if lo is None:
        return BetaSearchResult(False, None, None, evals)
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        [r] = interpolation_sweep(model, z_i, z_j, [mid], task, eval_seed, episodes)
        if r.skipped:
            raise DegenerateEmbedding(f"blend at beta={r.beta} is the zero vector")
        evals += 1
        if abs(r.metric - target_metric) <= tol:
            return BetaSearchResult(True, r.beta, r.metric, evals)
        if np.sign(r.metric - target_metric) == np.sign(f_lo - target_metric):
            lo = mid
            f_lo = r.metric
        else:
            hi = mid
    return BetaSearchResult(False, None, None, evals)


def compose(model: SacModel, z_a: np.ndarray, z_b: np.ndarray, betas,
            task: TaskSpec, eval_seed: int = 0, episodes: int = 1) -> list[SweepRow]:
    """Evaluate cross-modality blends; each row's extras carry both
    modality metrics (mean_abs_vx and mean_height).

    The run/jump dynamics are task-independent, so the supplied task only
    sets the reward bookkeeping; horizontal speed and height are physical.
    """
    if task.family != RUNJUMP:
        raise ConfigurationError("composition probes run on the run/jump family")
    return interpolation_sweep(model, z_a, z_b, betas, task, eval_seed, episodes)


def spearman(x, y) -> float:
    """Spearman rank correlation (average ranks for ties)."""
    def ranks(v):
        v = np.asarray(v, dtype=np.float64)
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1, dtype=np.float64)
        # average tied ranks
        for val in np.unique(v):
            m = v == val
            if m.sum() > 1:
                r[m] = r[m].mean()
        return r
    rx, ry = ranks(x), ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = np.sqrt(np.sum(rx ** 2) * np.sum(ry ** 2))
    if denom == 0:
        return 0.0
    return float(np.sum(rx * ry) / denom)
