"""Gradient-free adaptation: cross-entropy search over the embedding sphere.

An elite set of m embeddings starts uniform on the sphere. Each epoch,
every elite contributes itself plus n Gaussian-perturbed, re-projected
neighbours to the candidate pool; new candidates are scored together by
the cumulative reward of deterministic rollouts and the top m survive.
The perturbation scale decays geometrically. Elites re-enter the pool
with the score they were selected with, never re-rolled, so the best
return never decreases, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embedding import inject_noise, normalize_rows
from .envs import TaskSpec
from .errors import ConfigurationError
from .rng import eval_generator
from .sac import SacModel, evaluate_embeddings


@dataclass
class CemConfig:
    elite_capacity: int = 5
    samples_per_elite: int = 8
    adapt_epochs: int = 10
    sample_sigma: float = 0.3
    sigma_decay: float = 0.9
    episodes_per_eval: int = 1

    def __post_init__(self):
        if self.elite_capacity < 1 or self.samples_per_elite < 0:
            raise ConfigurationError("need elite_capacity >= 1 and samples_per_elite >= 0")
        if self.sample_sigma <= 0 or not 0.0 < self.sigma_decay <= 1.0:
            raise ConfigurationError("need sample_sigma > 0 and sigma_decay in (0, 1]")
        if self.adapt_epochs < 1 or self.episodes_per_eval < 1:
            raise ConfigurationError("need adapt_epochs >= 1 and episodes_per_eval >= 1")


@dataclass
class CemEpoch:
    elites: np.ndarray          # (m, d)
    elite_returns: np.ndarray   # (m,), descending
    best_return: float
    sigma: float
    episodes_used: int


@dataclass
class CemTrace:
    epochs: list = field(default_factory=list)

    def best_returns(self) -> np.ndarray:
        return np.array([e.best_return for e in self.epochs])


def cem_optimize(evaluator, config: CemConfig, dim: int = 3,
                 seed: int = 0) -> tuple[np.ndarray, CemTrace]:
    """Core elite search; evaluator maps an (N, dim) matrix of unit
    vectors to their (N,) returns. seed decides the initial elites and
    every perturbation.

    Epoch 0 scores the m initial elites and their m*n neighbours; later
    epochs score only the m*n new neighbours. Rollout-free callers
    (tests, synthetic objectives) use this directly.
    """
    rng = eval_generator(seed, 101)
    m, n = config.elite_capacity, config.samples_per_elite
    elites = normalize_rows(rng.standard_normal((m, dim)))
    elite_returns = None
    sigma = config.sample_sigma
    trace = CemTrace()
    for _ in range(config.adapt_epochs):
        candidates = []
        for i in range(m):
            candidates.append(elites[i])
            for _ in range(n):
                candidates.append(inject_noise(elites[i], sigma, rng))
        candidates = np.array(candidates)
        # Elites (every (n+1)-th row) keep the score they were selected with.
        returns = np.empty(len(candidates))
        rolled = np.arange(len(candidates)) % (n + 1) > 0
        if elite_returns is None:
            rolled[:] = True
        else:
            returns[~rolled] = elite_returns
        if rolled.any():
            scores = np.asarray(evaluator(candidates[rolled]), dtype=np.float64)
            if scores.shape != (rolled.sum(),):
                raise ConfigurationError("the evaluator must return one score per candidate")
            returns[rolled] = scores
        # Descending return, candidate index breaks ties.
        order = np.lexsort((np.arange(len(candidates)), -returns))[:m]
        elites, elite_returns = candidates[order], returns[order]
        trace.epochs.append(CemEpoch(
            elites=elites.copy(), elite_returns=elite_returns,
            best_return=float(elite_returns[0]), sigma=sigma,
            episodes_used=int(rolled.sum()) * config.episodes_per_eval,
        ))
        sigma *= config.sigma_decay
    return elites[0].copy(), trace


def cem_adapt(model: SacModel, task: TaskSpec, config: CemConfig,
              eval_seed: int = 0) -> tuple[np.ndarray, CemTrace]:
    """Adapt to an unseen task by optimizing the embedding alone.

    The policy networks stay frozen; each epoch's candidates are scored
    together with the deterministic policy on the fixed eval_seed, which
    also seeds the search.
    A baseline model is refused (by evaluate_embeddings) before any rollout.
    """
    if task.family != model.family:
        raise ConfigurationError(
            f"task family {task.family!r} does not match model family {model.family!r}")

    def evaluator(Z):
        reports = evaluate_embeddings(model, Z, task, config.episodes_per_eval, eval_seed)
        return np.array([rep.mean_return for rep in reports])
    return cem_optimize(evaluator, config, model.config.lte_dim, eval_seed)

