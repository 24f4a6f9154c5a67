"""Error-path and validation coverage across modules."""

import numpy as np
import pytest

from latent_motor.checkpoint import load_checkpoint, save_checkpoint
from latent_motor.config import parse_config
from latent_motor.embedding import interpolate
from latent_motor.envs import TaskSpec, make_task_set
from latent_motor.errors import ConfigurationError
from latent_motor.sac import SacModel, TrainConfig


def test_interpolate_rejects_non_finite_beta():
    z = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ConfigurationError):
        interpolate(z, z, float("nan"))
    with pytest.raises(ConfigurationError):
        interpolate(z, z, float("inf"))


def test_taskspec_validation():
    with pytest.raises(ConfigurationError):
        TaskSpec("dir2d", (3.0, 4.0))  # not unit norm
    with pytest.raises(ConfigurationError):
        TaskSpec("vel1d", (1.0,), reward_ctrl_cost=-1e-3)
    with pytest.raises(ConfigurationError):
        TaskSpec("walker", (1.0,))
    with pytest.raises(ConfigurationError):
        TaskSpec("vel1d", (float("nan"),))


def test_make_task_set_runjump_weight_fallback():
    # mismatched weight tuple falls back to an evenly spaced ramp
    tasks = make_task_set("runjump", run_count=2, jump_count=3, jump_weights=(1.0,))
    weights = [t.modality_weight for t in tasks if t.jump_modality]
    assert len(weights) == 3
    assert weights == sorted(weights)


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(gamma=0.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(tau=1.5)
    with pytest.raises(ConfigurationError):
        TrainConfig(sigma_noise=-0.1)


def test_unnormalized_model_checkpoint_round_trip(tmp_path):
    cfg = TrainConfig(pretrain_epochs=0, train_epochs=1, optimization_times=1,
                      batch_size=8, seed=4, hidden_width=6, lse_dim=3,
                      normalize_lte=False)
    model = SacModel("ear", make_task_set("vel1d", count=2), cfg)
    p1 = str(tmp_path / "a.json")
    p2 = str(tmp_path / "b.json")
    save_checkpoint(model, p1)
    loaded = load_checkpoint(p1)
    assert loaded.config.normalize_lte is False
    save_checkpoint(loaded, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    # raw embeddings are generally not unit norm and must survive as-is
    assert np.array_equal(model.lte_set(), loaded.lte_set())


@pytest.mark.parametrize("section,key,value,fragment", [
    ("train", "batch_size", "16", "train.batch_size must be an integer"),
    ("train", "hidden_width", 8.5, "train.hidden_width must be an integer"),
    ("train", "pretrain_epochs", True, "train.pretrain_epochs must be an integer"),
    ("train", "gamma", "0.9", "train.gamma must be a number"),
    ("train", "lr", False, "train.lr must be a number"),
    ("train", "normalize_lte", 1, "train.normalize_lte must be true or false"),
    ("train", "optimization_times", -1, "train.optimization_times must be >= 0"),
    ("train", "buffer_capacity", -5, "train.buffer_capacity must be >= 0"),
    ("train", "batch_size", 1, "train.batch_size must be >= 2"),
    ("env", "count", 2.0, "env.count must be an integer or null"),
    ("env", "family", 3, "env.family must be a str"),
    ("env", "jump_weights", 2.0, "env.jump_weights must be a list"),
    ("env", "max_episode_frames", -200, "env.max_episode_frames must be >= 0"),
    ("cem", "samples_per_elite", -1, "cem.samples_per_elite must be >= 0"),
    ("cem", "sample_sigma", None, "cem.sample_sigma must be a number"),
    ("analysis", "sphere_resolution", "12", "analysis.sphere_resolution must be an integer"),
    ("analysis", "betas", "0.5", "analysis.betas must be a list"),
    ("env", "jump_weights", ["a", "b"], "env.jump_weights must be a list of numbers"),
    ("analysis", "betas", ["a"], "analysis.betas must be a list of numbers"),
    ("analysis", "betas", [0.5, True], "analysis.betas must be a list of numbers"),
    # top-level fields: None stands for the document itself
    (None, "seed", "x", "config.seed must be an integer"),
    (None, "seed", 1.7, "config.seed must be an integer"),
    (None, "seed", True, "config.seed must be an integer"),
    (None, "seed", "5", "config.seed must be an integer"),
    (None, "seed", -1, "config.seed must be >= 0"),
    ("train", "seed", -2, "train.seed must be >= 0"),
    (None, "out_dir", 3, "config.out_dir must be a str"),
    (None, "out_dir", None, "config.out_dir must be a str"),
])
def test_config_field_types_and_counts_checked(section, key, value, fragment):
    with pytest.raises(ConfigurationError) as exc:
        parse_config({key: value} if section is None else {section: {key: value}})
    assert fragment in str(exc.value)


def test_config_accepts_well_typed_values():
    cfg = parse_config({
        "seed": 7, "out_dir": "runs/x",
        "env": {"count": None, "low": 1, "jump_weights": [1, 2.5]},
        "train": {"gamma": 1, "batch_size": 2, "optimization_times": 0,
                  "normalize_lte": False},
        "cem": {"sample_sigma": 1},
    })
    assert cfg.seed == 7 and cfg.out_dir == "runs/x"
    assert cfg.env.count is None and cfg.env.low == 1
    assert cfg.train.gamma == 1 and cfg.train.batch_size == 2
    assert cfg.train.optimization_times == 0 and cfg.cem.sample_sigma == 1
    with pytest.raises(ConfigurationError, match="env must be a JSON object"):
        parse_config({"env": ["vel1d"]})
