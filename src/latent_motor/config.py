"""Experiment configuration: a strict JSON schema over dataclasses.

Unknown keys anywhere in the document are rejected before any run
starts, so a typo like "bacth_size" fails loudly instead of silently
training with defaults.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .cem import CemConfig
from .envs import DEFAULT_CONSTANTS, EnvConstants, FAMILIES, TaskSpec, make_task_set
from .errors import ConfigurationError
from .sac import TrainConfig


@dataclass
class EnvSection:
    family: str = "vel1d"
    count: int | None = None
    low: float = 0.5
    high: float = 2.5
    run_count: int = 4
    run_low: float = 0.5
    run_high: float = 2.0
    jump_weights: list = field(default_factory=lambda: [2.0, 4.0])
    max_episode_frames: int = 200

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown env family {self.family!r}")

    def task_set(self) -> list[TaskSpec]:
        return make_task_set(
            self.family, count=self.count, low=self.low, high=self.high,
            run_count=self.run_count, run_low=self.run_low, run_high=self.run_high,
            jump_weights=tuple(self.jump_weights))

    def constants(self) -> EnvConstants:
        return dataclasses.replace(DEFAULT_CONSTANTS,
                                   max_episode_frames=self.max_episode_frames)


@dataclass
class AnalysisSection:
    sphere_resolution: int = 12
    episodes: int = 1
    betas: list = field(default_factory=lambda: [round(b * 0.1, 1) for b in range(10, -1, -1)])


@dataclass
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "runs/latest"
    env: EnvSection = field(default_factory=EnvSection)
    train: TrainConfig = field(default_factory=TrainConfig)
    cem: CemConfig = field(default_factory=CemConfig)
    analysis: AnalysisSection = field(default_factory=AnalysisSection)

    def resolved(self, seed: int | None = None) -> "ExperimentConfig":
        """Copy with the effective seed pushed into every sub-config."""
        eff = self.seed if seed is None else int(seed)
        return ExperimentConfig(
            seed=eff, out_dir=self.out_dir, env=self.env,
            train=dataclasses.replace(self.train, seed=eff),
            cem=dataclasses.replace(self.cem, seed=eff),
            analysis=self.analysis,
        )


def _expected(default) -> tuple[tuple, str]:
    """The JSON value types a field with this default accepts, and their name."""
    if default is None:  # EnvSection.count: int | None
        return (int, type(None)), "an integer or null"
    if isinstance(default, bool):
        return (bool,), "true or false"
    if isinstance(default, int):
        return (int,), "an integer"
    if isinstance(default, float):
        return (int, float), "a number"
    return (type(default),), f"a {type(default).__name__}"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Integer fields that must exceed 0 (a zero width or count breaks training
# later, or silently) and their minimum; any other integer must be >= 0.
_MINIMUM = {"batch_size": 2, "hidden_width": 1, "lse_dim": 1, "lte_dim": 1,
            "buffer_capacity": 1, "eval_episodes": 1, "max_episode_frames": 1,
            "train_epochs": 1, "episodes": 1, "sphere_resolution": 2}


def _check_field(f: dataclasses.Field, value, where: str) -> None:
    """Type-check one field against its default. Integer fields (counts
    and seeds) must be >= 0, those in _MINIMUM at least their minimum,
    and lists hold numbers."""
    default = f.default_factory() if f.default is dataclasses.MISSING else f.default
    types, name = _expected(default)
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise ConfigurationError(f"{where}.{f.name} must be {name}, got {value!r}")
    if isinstance(value, list) and not all(_is_number(v) for v in value):
        raise ConfigurationError(f"{where}.{f.name} must be a list of numbers, "
                                 f"got {value!r}")
    count = default is None or type(default) is int
    minimum = _MINIMUM.get(f.name, 0)
    if count and value is not None and value < minimum:
        raise ConfigurationError(f"{where}.{f.name} must be >= {minimum}, got {value}")


def _build(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigurationError(f"config section {where} must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {sorted(unknown)}")
    for key, value in data.items():
        _check_field(fields[key], value, where)
    return cls(**data)


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigurationError("config document must be a JSON object")
    top = {"seed", "out_dir", "env", "train", "cem", "analysis"}
    unknown = set(doc) - top
    if unknown:
        raise ConfigurationError(f"unknown top-level keys: {sorted(unknown)}")
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    scalars = {key: doc[key] for key in ("seed", "out_dir") if key in doc}
    for key, value in scalars.items():
        _check_field(fields[key], value, "config")
    cfg = ExperimentConfig(
        **scalars,
        env=_build(EnvSection, doc.get("env", {}), "env"),
        train=_build(TrainConfig, doc.get("train", {}), "train"),
        cem=_build(CemConfig, doc.get("cem", {}), "cem"),
        analysis=_build(AnalysisSection, doc.get("analysis", {}), "analysis"),
    )
    # The top-level seed drives every section (see resolved); a section
    # seed may only repeat it, as the config.json of every run directory does.
    for name in ("train", "cem"):
        section_seed = getattr(cfg, name).seed
        if "seed" in doc.get(name, {}) and section_seed != cfg.seed:
            raise ConfigurationError(f"{name}.seed {section_seed} differs from the top-level "
                                     f"seed {cfg.seed}; set the seed at the top level")
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc
    return parse_config(doc)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "seed": cfg.seed,
        "out_dir": cfg.out_dir,
        "env": dataclasses.asdict(cfg.env),
        "train": dataclasses.asdict(cfg.train),
        "cem": dataclasses.asdict(cfg.cem),
        "analysis": dataclasses.asdict(cfg.analysis),
    }
