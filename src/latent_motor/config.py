"""Experiment configuration: a strict JSON schema over dataclasses.

Unknown keys anywhere in the document are rejected before any run
starts, so a typo like "bacth_size" fails loudly instead of silently
training with defaults. `read_record` checks every value against its
field's annotation; the checkpoint reads its stored config, constants and
tasks through it too. The run's seed is the top-level `seed` alone (only
--seed overrides it); no section holds one, so a section `seed` is an
unknown key.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
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


@functools.cache
def _hints(cls) -> dict:
    """The resolved annotation of each field of the dataclass cls, by name."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


# The JSON values each field annotation accepts, and their name in messages.
# A tuple field is stored as a JSON list.
_JSON_TYPES = {int: ((int,), "an integer"), int | None: ((int, type(None)), "an integer or null"),
               float: ((int, float), "a number"), bool: ((bool,), "true or false"),
               str: ((str,), "a str"), list: ((list,), "a list"), tuple: ((list,), "a list")}

# Integer fields that must exceed 0 (a zero width or count breaks training
# later, or silently) and their minimum; any other integer must be >= 0.
_MINIMUM = {"batch_size": 2, "hidden_width": 1, "lse_dim": 1, "lte_dim": 1,
            "buffer_capacity": 1, "eval_episodes": 1, "max_episode_frames": 1,
            "train_epochs": 1, "episodes": 1, "sphere_resolution": 2}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read_field(hint, value, name: str, where: str):
    """value, checked against the field's annotation hint. Integers (counts
    and seeds) must be >= 0, those in _MINIMUM at least their minimum; lists
    hold numbers; no number is NaN or infinite. A tuple field reads a list."""
    if dataclasses.is_dataclass(hint):  # a config section
        return read_record(hint, value, name)
    types, expected = _JSON_TYPES[hint]
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise ConfigurationError(f"{where}.{name} must be {expected}, got {value!r}")
    if isinstance(value, list) and not all(_is_number(v) for v in value):
        raise ConfigurationError(f"{where}.{name} must be a list of numbers, got {value!r}")
    numbers = value if isinstance(value, list) else [value]
    if any(isinstance(v, float) and not math.isfinite(v) for v in numbers):
        raise ConfigurationError(f"{where}.{name} must be finite, got {value!r}")
    minimum = _MINIMUM.get(name, 0)
    if hint in (int, int | None) and value is not None and value < minimum:
        raise ConfigurationError(f"{where}.{name} must be >= {minimum}, got {value}")
    return tuple(value) if hint is tuple else value


def read_record(cls, data, where: str):
    """The dataclass cls built from the JSON object data, every value
    checked against its field's annotation; an absent field takes its
    default. Errors name the field as where.name."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    hints = _hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {sorted(unknown)}")
    return cls(**{key: _read_field(hints[key], value, key, where)
                  for key, value in data.items()})


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigurationError("config document must be a JSON object")
    unknown = set(doc) - set(_hints(ExperimentConfig))
    if unknown:
        raise ConfigurationError(f"unknown top-level keys: {sorted(unknown)}")
    return read_record(ExperimentConfig, doc, "config")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc
    return parse_config(doc)
