"""Toy continuous-control environments and task-set builders.

These are deterministic double-integrator point masses, not articulated
bodies: they keep the reward structure of the locomotion benchmarks
(track a target velocity, run along a target direction, run and/or gain
height) at desk scale with zero dependencies. Results on them are
analogs of the original benchmarks, not ports.

Families:
  vel1d   -- 1-d mass, reward -|v - v*| - c*||a||^2
  dir2d   -- 2-d mass, reward v.u - |v.u_perp| - c*||a||^2
  runjump -- 2-d mass with gravity and inelastic ground contact; run
             tasks are rewarded for horizontal target speed, jump tasks
             for height (weight w), each dropping the other term.

Episodes never terminate early; they truncate at max_episode_frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

VEL1D = "vel1d"
DIR2D = "dir2d"
RUNJUMP = "runjump"
FAMILIES = (VEL1D, DIR2D, RUNJUMP)


@dataclass(frozen=True)
class EnvConstants:
    """Physics knobs shared by every family.

    jump_thrust/jump_drag apply to the vertical axis of runjump only:
    thrust 2.0 cannot beat gravity 9.8, so that axis gets a stronger and
    heavily damped actuator (hover above a_y ~ 0.39, climb capped near
    1 m/s) to make height reachable but bounded.
    """

    dt: float = 0.05
    f_max: float = 2.0
    drag: float = 0.1
    gravity: float = 9.8
    jump_thrust: float = 25.0
    jump_drag: float = 15.0
    max_episode_frames: int = 200
    reset_vel_range: float = 0.05

    def __post_init__(self):
        # The upper bounds keep every rollout finite: an explicit Euler step
        # with drag * dt <= 1 damps a velocity but never reverses or grows it.
        positive = ("dt", "f_max", "gravity", "jump_thrust")
        for name in positive + ("drag", "jump_drag", "reset_vel_range"):
            value = getattr(self, name)
            if not (value > 0 if name in positive else value >= 0):  # also refuses NaN
                raise ConfigurationError(f"constants.{name} must be "
                                         f"{'>' if name in positive else '>='} 0, got {value!r}")
            upper = 1 if name == "dt" else 1000
            if value > upper:
                raise ConfigurationError(f"constants.{name} must be <= {upper}, got {value!r}")
        for name in ("drag", "jump_drag"):
            if getattr(self, name) * self.dt > 1:
                raise ConfigurationError(f"constants.{name} * dt must be <= 1, got "
                                         f"{getattr(self, name)!r} * {self.dt!r}")


DEFAULT_CONSTANTS = EnvConstants()


@dataclass(frozen=True)
class TaskSpec:
    """One element of a task distribution.

    target is the scalar target velocity (vel1d, runjump run tasks) or a
    unit 2-vector direction (dir2d). modality_weight is the height reward
    weight of runjump jump tasks and 0 for run-modality tasks.
    """

    family: str
    target: tuple = ()
    modality_weight: float = 0.0
    jump_modality: bool = False
    reward_ctrl_cost: float = 1e-3

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown family {self.family!r}")
        if not (self.reward_ctrl_cost >= 0 and self.modality_weight >= 0):  # also nan
            raise ConfigurationError("cost and modality weight must be >= 0")
        t = np.asarray(self.target, dtype=np.float64)
        if self.family == DIR2D:
            if t.shape != (2,) or not abs(np.linalg.norm(t) - 1.0) <= 1e-9:
                raise ConfigurationError("dir2d target must be a unit 2-vector")
        else:
            if t.shape != (1,) or not np.isfinite(t[0]):
                raise ConfigurationError("target must be a finite scalar")

    @property
    def target_array(self) -> np.ndarray:
        return np.asarray(self.target, dtype=np.float64)


def obs_dim(family: str) -> int:
    return {VEL1D: 1, DIR2D: 2, RUNJUMP: 3}[family]


def action_dim(family: str) -> int:
    return {VEL1D: 1, DIR2D: 2, RUNJUMP: 2}[family]


def observe_batch(pos: np.ndarray, vel: np.ndarray, family: str) -> np.ndarray:
    if family in (VEL1D, DIR2D):
        return vel.copy()
    return np.stack([vel[:, 0], pos[:, 1], vel[:, 1]], axis=1)


def _physics_batch(family, pos, vel, action, consts: EnvConstants):
    """Vectorized dynamics over a leading batch axis. Returns (pos', vel')."""
    c = consts
    if family == RUNJUMP:
        ax, ay = action[:, 0], action[:, 1]
        vx = vel[:, 0] + (ax * c.f_max - c.drag * vel[:, 0]) * c.dt
        vy = vel[:, 1] + (ay * c.jump_thrust - c.gravity - c.jump_drag * vel[:, 1]) * c.dt
        x = pos[:, 0] + vx * c.dt
        y = pos[:, 1] + vy * c.dt
        grounded = y <= 0.0
        y = np.where(grounded, 0.0, y)
        vy = np.where(grounded, 0.0, vy)
        return np.stack([x, y], axis=1), np.stack([vx, vy], axis=1)
    new_vel = vel + (action * c.f_max - c.drag * vel) * c.dt
    new_pos = pos + new_vel * c.dt
    return new_pos, new_vel


def _reward_batch(family, new_pos, new_vel, action, targets, weights, jump_mask, ctrl):
    cost = ctrl * (action ** 2).sum(axis=1)
    if family == VEL1D:
        return -np.abs(new_vel[:, 0] - targets[:, 0]) - cost
    if family == DIR2D:
        along = new_vel[:, 0] * targets[:, 0] + new_vel[:, 1] * targets[:, 1]
        perp = new_vel[:, 0] * (-targets[:, 1]) + new_vel[:, 1] * targets[:, 0]
        return along - np.abs(perp) - cost
    run_term = -np.abs(new_vel[:, 0] - targets[:, 0])
    jump_term = weights * new_pos[:, 1]
    return np.where(jump_mask, jump_term, run_term) - cost


def make_task_set(family: str, count: int | None = None, low: float = 0.5,
                  high: float = 2.5, run_count: int = 4,
                  run_low: float = 0.5, run_high: float = 2.0,
                  jump_weights: tuple = (2.0, 4.0)) -> list[TaskSpec]:
    """Build an evenly spaced training task set.

    vel1d: `count` target velocities over [low, high] (default 5 over
    [0.5, 2.5]). dir2d: `count` directions evenly spaced over [0, 360)
    degrees (default 8). runjump: run_count velocity tasks over
    [run_low, run_high] plus one height task per entry of jump_weights.
    """
    if family == VEL1D:
        k = 5 if count is None else count
        if k < 2:
            raise ConfigurationError("need at least 2 tasks")
        targets = np.linspace(low, high, k)
        return [TaskSpec(VEL1D, (float(t),)) for t in targets]
    if family == DIR2D:
        k = 8 if count is None else count
        if k < 2:
            raise ConfigurationError("need at least 2 tasks")
        out = []
        for i in range(k):
            ang = 2.0 * np.pi * i / k
            u = np.array([np.cos(ang), np.sin(ang)])
            u = u / np.linalg.norm(u)
            out.append(TaskSpec(DIR2D, (float(u[0]), float(u[1]))))
        return out
    if family == RUNJUMP:
        if run_count < 1 or not jump_weights:
            raise ConfigurationError("runjump needs at least one task per modality")
        tasks = [TaskSpec(RUNJUMP, (float(t),)) for t in np.linspace(run_low, run_high, run_count)]
        tasks += [TaskSpec(RUNJUMP, (0.0,), modality_weight=float(w), jump_modality=True)
                  for w in jump_weights]
        return tasks
    raise ConfigurationError(f"unknown family {family!r}")


class VecRollout:
    """K copies of one family stepped in lockstep (no early termination,
    so every row runs exactly max_episode_frames)."""

    def __init__(self, tasks: list[TaskSpec], constants: EnvConstants = DEFAULT_CONSTANTS):
        if not tasks:
            raise ConfigurationError("empty task list")
        fams = {t.family for t in tasks}
        if len(fams) != 1:
            raise ConfigurationError("all rollout tasks must share one family")
        self.family = tasks[0].family
        self.tasks = tasks
        self.consts = constants
        self.k = len(tasks)
        d = action_dim(self.family)  # position and velocity have one axis per action
        self.targets = np.stack([t.target_array for t in tasks])
        self.weights = np.array([t.modality_weight for t in tasks])
        self.jump_mask = np.array([t.jump_modality for t in tasks])
        self.ctrl = np.array([t.reward_ctrl_cost for t in tasks])
        self.pos = np.zeros((self.k, d))
        self.vel = np.zeros((self.k, d))

    def reset(self, rng, repeats: int = 1) -> np.ndarray:
        """Start every row; with repeats > 1 only k // repeats start states
        are drawn and row i gets draw i % (k // repeats)."""
        if repeats < 1 or self.k % repeats:
            raise ConfigurationError(f"{self.k} rows do not split into {repeats} repeats")
        d = self.pos.shape[1]
        self.pos = np.zeros((self.k, d))
        if self.family == RUNJUMP:
            self.vel = np.zeros((self.k, d))
        else:
            r = self.consts.reset_vel_range
            drawn = rng.uniform(-r, r, size=(self.k // repeats, d))
            self.vel = np.tile(drawn, (repeats, 1))
        return observe_batch(self.pos, self.vel, self.family)

    def step(self, actions: np.ndarray):
        """Advance every row one frame; actions outside [-1, 1] are clipped.
        Returns (observations, rewards)."""
        a = np.asarray(actions, dtype=np.float64)
        if a.shape != self.vel.shape:  # (k, action_dim): one velocity axis per action
            raise ConfigurationError(
                f"action shape {a.shape} does not match {self.k} {self.family} rows")
        a = np.maximum(np.minimum(a, 1.0), -1.0)
        new_pos, new_vel = _physics_batch(self.family, self.pos, self.vel, a, self.consts)
        rewards = _reward_batch(self.family, new_pos, new_vel, a, self.targets,
                                self.weights, self.jump_mask, self.ctrl)
        self.pos, self.vel = new_pos, new_vel
        return observe_batch(self.pos, self.vel, self.family), rewards
