"""Environment suite tests: dynamics, rewards, task sets, determinism."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_motor.envs import (
    DEFAULT_CONSTANTS,
    DIR2D,
    RUNJUMP,
    VEL1D,
    EnvConstants,
    TaskSpec,
    VecRollout,
    make_task_set,
)
from latent_motor.errors import ConfigurationError
from latent_motor.replay import ReplayBuffer
from latent_motor.sac import SacModel, TrainConfig, _collect, evaluate_policy


def vel_task(target=1.0, ctrl=0.0):
    return TaskSpec(VEL1D, (target,), reward_ctrl_cost=ctrl)


def one_row(task, pos, vel, consts=DEFAULT_CONSTANTS):
    """A one-row rollout placed at a given state."""
    vec = VecRollout([task], consts)
    vec.pos = np.array([pos], dtype=np.float64)
    vec.vel = np.array([vel], dtype=np.float64)
    return vec


def step_one(vec, action):
    """Step a one-row rollout; returns its reward."""
    _, rewards = vec.step(np.asarray(action, dtype=np.float64)[None, :])
    return rewards[0]


def test_reset_vel1d_velocity_range():
    rng = np.random.default_rng(0)
    vec = VecRollout([vel_task()] * 50)
    obs = vec.reset(rng)
    assert np.all(np.abs(vec.vel) <= 0.05) and np.max(np.abs(vec.vel)) > 0.0
    assert np.all(vec.pos == 0.0)
    assert np.array_equal(obs, vec.vel)


def test_reset_runjump_at_rest_on_ground():
    vec = VecRollout([TaskSpec(RUNJUMP, (1.0,))] * 3)
    obs = vec.reset(np.random.default_rng(0))
    assert np.all(vec.pos == 0.0) and np.all(vec.vel == 0.0)
    assert np.all(obs == 0.0)


def test_reset_honours_configured_velocity_range():
    consts = EnvConstants(reset_vel_range=3.0)
    task = TaskSpec(DIR2D, (1.0, 0.0))
    vec = VecRollout([task] * 50, consts)
    vec.reset(np.random.default_rng(0))
    assert np.all(np.abs(vec.vel) <= 3.0) and np.max(np.abs(vec.vel)) > 0.05
    # the draw is uniform(-r, r) per axis from the given generator
    expect = np.random.default_rng(0).uniform(-3.0, 3.0, size=(50, 2))
    assert np.array_equal(vec.vel, expect)


def test_vec_reset_repeats_tile_the_draw():
    tasks = [vel_task()] * 6
    small, tiled = VecRollout(tasks[:2]), VecRollout(tasks)
    small.reset(np.random.default_rng(4))
    tiled.reset(np.random.default_rng(4), repeats=3)
    assert np.array_equal(tiled.vel, np.tile(small.vel, (3, 1)))
    with pytest.raises(ConfigurationError):
        tiled.reset(np.random.default_rng(4), repeats=4)


def test_reset_deterministic():
    a, b = VecRollout([vel_task()] * 4), VecRollout([vel_task()] * 4)
    a.reset(np.random.default_rng(7))
    b.reset(np.random.default_rng(7))
    assert np.array_equal(a.vel, b.vel)


def test_step_vel1d_analytic():
    # dt=0.05, drag=0, F/m=1, v=1, a=0, v*=1, c=0 -> reward 0, v'=1
    consts = dataclasses.replace(DEFAULT_CONSTANTS, drag=0.0, f_max=1.0)
    vec = one_row(vel_task(1.0), [0.0], [1.0], consts)
    reward = step_one(vec, [0.0])
    assert reward == pytest.approx(0.0, abs=1e-15)
    assert vec.vel[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert vec.pos[0, 0] == pytest.approx(0.05, abs=1e-15)


def test_step_dir2d_full_perpendicular_penalty():
    # v'=(1,0) with u=(0,1): reward = 0 - 1 - 0
    consts = dataclasses.replace(DEFAULT_CONSTANTS, drag=0.0)
    task = TaskSpec(DIR2D, (0.0, 1.0), reward_ctrl_cost=0.0)
    vec = one_row(task, [0.0, 0.0], [1.0, 0.0], consts)
    reward = step_one(vec, [0.0, 0.0])
    assert reward == pytest.approx(-1.0, abs=1e-12)


def test_step_runjump_jump_reward():
    # already airborne, weight 2: reward w*y' - c*0; engineered so y'=0.5
    task = TaskSpec(RUNJUMP, (0.0,), modality_weight=2.0, jump_modality=True,
                    reward_ctrl_cost=0.0)
    c = DEFAULT_CONSTANTS
    # choose v_y so that y + v_y'*dt = 0.5 with a=0
    vy = 1.0
    vy_next = vy + (-c.gravity - c.jump_drag * vy) * c.dt
    y0 = 0.5 - vy_next * c.dt
    vec = one_row(task, [0.0, y0], [0.0, vy], c)
    reward = step_one(vec, [0.0, 0.0])
    assert vec.pos[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert reward == pytest.approx(1.0, abs=1e-12)


def test_step_determinism_bit_identical():
    task = TaskSpec(DIR2D, (1.0, 0.0))
    a = np.array([0.5, -0.25])
    r1 = one_row(task, [0.1, -0.2], [0.4, 0.3])
    r2 = one_row(task, [0.1, -0.2], [0.4, 0.3])
    reward1 = step_one(r1, a)
    reward2 = step_one(r2, a)
    assert reward1 == reward2
    assert np.array_equal(r1.vel, r2.vel)
    assert np.array_equal(r1.pos, r2.pos)


def test_step_clips_out_of_range_actions():
    task = vel_task(1.0, ctrl=1e-3)
    over, at_max = one_row(task, [0.0], [0.3]), one_row(task, [0.0], [0.3])
    r_over = step_one(over, [1.5])
    r_max = step_one(at_max, [1.0])
    assert r_over == r_max
    assert np.array_equal(over.vel, at_max.vel)
    under, at_min = one_row(task, [0.0], [0.3]), one_row(task, [0.0], [0.3])
    assert step_one(under, [-7.0]) == step_one(at_min, [-1.0])


def test_step_wrong_action_shape():
    vec = VecRollout([vel_task()] * 2)
    vec.reset(np.random.default_rng(0))
    vel = vec.vel.copy()
    for bad in (np.zeros((2, 2)), np.zeros(2), np.zeros((3, 1))):
        with pytest.raises(ConfigurationError):
            vec.step(bad)
    assert np.array_equal(vec.vel, vel) and np.all(vec.pos == 0.0)


def test_zero_action_zero_drag_constant_velocity():
    consts = dataclasses.replace(DEFAULT_CONSTANTS, drag=0.0)
    vec = one_row(vel_task(), [0.0], [0.8], consts)
    for _ in range(20):
        step_one(vec, [0.0])
    assert vec.vel[0, 0] == pytest.approx(0.8, abs=1e-12)


@given(st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=30, deadline=None)
def test_drag_shrinks_speed_under_zero_action(v0):
    vec = one_row(vel_task(), [0.0], [v0])
    speed = abs(v0)
    for _ in range(10):
        step_one(vec, [0.0])
        assert abs(vec.vel[0, 0]) <= speed + 1e-12
        speed = abs(vec.vel[0, 0])


def test_vel1d_reward_never_positive():
    rng = np.random.default_rng(5)
    vec = VecRollout([vel_task(1.3, ctrl=1e-3)] * 4)
    vec.reset(rng)
    for _ in range(100):
        _, rewards = vec.step(rng.uniform(-1, 1, (4, 1)))
        assert np.all(rewards <= 0.0)


def test_dir2d_reward_bounded_by_speed():
    rng = np.random.default_rng(6)
    vec = VecRollout([TaskSpec(DIR2D, (1.0, 0.0), reward_ctrl_cost=1e-3)] * 4)
    vec.reset(rng)
    for _ in range(100):
        _, rewards = vec.step(rng.uniform(-1, 1, (4, 2)))
        assert np.all(rewards <= np.linalg.norm(vec.vel, axis=1) + 1e-12)


def test_runjump_height_never_negative():
    rng = np.random.default_rng(9)
    vec = VecRollout([TaskSpec(RUNJUMP, (0.0,), modality_weight=1.0, jump_modality=True)] * 4)
    vec.reset(rng)
    for _ in range(200):
        vec.step(rng.uniform(-1, 1, (4, 2)))
        assert np.all(vec.pos[:, 1] >= 0.0)


def test_runjump_can_leave_ground():
    task = TaskSpec(RUNJUMP, (0.0,), modality_weight=1.0, jump_modality=True)
    vec = VecRollout([task])
    vec.reset(np.random.default_rng(0))
    for _ in range(50):
        step_one(vec, [0.0, 1.0])
    assert vec.pos[0, 1] > 0.1


def test_episode_truncates_at_max_frames():
    # rollouts count their own frames: every collected and every evaluated
    # episode runs exactly max_episode_frames steps
    consts = dataclasses.replace(DEFAULT_CONSTANTS, max_episode_frames=7)
    cfg = TrainConfig(batch_size=2, buffer_capacity=100, hidden_width=4, lse_dim=2)
    model = SacModel("ear", make_task_set(VEL1D, count=2), cfg, consts)
    buffer = ReplayBuffer(cfg.buffer_capacity, model.obs_dim, model.action_dim)
    _collect(model, buffer)
    assert len(buffer) == 2 * 7
    rep = evaluate_policy(model, None, model.tasks[0], episodes=3, task_id=0)
    assert rep.traces.shape == (3, 7 + 1, 1)


def test_proportional_controller_solves_every_vel1d_task():
    # feasibility check: a hand-coded P-controller holds each target with
    # post-transient mean error < 0.05 (the double integrator needs ~25
    # frames of full thrust to reach the fastest target)
    frames = DEFAULT_CONSTANTS.max_episode_frames
    warmup = frames // 4
    for task in make_task_set(VEL1D):
        vec = VecRollout([task])
        vec.reset(np.random.default_rng(3))
        errs = []
        for t in range(frames):
            step_one(vec, np.clip(10.0 * (task.target_array - vec.vel[0]), -1, 1))
            if t >= warmup:
                errs.append(abs(vec.vel[0, 0] - task.target_array[0]))
        assert np.mean(errs) < 0.05


def test_make_task_set_vel1d_targets():
    targets = [t.target_array[0] for t in make_task_set(VEL1D, count=5, low=0.5, high=2.5)]
    assert targets == pytest.approx([0.5, 1.0, 1.5, 2.0, 2.5])


def test_make_task_set_dir2d_angles():
    tasks = make_task_set(DIR2D, count=4)
    degrees = [np.degrees(np.arctan2(t.target[1], t.target[0])) % 360.0 for t in tasks]
    assert degrees == pytest.approx([0.0, 90.0, 180.0, 270.0])
    for t in tasks:
        assert np.linalg.norm(t.target_array) == pytest.approx(1.0, abs=1e-12)


def test_make_task_set_runjump_default():
    tasks = make_task_set(RUNJUMP)
    assert len(tasks) == 6
    assert sum(t.jump_modality for t in tasks) == 2
    assert sum(not t.jump_modality for t in tasks) == 4


def test_make_task_set_too_few():
    with pytest.raises(ConfigurationError):
        make_task_set(VEL1D, count=1)


def test_observe_shapes():
    # absolute horizontal position is never observed
    for family, width in ((VEL1D, 1), (DIR2D, 2), (RUNJUMP, 3)):
        vec = VecRollout(make_task_set(family, count=3))
        obs = vec.reset(np.random.default_rng(0))
        assert obs.shape == (vec.k, width)
        obs, _ = vec.step(np.full((vec.k, vec.vel.shape[1]), 0.5))
        assert obs.shape == (vec.k, width)
        if family == RUNJUMP:
            assert np.array_equal(obs, np.stack([vec.vel[:, 0], vec.pos[:, 1],
                                                 vec.vel[:, 1]], axis=1))
        else:
            assert np.array_equal(obs, vec.vel)


def test_vec_rollout_matches_single_env():
    # K rows stepped together equal each row in its own one-row rollout, bitwise
    rng = np.random.default_rng(4)
    for family in (VEL1D, DIR2D, RUNJUMP):
        tasks = make_task_set(family, count=3)
        vec = VecRollout(tasks)
        vec.reset(np.random.default_rng(1))
        singles = [one_row(task, vec.pos[k], vec.vel[k]) for k, task in enumerate(tasks)]
        for _ in range(30):
            actions = rng.uniform(-1.2, 1.2, size=(vec.k, vec.vel.shape[1]))
            obs, rewards = vec.step(actions)
            for k, single in enumerate(singles):
                o, r = single.step(actions[k][None, :])
                assert r[0] == rewards[k]
                assert np.array_equal(o[0], obs[k])
                assert np.array_equal(single.pos[0], vec.pos[k])
                assert np.array_equal(single.vel[0], vec.vel[k])
