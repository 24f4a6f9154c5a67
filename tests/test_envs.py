"""Environment suite tests: dynamics, rewards, task sets, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_motor.envs import (
    CLIP_WARNINGS,
    DEFAULT_CONSTANTS,
    DIR2D,
    RUNJUMP,
    VEL1D,
    EnvConstants,
    EnvState,
    TaskSpec,
    VecRollout,
    direction_degrees,
    env_reset,
    env_step,
    make_task_set,
    observe,
)
from latent_motor.errors import ConfigurationError


def vel_task(target=1.0, ctrl=0.0):
    return TaskSpec(VEL1D, (target,), reward_ctrl_cost=ctrl)


def test_reset_vel1d_velocity_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = env_reset(vel_task(), rng)
        assert np.all(np.abs(s.velocity) <= 0.05)
        assert np.all(s.position == 0.0)
        assert s.step_count == 0


def test_reset_runjump_at_rest_on_ground():
    s = env_reset(TaskSpec(RUNJUMP, (1.0,)), np.random.default_rng(0))
    assert s.position[1] == 0.0 and s.velocity[1] == 0.0
    assert np.all(s.velocity == 0.0)


def test_reset_honours_configured_velocity_range():
    consts = EnvConstants(reset_vel_range=3.0)
    task = TaskSpec(DIR2D, (1.0, 0.0))
    vels = np.array([env_reset(task, np.random.default_rng(s), consts).velocity
                     for s in range(50)])
    assert np.all(np.abs(vels) <= 3.0) and np.max(np.abs(vels)) > 0.05
    batch = VecRollout([task], consts)
    batch.reset(np.random.default_rng(0))
    assert np.array_equal(vels[0], batch.vel[0])


def test_vec_reset_repeats_tile_the_draw():
    tasks = [vel_task()] * 6
    small, tiled = VecRollout(tasks[:2]), VecRollout(tasks)
    small.reset(np.random.default_rng(4))
    tiled.reset(np.random.default_rng(4), repeats=3)
    assert np.array_equal(tiled.vel, np.tile(small.vel, (3, 1)))
    with pytest.raises(ConfigurationError):
        tiled.reset(np.random.default_rng(4), repeats=4)


def test_reset_deterministic():
    a = env_reset(vel_task(), np.random.default_rng(7))
    b = env_reset(vel_task(), np.random.default_rng(7))
    assert np.array_equal(a.velocity, b.velocity)


def test_step_vel1d_analytic():
    # dt=0.05, drag=0, F/m=1, v=1, a=0, v*=1, c=0 -> reward 0, v'=1
    import dataclasses
    consts = dataclasses.replace(DEFAULT_CONSTANTS, drag=0.0, f_max=1.0)
    state = EnvState(np.zeros(1), np.array([1.0]), 0)
    res = env_step(state, np.array([0.0]), vel_task(1.0), consts)
    assert res.reward == pytest.approx(0.0, abs=1e-15)
    assert res.next_state.velocity[0] == pytest.approx(1.0, abs=1e-15)
    assert res.next_state.position[0] == pytest.approx(0.05, abs=1e-15)


def test_step_dir2d_full_perpendicular_penalty():
    # v'=(1,0) with u=(0,1): reward = 0 - 1 - 0
    import dataclasses
    consts = dataclasses.replace(DEFAULT_CONSTANTS, drag=0.0)
    task = TaskSpec(DIR2D, (0.0, 1.0), reward_ctrl_cost=0.0)
    state = EnvState(np.zeros(2), np.array([1.0, 0.0]), 0)
    res = env_step(state, np.zeros(2), task, consts)
    assert res.reward == pytest.approx(-1.0, abs=1e-12)


def test_step_runjump_jump_reward():
    # already airborne, weight 2: reward w*y' - c*0; engineered so y'=0.5
    task = TaskSpec(RUNJUMP, (0.0,), modality_weight=2.0, jump_modality=True,
                    reward_ctrl_cost=0.0)
    c = DEFAULT_CONSTANTS
    # choose v_y so that y + v_y'*dt = 0.5 with a=0
    vy = 1.0
    vy_next = vy + (-c.gravity - c.jump_drag * vy) * c.dt
    y0 = 0.5 - vy_next * c.dt
    state = EnvState(np.array([0.0, y0]), np.array([0.0, vy]), 0)
    res = env_step(state, np.zeros(2), task, c)
    assert res.next_state.position[1] == pytest.approx(0.5, abs=1e-12)
    assert res.reward == pytest.approx(1.0, abs=1e-12)


def test_step_determinism_bit_identical():
    task = TaskSpec(DIR2D, (1.0, 0.0))
    state = EnvState(np.array([0.1, -0.2]), np.array([0.4, 0.3]), 3)
    a = np.array([0.5, -0.25])
    r1 = env_step(state, a, task)
    r2 = env_step(state, a, task)
    assert r1.reward == r2.reward
    assert np.array_equal(r1.next_state.velocity, r2.next_state.velocity)
    assert np.array_equal(r1.next_state.position, r2.next_state.position)


def test_step_clips_and_counts_out_of_range_actions():
    CLIP_WARNINGS.reset()
    state = env_reset(vel_task(), np.random.default_rng(0))
    env_step(state, np.array([1.5]), vel_task())
    assert CLIP_WARNINGS.count == 1
    env_step(state, np.array([0.5]), vel_task())
    assert CLIP_WARNINGS.count == 1


def test_step_wrong_action_shape():
    state = env_reset(vel_task(), np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        env_step(state, np.zeros(2), vel_task())


def test_zero_action_zero_drag_constant_velocity():
    import dataclasses
    consts = dataclasses.replace(DEFAULT_CONSTANTS, drag=0.0)
    state = EnvState(np.zeros(1), np.array([0.8]), 0)
    for _ in range(20):
        res = env_step(state, np.zeros(1), vel_task(), consts)
        state = res.next_state
    assert state.velocity[0] == pytest.approx(0.8, abs=1e-12)


@given(st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=30, deadline=None)
def test_drag_shrinks_speed_under_zero_action(v0):
    state = EnvState(np.zeros(1), np.array([v0]), 0)
    speed = abs(v0)
    for _ in range(10):
        state = env_step(state, np.zeros(1), vel_task()).next_state
        assert abs(state.velocity[0]) <= speed + 1e-12
        speed = abs(state.velocity[0])


def test_vel1d_reward_never_positive():
    rng = np.random.default_rng(5)
    task = vel_task(1.3, ctrl=1e-3)
    state = env_reset(task, rng)
    for _ in range(100):
        res = env_step(state, rng.uniform(-1, 1, 1), task)
        assert res.reward <= 0.0
        state = res.next_state


def test_dir2d_reward_bounded_by_speed():
    rng = np.random.default_rng(6)
    task = TaskSpec(DIR2D, (1.0, 0.0), reward_ctrl_cost=1e-3)
    state = env_reset(task, rng)
    for _ in range(100):
        res = env_step(state, rng.uniform(-1, 1, 2), task)
        state = res.next_state
        assert res.reward <= np.linalg.norm(state.velocity) + 1e-12


def test_runjump_height_never_negative():
    rng = np.random.default_rng(9)
    task = TaskSpec(RUNJUMP, (0.0,), modality_weight=1.0, jump_modality=True)
    state = env_reset(task, rng)
    for _ in range(200):
        res = env_step(state, rng.uniform(-1, 1, 2), task)
        state = res.next_state
        assert state.position[1] >= 0.0


def test_runjump_can_leave_ground():
    task = TaskSpec(RUNJUMP, (0.0,), modality_weight=1.0, jump_modality=True)
    state = env_reset(task, np.random.default_rng(0))
    for _ in range(50):
        state = env_step(state, np.array([0.0, 1.0]), task).next_state
    assert state.position[1] > 0.1


def test_episode_truncates_at_max_frames():
    task = vel_task()
    state = env_reset(task, np.random.default_rng(1))
    for t in range(DEFAULT_CONSTANTS.max_episode_frames):
        res = env_step(state, np.zeros(1), task)
        state = res.next_state
        expect_done = t == DEFAULT_CONSTANTS.max_episode_frames - 1
        assert res.done == expect_done
        assert res.truncated == expect_done


def test_proportional_controller_solves_every_vel1d_task():
    # feasibility check: a hand-coded P-controller holds each target with
    # post-transient mean error < 0.05 (the double integrator needs ~25
    # frames of full thrust to reach the fastest target)
    frames = DEFAULT_CONSTANTS.max_episode_frames
    warmup = frames // 4
    for task in make_task_set(VEL1D):
        state = env_reset(task, np.random.default_rng(3))
        errs = []
        for t in range(frames):
            a = np.clip(10.0 * (task.target_array - state.velocity), -1, 1)
            state = env_step(state, a, task).next_state
            if t >= warmup:
                errs.append(abs(state.velocity[0] - task.target_array[0]))
        assert np.mean(errs) < 0.05


def test_make_task_set_vel1d_targets():
    targets = [t.target_array[0] for t in make_task_set(VEL1D, count=5, low=0.5, high=2.5)]
    assert targets == pytest.approx([0.5, 1.0, 1.5, 2.0, 2.5])


def test_make_task_set_dir2d_angles():
    tasks = make_task_set(DIR2D, count=4)
    assert [direction_degrees(t) for t in tasks] == pytest.approx([0.0, 90.0, 180.0, 270.0])
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
    assert observe(EnvState(np.zeros(1), np.zeros(1), 0), VEL1D).shape == (1,)
    assert observe(EnvState(np.zeros(2), np.zeros(2), 0), DIR2D).shape == (2,)
    assert observe(EnvState(np.zeros(2), np.zeros(2), 0), RUNJUMP).shape == (3,)


def test_vec_rollout_matches_single_env():
    tasks = make_task_set(VEL1D, count=3)
    vec = VecRollout(tasks)
    rng = np.random.default_rng(4)
    init = rng.uniform(-0.05, 0.05, size=(3, 1))
    vec.vel = init.copy()
    vec.pos = np.zeros((3, 1))
    actions = rng.uniform(-1, 1, size=(3, 1))
    _, rewards, _ = vec.step(actions)
    for k, task in enumerate(tasks):
        res = env_step(EnvState(np.zeros(1), init[k].copy(), 0), actions[k], task)
        assert res.reward == rewards[k]
        assert np.array_equal(res.next_state.velocity, vec.vel[k])
