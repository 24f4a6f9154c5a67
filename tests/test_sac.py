"""Trainer unit tests: buffer, targets, update step, invariants.

Training-convergence claims live in the acceptance suite; these tests
pin the mechanics on tiny models."""

import sys

import numpy as np
import pytest
from scipy import stats

from latent_motor import nn, sac
from latent_motor.envs import VecRollout, make_task_set
from latent_motor.errors import ConfigurationError
from latent_motor.nn import Mlp, mlp_forward
from latent_motor.replay import Batch, ReplayBuffer
from latent_motor.rng import eval_generator
from latent_motor.sac import (
    EvalReport,
    SacModel,
    TrainConfig,
    eval_all_tasks,
    evaluate_embeddings,
    evaluate_policy,
    q_target,
    sac_update,
    train,
    _metric_windows,
    _primary_metric,
)


def tiny_config(**kw):
    base = dict(pretrain_epochs=1, train_epochs=1, optimization_times=2,
                batch_size=16, hidden_width=8, lse_dim=4, lte_dim=3)
    base.update(kw)
    return TrainConfig(**base)


def tiny_model(kind="ear", family="vel1d", count=3, **kw):
    return SacModel(kind, make_task_set(family, count=count), tiny_config(**kw))


def random_batch(model, n=16, seed=0):
    rng = np.random.default_rng(seed)
    return Batch(
        obs=rng.normal(size=(n, model.obs_dim)),
        action=rng.uniform(-1, 1, size=(n, model.action_dim)),
        reward=rng.normal(size=n),
        next_obs=rng.normal(size=(n, model.obs_dim)),
        task_id=rng.integers(0, model.n_tasks, size=n),
    )


# --- replay buffer ---

def buffer_rows(values):
    """K transitions whose fields all encode the given values."""
    v = np.asarray(values, dtype=np.float64)
    return v[:, None], -v[:, None], v, 2 * v[:, None], v.astype(np.int64) % 3


def test_buffer_fifo_capacity():
    buf = ReplayBuffer(4, 1, 1)
    for i in range(7):
        buf.add(*buffer_rows([i]))
    assert len(buf) == 4
    # oldest entries evicted: rewards now {3,4,5,6}
    assert sorted(buf.reward.tolist()) == [3.0, 4.0, 5.0, 6.0]


def test_buffer_k_row_add_matches_per_row_adds():
    # reference: the ring written one row at a time
    cap = 5
    ref = {"reward": np.zeros(cap), "head": 0, "size": 0}
    buf = ReplayBuffer(cap, 1, 1)
    start = 0
    for k in (1, 3, 2, 4, 5, 7, 12, 1):  # wraps mid-add, K == and > capacity
        values = np.arange(start, start + k, dtype=np.float64)
        start += k
        for v in values:
            ref["reward"][ref["head"]] = v
            ref["head"] = (ref["head"] + 1) % cap
            ref["size"] = min(ref["size"] + 1, cap)
        buf.add(*buffer_rows(values))
        assert (buf.head, buf.size) == (ref["head"], ref["size"])
        assert np.array_equal(buf.reward, ref["reward"])
        for field, rows in zip(("obs", "action", "reward", "next_obs", "task_id"),
                               buffer_rows(buf.reward)):
            assert np.array_equal(getattr(buf, field), rows)


def test_buffer_uniform_sampling_chi_square():
    buf = ReplayBuffer(100, 1, 1)
    buf.add(*buffer_rows(np.arange(100)))
    rng = np.random.default_rng(0)
    counts = np.zeros(100)
    batch = buf.sample(100_000, rng)
    for r in batch.reward:
        counts[int(r)] += 1
    chi2 = float(np.sum((counts - 1000.0) ** 2 / 1000.0))
    assert stats.chi2.sf(chi2, df=99) > 0.001


def test_buffer_empty_sample_rejected():
    with pytest.raises(ConfigurationError):
        ReplayBuffer(4, 1, 1).sample(2, np.random.default_rng(0))


# --- model construction ---

def test_target_nets_equal_live_at_init():
    m = tiny_model()
    assert np.array_equal(m.q.flat, m.q_target.flat)


def test_lse_dimension_is_sixteen_by_default():
    cfg = TrainConfig()
    m = SacModel("ear", make_task_set("vel1d", count=2), cfg)
    lse = m.policy.encode_obs(np.zeros((4, 1)))
    assert lse.shape == (4, 16)


def test_ohe_policy_input_dim():
    m = tiny_model("ohe", count=4)
    assert m.policy.net.dims[0] == m.obs_dim + 4


def test_mhmt_head_blocks():
    m = tiny_model("mhmt", count=4)
    assert m.policy.head_w.shape[0] == 4
    assert m.policy.trunk.dims[0] == m.config.hidden_width


# --- policy forward ---

def test_action_eval_deterministic_repeatable():
    m = tiny_model()
    obs = np.array([[0.3]])
    a1 = m.policy.action_eval(obs, m.conditioning([1]))
    a2 = m.policy.action_eval(obs, m.conditioning([1]))
    assert np.array_equal(a1, a2)
    # the deterministic action on task 1's embedding is the clean,
    # zero-noise training sample of task 1
    a3, _, _ = m.policy.forward_train(obs, np.array([1]), None, np.zeros((1, 1)))
    assert np.array_equal(a1, a3)


def test_forward_train_same_noise_same_action():
    obs = np.array([[0.3], [-0.1]])
    ids = np.array([0, 2])
    for kind in ("ear", "ohe", "mhmt"):
        m = tiny_model(kind)

        def draw(seed):
            rng = np.random.default_rng(seed)
            return (rng.standard_normal((2, m.config.lte_dim)) * 0.05,
                    rng.standard_normal((2, 1)))

        a1, l1, _ = m.policy.forward_train(obs, ids, *draw(5))
        a2, l2, _ = m.policy.forward_train(obs, ids, *draw(5))
        a3, _, _ = m.policy.forward_train(obs, ids, *draw(6))
        assert np.array_equal(a1, a2) and np.array_equal(l1, l2)
        assert not np.array_equal(a1, a3)


def test_policy_sensitive_to_embedding():
    m = tiny_model()
    obs = np.zeros((1, 1))
    a = m.policy.action_eval(obs, np.array([[1.0, 0.0, 0.0]]))
    b = m.policy.action_eval(obs, np.array([[0.0, 1.0, 0.0]]))
    assert not np.allclose(a, b)


@pytest.mark.parametrize("kind,sigma_noise,draws", [
    ("ear", 0.05, 6), ("ear", 0.0, 0), ("ohe", 0.05, 0), ("mhmt", 0.05, 0)])
def test_embedding_noise_drawn_for_the_shared_interface_policy_only(kind, sigma_noise, draws):
    m = tiny_model(kind, sigma_noise=sigma_noise)
    noise = m.embedding_noise(2)
    assert m.rngs.get("noise").draws == draws
    assert noise is None if draws == 0 else noise.shape == (2, 3)


# --- q_target ---

def test_q_target_arithmetic():
    # r=0.5, gamma=0.99, V'=2 -> y=2.48, using a hand-built value path
    m = tiny_model()
    batch = random_batch(m, 3)
    y0 = q_target(m, batch)  # advances the policy noise stream deterministically
    # reproduce: y = r + 0.99 * v  =>  v = (y - r) / 0.99
    v = (y0 - batch.reward) / 0.99
    assert np.allclose(batch.reward + 0.99 * v, y0, atol=1e-12)
    assert 0.5 + 0.99 * 2.0 == pytest.approx(2.48)


def test_q_target_uses_min_of_targets():
    m = tiny_model()
    # force target critic 0 to output +3 and target critic 1 +5 via final-layer bias
    for k, c in ((0, 3.0), (1, 5.0)):
        for w in m.q_target.weights:
            w[k] = 0.0
        for b in m.q_target.biases:
            b[k] = 0.0
        m.q_target.biases[-1][k] = c
    batch = random_batch(m, 4)
    batch.reward = np.zeros(4)
    y = q_target(m, batch)
    # V' = 3 - alpha*logp'; with min over (3, 5) built from 3
    assert np.all(y < 0.99 * 5.0)
    a2_lp = (y / 0.99) - 3.0  # equals -alpha*logp'
    assert np.all(np.isfinite(a2_lp))


# --- sac_update ---

def test_sac_update_batch_too_small():
    m = tiny_model()
    with pytest.raises(ConfigurationError):
        sac_update(m, random_batch(m, 1))


def test_sac_update_reports_finite_losses():
    m = tiny_model()
    rep = sac_update(m, random_batch(m, 16))
    assert np.isfinite([rep.j_q1, rep.j_q2, rep.j_pi, rep.j_alpha, rep.alpha]).all()
    assert not rep.skipped


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts glibc page faults")
def test_sac_update_at_batch_256_allocates_no_activation_temporaries():
    # A 256x64 float64 temporary is 128 KiB, glibc's default mmap threshold:
    # allocated per update, each is mapped and faulted in page by page
    # (~630-690 minor faults per update without the network workspaces).
    import resource
    m = SacModel("ear", make_task_set("vel1d"), TrainConfig())
    batches = [random_batch(m, 256, seed=s) for s in range(13)]
    for batch in batches[:3]:  # workspaces are built on the first passes
        sac_update(m, batch)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for batch in batches[3:]:
        assert not sac_update(m, batch).skipped
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / 10 < 50


class RecordingNumpy:
    """numpy as nn sees it, recording the operand shapes of every np.matmul."""

    def __init__(self):
        self.products = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kw):
        self.products.append((np.shape(a), np.shape(b)))
        return np.matmul(a, b, **kw)


@pytest.mark.parametrize("family", ["vel1d", "dir2d"])
@pytest.mark.parametrize("kind", ["ear", "ohe", "mhmt"])
def test_no_matrix_product_contracts_an_axis_of_length_1(monkeypatch, kind, family):
    # np.matmul runs such a product (e.g. the vel1d encoder's 1-wide input
    # layer, the critics' 1-wide output layer in backward) 4-5x slower
    # than the broadcast product nn uses instead
    m = SacModel(kind, make_task_set(family, count=3), TrainConfig())
    recording = RecordingNumpy()
    monkeypatch.setattr(nn, "np", recording)
    assert not sac_update(m, random_batch(m, 256)).skipped
    for rows in (1, 45):
        ids = np.arange(rows) % m.n_tasks
        m.policy.action_eval(np.ones((rows, m.obs_dim)), m.conditioning(ids))
    assert len(recording.products) > 20
    assert [(a, b) for a, b in recording.products if a[-1] == 1] == []


@pytest.mark.parametrize("kind", ["ear", "ohe", "mhmt"])
def test_networks_stay_float32_through_an_update(kind):
    m = tiny_model(kind)
    assert not sac_update(m, random_batch(m, 16)).skipped
    nets = [m.q, m.q_target, m._q_grad]
    nets += [v for v in vars(m.policy).values() if isinstance(v, Mlp)]
    grad = m.policy._grad  # an Mlp, or (flat, blocks) for a composite policy
    arrays = [m.policy.flat, grad.flat if isinstance(grad, Mlp) else grad[0]]
    arrays += [a for opt in (m.opt_policy, m.opt_q) for a in (opt.m, opt.v)]
    arrays += [a for net in nets for a in (net.flat, *net._hidden)]
    arrays += [net._scratch for net in nets if net._scratch is not None]
    assert all(a.dtype == np.float32 for a in arrays)
    assert sum(net._scratch is not None for net in nets) >= 2  # critic stack and policy ran backward
    # the temperature stays float64
    assert m.log_alpha.dtype == m.opt_alpha.m.dtype == m.opt_alpha.v.dtype == np.float64


def update_state(m):
    """The bytes of everything an update may change, and the Adam steps."""
    opts = (m.opt_policy, m.opt_q, m.opt_alpha)
    arrays = [m.policy.flat, m.q.flat, m.q_target.flat,
              m.log_alpha] + [a for opt in opts for a in (opt.m, opt.v)]
    return [a.tobytes() for a in arrays] + [opt.step for opt in opts]


def poison_forward(monkeypatch, net, nth, k):
    """Make slice k of the nth sac.mlp_forward call on the stacked net
    (1-based) output NaN."""
    calls = []
    real = sac.mlp_forward

    def forward(mlp, x):
        out, cache = real(mlp, x)
        if mlp is net:
            calls.append(mlp)
            if len(calls) == nth:
                out = out.copy()
                out[k] = np.nan
        return out, cache
    monkeypatch.setattr(sac, "mlp_forward", forward)


@pytest.mark.parametrize("phase", ["q1 loss", "q2 loss", "j_pi", "policy gradient",
                                   "temperature gradient"])
def test_skipped_step_changes_nothing(monkeypatch, phase):
    m, clean = tiny_model(), tiny_model()
    for model in (m, clean):  # moments and steps away from their zero start
        sac_update(model, random_batch(model, 16, seed=0))
    before = update_state(m)
    assert update_state(clean) == before
    assert not sac_update(clean, random_batch(clean, 16, seed=1)).skipped
    assert all(a != b for a, b in zip(update_state(clean), before))

    if phase == "q1 loss":
        poison_forward(monkeypatch, m.q, 1, 0)
    elif phase == "q2 loss":
        poison_forward(monkeypatch, m.q, 1, 1)
    elif phase == "j_pi":  # the critics' second pass scores the actor's actions
        poison_forward(monkeypatch, m.q, 2, 0)
    elif phase == "policy gradient":
        real = m.policy.backward_train

        def backward(*args):
            grad = real(*args)
            grad[-1] = np.inf
            return grad
        monkeypatch.setattr(m.policy, "backward_train", backward)
    else:
        monkeypatch.setattr(m, "target_entropy", np.nan)
    rep = sac_update(m, random_batch(m, 16, seed=1))
    assert rep.skipped
    assert m._bad_steps == 1
    assert update_state(m) == before


def test_alpha_positive_and_gradient_sign():
    # entropy above target -> alpha pressured down; below -> up
    m = tiny_model()
    batch = random_batch(m, 32)
    alpha_before = m.alpha
    for _ in range(30):
        sac_update(m, batch)
    assert m.alpha > 0.0
    # fresh policies have near-uniform tanh actions: logp ~ small, entropy
    # above target -H(=1), so alpha should have fallen
    assert m.alpha < alpha_before


def test_q_loss_zero_when_q_equals_target():
    m = tiny_model()
    batch = random_batch(m, 8)
    # choose rewards so that y equals the current prediction exactly
    y0 = q_target(m, batch)
    x = np.concatenate([batch.obs, batch.action, m.onehot(batch.task_id)], axis=1)
    pred1 = mlp_forward(m.q, x)[0][0, :, 0]
    m2 = tiny_model()
    batch.reward = batch.reward + (pred1 - y0)
    rep = sac_update(m2, batch)
    assert rep.j_q1 == pytest.approx(0.0, abs=1e-20)


def test_sac_update_analytic_single_transition():
    # oracle: straight-line evaluation of the critic objective with the
    # same numbers the update consumes; an identically seeded clone
    # replays the stream draw-for-draw
    m = tiny_model(count=2)
    batch = random_batch(m, 2, seed=9)
    clone = SacModel("ear", make_task_set("vel1d", count=2), tiny_config())
    y = q_target(clone, batch)
    x = np.concatenate([batch.obs, batch.action, clone.onehot(batch.task_id)], axis=1)
    p1, p2 = mlp_forward(clone.q, x)[0][..., 0]
    exp_jq1 = 0.5 * float(np.mean((p1 - y) ** 2))
    exp_jq2 = 0.5 * float(np.mean((p2 - y) ** 2))
    rep = sac_update(m, batch)
    assert rep.j_q1 == pytest.approx(exp_jq1, abs=1e-8)
    assert rep.j_q2 == pytest.approx(exp_jq2, abs=1e-8)


def test_lte_unit_norm_after_updates():
    m = tiny_model()
    for i in range(10):
        sac_update(m, random_batch(m, 16, seed=i))
    norms = np.linalg.norm(m.lte_set(), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)


def test_target_update_is_convex_combination():
    m = tiny_model()
    before = m.q_target.flat.copy()
    sac_update(m, random_batch(m, 16))
    tau = m.config.tau
    assert np.allclose(m.q_target.flat, tau * m.q.flat + (1 - tau) * before, atol=1e-12)


# --- training loop ---

def test_pretrain_fills_buffer_exactly():
    # default pretrain depth, then one more collection per training epoch:
    # each collection appends one 200-frame episode per task
    m = tiny_model(count=2)
    buffer = ReplayBuffer(m.config.buffer_capacity, m.obs_dim, m.action_dim)
    for _ in range(20 + 1):
        sac._collect(m, buffer)
    assert len(buffer) == (20 + 1) * 2 * 200


def test_curve_length_equals_train_epochs():
    cfg = tiny_config(train_epochs=3, optimization_times=1)
    tasks = make_task_set("vel1d", count=2)
    _, curves = train(cfg, tasks)
    assert len(curves) == 3 * 2
    assert max(c.epoch for c in curves) == 2


def test_train_zero_epochs_rejected():
    with pytest.raises(ConfigurationError):
        train(tiny_config(train_epochs=0), make_task_set("vel1d", count=2))


def test_train_baseline_kinds():
    cfg = tiny_config()
    tasks = make_task_set("vel1d", count=2)
    for kind in ("mhmt", "ohe"):
        model, curves = train(cfg, tasks, kind)
        assert model.kind == kind
    with pytest.raises(ConfigurationError, match="unknown policy kind 'nope'"):
        train(cfg, tasks, "nope")


def test_loss_finiteness_over_short_run():
    cfg = tiny_config(train_epochs=3, optimization_times=10)
    model, curves = train(cfg, make_task_set("vel1d", count=2))
    for c in curves:
        assert np.isfinite([c.j_q1, c.j_q2, c.j_pi, c.j_alpha, c.alpha]).all()


# --- evaluation ---

def test_evaluate_policy_zero_episodes_rejected():
    m = tiny_model()
    with pytest.raises(ConfigurationError):
        evaluate_policy(m, m.lte_for_task(0), m.tasks[0], episodes=0)


def test_evaluate_policy_deterministic():
    m = tiny_model()
    z = m.lte_for_task(1)
    a = evaluate_policy(m, z, m.tasks[1], episodes=2, eval_seed=3)
    b = evaluate_policy(m, z, m.tasks[1], episodes=2, eval_seed=3)
    assert a.mean_return == b.mean_return
    assert a.metric == b.metric
    assert np.array_equal(a.episode_returns, b.episode_returns)


def test_evaluate_policy_accepts_arbitrary_embedding():
    m = tiny_model()
    z = np.array([0.0, 0.0, 1.0])
    rep = evaluate_policy(m, z, m.tasks[0], episodes=1, eval_seed=0)
    assert np.isfinite(rep.mean_return)


@pytest.mark.parametrize("kind", ["ear", "ohe", "mhmt"])
@pytest.mark.parametrize("task_id", [-1, 3])
def test_evaluate_policy_task_id_out_of_range_rejected(kind, task_id):
    # a baseline must not roll out the last task for -1, nor fail on 3
    # with an IndexError
    m = tiny_model(kind)
    with pytest.raises(ConfigurationError, match=f"task index {task_id} out of range"):
        evaluate_policy(m, None, m.tasks[0], episodes=1, task_id=task_id)


def test_evaluate_does_not_mutate_model_streams():
    m = tiny_model()
    before = m.rngs.state()
    evaluate_policy(m, m.lte_for_task(0), m.tasks[0], episodes=2, eval_seed=1)
    assert m.rngs.state() == before


def probe_embeddings(n, seed=0):
    z = np.random.default_rng(seed).standard_normal((n, 3))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# Batched and one-row matrix products may round a float32 action
# differently (unit round-off 2**-24); over a 200-frame episode such
# differences add up to at most about 200 * 2**-24 ~ 1.2e-5 of a metric.
ROLLOUT_REL = 200 * 2.0 ** -24


def assert_reports_match(a, b, rel):
    def close(x, y):
        return np.allclose(x, y, rtol=rel, atol=rel) if rel else np.array_equal(x, y)
    assert close(a.mean_return, b.mean_return)
    assert close(a.metric, b.metric)
    assert a.extras.keys() == b.extras.keys()
    assert all(close(a.extras[k], b.extras[k]) for k in a.extras)
    assert close(a.episode_returns, b.episode_returns)
    assert a.traces.shape == b.traces.shape
    assert close(a.traces, b.traces)


def reference_evaluation(model, task, episodes, eval_seed, cond):
    """The one-conditioning rollout loop as it stood before evaluation was
    batched over embeddings, on cond, one row per episode; evaluate_policy
    must reproduce it bit for bit."""
    vec = VecRollout([task] * episodes, model.constants)
    obs = vec.reset(eval_generator(eval_seed))
    frames = model.constants.max_episode_frames
    returns = np.zeros(episodes)
    trace = [obs]
    for _ in range(frames):
        action = model.policy.action_eval(obs, cond)
        obs, rewards = vec.step(action)
        returns += rewards
        trace.append(obs)
    trace = np.stack(trace, axis=1)
    extras = _metric_windows(model.family, trace[:, 1:], task, frames // 4)
    return EvalReport(float(np.mean(returns)), _primary_metric(model.family, task, extras),
                      extras, returns, trace)


@pytest.mark.parametrize("family", ["vel1d", "dir2d", "runjump"])
@pytest.mark.parametrize("episodes", [1, 3])
def test_one_row_evaluation_bit_identical_to_reference(family, episodes):
    m = tiny_model(family=family)
    z = probe_embeddings(1)
    ref = reference_evaluation(m, m.tasks[1], episodes, 3, np.tile(z, (episodes, 1)))
    [rep] = evaluate_embeddings(m, z, m.tasks[1], episodes, eval_seed=3)
    assert_reports_match(rep, ref, rel=0.0)
    assert_reports_match(evaluate_policy(m, z[0], m.tasks[1], episodes, eval_seed=3), ref,
                         rel=0.0)
    for kind in ("ohe", "mhmt"):
        b = tiny_model(kind=kind, family=family)
        ref = reference_evaluation(b, b.tasks[1], episodes, 3, np.full(episodes, 1))
        assert_reports_match(evaluate_policy(b, None, b.tasks[1], episodes, eval_seed=3,
                                             task_id=1), ref, rel=0.0)


@pytest.mark.parametrize("family", ["vel1d", "dir2d", "runjump"])
@pytest.mark.parametrize("episodes", [1, 3])
def test_evaluate_embeddings_matches_per_row_evaluation(family, episodes):
    m = tiny_model(family=family)
    Z = np.concatenate([m.lte_set(), probe_embeddings(9, seed=1)])
    task = m.tasks[-1]
    reports = evaluate_embeddings(m, Z, task, episodes, eval_seed=7)
    assert len(reports) == len(Z)
    for z, rep in zip(Z, reports):
        assert_reports_match(rep, evaluate_policy(m, z, task, episodes, eval_seed=7),
                             rel=ROLLOUT_REL)


@pytest.mark.parametrize("family", ["vel1d", "dir2d", "runjump"])
@pytest.mark.parametrize("kind", ["ear", "ohe", "mhmt"])
def test_eval_all_tasks_matches_per_task_evaluation(kind, family):
    m = tiny_model(kind=kind, family=family)
    reports = eval_all_tasks(m, 2, eval_seed=4)
    assert len(reports) == m.n_tasks
    for i, (task, rep) in enumerate(zip(m.tasks, reports)):
        lte = m.lte_for_task(i) if kind == "ear" else None
        assert_reports_match(rep, evaluate_policy(m, lte, task, 2, eval_seed=4, task_id=i),
                             rel=ROLLOUT_REL)


def test_evaluate_embeddings_leaves_model_untouched():
    m = tiny_model()
    params = m.policy.flat.copy()
    state = m.rngs.state()
    evaluate_embeddings(m, probe_embeddings(5), m.tasks[0], 2, eval_seed=1)
    assert np.array_equal(params, m.policy.flat)
    assert m.rngs.state() == state


def test_evaluate_embeddings_rejects_bad_input():
    m = tiny_model()
    for Z in (np.zeros((0, 3)), np.ones(3), np.ones((2, 4)), [[np.nan, 1.0, 0.0]],
              [[1.0, 0.0, 0.0], [0.0, np.inf, 0.0]]):
        with pytest.raises(ConfigurationError):
            evaluate_embeddings(m, Z, m.tasks[0])
    with pytest.raises(ConfigurationError):
        evaluate_embeddings(tiny_model(kind="ohe"), probe_embeddings(2), m.tasks[0])


def test_baseline_evaluation_rejects_an_embedding():
    for kind in ("ohe", "mhmt"):
        b = tiny_model(kind=kind)
        with pytest.raises(ConfigurationError, match="takes no task embedding"):
            evaluate_policy(b, np.array([1.0, 0.0, 0.0]), b.tasks[0], task_id=0)


def test_full_run_determinism_bitwise():
    cfg = tiny_config(train_epochs=2, optimization_times=5)
    tasks = make_task_set("vel1d", count=2)
    m1, c1 = train(cfg, tasks)
    m2, c2 = train(cfg, tasks)
    assert np.array_equal(m1.policy.flat, m2.policy.flat)
    assert np.array_equal(m1.q.flat, m2.q.flat)
    assert float(m1.log_alpha) == float(m2.log_alpha)
    assert [vars(x) for x in c1] == [vars(y) for y in c2]
