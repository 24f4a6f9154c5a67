"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The headline benchmark numbers of the original locomotion suites are not
reproducible on toy physics; these criteria check the same qualitative
claims (training success, baseline ordering, interpolation geometry,
few-epoch adaptation, composition, representation structure) as scaled
properties, plus the infrastructure guarantees. Trained models come from
session fixtures in conftest.py; run `pytest tests/test_acceptance.py -v`
for the full gate.
"""

import json
import time

import numpy as np

from latent_motor.analysis import (
    compose,
    evaluate_sphere,
    interpolation_sweep,
    lse_trajectory_analysis,
    pca,
    pca_reconstruct,
    search_beta,
    spearman,
)
from latent_motor.cem import CemConfig, cem_adapt, cem_optimize
from latent_motor.cli import main as cli_main
from latent_motor.embedding import sphere_adjacency
from latent_motor.envs import TaskSpec
from latent_motor.nn import (
    finite_difference_check,
    gaussian_head,
    mlp_init,
    policy_log_prob,
)
from latent_motor.sac import TrainConfig, eval_all_tasks, evaluate_policy, train

from conftest import SEEDS, TRAIN_DURATIONS

EVAL_SEED = 424242
BETAS_11 = np.linspace(1.0, 0.0, 11)


def verdict(num, name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d} ({name})"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def adjacent_pairs(model):
    return [(i, i + 1) for i in range(len(model.tasks) - 1)]


def pair_sweep(model, i, j):
    rows = interpolation_sweep(model, model.lte_for_task(i), model.lte_for_task(j),
                               BETAS_11, model.tasks[i], eval_seed=EVAL_SEED)
    return [r.metric for r in rows]


# ----------------------------------------------------------------------
def test_c01_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        n_layers = int(rng.integers(1, 5))
        dims = [int(rng.integers(1, 7)) for _ in range(n_layers + 1)]
        net = mlp_init(dims, rng)
        for w in net.weights:
            w += rng.normal(scale=0.3, size=w.shape)
        for b in net.biases:
            b += rng.normal(scale=0.3, size=b.shape)
        worst = max(worst, finite_difference_check(net, rng.normal(size=dims[0])))
    out = gaussian_head(np.array([0.3, -0.5]))
    n = 10_000
    grid = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    dens = np.exp(policy_log_prob(out, grid[:, None]))
    integral = float(np.sum(dens) * (2.0 / n))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and abs(integral - 1.0) <= 1e-3 and elapsed < 60
    verdict(1, "gradient correctness", ok,
            f"max rel err {worst:.2e}, density integral {integral:.5f}, {elapsed:.1f}s")


def test_c02_single_task_sanity():
    t0 = time.perf_counter()
    config = TrainConfig(train_epochs=300)
    task = [TaskSpec("vel1d", (1.0,))]
    reached = {}

    def stop(epoch, reports):
        err = reports[0].extras["vel_abs_error"]
        if err < 0.1 and "epoch" not in reached:
            reached["epoch"] = epoch
            reached["err"] = err
        return err < 0.1

    model, curves = train(config, task, "ear", stop_fn=stop)
    elapsed = time.perf_counter() - t0
    rep = evaluate_policy(model, model.lte_for_task(0), task[0], 3, eval_seed=EVAL_SEED)
    err = rep.extras["vel_abs_error"]
    losses_finite = all(np.isfinite([c.j_q1, c.j_q2, c.j_pi, c.j_alpha, c.alpha]).all()
                        for c in curves)
    ok = ("epoch" in reached and reached["epoch"] < 300 and err < 0.1
          and elapsed < 600 and losses_finite)
    verdict(2, "single-task sanity", ok,
            f"|v-v*|={err:.3f} at epoch {reached.get('epoch')}, {elapsed:.0f}s, "
            f"losses finite {losses_finite}")


def test_c03_multitask_training(vel5_models, dir8_model):
    vel = vel5_models[0]
    vel_errs = [evaluate_policy(vel, vel.lte_for_task(i), t, 3, eval_seed=EVAL_SEED)
                .extras["vel_abs_error"] for i, t in enumerate(vel.tasks)]
    reports = eval_all_tasks(dir8_model, 3, EVAL_SEED)
    along = [r.extras["speed_along"] for r in reports]
    perp = [r.extras["speed_perp"] for r in reports]
    times_ok = all(TRAIN_DURATIONS.get(k, 0.0) < 1800 for k in TRAIN_DURATIONS)
    ok = (max(vel_errs) < 0.15 and np.mean(along) >= 0.5 and max(perp) < 0.15
          and times_ok)
    verdict(3, "multi-task training", ok,
            f"vel max|v-v*|={max(vel_errs):.3f}, dir mean along={np.mean(along):.3f}, "
            f"max perp={max(perp):.3f}")


def test_c04_baseline_ordering(vel5_compare, dir8_compare):
    def final_return(model):
        reps = eval_all_tasks(model, 3, EVAL_SEED)
        return float(np.mean([r.mean_return for r in reps]))

    vel_ear = np.mean([final_return(vel5_compare[s][0]) for s in SEEDS])
    vel_ohe = np.mean([final_return(vel5_compare[s][1]) for s in SEEDS])
    dir_ear = np.mean([final_return(dir8_compare[s][0]) for s in SEEDS])
    dir_ohe = np.mean([final_return(dir8_compare[s][1]) for s in SEEDS])
    ok = vel_ear >= vel_ohe and dir_ear > dir_ohe
    verdict(4, "baseline ordering", ok,
            f"vel EAR {vel_ear:.1f} vs OHE {vel_ohe:.1f}; "
            f"dir EAR {dir_ear:.1f} vs OHE {dir_ohe:.1f}")


def midtask_outcomes(models):
    """search_beta success per (seed, adjacent pair) at tol 0.1."""
    outcomes = []
    for s, model in models.items():
        for i, j in adjacent_pairs(model):
            target = 0.5 * (model.tasks[i].target_array[0]
                            + model.tasks[j].target_array[0])
            res = search_beta(model, model.lte_for_task(i), model.lte_for_task(j),
                              target, 0.1, model.tasks[i], eval_seed=EVAL_SEED)
            outcomes.append(res.found)
    return outcomes


def test_c05_interpolation_monotonicity_and_midtask(vel5_models):
    rhos = []
    for s, model in vel5_models.items():
        for i, j in adjacent_pairs(model):
            vels = pair_sweep(model, i, j)
            rhos.append(spearman(vels, 1.0 - BETAS_11))
    found = midtask_outcomes(vel5_models)
    rate = np.mean(found)
    ok = min(rhos) >= 0.9 and rate >= 0.8
    verdict(5, "interpolation monotonicity and mid-task search", ok,
            f"min Spearman {min(rhos):.3f} over {len(rhos)} pair-seeds, "
            f"mid-task success {sum(found)}/{len(found)}")


def test_c06_one_to_one_interpolation(vel5_models):
    hits = []
    for s, model in vel5_models.items():
        for i, j in adjacent_pairs(model):
            vels = pair_sweep(model, i, j)
            lo, hi = sorted((vels[0], vels[-1]))
            hits.append(lo < vels[5] < hi)
    rate = np.mean(hits)
    verdict(6, "1:1 interpolation", rate >= 0.8,
            f"strictly-between rate {sum(hits)}/{len(hits)}")


def test_c07_extrapolation_smoke(vel5_models):
    outcomes = []
    for s, model in vel5_models.items():
        pairs = adjacent_pairs(model)[1:-1]  # endpoints interior to the range
        for i, j in pairs:
            end_i = evaluate_policy(model, model.lte_for_task(i), model.tasks[i],
                                    1, eval_seed=EVAL_SEED).metric
            end_j = evaluate_policy(model, model.lte_for_task(j), model.tasks[j],
                                    1, eval_seed=EVAL_SEED).metric
            rows = interpolation_sweep(model, model.lte_for_task(i),
                                       model.lte_for_task(j), [1.2, -0.2],
                                       model.tasks[i], eval_seed=EVAL_SEED)
            beyond_slow = rows[0].metric < end_i
            beyond_fast = rows[1].metric > end_j
            outcomes.append(beyond_slow or beyond_fast)
    rate = np.mean(outcomes)
    verdict(7, "extrapolation smoke", rate >= 0.5,
            f"pairs with >=1 correct probe: {sum(outcomes)}/{len(outcomes)}")


def test_c08_cem_adaptation(vel5_models):
    t0 = time.perf_counter()
    cfg = CemConfig(elite_capacity=4, samples_per_elite=8, adapt_epochs=10,
                    sample_sigma=0.3, sigma_decay=0.9)
    _, trace = cem_optimize(
        lambda Z: np.array([float(z @ np.array([0.0, 0.0, 1.0])) for z in Z]), cfg)
    synth_ok = trace.epochs[-1].best_return >= 0.99

    cem_returns, sweep_returns = [], []
    for s, model in vel5_models.items():
        task = TaskSpec("vel1d", (1.25,),
                        reward_ctrl_cost=model.tasks[0].reward_ctrl_cost)
        rows = interpolation_sweep(model, model.lte_for_task(1), model.lte_for_task(2),
                                   np.linspace(0, 1, 21), task, eval_seed=EVAL_SEED)
        sweep_returns.append(max(r.mean_return for r in rows))
        best, _ = cem_adapt(model, task, CemConfig(adapt_epochs=3), eval_seed=s)
        cem_returns.append(evaluate_policy(model, best, task, 1,
                                           eval_seed=EVAL_SEED).mean_return)
    mean_cem = float(np.mean(cem_returns))
    mean_sweep = float(np.mean(sweep_returns))
    within = mean_cem >= mean_sweep - 0.1 * abs(mean_sweep)
    elapsed = time.perf_counter() - t0
    ok = synth_ok and within and elapsed < 600
    verdict(8, "few-epoch adaptation", ok,
            f"synthetic best {trace.epochs[-1].best_return:.4f}, "
            f"cem {mean_cem:.2f} vs sweep {mean_sweep:.2f}, {elapsed:.0f}s")


def test_c09_composition(runjump_model):
    model = runjump_model
    run_ids = [i for i, t in enumerate(model.tasks) if not t.jump_modality]
    jump_ids = [i for i, t in enumerate(model.tasks) if t.jump_modality]
    run_id = run_ids[-1]
    jump_id = jump_ids[-1]
    z_run, z_jump = model.lte_for_task(run_id), model.lte_for_task(jump_id)
    pure_run = evaluate_policy(model, z_run, model.tasks[run_id], 1,
                               eval_seed=EVAL_SEED).extras["mean_abs_vx"]
    pure_jump = evaluate_policy(model, z_jump, model.tasks[jump_id], 1,
                                eval_seed=EVAL_SEED).extras["mean_height"]
    best = None
    ok = False
    for row in compose(model, z_run, z_jump, np.linspace(0.1, 0.9, 9), model.tasks[run_id],
                       eval_seed=EVAL_SEED):
        if row.skipped:
            continue
        beta, height, abs_vx = row.beta, row.extras["mean_height"], row.extras["mean_abs_vx"]
        if best is None or height + abs_vx > best[1] + best[2]:
            best = (beta, height, abs_vx)
        if abs_vx >= 0.5 * pure_run and height >= 0.5 * pure_jump:
            ok = True
            best = (beta, height, abs_vx)
            break
    verdict(9, "run+jump composition", ok and pure_jump > 0.5,
            f"pure |vx| {pure_run:.2f}, pure height {pure_jump:.2f}, "
            f"best beta {None if best is None else round(float(best[0]), 2)} "
            f"-> height {0 if best is None else best[1]:.2f}, |vx| "
            f"{0 if best is None else best[2]:.2f}")


def test_c10_representation_analyses(vel5_models, dir8_model):
    # PCA properties
    rng = np.random.default_rng(0)
    t = np.linspace(-1, 1, 60)
    line = pca(np.stack([t, 2 * t], axis=1), 2)
    direction = line.components[0] * np.sign(line.components[0, 0])
    line_ok = (np.allclose(direction, np.array([1.0, 2.0]) / np.sqrt(5), atol=1e-9)
               and abs(line.eigenvalues[1]) <= 1e-12)
    data = rng.normal(size=(50, 5)) @ rng.normal(size=(5, 5))
    full = pca(data, 5)
    ortho_ok = np.max(np.abs(full.components @ full.components.T - np.eye(5))) < 1e-9
    recon_ok = np.max(np.abs(pca_reconstruct(full) - data)) < 1e-9

    # periodicity non-inferiority on the trained direction model
    res = lse_trajectory_analysis(dir8_model, dir8_model.tasks[1], 1, eval_seed=3)
    period_ok = res.lse_score >= res.raw_score - 0.05

    # sphere continuity on a trained velocity model
    model = vel5_models[0]
    cells = evaluate_sphere(model, model.tasks[0], 12, eval_seed=EVAL_SEED)
    metric = np.array([c.metric for c in cells])
    diffs = np.array([abs(metric[a] - metric[b]) for a, b in sphere_adjacency(12)])
    cont = float(np.mean(diffs < 0.5))
    ok = line_ok and ortho_ok and recon_ok and period_ok and cont >= 0.95
    verdict(10, "representation analyses", ok,
            f"pca ok={line_ok and ortho_ok and recon_ok}, "
            f"periodicity lse {res.lse_score:.2f} vs raw {res.raw_score:.2f}, "
            f"sphere continuity {cont:.3f}")


def test_c11_ablations(vel5_models, vel5_nonorm_models, dir8_model, dir8_nonoise_model):
    """Normalization off must not improve mid-task search; noise off must
    not reduce evaluation variance.

    The five evaluation episodes for the variance comparison each apply a
    small, seeded embedding perturbation (the same sigma used in
    training) before the deterministic rollout: the toy point mass has no
    intrinsic failure mode, so sensitivity to a perturbed conditioning
    vector is the stability axis that noise injection targets.
    """
    norm_rate = float(np.mean(midtask_outcomes(vel5_models)))
    nonorm_rate = float(np.mean(midtask_outcomes(vel5_nonorm_models)))
    norm_ok = nonorm_rate <= norm_rate

    from latent_motor.embedding import inject_noise
    from latent_motor.rng import eval_generator

    def perturbed_task_variance(model, sigma=0.05, episodes=5):
        per_task = []
        for i, task in enumerate(model.tasks):
            rets = []
            for e in range(episodes):
                rng = eval_generator(EVAL_SEED, 555, i, e)
                z = inject_noise(model.lte_for_task(i), sigma, rng)
                rets.append(evaluate_policy(model, z, task, 1,
                                            eval_seed=1000 + e).mean_return)
            per_task.append(float(np.var(rets)))
        return float(np.mean(per_task))

    noisy_var = perturbed_task_variance(dir8_model)
    plain_var = perturbed_task_variance(dir8_nonoise_model)
    noise_ok = plain_var >= noisy_var
    verdict(11, "constraint ablations", norm_ok and noise_ok,
            f"mid-task rate norm {norm_rate:.2f} vs no-norm {nonorm_rate:.2f}; "
            f"perturbed-eval variance no-noise {plain_var:.1f} vs noise {noisy_var:.1f}")


def test_c12_infrastructure(vel5_models, tmp_path):
    # checkpoint bitwise round trip
    from latent_motor.checkpoint import load_checkpoint, save_checkpoint
    model = vel5_models[0]
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_checkpoint(model, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    roundtrip_ok = open(p1, "rb").read() == open(p2, "rb").read()

    # CLI determinism, single-threaded
    doc = {
        "seed": 5,
        "env": {"family": "vel1d", "count": 2},
        "train": {"pretrain_epochs": 1, "train_epochs": 2, "optimization_times": 2,
                  "batch_size": 8, "hidden_width": 8, "lse_dim": 4},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["train", "--config", str(cfg_path), "--threads", "1",
                         "--out", str(out)]) == 0
        outs.append(out)
    det_ok = ((outs[0] / "model.ckpt.json").read_bytes()
              == (outs[1] / "model.ckpt.json").read_bytes()
              and (outs[0] / "curves.csv").read_bytes()
              == (outs[1] / "curves.csv").read_bytes())

    # exact elitism on the deterministic environment
    task = TaskSpec("vel1d", (1.1,), reward_ctrl_cost=model.tasks[0].reward_ctrl_cost)
    _, trace = cem_adapt(model, task, CemConfig(adapt_epochs=5), eval_seed=1)
    elite_ok = bool(np.all(np.diff(trace.best_returns()) >= 0.0))
    verdict(12, "infrastructure", roundtrip_ok and det_ok and elite_ok,
            f"roundtrip {roundtrip_ok}, determinism {det_ok}, elitism {elite_ok}")
