"""CLI and configuration-schema tests.

Training configs here are minuscule; the point is the command surface:
artifacts, manifests, determinism, exit codes, and strict config parsing.
"""

import base64
import json
import os

import numpy as np
import pytest

from latent_motor.cli import main
from latent_motor.config import load_config, parse_config
from latent_motor.errors import ConfigurationError


TINY_TRAIN = {
    "pretrain_epochs": 1,
    "train_epochs": 2,
    "optimization_times": 2,
    "batch_size": 8,
    "hidden_width": 8,
    "lse_dim": 4,
}


def write_config(tmp_path, name="config.json", **over):
    doc = {
        "seed": 3,
        "out_dir": str(tmp_path / "run"),
        "env": {"family": "vel1d", "count": 2},
        "train": dict(TINY_TRAIN),
        "cem": {"elite_capacity": 2, "samples_per_elite": 1, "adapt_epochs": 2},
        "analysis": {"sphere_resolution": 2, "episodes": 1},
    }
    doc.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def train_once(tmp_path, out="run"):
    cfg = write_config(tmp_path, out_dir=str(tmp_path / out))
    assert main(["train", "--config", cfg]) == 0
    return cfg, str(tmp_path / out)


# --- config schema ---

def test_config_defaults_parse():
    cfg = parse_config({})
    assert cfg.train.batch_size == 256
    assert cfg.train.optimization_times == 200
    assert cfg.train.pretrain_epochs == 20
    assert cfg.cem.elite_capacity == 5


def test_config_unknown_top_level_key():
    with pytest.raises(ConfigurationError, match="unknown top-level"):
        parse_config({"sede": 1})


def test_config_unknown_section_key():
    with pytest.raises(ConfigurationError, match="unknown keys in train"):
        parse_config({"train": {"bacth_size": 4}})
    with pytest.raises(ConfigurationError, match="unknown keys in analysis"):
        parse_config({"analysis": {"pca_components": 2}})


def test_config_bad_family():
    with pytest.raises(ConfigurationError):
        parse_config({"env": {"family": "mujoco"}})


def test_config_file_not_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{nope")
    with pytest.raises(ConfigurationError):
        load_config(str(p))


def test_config_section_seed_must_repeat_top_level_seed():
    for doc in ({"train": {"seed": 5}}, {"seed": 2, "cem": {"seed": 9}}):
        with pytest.raises(ConfigurationError, match="differs from the top-level seed"):
            parse_config(doc)
    cfg = parse_config({"seed": 4, "train": {"seed": 4}, "cem": {"seed": 4}})
    assert cfg.resolved().train.seed == 4 and cfg.resolved().cem.seed == 4


def test_config_seed_resolution(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.resolved().train.seed == 3
    assert cfg.resolved(11).train.seed == 11
    assert cfg.resolved(11).cem.seed == 11


# --- train command ---

def test_train_writes_artifacts(tmp_path):
    _, out = train_once(tmp_path)
    for name in ("config.json", "curves.csv", "model.ckpt.json", "manifest.json"):
        assert os.path.exists(os.path.join(out, name)), name
    header = open(os.path.join(out, "curves.csv")).readline().strip().split(",")
    assert header == ["epoch", "task_id", "mean_return", "achieved_metric",
                      "j_q1", "j_q2", "j_pi", "j_alpha", "alpha"]


def test_train_deterministic_across_invocations(tmp_path):
    cfg = write_config(tmp_path, out_dir=str(tmp_path / "r1"))
    assert main(["train", "--config", cfg, "--seed", "7"]) == 0
    cfg2 = write_config(tmp_path, name="config2.json", out_dir=str(tmp_path / "r2"))
    assert main(["train", "--config", cfg2, "--seed", "7"]) == 0
    c1 = open(tmp_path / "r1" / "model.ckpt.json", "rb").read()
    c2 = open(tmp_path / "r2" / "model.ckpt.json", "rb").read()
    assert c1 == c2
    assert (tmp_path / "r1" / "curves.csv").read_bytes() == \
           (tmp_path / "r2" / "curves.csv").read_bytes()


def test_seed_env_var_and_flag_priority(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, out_dir=str(tmp_path / "rv"))
    monkeypatch.setenv("LATENT_MOTOR_SEED", "5")
    assert main(["train", "--config", cfg]) == 0
    manifest = json.load(open(tmp_path / "rv" / "manifest.json"))
    assert manifest["seed"] == 5
    assert main(["train", "--config", cfg, "--seed", "9",
                 "--out", str(tmp_path / "rv2")]) == 0
    manifest = json.load(open(tmp_path / "rv2" / "manifest.json"))
    assert manifest["seed"] == 9


@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_bad_seed_exits_1_with_one_line(tmp_path, monkeypatch, capsys, source):
    out = tmp_path / "run"
    argv = ["train", "--out", str(out)]
    if source == "flag":
        argv += ["--seed", "-1"]
        fragment = "the seed must be >= 0, got -1"
    elif source == "env":
        argv = ["grad-check"]
        monkeypatch.setenv("LATENT_MOTOR_SEED", "x")
        fragment = "LATENT_MOTOR_SEED must be an integer, got 'x'"
    else:
        argv += ["--config", write_config(tmp_path, seed=-1)]
        fragment = "config.seed must be >= 0, got -1"
    assert main(argv) == 1
    assert_one_error_line(capsys, fragment)
    assert not out.exists()


def test_train_baseline_kind(tmp_path):
    cfg = write_config(tmp_path, out_dir=str(tmp_path / "rb"))
    assert main(["train-baseline", "--kind", "ohe", "--config", cfg]) == 0
    ckpt = json.load(open(tmp_path / "rb" / "model.ckpt.json"))
    assert ckpt["kind"] == "ohe"


def test_manifest_contents(tmp_path):
    cfg, out = train_once(tmp_path)
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["command"] == "train"
    assert manifest["config_sha256"]
    assert manifest["versions"]["latent_motor"]
    assert manifest["versions"]["numpy"]


# --- checkpoint-consuming commands ---

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_trained")
    cfg = write_config(tmp, out_dir=str(tmp / "run"))
    assert main(["train", "--config", cfg]) == 0
    return cfg, str(tmp / "run" / "model.ckpt.json"), tmp


def test_interp_rows_per_beta(trained, tmp_path):
    cfg, ckpt, _ = trained
    out = str(tmp_path / "interp")
    assert main(["interp", "--config", cfg, "--checkpoint", ckpt, "--out", out,
                 "--task-i", "0", "--task-j", "1", "--beta-list", "1.0,0.5,0.0"]) == 0
    lines = open(os.path.join(out, "sweep.csv")).read().strip().splitlines()
    assert len(lines) == 4  # header + 3 rows
    assert os.path.exists(os.path.join(out, "sweep.csv.meta.json"))


def test_interp_does_not_mutate_checkpoint(trained, tmp_path):
    cfg, ckpt, _ = trained
    before = open(ckpt, "rb").read()
    out = str(tmp_path / "interp2")
    assert main(["interp", "--config", cfg, "--checkpoint", ckpt, "--out", out,
                 "--task-i", "0", "--task-j", "1", "--beta-list", "0.5"]) == 0
    assert open(ckpt, "rb").read() == before


def test_adapt_emits_trace_and_best(trained, tmp_path):
    cfg, ckpt, _ = trained
    out = str(tmp_path / "adapt")
    assert main(["adapt", "--config", cfg, "--checkpoint", ckpt, "--out", out,
                 "--target", "1.25"]) == 0
    assert os.path.exists(os.path.join(out, "trace.csv"))
    best = json.load(open(os.path.join(out, "best_lte.json")))
    assert len(best["lte"]) == 3
    assert abs(np.linalg.norm(best["lte"]) - 1.0) < 1e-9


def test_search_beta_json(trained, tmp_path):
    cfg, ckpt, _ = trained
    out = str(tmp_path / "sb")
    assert main(["search-beta", "--config", cfg, "--checkpoint", ckpt, "--out", out,
                 "--task-i", "0", "--task-j", "1", "--target", "0.0", "--tol", "5.0"]) == 0
    res = json.load(open(os.path.join(out, "search_beta.json")))
    assert res["found"] is True


def test_sphere_csv(trained, tmp_path):
    cfg, ckpt, _ = trained
    out = str(tmp_path / "sphere")
    assert main(["sphere", "--config", cfg, "--checkpoint", ckpt, "--out", out]) == 0
    lines = open(os.path.join(out, "sphere.csv")).read().strip().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2  # header + resolution*2*resolution
    assert os.path.exists(os.path.join(out, "sphere_edges.csv"))


def test_lse_viz(trained, tmp_path):
    cfg, ckpt, _ = trained
    out = str(tmp_path / "lse")
    assert main(["lse-viz", "--config", cfg, "--checkpoint", ckpt, "--out", out]) == 0
    scores = json.load(open(os.path.join(out, "lse_scores.json")))
    assert 0.0 <= scores["lse_score"] <= 1.0


def test_compose_csv(tmp_path):
    doc = {
        "seed": 1,
        "out_dir": str(tmp_path / "rj"),
        "env": {"family": "runjump", "run_count": 2, "jump_count": 2},
        "train": dict(TINY_TRAIN),
        "analysis": {"episodes": 1},
    }
    cfg = tmp_path / "rj.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 0
    ckpt = str(tmp_path / "rj" / "model.ckpt.json")
    out = str(tmp_path / "comp")
    assert main(["compose", "--config", str(cfg), "--checkpoint", ckpt, "--out", out,
                 "--task-a", "1", "--task-b", "2", "--beta-count", "3"]) == 0
    lines = open(os.path.join(out, "compose.csv")).read().strip().splitlines()
    assert lines[0] == "beta,mean_abs_vx,mean_height,mean_return,skipped"
    assert len(lines) == 4


def test_eval_json(trained, tmp_path):
    cfg, ckpt, _ = trained
    out = str(tmp_path / "eval")
    assert main(["eval", "--config", cfg, "--checkpoint", ckpt, "--out", out,
                 "--task-index", "1", "--episodes", "2"]) == 0
    rep = json.load(open(os.path.join(out, "eval.json")))
    assert np.isfinite(rep["mean_return"])
    assert len(rep["episode_returns"]) == 2


def test_written_config_loads_back_as_config(trained, tmp_path):
    cfg, ckpt, tmp = trained
    written = str(tmp / "run" / "config.json")  # repeats the seed in every section
    doc = json.load(open(written))
    assert doc["seed"] == doc["train"]["seed"] == doc["cem"]["seed"] == 3
    assert load_config(written).resolved().train.seed == 3
    assert main(["eval", "--config", written, "--checkpoint", ckpt,
                 "--out", str(tmp_path / "e"), "--episodes", "1"]) == 0


def test_csv_outputs_stable_under_rerun(trained, tmp_path):
    cfg, ckpt, _ = trained
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    args = ["--config", cfg, "--checkpoint", ckpt, "--task-i", "0", "--task-j", "1",
            "--beta-list", "0.75,0.25"]
    assert main(["interp", *args, "--out", out1]) == 0
    assert main(["interp", *args, "--out", out2]) == 0
    assert open(os.path.join(out1, "sweep.csv"), "rb").read() == \
           open(os.path.join(out2, "sweep.csv"), "rb").read()


# --- grad-check and exit codes ---

def test_grad_check_exit_zero():
    assert main(["grad-check"]) == 0


def assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ConfigurationError:") and "\n" not in err
    for fragment in fragments:
        assert fragment in err


def test_task_index_out_of_range_exits_1(trained, tmp_path, capsys):
    cfg, ckpt, _ = trained  # a 2-task checkpoint
    common = ["--config", cfg, "--checkpoint", ckpt, "--out", str(tmp_path / "x")]
    for argv in (["interp", "--task-i", "7", "--task-j", "0"],
                 ["interp", "--task-i", "0", "--task-j", "2"],
                 ["search-beta", "--task-i", "5", "--task-j", "0", "--target", "1.0"],
                 ["compose", "--task-a", "0", "--task-b", "3"],
                 ["sphere", "--task-index", "5"],
                 ["lse-viz", "--task-index", "2"],
                 ["eval", "--task-index", "9"]):
        assert main(argv + common) == 1, argv
        assert_one_error_line(capsys, "out of range [0, 2)")
    assert not os.path.exists(str(tmp_path / "x" / "sphere.csv"))


def test_negative_task_index_exits_1(trained, tmp_path, capsys):
    cfg, ckpt, _ = trained
    common = ["--config", cfg, "--checkpoint", ckpt, "--out", str(tmp_path / "x")]
    for argv in (["interp", "--task-i", "-1", "--task-j", "1"],
                 ["sphere", "--task-index", "-1"],
                 ["eval", "--task-index", "-2"]):
        assert main(argv + common) == 1, argv
        assert_one_error_line(capsys, "task index -")
    assert not os.path.exists(str(tmp_path / "x" / "sweep.csv"))


def test_malformed_numbers_exit_1(trained, tmp_path, capsys):
    cfg, ckpt, _ = trained  # a 2-task ear checkpoint with 3-d embeddings
    common = ["--config", cfg, "--checkpoint", ckpt, "--out", str(tmp_path / "x")]
    pair = ["--task-i", "0", "--task-j", "1"]
    for argv, fragment in (
            (["eval", "--lte", "a,b,c"], "--lte must be comma-separated numbers"),
            (["interp", *pair, "--beta-list", "0.5,x"], "--beta-list must be"),
            (["compose", "--task-a", "0", "--task-b", "1", "--beta-count", "-1"],
             "--beta-count must be >= 1"),
            (["compose", "--task-a", "0", "--task-b", "1", "--beta-count", "0"],
             "--beta-count must be >= 1"),
            (["eval", "--lte", "nan,1,0"], "embeddings must be finite"),
            (["search-beta", *pair, "--target", "1.0", "--tol", "-1"], "--tol must be >= 0"),
            (["search-beta", *pair, "--target", "nan"], "--target must be finite")):
        assert main(argv + common) == 1, argv
        assert_one_error_line(capsys, fragment)
    for name in ("eval.json", "sweep.csv", "compose.csv", "search_beta.json"):
        assert not os.path.exists(str(tmp_path / "x" / name)), name


def test_eval_lte_on_baseline_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, out_dir=str(tmp_path / "ohe"))
    assert main(["train-baseline", "--kind", "ohe", "--config", cfg]) == 0
    ckpt, out = str(tmp_path / "ohe" / "model.ckpt.json"), str(tmp_path / "e")
    assert main(["eval", "--config", cfg, "--checkpoint", ckpt, "--out", out,
                 "--task-index", "1", "--lte", "1,0,0"]) == 1
    assert_one_error_line(capsys, "ohe policy takes no task embedding")
    assert not os.path.exists(os.path.join(out, "eval.json"))


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_runtime_failure_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.ckpt.json")
    out = str(tmp_path / "x")
    code = main(["eval", "--checkpoint", missing, "--out", out])
    assert code == 1
    err = capsys.readouterr().err
    assert err.strip().startswith("error:")
    cfg = write_config(tmp_path, name="c2.json")
    p = tmp_path / "corrupt.json"
    p.write_text("{broken")
    code = main(["eval", "--config", cfg, "--checkpoint", str(p),
                 "--out", str(tmp_path / "y")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.strip().startswith("error:")
    assert "\n" not in err.strip()


def as_version_1(doc):
    """The document in the version-1 layout: arrays as nested decimal lists."""
    if isinstance(doc, dict) and set(doc) == {"shape", "f8"}:
        raw = base64.b64decode(doc["f8"])
        return np.frombuffer(raw, dtype="<f8").reshape(doc["shape"]).tolist()
    if isinstance(doc, dict):
        return {k: as_version_1(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [as_version_1(v) for v in doc]
    return doc


@pytest.mark.parametrize("damage,fragment", [
    (lambda doc: {**as_version_1(doc), "format_version": 1},
     "unsupported checkpoint version 1; this build reads version 2"),
    (lambda doc: [doc], "unsupported checkpoint version None"),
    (lambda doc: doc["q1"]["weights"][0].update(f8="%%corrupt%%"),
     "malformed array q1.weights[0]"),
    (lambda doc: doc["policy"]["encoder"]["biases"][0].update(shape=[3, 3]),
     "malformed array policy.encoder.biases[0]: cannot reshape"),
])
def test_bad_checkpoint_exits_1_with_one_line(trained, tmp_path, capsys, damage, fragment):
    cfg, ckpt, _ = trained
    doc = json.loads(open(ckpt).read())
    doc = damage(doc) or doc  # damage edits doc in place or returns a new one
    path = tmp_path / "bad.ckpt.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "e")
    assert main(["eval", "--config", cfg, "--checkpoint", str(path), "--out", out]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: CheckpointError:") and "\n" not in err
    assert fragment in err
    assert not os.path.exists(os.path.join(out, "eval.json"))
