"""CLI and configuration-schema tests.

Training configs here are minuscule; the point is the command surface:
artifacts, manifests, determinism, exit codes, and strict config parsing.
"""

import base64
import dataclasses
import json
import os

import numpy as np
import pytest

from latent_motor.checkpoint import file_sha256
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
    with pytest.raises(ConfigurationError, match=r"unknown keys in env: \['jump_count'\]"):
        parse_config({"env": {"family": "runjump", "jump_count": 2}})


def test_config_bad_family():
    with pytest.raises(ConfigurationError):
        parse_config({"env": {"family": "mujoco"}})


def test_config_file_not_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{nope")
    with pytest.raises(ConfigurationError):
        load_config(str(p))


def test_config_section_seed_is_an_unknown_key():
    # the seed is set once, at the top level; no section holds a copy of it
    for name in ("train", "cem"):
        with pytest.raises(ConfigurationError, match=rf"unknown keys in {name}: \['seed'\]"):
            parse_config({"seed": 4, name: {"seed": 4}})


def test_config_seed_resolution(tmp_path):
    # the config's seed is the run's seed unless --seed overrides it
    cfg = write_config(tmp_path)
    assert load_config(cfg).seed == 3 and parse_config({}).seed == 0
    for flags, seed in (([], 3), (["--seed", "11"], 11)):
        out = str(tmp_path / f"s{seed}")
        assert main(["train", "--config", cfg, "--out", out, *flags]) == 0
        assert load_config(os.path.join(out, "config.json")) == \
            dataclasses.replace(load_config(cfg), seed=seed, out_dir=out)


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


def test_seed_flag_beats_config(tmp_path):
    # --seed 9 over a config with seed 3 trains what a config with seed 9 trains
    models = {}
    for name, seed, flags, run_seed in (("flag", 3, ["--seed", "9"], 9), ("config", 9, [], 9),
                                        ("config3", 3, [], 3)):
        out = tmp_path / name
        cfg = write_config(tmp_path, name=f"{name}.json", seed=seed, out_dir=str(out))
        assert main(["train", "--config", cfg, *flags]) == 0
        assert json.load(open(out / "manifest.json"))["seed"] == run_seed
        models[name] = (out / "model.ckpt.json").read_bytes()
    assert models["flag"] == models["config"] != models["config3"]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_seed_exits_1_with_one_line(tmp_path, capsys, source):
    out = tmp_path / "run"
    argv = ["train", "--out", str(out)]
    if source == "flag":
        argv += ["--seed", "-1"]
        fragment = "the seed must be >= 0, got -1"
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


def test_manifest_records_numeric_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    _, out = train_once(tmp_path)
    numeric = json.load(open(os.path.join(out, "manifest.json")))["numeric"]
    assert set(numeric) == {"blas", "blas_version", "OPENBLAS_NUM_THREADS",
                            "OMP_NUM_THREADS", "nproc", "libc", "network_dtype"}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert (numeric["blas"], numeric["blas_version"]) == (blas["name"], blas["version"])
    assert numeric["OPENBLAS_NUM_THREADS"] == "1" and numeric["OMP_NUM_THREADS"] is None
    assert isinstance(numeric["nproc"], int) and numeric["nproc"] >= 1
    assert isinstance(numeric["libc"], str)
    assert numeric["network_dtype"] == "float32"


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
    assert os.path.exists(os.path.join(out, "config.json"))


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


@pytest.fixture(scope="module")
def trained_runjump(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_runjump")
    cfg = write_config(tmp, out_dir=str(tmp / "run"), env={"family": "runjump", "run_count": 2})
    assert main(["train", "--config", cfg]) == 0
    return cfg, str(tmp / "run" / "model.ckpt.json")


def test_compose_csv(trained_runjump, tmp_path):
    cfg, ckpt = trained_runjump  # tasks 0-1 run, 2-3 jump
    out = str(tmp_path / "comp")
    assert main(["compose", "--config", cfg, "--checkpoint", ckpt, "--out", out,
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
    written = str(tmp / "run" / "config.json")
    doc = json.load(open(written))  # holds the seed once
    assert doc["seed"] == 3 and "seed" not in doc["train"] and "seed" not in doc["cem"]
    assert load_config(written) == load_config(cfg)
    assert main(["eval", "--config", written, "--checkpoint", ckpt,
                 "--out", str(tmp_path / "e"), "--episodes", "1"]) == 0


# Each subcommand with the flags of one small run; compose runs on the
# run/jump checkpoint, the others on `trained`.
COMMAND_FLAGS = {
    "train": [],
    "train-baseline": ["--kind", "mhmt"],
    "adapt": ["--target", "1.0"],
    "interp": ["--task-i", "0", "--task-j", "1", "--beta-list", "0.5"],
    "search-beta": ["--task-i", "0", "--task-j", "1", "--target", "0.0", "--tol", "5.0"],
    "compose": ["--task-a", "1", "--task-b", "2", "--beta-count", "2"],
    "sphere": [],
    "lse-viz": [],
    "eval": ["--episodes", "1"],
    "grad-check": [],
}


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_run_directory_holds_config_and_manifest(trained, trained_runjump, tmp_path, command):
    cfg, ckpt = trained_runjump if command == "compose" else trained[:2]
    out = str(tmp_path / "out")
    argv = [command, "--config", cfg, "--seed", "11", "--out", out, *COMMAND_FLAGS[command]]
    reads_checkpoint = command not in ("train", "train-baseline", "grad-check")
    if reads_checkpoint:
        argv += ["--checkpoint", ckpt]
    assert main(argv) == 0
    if command == "grad-check":
        assert not os.path.exists(out)
        return
    written = load_config(os.path.join(out, "config.json"))
    assert written == dataclasses.replace(load_config(cfg), seed=11, out_dir=out)
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert (manifest["command"], manifest["seed"]) == (command, 11)
    assert manifest["argv"] == argv
    assert manifest["config_sha256"] == file_sha256(cfg)
    assert manifest["checkpoint_sha256"] == (file_sha256(ckpt) if reads_checkpoint else None)
    assert not [name for name in os.listdir(out) if name.endswith(".meta.json")]


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
            (["search-beta", *pair, "--target", "nan"], "--target must be finite"),
            # 0 is given, not unset: it must not fall back to the config's resolution
            (["sphere", "--resolution", "0"], "resolution must be >= 2")):
        assert main(argv + common) == 1, argv
        assert_one_error_line(capsys, fragment)
    for name in ("eval.json", "sweep.csv", "compose.csv", "search_beta.json", "sphere.csv"):
        assert not os.path.exists(str(tmp_path / "x" / name)), name


def test_adapt_non_finite_jump_weight_exits_1(trained_runjump, tmp_path, capsys):
    cfg, ckpt = trained_runjump
    out = str(tmp_path / "a")
    assert main(["adapt", "--config", cfg, "--checkpoint", ckpt, "--out", out,
                 "--jump-weight", "nan"]) == 1
    assert_one_error_line(capsys, "modality weight must be >= 0")
    assert not os.path.exists(os.path.join(out, "best_lte.json"))


def test_adapt_jump_weight_on_a_non_runjump_model_exits_1(trained, tmp_path, capsys):
    cfg, ckpt, _ = trained  # a vel1d checkpoint: --jump-weight must not fall back to --target
    out = str(tmp_path / "a")
    assert main(["adapt", "--config", cfg, "--checkpoint", ckpt, "--out", out,
                 "--jump-weight", "2.0"]) == 1
    assert_one_error_line(capsys, "--jump-weight needs a runjump checkpoint, this one is vel1d")
    assert not os.path.exists(os.path.join(out, "best_lte.json"))


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
    if isinstance(doc, dict) and set(doc) in ({"shape", "f4"}, {"shape", "f8"}):
        [key] = set(doc) - {"shape"}
        raw = base64.b64decode(doc[key])
        return np.frombuffer(raw, dtype="<" + key).reshape(doc["shape"]).tolist()
    if isinstance(doc, dict):
        return {k: as_version_1(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [as_version_1(v) for v in doc]
    return doc


@pytest.mark.parametrize("damage,fragment", [
    (lambda doc: {**as_version_1(doc), "format_version": 1},
     "unsupported checkpoint version 1; this build reads version 7"),
    (lambda doc: {**doc, "format_version": 2},
     "unsupported checkpoint version 2; this build reads version 7"),
    (lambda doc: {**doc, "format_version": 3},
     "unsupported checkpoint version 3; this build reads version 7"),
    (lambda doc: {**doc, "format_version": 4},
     "unsupported checkpoint version 4; this build reads version 7"),
    (lambda doc: {**doc, "format_version": 5},
     "unsupported checkpoint version 5; this build reads version 7"),
    (lambda doc: {**doc, "format_version": 6},
     "unsupported checkpoint version 6; this build reads version 7"),
    (lambda doc: [doc], "unsupported checkpoint version None"),
    (lambda doc: doc["q"].update(f4="%%corrupt%%"), "malformed array q:"),
    (lambda doc: doc["policy"].update(shape=[3, 3]), "malformed array policy: cannot reshape"),
], ids=["v1", "v2", "v3", "v4", "v5", "v6", "not-object", "bad-base64", "bad-shape"])
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
