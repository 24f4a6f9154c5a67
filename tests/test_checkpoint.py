"""Checkpoint round-trip, validation, and corruption handling."""

import base64
import json
import re

import numpy as np
import pytest

from latent_motor.checkpoint import (
    checkpoint_payload,
    dump_bytes,
    file_sha256,
    load_checkpoint,
    save_checkpoint,
)
from latent_motor.envs import make_task_set
from latent_motor.errors import CheckpointError
from latent_motor.sac import SacModel, TrainConfig, evaluate_policy, sac_update
from latent_motor.replay import Batch


def small_model(kind="ear", seed=0):
    cfg = TrainConfig(pretrain_epochs=0, train_epochs=1, optimization_times=1,
                      batch_size=8, seed=seed, hidden_width=8, lse_dim=4)
    model = SacModel(kind, make_task_set("vel1d", count=3), cfg)
    rng = np.random.default_rng(seed)
    batch = Batch(
        obs=rng.normal(size=(8, 1)), action=rng.uniform(-1, 1, (8, 1)),
        reward=rng.normal(size=8), next_obs=rng.normal(size=(8, 1)),
        truncated=np.zeros(8, bool), task_id=rng.integers(0, 3, 8),
    )
    for _ in range(3):
        sac_update(model, batch)
    return model


def decode(obj):
    """A stored array, read without the package's loader."""
    raw = base64.b64decode(obj["f8"])
    return np.frombuffer(raw, dtype="<f8").reshape(obj["shape"]).copy()


def encode(a):
    """Store an array as the loader expects it, whatever its values."""
    a = np.asarray(a, dtype="<f8")
    return {"shape": list(a.shape), "f8": base64.b64encode(a.tobytes()).decode("ascii")}


def saved_doc(tmp_path, kind="ear"):
    path = str(tmp_path / "m.ckpt.json")
    save_checkpoint(small_model(kind), path)
    return path, json.loads(open(path).read())


def keys(field):
    """Keys of a dotted path with [k] list indices, e.g. "q1.biases[0]"."""
    parts = field.replace("[", ".").replace("]", "").split(".")
    return [int(p) if p.isdigit() else p for p in parts]


def get_field(doc, field):
    for key in keys(field):
        doc = doc[key]
    return doc


def replace_field(doc, field, value):
    *head, last = keys(field)
    for key in head:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize("kind", ["ear", "ohe", "mhmt"])
def test_save_load_save_identical_bytes(tmp_path, kind):
    model = small_model(kind)
    p1 = tmp_path / "a.ckpt.json"
    p2 = tmp_path / "b.ckpt.json"
    save_checkpoint(model, str(p1))
    loaded = load_checkpoint(str(p1))
    save_checkpoint(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_preserves_every_parameter(tmp_path):
    model = small_model()
    path = str(tmp_path / "m.ckpt.json")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    for a, b in zip(model.policy.param_arrays(), loaded.policy.param_arrays()):
        assert np.array_equal(a, b)
    for a, b in zip(model.q1.param_arrays(), loaded.q1.param_arrays()):
        assert np.array_equal(a, b)
    assert float(model.log_alpha) == float(loaded.log_alpha)
    assert model.rngs.state() == loaded.rngs.state()
    for a, b in zip(model.opt_policy.m, loaded.opt_policy.m):
        assert np.array_equal(a, b)
    assert model.opt_policy.step == loaded.opt_policy.step


def test_round_trip_preserves_evaluation(tmp_path):
    model = small_model()
    path = str(tmp_path / "m.ckpt.json")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    a = evaluate_policy(model, model.lte_for_task(1), model.tasks[1], 2, eval_seed=4)
    b = evaluate_policy(loaded, loaded.lte_for_task(1), loaded.tasks[1], 2, eval_seed=4)
    assert a.mean_return == b.mean_return
    assert a.metric == b.metric


def test_truncated_file_is_parse_error(tmp_path):
    model = small_model()
    path = str(tmp_path / "m.ckpt.json")
    save_checkpoint(model, path)
    data = open(path, "rb").read()
    open(path, "wb").write(data[: len(data) // 2])
    with pytest.raises(CheckpointError, match="byte"):
        load_checkpoint(path)


def test_version_mismatch_rejected(tmp_path):
    model = small_model()
    path = str(tmp_path / "m.ckpt.json")
    save_checkpoint(model, path)
    doc = json.loads(open(path).read())
    doc["format_version"] = 999
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_tampered_embedding_rejected(tmp_path):
    path, doc = saved_doc(tmp_path)
    lte = decode(doc["lte_set"])
    lte[0, 0] += 0.5
    doc["lte_set"] = encode(lte)
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CheckpointError, match="disagrees with encoder weights"):
        load_checkpoint(path)


@pytest.mark.parametrize("field,stored", [
    # a one-element bias must not be broadcast to the whole layer
    ("q1.biases[0]", [0.25]),
    ("q1_target.weights[1]", np.zeros((8, 4))),
    # second moments are shape-checked like first moments; alpha's are 0-d
    ("adam.q2.v[2]", np.ones(3)),
    ("adam.alpha.m[0]", [0.0]),
    ("lte_set", np.ones((2, 3))),
])
def test_wrong_shaped_array_rejected(tmp_path, field, stored):
    path, doc = saved_doc(tmp_path)
    replace_field(doc, field, encode(stored))
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CheckpointError, match=re.escape(field) + " has shape .* expected"):
        load_checkpoint(path)


@pytest.mark.parametrize("kind,field", [
    ("ear", "policy.encoder.weights[0]"),
    ("ear", "policy.task_encoder.bias"),
    ("ohe", "policy.net.weights[1]"),
    ("ohe", "policy.net.biases[0]"),
    ("mhmt", "policy.head_w"),
    ("mhmt", "policy.head_b"),
    ("mhmt", "policy.trunk.weights[0]"),
    ("ear", "adam.policy.m[0]"),
    ("ohe", "adam.q1.v[1]"),
    ("mhmt", "adam.alpha.m[0]"),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_array_rejected(tmp_path, kind, field, bad):
    path, doc = saved_doc(tmp_path, kind)
    arr = decode(get_field(doc, field))
    arr.flat[-1] = bad
    replace_field(doc, field, encode(arr))
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CheckpointError, match="non-finite entries"):
        load_checkpoint(path)


@pytest.mark.parametrize("stored,fragment", [
    ({"shape": [4], "f8": "not base64!"}, "malformed array q1.biases[0]"),
    ({"shape": [3], "f8": base64.b64encode(bytes(32)).decode()}, "cannot reshape"),
    ({"shape": [4], "f8": base64.b64encode(bytes(31)).decode()}, "multiple of element size"),
    ({"f8": base64.b64encode(bytes(32)).decode()}, "'shape'"),
    ([0.0, 0.0, 0.0, 0.0], "malformed array q1.biases[0]"),
])
def test_malformed_array_rejected(tmp_path, stored, fragment):
    path, doc = saved_doc(tmp_path)
    doc["q1"]["biases"][0] = stored
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("field", ["log_alpha", "target_entropy"])
def test_non_finite_scalar_rejected(tmp_path, field):
    path, doc = saved_doc(tmp_path)
    doc[field] = float("nan")
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CheckpointError, match="non-finite temperature or target entropy"):
        load_checkpoint(path)


def test_missing_array_in_a_list_rejected(tmp_path):
    path, doc = saved_doc(tmp_path)
    doc["adam"]["policy"]["v"].pop()
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CheckpointError, match=r"adam.policy.v must hold \d+ arrays"):
        load_checkpoint(path)


def test_non_finite_refused_on_save(tmp_path):
    model = small_model()
    model.q1.weights[0][0, 0] = np.nan
    with pytest.raises(CheckpointError):
        save_checkpoint(model, str(tmp_path / "bad.ckpt.json"))


def test_payload_floats_survive_json_exactly():
    model = small_model()
    rt = json.loads(dump_bytes(checkpoint_payload(model)).decode())
    for stored, array in [(rt["q1"]["weights"][0], model.q1.weights[0]),
                          (rt["adam"]["alpha"]["v"][0], model.opt_alpha.v[0]),
                          (rt["lte_set"], model.lte_set())]:
        assert stored["shape"] == list(array.shape)
        assert decode(stored).tobytes() == np.asarray(array, "<f8").tobytes()


def test_file_sha256_changes_with_content(tmp_path):
    model = small_model(seed=0)
    other = small_model(seed=1)
    p1, p2 = str(tmp_path / "1.json"), str(tmp_path / "2.json")
    save_checkpoint(model, p1)
    save_checkpoint(other, p2)
    assert file_sha256(p1) != file_sha256(p2)
