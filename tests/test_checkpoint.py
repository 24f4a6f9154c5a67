"""Checkpoint round-trip, validation, and corruption handling."""

import base64
import copy
import errno
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latent_motor.checkpoint
from latent_motor.checkpoint import (
    checkpoint_payload,
    dump_bytes,
    file_sha256,
    load_checkpoint,
    save_checkpoint,
)
from latent_motor.cli import main
from latent_motor.envs import make_task_set
from latent_motor.errors import CheckpointError
from latent_motor.nn import carve, shapes_of
from latent_motor.sac import SacModel, TrainConfig, eval_all_tasks, evaluate_policy, sac_update
from latent_motor.replay import Batch


def small_model(kind="ear", seed=0):
    cfg = TrainConfig(pretrain_epochs=0, train_epochs=1, optimization_times=1,
                      batch_size=8, hidden_width=8, lse_dim=4)
    model = SacModel(kind, make_task_set("vel1d", count=3), cfg, seed=seed)
    rng = np.random.default_rng(seed)
    batch = Batch(
        obs=rng.normal(size=(8, 1)), action=rng.uniform(-1, 1, (8, 1)),
        reward=rng.normal(size=8), next_obs=rng.normal(size=(8, 1)),
        task_id=rng.integers(0, 3, 8),
    )
    for _ in range(3):
        sac_update(model, batch)
    return model


def dtype_key(obj):
    """The key of a stored array that holds its bytes: "f4" or "f8"."""
    [key] = set(obj) - {"shape"}
    return key


def decode(obj):
    """A stored array, read without the package's loader."""
    raw = base64.b64decode(obj[dtype_key(obj)])
    return np.frombuffer(raw, dtype="<" + dtype_key(obj)).reshape(obj["shape"]).copy()


def encode(a, like):
    """Store an array as the loader expects it, whatever its values, in the
    dtype of the stored array `like`."""
    key = dtype_key(like)
    a = np.asarray(a, dtype="<" + key)
    return {"shape": list(a.shape), key: base64.b64encode(a.tobytes()).decode("ascii")}


def saved_doc(tmp_path, kind="ear"):
    path = str(tmp_path / "m.ckpt.json")
    save_checkpoint(small_model(kind), path)
    return path, json.loads(open(path).read())


def lookup(doc, field):
    """The value of a dotted field such as "adam.q.v" or "tasks.0.target"."""
    for key in field.split("."):
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    return doc


def replace_field(doc, field, value):
    """Set a dotted field such as "adam.q.v"; value None deletes it."""
    head, _, last = field.rpartition(".")
    doc = lookup(doc, head) if head else doc
    if value is None:
        del doc[last]
    else:
        doc[last] = value


def with_bad_entry(model, block, bad):
    """(field, stored array): the stored flat array that holds the named
    parameter block, with the block's last entry set to bad. A policy
    block is named as the model holds it, e.g. "policy.encoder.weights[0]"
    (the model is changed too); "adam.q.v[1]" is array 1 of the critics'
    second moment, in the stacked critic layout (so its last entry is Q2's)."""
    head, _, index = block.rstrip("]").partition("[")
    if head.startswith("adam."):
        _, name, moment = head.split(".")
        shapes = {"policy": shapes_of(model.policy.layout), "alpha": [()],
                  "q": [model.q.lead + s for s in shapes_of([model.q.dims])]}[name]
        flat = getattr(getattr(model, f"opt_{name}"), moment).copy()
        carve(shapes, flat)[1][int(index)].reshape(-1)[-1] = bad
        return head, flat
    target = model
    for attr in head.split("."):
        target = getattr(target, attr)
    if index:
        target = target[int(index)]
    target.reshape(-1)[-1] = bad  # a view into model.policy.flat
    return "policy", model.policy.flat.copy()


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
    assert np.array_equal(model.policy.flat, loaded.policy.flat)
    assert np.array_equal(model.q.flat, loaded.q.flat)
    assert float(model.log_alpha) == float(loaded.log_alpha)
    assert model.rngs.state() == loaded.rngs.state()
    assert np.array_equal(model.opt_policy.m, loaded.opt_policy.m)
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
    doc["lte_set"] = encode(lte, doc["lte_set"])
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CheckpointError, match="disagrees with encoder weights"):
        load_checkpoint(path)


@pytest.mark.parametrize("field,stored", [
    # a one-element buffer must not be broadcast to the whole network
    ("q", [0.25]),
    ("q_target", np.zeros((8, 4))),
    # second moments are shape-checked like first moments; alpha's are 0-d
    ("adam.q.v", np.ones(3)),
    ("adam.alpha.m", [0.0]),
    ("lte_set", np.ones((2, 3))),
], ids=["q1-stored0", "q1_target-stored1", "adam.q2.v-stored2", "adam.alpha.m-stored3",
        "lte_set-stored4"])
def test_wrong_shaped_array_rejected(tmp_path, field, stored):
    path, doc = saved_doc(tmp_path)
    replace_field(doc, field, encode(stored, lookup(doc, field)))
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CheckpointError, match=re.escape(field) + " has shape .* expected"):
        load_checkpoint(path)


@pytest.mark.parametrize("kind,field", [
    ("ear", "policy.encoder.weights[0]"),
    ("ear", "policy.task_bias"),
    ("ohe", "policy.net.weights[1]"),
    ("ohe", "policy.net.biases[0]"),
    ("mhmt", "policy.head_w"),
    ("mhmt", "policy.head_b"),
    ("mhmt", "policy.trunk.weights[0]"),
    ("ear", "adam.policy.m[0]"),
    pytest.param("ohe", "adam.q.v[1]", id="ohe-adam.q1.v[1]"),
    ("mhmt", "adam.alpha.m[0]"),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_array_rejected(tmp_path, kind, field, bad):
    # field names a block inside a stored flat array: the check must cover
    # every block of the buffer, not only its first or last entries
    path = str(tmp_path / "m.ckpt.json")
    model = small_model(kind)
    save_checkpoint(model, path)
    doc = json.loads(open(path).read())
    stored, arr = with_bad_entry(model, field, bad)
    replace_field(doc, stored, encode(arr, lookup(doc, stored)))
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CheckpointError, match=re.escape(stored) + " has non-finite entries"):
        load_checkpoint(path)


@pytest.mark.parametrize("stored,fragment", [
    ({"shape": [4], "f4": "not base64!"}, "malformed array q"),
    ({"shape": [3], "f4": base64.b64encode(bytes(32)).decode()}, "cannot reshape"),
    ({"shape": [4], "f4": base64.b64encode(bytes(31)).decode()}, "multiple of element size"),
    ({"f4": base64.b64encode(bytes(32)).decode()},
     "q must hold the saved fields: missing ['shape'], unknown []"),
    ([0.0, 0.0, 0.0, 0.0], "q must hold the saved fields: missing ['f4', 'shape'], unknown []"),
    (None, "checkpoint must hold the saved fields: missing ['q'], unknown []"),  # no field
    # q is float32: float64 bytes must not be read as float32 or be converted
    ({"shape": [4], "f8": base64.b64encode(bytes(32)).decode()},
     "q must hold the saved fields: missing ['f4'], unknown ['f8']"),
], ids=["stored0-malformed array q1", "stored1-cannot reshape",
        "stored2-multiple of element size", "stored3-'shape'", "stored4-malformed array q1",
        "None-malformed checkpoint field: 'q1'", "stored6-malformed array q1: 'f4'"])
def test_malformed_array_rejected(tmp_path, stored, fragment):
    path, doc = saved_doc(tmp_path)
    replace_field(doc, "q", stored)
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("field,shape", [
    ("q", [-1]),
    ("q", [-3]),
    ("adam.q.v", [-1]),
    ("lte_set", [-1, 3]),
    ("policy", [True]),
    ("q", [4.0]),
    ("q_target", 4),
], ids=["q-neg1", "q-neg3", "adam.q.v-neg1", "lte_set-neg1", "policy-true", "q-float",
        "q_target-int"])
def test_bad_shape_entry_rejected(tmp_path, field, shape):
    # reshape reads a negative entry as "infer this axis"; such a file must
    # not load and then re-save with the true shape
    path, doc = saved_doc(tmp_path)
    lookup(doc, field)["shape"] = shape
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{field} has shape {shape!r}, expected")):
        load_checkpoint(path)


@pytest.mark.parametrize("step", [-5, 1.7, True, "4"])
def test_bad_adam_step_rejected(tmp_path, step):
    path, doc = saved_doc(tmp_path)
    doc["adam"]["q"]["step"] = step
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CheckpointError,
                       match=re.escape(f"adam.q.step must be an integer >= 0, got {step!r}")):
        load_checkpoint(path)


@pytest.mark.parametrize("draws", [-3, 1.7, True, "4"])
def test_bad_rng_draw_count_rejected(tmp_path, draws):
    path, doc = saved_doc(tmp_path)
    doc["rng"]["streams"]["batch"]["draws"] = draws
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CheckpointError, match=re.escape(
            f"rng stream batch: draws must be an integer >= 0, got {draws!r}")):
        load_checkpoint(path)


@pytest.mark.parametrize("edit,fragment", [
    (lambda streams: streams.pop("batch"), "missing ['batch'], unknown []"),
    (lambda streams: streams.update(cem=streams["env"]), "missing [], unknown ['cem']"),
])
def test_rng_streams_must_match(tmp_path, edit, fragment):
    # a missing stream must not be replaced by a freshly seeded one
    path, doc = saved_doc(tmp_path)
    edit(doc["rng"]["streams"])
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CheckpointError, match=re.escape(fragment)):
        load_checkpoint(path)


@pytest.mark.parametrize("field", ["log_alpha"])
def test_non_finite_scalar_rejected(tmp_path, field):
    path, doc = saved_doc(tmp_path)
    doc[field] = float("nan")
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(CheckpointError, match="non-finite temperature: log_alpha is nan"):
        load_checkpoint(path)


@pytest.mark.parametrize("kind", ["ear", "ohe", "mhmt"])
def test_every_stored_field_is_required(tmp_path, kind):
    # no field may fall back to a default or be ignored: deleting any
    # top-level field, or any key of constants, config or a task, and
    # adding a key to one of those, each fail the load
    path, doc = saved_doc(tmp_path, kind)
    assert "family" not in doc and "target_entropy" not in doc  # the model derives both
    assert "seed" not in doc["config"]  # the stored stream states decide every draw
    edits = [(field, None, ["unsupported checkpoint version None"] if field == "format_version"
              else [f"checkpoint must hold the saved fields: missing ['{field}']"])
             for field in doc]
    for section, where in {"constants": "constants", "config": "config",
                           "tasks.0": "tasks[0]"}.items():
        edits += [(f"{section}.{key}", None, [f"{where} must hold the",
                                              f"fields: missing ['{key}'], unknown []"])
                  for key in lookup(doc, section)]
        edits.append((f"{section}.extra", 1.0, [f"{where} must hold the",
                                                "fields: missing [], unknown ['extra']"]))
    for field, value, fragments in edits:
        damaged = copy.deepcopy(doc)
        replace_field(damaged, field, value)
        open(path, "w").write(json.dumps(damaged))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert all(f in str(exc.value) for f in fragments), (field, str(exc.value))


def json_objects(doc, where=""):
    """The dotted path of every JSON object in doc, doc itself first ("")."""
    paths = [where] if isinstance(doc, dict) else []
    for key, value in enumerate(doc) if isinstance(doc, list) else doc.items():
        if isinstance(value, (dict, list)):
            paths += json_objects(value, f"{where}.{key}".lstrip("."))
    return paths


@pytest.mark.parametrize("kind", ["ear", "ohe", "mhmt"])
def test_every_object_refuses_an_unknown_key(tmp_path, kind):
    # every object holds exactly the keys the saver writes: one unknown key
    # anywhere, at the top, in a task, an array, adam or an rng stream state,
    # fails the load instead of being dropped by a re-save
    path, doc = saved_doc(tmp_path, kind)
    objects = json_objects(doc)
    assert {"", "tasks.0", "policy", "adam", "adam.q", "adam.alpha.v", "rng",
            "rng.streams", "rng.streams.env", "rng.streams.env.state"} <= set(objects)
    assert ("lte_set" in objects) == (kind == "ear")
    for where in objects:
        damaged = copy.deepcopy(doc)
        (lookup(damaged, where) if where else damaged)["extra"] = 1
        open(path, "w").write(json.dumps(damaged))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert "unknown ['extra']" in str(exc.value), (where, str(exc.value))


@pytest.mark.parametrize("field,value,fragment", [
    ("config.gamma", 0, "gamma must be in (0, 1]"),
    ("tasks.0.family", "walker", "unknown family 'walker'"),
    ("tasks", [], "empty task set"),
    ("config.normalize_lte", "no", "config.normalize_lte must be true or false, got 'no'"),
    ("tasks.0.jump_modality", "yes", "tasks[0].jump_modality must be true or false, got 'yes'"),
    ("constants.max_episode_frames", 2.5,
     "constants.max_episode_frames must be an integer, got 2.5"),
    ("constants.dt", float("nan"), "constants.dt must be finite, got nan"),
], ids=["gamma", "family", "no-tasks", "normalize-str", "jump-str", "frames-float", "dt-nan"])
def test_bad_stored_record_exits_1_with_one_line(tmp_path, capsys, field, value, fragment):
    # config, constants and tasks are read as config sections are: each value
    # has its field's annotated type and is finite; any failure of them, or of
    # the model they build, is one CheckpointError line
    assert_eval_exits_1_with_one_line(tmp_path, capsys, field, value, fragment)


def assert_eval_exits_1_with_one_line(tmp_path, capsys, field, value, fragment):
    """`eval` on a saved ear model with field set to value fails with one
    CheckpointError line holding fragment, and writes no eval.json."""
    path, doc = saved_doc(tmp_path)
    if callable(value):  # a function of the stored value
        value = value(lookup(doc, field))
    replace_field(doc, field, value)
    open(path, "w").write(json.dumps(doc))
    out = str(tmp_path / "e")
    assert main(["eval", "--checkpoint", path, "--out", out]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: CheckpointError:") and "\n" not in err
    assert fragment in err
    assert not os.path.exists(os.path.join(out, "eval.json"))


STATE = "rng.streams.batch.state"


def degenerate_encoder(stored):
    """A stored ear policy buffer whose task encoder maps task 0 to the zero
    vector: its weight column and the bias are zeroed."""
    flat = decode(stored)
    _, (_, _, weight, bias) = carve(small_model().policy.layout, flat)
    weight[:, 0] = 0.0
    bias[:] = 0.0
    return encode(flat, stored)


@pytest.mark.parametrize("field,value,fragment", [
    # the stream state must be exactly what the saver writes: decimal strings
    # below 2**128 for state and inc, has_uint32 0 or 1, uinteger below 2**32
    (f"{STATE}.inc", "-1", "state.inc must be a decimal string in [0, 2**128), got '-1'"),
    (f"{STATE}.state", str(2 ** 128), "state.state must be a decimal string"),
    (f"{STATE}.state", 5, "state.state must be a decimal string in [0, 2**128), got 5"),
    (f"{STATE}.inc", "0123", "state.inc must be a decimal string"),
    (f"{STATE}.inc", True, "state.inc must be a decimal string"),
    (f"{STATE}.inc", 1.7, "state.inc must be a decimal string"),
    (f"{STATE}.has_uint32", 1e300, "state.has_uint32 must be an integer in [0, 2**1)"),
    (f"{STATE}.has_uint32", True, "state.has_uint32 must be an integer"),
    (f"{STATE}.has_uint32", 2, "state.has_uint32 must be an integer in [0, 2**1), got 2"),
    (f"{STATE}.uinteger", -1, "state.uinteger must be an integer in [0, 2**32), got -1"),
    (f"{STATE}.uinteger", 2 ** 32, "state.uinteger must be an integer in [0, 2**32)"),
    (f"{STATE}.uinteger", 1.7, "state.uinteger must be an integer"),
    ("log_alpha", True, "log_alpha must be a float, got True"),
    ("constants.dt", -0.05, "constants.dt must be > 0, got -0.05"),
    ("constants.f_max", -2.0, "constants.f_max must be > 0, got -2.0"),
    ("constants.gravity", 0.0, "constants.gravity must be > 0, got 0.0"),
    ("constants.jump_thrust", 0.0, "constants.jump_thrust must be > 0, got 0.0"),
    ("constants.drag", -0.1, "constants.drag must be >= 0, got -0.1"),
    ("constants.jump_drag", -1.0, "constants.jump_drag must be >= 0, got -1.0"),
    ("constants.reset_vel_range", -1.0, "constants.reset_vel_range must be >= 0, got -1.0"),
    ("policy", degenerate_encoder, "stored task encoder is degenerate: near-zero row"),
    # physics that makes a rollout non-finite: each of these used to load
    ("constants.dt", 1e300, "constants.dt must be <= 1, got 1e+300"),
    ("constants.drag", 1e300, "constants.drag must be <= 1000, got 1e+300"),
    ("constants.dt", 1e6, "constants.dt must be <= 1, got 1000000.0"),
    ("constants.drag", 1e6, "constants.drag must be <= 1000, got 1000000.0"),
    ("constants.f_max", 1e300, "constants.f_max must be <= 1000, got 1e+300"),
    ("constants.reset_vel_range", 1e300, "constants.reset_vel_range must be <= 1000"),
    ("constants.dt", 1e30, "constants.dt must be <= 1, got 1e+30"),
    ("constants.drag", 1e30, "constants.drag must be <= 1000, got 1e+30"),
    ("constants.jump_thrust", 1e300, "constants.jump_thrust must be <= 1000, got 1e+300"),
    # an Euler step that would reverse a velocity
    ("constants.drag", 100.0, "constants.drag * dt must be <= 1, got 100.0 * 0.05"),
    ("constants.jump_drag", 25.0, "constants.jump_drag * dt must be <= 1, got 25.0 * 0.05"),
], ids=["inc-neg", "state-2^128", "state-int", "inc-zero-pad", "inc-true", "inc-float",
        "has_uint32-1e300", "has_uint32-true", "has_uint32-2", "uinteger-neg", "uinteger-2^32",
        "uinteger-float", "log_alpha-true", "dt-neg", "f_max-neg", "gravity-0",
        "jump_thrust-0", "drag-neg", "jump_drag-neg", "reset_vel_range-neg",
        "encoder-degenerate", "dt-1e300", "drag-1e300", "dt-1e6", "drag-1e6", "f_max-1e300",
        "reset_vel_range-1e300", "dt-1e30", "drag-1e30", "jump_thrust-1e300", "drag-dt",
        "jump_drag-dt"])
def test_bad_stored_value_exits_1_with_one_line(tmp_path, capsys, field, value, fragment):
    # values that used to overflow with a traceback, load coerced, or load
    # into physics that makes no sense
    assert_eval_exits_1_with_one_line(tmp_path, capsys, field, value, fragment)


# Every scalar leaf of a saved file, array keys included, is set to each of
# these in turn.
MUTANT_VALUES = [True, 1.7, -1, 0, -1.0, 0.0, "x", None, 1e300, -3]


def scalar_leaves(doc, where=()):
    """The key path of every value in doc that is neither an object nor a list."""
    if not isinstance(doc, (dict, list)):
        return [where]
    items = enumerate(doc) if isinstance(doc, list) else doc.items()
    return [leaf for key, value in items for leaf in scalar_leaves(value, where + (key,))]


def same_json(a, b) -> bool:
    """a and b are equal JSON values of the same types: true is not 1, 1 is not 1.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_json(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_json, a, b))
    return a == b


@pytest.mark.parametrize("kind,family,section", [
    ("ear", "vel1d", ()), ("ohe", "vel1d", ()), ("mhmt", "vel1d", ()),
    ("ear", "dir2d", ("constants",)), ("ear", "runjump", ("constants",)),
], ids=["ear", "ohe", "mhmt", "dir2d-constants", "runjump-constants"])
def test_every_mutant_fails_or_round_trips(tmp_path, kind, family, section):
    # a mutant either fails with one CheckpointError line, or loads, re-saves
    # as itself and evaluates to finite returns: no value is coerced, ignored
    # or let into physics that overflows
    if family == "vel1d":
        model = small_model(kind)
    else:  # only the physics is mutated, so an untrained model will do
        cfg = TrainConfig(batch_size=8, hidden_width=8, lse_dim=4)
        model = SacModel(kind, make_task_set(family, count=3), cfg)
    path, resaved = str(tmp_path / "m.ckpt.json"), str(tmp_path / "r.ckpt.json")
    save_checkpoint(model, path)
    doc = json.loads(open(path).read())
    loaded = 0
    for leaf in scalar_leaves(lookup(doc, ".".join(section)) if section else doc, section):
        for value in MUTANT_VALUES:
            mutant = copy.deepcopy(doc)
            target = mutant
            for key in leaf[:-1]:
                target = target[key]
            target[leaf[-1]] = value
            open(path, "w").write(json.dumps(mutant))
            try:
                model = load_checkpoint(path)
            except CheckpointError as exc:
                assert "\n" not in str(exc), (leaf, value)
                continue
            loaded += 1
            save_checkpoint(model, resaved)
            assert same_json(json.loads(open(resaved).read()), mutant), (leaf, value)
            returns = [rep.mean_return for rep in eval_all_tasks(model, 1, eval_seed=0)]
            assert np.all(np.isfinite(returns)), (leaf, value, returns)
    assert loaded > 0


def test_non_finite_refused_on_save(tmp_path):
    model = small_model()
    model.q.weights[0][1, 0, 0] = np.nan
    with pytest.raises(CheckpointError):
        save_checkpoint(model, str(tmp_path / "bad.ckpt.json"))


def test_payload_floats_survive_json_exactly():
    model = small_model()
    rt = json.loads(dump_bytes(checkpoint_payload(model)).decode())
    for stored, array in [(rt["q"], model.q.flat), (rt["policy"], model.policy.flat),
                          (rt["adam"]["policy"]["m"], model.opt_policy.m),
                          (rt["adam"]["alpha"]["v"], model.opt_alpha.v),
                          (rt["lte_set"], model.lte_set())]:
        assert stored["shape"] == list(array.shape)
        assert decode(stored).dtype == array.dtype
        assert decode(stored).tobytes() == array.tobytes()
    # networks and their moments are stored in float32, the temperature and
    # the embedding set in float64
    assert dtype_key(rt["q"]) == dtype_key(rt["adam"]["policy"]["m"]) == "f4"
    assert dtype_key(rt["adam"]["alpha"]["v"]) == dtype_key(rt["lte_set"]) == "f8"
    # the stored config sets every hyperparameter; the optimizers keep only state
    assert all(set(opt) == {"m", "v", "step"} for opt in rt["adam"].values())
    assert set(rt["adam"]) == {"policy", "q", "alpha"} and set(rt["rng"]) == {"streams"}


def test_file_sha256_changes_with_content(tmp_path):
    model = small_model(seed=0)
    other = small_model(seed=1)
    p1, p2 = str(tmp_path / "1.json"), str(tmp_path / "2.json")
    save_checkpoint(model, p1)
    save_checkpoint(other, p2)
    assert file_sha256(p1) != file_sha256(p2)


def canonical_json(payload) -> bytes:
    """The reference encoding: each array's base64 text as a str, then the
    canonical json.dumps and the trailing newline."""
    def as_str(obj):
        if isinstance(obj, bytes):
            return obj.decode("ascii")
        if isinstance(obj, dict):
            return {k: as_str(v) for k, v in obj.items()}
        return [as_str(v) for v in obj] if isinstance(obj, list) else obj
    text = json.dumps(as_str(payload), sort_keys=True, separators=(",", ":"), allow_nan=False)
    return (text + "\n").encode("utf-8")


@pytest.mark.parametrize("family", ["vel1d", "dir2d", "runjump"])
@pytest.mark.parametrize("kind", ["ear", "ohe", "mhmt"])
def test_dump_bytes_is_the_canonical_json(kind, family):
    cfg = TrainConfig(pretrain_epochs=0, train_epochs=1, hidden_width=8, lse_dim=4)
    model = SacModel(kind, make_task_set(family), cfg, seed=1)
    payload = checkpoint_payload(model)
    assert dump_bytes(payload) == canonical_json(payload)


# Strings that hold what JSON escapes, and the array slot's own text.
TRICKY = ["\0", "a\"\0", "\0\"", "\\u0000", '"\\u0000"', "\\", '"', "\n\t\x1f", "é ☃ 𝄞"]
strings = st.sampled_from(TRICKY) | st.text()
PAYLOAD = checkpoint_payload(small_model())
ARRAYS = [PAYLOAD[name] for name in ("policy", "q", "q_target", "lte_set")] + [
    PAYLOAD["adam"][name][moment] for name in ("policy", "q", "alpha") for moment in "mv"]
json_values = st.recursive(
    st.sampled_from(ARRAYS) | strings | st.integers() | st.floats(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(strings, inner, max_size=3),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(strings, json_values, min_size=1, max_size=4))
def test_dump_bytes_writes_the_canonical_json_or_refuses(payload):
    try:
        reference = canonical_json(payload)
    except ValueError:  # a NaN or an infinity
        with pytest.raises(CheckpointError, match="non-finite"):
            dump_bytes(payload)
        return
    try:
        assert dump_bytes(payload) == reference
    except CheckpointError:
        # refused only where a stored string encodes like an array slot
        assert b'"\\u0000"' in reference


@pytest.mark.parametrize("interrupt", [OSError(errno.ENOSPC, "No space left on device"),
                                       KeyboardInterrupt()])
@pytest.mark.parametrize("existing", [True, False])
def test_interrupted_save_leaves_no_partial_file(tmp_path, monkeypatch, existing, interrupt):
    path = tmp_path / "m.ckpt.json"
    if existing:
        save_checkpoint(small_model(seed=0), str(path))
    before = sorted(os.listdir(tmp_path)), path.read_bytes() if existing else None

    class HalfWritten:
        """A file whose write stores half of its data and then fails."""
        def __init__(self, name, mode):
            self.fh = open(name, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise interrupt

    monkeypatch.setattr(latent_motor.checkpoint, "open", HalfWritten, raising=False)
    with pytest.raises(type(interrupt)):
        save_checkpoint(small_model(seed=1), str(path))
    assert (sorted(os.listdir(tmp_path)), path.read_bytes() if existing else None) == before
