"""Versioned checkpoint serialization.

A checkpoint is canonical JSON (sorted keys, compact separators, one
trailing newline, no NaN or Infinity). Every float array is one object
{"shape": [...], "f8": "<base64 of its little-endian float64 bytes in C
order>"}; scalars, configs, task specs and the RNG state stay plain JSON.
The raw bytes make load(save(model)) bit-identical and re-saving
byte-identical, and parsing a few base64 strings is far cheaper than
parsing every element as a decimal. Loading decodes each array into the
freshly built model through one helper that checks its shape and that
every entry is finite, then re-validates the embedding invariants.

In memory a network and each Adam moment is one flat buffer; the file
keeps one field per array, splitting moments with the network's layout.
"""

from __future__ import annotations

import base64
import hashlib
import json

import numpy as np

from .envs import EnvConstants, TaskSpec
from .errors import CheckpointError
from .nn import AdamState, Mlp, carve, shapes_of
from .rng import RngStreams
from .sac import SacModel, TrainConfig

FORMAT_VERSION = 2


def _encode(a: np.ndarray) -> dict:
    # no ascontiguousarray: it would turn the 0-d temperature moments 1-d
    a = np.asarray(a, dtype="<f8")
    if not np.all(np.isfinite(a)):
        raise CheckpointError(f"refusing to serialize non-finite array of shape {list(a.shape)}")
    return {"shape": list(a.shape), "f8": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode(payload, dst: np.ndarray, name: str) -> None:
    """Copy an encoded array into dst after checking its shape and values."""
    try:
        raw = base64.b64decode(payload["f8"], validate=True)
        src = np.frombuffer(raw, dtype="<f8").reshape(payload["shape"])
    except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise CheckpointError(f"malformed array {name}: {exc}") from exc
    if src.shape != dst.shape:
        raise CheckpointError(f"{name} has shape {list(src.shape)}, expected {list(dst.shape)}")
    if not np.all(np.isfinite(src)):
        raise CheckpointError(f"{name} has non-finite entries")
    np.copyto(dst, src)


def _networks(model: SacModel) -> dict:
    """The model's networks and policy arrays, nested as the checkpoint stores them."""
    p = model.policy
    if model.kind == "ear":
        policy = {"encoder": p.encoder, "decoder": p.decoder,
                  "task_encoder": {"weight": p.task_encoder.weight, "bias": p.task_encoder.bias}}
    elif model.kind == "ohe":
        policy = {"net": p.net}
    else:
        policy = {"head_w": p.head_w, "head_b": p.head_b, "trunk": p.trunk}
    return {"policy": policy, "q1": model.q1, "q2": model.q2,
            "q1_target": model.q1_target, "q2_target": model.q2_target}


def _adam_states(model: SacModel) -> dict:
    """Each optimizer, with the layout of the parameters it moves."""
    return {"policy": (model.opt_policy, model.policy.layout),
            "q1": (model.opt_q1, [model.q1.dims]), "q2": (model.opt_q2, [model.q2.dims]),
            "alpha": (model.opt_alpha, [()])}


def _store(part):
    """Encode an array, or a list, dict or Mlp of them."""
    if isinstance(part, Mlp):
        return {"dims": part.dims, "weights": _store(part.weights),
                "biases": _store(part.biases)}
    if isinstance(part, dict):
        return {key: _store(sub) for key, sub in part.items()}
    if isinstance(part, list):
        return [_store(a) for a in part]
    return _encode(part)


def _restore(part, payload, name: str) -> None:
    """Decode payload into the arrays of part, which _store encoded."""
    if isinstance(part, Mlp):
        if payload["dims"] != part.dims:
            raise CheckpointError(
                f"{name} dims {payload['dims']} do not match expected {part.dims}")
        _restore(part.weights, payload["weights"], f"{name}.weights")
        _restore(part.biases, payload["biases"], f"{name}.biases")
    elif isinstance(part, dict):
        for key, sub in part.items():
            _restore(sub, payload[key], f"{name}.{key}")
    elif isinstance(part, list):
        if not isinstance(payload, list) or len(payload) != len(part):
            raise CheckpointError(f"{name} must hold {len(part)} arrays")
        for k, (sub, data) in enumerate(zip(part, payload)):
            _restore(sub, data, f"{name}[{k}]")
    else:
        _decode(payload, part, name)


def _adam_payload(st: AdamState, layout: list) -> dict:
    return {
        "m": _store(carve(shapes_of(layout), st.m)[1]),
        "v": _store(carve(shapes_of(layout), st.v)[1]),
        "step": st.step, "lr": st.lr, "beta1": st.beta1, "beta2": st.beta2, "eps": st.eps,
    }


def _adam_restore(st: AdamState, layout: list, payload: dict, name: str) -> None:
    _restore(carve(shapes_of(layout), st.m)[1], payload["m"], f"{name}.m")
    _restore(carve(shapes_of(layout), st.v)[1], payload["v"], f"{name}.v")
    if np.any(st.v < 0):
        raise CheckpointError(f"{name}: second moments must be non-negative")
    st.step = int(payload["step"])
    st.lr = float(payload["lr"])
    st.beta1 = float(payload["beta1"])
    st.beta2 = float(payload["beta2"])
    st.eps = float(payload["eps"])


def checkpoint_payload(model: SacModel) -> dict:
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "family": model.family,
        "tasks": [t.as_dict() for t in model.tasks],
        "constants": model.constants.as_dict(),
        "config": model.config.as_dict(),
        **_store(_networks(model)),
        "log_alpha": float(model.log_alpha),
        "target_entropy": model.target_entropy,
        "adam": {name: _adam_payload(st, layout)
                 for name, (st, layout) in _adam_states(model).items()},
        "rng": model.rngs.state(),
    }
    if model.kind == "ear":
        payload["lte_set"] = _encode(model.lte_set())
    return payload


def dump_bytes(payload: dict) -> bytes:
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except ValueError as exc:
        raise CheckpointError(f"refusing to serialize non-finite value: {exc}") from exc
    return (text + "\n").encode("utf-8")


def save_checkpoint(model: SacModel, path: str) -> str:
    """Write the model; returns the sha256 of the file contents."""
    data = dump_bytes(checkpoint_payload(model))
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def load_checkpoint(path: str) -> SacModel:
    """Rebuild a model, re-validating invariants along the way."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        offset = getattr(exc, "pos", getattr(exc, "start", 0))
        raise CheckpointError(f"corrupt checkpoint at byte {offset}: {exc}") from exc
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r}; "
            f"this build reads version {FORMAT_VERSION}")
    try:
        tasks = [TaskSpec.from_dict(d) for d in payload["tasks"]]
        constants = EnvConstants(**payload["constants"])
        config = TrainConfig(**payload["config"])
        model = SacModel(payload["kind"], tasks, config, constants)
        for key, part in _networks(model).items():
            _restore(part, payload[key], key)
        model.log_alpha[...] = float(payload["log_alpha"])
        model.target_entropy = float(payload["target_entropy"])
        for name, (st, layout) in _adam_states(model).items():
            _adam_restore(st, layout, payload["adam"][name], f"adam.{name}")
        model.rngs = RngStreams.from_state(payload["rng"])
        if model.kind == "ear":
            _validate_embeddings(model, payload["lte_set"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint field: {exc}") from exc
    if not np.isfinite([model.log_alpha, model.target_entropy]).all():
        raise CheckpointError("non-finite temperature or target entropy")
    return model


def _validate_embeddings(model: SacModel, encoded: dict) -> None:
    lte = model.lte_set()
    if model.config.normalize_lte and np.any(np.abs(np.linalg.norm(lte, axis=1) - 1.0) > 1e-9):
        raise CheckpointError("stored embedding set is not unit-norm")
    stored = np.empty_like(lte)
    _decode(encoded, stored, "lte_set")
    if not np.allclose(stored, lte, atol=1e-12, rtol=0.0):
        raise CheckpointError("stored embedding set disagrees with encoder weights")


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
