"""Versioned checkpoint serialization.

A checkpoint is canonical JSON (sorted keys, compact separators, one
trailing newline, no NaN or Infinity). Every float array is one object
{"shape": [...], "f4"|"f8": "<base64 of its little-endian bytes in C
order>"} in the dtype the model holds it in (float32 networks and moments,
float64 temperature moments and embedding set); scalars, configs, task
specs and the RNG state stay plain JSON.
The raw bytes make load(save(model)) bit-identical and re-saving
byte-identical, and parsing a few base64 strings is far cheaper than
parsing every element as a decimal.

The file uses the in-memory layout: each network is one flat parameter
buffer (the top-level fields policy, q and q_target; q holds both twin
critics, stacked), and each optimizer under "adam" (policy, q, alpha) is
its two flat moments and its step count. The layout inside a buffer
follows from the stored config, which rebuilds the model; a value the
model derives, such as its family or its target entropy, is not stored,
and neither is the run's seed: the loader builds the model with the
default seed, and the stored buffers and stream states overwrite its
init weights and streams. Every JSON object in the file must hold
exactly the keys the saver writes, so no value falls back to a default
or is ignored, and config.read_record checks the tasks, constants and
config against their fields' annotations; a failure of these records, or
of the model they build, is a CheckpointError. Loading decodes every
array into that fresh model through one helper that checks its keys, its
shape (entries are integers >= 0) and that every entry is finite, then
re-validates the Adam moments and steps, the stream states, log_alpha and
the embedding invariants (a degenerate task encoder is a CheckpointError
too).
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import os

import numpy as np

from .config import read_record
from .envs import EnvConstants, TaskSpec
from .errors import CheckpointError, ConfigurationError, DegenerateEmbedding
from .sac import SacModel, TrainConfig

FORMAT_VERSION = 7
_KEYS = {np.dtype(np.float32): "f4", np.dtype(np.float64): "f8"}  # the stored dtype
# The top-level fields of every file; an ear file also holds "lte_set".
_FIELDS = {"format_version", "kind", "tasks", "constants", "config", "policy", "q", "q_target",
           "log_alpha", "adam", "rng"}


class _Text(bytes):
    """The base64 text of an array, which dump_bytes inserts unescaped."""


def _encode(a: np.ndarray) -> dict:
    # no ascontiguousarray: it would turn the 0-d temperature moments 1-d
    key = _KEYS[a.dtype]
    a = np.asarray(a, dtype="<" + key)
    if not np.all(np.isfinite(a)):
        raise CheckpointError(f"refusing to serialize non-finite array of shape {list(a.shape)}")
    return {"shape": list(a.shape), key: _Text(base64.b64encode(a.tobytes()))}


def _decode(payload, dst: np.ndarray, name: str) -> None:
    """Copy an encoded array into dst after checking its keys, dtype, shape
    and values."""
    key = _KEYS[dst.dtype]
    _exact_keys(payload, {"shape", key}, name)
    shape = payload["shape"]
    # reshape would read a negative entry as "infer this axis"
    if type(shape) is not list or not all(type(n) is int and n >= 0 for n in shape):
        raise CheckpointError(f"{name} has shape {shape!r}, expected {list(dst.shape)}")
    try:
        raw = base64.b64decode(payload[key], validate=True)
        src = np.frombuffer(raw, dtype="<" + key).reshape(shape)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise CheckpointError(f"malformed array {name}: {exc}") from exc
    if src.shape != dst.shape:
        raise CheckpointError(f"{name} has shape {list(src.shape)}, expected {list(dst.shape)}")
    if not np.all(np.isfinite(src)):
        raise CheckpointError(f"{name} has non-finite entries")
    np.copyto(dst, src)


def _exact_keys(stored, expected, where: str) -> None:
    """Require the JSON object stored to hold exactly the keys of expected,
    and, where expected maps a key to a dict or set, its value likewise."""
    keys = set(stored) if isinstance(stored, dict) else set()
    missing, unknown = sorted(set(expected) - keys), sorted(keys - set(expected))
    if missing or unknown:
        raise CheckpointError(f"{where} must hold the saved fields: missing {missing}, "
                              f"unknown {unknown}")
    for key, sub in expected.items() if isinstance(expected, dict) else ():
        if isinstance(sub, (dict, set)):
            _exact_keys(stored[key], sub, f"{where}.{key}")


def _record(stored, cls, where: str):
    """The dataclass cls read from stored, which must hold exactly its fields."""
    _exact_keys(stored, {f.name for f in dataclasses.fields(cls)}, where)
    return read_record(cls, stored, where)


def _buffers(model: SacModel) -> dict:
    """The model's parameter buffers, by the top-level field that stores each."""
    return {"policy": model.policy.flat, "q": model.q.flat, "q_target": model.q_target.flat}


def _optimizers(model: SacModel) -> dict:
    """The model's Adam states, by their key under "adam"."""
    return {"policy": model.opt_policy, "q": model.opt_q, "alpha": model.opt_alpha}


def checkpoint_payload(model: SacModel) -> dict:
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "tasks": [dataclasses.asdict(t) for t in model.tasks],
        "constants": dataclasses.asdict(model.constants),
        "config": dataclasses.asdict(model.config),
        **{name: _encode(flat) for name, flat in _buffers(model).items()},
        "log_alpha": float(model.log_alpha),
        "adam": {name: {"m": _encode(st.m), "v": _encode(st.v), "step": st.step}
                 for name, st in _optimizers(model).items()},
        "rng": model.rngs.state(),
    }
    if model.kind == "ear":
        payload["lte_set"] = _encode(model.lte_set())
    return payload


def dump_bytes(payload: dict) -> bytes:
    """The canonical JSON of payload: json.dumps writes "\\0" for each array's
    base64 text, which needs no JSON escape and goes into the bytes as it is."""
    texts = []

    def slot(obj):
        if type(obj) is not _Text:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        texts.append(obj)
        return "\0"
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False, default=slot)
    except ValueError as exc:
        raise CheckpointError(f"refusing to serialize non-finite value: {exc}") from exc
    parts = (text + "\n").encode("utf-8").split(b'"\\u0000"')
    if len(parts) != len(texts) + 1:  # a stored string encodes like a slot
        raise CheckpointError("refusing to serialize a string that encodes like an array slot")
    # parts[0] "texts[0]" parts[1] "texts[1]" ... parts[-1]
    return b'"'.join([piece for pair in zip(parts, texts) for piece in pair] + parts[-1:])


def save_checkpoint(model: SacModel, path: str) -> str:
    """Write the model, atomically (a temp file replaces path); returns its sha256."""
    data = dump_bytes(checkpoint_payload(model))
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
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
    _exact_keys(payload, _FIELDS | ({"lte_set"} if payload.get("kind") == "ear" else set()),
                "checkpoint")
    try:
        tasks = [_record(d, TaskSpec, f"tasks[{i}]") for i, d in enumerate(payload["tasks"])]
        constants = _record(payload["constants"], EnvConstants, "constants")
        config = _record(payload["config"], TrainConfig, "config")
        model = SacModel(payload["kind"], tasks, config, constants)
        for name, flat in _buffers(model).items():
            _decode(payload[name], flat, name)
        if type(payload["log_alpha"]) is not float:  # not an int or bool either
            raise CheckpointError(f"log_alpha must be a float, got {payload['log_alpha']!r}")
        model.log_alpha[...] = payload["log_alpha"]
        _exact_keys(payload["adam"], dict.fromkeys(_optimizers(model), {"m", "v", "step"}), "adam")
        for name, st in _optimizers(model).items():
            stored = payload["adam"][name]
            _decode(stored["m"], st.m, f"adam.{name}.m")
            _decode(stored["v"], st.v, f"adam.{name}.v")
            if np.any(st.v < 0):
                raise CheckpointError(f"adam.{name}: second moments must be non-negative")
            # bool is an int subclass; JSON true must not load as step 1
            if type(stored["step"]) is not int or stored["step"] < 0:
                raise CheckpointError(
                    f"adam.{name}.step must be an integer >= 0, got {stored['step']!r}")
            st.step = stored["step"]
        _exact_keys(payload["rng"], model.rngs.state(), "rng")
        model.rngs.restore(payload["rng"])
        if model.kind == "ear":
            _validate_embeddings(model, payload["lte_set"])
    except ConfigurationError as exc:  # a stored record or the model it builds
        raise CheckpointError(str(exc)) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint field: {exc}") from exc
    if not np.isfinite(model.log_alpha):
        raise CheckpointError(f"non-finite temperature: log_alpha is {float(model.log_alpha)}")
    return model


def _validate_embeddings(model: SacModel, encoded: dict) -> None:
    try:
        lte = model.lte_set()
    except DegenerateEmbedding as exc:
        raise CheckpointError(f"stored task encoder is degenerate: {exc}") from exc
    stored = np.empty_like(lte)
    _decode(encoded, stored, "lte_set")
    if not np.allclose(stored, lte, atol=1e-12, rtol=0.0):
        raise CheckpointError("stored embedding set disagrees with encoder weights")


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
