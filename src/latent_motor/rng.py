"""Seeded random-number streams.

One root seed fans out into independent PCG64 streams, one per purpose,
so that e.g. environment resets and embedding noise never share a draw
sequence. Every draw goes through a counting wrapper, and stream states
are serializable, which is what makes seeded runs reproduce bit for bit.

Evaluation rollouts use stateless generators derived from (seed, key...)
tuples instead of the mutable streams: evaluating a model never advances
training-side state, and batched evaluations are reproducible by
construction.
"""

from __future__ import annotations

import numpy as np

from .errors import CheckpointError

# Stable integer ids; order and values are part of the checkpoint format.
STREAM_IDS = {
    "init": 1,
    "env": 2,
    "policy": 3,
    "noise": 4,
    "batch": 5,
}

_EVAL_ROOT = 7


class CountingStream:
    """A PCG64-backed generator that counts how many values it has drawn."""

    def __init__(self, seed_entropy):
        self._bg = np.random.PCG64(np.random.SeedSequence(seed_entropy))
        self.gen = np.random.Generator(self._bg)
        self.draws = 0

    def standard_normal(self, size=None):
        self.draws += int(np.prod(size)) if size is not None else 1
        return self.gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        self.draws += int(np.prod(size)) if size is not None else 1
        return self.gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        self.draws += int(np.prod(size)) if size is not None else 1
        return self.gen.integers(low, high, size)

    def state(self) -> dict:
        return {"state": _encode_state(self._bg.state), "draws": self.draws}

    def restore(self, payload: dict, name: str) -> None:
        self._bg.state = _decode_state(payload["state"], name)
        if type(payload["draws"]) is not int or payload["draws"] < 0:  # not bool either
            raise CheckpointError(f"rng stream {name}: draws must be an integer >= 0, "
                                  f"got {payload['draws']!r}")
        self.draws = payload["draws"]


def _encode_state(state: dict) -> dict:
    # PCG64 state holds 128-bit ints; store them as decimal strings so the
    # JSON layer never has to round-trip huge numbers through floats.
    return {
        "bit_generator": state["bit_generator"],
        "state": str(state["state"]["state"]),
        "inc": str(state["state"]["inc"]),
        "has_uint32": int(state["has_uint32"]),
        "uinteger": int(state["uinteger"]),
    }


def _decode_state(enc: dict, name: str) -> dict:
    """The PCG64 state exactly as _encode_state writes it: state and inc
    decimal strings (of 128-bit ints), has_uint32 and uinteger JSON ints of
    1 and 32 bits. Any other value raises CheckpointError."""
    ints = {}
    for key, bits in (("state", 128), ("inc", 128), ("has_uint32", 1), ("uinteger", 32)):
        value = ints[key] = enc[key]
        if bits == 128:  # as str() writes it, so that a re-save writes the same text
            ok = type(value) is str and value.isascii() and value.isdecimal()
            ints[key] = int(value) if ok and str(int(value)) == value else None
        if type(ints[key]) is not int or not 0 <= ints[key] < 2 ** bits:  # no bool either
            raise CheckpointError(f"rng stream {name}: state.{key} must be "
                                  f"{'a decimal string' if bits == 128 else 'an integer'} "
                                  f"in [0, 2**{bits}), got {value!r}")
    return {"bit_generator": enc["bit_generator"],
            "state": {"state": ints["state"], "inc": ints["inc"]},
            "has_uint32": ints["has_uint32"], "uinteger": ints["uinteger"]}


class RngStreams:
    """All mutable randomness of a run, split by purpose."""

    def __init__(self, seed: int):
        self.streams = {
            name: CountingStream([int(seed), sid]) for name, sid in STREAM_IDS.items()
        }

    def get(self, name: str) -> CountingStream:
        return self.streams[name]

    def state(self) -> dict:
        return {"streams": {name: s.state() for name, s in self.streams.items()}}

    def restore(self, payload: dict) -> None:
        """Set every stream to its state in payload, as state() writes it (the
        caller checks its keys); the states decide every later draw."""
        for name in STREAM_IDS:
            self.streams[name].restore(payload["streams"][name], name)


def eval_generator(eval_seed: int, *key: int) -> np.random.Generator:
    """Stateless generator for evaluation; same (seed, key) -> same draws."""
    entropy = [_EVAL_ROOT, int(eval_seed)] + [int(k) for k in key]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
