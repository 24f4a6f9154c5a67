"""Span tracing for the traced benchmark run, and the per-layer metrics
derived from the spans.

The tracer wraps functions of the program from outside: every module of
the package that holds a traced function by name gets the wrapper (so
`mlp_forward` is traced whether `sac` or `policies` calls it), and traced
methods are replaced on their classes. Nothing under `src/` changes;
`Tracer.uninstall` puts every original back.

Spans (name, start, end, parent, rows, work) are kept in memory in flat
arrays and written out once, when the run ends. A span's self time is its
duration minus the durations of its child spans; the program is single
threaded, so children never overlap.
"""

from __future__ import annotations

import os
from array import array
from time import perf_counter

import numpy as np

from latent_motor import (analysis, cem, checkpoint, cli, config, embedding, envs, nn,
                          policies, replay, rng, sac)


def _x_rows(x) -> int:
    return 1 if np.ndim(x) == 1 else int(np.shape(x)[0])


def _mlp_macs(mlp) -> int:
    return sum(int(w.size) for w in mlp.weights)


# rows/work extractors: (args, kwargs, result) -> (rows, work)
def _forward_rows(args, kwargs, result):
    rows = _x_rows(args[1])
    return rows, 2.0 * rows * _mlp_macs(args[0])


def _backward_rows(args, kwargs, result):
    # Weight gradients and the input gradient are one matmul each.
    rows = int(args[1].inputs[0].shape[0])
    return rows, 4.0 * rows * _mlp_macs(args[0])


def _obs_rows(args, kwargs, result):
    return _x_rows(args[1]), 0.0


def _step_rows(args, kwargs, result):
    return args[0].k, 0.0


def _episodes(args, kwargs, result):
    return len(result.episode_returns), 0.0


def _nbytes(args, kwargs, result):
    return len(result), 0.0


def _skipped(args, kwargs, result):
    return int(result.skipped), 0.0


# (span name, home module, function, rows extractor). Module functions are
# patched in every package module that holds the same object by name.
FUNCTIONS = [
    ("nn.mlp_forward", "nn", "mlp_forward", _forward_rows),
    ("nn.mlp_backward", "nn", "mlp_backward", _backward_rows),
    ("nn.adam_step", "nn", "adam_step", None),
    ("nn.soft_update", "nn", "soft_update", None),
    ("nn.gaussian_head", "nn", "gaussian_head", None),
    ("nn.sample_squashed", "nn", "sample_squashed", None),
    ("nn.policy_sample_backward", "nn", "policy_sample_backward", None),
    ("sac.train", "sac", "train", None),
    ("sac.sac_update", "sac", "sac_update", _skipped),
    ("sac.q_target", "sac", "q_target", None),
    ("sac.eval_all_tasks", "sac", "eval_all_tasks", None),
    ("sac.evaluate_policy", "sac", "evaluate_policy", _episodes),
    ("embedding.interpolate", "embedding", "interpolate", None),
    ("embedding.inject_noise", "embedding", "inject_noise", None),
    ("embedding.normalize_rows", "embedding", "normalize_rows", None),
    ("cem.cem_adapt", "cem", "cem_adapt", None),
    ("analysis.evaluate_sphere", "analysis", "evaluate_sphere", None),
    ("analysis.interpolation_sweep", "analysis", "interpolation_sweep", None),
    ("analysis.search_beta", "analysis", "search_beta", None),
    ("checkpoint.save_checkpoint", "checkpoint", "save_checkpoint", None),
    ("checkpoint.checkpoint_payload", "checkpoint", "checkpoint_payload", None),
    ("checkpoint.dump_bytes", "checkpoint", "dump_bytes", _nbytes),
    ("checkpoint.load_checkpoint", "checkpoint", "load_checkpoint", None),
    ("config.load_config", "config", "load_config", None),
    ("cli.main", "cli", "main", None),
]

_POLICIES = ("EarPolicy", "OhePolicy", "MhmtPolicy")

# (span name, module, classes, method, rows extractor)
METHODS = [
    ("policies.forward_train", "policies", _POLICIES, "forward_train", _obs_rows),
    ("policies.backward_train", "policies", _POLICIES, "backward_train", None),
    ("policies.action_eval", "policies", _POLICIES, "action_eval", _obs_rows),
    ("envs.VecRollout.step", "envs", ("VecRollout",), "step", _step_rows),
    ("replay.add", "replay", ("ReplayBuffer",), "add", None),
    ("replay.sample", "replay", ("ReplayBuffer",), "sample", None),
]

MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in (
    analysis, cem, checkpoint, cli, config, embedding, envs, nn, policies, replay, rng, sac)}
SPANS = {name for name, *_ in FUNCTIONS + METHODS}


class Tracer:
    """Records nested spans around wrapped functions."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.work = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, rows_fn=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.rows.append(0)
            self.work.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if rows_fn is not None:
                self.rows[idx], self.work[idx] = rows_fn(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for name, home, attr, rows_fn in FUNCTIONS:
            original = getattr(MODULES[home], attr)
            wrapper = self.wrap(name, original, rows_fn)
            for mod in MODULES.values():
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)
        for name, home, classes, attr, rows_fn in METHODS:
            for cls_name in classes:
                cls = getattr(MODULES[home], cls_name)
                self._patch(cls, attr, self.wrap(name, cls.__dict__[attr], rows_fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write every span as flat columns (numpy .npz)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=np.array(self.name_id),
                 parent=np.array(self.parent), start=np.array(self.start),
                 end=np.array(self.end), rows=np.array(self.rows), work=np.array(self.work))


class SpanSummary:
    """Per-name aggregates of a tracer's spans.

    `stats[stat][span]` is one of `calls`, `rows`, `self_s`, `total_s` or
    `work` summed over the spans of that name.
    """

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.name_id = np.array(tracer.name_id, dtype=np.int64)
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.dur = np.array(tracer.end) - np.array(tracer.start)
        self.row = np.array(tracer.rows, dtype=np.int64)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        k = len(self.names)

        def per_name(weights=None, cast=float):
            sums = np.bincount(self.name_id, weights=weights, minlength=k)
            return {n: cast(v) for n, v in zip(self.names, sums)}

        self.stats = {"calls": per_name(cast=int),
                      "rows": per_name(self.row, int),
                      "self_s": per_name(self.dur - child),
                      "total_s": per_name(self.dur),
                      "work": per_name(np.array(tracer.work))}

    def get(self, stat: str, span: str):
        """A stat of a span; 0 for a span the run never reached."""
        if span not in SPANS:
            raise KeyError(f"no traced span {span!r}")
        return self.stats[stat].get(span, 0)

    def durations(self, name) -> np.ndarray:
        if name not in self.names:
            return np.zeros(0)
        return self.dur[self.name_id == self.names.index(name)]

    def under(self, name, parent_name) -> np.ndarray:
        """Indices of `name` spans whose direct parent is a `parent_name` span."""
        if name not in self.names or parent_name not in self.names:
            return np.zeros(0, dtype=np.int64)
        idx = np.flatnonzero(self.name_id == self.names.index(name))
        par = self.parent[idx]
        par_ok = par >= 0
        hit = np.zeros(len(idx), dtype=bool)
        hit[par_ok] = self.name_id[par[par_ok]] == self.names.index(parent_name)
        return idx[hit]


def _ms_pct(durations: np.ndarray, pct: float) -> float:
    return float(1e3 * np.percentile(durations, pct)) if len(durations) else 0.0


def derived_metrics(s: SpanSummary, draws: dict, untraced_s: float, traced_s: float) -> dict:
    """The per-layer metrics that are not one stat of one span."""
    work = s.get("work", "nn.mlp_forward") + s.get("work", "nn.mlp_backward")
    busy = s.get("self_s", "nn.mlp_forward") + s.get("self_s", "nn.mlp_backward")
    updates = s.durations("sac.sac_update")
    # Training time outside the update, batch sampling and evaluation spans.
    collect = (s.get("total_s", "sac.train") - s.get("total_s", "sac.sac_update")
               - s.get("total_s", "replay.sample") - s.get("total_s", "sac.eval_all_tasks"))
    cem_evals = s.under("sac.evaluate_policy", "cem.cem_adapt")
    m = {
        "nn.gflop": work / 1e9,
        "nn.gflop_per_s": work / 1e9 / busy if busy > 0 else 0.0,
        "sac.sac_update.ms_p50": _ms_pct(updates, 50),
        "sac.sac_update.ms_p99": _ms_pct(updates, 99),
        "sac.sac_update.skipped": s.get("rows", "sac.sac_update"),
        "sac.collect_s": max(collect, 0.0),
        "cem.evaluations": len(cem_evals),
        "cem.episodes": int(s.row[cem_evals].sum()),
        "analysis.search_beta.evaluations":
            len(s.under("sac.evaluate_policy", "analysis.search_beta")),
        "checkpoint.bytes": s.get("rows", "checkpoint.dump_bytes"),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead": traced_s / untraced_s - 1.0,
        "trace.spans": len(s.dur),
    }
    for stream, count in draws.items():
        m[f"rng.draws.{stream}"] = count
    return m


def layer_metrics(s: SpanSummary, per_layer: list[dict], draws: dict,
                  untraced_s: float, traced_s: float) -> dict:
    """Every metric of `per_layer` (BENCHMARK.json), as name -> (value, unit).

    A name is either a derived figure or `<span>.<stat>`.
    """
    derived = derived_metrics(s, draws, untraced_s, traced_s)
    m = {}
    for metric in per_layer:
        name = metric["name"]
        if name in derived:
            value = derived[name]
        else:
            span, stat = name.rsplit(".", 1)
            value = s.get(stat, span)
        m[name] = (value, metric["unit"])
    return m
