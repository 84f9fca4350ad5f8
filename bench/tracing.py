"""In-memory span tracing of hierfed's public functions, from outside the package.

A Tracer wraps each target function and records one span per call:
name, start, end, parent span, and counts read from the call's arguments.
Package modules import kernels by name (``from ..nn.layers import
gru_forward``), so install() replaces every binding of the original function
object in every loaded ``hierfed`` module, not only the defining one, and
uninstall() puts the originals back. Spans stay in memory until the caller
writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time


# ---------------------------------------------------------------------------
# Counts read from call arguments. Each returns a dict merged into the span.
# FLOP counts cover the matrix products and contractions only, derived from
# the shapes the kernel computes on (padded steps included).
# ---------------------------------------------------------------------------

def _rnn_forward(gemm: int):
    def counts(args, kwargs, result):
        x, lengths = args[0], args[1]
        B, T, d = x.shape
        k = result[1]["k"]
        return {"padded": B * T, "valid": int(lengths.sum()),
                "flop": gemm * B * T * (d + k) * k}
    return counts


def _rnn_backward(gemm: int):
    def counts(args, kwargs, result):
        cache = args[1]
        B, T, d, k = cache["B"], cache["T"], cache["d"], cache["k"]
        return {"flop": gemm * B * T * (d + k) * k}
    return counts


def _attention_forward(args, kwargs, result):
    B, T, k = args[0].shape
    return {"flop": 2 * B * T * (k * k + 2 * k)}


def _attention_backward(args, kwargs, result):
    B, T, k = args[1]["u"].shape
    return {"flop": 2 * B * T * (2 * k * k + 2 * k)}


def _loss_grad_students(args, kwargs, result):
    return {"students": len(args[1])}


def _predict_students(args, kwargs, result):
    data = args[0]
    ids = kwargs.get("ids", args[2] if len(args) > 2 else None)
    return {"students": len(data.ids if ids is None else ids)}


def _auc_scores(args, kwargs, result):
    return {"scores": len(args[0])}


def _eval_tag(args, kwargs, result):
    tag = kwargs.get("tag", args[2] if len(args) > 2 else ("test",))
    return {"tag": str(tag[0])}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# span name -> (module, attribute, counts). "Class.method" patches the class.
TARGETS = {
    "nn.gru_forward": ("hierfed.nn.layers", "gru_forward", _rnn_forward(6)),
    "nn.gru_backward": ("hierfed.nn.layers", "gru_backward", _rnn_backward(12)),
    "nn.lstm_forward": ("hierfed.nn.layers", "lstm_forward", _rnn_forward(8)),
    "nn.lstm_backward": ("hierfed.nn.layers", "lstm_backward", _rnn_backward(16)),
    "nn.attention_pool": ("hierfed.nn.layers", "attention_pool", _attention_forward),
    "nn.attention_pool_backward": ("hierfed.nn.layers", "attention_pool_backward",
                                   _attention_backward),
    "models.pad_batch": ("hierfed.models.encoding", "pad_batch", None),
    "fed.build_client_data": ("hierfed.fed.clients", "build_client_data", None),
    "fed.loss_grad": ("hierfed.fed.clients", "ClientData.loss_grad", _loss_grad_students),
    "fed.predict": ("hierfed.fed.clients", "ClientData.predict", _predict_students),
    "fed.train_strategy": ("hierfed.fed.engine", "train_strategy", None),
    "fed.evaluate_adapted": ("hierfed.fed.engine", "evaluate_adapted", _eval_tag),
    "fed.adapted_params": ("hierfed.fed.engine", "adapted_params", None),
    "fed.aggregate_average": ("hierfed.fed.aggregate", "aggregate_average", None),
    "fed.aggregate_attention": ("hierfed.fed.aggregate", "aggregate_attention", None),
    "fed.checkpoint.save": ("hierfed.fed.checkpoint", "save_checkpoint", _file_bytes),
    "fed.checkpoint.load": ("hierfed.fed.checkpoint", "load_checkpoint", _file_bytes),
    "data.ingest": ("hierfed.data.ingest", "ingest", None),
    "data.make_folds": ("hierfed.data.partition", "make_folds", None),
    "data.build_sequences": ("hierfed.data.sequences", "build_sequences", None),
    "synth.generate": ("hierfed.synth.generate", "generate", None),
    "metrics.auc": ("hierfed.metrics", "auc", _auc_scores),
    "runner.dataset_hash": ("hierfed.runner", "dataset_hash", None),
    "runner.cmd_train": ("hierfed.runner", "cmd_train", None),
    "runner.cmd_evaluate": ("hierfed.runner", "cmd_evaluate", None),
}


class Tracer:
    """Records spans into ``self.spans`` while installed; one per operation.

    A span is [name, start, end, parent index, counts dict or None].
    """

    def __init__(self, names=tuple(TARGETS)):
        self.names = names
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn, counts):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counts is not None:
                rec[4] = counts(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in sorted(sys.modules.items())
                  if (n == "hierfed" or n.startswith("hierfed.")) and m is not None]
        for name in self.names:
            module, attr, counts = TARGETS[name]
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, counts))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counts)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def fired(self) -> set:
        return {rec[0] for rec in self.spans}

    def write_jsonl(self, path, label: str):
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent, counts) in enumerate(self.spans):
                fh.write(json.dumps({"run": label, "id": i, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "counts": counts}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

KERNELS = ("nn.gru_forward", "nn.gru_backward", "nn.lstm_forward",
           "nn.lstm_backward", "nn.attention_pool", "nn.attention_pool_backward")


def is_timing(metric: str) -> bool:
    """Timings vary run to run; every other per-layer metric repeats exactly."""
    return metric.endswith("_s") or metric.endswith(".s")


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one operation's spans.

    ``*.self_s`` is a span's duration minus the time its direct children
    cover; ``*.s`` and ``*_s`` without ``self`` are inclusive durations.
    """
    n = len(spans)
    child = [0.0] * n
    in_eval = [False] * n
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_eval[i] = in_eval[parent]
        if name == "fed.evaluate_adapted":
            in_eval[i] = True

    calls: dict = {}
    incl: dict = {}
    self_s: dict = {}
    sums: dict = {}
    train_loss_grads = 0
    val_rounds = 0
    eval_s = {"val": 0.0, "test": 0.0}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        if name.startswith("fed.aggregate_"):
            name = "fed.aggregate"
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        if counts:
            bucket = sums.setdefault(name, {})
            for key, value in counts.items():
                if key != "tag":
                    bucket[key] = bucket.get(key, 0) + value
        if name == "fed.loss_grad" and not in_eval[i]:
            train_loss_grads += 1
        if name == "fed.evaluate_adapted":
            tag = counts["tag"]
            eval_s[tag] = eval_s.get(tag, 0.0) + dur
            val_rounds += tag == "val"

    def count(name, key):
        return sums.get(name, {}).get(key, 0)

    out: dict = {}
    for k in KERNELS:
        out[f"{k}.calls"] = calls.get(k, 0)
        out[f"{k}.self_s"] = self_s.get(k, 0.0)
    padded = (count("nn.gru_forward", "padded")
              + count("nn.lstm_forward", "padded"))
    valid = (count("nn.gru_forward", "valid")
             + count("nn.lstm_forward", "valid"))
    out["nn.rnn.padded_steps"] = padded
    out["nn.rnn.valid_steps"] = valid
    out["nn.rnn.valid_step_frac"] = valid / padded if padded else 0.0
    out["nn.rnn.gflop_computed"] = sum(count(k, "flop") for k in KERNELS) / 1e9
    out["models.pad_batch.calls"] = calls.get("models.pad_batch", 0)
    out["models.pad_batch.self_s"] = self_s.get("models.pad_batch", 0.0)
    out["fed.build_client_data.self_s"] = self_s.get("fed.build_client_data", 0.0)
    for op in ("loss_grad", "predict"):
        out[f"fed.{op}.calls"] = calls.get(f"fed.{op}", 0)
        out[f"fed.{op}.students"] = count(f"fed.{op}", "students")
        out[f"fed.{op}.self_s"] = self_s.get(f"fed.{op}", 0.0)
    out["fed.loss_grad.calls_per_round"] = (train_loss_grads / val_rounds
                                            if val_rounds else 0.0)
    out["fed.train_strategy.self_s"] = self_s.get("fed.train_strategy", 0.0)
    out["fed.evaluate_adapted.val_s"] = eval_s["val"]
    out["fed.evaluate_adapted.test_s"] = eval_s["test"]
    out["fed.adapted_params.s"] = incl.get("fed.adapted_params", 0.0)
    out["fed.aggregate.calls"] = calls.get("fed.aggregate", 0)
    out["fed.aggregate.self_s"] = self_s.get("fed.aggregate", 0.0)
    out["fed.checkpoint.save_s"] = incl.get("fed.checkpoint.save", 0.0)
    out["fed.checkpoint.load_s"] = incl.get("fed.checkpoint.load", 0.0)
    out["fed.checkpoint.bytes"] = (count("fed.checkpoint.save", "bytes")
                                   + count("fed.checkpoint.load", "bytes"))
    for name in ("data.ingest", "data.make_folds", "data.build_sequences",
                 "synth.generate", "runner.dataset_hash"):
        out[f"{name}.s"] = incl.get(name, 0.0)
    out["metrics.auc.calls"] = calls.get("metrics.auc", 0)
    out["metrics.auc.scores"] = count("metrics.auc", "scores")
    out["metrics.auc.self_s"] = self_s.get("metrics.auc", 0.0)
    out["runner.cmd_train.self_s"] = self_s.get("runner.cmd_train", 0.0)
    out["runner.cmd_evaluate.self_s"] = self_s.get("runner.cmd_evaluate", 0.0)
    return out
