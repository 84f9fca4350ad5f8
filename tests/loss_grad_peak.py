"""The memory of one training step per task, and of one OP scoring pass.

For each task the script trains fold 0 of the heterogeneous-3course preset
at seed 1 with the strategy of the benchmark workload that trains it (OP
sc2-P-AT-B for two rounds, KT sc1-G for its default epochs), and keeps the
largest batch a training step passes to ClientData.loss_grad, by its padded
step count. For OP that is the whole 29-student client of the 90~ group,
which has fewer than two batches of students. It then runs that one
loss_grad again under tracemalloc and prints one JSON line per task: the
batch's students and padded steps, the transient peak of the bytes the call
allocates, and the bytes it still holds when it returns (its gradients).

The scoring line is ClientData.predict over the largest test group of fold
0 under the re-scoring workload's strategy (OP sc2-G-AT-T by age: 31
students at seed 1), with the model's initial parameters, whose values do
not change what a pass allocates.

Each measured call then runs once more with its kernels marked, and one
JSON line per kernel call, in call order, gives the traced bytes at the
kernel's entry, its peak and at its exit (with its outputs still held), so
the kernel that sets a call's peak can be read off. The marks hold a few
hundred bytes of their own, so the first run alone gives the call's totals.

A last line gives the run-level view: the bytes tracemalloc holds at the
heaviest ClientData.loss_grad entry of a whole `cmd_train` shaped like the
OP training workload (the preset written to a temporary directory and read
back, as the benchmark does), with the hierfed frames of the call stack
there, outermost first. That is the run's resident working set where a
training step starts, beside the per-kernel marks of the step itself.

    PYTHONPATH=src python tests/loss_grad_peak.py

The benchmark records no memory of a single layer, so this is where the
working set of a training step is measured. The file is not a pytest module.
"""

from __future__ import annotations

import importlib
import json
import sys
import tempfile
import traceback
import tracemalloc
from dataclasses import replace
from pathlib import Path

from hierfed.data.partition import make_folds
from hierfed.fed.clients import ClientData
from hierfed.fed.engine import train_strategy
from hierfed.runner import (ExperimentConfig, _Data, _prepare, cmd_train,
                            dataset_hash)
from hierfed.synth.generate import generate, preset

SEED = 1
CONFIGS = (dict(task="OP", strategy="sc2-P-AT-B", demographic="age", rounds=2),
           dict(task="KT", strategy="sc1-G"))
SCORING = dict(task="OP", strategy="sc2-G-AT-T", demographic="age")
# the functions each measured call reaches by these modules' names
KERNELS = {
    "hierfed.fed.clients": ("pad_batch",),
    "hierfed.models.op": ("gru_forward", "attention_pool", "head_probs",
                          "head_backward", "attention_pool_backward",
                          "gru_backward"),
    "hierfed.models.kt": ("lstm_forward", "head_probs", "head_backward",
                          "lstm_backward"),
}


def largest_step(config: ExperimentConfig, resolved: _Data):
    """(client, ids, params) of the training step with the most padded
    steps, the first of any tie."""
    ctx = _prepare(config, resolved, 0, 0)[0]
    loss_grad, best = ClientData.loss_grad, [-1, None]

    def spy(data, ids, params):
        steps = len(ids) * max(len(data.encoding.students[sid][0]) for sid in ids)
        if steps > best[0]:
            best[:] = steps, (data, ids, params)
        return loss_grad(data, ids, params)

    ClientData.loss_grad = spy
    try:
        train_strategy(ctx)
    finally:
        ClientData.loss_grad = loss_grad
    return best[1]


def measure(call) -> dict:
    """call()'s transient peak and retained bytes under tracemalloc."""
    tracemalloc.start()
    try:
        result = call()  # noqa: F841 (held while measured)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"peak_bytes": peak, "retained_bytes": retained,
            "peak_mb": round(peak / 2**20, 2)}


def kernel_marks(call) -> list:
    """Each marked kernel call's traced bytes at entry, its peak and at
    exit, in call order, over one call() under tracemalloc."""
    marks, undo = [], []

    def mark(name, kernel):
        def wrapper(*args):
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = kernel(*args)
            exit_bytes, peak = tracemalloc.get_traced_memory()
            marks.append({"kernel": name, "entry_bytes": entry,
                          "peak_bytes": peak, "exit_bytes": exit_bytes})
            return result
        return wrapper

    for module_name, names in KERNELS.items():
        module = importlib.import_module(module_name)
        for name in names:
            undo.append((module, name, getattr(module, name)))
            setattr(module, name, mark(name, getattr(module, name)))
    tracemalloc.start()
    try:
        call()
    finally:
        tracemalloc.stop()
        for module, name, kernel in undo:
            setattr(module, name, kernel)
    return marks


def report(line: dict, call):
    """Print line with call's totals, then one line per kernel call."""
    line.update(measure(call))
    print(json.dumps(line), flush=True)
    for marks in kernel_marks(call):
        print(json.dumps({"task": line["task"], **marks}), flush=True)


def run_level(fields: dict) -> dict:
    """The traced bytes at the heaviest ClientData.loss_grad entry of
    cmd_train on the preset at SEED, written out and read back, and the
    hierfed frames of the call stack there."""
    loss_grad, best = ClientData.loss_grad, [-1, []]

    def spy(data, ids, params):
        resident = tracemalloc.get_traced_memory()[0]
        if resident > best[0]:
            best[:] = resident, [f"{Path(f.filename).name}:{f.lineno} {f.name}"
                                 for f in traceback.extract_stack()[:-1]
                                 if "hierfed" in Path(f.filename).parts]
        return loss_grad(data, ids, params)

    with tempfile.TemporaryDirectory() as out:
        generate(replace(preset("heterogeneous-3course"), seed=SEED),
                 out_dir=out)
        config = ExperimentConfig(dataset=out, folds=(0,), repetitions=1,
                                  seed=SEED, **fields)
        ClientData.loss_grad = spy
        tracemalloc.start()
        try:
            cmd_train(config)
        finally:
            tracemalloc.stop()
            ClientData.loss_grad = loss_grad
    return {"task": config.task, "strategy": config.strategy,
            "call": "cmd_train", "resident_bytes": best[0],
            "resident_mb": round(best[0] / 2**20, 2), "stack": best[1]}


def main() -> int:
    ds = generate(replace(preset("heterogeneous-3course"), seed=SEED))
    resolved = _Data(ds, make_folds(ds, SEED), dataset_hash(ds))
    for fields in CONFIGS:
        config = ExperimentConfig(dataset="heterogeneous-3course", folds=(0,),
                                  repetitions=1, seed=SEED, **fields)
        data, ids, params = largest_step(config, resolved)
        x, lengths, _ = data.batch(ids)
        line = {"task": config.task, "strategy": config.strategy,
                "students": len(ids), "steps": int(x.shape[1]),
                "valid_steps": int(lengths.sum())}
        del x
        report(line, lambda: data.loss_grad(ids, params))

    config = ExperimentConfig(dataset="heterogeneous-3course", folds=(0,),
                              repetitions=1, seed=SEED, **SCORING)
    _, _, test = _prepare(config, resolved, 0, 0)
    data = max(test.scored.values(), key=lambda c: c.size)
    x, lengths, _ = data.batch(data.ids)
    line = {"task": config.task, "strategy": config.strategy,
            "call": "predict", "students": data.size,
            "steps": int(x.shape[1]), "valid_steps": int(lengths.sum())}
    del x
    report(line, lambda: data.predict(test.init_params))
    del data, test
    print(json.dumps(run_level(CONFIGS[0])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
