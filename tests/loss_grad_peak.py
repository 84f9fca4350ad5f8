"""The memory of one training step, per task.

For each task the script trains fold 0 of the heterogeneous-3course preset
at seed 1 with the strategy of the benchmark workload that trains it (OP
sc2-P-AT-B for two rounds, KT sc1-G for its default epochs), and keeps the
largest batch a training step passes to ClientData.loss_grad, by its padded
step count. For OP that is the whole 29-student client of the 90~ group,
which has fewer than two batches of students. It then runs that one
loss_grad again under tracemalloc and prints one JSON line per task: the
batch's students and padded steps, the transient peak of the bytes the call
allocates, and the bytes it still holds when it returns (its gradients).

    PYTHONPATH=src python tests/loss_grad_peak.py

The benchmark records no memory of a single layer, so this is where the
working set of a training step is measured. The file is not a pytest module.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from dataclasses import replace

from hierfed.data.partition import make_folds
from hierfed.fed.clients import ClientData
from hierfed.fed.engine import train_strategy
from hierfed.runner import ExperimentConfig, _prepare
from hierfed.synth.generate import generate, preset

SEED = 1
CONFIGS = (dict(task="OP", strategy="sc2-P-AT-B", demographic="age", rounds=2),
           dict(task="KT", strategy="sc1-G"))


def largest_step(config: ExperimentConfig, ds, parts):
    """(client, ids, params) of the training step with the most padded
    steps, the first of any tie."""
    ctx = _prepare(config, ds, parts, 0, 0)[0]
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


def measure(data: ClientData, ids, params) -> dict:
    """One loss_grad's transient peak and retained bytes under tracemalloc."""
    tracemalloc.start()
    try:
        grads = data.loss_grad(ids, params)  # noqa: F841 (held while measured)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"peak_bytes": peak, "retained_bytes": retained}


def main() -> int:
    ds = generate(replace(preset("heterogeneous-3course"), seed=SEED))
    parts = make_folds(ds, SEED)
    for fields in CONFIGS:
        config = ExperimentConfig(dataset="heterogeneous-3course", folds=(0,),
                                  repetitions=1, seed=SEED, **fields)
        data, ids, params = largest_step(config, ds, parts)
        x, lengths, _ = data.batch(ids)
        line = {"task": config.task, "strategy": config.strategy,
                "students": len(ids), "steps": int(x.shape[1]),
                "valid_steps": int(lengths.sum())}
        del x
        line.update(measure(data, ids, params))
        line["peak_mb"] = round(line["peak_bytes"] / 2**20, 2)
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
