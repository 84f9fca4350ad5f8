"""The reference sweep: generate the three presets, train and re-evaluate
every strategy on both tasks and each preset, and print digests of what each
step wrote.

The sweep first writes each preset with `cmd_generate` and prints one JSON
line with the sha256 of its events.csv, students.csv and manifest.json.
Every config then trains one fold and one repetition for two rounds or epochs,
then re-scores its checkpoint with `cmd_evaluate`; an outcome-prediction
config also exports its test students' embeddings from the same directory
with `cmd_export_embeddings` (a KT config, whose model has none, is
refused there). One JSON line per config gives the sha256 of
report.json, of the checkpoint, of evaluation.json and, for OP, of
embeddings.csv, and evaluate's all_match. Two source trees behave the same
on the sweep when their outputs and their logs on stderr are identical. Run
it on clean copies of both trees (`git archive`), with no bytecode written,
so that neither tree runs stale compiled files:

    git archive HEAD | tar -x -C ../a
    git archive PARENT | tar -x -C ../b
    cd ../a && PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=src \
        python tests/reference_sweep.py --out ../sweep-a > ../a.jsonl 2> ../a.err
    cd ../b && PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=src \
        python tests/reference_sweep.py --out ../sweep-b > ../b.jsonl 2> ../b.err
    cmp ../a.jsonl ../b.jsonl && cmp ../a.err ../b.err

Where the outputs differ, `--compare` names what moved: for each preset and
config whose lines differ it prints the name and the fields whose values
differ, and it prints nothing, exiting 0, when the two files agree:

    PYTHONPATH=src python tests/reference_sweep.py --compare ../a.jsonl ../b.jsonl

The file is not a pytest module; tests/test_runner_cli.py checks its
config list and `--compare`, without training anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from hierfed.errors import ConfigError
from hierfed.runner import (ExperimentConfig, cmd_evaluate,
                            cmd_export_embeddings, cmd_generate, cmd_train)
from hierfed.synth.generate import preset

STRATEGIES = ("sc1-L", "sc1-G", "sc1-G-AV", "sc1-G-AT", "sc1-P-AV", "sc1-P-AT",
              "sc2-L", "sc2-G", "sc2-G-AV-M", "sc2-G-AV-T", "sc2-G-AT-M",
              "sc2-G-AT-T", "sc2-P-AV-M", "sc2-P-AV-B", "sc2-P-AT-M",
              "sc2-P-AT-B", "sc2-FedIRT")
TASKS = ("KT", "OP")
# preset -> the demographic variable its scenario II runs split by
PRESETS = (("heterogeneous-3course", "age"), ("balanced-small", "gender"),
           ("imbalanced-minority", "gender"))
SETTINGS = dict(folds=(0,), repetitions=1, rounds=2, epochs=2, local_iters=2,
                seed=3)


def configs():
    """(name, ExperimentConfig fields) of every reference config, in order."""
    out = []
    for dataset, demographic in PRESETS:
        for task in TASKS:
            for strategy in STRATEGIES:
                out.append((f"{dataset}/{task}/{strategy}",
                            dict(SETTINGS, dataset=dataset, task=task,
                                 strategy=strategy, demographic=demographic)))
    return out


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate(dataset: str, out_dir: Path) -> dict:
    cmd_generate(preset(dataset), out_dir)
    line = {"generate": dataset}
    for name in ("events.csv", "students.csv", "manifest.json"):
        line[name] = _sha256(out_dir / name)
    return line


def run(name: str, fields: dict, out_dir: Path) -> dict:
    config = ExperimentConfig(**fields)
    cmd_train(config, out=out_dir, workers=1)
    doc = cmd_evaluate(out_dir)
    line = {"config": name,
            "report": _sha256(out_dir / "report.json"),
            "checkpoint": _sha256(out_dir / "checkpoint_f0_r0.json"),
            "evaluation": _sha256(out_dir / "evaluation.json"),
            "all_match": doc["all_match"]}
    try:
        cmd_export_embeddings(config, out_dir)
    except ConfigError:  # the task has no per-student embedding
        return line
    line["embeddings"] = _sha256(out_dir / "embeddings.csv")
    return line


def _lines(path) -> dict:
    """The sweep's output at path: each line by its preset or config name."""
    out = {}
    for text in Path(path).read_text().splitlines():
        line = json.loads(text)
        out[line.get("config", line.get("generate"))] = line
    return out


def compare(a, b) -> list:
    """Each preset or config whose line differs between the sweep outputs
    a and b, as "name: field ...", in a's order and then b's; a line
    missing from one file differs in every field."""
    lines_a, lines_b = _lines(a), _lines(b)
    out = []
    for name in {**lines_a, **lines_b}:
        line_a, line_b = lines_a.get(name, {}), lines_b.get(name, {})
        fields = sorted(f for f in {**line_a, **line_b}
                        if line_a.get(f) != line_b.get(f))
        if fields:
            out.append(f"{name}: {' '.join(fields)}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="DIR",
                      help="directory that receives the generated presets "
                           "and one run directory per config")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="print the fields that differ between two sweep "
                           "outputs, per preset and config")
    args = parser.parse_args(argv)
    if args.compare:
        differences = compare(*args.compare)
        for line in differences:
            print(line)
        return 1 if differences else 0
    root = Path(args.out)
    for dataset, _ in PRESETS:
        line = generate(dataset, root / "generated" / dataset)
        print(json.dumps(line, sort_keys=True), flush=True)
    all_match = True
    for i, (name, fields) in enumerate(configs()):
        line = run(name, fields, root / f"{i:03d}")
        all_match = all_match and line["all_match"]
        print(json.dumps(line, sort_keys=True), flush=True)
    return 0 if all_match else 1


if __name__ == "__main__":
    sys.exit(main())
