"""Check the benchmark's reference test AUCs against this source tree.

For every workload of bench/run.py and every seed that bench/golden.json
holds references for, this runs the benchmark's own set-up and one
operation (the same config, dataset and procedure as `bench/run.py --seed
N`, untraced and untimed) in a temporary directory. It prints each
test_auc_mean against its reference and the file's auc_tolerance, and
whether report.json's sha256 matches the recorded one, which a change that
moves values at rounding level does not keep. It writes nothing under
bench/.

    python tests/golden_auc_check.py [--workload NAME ...]

Exits 1 when any test_auc_mean is outside the tolerance. The file is not a
pytest module: a full check trains 75 configs.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def load_bench():
    """bench/run.py as a module. Loading it pins BLAS to one thread before
    numpy is imported, as a benchmark run does."""
    sys.path.insert(0, str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  BENCH_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module._import_hierfed()
    return module


def check(bench_run, workload: str, seed: int) -> bool:
    """Print one line for (workload, seed); True when its AUC is in bounds."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="golden-auc-") as tmp:
        os.chdir(tmp)  # the bench writes its dataset and runs relative to it
        try:
            bench = bench_run.Bench(workload, seed, "full")
            bench.setup()
            output, auc_mean = bench.operation()
        finally:
            os.chdir(cwd)
    try:
        bench.check(output, auc_mean)  # also records report.json's sha256
        ok = True
    except bench_run.OutputError:
        ok = False
    ref = bench.reference
    diff = abs(auc_mean - ref["test_auc_mean"])
    sha = ("matches" if bench.report_sha == ref["report_sha256"]
           else "differs")
    print(f"{workload} seed {seed}: test_auc_mean {auc_mean!r} reference "
          f"{ref['test_auc_mean']!r} |diff| {diff:.3g} "
          f"{'ok' if ok else 'OUT OF TOLERANCE'}; report sha256 {sha}",
          flush=True)
    return ok


def main(argv=None) -> int:
    bench_run = load_bench()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(bench_run.WORKLOADS),
                        help="check only this workload (repeatable); "
                             "default: every workload")
    args = parser.parse_args(argv)
    golden = json.loads(bench_run.GOLDEN.read_text())
    results = [check(bench_run, workload, seed)
               for workload in args.workload or bench_run.WORKLOADS
               for seed in range(golden["seeds"])]
    print(f"{sum(results)} of {len(results)} test_auc_mean values within "
          f"{golden['auc_tolerance']} of bench/golden.json")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
