"""Benchmark runner for hierfed.

Runs one workload in this process, with workers=1 and BLAS pinned to one
thread, checks its outputs, and prints one metric per line followed by a
final JSON line {"correct", "attempted", "failed", "metrics"}.

    python3 bench/run.py --workload op-rescore --seed 1 --seconds 12 --trace 0

--trace 0 reports the end-to-end metrics, timed with tracing off and
rescaled to a reference machine speed that a probe process measures on the
benchmark's CPU (see speed.py). --trace 1 alternates
untraced and traced operations and reports per-layer metrics from spans
recorded around calls into hierfed's modules (see tracing.py), plus the
tracing overhead. Workloads, their reasons and what is left unmeasured are
described in bench/README.md.
"""

import os

# Pinned before numpy loads: one BLAS/OpenMP thread keeps a run within the
# cores it is given and makes timings comparable across machines.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
# HIERFED_SEED overrides every seed in the program and would silently change
# the workload.
_SEED_ENV = os.environ.pop("HIERFED_SEED", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import Probe  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 5      # set-ups per --trace 0 run; setup_s is their median
MIN_TIMED_OPS = 2   # a median of one sample would be a single draw
GOLDEN = BENCH_DIR / "golden.json"

END_TO_END_UNITS = {"run_s": "s", "seqs_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}

_TRAIN_SPANS = ("models.pad_batch", "fed.build_client_data", "fed.loss_grad",
                "fed.predict", "fed.train_strategy", "fed.evaluate_adapted",
                "fed.adapted_params", "fed.checkpoint.save", "data.ingest",
                "data.make_folds", "data.build_sequences", "metrics.auc",
                "runner.dataset_hash", "runner.cmd_train")


@dataclass(frozen=True)
class Workload:
    kind: str           # "train": the op is cmd_train; "rescore": cmd_evaluate
    config: dict        # ExperimentConfig fields of the trained run
    spans: tuple        # spans one operation must fire
    tiny: dict = field(default_factory=dict)  # overrides at --scale tiny


WORKLOADS = {
    # Two rounds of the default ten: every per-round mechanism runs, and
    # a run fits the time budget of the whole benchmark.
    "op-personal-train": Workload(
        kind="train",
        config=dict(task="OP", strategy="sc2-P-AT-B", demographic="age",
                    folds=(0,), repetitions=1, rounds=2),
        spans=_TRAIN_SPANS + ("nn.gru_forward", "nn.gru_backward",
                              "nn.attention_pool", "nn.attention_pool_backward",
                              "fed.aggregate_attention"),
        tiny=dict(rounds=1, local_iters=1)),
    "kt-central-train": Workload(
        kind="train",
        config=dict(task="KT", strategy="sc1-G", folds=(0,), repetitions=1),
        spans=_TRAIN_SPANS + ("nn.lstm_forward", "nn.lstm_backward"),
        tiny=dict(epochs=2)),
    # Set-up trains the checkpoints with one round of one local step: the
    # rescored models have the same shapes as fully trained ones.
    "op-rescore": Workload(
        kind="rescore",
        config=dict(task="OP", strategy="sc2-G-AT-T", demographic="age",
                    folds=(0, 1, 2, 3, 4), repetitions=1, rounds=1,
                    local_iters=1),
        spans=("nn.gru_forward", "nn.attention_pool", "models.pad_batch",
               "fed.build_client_data", "fed.predict", "fed.evaluate_adapted",
               "fed.adapted_params", "fed.checkpoint.load", "data.ingest",
               "data.make_folds", "data.build_sequences", "metrics.auc",
               "runner.dataset_hash", "runner.cmd_evaluate")),
}

TINY_STUDENTS_PER_COURSE = 60


class OutputError(Exception):
    """An operation finished but its output failed a check."""


def _import_hierfed():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import hierfed.runner  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"error: cannot import hierfed from {SRC}: {exc}")
    import hierfed
    if not Path(hierfed.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: hierfed imported from {hierfed.__file__}, "
                         f"not from {SRC}")


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "numpy": numpy.__version__, "blas": blas_build,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "python": platform.python_version(), "workers": 1,
            "HIERFED_SEED": "removed" if _SEED_ENV is not None else "unset"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _timed(fn, probe=None):
    """(fn(), wall seconds, seconds at the probe's reference speed)."""
    if probe is not None:
        return probe.measure(fn)
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, wall, wall


def _timing_line(name: str, samples: list) -> str:
    """Median of (wall, scaled) samples, plus the highest percentile with at
    least ten samples beyond it when there are enough."""
    if not samples:
        return f"timing {name}: no samples"
    n = len(samples)
    scaled = [s for _, s in samples]
    line = (f"timing {name}: median {statistics.median(scaled):.6g} s at reference "
            f"speed, {statistics.median(w for w, _ in samples):.6g} s wall, "
            f"of {n} samples")
    if n >= 11:
        p = 100 * (n - 10) // n
        value = statistics.quantiles(scaled, n=100, method="inclusive")[p - 1]
        line += f"; p{p} {value:.6g} s"
    else:
        line += "; too few for a percentile with 10 samples beyond it"
    return line + "; samples " + " ".join(f"{s:.4g}/{w:.4g}" for w, s in samples)


class Bench:
    def __init__(self, workload: str, seed: int, scale: str):
        from hierfed.runner import ExperimentConfig
        from hierfed.synth.generate import preset

        golden = json.loads(GOLDEN.read_text())
        self.name = workload
        self.wl = WORKLOADS[workload]
        # The references cover seeds 0 .. n-1; every --seed maps onto one of
        # them, so the output check can always fail.
        self.seed = seed % golden["seeds"]
        overrides = self.wl.tiny if scale == "tiny" else {}
        self.config = ExperimentConfig(dataset="data", seed=self.seed,
                                       **{**self.wl.config, **overrides})
        self.gen_config = replace(preset("heterogeneous-3course"), seed=self.seed)
        if scale == "tiny":
            self.gen_config = replace(self.gen_config,
                                      students_per_course=TINY_STUDENTS_PER_COURSE)
        # references are of full-scale runs; a tiny run checks only that its
        # outputs repeat
        self.reference = (golden["workloads"][workload][str(self.seed)]
                          if scale == "full" else {})
        self.auc_tolerance = golden["auc_tolerance"]
        self.attempted = 0
        self.failed = 0
        self.digest = None          # sha256 of the first operation's output
        self.report_sha = None      # sha256 of the trained report.json
        self.auc_mean = None
        self.layer_runs: list = []  # per-layer metrics of each traced op
        self.tracers: list = []     # (label, Tracer), written out at the end
        self.notes: list = []

    # -- set-up and the operation ------------------------------------------

    def setup(self, tracer=None, probe=None):
        """Generate and write the dataset; for op-rescore also train the
        checkpoints it re-scores. Returns (wall, scaled) seconds."""
        import hierfed.runner as runner
        import hierfed.synth as synth

        def work():
            with tracer or nullcontext():
                synth.generate(self.gen_config, out_dir="data")
            if self.wl.kind == "rescore":
                runner.cmd_train(self.config, out="ckpt", workers=1)

        for d in ("data", "ckpt", "train"):
            shutil.rmtree(d, ignore_errors=True)
        gc.collect()
        _, wall, scaled = _timed(work, probe)
        if self.wl.kind == "rescore":
            self.report_sha = _sha256(Path("ckpt/report.json").read_bytes())
        return wall, scaled

    def operation(self):
        """One workload operation: (output bytes, test_auc_mean)."""
        import hierfed.runner as runner

        if self.wl.kind == "train":
            report = runner.cmd_train(self.config, out="train", workers=1)
            return (Path("train/report.json").read_bytes(),
                    report["summary"]["overall_mean"])
        doc = runner.cmd_evaluate("ckpt")
        if not doc["all_match"]:
            raise OutputError("re-scored test AUCs differ from the trained "
                              "report (all_match is false)")
        aucs = [v for row in doc["runs"] for v in row["test_auc"].values()
                if v is not None]
        return Path("ckpt/evaluation.json").read_bytes(), statistics.fmean(aucs)

    def check(self, output: bytes, auc_mean):
        digest = _sha256(output)
        if self.digest is None:
            self.digest, self.auc_mean = digest, auc_mean
            if self.wl.kind == "train":
                self.report_sha = digest
        elif digest != self.digest:
            raise OutputError(f"output sha256 {digest} differs from the first "
                              f"operation's {self.digest}")
        ref = self.reference.get("test_auc_mean")
        if ref is not None and not abs(auc_mean - ref) <= self.auc_tolerance:
            raise OutputError(f"test_auc_mean {auc_mean!r} differs from the "
                              f"reference {ref!r} for seed {self.seed}")

    def check_trace(self, tracer, layers: dict):
        from tracing import is_timing

        missing = sorted(set(self.wl.spans) - tracer.fired())
        if missing:
            raise OutputError(f"spans never fired: {', '.join(missing)}; a call "
                              "path bypasses the tracing wrappers")
        if self.layer_runs:
            first = self.layer_runs[0]
            moved = [k for k in first if not is_timing(k) and layers[k] != first[k]]
            if moved:
                raise OutputError(f"traced counts differ between operations: "
                                  f"{', '.join(moved)}")

    def attempt(self, tracer=None, probe=None):
        """Run and check one operation; returns its (wall, scaled) seconds,
        or None if it failed. A traced one also records per-layer metrics."""
        from tracing import layer_metrics

        self.attempted += 1
        gc.collect()  # garbage of the previous operation is not this one's cost
        try:
            with tracer or nullcontext():
                (output, auc_mean), wall, scaled = _timed(self.operation, probe)
            self.check(output, auc_mean)
            if tracer is not None:
                self.tracers.append((f"op{self.attempted}", tracer))
                layers = layer_metrics(tracer.spans)
                self.check_trace(tracer, layers)
                self.layer_runs.append(layers)
            return wall, scaled
        except Exception:  # every failure is counted and the run goes on
            self.failed += 1
            print(f"operation {self.attempted} failed:", file=sys.stderr)
            traceback.print_exc()
            return None

    # -- the two kinds of run ------------------------------------------------

    def run_plain(self, seconds: float, probe: Probe, imported: tuple) -> dict:
        """imported: (wall, scaled) seconds of importing the program."""
        from tracing import Tracer

        setups = [self.setup(probe=probe) for _ in range(SETUP_REPS)]
        # warm-up, traced to count the sequences; not timed
        self.attempt(Tracer())
        layers = self.layer_runs[0] if self.layer_runs else {}
        seqs = layers.get("fed.loss_grad.students", 0) + layers.get("fed.predict.students", 0)
        times = []
        started = time.perf_counter()
        while len(times) < MIN_TIMED_OPS or time.perf_counter() - started < seconds:
            timing = self.attempt(probe=probe)
            if timing is None:
                break
            times.append(timing)
        run_s = statistics.median(s for _, s in times) if times else 0.0
        import_wall, import_s = imported
        self.notes += [_timing_line("run_s", times),
                       _timing_line("setup_s", [(import_wall + w, import_s + s)
                                                for w, s in setups]),
                       f"import {import_s:.6g} s at reference speed, "
                       f"{import_wall:.6g} s wall, included in each set-up sample",
                       "speed factors (reference / observed kernel time) "
                       + " ".join(f"{f:.4f}" for f in probe.factors)]
        return {"run_s": run_s,
                "seqs_per_s": seqs / run_s if run_s else 0.0,
                "setup_s": import_s + statistics.median(s for _, s in setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    def run_traced(self, seconds: float) -> dict:
        from tracing import Tracer, is_timing

        setup_tracer = Tracer(("synth.generate",))
        self.setup(setup_tracer)
        self.tracers.append(("setup", setup_tracer))
        plain, traced = [], []
        started = time.perf_counter()
        pairs = 0
        while pairs < 1 or time.perf_counter() - started < seconds:
            pairs += 1
            order = ((plain, None), (traced, Tracer()))
            for out, tracer in order if pairs % 2 else order[::-1]:
                timing = self.attempt(tracer)
                if timing is not None:
                    out.append(timing[0])
            if len(plain) < pairs or len(traced) < pairs:
                break
        metrics = {}
        for key in self.layer_runs[0] if self.layer_runs else ():
            values = [run[key] for run in self.layer_runs]
            metrics[key] = statistics.median(values) if is_timing(key) else values[0]
        metrics["synth.generate.s"] = sum(end - start for _, start, end, _, _
                                          in setup_tracer.spans)
        plain_s = statistics.median(plain) if plain else 0.0
        traced_s = statistics.median(traced) if traced else 0.0
        metrics["trace.overhead_s"] = traced_s - plain_s
        metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s if plain_s else 0.0
        self.notes += [_timing_line("untraced op", [(w, w) for w in plain]),
                       _timing_line("traced op", [(w, w) for w in traced])]
        return metrics

    def write_spans(self, trace: int):
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        path = spans_dir / f"{self.name}-seed{self.seed}-trace{trace}.jsonl"
        path.unlink(missing_ok=True)
        for label, tracer in self.tracers:
            tracer.write_jsonl(path, label)
        return path


def layer_unit(name: str) -> str:
    from tracing import is_timing

    if is_timing(name):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("gflop_computed"):
        return "GFLOP"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--scale", default="full", choices=("full", "tiny"),
                   help="tiny: 60 students per course and fewer rounds, for "
                        "the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # --trace 0 starts the speed probe first: set-up time includes the import
    with nullcontext() if args.trace else Probe() as probe:
        _, import_wall, import_s = _timed(_import_hierfed, probe)
        bench = Bench(args.workload, args.seed, args.scale)
        run_dir = WORK / f"run-{os.getpid()}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        os.chdir(run_dir)  # relative paths keep report.json free of this location
        try:
            if args.trace:
                metrics = bench.run_traced(args.seconds)
                units = {name: layer_unit(name) for name in metrics}
            else:
                metrics = bench.run_plain(args.seconds, probe, (import_wall, import_s))
                units = END_TO_END_UNITS
        finally:
            os.chdir(ROOT)
            shutil.rmtree(run_dir, ignore_errors=True)
    spans_path = bench.write_spans(args.trace)

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} (dataset and training "
          f"seed {bench.seed}) scale {args.scale} trace {args.trace}; "
          f"spans in {spans_path.relative_to(ROOT)}")
    ref = bench.reference
    auc_ref, sha_ref = ref.get("test_auc_mean"), ref.get("report_sha256")
    if auc_ref is None:
        auc_status = "not checked at this scale"
    elif bench.auc_mean is not None and abs(bench.auc_mean - auc_ref) <= bench.auc_tolerance:
        auc_status = f"matches reference {auc_ref!r}"
    else:
        auc_status = f"MISMATCH with reference {auc_ref!r}"
    sha_status = ("not checked at this scale" if sha_ref is None
                  else "matches reference" if sha_ref == bench.report_sha
                  else f"MISMATCH with reference {sha_ref}")
    print(f"test_auc_mean = {bench.auc_mean!r} auc ({auc_status})")
    print(f"report.json sha256 {bench.report_sha} ({sha_status})")
    for note in bench.notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    failed_frac = bench.failed / max(bench.attempted, 1)
    print(f"failed_frac = {failed_frac:.6g} ratio ({bench.failed} of {bench.attempted})")
    print(json.dumps({
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
