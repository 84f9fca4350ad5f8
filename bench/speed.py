"""Machine-speed sampling, so timings can be rescaled to one reference speed.

On shared hosts a CPU can run a single-threaded workload up to 1.5x slower
for seconds at a time, independently per CPU and without any time being
stolen from the process, so wall and CPU time slow down alike. A Probe pins
the benchmark to one CPU and starts a child process pinned to the same CPU.
Every PERIOD_S seconds the child runs a fixed reference kernel and records
the CPU seconds it took. The kernel mixes what the program spends its time
on: small matrix products and gates shaped like one GRU step, CSV-like
parsing and JSON in pure Python, and a pass over a buffer larger than the L2
cache. The child has its own heap and never runs in the program's thread,
so the program's allocations do not change the kernel's speed.
``measure()`` turns an operation's wall time, less the CPU time the child
took from it, into seconds at the speed at which the kernel takes
REFERENCE_S.

    python3 bench/speed.py --check 60

alternates a cache-resident and a memory-streaming loop in the parent and
prints the kernel's median time beside each, to show that the rescaling
factor does not follow the program's memory behaviour.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time

PERIOD_S = 0.1
MIN_SAMPLES = 5     # kernel runs behind each rescaling factor
# The kernel's typical CPU time on the 2-vCPU Xeon host the benchmark was
# defined on, at its quietest; it only fixes the scale of reported seconds.
REFERENCE_S = 0.0025


class Kernel:
    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.standard_normal((16, 40))
        self.w = rng.standard_normal((88, 144)) * 0.1
        self.rows = [f"s{i:04d},c{i % 3},{i * 7 % 100},{i * 0.37:.4f},video"
                     for i in range(60)]
        self.buffer = np.ones(1 << 19)  # 4 MiB
        self.copy = np.empty_like(self.buffer)

    def run(self):
        """(start, CPU seconds of the timed run, CPU seconds of both runs).
        A first, untimed run brings the kernel's data back into the caches
        the program evicted it from, so the timed run does not depend on the
        program's working set."""
        start, cpu0 = time.perf_counter(), time.thread_time()
        self._body()
        cpu1 = time.thread_time()
        self._body()
        cpu2 = time.thread_time()
        return start, cpu2 - cpu1, cpu2 - cpu0

    def _body(self):
        np = self.np
        h = np.zeros((16, 48))
        for _ in range(50):
            a = np.concatenate([self.x, h], axis=1) @ self.w
            gates = 1.0 / (1.0 + np.exp(-a[:, :96]))
            h = np.tanh(a[:, 96:]) * gates[:, :48]
        parsed = {}
        for row in self.rows:
            sid, course, video, t, kind = row.split(",")
            parsed[sid] = [course, int(video), float(t), kind]
        json.loads(json.dumps(parsed))
        np.copyto(self.copy, self.buffer)
        self.copy.sum()


def _child():
    """Run the kernel every PERIOD_S; on each line from the parent, send the
    samples taken since the last one. Ends when the parent closes stdin."""
    kernel = Kernel()
    samples = []
    while True:
        ready, _, _ = select.select([0], [], [], PERIOD_S)
        if not ready:
            samples.append(kernel.run())
            continue
        if not os.read(0, 1):
            return
        sys.stdout.write(json.dumps(samples) + "\n")
        sys.stdout.flush()
        samples = []


class Probe:
    """Use as a context manager: the child process ends on exit."""

    def __init__(self):
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})  # the child inherits the pinning
        self.child = subprocess.Popen([sys.executable, __file__, "--child"],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        # A lower priority for the benchmark than for the child: woken, the
        # child runs its kernel through instead of sharing the CPU with it.
        os.nice(10)
        self.samples: list = []  # Kernel.run() of each kernel run
        self.factors: list = []  # reference over observed speed, per run
        self._collect()          # returns once the child is running

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.child.stdin.close()
        self.child.wait(timeout=30)

    def _collect(self):
        self.child.stdin.write(b"\n")
        self.child.stdin.flush()
        line = self.child.stdout.readline()
        if not line:
            raise RuntimeError("the speed probe process ended")
        self.samples += json.loads(line)

    def measure(self, fn):
        """Run fn(); returns (its result, wall seconds, seconds at the
        reference speed). The probe's own time inside the run is not
        counted."""
        self._collect()
        self.samples = []
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        self._collect()
        while len(self.samples) < MIN_SAMPLES:  # a short run: sample after it
            time.sleep(PERIOD_S)
            self._collect()
        own = sum(total for t, _, total in self.samples if start <= t < end)
        # the median: one kernel run delayed by the scheduler must not
        # rescale the whole operation
        factor = REFERENCE_S / statistics.median(cpu for _, cpu, _ in self.samples)
        self.factors.append(factor)
        return result, end - start, (end - start - own) * factor


def check(seconds: float, chunk_s: float = 0.5):
    """Print the kernel's median time while the parent runs a loop that stays
    in cache and while it streams through 128 MiB, in alternating chunks."""
    import numpy as np

    small = np.ones((64, 64))
    big = np.ones(1 << 24)

    def in_cache():
        for _ in range(200):
            small @ small

    def streaming():
        np.add(big, 1.0, out=big)

    times = {"in-cache": [], "streaming": []}
    with Probe() as probe:
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            for name, loop in (("in-cache", in_cache), ("streaming", streaming)):
                probe._collect()
                probe.samples = []
                until = time.perf_counter() + chunk_s
                while time.perf_counter() < until:
                    loop()
                probe._collect()
                times[name] += [cpu for _, cpu, _ in probe.samples]
    for name, values in times.items():
        print(f"{name}: kernel median {statistics.median(values) * 1e3:.4f} ms "
              f"over {len(values)} runs")
    ratio = statistics.median(times["streaming"]) / statistics.median(times["in-cache"])
    print(f"streaming / in-cache = {ratio:.4f}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        _child()
    elif sys.argv[1:2] == ["--check"]:
        check(float(sys.argv[2]) if len(sys.argv) > 2 else 60.0)
    else:
        sys.exit(f"usage: {sys.argv[0]} --check [SECONDS]")
