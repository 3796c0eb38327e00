"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload scan --seed 0 --seconds 25 --trace 0

Run from the root of a checkout: the package is imported from ``src``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run and writes
its spans to ``perfbench/out``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0 when
the run completed, whatever its checks found.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 9
MIN_PASSES = 3


def _import_workloads():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads  # noqa: E402  (needs the path above)
    return workloads


def make_workload(workloads, name: str, seed: int):
    if name == "sweep":
        return workloads.Sweep(seed, os.path.join(OUT, f"sweep-{seed}"))
    return workloads.WORKLOADS[name](seed)


class Reference:
    """Fixed work timed between operations, to track the speed of the core.

    On a shared machine a core switches between a fast and a slow state
    every few seconds.  Scaling an operation by ``nominal / measured``
    reference time gives the time it would have taken at the nominal speed;
    the reference runs no ``tritile`` code, so a change to the program moves
    the scaled time exactly as it moves the raw one.
    """

    def __init__(self, work, nominal: float, repeats: int):
        self.work = work
        self.nominal = nominal
        self.repeats = repeats

    def seconds(self) -> float:
        times = []
        for _ in range(self.repeats):
            start = time.perf_counter()
            self.work()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def _python_work() -> None:
    """Integer bit tricks, tuples, a dict and a keyed sort, like the graph code."""
    table: dict = {}
    for i in range(2000):
        m = (i * 2654435761) & 0xFFFFFFFF
        key = (m & 255, m.bit_count())
        table[key] = table.get(key, 0) | (1 << (m & 63))
    sorted(table.items(), key=lambda kv: (kv[0][1], -kv[1].bit_count(), kv[0][0]))


def _numpy_work() -> None:
    """The scan kernel's masked compares over half a chunk of codes."""
    import numpy as np
    codes = np.arange(1 << 19, dtype=np.uint64)
    out = np.zeros_like(codes)
    for t in range(4):
        mask = np.uint64(0b1011 << t)
        sub = codes & mask
        out |= ((sub == 0) | (sub == mask)).astype(np.uint64) << np.uint64(t)


REFERENCES = {"python": Reference(_python_work, nominal=0.002, repeats=3),
              "numpy": Reference(_numpy_work, nominal=0.025, repeats=1)}


class ScaledClock:
    """Phase hook that times each operation of a pass and the reference after it.

    ``raw`` sums the operations' wall time; ``scaled`` sums each operation's
    time multiplied by the nominal over the measured reference time around
    it, so that a change of machine speed within a pass is tracked too.
    """

    def __init__(self, reference: Reference):
        self.reference = reference
        reference.work()  # the first call pays for page faults and imports
        self.last = reference.seconds()
        self.ref_times = [self.last]
        self.raw = self.scaled = 0.0

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        ref = self.reference.seconds()
        self.raw += elapsed
        self.scaled += elapsed * 2 * self.reference.nominal / (self.last + ref)
        self.last = ref
        self.ref_times.append(ref)


class Tally:
    """Timed passes of one workload and what their checks found."""

    def __init__(self, workload, clock: ScaledClock):
        self.workload = workload
        self.clock = clock
        self.times: list[float] = []
        self.scaled_times: list[float] = []
        self.rates: list[float] = []
        self.raw_rates: list[float] = []
        self.items = 0
        self.failed = 0
        self.phase_items: dict[str, int] = {}

    def one_pass(self, phase=None) -> float:
        """Run, time and check one pass; returns its wall time.

        ``phase`` is a further hook, the tracer's, opened inside each timed
        operation.
        """
        clock = self.clock
        clock.raw = clock.scaled = 0.0
        hook = clock if phase is None else _nested(clock, phase)
        start = time.perf_counter()
        result = self.workload.run(hook)
        wall = time.perf_counter() - start
        self.failed += self.workload.check(result)
        self.times.append(clock.raw)
        self.scaled_times.append(clock.scaled)
        self.rates.append(result.items / clock.scaled)
        self.raw_rates.append(result.items / clock.raw)
        self.items += result.items
        for key, count in result.phase_items.items():
            self.phase_items[key] = self.phase_items.get(key, 0) + count
        return wall

    @property
    def attempted(self) -> int:
        return len(self.times) * self.workload.ops


def _nested(outer, inner):
    @contextlib.contextmanager
    def hook(name: str):
        with outer(name), inner(name):
            yield
    return hook


def measure(workload, seconds: float) -> Tally:
    """Whole passes until the next one would end past ``seconds``."""
    end = time.perf_counter() + seconds
    tally = Tally(workload, ScaledClock(REFERENCES[workload.reference]))
    while True:
        elapsed = tally.one_pass()
        if len(tally.times) >= MIN_PASSES and time.perf_counter() + elapsed > end:
            return tally


def pin_to_current_cpu() -> None:
    """Keep the run and its set-up probes on the core the reference measures.

    The cores of a shared machine change speed independently of each other.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, IndexError, ValueError):
        pass


def setup_seconds(name: str, seed: int) -> float:
    """Median over fresh processes of the time from launch to the first pass.

    Each probe is scaled by the Python reference timed around it.
    """
    reference = REFERENCES["python"]
    before = reference.seconds()
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--setup-probe"],
                              capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child.
        ready = float(proc.stdout.split()[-1])
        after = reference.seconds()
        samples.append((ready - start) * 2 * reference.nominal / (before + after))
        before = after
    return statistics.median(samples)


def end_to_end(workloads, args) -> tuple[int, int, dict]:
    workload = make_workload(workloads, args.workload, args.seed)
    setup = setup_seconds(args.workload, args.seed)
    run = measure(workload, args.seconds)
    print(json.dumps({"passes": len(run.times),
                      "raw_items_per_s": statistics.median(run.raw_rates),
                      "reference_s": statistics.median(run.clock.ref_times)}), file=sys.stderr)
    metrics = {
        "items_per_s": {"value": statistics.median(run.rates), "unit": "1/s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    return run.attempted, run.failed, metrics


def traced(workloads, args) -> tuple[int, int, dict]:
    """Alternate untraced and traced passes, so that both see the same machine."""
    import layers
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.phase("setup"):
            workload = make_workload(workloads, args.workload, args.seed)
    finally:
        tracer.uninstall()
    setup_totals = tracer.totals()
    tracer.reset()
    clock = ScaledClock(REFERENCES[workload.reference])
    plain, traced_run = Tally(workload, clock), Tally(workload, clock)
    end = time.perf_counter() + args.seconds
    while True:
        elapsed = plain.one_pass()
        tracer.install()
        try:
            elapsed += traced_run.one_pass(tracer.phase)
        finally:
            tracer.uninstall()
        if len(plain.times) >= 2 and time.perf_counter() + elapsed > end:
            break
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
                 {"workload": args.workload, "seed": args.seed,
                  "passes": len(traced_run.times), "pass_seconds": traced_run.times})
    overhead = (statistics.median(traced_run.scaled_times)
                / statistics.median(plain.scaled_times) - 1)
    metrics = layers.metrics(tracer.totals(), setup_totals, tracer.nodes, traced_run, overhead)
    return plain.attempted + traced_run.attempted, plain.failed + traced_run.failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("scan", "campaign", "solve", "sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the ready time and exit (used for setup_s)")
    args = parser.parse_args(argv)
    pin_to_current_cpu()
    try:
        workloads = _import_workloads()
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        make_workload(workloads, args.workload, args.seed)
        print(time.perf_counter())
        return 0
    attempted, failed, metrics = (traced if args.trace else end_to_end)(workloads, args)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
