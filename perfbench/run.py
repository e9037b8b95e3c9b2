"""oamcnot benchmark: one workload, one process, one caller in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  With ``--trace 0`` the run prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

# One thread: numpy's BLAS would otherwise start a pool of worker threads at
# import, in this process and in every set-up process it starts.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Generated inputs (circuit files) and span dumps; ignored by git.
WORKDIR = "perfbench/_work"

#: Op time per window of the ``ops_per_s`` median (seconds).
WINDOW_S = 1.0

#: Fresh processes timed, one after another, for the ``setup_s`` median.
SETUP_RUNS = 5

#: End-to-end metrics of an untraced run: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
]


@dataclass
class Loop:
    """One closed loop over ops 0, 1, 2, ... of a workload."""

    workload: object
    tracer: object = None
    # A flat array, so that the benchmark's own memory barely grows with
    # the number of ops (peak_rss_mib is the workload process's).
    latencies: array = field(default_factory=lambda: array("d"))
    failed: int = 0
    #: Failures among ops [0, workload.prefix), the same inputs every run.
    prefix_failed: int = 0
    digest: object = field(default_factory=hashlib.sha256)
    reported: set = field(default_factory=set)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        """Median, over consecutive windows of about WINDOW_S of op time, of
        the ops completed per second: a stall of the shared machine moves
        one window, not the whole rate.  An op longer than a window is a
        window of its own."""
        rates, ops, busy = [], 0, 0.0
        for latency in self.latencies:
            ops += 1
            busy += latency
            if busy >= WINDOW_S:
                rates.append(ops / busy)
                ops, busy = 0, 0.0
        if not rates:
            rates.append(ops / busy)
        return statistics.median(rates)

    def run(self, seconds: float) -> None:
        """Run the loop's next ops back to back for ``seconds``, at least
        one op.  Only the op itself is timed; the check after it is not."""
        workload, tracer = self.workload, self.tracer
        deadline = time.perf_counter() + seconds
        while True:
            i = self.ops
            if tracer is not None:
                tracer.op = i
            start = time.perf_counter()
            try:
                result = workload.run(i)
            except Exception as exc:  # an op that raises counts as failed
                # Without its traceback: the traceback holds the op's frames,
                # with their 16 MiB arrays, until the garbage collector runs,
                # which would add to the next op's peak memory.
                result = exc.with_traceback(None)
            self.latencies.append(time.perf_counter() - start)
            if isinstance(result, Exception) and type(result) not in self.reported:
                self.reported.add(type(result))
                print(f"op {i} raised {type(result).__name__}: {result}", file=sys.stderr)
            out, ok = workload.check(i, result)
            if i < workload.prefix:
                self.digest.update(len(out).to_bytes(8, "big") + out)
                self.prefix_failed += not ok
            self.failed += not ok
            if time.perf_counter() >= deadline:
                return


def untraced_loop(workload, seconds: float, name: str, seed: int) -> tuple[Loop, list[float]]:
    """Ops back to back for ``seconds``, and at least ``workload.prefix``,
    in SETUP_RUNS stretches.  Before each stretch, one set-up is timed
    (process k warms up with op k), so that the set-up median samples the
    machine across the run, not in one burst: its speed drifts over
    seconds."""
    loop, setups = Loop(workload), []
    for op in range(SETUP_RUNS):
        setups.append(time_setup(name, seed, op))
        loop.run(seconds / SETUP_RUNS)
    while loop.ops < workload.prefix:
        loop.run(0.0)
    return loop, setups


def traced_pair(workload, seconds: float, tracer) -> tuple[Loop, Loop]:
    """An untraced and a traced loop over the same ops, taking turns in
    windows of WINDOW_S so that drift of the machine's speed hits both
    alike, until ``seconds`` have passed and both have done
    ``workload.prefix`` ops."""
    untraced, traced = Loop(workload), Loop(workload, tracer)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or min(untraced.ops, traced.ops) < workload.prefix:
        untraced.run(WINDOW_S)
        tracer.install()
        try:
            traced.run(WINDOW_S)
        finally:
            tracer.uninstall()
    return untraced, traced


def warm_up(workload, op: int = 0) -> None:
    """Run one op untimed.  Its result is ignored here: the timed loop runs
    it again and counts a failure there."""
    try:
        workload.run(op)
    except Exception:
        pass


def time_setup(name: str, seed: int, op: int) -> float:
    """Wall time of a fresh process doing only the set-up, with op ``op``
    as its warm-up op."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-probe", str(op)]
    start = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def untraced_metrics(workload, loop: Loop, setups: list[float]) -> dict[str, float]:
    latencies = loop.latencies
    tail = float(np.percentile(latencies, workload.tail_pct))
    beyond = sum(t > tail for t in latencies)
    print(f"op_tail_percentile=p{workload.tail_pct:g} samples={loop.ops} beyond={beyond}")
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": loop.ops_per_s,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=int, metavar="OP", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "oamcnot" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    os.makedirs(WORKDIR, exist_ok=True)
    import oamcnot
    import workloads

    if Path(oamcnot.__file__).resolve().parent != SRC / "oamcnot":
        print(f"error: imported oamcnot from {oamcnot.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload_cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe is not None:
        # A fresh process's set-up: the import above, the inputs, one warm-up op.
        warm_up(workload_cls(args.seed, WORKDIR), args.setup_probe)
        return 0

    workload = workload_cls(args.seed, WORKDIR)
    warm_up(workload)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} grid_n={workload.grid_n}")
    if args.trace:
        import spans

        tracer = spans.Tracer()
        untraced, traced = traced_pair(workload, args.seconds, tracer)
        counts = tracer.metrics(workload.prefix, traced.ops)
        counts["trace_overhead_ratio"] = traced.ops_per_s / untraced.ops_per_s
        values = {name: counts[name] for name, _, _ in spans.PER_LAYER}
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        span_file = f"{WORKDIR}/spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(span_file)
        print(f"spans={span_file} count={len(tracer.spans)}")
        loops = [untraced, traced]
        # Tracing must not change what the program computes.
        consistent = untraced.digest.digest() == traced.digest.digest()
    else:
        timed, setups = untraced_loop(workload, args.seconds, args.workload, args.seed)
        values = untraced_metrics(workload, timed, setups)
        units = dict(END_TO_END)
        loops = [timed]
        consistent = True

    attempted = sum(loop.ops for loop in loops)
    failed = sum(loop.failed for loop in loops)
    print(f"output_sha256={loops[0].digest.hexdigest()} over_ops={workload.prefix}")
    print(f"failed_ratio={loops[0].prefix_failed / workload.prefix:.6f} ratio "
          f"(first {workload.prefix} ops; {failed} of {attempted} in the run)")
    for name, value in values.items():
        print(f"{name}={value:.6g} {units[name]}")
    result = {
        "correct": consistent and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
