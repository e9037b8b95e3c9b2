"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/collect.py --seeds 1-10 [--out perfbench/baseline.json]

For each of the four workloads, also the one BENCHMARK.json does not gate,
one untraced run of BENCHMARK.json's run_seconds per seed, one after
another.  Prints, per
end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median).  With ``--out`` it also
makes one traced run per workload (the first seed) and writes the whole
record, with the machine it ran on, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    info = dict(re.findall(r"^(output_sha256|op_tail_percentile)=(.*)$", proc.stdout, re.M))
    record.update(info)
    return record


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def seeds_arg(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = re.search(r"^model name\s*:\s*(.*)$", fh.read(), re.M).group(1)
    except (OSError, AttributeError):
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}_{kind.lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--out", default=None, help="write the record here as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    gated = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    record = {"seconds": seconds, "seeds": args.seeds, "environment": environment(), "workloads": {}}
    for name in workloads.WORKLOADS:
        runs = [run(name, seed, seconds, 0) for seed in args.seeds]
        grid_n = workloads.WORKLOADS[name].grid_n
        entry = {
            "why": workloads.WORKLOADS[name].why,
            "in_benchmark_json": name in gated,
            "grid_n": grid_n,
            "field_array_mib": None if grid_n is None else grid_n * grid_n * 16 / 2**20,
            "runs": [
                {"seed": seed, "attempted": r["attempted"], "failed": r["failed"],
                 "correct": r["correct"], "output_sha256": r["output_sha256"],
                 "op_tail_percentile": r["op_tail_percentile"]}
                for seed, r in zip(args.seeds, runs)
            ],
            "end_to_end": {},
        }
        print(f"{name}: failed {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
        for metric in runs[0]["metrics"]:
            stats = summarise([r["metrics"][metric]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = stats
            limit = bounds.get(metric, float("nan"))
            print(f"  {metric:14s} values={[round(v, 4) for v in stats['values']]}")
            print(f"  {metric:14s} median={stats['median']:<12.6g} q1={stats['q1']:<12.6g} "
                  f"q3={stats['q3']:<12.6g} spread={stats['spread']:.4f} (bound {limit})")
        if args.out:
            traced = run(name, args.seeds[0], seconds, 1)
            entry["per_layer_seed"] = args.seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][name] = entry
        sys.stdout.flush()

    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
