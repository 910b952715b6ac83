"""Self-test of the benchmark at tiny sizes (a few seconds):

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, and checks that
- both runs pass the correctness gate;
- the metric names and units are exactly those BENCHMARK.json declares;
- traced and untraced runs give the same fingerprint for every operation;
- the gate fails every operation when the goldens are wrong;
- the standard-battery config at the default seed is cbbench's
  standard_benchmark_config().
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def check_bench_config(problems: list[str]) -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    from cbbench import load_config, standard_benchmark_config

    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        path = Path(tmp) / "config.json"
        sizes = workloads.SIZES["standard-battery"]
        path.write_text(json.dumps(workloads.bench_config(workloads.DEFAULT_SEED, sizes)))
        if load_config(path) != standard_benchmark_config():
            problems.append("standard-battery config differs from standard_benchmark_config()")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list[str] = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.SIZES):
        problems.append("BENCHMARK.json workloads differ from workloads.SIZES")
    check_bench_config(problems)

    for workload, sizes in workloads.TINY_SIZES.items():
        fingerprints = {}
        for trace in (0, 1):
            out = run.measure(workload, workloads.DEFAULT_SEED, 0.0, trace, sizes, None)
            res = out["result"]
            if not res["correct"] or res["failed"]:
                problems += [f"{workload} trace={trace}: {line}" for line in out["lines"]
                             if line.startswith("FAIL")]
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(declared[trace]))} "
                                "or their units differ from BENCHMARK.json")
            fingerprints[trace] = out["fingerprints"]
        if fingerprints[0] != fingerprints[1]:
            problems.append(f"{workload}: traced and untraced fingerprints differ")
        wrong = {op: "0" * 32 for op in fingerprints[0]}
        res = run.measure(workload, workloads.DEFAULT_SEED, 0.0, 0, sizes, wrong)["result"]
        if res["failed"] != res["attempted"] or res["correct"]:
            problems.append(f"{workload}: wrong goldens failed {res['failed']}/{res['attempted']}")

    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
