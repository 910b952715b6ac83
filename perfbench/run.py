"""cbbench benchmark: three CLI workloads, end-to-end and per-layer metrics,
and a fingerprint gate on every output.

    python3 perfbench/run.py --workload standard-battery --seed 42 --seconds 30 --trace 0

Run it from the repository root; it benchmarks the sources under ``src/``.
Workloads: standard-battery, stolen-eval, protect-export (see workloads.py).

``--trace 0`` runs fresh single-threaded workload processes for about
``--seconds`` seconds (at least one) and reports the medians of ``wall_s``
and ``peak_rss_mb``, plus ``setup_s``, the median time to start the
interpreter and ``import cbbench``. ``--trace 1`` runs one untraced and one
traced process and reports the per-layer metrics of the traced one, its
per-scheme cost table and the tracing overhead.

Every operation (CLI command, or report cell of ``bench``) is fingerprinted.
At the default seed and sizes the fingerprints must equal goldens.json;
at any seed they must pass the workload invariants and agree across every
process of the run, traced or not. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every operation passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import workloads
from workloads import SCHEMES, Sizes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
GOLDENS = HERE / "goldens.json"
SETUP_REPEATS = 16
# a run must end within 180 s; a hung workload process is killed before that
CHILD_TIMEOUT_S = 150
BLAS_THREADS = "1"  # <= nproc, and steadier than sharing cores with BLAS helpers


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def measure_setup(env: dict, repeats: int) -> list[float]:
    """Times from spawning ``python`` to the end of its ``import cbbench``,
    after one untimed start that fills the bytecode cache. The child reads
    the system-wide monotonic clock itself: a wait with a timeout polls the
    child in steps of up to 50 ms, which would quantize the measurement."""
    cmd = [sys.executable, "-c", "import cbbench, time; print(time.perf_counter())"]
    times = []
    for i in range(repeats + 1):
        start = perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
                              capture_output=True, text=True)
        if i:
            times.append(float(proc.stdout) - start)
    return times


def run_child(commands: list, workdir: Path, trace: int, env: dict, spans: Path) -> dict:
    """Run one workload process and return its result record."""
    shutil.rmtree(workdir / "out", ignore_errors=True)
    (workdir / "out").mkdir()
    plan, result = workdir / "plan.json", workdir / "result.json"
    plan.write_text(json.dumps(
        {"commands": commands, "src": str(ROOT / "src"), "spans": str(spans)}
    ))
    result.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--plan", str(plan),
         "--result", str(result), "--trace", str(trace)],
        env=env, cwd=workdir, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(result.read_text())


def layer_metrics(t: dict, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced process's summary."""
    functions, counts = t["functions"], t["counts"]
    calls = {name: f[0] for name, f in functions.items()}
    busy = {name: f[1] for name, f in functions.items()}
    self_s = {name: f[2] for name, f in functions.items()}
    by_label = {(name, label): (n, s) for name, label, n, s, _ in t["by_label"]}

    def per_call(name: str, label: str, scale: float) -> float:
        n, s = by_label.get((name, label), (0, 0.0))
        return s / n * scale if n else 0.0

    def useful(name: str) -> float:
        n = calls.get(name, 0)
        return counts.get(name + ".distinct", 0) / n if n else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in ("schemes.instantiate", "numerics.gram_schmidt", "numerics.derive_stream",
                 "schemes.protect", "schemes.compare", "protocol.derive_key"):
        m[name + ".calls"] = (calls.get(name, 0), "count")
    for name in ("schemes.instantiate", "numerics.gram_schmidt", "schemes.protect",
                 "schemes.compare", "protocol.derive_key", "io.read_templates",
                 "core.validate_dataset", "io.write_det_points", "io.write_report",
                 "io.load_config", "metrics.compute_det", "metrics.unlinkability",
                 "numerics.pca_fit", "numerics.gaussian_entropy", "synthdata.generate",
                 "synthdata.unprotected_scores"):
        m[name + ".busy_s"] = (busy.get(name, 0.0), "s")
    for name in ("protocol.run_scenario", "cli.main", "metrics.mutual_information",
                 "metrics.protected_matrix"):
        m[name + ".self_s"] = (self_s.get(name, 0.0), "s")
    m["numerics.stream.draw_s"] = (busy.get("numerics.stream.draw", 0.0), "s")
    m["schemes.instantiate.useful_ratio"] = (useful("schemes.instantiate"), "ratio")
    m["schemes.protect.useful_ratio"] = (useful("schemes.protect"), "ratio")
    for name in ("protocol.pairs_scored", "io.read_templates.bytes", "io.write_det_points.bytes"):
        m[name] = (counts.get(name, 0), "bytes" if name.endswith(".bytes") else "count")
    for s in SCHEMES:
        m[f"schemes.instantiate.ms_per_call.{s}"] = (
            per_call("schemes.instantiate", s, 1e3), "ms")
        m[f"schemes.protect.us_per_call.{s}"] = (per_call("schemes.protect", s, 1e6), "us")
        m[f"schemes.compare.us_per_call.{s}"] = (per_call("schemes.compare", s, 1e6), "us")
        m[f"protocol.run_scenario.sample_specific_s.{s}"] = (
            by_label.get(("protocol.run_scenario", f"{s}/sample-specific"), (0, 0.0))[1], "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def cost_table(m: dict) -> list[str]:
    """The per-scheme layer table, in the shape of the ROADMAP baseline."""
    lines = [f"{'scheme':10s} {'instantiate ms':>14s} {'protect us':>10s} "
             f"{'compare us':>10s} {'sample-specific run_scenario s':>30s}"]
    for s in SCHEMES:
        lines.append(
            f"{s:10s} {m[f'schemes.instantiate.ms_per_call.{s}'][0]:14.3f} "
            f"{m[f'schemes.protect.us_per_call.{s}'][0]:10.1f} "
            f"{m[f'schemes.compare.us_per_call.{s}'][0]:10.2f} "
            f"{m[f'protocol.run_scenario.sample_specific_s.{s}'][0]:30.3f}"
        )
    return lines


def measure(workload: str, seed: int, seconds: float, trace: int, sizes: Sizes,
            goldens: dict | None) -> dict:
    """One benchmark run. Returns the result object plus the report lines and
    the per-operation fingerprints of the run; ``goldens`` maps operations to
    the fingerprints they must have, when known."""
    env = child_env()
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    spans = WORK / f"spans-{workload}.json"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        commands = workloads.prepare(workload, seed, sizes, workdir)
        if trace:
            runs = [run_child(commands, workdir, traced, env, spans) for traced in (0, 1)]
        else:
            # half the interpreter starts before the workload and half after,
            # so their median spans the run rather than one moment of it
            setup = measure_setup(env, SETUP_REPEATS // 2)
            runs, durations = [], []
            start = perf_counter()
            # start another process only if it should end within --seconds
            while True:
                t0 = perf_counter()
                runs.append(run_child(commands, workdir, 0, env, spans))
                durations.append(perf_counter() - t0)
                if perf_counter() - start + statistics.median(durations) > seconds:
                    break
            setup += measure_setup(env, SETUP_REPEATS - SETUP_REPEATS // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines: list[str] = []
    attempted = failed = 0
    reference = None
    for i, run in enumerate(runs):
        ops = workloads.evaluate(workload, sizes, run)
        fingerprints = {name: digest for name, (digest, _) in ops.items()}
        reference = reference or fingerprints
        for name in sorted(set(goldens or ()) - set(ops)):
            ops[name] = ("", ["operation missing"])
        for name, (digest, problems) in ops.items():
            if goldens is not None and goldens.get(name) != digest:
                problems = problems + [f"fingerprint {digest} != golden {goldens.get(name)}"]
            if digest != reference.get(name):
                problems = problems + [f"fingerprint {digest} differs from process 0"]
            attempted += 1
            if problems:
                failed += 1
                lines.append(f"FAIL process {i} {name}: " + "; ".join(problems))

    env_record = {"workload": workload, "seed": seed, "sizes": asdict(sizes),
                  "processes": len(runs), "traced": bool(trace), **runs[0]["env"]}
    lines.append("env " + json.dumps(env_record, sort_keys=True))
    if trace:
        overhead = runs[1]["wall_s"] - runs[0]["wall_s"]
        metrics = layer_metrics(runs[1]["trace"], overhead)
        lines.append(f"traced wall_s {runs[1]['wall_s']:.3f} s, untraced {runs[0]['wall_s']:.3f} s")
        lines += cost_table(metrics)
    else:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        }
        lines.append("wall_s per process: " + " ".join(f"{r['wall_s']:.3f}" for r in runs))
    lines.append(f"failed_ops_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value:.6g} {unit}")
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
        "fingerprints": reference,
        "lines": lines,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cbbench" / "__init__.py").is_file():
        print(f"error: no cbbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    goldens = None
    if args.seed == workloads.DEFAULT_SEED:
        goldens = json.loads(GOLDENS.read_text())[args.workload]
    try:
        out = measure(args.workload, args.seed, args.seconds, args.trace,
                      workloads.SIZES[args.workload], goldens)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
