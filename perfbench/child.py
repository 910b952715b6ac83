"""One workload iteration in a fresh interpreter: runs the planned CLI commands
through ``cbbench.cli.main(argv)``, times them, and records what the
correctness gate needs.

Invoked by run.py as ``python3 child.py --plan PLAN --result OUT --trace 0|1``
with the working directory set to the iteration's work directory. The plan is
JSON: ``{"commands": [argv, ...], "src": path, "spans": path}``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np


def _scores_record(scores) -> dict:
    h = hashlib.blake2b(digest_size=16)
    for arr in (scores.mated, scores.nonmated):
        h.update(arr.size.to_bytes(8, "big"))
        h.update(arr.tobytes())
    both = np.concatenate([scores.mated, scores.nonmated])
    return {
        "digest": h.hexdigest(),
        "n_mated": int(scores.mated.size),
        "n_nonmated": int(scores.nonmated.size),
        "lo": float(both.min()) if both.size else 0.0,
        "hi": float(both.max()) if both.size else 0.0,
        "finite": bool(np.isfinite(both).all()),
    }


def _matrix_record(y: np.ndarray) -> dict:
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((y.shape, y.dtype.str)).encode())
    h.update(np.ascontiguousarray(y).tobytes())
    return {
        "digest": h.hexdigest(),
        "rows": int(y.shape[0]),
        "cols": int(y.shape[1]),
        "finite": bool(np.isfinite(y).all()),
    }


class Captures:
    """Fingerprints every score set and protected matrix the CLI computes, by
    wrapping the names ``cbbench.cli`` calls them through. Hashing time is
    kept in ``seconds`` so it can be taken out of the measured time."""

    def __init__(self, cli) -> None:
        self.seconds = 0.0
        self.current: list[dict] = []
        self._wrap(cli, "run_scenario", _scores_record)
        self._wrap(cli, "protected_matrix", _matrix_record)

    def _wrap(self, cli, name: str, record) -> None:
        fn = getattr(cli, name)

        def captured(ds, policy, *args, **kwargs):
            result = fn(ds, policy, *args, **kwargs)
            start = perf_counter()
            self.current.append({
                "fn": name,
                "scheme": policy.scheme_id.value,
                "scenario": policy.scenario.value,
                **record(result),
            })
            self.seconds += perf_counter() - start
            return result

        setattr(cli, name, captured)


def _file_record(path: Path) -> dict:
    data = path.read_bytes()
    if path.suffix == ".json":
        # report.json carries a wall-clock timestamp; everything else is deterministic
        doc = json.loads(data)
        doc.pop("timestamp", None)
        canonical = json.dumps(doc, sort_keys=True).encode()
    else:
        canonical = data
    return {
        "digest": hashlib.blake2b(canonical, digest_size=16).hexdigest(),
        "bytes": len(data),
        "lines": data.count(b"\n"),
    }


def _blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    plan = json.loads(Path(args.plan).read_text())

    import cbbench
    from cbbench import cli

    src = Path(plan["src"]).resolve()
    if not Path(cbbench.__file__).resolve().is_relative_to(src):
        print(f"cbbench imported from {cbbench.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    captures = Captures(cli)
    cli_main = cli.main  # the traced binding when tracing

    commands = []
    start = perf_counter()
    for argv in plan["commands"]:
        out, err = io.StringIO(), io.StringIO()
        captures.current = []
        code, error = None, None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            error = traceback.format_exc()
        finally:
            if tracer is not None:
                tracer.end_command()
        commands.append({
            "argv": argv, "exit": code, "error": error,
            "stdout": out.getvalue(), "stderr": err.getvalue(), "captures": captures.current,
        })
    wall = perf_counter() - start - captures.seconds
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out_dir = Path("out")
    files = {p.as_posix(): _file_record(p) for p in sorted(out_dir.rglob("*")) if p.is_file()}
    report_path = out_dir / "report.json"
    report = None
    if report_path.is_file():
        report = json.loads(report_path.read_text())
        report.pop("timestamp", None)

    result = {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "commands": commands,
        "files": files,
        "report": report,
        "env": environment(),
        "trace": None,
    }
    if tracer is not None:
        # fingerprint hashing ran inside cli.main's span, not in the program
        result["trace"] = tracer.summary()
        for i in (1, 2):
            result["trace"]["functions"]["cli.main"][i] -= captures.seconds
        Path(plan["spans"]).write_text(json.dumps(tracer.span_dump()))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
