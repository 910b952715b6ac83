"""The three benchmark workloads: the inputs each one generates from its seed,
the cbbench CLI commands it runs, and how a run's outputs become one
fingerprint and one list of invariant violations per operation.

An operation is one CLI command, or one report cell of ``cbbench bench``
(plus one ``bench:report`` operation for the report's remaining fields).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCHEMES = ("biohash", "mlp-hash", "bloom", "iom-grp", "iom-urp", "rand-hash")
DEFAULT_SEED = 42
NOISE_SIGMA = 0.35
# standard_benchmark_config() estimator settings, echoed into the bench config
UNLINK_BINS = 50
MI_COMPONENTS = 16


@dataclass(frozen=True)
class Sizes:
    subjects: int
    samples: int
    dim: int

    @property
    def templates(self) -> int:
        return self.subjects * self.samples

    @property
    def mated_pairs(self) -> int:
        return self.subjects * math.comb(self.samples, 2)

    @property
    def nonmated_pairs(self) -> int:
        return math.comb(self.subjects, 2)


# Why these workloads (and sizes): standard-battery is the ROADMAP's end-to-end
# definition, dominated by per-key instantiation (300 sample-specific keys per
# scheme). stolen-eval is a file-supplied run at deep-embedding width where one
# key serves everyone, so instantiation is nearly free and the ~125k quadratic
# non-mated comparisons dominate. protect-export reuses each normal key for 20
# samples, compares nothing and writes a large CSV next to the read.
SIZES = {
    "standard-battery": Sizes(subjects=50, samples=6, dim=128),
    "stolen-eval": Sizes(subjects=500, samples=3, dim=256),
    "protect-export": Sizes(subjects=100, samples=20, dim=128),
}

# smallest sizes at which every workload still exercises every command
TINY_SIZES = {
    "standard-battery": Sizes(subjects=8, samples=3, dim=32),
    "stolen-eval": Sizes(subjects=12, samples=3, dim=32),
    "protect-export": Sizes(subjects=6, samples=4, dim=32),
}


def bench_config(seed: int, sizes: Sizes) -> dict:
    """standard_benchmark_config() as a config file, with the workload seed as
    both the master seed and the synthetic-data seed."""
    return {
        "schemes": list(SCHEMES),
        "scenarios": ["normal", "stolen"],
        "master_seed": seed,
        "unlinkability_bins": UNLINK_BINS,
        "mi_components": MI_COMPONENTS,
        "synthetic": {
            "subjects": sizes.subjects,
            "samples_per_subject": sizes.samples,
            "dimension": sizes.dim,
            "noise_sigma": NOISE_SIGMA,
            "seed": seed,
        },
    }


def write_templates_csv(path: Path, seed: int, sizes: Sizes) -> None:
    """Class-conditional unit-norm templates: one random direction per subject,
    each sample perturbed by Gaussian noise of norm ratio NOISE_SIGMA."""
    rng = np.random.Generator(np.random.PCG64(seed))
    d = sizes.dim
    sub_w = len(str(sizes.subjects - 1))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("subject_id,sample_id," + ",".join(f"f{i}" for i in range(d)) + "\n")
        for s in range(sizes.subjects):
            mean = rng.standard_normal(d)
            mean /= np.linalg.norm(mean)
            noisy = mean + (NOISE_SIGMA / math.sqrt(d)) * rng.standard_normal((sizes.samples, d))
            noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
            for j, row in enumerate(noisy.tolist()):
                fh.write(f"s{s:0{sub_w}d},{j}," + ",".join(map(repr, row)) + "\n")


def prepare(workload: str, seed: int, sizes: Sizes, workdir: Path) -> list[list[str]]:
    """Write the workload's inputs into ``workdir`` and return the CLI argv
    lists to run there, in order. Outputs go to ``workdir/out``."""
    seed %= 2**64  # master seeds are unsigned 64-bit
    if workload == "standard-battery":
        (workdir / "config.json").write_text(json.dumps(bench_config(seed, sizes)))
        return [["bench", "--config", "config.json", "--out-dir", "out"]]
    write_templates_csv(workdir / "templates.csv", seed, sizes)
    common = ["--templates", "templates.csv", "--master-seed", str(seed)]
    if workload == "stolen-eval":
        cmds = []
        for s in SCHEMES:
            args = common + ["--scheme", s, "--scenario", "stolen", "--out-dir", "out"]
            cmds.append(["eval-perf"] + args)
            cmds.append(["eval-irrev"] + args + ["--r", str(MI_COMPONENTS)])
        return cmds
    if workload == "protect-export":
        return [
            ["protect"] + common + ["--scheme", s, "--scenario", "normal",
                                    "--out", f"out/protected_{s}.csv"]
            for s in SCHEMES
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        data = part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode()
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


class _Op:
    """Accumulates one operation's fingerprint parts and invariant problems."""

    def __init__(self) -> None:
        self.parts: list = []
        self.problems: list[str] = []

    def need(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def _command_parts(op: _Op, cmd: dict) -> None:
    op.parts += [cmd["exit"], cmd["stdout"], cmd["stderr"]]
    op.need(cmd["exit"] == 0, f"exit code {cmd['exit']}: {cmd['error'] or cmd['stderr']}")


def _capture(op: _Op, cmd: dict, fn: str, scheme: str, scenario: str, sizes: Sizes) -> None:
    found = [c for c in cmd["captures"]
             if (c["fn"], c["scheme"], c["scenario"]) == (fn, scheme, scenario)]
    op.need(len(found) == 1, f"{fn}({scheme}, {scenario}) ran {len(found)} times, expected 1")
    if not found:
        return
    c = found[0]
    op.parts.append(c["digest"])
    op.need(c["finite"], f"{fn}: non-finite values")
    if fn == "run_scenario":
        op.need(c["n_mated"] == sizes.mated_pairs,
                f"{c['n_mated']} mated scores, expected {sizes.mated_pairs}")
        op.need(c["n_nonmated"] == sizes.nonmated_pairs,
                f"{c['n_nonmated']} non-mated scores, expected {sizes.nonmated_pairs}")
        op.need(0.0 <= c["lo"] and c["hi"] <= 1.0, f"scores outside [0, 1]: {c['lo']}..{c['hi']}")
    else:
        op.need(c["rows"] == sizes.templates,
                f"protected matrix has {c['rows']} rows, expected {sizes.templates}")


def _file(op: _Op, files: dict, name: str, lines: int | None = None) -> None:
    f = files.get(name)
    op.need(f is not None and f["bytes"] > 0, f"output {name} missing or empty")
    if f is None:
        return
    op.parts.append(f["digest"])
    if lines is not None:
        op.need(f["lines"] == lines, f"{name} has {f['lines']} lines, expected {lines}")


def evaluate(workload: str, sizes: Sizes, result: dict) -> dict[str, tuple[str, list[str]]]:
    """Map one child run to {operation: (fingerprint, invariant problems)}."""
    cmds, files = result["commands"], result["files"]
    ops: dict[str, _Op] = {}
    if workload == "standard-battery":
        cmd, report = cmds[0], result["report"] or {}
        cells = {(c["scheme"], c["scenario"]): c for c in report.get("cells", [])}
        rows = {u["scheme"]: u for u in report.get("unlinkability", [])}
        for s in SCHEMES:
            for scenario in ("normal", "stolen"):
                op = ops[f"bench:{s}/{scenario}"] = _Op()
                op.need(cmd["exit"] == 0, f"bench exit code {cmd['exit']}")
                _capture(op, cmd, "run_scenario", s, scenario, sizes)
                _capture(op, cmd, "protected_matrix", s, scenario, sizes)
                op.need((s, scenario) in cells, "report cell missing")
                op.parts.append(cells.get((s, scenario)))
                _file(op, files, f"out/det_{s}_{scenario}.csv")
            op = ops[f"bench:{s}/sample-specific"] = _Op()
            op.need(cmd["exit"] == 0, f"bench exit code {cmd['exit']}")
            _capture(op, cmd, "run_scenario", s, "sample-specific", sizes)
            op.need(s in rows, "unlinkability row missing")
            op.parts.append(rows.get(s))
        op = ops["bench:report"] = _Op()
        _command_parts(op, cmd)
        op.parts.append({k: v for k, v in report.items() if k not in ("cells", "unlinkability")})
        op.need(len(cells) == 2 * len(SCHEMES) and len(rows) == len(SCHEMES),
                f"report has {len(cells)} cells and {len(rows)} unlinkability rows")
        _file(op, files, "out/report.json")
    else:
        for cmd in cmds:
            verb = cmd["argv"][0]
            scheme = cmd["argv"][cmd["argv"].index("--scheme") + 1]
            scenario = cmd["argv"][cmd["argv"].index("--scenario") + 1]
            op = ops[f"{verb}:{scheme}/{scenario}"] = _Op()
            _command_parts(op, cmd)
            if verb == "eval-perf":
                _capture(op, cmd, "run_scenario", scheme, scenario, sizes)
                _file(op, files, f"out/det_{scheme}_{scenario}.csv")
            elif verb == "eval-irrev":
                _capture(op, cmd, "protected_matrix", scheme, scenario, sizes)
                _file(op, files, f"out/irrev_{scheme}_{scenario}.json")
            else:
                _capture(op, cmd, "protected_matrix", scheme, scenario, sizes)
                _file(op, files, f"out/protected_{scheme}.csv", lines=sizes.templates + 1)
    return {name: (_digest(*op.parts), op.problems) for name, op in ops.items()}
