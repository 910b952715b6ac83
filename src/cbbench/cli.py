"""Command-line driver: dataset synthesis, single-metric evaluations and the
full benchmark battery.

Exit codes: 0 on success, 2 for usage errors, 1 for runtime failures (the
diagnostic names the failing cell and cause; partially written outputs are
removed)."""

from __future__ import annotations

import argparse
import platform
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import Scenario, SchemeId, SchemeParams, _check_ranges
from .errors import CbBenchError, InvalidArgumentError
from .io import (
    BenchmarkConfig,
    _write_rows,
    load_config,
    read_templates,
    write_det_points,
    write_report,
    write_templates,
)
from .metrics import (
    DetCurve,
    compute_det,
    eer,
    fnmr_at_fmr,
    mutual_information,
    unlinkability,
)
from .numerics import _openblas
from .protocol import KeyPolicy, protected_matrix, run_scenario
from .schemes import _CLASS_OF_SCHEME
from .synthdata import SynthConfig, generate, unprotected_scores

__all__ = ["main", "run_benchmark"]


# flag spellings that differ from the SchemeParams / SynthConfig field name
_FLAG_NAMES = {
    "output_length": "length",
    "samples_per_subject": "samples",
    "dimension": "dim",
    "noise_sigma": "sigma",
}


def _param_arg(cls, name: str, **overrides) -> dict:
    """``add_argument`` keywords of the flag of the ``_param`` field ``name``
    of ``cls``: its default, its help text and a type that parses the value as
    the field's ``int`` or ``float`` and checks it with ``_check_ranges``, so
    that a bad value is a usage error naming the flag."""
    f = next(f for f in fields(cls) if f.name == name)
    convert = {"int": int, "float": float}[f.type]  # annotations are strings here

    def parse(text: str):
        try:
            value = convert(text)
            _check_ranges(cls, **{name: value})
        except ValueError as exc:  # an InvalidArgumentError is a ValueError too
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return {"type": parse, "default": f.default, "help": f.metadata["help"], **overrides}


def _param_flags(parser: argparse.ArgumentParser, cls, **defaults) -> None:
    """One flag per field of ``cls``, required where neither the field nor
    ``defaults`` gives a default; scheme parameters get their own group."""
    group = parser.add_argument_group("scheme parameters") if cls is SchemeParams else parser
    for f in fields(cls):
        name, default = _FLAG_NAMES.get(f.name, f.name), defaults.get(f.name, f.default)
        group.add_argument(
            "--" + name.replace("_", "-"), dest=f.name, metavar=name.upper(),
            required=default is MISSING, **_param_arg(cls, f.name, default=default),
        )


def _policy_parser(sub, name: str, help: str, scenarios: list[str]):
    """Subcommand with the flags a KeyPolicy is built from, bar the scheme
    parameters, which the caller adds last so the usage line keeps its order."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--templates", required=True)
    p.add_argument("--scheme", required=True, choices=[s.value for s in SchemeId],
                   metavar="SCHEME")
    p.add_argument("--scenario", default=scenarios[0], choices=scenarios)
    p.add_argument("--master-seed", **_param_arg(BenchmarkConfig, "master_seed"))
    return p


def _policy_and_templates(args: argparse.Namespace):
    """The KeyPolicy of a policy subcommand and its ``--templates`` dataset."""
    params = SchemeParams(**{f.name: getattr(args, f.name) for f in fields(SchemeParams)})
    policy = KeyPolicy(args.master_seed, Scenario(args.scenario), SchemeId(args.scheme), params)
    return policy, read_templates(args.templates)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbbench",
        description="Benchmark keyed biometric template protection schemes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic template CSV")
    # a config's synthetic seed defaults to its master seed, and so does this one
    _param_flags(p, SynthConfig, seed=BenchmarkConfig.master_seed)
    p.add_argument("--out", required=True)
    p.set_defaults(usage_error=p.error)  # the size bound of three flags, under synth's usage

    p = _policy_parser(sub, "protect", "protect a template CSV under one scheme/scenario",
                       [s.value for s in Scenario])
    p.add_argument("--out", required=True)
    _param_flags(p, SchemeParams)

    p = _policy_parser(sub, "eval-perf", "EER / FNMR@FMR / DET for one scheme and scenario",
                       ["normal", "stolen"])
    p.add_argument("--out-dir", default=".")
    _param_flags(p, SchemeParams)

    p = _policy_parser(sub, "eval-unlink", "unlinkability for one scheme (sample-specific keys)",
                       ["sample-specific"])
    p.add_argument("--bins", **_param_arg(BenchmarkConfig, "unlinkability_bins"))
    p.add_argument("--out-dir", default=".")
    _param_flags(p, SchemeParams)

    p = _policy_parser(sub, "eval-irrev", "mutual information for one scheme and scenario",
                       ["normal", "stolen"])
    p.add_argument("--r", **_param_arg(BenchmarkConfig, "mi_components"))
    p.add_argument("--out-dir", default=".")
    _param_flags(p, SchemeParams)

    p = sub.add_parser("bench", help="run the full benchmark described by a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None, help="override the config output_dir")
    p.add_argument("--seed", **_param_arg(BenchmarkConfig, "master_seed", default=None,
                                          help="override the config master_seed"))

    return parser


def _perf_block(scores) -> tuple[DetCurve, dict]:
    """The DET curve of a score set and the report fields read off it."""
    curve = compute_det(scores)
    return curve, {
        "eer": eer(curve),
        "fnmr_at_fmr_1pct": fnmr_at_fmr(curve, 0.01),
        "fnmr_at_fmr_0p1pct": fnmr_at_fmr(curve, 0.001),
    }


@contextmanager
def _cell(scheme: SchemeId, scenario: str):
    """Raise any failure inside as a CbBenchError that names the benchmark
    cell and the cause."""
    try:
        yield
    except Exception as exc:
        raise CbBenchError(
            f"cell (scheme={scheme.value}, scenario={scenario}): {type(exc).__name__}: {exc}"
        ) from exc


def _config_echo(config: BenchmarkConfig) -> dict:
    """The config as JSON that ``load_config`` reads back to an equal config."""
    echo = {k: v for k, v in vars(config).items() if v is not None}
    echo["schemes"] = [{"name": s.scheme_id.value, "params": vars(s.params)}
                       for s in config.schemes]
    if config.synthetic is not None:
        echo["synthetic"] = vars(config.synthetic)
    return echo


def run_benchmark(config: BenchmarkConfig, out_dir: str | Path) -> tuple[dict, list[Path]]:
    """Run every benchmark cell, write ``report.json`` and return (report
    dict, written paths: the DET CSVs, then the report).

    Per scheme: DET/EER/FNMR and mutual information for each configured
    scenario (normal/stolen), plus one sample-specific unlinkability pass.
    On any failure or interrupt, the report write included, files written so
    far are removed and the error is re-raised; a failing cell's names it.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        report = _run_benchmark_cells(config, out_dir, written)
        report_path = out_dir / "report.json"
        written.append(report_path)
        write_report(report, report_path)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return report, written


def _run_benchmark_cells(config: BenchmarkConfig, out_dir: Path, written: list[Path]) -> dict:
    ds = generate(config.synthetic) if config.synthetic else read_templates(config.templates)

    _, baseline = _perf_block(unprotected_scores(ds))
    cells = []
    unlink_rows = []

    for spec in config.schemes:
        scheme = spec.scheme_id
        for scenario_name in config.scenarios:
            scenario = Scenario(scenario_name)
            with _cell(scheme, scenario.value):
                policy = KeyPolicy(config.master_seed, scenario, scheme, spec.params)
                y = protected_matrix(ds, policy)
                curve, perf = _perf_block(run_scenario(ds, policy, y))
                irrev = mutual_information(ds.features, y, config.mi_components)
                det_path = out_dir / f"det_{scheme.value}_{scenario.value}.csv"
                write_det_points(curve, det_path)
                written.append(det_path)
            cell = {
                "scheme": scheme.value,
                "scenario": scenario.value,
                **perf,
                **asdict(irrev),
                "realized_length": int(y.shape[1]),
                "length_unit": "codes" if _CLASS_OF_SCHEME[scheme].kind == "codes" else "bits",
                "det_csv": det_path.name,
            }
            if scheme is SchemeId.RAND_HASH:
                # entropy-bearing bits cap at the input dimension
                cell["effective_entropy_length"] = min(ds.dimension, spec.params.output_length)
            cells.append(cell)

        with _cell(scheme, Scenario.SAMPLE_SPECIFIC.value):
            policy = KeyPolicy(
                config.master_seed, Scenario.SAMPLE_SPECIFIC, scheme, spec.params
            )
            scores = run_scenario(ds, policy, protected_matrix(ds, policy))
            ul = unlinkability(scores, config.unlinkability_bins)
        unlink_rows.append(
            {
                "scheme": scheme.value,
                "d_sys": ul.d_sys,
                "bins": ul.bin_count,
                "degenerate_range": ul.degenerate_range,
            }
        )

    cells.sort(key=lambda c: (c["scheme"], c["scenario"]))
    unlink_rows.sort(key=lambda u: u["scheme"])
    return {
        "toolkit_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": _config_echo(config),
        "dataset": {
            "subjects": len(ds.subject_rows()),
            "templates": len(ds),
            "dimension": ds.dimension,
            "source": "synthetic" if config.synthetic is not None else config.templates,
        },
        "unprotected_baseline": baseline,
        "cells": cells,
        "unlinkability": unlink_rows,
    }


def _cmd_synth(args: argparse.Namespace) -> int:
    try:  # each flag's range is checked as it parses, so only the size bound is left
        cfg = SynthConfig(**{f.name: getattr(args, f.name) for f in fields(SynthConfig)})
    except InvalidArgumentError as exc:
        args.usage_error(f"argument --dim: {exc}")
    ds = generate(cfg)
    write_templates(ds, args.out)
    print(
        f"wrote {args.out}: {cfg.subjects} subjects x {cfg.samples_per_subject} samples, "
        f"dimension {cfg.dimension}"
    )
    return 0


def _cmd_protect(args: argparse.Namespace) -> int:
    policy, ds = _policy_and_templates(args)
    y = protected_matrix(ds, policy)
    header = ["subject_id", "sample_id"] + [f"p{i}" for i in range(y.shape[1])]
    _write_rows(args.out, header, y, list(zip(ds.subject_ids, ds.sample_ids)))
    print(f"wrote {args.out}: {y.shape[0]} protected templates of length {y.shape[1]}")
    return 0


def _cmd_eval_perf(args: argparse.Namespace) -> int:
    policy, ds = _policy_and_templates(args)
    curve, perf = _perf_block(run_scenario(ds, policy, protected_matrix(ds, policy)))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    det_path = out_dir / f"det_{args.scheme}_{args.scenario}.csv"
    write_det_points(curve, det_path)
    print(f"EER {perf['eer']:.4f}")
    print(f"FNMR@FMR=1% {perf['fnmr_at_fmr_1pct']:.4f}")
    print(f"FNMR@FMR=0.1% {perf['fnmr_at_fmr_0p1pct']:.4f}")
    print(f"DET points written to {det_path}")
    return 0


def _cmd_eval_unlink(args: argparse.Namespace) -> int:
    policy, ds = _policy_and_templates(args)
    report = unlinkability(run_scenario(ds, policy, protected_matrix(ds, policy)), args.bins)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    curve_path = out_dir / f"unlink_{args.scheme}.csv"
    curve = np.column_stack([report.bin_centers, report.local_d])
    _write_rows(curve_path, ["bin_center", "local_d"], curve)
    print(f"D_sys {report.d_sys:.4f}")
    if report.degenerate_range:
        print("warning: degenerate score range (all scores identical)", file=sys.stderr)
    print(f"local curve written to {curve_path}")
    return 0


def _cmd_eval_irrev(args: argparse.Namespace) -> int:
    policy, ds = _policy_and_templates(args)
    y = protected_matrix(ds, policy)
    report = mutual_information(ds.features, y, args.r)
    if report.r_used < args.r:
        print(
            f"warning: r reduced from {args.r} to {report.r_used} "
            f"(limited by samples/features)",
            file=sys.stderr,
        )
    print(f"MI {report.mi:.4f}")
    print(f"H(X) {report.h_x:.4f}  H(Y) {report.h_y:.4f}  H(X,Y) {report.h_joint:.4f}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifact = out_dir / f"irrev_{args.scheme}_{args.scenario}.json"
    write_report({"scheme": args.scheme, "scenario": args.scenario, **asdict(report)}, artifact)
    print(f"report written to {artifact}")
    return 0


def _one_malloc_arena() -> None:
    """Cap glibc malloc at one arena, so that pool threads allocate from the
    main arena instead of each growing its own (at two threads, the standard
    bench peaked at 54-56 MB RSS without the cap and at 52 MB with it); a
    no-op off glibc."""
    if platform.libc_ver()[0] != "glibc":
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(-8, 1)  # M_ARENA_MAX from <malloc.h>


@contextmanager
def _one_blas_thread():
    """Run numpy's bundled OpenBLAS on one thread inside the block, then
    restore its thread count. LAPACK's SVD in ``pca_fit`` gives other low bits
    of the MI fields on more threads, and OpenBLAS defaults to one thread per
    core; every command takes its parallelism from its worker pool instead. A
    no-op for any other BLAS."""
    blas = _openblas()
    if blas is None:
        yield
        return
    threads = blas.openblas_get_num_threads()
    blas.openblas_set_num_threads(1)
    try:
        yield
    finally:
        blas.openblas_set_num_threads(threads)


def _cmd_bench(args: argparse.Namespace) -> int:
    config = load_config(args.config, master_seed=args.seed)
    out_dir = Path(args.out_dir if args.out_dir is not None else config.output_dir)
    report, written = run_benchmark(config, out_dir)
    for cell in report["cells"]:
        print(
            f"{cell['scheme']:12s} {cell['scenario']:8s} eer={cell['eer']:.4f} "
            f"mi={cell['mi']:.2f}"
        )
    for row in report["unlinkability"]:
        print(f"{row['scheme']:12s} sample-specific d_sys={row['d_sys']:.4f}")
    print(f"report written to {written[-1]}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "protect": _cmd_protect,
    "eval-perf": _cmd_eval_perf,
    "eval-unlink": _cmd_eval_unlink,
    "eval-irrev": _cmd_eval_irrev,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _one_malloc_arena()
    try:
        with _one_blas_thread():
            return _COMMANDS[args.command](args)
    # each SchemeParams cap bounds one size, so L x k x d can still exceed memory
    except (CbBenchError, OSError, MemoryError) as exc:
        print(f"error: {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
