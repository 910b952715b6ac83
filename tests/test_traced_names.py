"""The benchmark's tracer (perfbench/tracer.py) looks up cbbench functions by
name when it installs, so deleting or renaming one breaks every traced run.
These tests read its tables without installing it. The benchmark's child
(perfbench/child.py) wraps two ``cbbench.cli`` names to fingerprint what they
return; one test runs a command under its wrappers."""

import importlib
import runpy
from pathlib import Path

from cbbench import cli
from cbbench.io import write_templates
from cbbench.numerics import RandomStream
from cbbench.synthdata import SynthConfig, generate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# run_path compiles the source without writing bytecode next to it
TRACER = runpy.run_path(str(PERFBENCH / "tracer.py"))


def test_every_traced_function_exists():
    for mod_name, fn_name in {**TRACER["SPAN_FUNCTIONS"], **TRACER["HOT_FUNCTIONS"]}:
        module = importlib.import_module(f"cbbench.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"cbbench.{mod_name}.{fn_name}"


def test_every_traced_draw_is_a_stream_method():
    for method in TRACER["STREAM_DRAWS"]:
        assert callable(getattr(RandomStream, method, None)), method


def test_child_captures_the_cli_calls_it_wraps(tmp_path, monkeypatch):
    captures_of = runpy.run_path(str(PERFBENCH / "child.py"))["Captures"]
    for name in ("run_scenario", "protected_matrix"):
        monkeypatch.setattr(cli, name, getattr(cli, name))  # restored after the test
    captures = captures_of(cli)
    templates = tmp_path / "t.csv"
    write_templates(generate(SynthConfig(2, 3, 16, 0.3, 1)), templates)
    assert cli.main(["eval-perf", "--templates", str(templates), "--scheme", "biohash",
                     "--scenario", "stolen", "--out-dir", str(tmp_path / "out")]) == 0
    assert sorted((c["fn"], c["scheme"], c["scenario"]) for c in captures.current) == [
        ("protected_matrix", "biohash", "stolen"), ("run_scenario", "biohash", "stolen")]
