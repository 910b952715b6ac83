"""The benchmark's tracer (perfbench/tracer.py) looks up cbbench functions by
name when it installs, so deleting or renaming one breaks every traced run.
These tests read its tables without installing it."""

import importlib
import runpy
from pathlib import Path

from cbbench.numerics import RandomStream

# run_path compiles the source without writing bytecode next to it
TRACER = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"))


def test_every_traced_function_exists():
    for mod_name, fn_name in {**TRACER["SPAN_FUNCTIONS"], **TRACER["HOT_FUNCTIONS"]}:
        module = importlib.import_module(f"cbbench.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"cbbench.{mod_name}.{fn_name}"


def test_every_traced_draw_is_a_stream_method():
    for method in TRACER["STREAM_DRAWS"]:
        assert callable(getattr(RandomStream, method, None)), method
