"""README's "Library use" example runs as written against this checkout, its
CLI quickstart lines parse, and its benchmark config is the reference one."""

import re
import shlex
from dataclasses import replace
from pathlib import Path

from cbbench.cli import _build_parser
from cbbench.io import load_config, standard_benchmark_config

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(title: str, language: str) -> str:
    """The first ``language`` code block of the README section ``title``."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"## {title}"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_runs(capsys):
    code = code_block("Library use", "python")
    exec(compile(code, f"{README}:Library use", "exec"), {})
    assert capsys.readouterr().out


def test_cli_quickstart_lines_parse():
    lines = [line for line in code_block("CLI quickstart", "sh").splitlines()
             if line.startswith("cbbench ")]
    assert len(lines) == 6
    for line in lines:  # a line argparse refuses exits 2, failing the test
        _build_parser().parse_args(shlex.split(line)[1:])


def test_benchmark_config_is_the_reference_one(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(code_block("Benchmark config", "json"), encoding="utf-8")
    assert load_config(path) == replace(standard_benchmark_config(), output_dir="results")
