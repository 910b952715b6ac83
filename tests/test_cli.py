import argparse
import contextlib
import copy
import io
import json
import math
import numbers
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cbbench
from cbbench.cli import _build_parser, main
from cbbench.core import Dataset, Scenario, SchemeId, SchemeKey, SchemeParams
from cbbench.errors import CbBenchError, InvalidArgumentError
from cbbench.io import (
    BenchmarkConfig, SchemeSpec, load_config, read_templates, standard_benchmark_config,
    write_templates,
)
from cbbench.metrics import eer, mutual_information
from cbbench.numerics import _openblas, derive_stream
from cbbench.protocol import KeyPolicy, protected_matrix
from cbbench.synthdata import SynthConfig

from conftest import ODD_IDS, oracle_write_rows, read_det_csv, scores_of, template_csvs


SMALL_SYNTHETIC = {
    "subjects": 6,
    "samples_per_subject": 3,
    "dimension": 16,
    "noise_sigma": 0.35,
    "seed": 5,
}


def small_config_data(tmp_path, **overrides) -> dict:
    cfg = {
        "master_seed": 11,
        "schemes": ["biohash", "iom-grp"],
        "scenarios": ["normal", "stolen"],
        "params": {"output_length": 32, "iom_k": 8},
        "unlinkability_bins": 10,
        "mi_components": 4,
        "synthetic": SMALL_SYNTHETIC,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


def small_config(tmp_path, **overrides):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(small_config_data(tmp_path, **overrides)), encoding="utf-8")
    return path


class TestSynth:
    def test_writes_expected_rows(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = main(
            [
                "synth", "--subjects", "50", "--samples", "6", "--dim", "128",
                "--sigma", "0.35", "--seed", "42", "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 301  # header + 50*6 rows
        assert "50 subjects" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--subjects", "4", "--samples", "2", "--dim", "16",
                "--sigma", "0.3", "--seed", "1"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_subject_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                ["synth", "--subjects", "1", "--samples", "2", "--dim", "16",
                 "--sigma", "0.3", "--out", str(tmp_path / "t.csv")]
            )
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--subjects", "2", "--samples", "2", "--dim", "16",
                  "--sigma", "0.3", "--out", str(tmp_path / "t.csv"), "--turbo"])
        assert exc.value.code == 2


@pytest.fixture()
def template_csv(tmp_path):
    out = tmp_path / "templates.csv"
    assert (
        main(["synth", "--subjects", "6", "--samples", "3", "--dim", "16",
              "--sigma", "0.3", "--seed", "3", "--out", str(out)]) == 0
    )
    return out


class TestProtect:
    def test_writes_protected_csv(self, tmp_path, template_csv, capsys):
        out = tmp_path / "protected.csv"
        rc = main(
            ["protect", "--templates", str(template_csv), "--scheme", "biohash",
             "--scenario", "stolen", "--master-seed", "9", "--length", "32",
             "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("subject_id,sample_id,p0,")
        assert len(lines) == 19  # header + 18 templates
        values = {v for line in lines[1:] for v in line.split(",")[2:]}
        assert values <= {"0.0", "1.0"}

    @pytest.mark.parametrize("scheme", [s.value for s in SchemeId])
    def test_bytes_equal_per_value_repr_rows(self, tmp_path, scheme):
        # ids with commas, quotes, line breaks, a lone carriage return,
        # spaces, non-ASCII and empty ones
        rows = [(a, b) for a in ODD_IDS for b in ODD_IDS[:8]]  # 72 rows, then 8 more
        rows += [("tail", b) for b in ODD_IDS[:8]]
        features = np.random.default_rng(4).standard_normal((len(rows), 16))
        templates = tmp_path / "t.csv"
        write_templates(Dataset(features, *map(list, zip(*rows))), templates)
        out = tmp_path / "protected.csv"
        assert main(["protect", "--templates", str(templates), "--scheme", scheme,
                     "--master-seed", "3", "--length", "32", "--out", str(out)]) == 0
        ds = read_templates(templates)
        assert list(zip(ds.subject_ids, ds.sample_ids)) == rows
        y = protected_matrix(
            ds, KeyPolicy(3, Scenario.NORMAL, SchemeId(scheme),
                          SchemeParams(output_length=32))
        )
        ref = tmp_path / "ref.csv"
        oracle_write_rows(ref, ["subject_id", "sample_id"] + [f"p{i}" for i in range(y.shape[1])],
                          y, rows)
        assert out.read_bytes() == ref.read_bytes()


class TestEvalPerf:
    def test_prints_eer_and_writes_det(self, tmp_path, template_csv, capsys):
        rc = main(
            ["eval-perf", "--templates", str(template_csv), "--scheme", "biohash",
             "--scenario", "normal", "--master-seed", "4", "--length", "32",
             "--out-dir", str(tmp_path / "out")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "EER 0.0000" in out
        assert "FNMR@FMR=1%" in out
        curve = read_det_csv(tmp_path / "out" / "det_biohash_normal.csv")
        assert eer(curve) == 0.0


class TestEvalUnlink:
    def test_runs_sample_specific(self, tmp_path, template_csv, capsys):
        rc = main(
            ["eval-unlink", "--templates", str(template_csv), "--scheme", "biohash",
             "--length", "32", "--bins", "10", "--out-dir", str(tmp_path / "out")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "D_sys" in out
        assert (tmp_path / "out" / "unlink_biohash.csv").exists()

    def test_bin_centers_are_midpoints_of_the_score_range(self, tmp_path, template_csv):
        assert main(["eval-unlink", "--templates", str(template_csv), "--scheme", "biohash",
                     "--master-seed", "5", "--length", "32", "--bins", "10",
                     "--out-dir", str(tmp_path)]) == 0
        centers = np.loadtxt(tmp_path / "unlink_biohash.csv", delimiter=",", skiprows=1)[:, 0]
        policy = KeyPolicy(5, Scenario.SAMPLE_SPECIFIC, SchemeId.BIOHASH,
                           SchemeParams(output_length=32))
        scores = scores_of(read_templates(template_csv), policy)
        pooled = np.concatenate([scores.mated, scores.nonmated])
        lo, hi = pooled.min(), pooled.max()
        assert lo < hi
        expected = lo + (hi - lo) / 10 * (np.arange(10) + 0.5)
        assert np.allclose(centers, expected, rtol=0, atol=1e-12)

    def test_default_bins_are_100(self, tmp_path, template_csv):
        for name, flags in (("default", []), ("explicit", ["--bins", "100"])):
            assert main(["eval-unlink", "--templates", str(template_csv), "--scheme", "biohash",
                         "--length", "32", "--out-dir", str(tmp_path / name), *flags]) == 0
        default = (tmp_path / "default" / "unlink_biohash.csv").read_bytes()
        assert default == (tmp_path / "explicit" / "unlink_biohash.csv").read_bytes()
        assert len(default.splitlines()) == 1 + 100


class TestEvalIrrev:
    def test_warns_on_r_shrink_and_writes_artifact(self, tmp_path, template_csv, capsys):
        rc = main(
            ["eval-irrev", "--templates", str(template_csv), "--scheme", "biohash",
             "--scenario", "stolen", "--length", "32", "--r", "100",
             "--out-dir", str(tmp_path / "out")]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "MI " in captured.out
        assert "warning" in captured.err and "reduced" in captured.err
        artifact = json.loads(
            (tmp_path / "out" / "irrev_biohash_stolen.json").read_text(encoding="utf-8")
        )
        assert artifact["r_used"] == 16  # min(100, 17, 16, 32)
        assert artifact["mi"] >= 0.0

    def test_default_r_is_100(self, tmp_path):
        templates = tmp_path / "wide.csv"
        assert main(["synth", "--subjects", "40", "--samples", "3", "--dim", "104",
                     "--sigma", "0.3", "--seed", "2", "--out", str(templates)]) == 0
        for name, flags in (("default", []), ("explicit", ["--r", "100"])):
            assert main(["eval-irrev", "--templates", str(templates), "--scheme", "biohash",
                         "--length", "128", "--out-dir", str(tmp_path / name), *flags]) == 0
        default = (tmp_path / "default" / "irrev_biohash_normal.json").read_bytes()
        assert default == (tmp_path / "explicit" / "irrev_biohash_normal.json").read_bytes()
        assert json.loads(default)["r_used"] == 100

    def test_templates_scaled_by_1e200(self, tmp_path, template_csv, capsys):
        # the features' squares overflow float64; the MI is scale-invariant,
        # and H(X) gains r_used * ln(1e200) nats
        ds = read_templates(template_csv)
        big = tmp_path / "big.csv"
        write_templates(Dataset(ds.features * 1e200, ds.subject_ids, ds.sample_ids), big)
        reports = []
        for name, csv in (("plain", template_csv), ("big", big)):
            assert main(["eval-irrev", "--templates", str(csv), "--scheme", "biohash",
                         "--length", "32", "--r", "8", "--out-dir", str(tmp_path / name)]) == 0
            assert "RuntimeWarning" not in capsys.readouterr().err
            artifact = tmp_path / name / "irrev_biohash_normal.json"
            reports.append(json.loads(artifact.read_text(encoding="utf-8")))
        plain, scaled = reports
        assert math.isclose(scaled["mi"], plain["mi"], rel_tol=1e-9)
        shift = plain["r_used"] * math.log(1e200)
        assert math.isclose(scaled["h_x"], plain["h_x"] + shift, rel_tol=1e-9)
        assert scaled["h_y"] == plain["h_y"]


class TestBench:
    def test_full_structure(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert main(["bench", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert len(report["cells"]) == 4  # 2 schemes x 2 scenarios
        assert {c["scenario"] for c in report["cells"]} == {"normal", "stolen"}
        assert len(report["unlinkability"]) == 2
        assert all("d_sys" in row for row in report["unlinkability"])
        assert "unprotected_baseline" in report
        for cell in report["cells"]:
            det = read_det_csv(tmp_path / "out" / cell["det_csv"])
            assert eer(det) == cell["eer"]
        # cells are sorted by scheme then scenario
        order = [(c["scheme"], c["scenario"]) for c in report["cells"]]
        assert order == sorted(order)

    def test_deterministic_modulo_timestamp(self, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["bench", "--config", str(cfg)]) == 0
        first = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert main(["bench", "--config", str(cfg)]) == 0
        second = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        first.pop("timestamp")
        second.pop("timestamp")
        assert first == second

    def test_unknown_scheme_names_token(self, tmp_path, capsys):
        cfg = small_config(tmp_path, schemes=["biohash", "quadhash"])
        assert main(["bench", "--config", str(cfg)]) == 1
        assert "quadhash" in capsys.readouterr().err

    def test_failing_cell_removes_partial_outputs(self, tmp_path, capsys):
        # iom-urp with an alphabet wider than the dimension fails at
        # instantiation, after the biohash DET files were already written
        cfg = small_config(
            tmp_path,
            schemes=["biohash", {"name": "iom-urp", "params": {"iom_k": 32}}],
        )
        out_dir = tmp_path / "out"
        assert main(["bench", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "iom-urp" in err and "cell" in err
        assert not list(out_dir.glob("*.csv"))
        assert not (out_dir / "report.json").exists()

    def test_failed_report_write_removes_det_files(self, tmp_path, monkeypatch, capsys):
        def fail(report, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("cbbench.cli.write_report", fail)
        cfg = small_config(tmp_path)
        assert main(["bench", "--config", str(cfg)]) == 1
        assert "No space left" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("det_*.csv"))
        assert not (tmp_path / "out" / "report.json").exists()

    def test_interrupt_removes_partial_outputs(self, tmp_path, monkeypatch):
        # interrupted in the second cell's MI, after the first cell wrote its DET CSV
        from cbbench import cli

        calls = []

        def interrupted(x, y, r):
            calls.append(r)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return mutual_information(x, y, r)

        monkeypatch.setattr(cli, "mutual_information", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["bench", "--config", str(small_config(tmp_path))])
        assert len(calls) == 2 and list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("source", ["standard", "templates"])
    def test_config_echo_loads_as_the_config(self, tmp_path, source):
        from cbbench.cli import _config_echo

        config = standard_benchmark_config() if source == "standard" else BenchmarkConfig(
            schemes=[SchemeSpec(SchemeId.BIOHASH, SchemeParams(output_length=64)),
                     SchemeSpec(SchemeId.IOM_URP, SchemeParams(iom_k=4, iom_p=3))],
            scenarios=["stolen"], master_seed=7, templates="t.csv", output_dir="res",
        )
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(_config_echo(config)), encoding="utf-8")
        assert load_config(path) == config

    def test_faulty_scheme_kernel_names_its_cell(self, tmp_path, monkeypatch, capsys):
        # a biohash kernel that forgets to threshold hands the scorer real
        # values, which the first cell's packing refuses
        from cbbench.schemes import BioHashInstance

        monkeypatch.setattr(BioHashInstance, "rows", lambda self, x: x @ self.projection.T)
        out_dir = tmp_path / "out"
        assert main(["bench", "--config", str(small_config(tmp_path))]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: bench: CbBenchError: cell (scheme=biohash, scenario=normal): "
            "InvalidArgumentError: protected rows hold values other than 0/1 values\n"
        )
        assert not list(out_dir.glob("*.csv")) and not (out_dir / "report.json").exists()

    def test_out_of_memory_in_a_cell_names_the_builtin_error(self, tmp_path, monkeypatch,
                                                             capsys):
        # 2 PiB, which numpy refuses at once without allocating: its MemoryError
        # subclass lives in a module whose path differs across numpy versions
        from cbbench import cli

        monkeypatch.setattr(cli, "mutual_information", lambda x, y, r: np.empty((2**24, 2**24)))
        assert main(["bench", "--config", str(small_config(tmp_path))]) == 1
        assert capsys.readouterr().err == (
            "error: bench: CbBenchError: cell (scheme=biohash, scenario=normal): MemoryError: "
            "Unable to allocate 2.00 PiB for an array with shape (16777216, 16777216) and "
            "data type float64\n"
        )
        assert not list((tmp_path / "out").iterdir())

    def test_draw_failing_on_a_pool_thread_names_its_cell(self, tmp_path, monkeypatch, capsys,
                                                          cpus):
        # the stolen cell draws its one key on the calling thread and writes
        # its DET CSV; the sample-specific pass deals 17 of its 18 keys to
        # the calling thread and a pool of 2, whose draws raise
        import threading

        from cbbench.schemes import BioHashInstance

        draw = BioHashInstance._draw

        def draw_off_the_main_thread(cls, seed, params, d):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("no draws on a pool thread")
            return draw(seed, params, d)

        monkeypatch.setattr(BioHashInstance, "_draw", classmethod(draw_off_the_main_thread))
        cpus(3)
        cfg = small_config(tmp_path, schemes=["biohash"], scenarios=["stolen"])
        threads = threading.active_count()
        assert main(["bench", "--config", str(cfg)]) == 1
        assert threading.active_count() == threads  # the pool is shut down
        err = capsys.readouterr().err
        assert "cell (scheme=biohash, scenario=sample-specific)" in err
        assert "RuntimeError: no draws on a pool thread" in err and "Traceback" not in err
        assert not list((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_key_instantiated_once_per_cell(self, tmp_path, monkeypatch, cpus, workers):
        # wrap instantiate and derive_stream wherever a cbbench module binds
        # them by name
        import sys
        import threading
        from collections import Counter

        from cbbench import numerics, schemes
        from cbbench.cli import run_benchmark
        from cbbench.io import load_config

        instantiate, derive_stream = schemes.instantiate, numerics.derive_stream
        calls = Counter()
        pooled = Counter()
        directions = Counter()
        lock = threading.Lock()  # pool threads call them too, and += is not atomic

        def counting(key, d):
            with lock:
                calls[(key.scheme_id, key.seed)] += 1
                pooled[threading.current_thread() is not threading.main_thread()] += 1
            return instantiate(key, d)

        def deriving(seed, label):
            if label == b"iom-grp.directions":
                with lock:
                    directions[seed] += 1
            return derive_stream(seed, label)

        for name, mod in list(sys.modules.items()):
            if name == "cbbench" or name.startswith("cbbench."):
                for attr, value in list(vars(mod).items()):
                    for original, wrapper in ((instantiate, counting), (derive_stream, deriving)):
                        if value is original:
                            monkeypatch.setattr(mod, attr, wrapper)
        cpus(workers)
        run_benchmark(load_config(small_config(tmp_path)), tmp_path / "out")
        # biohash's 6 subject keys (normal), 1 shared key (stolen) and 18
        # sample keys (sample-specific) are each instantiated exactly once;
        # of iom-grp's only the shared key is: its 24 per-key keys, one block
        # each, draw their directions while projecting
        assert Counter(scheme for scheme, _ in calls) == {
            SchemeId.BIOHASH: 6 + 1 + 18, SchemeId.IOM_GRP: 1}
        assert set(calls.values()) == {1}
        # every iom-grp key, shared or not, derives its directions stream once
        assert len(directions) == 6 + 1 + 18 and set(directions.values()) == {1}
        # with 2 workers one pool thread takes every second key after the
        # first: 2 of biohash's 6 subject keys and 8 of its 18 sample keys;
        # no stolen key, and no iom-grp key is instantiated on it
        assert pooled[True] == (0 if workers == 1 else 2 + 8)

    @pytest.mark.parametrize(
        "command", ["protect", "eval-perf", "eval-unlink", "eval-irrev", "bench"]
    )
    def test_bench_uses_every_cpu_of_the_affinity_mask(
        self, tmp_path, template_csv, monkeypatch, command
    ):
        # a protect pass of more keys than the mask's 3 CPUs runs on the
        # calling thread and a pool of 2
        from cbbench import protocol

        pools = []

        class CountingPool(protocol.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(protocol, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        if command == "bench":
            argv = ["bench", "--config", str(small_config(tmp_path))]
        else:
            argv = [command, "--templates", str(template_csv), "--scheme", "biohash",
                    "--length", "32", "--out" if command == "protect" else "--out-dir",
                    str(tmp_path / "out")]
        assert main(argv) == 0
        # bench protects twice per scheme with several keys: normal (6 subject
        # keys) and sample-specific (18 sample keys); the stolen key's 18 rows
        # are one block, protected on the calling thread
        assert pools == [2] * (4 if command == "bench" else 1)

    def test_command_outputs_identical_for_any_cpu_count(self, tmp_path, template_csv,
                                                         monkeypatch):
        flags = ["--templates", str(template_csv), "--master-seed", "5", "--length", "32",
                 "--iom-k", "8"]
        outputs = []
        for cpus in ({0}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            out = tmp_path / f"cpus{len(cpus)}"
            out.mkdir()
            for scheme in SchemeId:
                args = flags + ["--scheme", scheme.value]
                for scenario in ("normal", "sample-specific"):
                    path = out / f"protected_{scheme.value}_{scenario}.csv"
                    assert main(["protect", *args, "--scenario", scenario,
                                 "--out", str(path)]) == 0
                for command in ("eval-perf", "eval-unlink", "eval-irrev"):
                    scenario = "sample-specific" if command == "eval-unlink" else "normal"
                    assert main([command, *args, "--scenario", scenario,
                                 "--out-dir", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        # per scheme: two protected CSVs, a DET CSV, an unlinkability curve, an MI report
        assert len(outputs[0]) == 5 * len(SchemeId) and outputs[0] == outputs[1]

    def test_outputs_identical_for_any_worker_count(self, tmp_path, cpus):
        from cbbench.cli import run_benchmark
        from cbbench.io import load_config

        config = load_config(small_config(tmp_path, schemes=["biohash", "iom-grp", "iom-urp"]))
        reports, files = [], []
        for workers in (1, 2):
            cpus(workers)
            report, written = run_benchmark(config, tmp_path / f"w{workers}")
            report.pop("timestamp")
            reports.append(report)
            files.append({p.name: p.read_bytes() for p in written if p.suffix == ".csv"})
        assert reports[0] == reports[1]
        assert len(files[0]) == 3 * 2 and files[0] == files[1]

    def test_bench_is_the_eval_commands_composed(self, tmp_path, monkeypatch):
        # bench and the eval-* commands share the protect pass, the lone-key
        # split and the packed scorer: on one CSV and seed, every DET CSV, MI
        # block and D_sys must agree
        from cbbench import cli

        templates = tmp_path / "templates.csv"
        assert main(["synth", "--subjects", "40", "--samples", "3", "--dim", "64",
                     "--sigma", "0.3", "--seed", "9", "--out", str(templates)]) == 0
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({
            "master_seed": 9, "schemes": [s.value for s in SchemeId],
            "scenarios": ["normal", "stolen"], "unlinkability_bins": 20, "mi_components": 8,
            "templates": str(templates),
        }), encoding="utf-8")
        assert main(["bench", "--config", str(config), "--out-dir", str(tmp_path / "bench")]) == 0
        report = json.loads((tmp_path / "bench" / "report.json").read_text(encoding="utf-8"))

        # eval-unlink prints D_sys to 4 places; record the value it computed,
        # one per scheme in SchemeId order, as the loop below runs them
        d_sys = []
        measure = cli.unlinkability

        def recorded(scores, bins):
            result = measure(scores, bins)
            d_sys.append(result.d_sys)
            return result

        monkeypatch.setattr(cli, "unlinkability", recorded)
        out = tmp_path / "eval"
        for scheme in SchemeId:
            flags = ["--templates", str(templates), "--master-seed", "9", "--scheme", scheme.value,
                     "--out-dir", str(out)]
            for scenario in ("normal", "stolen"):
                assert main(["eval-perf", *flags, "--scenario", scenario]) == 0
                assert main(["eval-irrev", *flags, "--scenario", scenario, "--r", "8"]) == 0
            assert main(["eval-unlink", *flags, "--bins", "20"]) == 0

        det = sorted(p.name for p in (tmp_path / "bench").glob("det_*.csv"))
        assert len(det) == 2 * len(SchemeId)
        for name in det:
            assert (out / name).read_bytes() == (tmp_path / "bench" / name).read_bytes(), name
        assert len(report["cells"]) == 2 * len(SchemeId)
        for cell in report["cells"]:
            irrev = json.loads((out / f"irrev_{cell['scheme']}_{cell['scenario']}.json")
                               .read_text(encoding="utf-8"))
            mi_block = {k: v for k, v in irrev.items() if k not in ("scheme", "scenario")}
            assert mi_block == {k: cell[k] for k in mi_block}, cell["scheme"]
        assert len(d_sys) == len(SchemeId)
        assert {row["scheme"]: row["d_sys"] for row in report["unlinkability"]} == dict(
            zip((s.value for s in SchemeId), d_sys))

    def test_seed_override_changes_results(self, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "o1")]) == 0
        assert main(
            ["bench", "--config", str(cfg), "--out-dir", str(tmp_path / "o2"), "--seed", "99"]
        ) == 0
        r1 = json.loads((tmp_path / "o1" / "report.json").read_text(encoding="utf-8"))
        r2 = json.loads((tmp_path / "o2" / "report.json").read_text(encoding="utf-8"))
        assert r1["config"]["master_seed"] == 11 and r2["config"]["master_seed"] == 99
        assert [c["mi"] for c in r1["cells"]] != [c["mi"] for c in r2["cells"]]

    def test_default_master_seed_is_42(self, tmp_path):
        # the data seed follows the master seed, so both come from the default
        synthetic = {k: v for k, v in SMALL_SYNTHETIC.items() if k != "seed"}
        outputs = []
        for name, seed in (("default", {}), ("explicit", {"master_seed": 42})):
            data = small_config_data(tmp_path, synthetic=synthetic)
            del data["master_seed"]
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({**data, **seed}), encoding="utf-8")
            out = tmp_path / name
            assert main(["bench", "--config", str(cfg), "--out-dir", str(out)]) == 0
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            report.pop("timestamp")
            outputs.append((report, {p.name: p.read_bytes() for p in out.glob("det_*.csv")}))
        assert len(outputs[0][1]) == 2 * 2 and outputs[0] == outputs[1]
        synth = ["synth", "--subjects", "3", "--samples", "2", "--dim", "8", "--sigma", "0.3"]
        assert main(synth + ["--out", str(tmp_path / "default.csv")]) == 0
        assert main(synth + ["--seed", "42", "--out", str(tmp_path / "explicit.csv")]) == 0
        assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "explicit.csv").read_bytes()

    def test_seed_override_equals_config_seed(self, tmp_path):
        # without a synthetic seed, --seed 7 must seed the data as master_seed 7 does
        synthetic = {k: v for k, v in SMALL_SYNTHETIC.items() if k != "seed"}
        outputs = []
        for name, seed, flags in (("flag", 42, ["--seed", "7"]), ("file", 7, [])):
            cfg = tmp_path / f"{name}.json"
            data = small_config_data(tmp_path, master_seed=seed, synthetic=synthetic)
            cfg.write_text(json.dumps(data), encoding="utf-8")
            out = tmp_path / name
            assert main(["bench", "--config", str(cfg), "--out-dir", str(out), *flags]) == 0
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            report.pop("timestamp")
            outputs.append((report, {p.name: p.read_bytes() for p in out.glob("det_*.csv")}))
        assert len(outputs[0][1]) == 2 * 2 and outputs[0] == outputs[1]
        # a loaded config is frozen: nothing changes it after its checks have run
        with pytest.raises(FrozenInstanceError):
            load_config(tmp_path / "file.json").master_seed = 42


@st.composite
def tiny_bench_configs(draw) -> dict:
    """A bench config of a few schemes and scenarios on at most 6 x 3 x 12
    synthetic templates, every seed and size drawn."""
    schemes = draw(st.lists(st.sampled_from([s.value for s in SchemeId]), min_size=1,
                            max_size=3, unique=True))
    return {
        "master_seed": draw(st.integers(0, 2**64 - 1)),
        "schemes": schemes,
        "scenarios": draw(st.sampled_from([["normal"], ["stolen"], ["normal", "stolen"]])),
        "params": {"output_length": draw(st.integers(8, 40)), "iom_k": 2},
        "unlinkability_bins": draw(st.integers(10, 30)),
        "mi_components": draw(st.integers(1, 8)),
        "synthetic": {
            "subjects": draw(st.integers(2, 6)),
            "samples_per_subject": draw(st.integers(2, 3)),
            "dimension": draw(st.integers(2, 12)),
            "noise_sigma": 0.3,
            "seed": draw(st.integers(0, 2**64 - 1)),
        },
    }


@settings(max_examples=25, deadline=None)
@given(config=tiny_bench_configs())
def test_bench_replays_byte_identical(config):
    # two runs in one process: the same exit code and stderr, the same DET
    # CSV bytes and the same report apart from its timestamp
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        out, path = Path(tmp) / "out", Path(tmp) / "bench.json"
        path.write_text(json.dumps({**config, "output_dir": str(out)}), encoding="utf-8")
        for _ in range(2):
            shutil.rmtree(out, ignore_errors=True)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["bench", "--config", str(path)])
            report = {}
            if code == 0:
                report = json.loads((out / "report.json").read_text(encoding="utf-8"))
                report.pop("timestamp")
            dets = {p.name: p.read_bytes() for p in sorted(out.glob("det_*.csv"))}
            runs.append((code, err.getvalue(), json.dumps(report, sort_keys=True), dets))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 or not runs[0][3]  # a failed run leaves no DET CSV


def test_missing_templates_file_is_runtime_error(tmp_path, capsys):
    rc = main(
        ["eval-perf", "--templates", str(tmp_path / "absent.csv"), "--scheme", "biohash"]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_out_of_memory_is_runtime_error(tmp_path):
    # each SchemeParams cap bounds one size: iom-grp's 4096 x 256 x 2048
    # directions are 16 GiB, which a 4 GiB address space refuses at once.
    # The stolen key is shared, so it is still built whole; per-subject keys
    # draw them slice by slice while projecting, so the normal scenario of
    # this command ends in bounded memory (exit 0 after 84 s at a 46 MB peak
    # RSS on a 2-vCPU x86-64 VM)
    resource = pytest.importorskip("resource")
    csv = tmp_path / "t.csv"
    assert main(["synth", "--subjects", "3", "--samples", "2", "--dim", "2048",
                 "--sigma", "0.3", "--out", str(csv)]) == 0
    script = (
        "import resource, sys\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, hard))\n"
        "from cbbench.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(cbbench.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, "eval-perf", "--templates", str(csv), "--scheme",
         "iom-grp", "--scenario", "stolen", "--length", "4096", "--iom-k", "256",
         "--out-dir", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: eval-perf: MemoryError: Unable to allocate 16.0 GiB")
    assert len(proc.stderr.splitlines()) == 1


def test_unwritable_output_is_runtime_error(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "t.csv"
    rc = main(["synth", "--subjects", "2", "--samples", "2", "--dim", "8",
               "--sigma", "0.3", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error" in err and "t.csv" in err


def test_arena_cap_is_a_no_op_off_glibc(monkeypatch):
    import ctypes
    import platform

    from cbbench import cli

    def no_libc(*args, **kwargs):
        raise AssertionError("the C library was loaded off glibc")

    monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("musl", "1.2"))
    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    cli._one_malloc_arena()


def test_irrev_outputs_identical_for_any_blas_thread_count(tmp_path):
    if _openblas() is None:
        pytest.skip(f"numpy {np.__version__} bundles no OpenBLAS whose thread count can be set")
    # the MI fields of a stolen-key pass on 150 templates changed with the
    # OpenBLAS thread count, through LAPACK's SVD in the PCA fit
    csv = tmp_path / "t.csv"
    assert main(["synth", "--subjects", "50", "--samples", "3", "--dim", "64", "--sigma", "0.35",
                 "--out", str(csv)]) == 0
    script = (
        "import sys\n"
        "from cbbench.cli import main\n"
        "for scheme in sys.argv[3:]:\n"
        "    assert main(['eval-irrev', '--templates', sys.argv[1], '--scheme', scheme,\n"
        "                 '--scenario', 'stolen', '--out-dir', sys.argv[2]]) == 0\n"
    )
    src = str(Path(cbbench.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", script, str(csv), str(out),
                        *(s.value for s in SchemeId)], env=env, check=True, timeout=300)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == len(SchemeId) and outputs[0] == outputs[1]


def _bench_child(config, out, **env) -> tuple[dict, dict]:
    """``(report minus timestamp, {DET CSV name: bytes})`` of ``cbbench bench``
    in a child process whose environment adds ``env`` and forces no OpenBLAS kernel
    unless ``env`` does."""
    src = str(Path(cbbench.__file__).resolve().parents[1])
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    subprocess.run([sys.executable, "-m", "cbbench", "bench", "--config", str(config),
                    "--out-dir", str(out)], env={**child_env, **env, "PYTHONPATH": src},
                   check=True, timeout=300, stdout=subprocess.DEVNULL)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    report.pop("timestamp")
    return report, {p.name: p.read_bytes() for p in sorted(out.glob("det_*.csv"))}


def _battery_config(tmp_path, mi_components: int):
    """Six schemes, normal and stolen, on 30 x 3 x 64 templates."""
    synthetic = {**SMALL_SYNTHETIC, "subjects": 30, "dimension": 64}
    return small_config(tmp_path, schemes=[s.value for s in SchemeId], params={},
                        mi_components=mi_components, synthetic=synthetic)


def test_bench_outputs_identical_for_any_blas_thread_count(tmp_path):
    if _openblas() is None:
        pytest.skip(f"numpy {np.__version__} bundles no OpenBLAS whose thread count can be set")
    # the same replay for the whole battery, the sample-specific pass included;
    # at this size the MI fields of unpinned OpenBLAS differ between 1 and 2 threads
    config = _battery_config(tmp_path, mi_components=100)
    outputs = []
    for threads in ("1", "2"):
        report, dets = _bench_child(config, tmp_path / f"threads{threads}",
                                    OPENBLAS_NUM_THREADS=threads)
        outputs.append((json.dumps(report, sort_keys=True), dets))
    assert len(outputs[0][1]) == 2 * len(SchemeId) and outputs[0] == outputs[1]


# the CPU flags each forced OpenBLAS kernel needs
_KERNEL_FLAGS = {"Haswell": {"avx2", "fma"}, "Nehalem": {"sse4_2"}}
# prints the kernel numpy's bundled OpenBLAS runs (scipy-openblas, or openblas64_)
_CORENAME = (
    "import ctypes, pathlib, numpy as np\n"
    "for path in sorted((pathlib.Path(np.__file__).resolve().parents[1] / 'numpy.libs')\n"
    "                   .glob('lib*openblas*')):\n"
    "    lib = ctypes.CDLL(str(path))\n"
    "    for prefix in ('scipy_openblas', 'openblas'):\n"
    "        corename = getattr(lib, prefix + '_get_corename64_', None)\n"
    "        if corename is not None:\n"
    "            corename.argtypes, corename.restype = [], ctypes.c_char_p\n"
    "            print(corename().decode())\n"
)


@pytest.mark.parametrize("kernel", sorted(_KERNEL_FLAGS))
def test_bench_outputs_replay_across_blas_kernels(tmp_path, kernel):
    # LAPACK's SVD in the PCA fit cannot be pinned across kernels, so only the
    # MI fields may move there, and only in their last digits
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"OpenBLAS kernels are forced on x86-64 only, not {platform.machine()}")
    if _openblas() is None:
        pytest.skip(f"numpy {np.__version__} bundles no OpenBLAS whose kernel can be set")
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            flags = set(next(line for line in fh if line.startswith("flags")).split())
    except (OSError, StopIteration):
        pytest.skip("no /proc/cpuinfo lists the CPU flags, so no kernel is forced")
    if not _KERNEL_FLAGS[kernel] <= flags:
        pytest.skip(f"the CPU lacks {sorted(_KERNEL_FLAGS[kernel] - flags)}, which {kernel} needs")
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel}
    core = subprocess.run([sys.executable, "-c", _CORENAME], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout.strip()
    if core.lower() != kernel.lower():
        pytest.skip(f"numpy's OpenBLAS runs {core or 'no named kernel'} under "
                    f"OPENBLAS_CORETYPE={kernel}, so its kernel cannot be set")
    config = _battery_config(tmp_path, mi_components=64)
    (base, base_dets), (forced, forced_dets) = (
        _bench_child(config, tmp_path / "default"),
        _bench_child(config, tmp_path / kernel, OPENBLAS_CORETYPE=kernel),
    )
    assert len(base_dets) == 2 * len(SchemeId) and forced_dets == base_dets
    for a, b in zip(base["cells"], forced["cells"]):
        for name in ("mi", "h_x", "h_y", "h_joint"):
            assert math.isclose(a.pop(name), b.pop(name), rel_tol=1e-10, abs_tol=1e-8), (
                a["scheme"], a["scenario"], name
            )
    # the rest, the unlinkability rows and the unprotected baseline among it, to the byte
    assert json.dumps(base, sort_keys=True) == json.dumps(forced, sort_keys=True)


def _run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


EVAL_PERF = ["eval-perf", "--templates", "t.csv", "--scheme", "biohash"]
ONE_SUBJECT = "nonmated is empty: a non-mated pair needs at least two subjects"
NOT_UTF8 = "bad.csv:3: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 4"
SEPARATOR = "sep.csv: invalid dataset: features: subject 'a\\x1fb' sample 'c': an id holds '\\x1f'"


@pytest.mark.parametrize(
    "argv, code, culprit",
    [
        (EVAL_PERF + ["--master-seed", "-1"], 2, "--master-seed"),
        (EVAL_PERF + ["--master-seed", str(2**64)], 2, "--master-seed"),
        (["bench", "--config", "{config}", "--seed", "-1"], 2, "--seed"),
        (["bench", "--config", "{config:master_seed}"], 1, "master_seed"),
        (["bench", "--config", "{config:subjects}"], 1, "subjects"),
        (["bench", "--config", "{config:output_length}"], 1, "output_length"),
        (["bench", "--config", "{config:scenarios}"], 1, "scenarios"),
        (EVAL_PERF + ["--length", "4"], 2, "--length"),
        (EVAL_PERF + ["--length", "300000000"], 2, "--length"),
        (["bench", "--config", "{config:output_length_big}"], 1, "output_length"),
        (["eval-unlink", "--templates", "t.csv", "--scheme", "biohash", "--scenario", "stolen"],
         2, "--scenario"),
        (["eval-perf", "--templates", "t.csv", "--scheme", "nosuch"], 2, "nosuch"),
        (["protect", "--templates", "t.csv", "--scheme", "nosuch", "--out", "p.csv"],
         2, "cbbench protect: error: argument --scheme"),
        (["bench", "--config", "{config:scheme}"], 1, "schemes: unknown scheme name"),
        (["synth", "--subjects", "2", "--samples", "2", "--dim", "4", "--sigma", "inf",
          "--out", "t.csv"], 2, "--sigma"),
        (["bench", "--config", "{config:noise_sigma}"], 1, "noise_sigma"),
        (["synth", "--subjects", "2", "--samples", "2", "--dim", "10000000000", "--sigma", "0.3",
          "--out", "t.csv"], 2, "--dim"),
        (["synth", "--subjects", "1000000", "--samples", "2", "--dim", "4", "--sigma", "0.3",
          "--out", "t.csv"], 2, "--subjects"),
        (["synth", "--subjects", "2", "--samples", "1000000", "--dim", "4", "--sigma", "0.3",
          "--out", "t.csv"], 2, "--samples"),
        (["bench", "--config", "{config:dimension}"], 1, "dimension"),
        (["bench", "--config", "{config:subjects_big}"], 1, "subjects"),
        (["bench", "--config", "{config:samples_per_subject}"], 1, "samples_per_subject"),
        (["eval-perf", "--templates", "t.csv", "--scheme", "iom-grp", "--iom-k", "1000000000"],
         2, "--iom-k"),
        (["eval-perf", "--templates", "t.csv", "--scheme", "iom-urp", "--iom-p", "1000000000"],
         2, "--iom-p"),
        (["eval-perf", "--templates", "t.csv", "--scheme", "mlp-hash", "--mlp-layers",
          "1000000000"], 2, "--mlp-layers"),
        (["eval-perf", "--templates", "t.csv", "--scheme", "bloom", "--bloom-block-cols",
          "1000000000"], 2, "--bloom-block-cols"),
        (["bench", "--config", "{config:iom_k}"], 1, "iom_k"),
        (["bench", "--config", "{config:iom_p}"], 1, "iom_p"),
        (["bench", "--config", "{config:mlp_layers}"], 1, "mlp_layers"),
        (["bench", "--config", "{config:bloom_block_cols}"], 1, "bloom_block_cols"),
        (["synth", "--subjects", "10000", "--samples", "100", "--dim", "2048", "--sigma", "0.3",
          "--out", "t.csv"], 2, "cbbench synth: error: argument --dim"),
        (["bench", "--config", "{config:features_big}"], 1, "dimension"),
        (["eval-unlink", "--templates", "t.csv", "--scheme", "biohash", "--bins", "5"],
         2, "--bins"),
        (["eval-unlink", "--templates", "t.csv", "--scheme", "biohash", "--bins", "1000000000"],
         2, "--bins"),
        (["eval-irrev", "--templates", "t.csv", "--scheme", "biohash", "--r", "0"], 2, "--r"),
        (["bench", "--config", "{config:unlinkability_bins}"], 1, "unlinkability_bins"),
        (["bench", "--config", "{config:mi_components}"], 1, "mi_components"),
        (["bench", "--config", "{config:synthetic_typo}"], 1, "dimenson"),
        # the synthetic seed defaults to master_seed, but the error is master_seed's
        (["bench", "--config", "{config:master_seed_inherited}"], 1, "master_seed"),
        (["synth", "--subjects", "3", "--samples", "2", "--dim", "4", "--sigma", "1e308",
          "--out", "t.csv"], 2, "--sigma"),
        (["bench", "--config", "{config:noise_sigma_big}"], 1, "noise_sigma"),
        (["eval-perf", "--templates", "one.csv", "--scheme", "biohash"], 1, ONE_SUBJECT),
        (["eval-unlink", "--templates", "one.csv", "--scheme", "biohash"], 1, ONE_SUBJECT),
        (["protect", "--templates", "bad.csv", "--scheme", "biohash", "--out", "p.csv"],
         1, NOT_UTF8),
        (["eval-perf", "--templates", "bad.csv", "--scheme", "biohash"], 1, NOT_UTF8),
        (["eval-unlink", "--templates", "sep.csv", "--scheme", "biohash"], 1, SEPARATOR),
        (["bench", "--config", "{config:schemes_twice}"], 1,
         "schemes and scenarios repeat the cell biohash_normal, whose two runs would write one "
         "DET CSV, det_biohash_normal.csv"),
    ],
    ids=["seed-negative", "seed-2**64", "bench-seed-negative", "config-master-seed-str",
         "config-subjects-str", "config-param-str", "config-scenarios-str",
         "param-length-4", "param-length-3e8", "config-param-3e8", "unlink-scenario-stolen",
         "scheme-unknown", "protect-scheme-unknown", "config-scheme-unknown", "synth-sigma-inf",
         "config-sigma-1e400", "synth-dim-1e10",
         "synth-subjects-1e6", "synth-samples-1e6", "config-dimension-1e10",
         "config-subjects-1e6", "config-samples-1e6", "param-iom-k-1e9",
         "param-iom-p-1e9", "param-mlp-layers-1e9", "param-bloom-block-cols-1e9",
         "config-iom-k-1e9", "config-iom-p-1e9", "config-mlp-layers-1e9",
         "config-bloom-block-cols-1e9", "synth-features-2e9", "config-features-2e9",
         "unlink-bins-5", "unlink-bins-1e9", "irrev-r-0", "config-bins-1e10",
         "config-mi-components-0", "config-synthetic-unknown-key",
         "config-master-seed-inherited", "synth-sigma-1e308", "config-sigma-1e308",
         "perf-one-subject", "unlink-one-subject", "protect-not-utf8", "perf-not-utf8",
         "unlink-id-holds-key-separator", "config-scheme-twice"],
)
def test_bad_input_exits_without_traceback(tmp_path, monkeypatch, capsys, argv, code, culprit):
    monkeypatch.chdir(tmp_path)  # relative paths such as t.csv land in tmp_path
    # a valid dataset of one subject's two samples, which has no non-mated pair
    (tmp_path / "one.csv").write_text("subject_id,sample_id,f0,f1\na,0,1.0,0.5\na,1,0.5,1.0\n")
    # the byte 0xff in line 3, which no UTF-8 text holds
    (tmp_path / "bad.csv").write_bytes(b"subject_id,sample_id,f0,f1\na,0,1.0,0.5\na,1,\xff0.5,1.0\n")
    # ("a\x1fb", "c") and ("a", "b\x1fc") would derive one sample-specific key
    (tmp_path / "sep.csv").write_text("subject_id,sample_id,f0,f1\na\x1fb,c,1.0,0.5\n"
                                      "a\x1fb,d,0.5,1.0\na,b\x1fc,1.0,0.0\na,e,0.0,1.0\n")
    configs = {
        "{config}": {},
        "{config:master_seed}": {"master_seed": "abc"},
        "{config:subjects}": {"synthetic": {**SMALL_SYNTHETIC, "subjects": "3"}},
        "{config:output_length}": {"params": {"output_length": "64"}},
        "{config:output_length_big}": {"params": {"output_length": 300000000}},
        "{config:scenarios}": {"scenarios": "normal"},
        "{config:scheme}": {"schemes": ["nosuch"]},
        # one scheme at two lengths: both cells' DET points would go to one file
        "{config:schemes_twice}": {"schemes": [
            {"name": "biohash", "params": {"output_length": 64}},
            {"name": "biohash", "params": {"output_length": 256}},
        ]},
        # the JSON number 1e400 parses to inf, as does this literal
        "{config:noise_sigma}": {"synthetic": {**SMALL_SYNTHETIC, "noise_sigma": 1e400}},
        # finite, but the row norm overflows and every feature would be 0
        "{config:noise_sigma_big}": {"synthetic": {**SMALL_SYNTHETIC, "noise_sigma": 1e308}},
        "{config:dimension}": {"synthetic": {**SMALL_SYNTHETIC, "dimension": 10**10}},
        "{config:subjects_big}": {"synthetic": {**SMALL_SYNTHETIC, "subjects": 10**6}},
        "{config:samples_per_subject}": {
            "synthetic": {**SMALL_SYNTHETIC, "samples_per_subject": 10**6}
        },
        "{config:features_big}": {"synthetic": {
            **SMALL_SYNTHETIC, "subjects": 10_000, "samples_per_subject": 100, "dimension": 2048
        }},
        "{config:unlinkability_bins}": {"unlinkability_bins": 10**10},
        "{config:mi_components}": {"mi_components": 0},
        "{config:synthetic_typo}": {"synthetic": {**SMALL_SYNTHETIC, "dimenson": 16}},
        "{config:master_seed_inherited}": {
            "master_seed": -1,
            "synthetic": {k: v for k, v in SMALL_SYNTHETIC.items() if k != "seed"},
        },
        **{
            f"{{config:{name}}}": {"params": {name: 10**9}}
            for name in ("iom_k", "iom_p", "mlp_layers", "bloom_block_cols")
        },
    }
    argv = [str(small_config(tmp_path, **configs[a])) if a in configs else a for a in argv]
    assert _run(argv) == code
    err = capsys.readouterr().err
    assert culprit in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


SEEDS = st.one_of(
    st.sampled_from([-1, 0, 2**64 - 1, 2**64]),
    st.floats(),
    st.booleans(),
    st.integers(0, 2**64 - 1).map(np.uint64),
)


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS)
@example(seed=1.5)
@example(seed=True)
def test_seed_accepted_exactly_when_a_64_bit_integer(seed):
    valid = type(seed) in (int, np.uint64) and 0 <= seed <= 2**64 - 1
    synthetic = SynthConfig(**SMALL_SYNTHETIC)
    builds = [
        ("master_seed", lambda: KeyPolicy(seed, Scenario.NORMAL, SchemeId.BIOHASH)),
        ("seed", lambda: SchemeKey(seed, SchemeId.BIOHASH)),
        ("origin_seed", lambda: derive_stream(seed, b"x")),
        ("seed", lambda: SynthConfig(**{**SMALL_SYNTHETIC, "seed": seed})),
        ("master_seed", lambda: BenchmarkConfig(
            [SchemeSpec(SchemeId.BIOHASH)], ["normal"], master_seed=seed, synthetic=synthetic
        )),
    ]
    for name, build in builds:
        if valid:
            build()
        else:
            with pytest.raises(InvalidArgumentError, match=f"^{name} "):
                build()

    with tempfile.TemporaryDirectory() as tmp:
        csv, out = str(Path(tmp) / "t.csv"), str(Path(tmp) / "out")
        synth = ["synth", "--subjects", "3", "--samples", "2", "--dim", "4", "--sigma", "0.3"]
        assert main(synth + ["--out", csv]) == 0
        config = small_config(Path(tmp), schemes=["biohash"], scenarios=["normal"])
        for flag, argv in [
            ("--master-seed", ["eval-perf", "--templates", csv, "--scheme", "biohash",
                               "--length", "8", "--out-dir", out]),
            ("--seed", synth + ["--out", csv]),
            ("--seed", ["bench", "--config", str(config)]),
        ]:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = _run(argv + [flag, str(seed)])
            assert code == (0 if valid else 2), err.getvalue()
            assert valid or flag in err.getvalue()
            assert "Traceback" not in err.getvalue()


# text, numbers, None, a JSON object, either enum and a valid value of each dataclass field
TYPED_VALUES = st.one_of(
    st.text(max_size=3), st.integers(), st.none(), st.floats(),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    st.sampled_from([*Scenario, *SchemeId, SchemeParams(), SynthConfig(**SMALL_SYNTHETIC)]),
)


@settings(max_examples=60, deadline=None)
@given(value=TYPED_VALUES)
@example(value="biohash")
@example(value="0.3")
@example(value={})
@example(value=None)
@example(value=1)
def test_typed_field_accepted_exactly_when_of_its_annotated_type(value):
    synthetic = SynthConfig(**SMALL_SYNTHETIC)
    specs = [SchemeSpec(SchemeId.BIOHASH)]
    is_real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    # (field, build, whether the field's annotation admits value); the other
    # input source is set so that a valid value leaves exactly one
    builds = [
        ("scenario", lambda: KeyPolicy(1, value, SchemeId.BIOHASH), isinstance(value, Scenario)),
        ("scheme_id", lambda: KeyPolicy(1, Scenario.NORMAL, value), isinstance(value, SchemeId)),
        ("params", lambda: KeyPolicy(1, Scenario.NORMAL, SchemeId.BIOHASH, value),
         isinstance(value, SchemeParams)),
        ("scheme_id", lambda: SchemeKey(1, value), isinstance(value, SchemeId)),
        ("params", lambda: SchemeKey(1, SchemeId.BIOHASH, value), isinstance(value, SchemeParams)),
        ("scheme_id", lambda: SchemeSpec(value), isinstance(value, SchemeId)),
        ("params", lambda: SchemeSpec(SchemeId.BIOHASH, value), isinstance(value, SchemeParams)),
        ("synthetic", lambda: BenchmarkConfig(
            specs, ["normal"], synthetic=value,
            templates=None if isinstance(value, SynthConfig) else "t.csv",
        ), value is None or isinstance(value, SynthConfig)),
        ("templates", lambda: BenchmarkConfig(
            specs, ["normal"], synthetic=None if isinstance(value, str) else synthetic,
            templates=value,
        ), value is None or isinstance(value, str)),
        ("output_dir", lambda: BenchmarkConfig(
            specs, ["normal"], synthetic=synthetic, output_dir=value
        ), isinstance(value, str)),
        ("noise_sigma", lambda: SynthConfig(**{**SMALL_SYNTHETIC, "noise_sigma": value}),
         is_real and 0 < value <= 1e6),
    ]
    for name, build, valid in builds:
        if valid:
            build()
        else:
            with pytest.raises(InvalidArgumentError, match=f"^{name} "):
                build()


def _value_flags(command: str) -> list[str]:
    """Every flag of the subcommand that takes a value."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [a.option_strings[-1] for a in sub.choices[command]._actions
            if a.option_strings and a.nargs != 0]


# each subcommand's argv on the tiny CSV t.csv and config bench.json, run from their folder
BASE_ARGV = {
    "synth": ["synth", "--subjects", "3", "--samples", "2", "--dim", "4", "--sigma", "0.3",
              "--out", "s.csv"],
    "protect": ["protect", "--templates", "t.csv", "--scheme", "biohash", "--out", "p.csv"],
    **{command: [command, "--templates", "t.csv", "--scheme", "biohash", "--out-dir", "out"]
       for command in ("eval-perf", "eval-unlink", "eval-irrev")},
    "bench": ["bench", "--config", "bench.json"],
}
FLAG_CHOICES = [(command, flag) for command in BASE_ARGV for flag in _value_flags(command)]


@settings(max_examples=80, deadline=None)
@given(
    choice=st.sampled_from(FLAG_CHOICES),
    value=st.one_of(
        st.integers().map(str),
        st.floats().map(repr),
        st.sampled_from(["nan", "inf", "-inf", "1e400", "", "normal", "stolen", "iom-grp"]),
        # what an OS argv can hold: no NUL, surrogates only as undecodable bytes
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                max_size=6),
    ),
)
@example(choice=("synth", "--sigma"), value="nan")
@example(choice=("synth", "--sigma"), value="1e400")
@example(choice=("synth", "--dim"), value="2.5")
def test_fuzzed_flag_exits_cleanly(choice, value):
    command, flag = choice
    argv = list(BASE_ARGV[command])
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a fuzzed path lands in tmp
        try:
            synth = ["synth", "--subjects", "3", "--samples", "2", "--dim", "4", "--sigma", "0.3"]
            assert main(synth + ["--out", "t.csv"]) == 0
            small_config(Path(tmp), schemes=["biohash"], scenarios=["normal"])
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = _run(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert code != 2 or flag in err.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(text=template_csvs())
def test_eval_perf_on_fuzzed_csv_exits_cleanly(text):
    # any exception escaping main() would be a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = _run(["eval-perf", "--templates", str(path), "--scheme", "biohash",
                         "--length", "8", "--out-dir", str(Path(tmp) / "out")])
        assert code in (0, 1)
        assert (code == 1) == err.getvalue().startswith("error: eval-perf: ")



# the keys of each mutable section of the small config: the top level (None),
# "params" and "synthetic"; and every key a section may hold
_SMALL = small_config_data(Path("."))
_KEYS = {None: set(_SMALL), "params": set(_SMALL["params"]), "synthetic": set(SMALL_SYNTHETIC)}
_VALID_KEYS = {
    None: _KEYS[None] | {"templates"},
    "params": {f.name for f in fields(SchemeParams)},
    "synthetic": set(SMALL_SYNTHETIC),
}


@st.composite
def config_mutations(draw):
    """``(section, key, value, invalid)``: a value for ``key`` of the small
    config's ``section`` of a wrong JSON type, nested one level deeper (always
    ``invalid``), negative or huge; or an unknown ``key`` in that section
    (always ``invalid``)."""
    section = draw(st.sampled_from([None, "params", "synthetic"]))
    kind = draw(st.sampled_from(["type", "nesting", "number", "unknown"]))
    if kind == "unknown":
        key = draw(st.from_regex(r"[a-z_]{1,12}", fullmatch=True)
                   .filter(lambda k: k not in _VALID_KEYS[section]))
        return section, key, draw(st.integers()), True
    key = draw(st.sampled_from(sorted(_KEYS[section])))
    if kind == "type":
        value = draw(st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
            st.lists(st.integers(), max_size=2),
            st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
        ))
    elif kind == "nesting":
        old = (_SMALL[section] if section else _SMALL)[key]
        value = draw(st.sampled_from([[old], {"value": old}]))
    else:
        value = draw(st.one_of(
            st.integers(max_value=-1), st.integers(min_value=2**31),
            st.floats(max_value=-1e-300), st.sampled_from([2**64, 10**400, 1e308, -1e308]),
        ))
    return section, key, value, kind == "nesting"


@settings(max_examples=300, deadline=None)
@given(mutation=config_mutations())
# an integer past float range once escaped the finiteness check as OverflowError
@example(mutation=("synthetic", "noise_sigma", 10**400, False))
def test_load_config_names_the_mutated_key(mutation):
    section, key, value, invalid = mutation
    with tempfile.TemporaryDirectory() as tmp:
        data = copy.deepcopy(small_config_data(Path(tmp)))
        (data[section] if section else data)[key] = value
        path = Path(tmp) / "bench.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        try:
            load_config(path)
        except CbBenchError as exc:
            # the path may hold any word, so it cannot be what names the key
            assert key in str(exc).replace(str(path), "")
        else:
            assert not invalid, f"{key}={value!r} in {section or 'the top level'} was accepted"


# a config holds the fields of BenchmarkConfig and the default scheme "params"
@pytest.mark.parametrize("key", sorted({f.name for f in fields(BenchmarkConfig)} | {"params"}))
def test_bench_names_the_config_key_of_a_wrong_type(tmp_path, capsys, key):
    # true is of no key's type; a "templates" config drops "synthetic", its other source
    data = small_config_data(tmp_path, **{key: True})
    if key == "templates":
        del data["synthetic"]
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["bench", "--config", str(path)]) == 1
    assert f"{path}: {key} must be" in capsys.readouterr().err


# a value of each BenchmarkConfig field other than its default: as JSON, as loaded
_FIELD_VALUES = {
    "schemes": ([{"name": "iom-urp", "params": {"iom_k": 4}}],
                [SchemeSpec(SchemeId.IOM_URP, SchemeParams(iom_k=4))]),
    "scenarios": (["stolen", "normal"], ["stolen", "normal"]),
    "master_seed": (7, 7),
    "unlinkability_bins": (20, 20),
    "mi_components": (3, 3),
    "synthetic": ({**SMALL_SYNTHETIC, "subjects": 5},
                  SynthConfig(**{**SMALL_SYNTHETIC, "subjects": 5})),
    "templates": ("t.csv", "t.csv"),
    "output_dir": ("res", "res"),
}


@pytest.mark.parametrize("name", [f.name for f in fields(BenchmarkConfig)])
def test_config_file_sets_each_field(tmp_path, name):
    # a field the loader dropped or renamed would load as its default, or not at all
    text, value = _FIELD_VALUES[name]
    data = {"schemes": ["biohash"], "scenarios": ["normal"], "synthetic": SMALL_SYNTHETIC,
            name: text}
    if name == "templates":
        del data["synthetic"]
    default = BenchmarkConfig(schemes=[SchemeSpec(SchemeId.BIOHASH)], scenarios=["normal"],
                              synthetic=SynthConfig(**SMALL_SYNTHETIC))
    assert getattr(default, name) != value
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert getattr(load_config(path), name) == value
