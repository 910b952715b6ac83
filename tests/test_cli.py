import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from cbbench.cli import main
from cbbench.core import Scenario, SchemeId, SchemeParams
from cbbench.io import read_det_points, read_templates
from cbbench.metrics import eer, protected_matrix
from cbbench.protocol import KeyPolicy

from conftest import oracle_write_rows, template_csvs


SMALL_SYNTHETIC = {
    "subjects": 6,
    "samples_per_subject": 3,
    "dimension": 16,
    "noise_sigma": 0.35,
    "seed": 5,
}


def small_config(tmp_path, **overrides):
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
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
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

    @pytest.mark.parametrize("scheme", ["biohash", "iom-grp", "bloom", "rand-hash"])
    def test_bytes_equal_per_value_repr_rows(self, tmp_path, scheme):
        # 35 x 2 = 70 rows cross the writer's 64-row blocks
        templates = tmp_path / "t.csv"
        assert main(["synth", "--subjects", "35", "--samples", "2", "--dim", "16",
                     "--sigma", "0.3", "--seed", "8", "--out", str(templates)]) == 0
        out = tmp_path / "protected.csv"
        assert main(["protect", "--templates", str(templates), "--scheme", scheme,
                     "--master-seed", "3", "--length", "32", "--out", str(out)]) == 0
        ds = read_templates(templates)
        y = protected_matrix(
            ds, KeyPolicy(3, Scenario.NORMAL, SchemeId.from_name(scheme),
                          SchemeParams(output_length=32))
        )
        ref = tmp_path / "ref.csv"
        oracle_write_rows(ref, ["subject_id", "sample_id"] + [f"p{i}" for i in range(y.shape[1])],
                          y, [(t.subject_id, t.sample_id) for t in ds.templates])
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
        curve = read_det_points(tmp_path / "out" / "det_biohash_normal.csv")
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
            det = read_det_points(tmp_path / "out" / cell["det_csv"])
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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_key_instantiated_once_per_cell(self, tmp_path, monkeypatch, workers):
        # wrap instantiate wherever a cbbench module binds it by name
        import sys
        import threading
        from collections import Counter

        from cbbench import schemes
        from cbbench.cli import run_benchmark
        from cbbench.io import load_config

        original = schemes.instantiate
        calls = Counter()
        pooled = Counter()
        lock = threading.Lock()  # pool threads call it too, and += is not atomic

        def counting(key, d):
            with lock:
                calls[(key.scheme_id, key.seed)] += 1
                pooled[threading.current_thread() is not threading.main_thread()] += 1
            return original(key, d)

        for name, mod in list(sys.modules.items()):
            if name == "cbbench" or name.startswith("cbbench."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counting)
        run_benchmark(load_config(small_config(tmp_path)), tmp_path / "out", workers)
        # per scheme: 6 subject keys (normal), 1 shared key (stolen) and
        # 18 sample keys (sample-specific), each instantiated exactly once
        assert len(calls) == 2 * (6 + 1 + 18)
        assert set(calls.values()) == {1}
        # with 2 workers one pool thread takes every second key after the
        # first: 2 of the 6 subject keys, 8 of the 18 sample keys, not the
        # stolen key
        assert pooled[True] == (0 if workers == 1 else 2 * (2 + 8))

    def test_bench_uses_every_cpu_of_the_affinity_mask(self, tmp_path, monkeypatch):
        from cbbench import cli

        seen = []
        real = cli.run_benchmark

        def recording(config, out_dir, workers=1):
            seen.append(workers)
            return real(config, out_dir, workers)

        monkeypatch.setattr(cli, "run_benchmark", recording)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert main(["bench", "--config", str(small_config(tmp_path))]) == 0
        assert seen == [3]

    def test_outputs_identical_for_any_worker_count(self, tmp_path):
        from cbbench.cli import run_benchmark
        from cbbench.io import load_config

        config = load_config(small_config(tmp_path, schemes=["biohash", "iom-grp", "iom-urp"]))
        reports, files = [], []
        for workers in (1, 2):
            report, written = run_benchmark(config, tmp_path / f"w{workers}", workers)
            report.pop("timestamp")
            reports.append(report)
            files.append({p.name: p.read_bytes() for p in written if p.suffix == ".csv"})
        assert reports[0] == reports[1]
        assert len(files[0]) == 3 * 2 and files[0] == files[1]

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


def test_missing_templates_file_is_runtime_error(tmp_path, capsys):
    rc = main(
        ["eval-perf", "--templates", str(tmp_path / "absent.csv"), "--scheme", "biohash"]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


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


def _run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


EVAL_PERF = ["eval-perf", "--templates", "t.csv", "--scheme", "biohash"]


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
          "--out", "t.csv"], 2, "--dim"),
        (["bench", "--config", "{config:features_big}"], 1, "dimension"),
    ],
    ids=["seed-negative", "seed-2**64", "bench-seed-negative", "config-master-seed-str",
         "config-subjects-str", "config-param-str", "config-scenarios-str",
         "param-length-4", "param-length-3e8", "config-param-3e8", "unlink-scenario-stolen",
         "scheme-unknown", "synth-sigma-inf", "config-sigma-1e400", "synth-dim-1e10",
         "synth-subjects-1e6", "synth-samples-1e6", "config-dimension-1e10",
         "config-subjects-1e6", "config-samples-1e6", "param-iom-k-1e9",
         "param-iom-p-1e9", "param-mlp-layers-1e9", "param-bloom-block-cols-1e9",
         "config-iom-k-1e9", "config-iom-p-1e9", "config-mlp-layers-1e9",
         "config-bloom-block-cols-1e9", "synth-features-2e9", "config-features-2e9"],
)
def test_bad_input_exits_without_traceback(tmp_path, monkeypatch, capsys, argv, code, culprit):
    monkeypatch.chdir(tmp_path)  # relative paths such as t.csv land in tmp_path
    configs = {
        "{config}": {},
        "{config:master_seed}": {"master_seed": "abc"},
        "{config:subjects}": {"synthetic": {**SMALL_SYNTHETIC, "subjects": "3"}},
        "{config:output_length}": {"params": {"output_length": "64"}},
        "{config:output_length_big}": {"params": {"output_length": 300000000}},
        "{config:scenarios}": {"scenarios": "normal"},
        # the JSON number 1e400 parses to inf, as does this literal
        "{config:noise_sigma}": {"synthetic": {**SMALL_SYNTHETIC, "noise_sigma": 1e400}},
        "{config:dimension}": {"synthetic": {**SMALL_SYNTHETIC, "dimension": 10**10}},
        "{config:subjects_big}": {"synthetic": {**SMALL_SYNTHETIC, "subjects": 10**6}},
        "{config:samples_per_subject}": {
            "synthetic": {**SMALL_SYNTHETIC, "samples_per_subject": 10**6}
        },
        "{config:features_big}": {"synthetic": {
            **SMALL_SYNTHETIC, "subjects": 10_000, "samples_per_subject": 100, "dimension": 2048
        }},
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
