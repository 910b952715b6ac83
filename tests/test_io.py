import csv
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbbench.core import Dataset, SchemeId
from cbbench.errors import InvalidArgumentError, ParseError
from cbbench.io import (
    BenchmarkConfig,
    SchemeSpec,
    _write_rows,
    load_config,
    read_templates,
    standard_benchmark_config,
    write_det_points,
    write_report,
    write_templates,
)
from cbbench.metrics import compute_det, eer
from cbbench.protocol import ScoreSet
from cbbench.synthdata import SynthConfig, generate

from conftest import (
    ODD_IDS,
    make_dataset,
    oracle_read_templates,
    oracle_write_rows,
    read_det_csv,
    template_csvs,
)


def read_outcome(read, path):
    """What a template reader makes of a file: ids, dimension and feature
    bytes (so values compare bit for bit), or its ParseError message."""
    try:
        ds = read(path)
    except ParseError as exc:
        return f"ParseError: {exc}"
    rows = zip(ds.subject_ids, ds.sample_ids, ds.features)
    return ds.dimension, [(subject, sample, x.tobytes()) for subject, sample, x in rows]


class TestTemplateRoundTrip:
    def test_small_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "subject_id,sample_id,f0,f1,f2\n"
            "a,0,1.0,2.0,3.0\n"
            "a,1,1.5,2.5,3.5\n"
            "b,0,-1.0,0.25,0.125\n"
            "b,1,0.0,1e-3,4.0\n",
            encoding="utf-8",
        )
        ds = read_templates(path)
        assert len(ds) == 4 and ds.dimension == 3
        assert ds.subject_ids[2] == "b"
        assert np.array_equal(ds.features[2], [-1.0, 0.25, 0.125])

    def test_round_trip_lossless(self, tmp_path):
        ds = generate(SynthConfig(4, 3, 16, 0.37, 19))
        path = tmp_path / "rt.csv"
        write_templates(ds, path)
        back = read_templates(path)
        assert back.dimension == ds.dimension
        assert (back.subject_ids, back.sample_ids) == (ds.subject_ids, ds.sample_ids)
        assert np.array_equal(back.features, ds.features)

    def test_row_width_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "subject_id,sample_id,f0,f1\na,0,1.0,2.0\na,1,1.0\nb,0,1.0,2.0\nb,1,2.0,1.0\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match=r"bad\.csv:3"):
            read_templates(path)

    def test_bad_float_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "subject_id,sample_id,f0,f1\na,0,1.0,2.0\na,1,oops,2.0\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match=r"bad\.csv:3"):
            read_templates(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "subject_id,sample_id,f0,f1\na,0,1.0,2.0\na,1,nan,2.0\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match=r"bad\.csv:3"):
            read_templates(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject,sample,f0,f1\na,0,1.0,2.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"bad\.csv:1"):
            read_templates(path)

    @pytest.mark.parametrize("names, last", [("f0,f2", "f1"), ("f0,f1,x", "f2")])
    def test_misnamed_feature_columns_message(self, tmp_path, names, last):
        path = tmp_path / "bad.csv"
        path.write_text(f"subject_id,sample_id,{names}\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            read_templates(path)
        assert str(info.value) == f"{path}:1: feature columns must be named f0..{last}"

    def test_dataset_invariants_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "subject_id,sample_id,f0,f1\na,0,1.0,2.0\na,1,2.0,1.0\nb,0,3.0,1.0\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="subject b"):
            read_templates(path)


class TestTemplateReaderAgainstCsvLoop:
    @settings(max_examples=200, deadline=None)
    @given(text=template_csvs())
    def test_equals_csv_loop(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_bytes(text.encode("utf-8"))
            assert read_outcome(read_templates, path) == read_outcome(oracle_read_templates, path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("a,0,1.0,2.0\na,1,1_0,2.0\nb,0,1,2\nb,1,2,1\n", None),  # float() reads 1_0
            ("a,0,1.0,2.0\r\na,1,3,2.0\r\n\r\nb,0,1,2\r\nb,1,2,1\r\n", None),
            ('"a,x",0,1.0,2.0\n"a,x",1,3,2.0\nb,0,1,2\nb,1,2,1\n', None),
            ("a,0,1.0,2.0\na,1,\x1c3,2.0\n", "t.csv:3: could not convert"),
            ("a,0,1.0,2.0\na,1,1e400,2.0\n", "t.csv:3: non-finite"),
            ("a,0,1.0,2.0\n\n\na,1,2.0\n", "t.csv:5: expected 4 fields, got 3"),
        ],
        ids=["underscore", "crlf-blank", "quoted-comma", "unit-separator", "overflow",
             "blank-lines-count"],
    )
    def test_fallback_inputs(self, tmp_path, body, message):
        path = tmp_path / "t.csv"
        path.write_bytes(("subject_id,sample_id,f0,f1\n" + body).encode("utf-8"))
        outcome = read_outcome(read_templates, path)
        assert outcome == read_outcome(oracle_read_templates, path)
        if message is None:
            assert not isinstance(outcome, str)
        else:
            assert message in outcome

    @pytest.mark.parametrize(
        "read, text",
        [(read_templates, b"subject_id,sample_id,f0,f1\na,0,1.0,2.0\na,1,\xff1.0,2.0\n"),
         # records, not physical lines: the quoted line breaks of rows 2 and 3
         (read_templates, b'subject_id,sample_id,f0,f1\n"a\nb",0,1.0,2.0\n"a\r\nb",1,\xff1.0,2.0\n')],
        ids=["templates", "quoted-line-breaks"],
    )
    def test_not_utf8_names_first_bad_line(self, tmp_path, read, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text + b"b,\xfe,3.0,4.0\n")  # the first of two bad lines is named
        with pytest.raises(ParseError, match=r"^\S*t\.csv:3: not UTF-8: 'utf-8' codec can't "):
            read(path)

    def test_not_utf8_after_over_long_field_names_no_line(self, tmp_path):
        # the bad byte is decoded before the over-long field is parsed, and
        # csv.reader refuses that field again while counting records
        path = tmp_path / "t.csv"
        long_row = "x" * (csv.field_size_limit() + 1) + ",0,1.0,2.0\n"
        path.write_bytes(b"subject_id,sample_id,f0,f1\n" + long_row.encode() + b"a,\xff,1.0,2.0\n")
        with pytest.raises(ParseError, match=r"^\S*t\.csv: not UTF-8: 'utf-8' codec can't "):
            read_templates(path)

    def test_error_past_first_block_names_line(self, tmp_path):
        rows = [f"s{i // 2},{i % 2},{i}.5,1.0" for i in range(100)]
        rows[70] = "s35,0,oops,1.0"
        path = tmp_path / "t.csv"
        path.write_text("subject_id,sample_id,f0,f1\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=r"t\.csv:72: could not convert string to float: 'oops'"):
            read_templates(path)

    @pytest.mark.parametrize("where, line", [("header", 1), ("body", 3)])
    def test_over_long_field_is_parse_error(self, tmp_path, where, line):
        # csv.reader raises csv.Error past its field size limit
        long_field = "x" * (csv.field_size_limit() + 1)
        header, row = "subject_id,sample_id,f0,f1", "b,1,1,2"
        if where == "header":
            header += "," + long_field
        else:
            row = long_field + row[1:]
        path = tmp_path / "t.csv"
        path.write_text(f"{header}\na,0,1,2\n{row}\n")
        with pytest.raises(ParseError, match=rf"t\.csv:{line}: field larger than field limit"):
            read_templates(path)


# values that keep a block off the writer's 256-entry text table
OFF_TABLE = [-0.0, 0.5, 256.0, 5e-324, 1e300, -1.0, 255.5]


@st.composite
def row_matrices(draw):
    """``(values, ids)`` for ``_write_rows``: up to 140 rows, so files cross
    its 64-row blocks, of integers in [0, 255] (255.0 among them), of a few
    repeated values or of distinct wide-exponent reals, then up to three
    values of ``OFF_TABLE``; ids drawn from ``ODD_IDS`` and plain ones, or none."""
    rows, cols = draw(st.integers(1, 140)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["small", "repeats", "distinct"]))
    if kind == "small":
        values = rng.integers(0, 256, size=(rows, cols)).astype(np.float64)
        values[rng.random(values.shape) < 0.1] = 255.0
    elif kind == "repeats":
        pool = np.array([0.0, 1.0, 13.0, 255.0, 0.25, -2.5e-310])
        values = pool[rng.integers(0, pool.size, size=(rows, cols))]
    else:
        values = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-320, 300, (rows, cols))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        values[at] = draw(st.sampled_from(OFF_TABLE))
    if draw(st.booleans()):
        return values, None
    names = ODD_IDS + ["s1", "0"]
    return values, [(names[a], names[b]) for a, b in rng.integers(0, len(names), (rows, 2))]


class TestRowWriter:
    IDS = ["a,b", 'q"t', "x y", "na\u00efve", "line\nbreak", "plain"]

    def dataset(self, values):
        n = values.shape[0]
        subjects = [self.IDS[(i // 2) % len(self.IDS)] + str(i // 2) for i in range(n)]
        return Dataset(values, subjects, [str(i % 2) for i in range(n)])

    @pytest.mark.parametrize("kind", ["repeats", "distinct"])
    def test_templates_bytes_and_round_trip(self, tmp_path, kind):
        # 130 rows cross two 64-row blocks; a few repeated values and random
        # ones, both off the 256-entry table, so each value is formatted
        rng = np.random.default_rng(5)
        if kind == "repeats":
            pool = np.array([0.0, -0.0, 1.0, 5e-324, -2.5e-310, 2.0**-1074 * 3])
            values = pool[rng.integers(0, pool.size, size=(130, 7))]
        else:
            values = rng.standard_normal((130, 7)) * 10.0 ** rng.integers(-320, 300, (130, 7))
            values[::9, 3] = -0.0
            values[::11, 5] = 5e-324
        ds = self.dataset(values)
        path, ref = tmp_path / "t.csv", tmp_path / "ref.csv"
        write_templates(ds, path)
        oracle_write_rows(
            ref, ["subject_id", "sample_id"] + [f"f{i}" for i in range(7)],
            values, list(zip(ds.subject_ids, ds.sample_ids)),
        )
        assert path.read_bytes() == ref.read_bytes()
        back = read_templates(path)
        assert (back.subject_ids, back.sample_ids) == (ds.subject_ids, ds.sample_ids)
        assert back.features.tobytes() == values.tobytes()

    @pytest.mark.parametrize("name", ODD_IDS)
    def test_odd_id_round_trip(self, tmp_path, name):
        # as a subject and as a sample; a lone carriage return must be quoted,
        # or csv.reader splits the row there
        ds = Dataset(np.arange(8.0).reshape(4, 2), [name, name, "s", "s"], ["0", "1", name, "1"])
        path = tmp_path / "t.csv"
        write_templates(ds, path)
        back = read_templates(path)
        assert (back.subject_ids, back.sample_ids) == (ds.subject_ids, ds.sample_ids)
        assert back.features.tobytes() == ds.features.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(matrix=row_matrices())
    def test_bytes_equal_csv_writer(self, matrix):
        values, ids = matrix
        header = ["subject_id", "sample_id"] + [f"p{i}" for i in range(values.shape[1])]
        with tempfile.TemporaryDirectory() as tmp:
            path, ref = Path(tmp) / "t.csv", Path(tmp) / "ref.csv"
            _write_rows(path, header, values, ids)
            oracle_write_rows(ref, header, values, ids)
            assert path.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("value", OFF_TABLE + [np.nan, np.inf, -np.inf])
    def test_off_table_value_bytes(self, tmp_path, value):
        # one such value in the second block of bits; NaN and inf also check
        # that the block's uint8 cast raises no warning
        values = np.random.default_rng(6).integers(0, 2, size=(130, 5)).astype(np.float64)
        values[100, 3] = value
        path, ref = tmp_path / "t.csv", tmp_path / "ref.csv"
        _write_rows(path, ["a", "b", "c", "d", "e"], values)
        oracle_write_rows(ref, ["a", "b", "c", "d", "e"], values)
        assert path.read_bytes() == ref.read_bytes()

    def test_det_points_bytes(self, tmp_path):
        curve = TestDetPoints().make_curve()
        path, ref = tmp_path / "det.csv", tmp_path / "ref.csv"
        write_det_points(curve, path)
        order = np.argsort(curve.thresholds)
        oracle_write_rows(
            ref, ["threshold", "fmr", "fnmr"],
            zip(curve.thresholds[order], curve.fmr[order], curve.fnmr[order]),
        )
        assert path.read_bytes() == ref.read_bytes()


class TestDetPoints:
    def make_curve(self):
        mated = np.array([0.9, 0.8, 0.62, 0.55])
        nonmated = np.array([0.5, 0.3, 0.21, 0.1])
        return compute_det(ScoreSet(mated, nonmated, None, None))

    def test_separable_contains_perfect_row(self, tmp_path):
        curve = self.make_curve()
        path = tmp_path / "det.csv"
        write_det_points(curve, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "threshold,fmr,fnmr"
        assert any(r.endswith("0.0,0.0") for r in rows[1:])

    def test_monotone_in_file_order(self, tmp_path):
        path = tmp_path / "det.csv"
        write_det_points(self.make_curve(), path)
        back = read_det_csv(path)
        assert np.all(np.diff(back.thresholds) > 0)
        assert np.all(np.diff(back.fmr) <= 0)
        assert np.all(np.diff(back.fnmr) >= 0)

    def test_reread_reproduces_eer_exactly(self, tmp_path):
        curve = self.make_curve()
        path = tmp_path / "det.csv"
        write_det_points(curve, path)
        back = read_det_csv(path)
        assert eer(back) == eer(curve)
        assert np.array_equal(back.thresholds, curve.thresholds)
        assert np.array_equal(back.fmr, curve.fmr)
        assert np.array_equal(back.fnmr, curve.fnmr)


class TestReportWriter:
    def test_values_round_trip(self, tmp_path):
        report = {
            "cells": [{"scheme": "biohash", "scenario": "normal", "eer": 1 / 3}],
            "d_sys": 0.0375,
        }
        path = tmp_path / "report.json"
        write_report(report, path)
        back = json.loads(path.read_text(encoding="utf-8"))
        assert back["cells"][0]["eer"] == 1 / 3
        assert back["d_sys"] == 0.0375

    def test_deterministic_output(self, tmp_path):
        report = {"b": 1, "a": {"y": 2.0, "x": [1, 2, 3]}}
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(report, p1)
        write_report(report, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestBenchmarkConfig:
    def test_load_full_config(self, tmp_path):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "master_seed": 7,
                    "schemes": [
                        "biohash",
                        {"name": "iom-grp", "params": {"iom_k": 4}},
                    ],
                    "scenarios": ["normal", "stolen"],
                    "params": {"output_length": 64},
                    "unlinkability_bins": 40,
                    "mi_components": 10,
                    "synthetic": {
                        "subjects": 5,
                        "samples_per_subject": 3,
                        "dimension": 32,
                        "noise_sigma": 0.4,
                        "seed": 3,
                    },
                    "output_dir": "out",
                }
            ),
            encoding="utf-8",
        )
        cfg = load_config(cfg_path)
        assert cfg.master_seed == 7
        assert [s.scheme_id for s in cfg.schemes] == [SchemeId.BIOHASH, SchemeId.IOM_GRP]
        assert cfg.schemes[0].params.output_length == 64
        assert cfg.schemes[1].params.iom_k == 4
        assert cfg.schemes[1].params.output_length == 64  # inherits base params
        assert cfg.synthetic.subjects == 5
        assert cfg.unlinkability_bins == 40

    def test_unknown_scheme_names_token(self, tmp_path):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "schemes": ["quadhash"],
                    "scenarios": ["normal"],
                    "synthetic": {
                        "subjects": 3, "samples_per_subject": 2,
                        "dimension": 8, "noise_sigma": 0.3,
                    },
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="bench.json: schemes: unknown scheme name 'quadhash'"):
            load_config(cfg_path)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps({"scheems": ["biohash"]}), encoding="utf-8")
        with pytest.raises(ParseError, match="scheems"):
            load_config(cfg_path)

    @pytest.mark.parametrize(
        "content", [b'{"master_seed": ' + b"1" * 5000 + b"}", b'{"output_dir": "\xff"}']
    )
    def test_undecodable_config_is_a_parse_error(self, tmp_path, content):
        # json.load raises plain ValueErrors here: for an integer past Python's
        # 4300-digit conversion limit, and for bytes that are not UTF-8
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_bytes(content)
        with pytest.raises(ParseError):
            load_config(cfg_path)

    def test_needs_exactly_one_input_source(self):
        with pytest.raises(InvalidArgumentError, match="input source"):
            BenchmarkConfig(
                schemes=[SchemeSpec(SchemeId.BIOHASH)], scenarios=["normal"]
            )

    def test_scheme_entries_must_be_scheme_specs(self):
        # a bare name once passed here and failed in run_benchmark, outside any cell
        with pytest.raises(InvalidArgumentError, match="^schemes "):
            BenchmarkConfig(schemes=["biohash"], scenarios=["normal"], templates_path="x.csv")

    def test_sample_specific_not_a_grid_scenario(self):
        with pytest.raises(InvalidArgumentError, match="sample-specific"):
            BenchmarkConfig(
                schemes=[SchemeSpec(SchemeId.BIOHASH)],
                scenarios=["sample-specific"],
                templates_path="x.csv",
            )

    @pytest.mark.parametrize("schemes, scenarios, cell", [
        ([{"name": "biohash", "params": {"output_length": 64}},
          {"name": "biohash", "params": {"output_length": 256}}],
         ["normal", "normal"], "biohash_normal"),
        (["iom-grp", "bloom"], ["stolen", "normal", "stolen"], "iom-grp_stolen"),
    ], ids=["scheme-twice", "scenario-twice"])
    def test_repeated_cell_refused(self, tmp_path, schemes, scenarios, cell):
        # two cells of one (scheme, scenario) once wrote one DET CSV, and the
        # report pointed both at the curve of whichever was written last
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps({
            "schemes": schemes, "scenarios": scenarios,
            "synthetic": {"subjects": 3, "samples_per_subject": 2,
                          "dimension": 8, "noise_sigma": 0.3},
        }), encoding="utf-8")
        message = f"schemes and scenarios repeat the cell {cell}, .* det_{cell}.csv;"
        with pytest.raises(ParseError, match=f"^{re.escape(str(cfg_path))}: {message}"):
            load_config(cfg_path)
        specs = [SchemeSpec(SchemeId(s if isinstance(s, str) else s["name"])) for s in schemes]
        with pytest.raises(InvalidArgumentError, match=f"^{message}"):
            BenchmarkConfig(schemes=specs, scenarios=scenarios, templates_path="x.csv")

    def test_standard_config_shape(self):
        cfg = standard_benchmark_config()
        assert len(cfg.schemes) == 6
        assert cfg.scenarios == ["normal", "stolen"]
        assert cfg.synthetic is not None and cfg.synthetic.subjects == 50
        assert cfg.unlinkability_bins == 50 and cfg.mi_components == 16


def test_write_templates_rejects_nothing_valid(tmp_path):
    # writer/reader pair round-trips hand-built data with exotic ids,
    # including ones that need CSV quoting
    ds = make_dataset(
        {"subject one": [[0.1, 0.2], [0.3, 0.4]], "b,c": [[1.0, 2.0], [3.0, 4.0]]}
    )
    path = tmp_path / "t.csv"
    write_templates(ds, path)
    back = read_templates(path)
    assert back.subject_ids == ["subject one"] * 2 + ["b,c"] * 2
