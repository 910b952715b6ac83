import math

import numpy as np
import pytest

from cbbench.core import validate_dataset
from cbbench.errors import InvalidArgumentError
from cbbench.metrics import compute_det, eer
from cbbench.numerics import derive_stream
from cbbench.protocol import pair_indices
from cbbench.synthdata import STANDARD_CONFIG, SynthConfig, generate, unprotected_scores

from conftest import make_dataset, oracle_eer


class TestGenerate:
    def test_valid_dataset(self):
        ds = generate(SynthConfig(5, 3, 32, 0.4, 2))
        assert len(ds) == 15 and ds.dimension == 32
        assert validate_dataset(ds) == []

    def test_unit_norm_rows(self):
        ds = generate(SynthConfig(4, 3, 64, 0.5, 3))
        for row in ds.features:
            assert abs(np.linalg.norm(row) - 1.0) < 1e-12

    def test_vanishing_noise_collapses_mated_pairs(self):
        ds = generate(SynthConfig(4, 3, 64, 1e-9, 4))
        for i, j in zip(*pair_indices(ds)[0]):
            assert float(ds.features[i] @ ds.features[j]) >= 1.0 - 1e-6

    def test_determinism(self):
        a = generate(SynthConfig(4, 3, 16, 0.4, 9))
        b = generate(SynthConfig(4, 3, 16, 0.4, 9))
        assert a.subject_ids == b.subject_ids and a.sample_ids == b.sample_ids
        assert np.array_equal(a.features, b.features)

    @pytest.mark.parametrize("cfg", [SynthConfig(4, 3, 16, 0.4, 9), SynthConfig(11, 2, 7, 0.9, 3)])
    def test_equals_per_row_draws(self, cfg):
        # reference: one template at a time, normalized in place, ids zero-padded
        stream = derive_stream(cfg.seed, b"synthdata")
        sigma = cfg.noise_sigma / math.sqrt(cfg.dimension)
        rows, ids = [], []
        for s in range(cfg.subjects):
            mean = stream.normals(cfg.dimension)
            mean /= np.linalg.norm(mean)
            for j in range(cfg.samples_per_subject):
                v = mean + sigma * stream.normals(cfg.dimension)
                v /= np.linalg.norm(v)
                rows.append(v)
                ids.append((f"s{s:0{len(str(cfg.subjects - 1))}d}",
                            f"{j:0{len(str(cfg.samples_per_subject - 1))}d}"))
        ds = generate(cfg)
        assert ds.features.tobytes() == np.array(rows).tobytes()
        assert list(zip(ds.subject_ids, ds.sample_ids)) == ids

    def test_seed_changes_data(self):
        a = generate(SynthConfig(4, 3, 16, 0.4, 9))
        b = generate(SynthConfig(4, 3, 16, 0.4, 10))
        assert not np.array_equal(a.features[0], b.features[0])

    def test_example_config_eer_regression(self):
        # concentration at d=128 leaves the mated/non-mated supports disjoint
        # here, so the sweep oracle pins the baseline EER at exactly zero
        ds = generate(SynthConfig(20, 4, 128, 0.3, 1))
        scores = unprotected_scores(ds)
        oracle = oracle_eer(scores.mated, scores.nonmated)
        assert eer(compute_det(scores)) == oracle == 0.0
        assert oracle < 0.05

    def test_monotone_difficulty(self):
        values = []
        for sigma in (0.2, 0.5, 1.0):
            cfg = SynthConfig(
                STANDARD_CONFIG.subjects,
                STANDARD_CONFIG.samples_per_subject,
                STANDARD_CONFIG.dimension,
                sigma,
                STANDARD_CONFIG.seed,
            )
            values.append(eer(compute_det(unprotected_scores(generate(cfg)))))
        assert values[0] <= values[1] <= values[2]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"subjects": 1},
            {"samples_per_subject": 1},
            {"dimension": 1},
            {"noise_sigma": 0.0},
            {"noise_sigma": -0.1},
            {"subjects": "3"},
            {"subjects": 2.5},
            {"subjects": True},
            {"samples_per_subject": 3.0},
            {"dimension": None},
            {"noise_sigma": "0.4"},
            {"noise_sigma": True},
            {"seed": "1"},
            {"seed": -1},
            {"seed": 2**64},
            {"noise_sigma": 1e308},
            {"noise_sigma": float("nan")},
            {"noise_sigma": float("inf")},
        ],
    )
    def test_config_invariants(self, kwargs):
        base = {"subjects": 4, "samples_per_subject": 3, "dimension": 16,
                "noise_sigma": 0.4, "seed": 1}
        # the message starts with the field name, which the CLI maps to its flag
        with pytest.raises(InvalidArgumentError, match=f"^{next(iter(kwargs))} "):
            SynthConfig(**{**base, **kwargs})

    def test_feature_count_capped(self):
        # each size is within its own cap; their product is bounded at 2**26 values
        SynthConfig(8192, 4, 2048, 0.4, 1)  # exactly 2**26: accepted
        for sizes in [(8192, 5, 2048), (8193, 4, 2048), (10_000, 100, 2048)]:
            with pytest.raises(InvalidArgumentError, match=r"^dimension x .* <= 2\*\*26"):
                SynthConfig(*sizes, 0.4, 1)

    def test_numpy_integers_accepted(self):
        cfg = SynthConfig(np.int64(4), np.int32(3), np.int64(16), np.float64(0.4), 1)
        assert len(generate(cfg)) == 12


class TestUnprotectedScores:
    def test_identical_and_antipodal(self):
        v = np.array([0.6, 0.8, 0.0, 0.0])
        ds = make_dataset({"a": [v, v], "b": [-v, -v]})
        scores = unprotected_scores(ds)
        assert np.array_equal(scores.mated, [1.0, 1.0])
        assert np.array_equal(scores.nonmated, [0.0])

    def test_orthogonal(self):
        u = np.array([1.0, 0.0, 0.0])
        w = np.array([0.0, 1.0, 0.0])
        ds = make_dataset({"a": [u, u], "b": [w, w]})
        assert np.array_equal(unprotected_scores(ds).nonmated, [0.5])

    def test_scores_within_unit_interval(self):
        ds = generate(SynthConfig(5, 3, 16, 0.8, 11))
        scores = unprotected_scores(ds)
        pooled = np.concatenate([scores.mated, scores.nonmated])
        assert pooled.min() >= 0.0 and pooled.max() <= 1.0
