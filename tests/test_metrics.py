import math

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbbench.core import Scenario, SchemeId, SchemeParams
from cbbench.errors import InvalidArgumentError
from cbbench.metrics import (
    compute_det,
    eer,
    fnmr_at_fmr,
    mutual_information,
    protected_matrix,
    unlinkability,
)
from cbbench.numerics import derive_stream
from cbbench.protocol import KeyPolicy, ScoreSet
from cbbench.synthdata import SynthConfig, generate

from conftest import make_dataset, oracle_eer, oracle_fnmr_at_fmr, oracle_threshold_sweep


def score_set(mated, nonmated, scenario=Scenario.NORMAL):
    return ScoreSet(
        mated=np.asarray(mated, dtype=float),
        nonmated=np.asarray(nonmated, dtype=float),
        scenario=scenario,
    )


class TestComputeDet:
    def test_separable_has_perfect_operating_point(self):
        curve = compute_det(score_set([0.9, 0.8], [0.1, 0.2]))
        assert np.any((curve.fmr == 0.0) & (curve.fnmr == 0.0))

    def test_identical_degenerate_distributions(self):
        curve = compute_det(score_set([0.5] * 10, [0.5] * 10))
        assert eer(curve) == 0.5

    def test_identical_continuous_distributions_near_half(self):
        values = derive_stream(3, b"det").uniforms(400)
        assert abs(eer(compute_det(score_set(values, values))) - 0.5) <= 1.0 / 400

    def test_three_vs_three_matches_oracle_curve(self):
        mated = np.array([0.9, 0.6, 0.4])
        nonmated = np.array([0.5, 0.3, 0.1])
        curve = compute_det(score_set(mated, nonmated))
        thresholds, fmr, fnmr = oracle_threshold_sweep(np.sort(mated), np.sort(nonmated))
        assert np.array_equal(curve.thresholds, thresholds)
        assert np.array_equal(curve.fmr, fmr)
        assert np.array_equal(curve.fnmr, fnmr)
        assert eer(curve) == oracle_eer(mated, nonmated)
        assert fnmr_at_fmr(curve, 0.01) == oracle_fnmr_at_fmr(mated, nonmated, 0.01)

    def test_monotonicity(self, rng):
        for _ in range(20):
            m = rng.random(rng.integers(1, 50))
            nm = rng.random(rng.integers(1, 50))
            curve = compute_det(score_set(m, nm))
            assert np.all(np.diff(curve.fmr) <= 0)
            assert np.all(np.diff(curve.fnmr) >= 0)
            assert curve.fmr.min() >= 0 and curve.fmr.max() <= 1
            assert curve.fnmr.min() >= 0 and curve.fnmr.max() <= 1

    def test_empty_rejected(self):
        # an empty score list is refused when the ScoreSet is built
        with pytest.raises(InvalidArgumentError, match="^mated "):
            compute_det(score_set([], [0.5]))


class TestEerAndFnmr:
    def test_separable_zero(self):
        curve = compute_det(score_set([0.9, 0.8], [0.1, 0.2]))
        assert eer(curve) == 0.0
        assert fnmr_at_fmr(curve, 0.01) == 0.0
        assert fnmr_at_fmr(curve, 0.001) == 0.0

    def test_oracle_equivalence_random_sets(self, rng):
        for _ in range(20):
            n_m = int(rng.integers(5, 500))
            n_nm = int(rng.integers(5, 500))
            # mix of continuous and heavily tied discrete scores
            if rng.random() < 0.5:
                m = rng.random(n_m)
                nm = rng.random(n_nm) * 0.8
            else:
                m = rng.integers(0, 10, n_m) / 10.0
                nm = rng.integers(0, 10, n_nm) / 10.0
            curve = compute_det(score_set(m, nm))
            assert eer(curve) == oracle_eer(m, nm)
            for target in (0.01, 0.001, 0.25):
                assert fnmr_at_fmr(curve, target) == oracle_fnmr_at_fmr(m, nm, target)

    def test_eer_chance_bound_for_identical_multisets(self, rng):
        # when both sides carry the same score multiset the curve crossing is
        # pinned at chance level within one step; for merely same-distribution
        # draws (or anti-separated comparators) eer can exceed 0.5 legitimately
        for _ in range(10):
            values = rng.random(int(rng.integers(10, 100)))
            value = eer(compute_det(score_set(values, values)))
            assert 0.5 - 1.0 / values.size <= value <= 0.5 + 1.0 / values.size

    def test_eer_always_within_unit_interval(self, rng):
        for _ in range(10):
            m = rng.random(30)
            nm = rng.random(40)
            assert 0.0 <= eer(compute_det(score_set(m, nm))) <= 1.0

    def test_identical_multisets_quantile_behavior(self, rng):
        values = rng.random(200)
        curve = compute_det(score_set(values, values))
        for target in (0.01, 0.1, 0.5):
            assert fnmr_at_fmr(curve, target) == oracle_fnmr_at_fmr(values, values, target)

    def test_target_domain(self):
        curve = compute_det(score_set([0.9], [0.1]))
        with pytest.raises(InvalidArgumentError):
            fnmr_at_fmr(curve, 0.0)
        with pytest.raises(InvalidArgumentError):
            fnmr_at_fmr(curve, 1.0)


class TestUnlinkability:
    def test_identical_score_lists(self):
        values = list(derive_stream(4, b"ul").uniforms(500))
        report = unlinkability(score_set(values, values, Scenario.SAMPLE_SPECIFIC), 100)
        assert report.d_sys == 0.0

    def test_disjoint_supports(self):
        report = unlinkability(
            score_set([1.0] * 50, [0.0] * 50, Scenario.SAMPLE_SPECIFIC), 100
        )
        assert report.d_sys == 1.0

    def test_discrete_hand_example(self):
        report = unlinkability(
            score_set([0.8, 0.8, 0.8, 0.4], [0.8, 0.4, 0.4, 0.4], Scenario.SAMPLE_SPECIFIC),
            10,
        )
        # high bin: pm=3/4, pnm=1/4 -> local 0.5 on 3/4 of the mated mass
        assert report.d_sys == 0.375

    def test_top_score_alone_in_top_bin(self):
        # 10 bins of width 0.1 over [0, 1]; the mated 1.0 alone fills the top
        # bin: local 1 on a third of the mated mass, and 0 in bins 0 and 5
        report = unlinkability(
            score_set([0.0, 0.5, 1.0], [0.0, 0.0, 0.5, 0.5], Scenario.SAMPLE_SPECIFIC), 10
        )
        assert report.d_sys == 1 / 3
        assert np.array_equal(report.local_d, [0.0] * 9 + [1.0])

    def test_bin_centers_are_midpoints(self):
        stream = derive_stream(8, b"ul5")
        mated, nonmated = 0.2 + 0.7 * stream.uniforms(50), 0.1 + 0.6 * stream.uniforms(60)
        report = unlinkability(score_set(mated, nonmated, Scenario.SAMPLE_SPECIFIC), 12)
        lo, hi = min(mated.min(), nonmated.min()), max(mated.max(), nonmated.max())
        width = (hi - lo) / 12
        assert np.allclose(report.bin_centers, lo + width * (np.arange(12) + 0.5), rtol=0,
                           atol=1e-12)
        assert lo < report.bin_centers.min() and report.bin_centers.max() < hi

    def test_default_bins_are_100(self):
        stream = derive_stream(9, b"ul6")
        scores = score_set(stream.uniforms(40), stream.uniforms(40) ** 2,
                           Scenario.SAMPLE_SPECIFIC)
        default = unlinkability(scores)
        assert default.bin_count == 100 and default.bin_centers.size == 100
        explicit = unlinkability(scores, 100)
        assert default.d_sys == explicit.d_sys
        assert np.array_equal(default.local_d, explicit.local_d)

    def test_affine_invariance_exact(self):
        stream = derive_stream(5, b"ul2")
        mated = 0.3 + 0.4 * stream.uniforms(400)
        nonmated = 0.2 + 0.4 * stream.uniforms(300)
        base = unlinkability(score_set(mated, nonmated, Scenario.SAMPLE_SPECIFIC), 60)
        scaled = unlinkability(
            score_set(0.1 + 0.5 * mated, 0.1 + 0.5 * nonmated, Scenario.SAMPLE_SPECIFIC), 60
        )
        assert scaled.d_sys == base.d_sys

    def test_range_and_local_clipping(self):
        stream = derive_stream(6, b"ul3")
        report = unlinkability(
            score_set(stream.uniforms(300), stream.uniforms(300) ** 2, Scenario.SAMPLE_SPECIFIC),
            30,
        )
        assert 0.0 <= report.d_sys <= 1.0
        assert report.local_d.min() >= 0.0 and report.local_d.max() <= 1.0

    def test_monotone_transform_near_invariant(self):
        # rank-based character: a strictly increasing transform only moves
        # scores across recomputed bin edges by discretization error
        stream = derive_stream(7, b"ul4")
        mated = 0.4 + 0.5 * stream.uniforms(3000)
        nonmated = 0.1 + 0.5 * stream.uniforms(3000)
        base = unlinkability(score_set(mated, nonmated, Scenario.SAMPLE_SPECIFIC), 40)
        warped = unlinkability(
            score_set(mated**2, nonmated**2, Scenario.SAMPLE_SPECIFIC), 40
        )
        assert abs(warped.d_sys - base.d_sys) < 0.05

    def test_degenerate_range_flagged(self):
        report = unlinkability(
            score_set([0.5] * 20, [0.5] * 20, Scenario.SAMPLE_SPECIFIC), 100
        )
        assert report.d_sys == 0.0 and report.degenerate_range

    def test_wrong_scenario_refused(self):
        with pytest.raises(InvalidArgumentError, match="sample-specific"):
            unlinkability(score_set([0.5], [0.4], Scenario.STOLEN_TOKEN), 100)

    def test_bin_floor(self):
        with pytest.raises(InvalidArgumentError):
            unlinkability(score_set([0.5], [0.4], Scenario.SAMPLE_SPECIFIC), 9)

    @pytest.mark.parametrize("bins", [12.5, True, 9, 10**12])
    def test_bins_checked_against_declaration(self, bins):
        # refused before any histogram is allocated, naming the argument
        with pytest.raises(InvalidArgumentError, match="^bins "):
            unlinkability(score_set([0.5], [0.4], Scenario.SAMPLE_SPECIFIC), bins)


def gaussian_pair(rho: float, n: int, seed: int = 8):
    stream = derive_stream(seed, b"mi-pair")
    x = stream.normals(n)
    noise = stream.normals(n)
    y = rho * x + math.sqrt(1.0 - rho * rho) * noise
    return x.reshape(-1, 1), y.reshape(-1, 1)


@functools.cache
def scale_pair():
    """200 rows of 12 Gaussian features and 8 noisy nonlinear functions of them."""
    stream = derive_stream(15, b"mi-scale")
    x = stream.normals(200 * 12).reshape(200, 12)
    y = np.tanh(x @ stream.normals(12 * 8).reshape(12, 8))
    return x, y + 0.3 * stream.normals(200 * 8).reshape(200, 8)


class TestMutualInformation:
    def test_independent_inputs_near_zero(self):
        stream = derive_stream(9, b"mi-indep")
        x = stream.normals(10_000 * 5).reshape(10_000, 5)
        y = stream.normals(10_000 * 5).reshape(10_000, 5)
        report = mutual_information(x, y, 5)
        assert abs(report.mi) <= 0.05
        assert not report.near_deterministic

    def test_identical_inputs_flagged_near_deterministic(self):
        x = derive_stream(10, b"mi-copy").normals(300 * 8).reshape(300, 8)
        report = mutual_information(x, x.copy(), 8)
        assert report.near_deterministic
        assert report.mi > report.h_x / 2

    def test_correlated_gaussian_closed_form(self):
        x, y = gaussian_pair(0.5, 10_000)
        expected = -0.5 * math.log(1.0 - 0.25)
        report = mutual_information(x, y, 5)
        assert report.r_used == 1
        assert abs(report.mi - expected) <= 0.15 * expected

    def test_symmetry(self):
        stream = derive_stream(11, b"mi-sym")
        x = stream.normals(200 * 6).reshape(200, 6)
        y = np.tanh(x @ stream.normals(36).reshape(6, 6)) + 0.1 * stream.normals(200 * 6).reshape(200, 6)
        a = mutual_information(x, y, 6)
        b = mutual_information(y, x, 6)
        assert abs(a.mi - b.mi) < 1e-9

    def test_positive_rescaling_invariant(self):
        # down to 1e-9, where an absolute ridge floor would bind and drop MI
        x, y = gaussian_pair(0.8, 2_000)
        base = mutual_information(x, y, 1).mi
        for c in (1e-9, 1e-6, 1e-4, 1e-3, 7.0, 1e4):
            assert abs(mutual_information(x, c * y, 1).mi - base) < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(ex=st.integers(-1000, 1000), ey=st.integers(-1000, 1000))
    @example(ex=-1000, ey=1000)
    def test_power_of_two_rescaling_invariant(self, ex, ey):
        x, y = scale_pair()
        base = mutual_information(x, y, 6).mi
        scaled = mutual_information(x * 2.0**ex, y * 2.0**ey, 6).mi
        assert abs(scaled - base) <= 1e-9 * base

    def test_nonnegative_and_identity(self):
        stream = derive_stream(12, b"mi-nn")
        for trial in range(5):
            x = stream.normals(50 * 4).reshape(50, 4)
            y = stream.normals(50 * 3).reshape(50, 3)
            report = mutual_information(x, y, 10)
            assert report.mi >= -1e-6
            if report.mi > 0:
                assert abs(report.mi - (report.h_x + report.h_y - report.h_joint)) < 1e-9

    def test_r_used_shrinks(self):
        stream = derive_stream(13, b"mi-shrink")
        x = stream.normals(10 * 5).reshape(10, 5)
        y = stream.normals(10 * 3).reshape(10, 3)
        assert mutual_information(x, y, 100).r_used == 3

    def test_default_r_is_100(self):
        stream = derive_stream(16, b"mi-default")
        x = stream.normals(110 * 104).reshape(110, 104)
        y = stream.normals(110 * 102).reshape(110, 102)
        default = mutual_information(x, y)
        assert default.r_used == 100 and default == mutual_information(x, y, 100)

    def test_too_few_rows_rejected(self):
        with pytest.raises(InvalidArgumentError):
            mutual_information(np.ones((2, 3)), np.ones((2, 3)), 2)

    def test_row_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            mutual_information(np.ones((5, 3)), np.ones((6, 3)), 2)

    @pytest.mark.parametrize("r", [2.5, True, 0, 4097])
    def test_components_checked_against_declaration(self, r):
        x = derive_stream(14, b"mi-r").normals(10 * 4).reshape(10, 4)
        with pytest.raises(InvalidArgumentError, match="^r "):
            mutual_information(x, x, r)


class TestProtectedMatrix:
    def test_bit_scheme_shape_and_range(self):
        ds = generate(SynthConfig(3, 2, 16, 0.3, 7))
        policy = KeyPolicy(1, Scenario.NORMAL, SchemeId.BIOHASH, SchemeParams(output_length=32))
        y = protected_matrix(ds, policy)
        assert y.shape == (6, 32)
        assert set(np.unique(y)) <= {0.0, 1.0}

    def test_iom_entries_in_alphabet(self):
        ds = generate(SynthConfig(3, 2, 16, 0.3, 7))
        policy = KeyPolicy(
            1, Scenario.NORMAL, SchemeId.IOM_GRP, SchemeParams(output_length=32, iom_k=8)
        )
        y = protected_matrix(ds, policy)
        assert y.min() >= 0 and y.max() <= 7

    def test_stolen_identical_features_identical_rows(self):
        base = derive_stream(14, b"pm").normals(16)
        ds = make_dataset({"a": [base, base * 0.5], "b": [base.copy(), -base]})
        policy = KeyPolicy(
            3, Scenario.STOLEN_TOKEN, SchemeId.BIOHASH, SchemeParams(output_length=32)
        )
        y = protected_matrix(ds, policy)
        # rows 0, 1, 2 share sign structure under the single stolen key
        assert np.array_equal(y[0], y[2])
        assert np.array_equal(y[0], y[1])  # positive scaling preserves bits

    def test_bloom_rows_concatenate_blocks(self):
        ds = generate(SynthConfig(3, 2, 16, 0.3, 7))
        policy = KeyPolicy(
            1, Scenario.NORMAL, SchemeId.BLOOM_FILTER,
            SchemeParams(bloom_word_bits=4, bloom_block_cols=4),
        )
        y = protected_matrix(ds, policy)
        assert y.shape == (6, 16)  # one block of 2^4 bits
