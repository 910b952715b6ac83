"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime (the lines bypass output capture, so plain ``pytest`` shows
them). The heavyweight six-scheme battery on the standard synthetic benchmark
is computed once per session (see conftest.standard_battery) and shared by
the trend criteria.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cbbench.cli import main
from cbbench.core import Scenario, SchemeId, SchemeKey, SchemeParams
from cbbench.metrics import compute_det, eer, fnmr_at_fmr, mutual_information, unlinkability
from cbbench.numerics import covariance, derive_stream, pca_fit
from cbbench.protocol import KeyPolicy, ScoreSet
from cbbench.schemes import chance_level, instantiate, protect_batch, similarities
from cbbench.synthdata import SynthConfig, generate

from conftest import (
    STANDARD_BINS,
    STANDARD_MI_COMPONENTS,
    oracle_eer,
    oracle_fnmr_at_fmr,
    read_det_csv,
    scores_of,
)


@pytest.fixture()
def announce(capsys):
    def emit(message: str) -> None:
        with capsys.disabled():
            print(message)

    return emit


@contextmanager
def criterion(number: int, label: str, budget_s: float, announce):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        announce(f"[criterion {number:2d}] FAIL  {label} ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    within_budget = elapsed < budget_s
    verdict = "PASS" if within_budget else "FAIL"
    announce(f"[criterion {number:2d}] {verdict}  {label} ({elapsed:.1f}s)")
    assert within_budget, f"criterion {number} exceeded its {budget_s}s budget"


def score_set(mated, nonmated, scenario=Scenario.SAMPLE_SPECIFIC):
    return ScoreSet(
        mated=np.asarray(mated, dtype=float),
        nonmated=np.asarray(nonmated, dtype=float),
        scheme_id=SchemeId.BIOHASH,
        scenario=scenario,
    )


def test_criterion_01_metric_oracle_equivalence(announce):
    with criterion(1, "eer/fnmr@fmr match the exhaustive threshold sweep", 30.0, announce):
        stream = derive_stream(101, b"acceptance.metric-oracle")
        for i in range(100):
            n_m = 10 + int(stream.words(1)[0] % 9991)
            n_nm = 10 + int(stream.words(1)[0] % 9991)
            if i % 2 == 0:
                mated = stream.uniforms(n_m)
                nonmated = stream.uniforms(n_nm) * 0.9
            else:
                # heavily tied discrete scores exercise the tie-break rules
                mated = np.floor(stream.uniforms(n_m) * 64) / 64
                nonmated = np.floor(stream.uniforms(n_nm) * 64) / 64
            curve = compute_det(score_set(mated, nonmated, Scenario.NORMAL))
            assert eer(curve) == oracle_eer(mated, nonmated)
            for target in (0.01, 0.001):
                assert fnmr_at_fmr(curve, target) == oracle_fnmr_at_fmr(
                    mated, nonmated, target
                )


def test_criterion_02_gaussian_mi_oracle(announce):
    with criterion(2, "MI matches the closed form for correlated Gaussians", 10.0, announce):
        stream = derive_stream(102, b"acceptance.mi-oracle")
        for rho in (0.3, 0.5, 0.8):
            x = stream.normals(10_000)
            noise = stream.normals(10_000)
            y = rho * x + math.sqrt(1.0 - rho * rho) * noise
            expected = -0.5 * math.log(1.0 - rho * rho)
            report = mutual_information(x.reshape(-1, 1), y.reshape(-1, 1), 100)
            assert abs(report.mi - expected) <= 0.15 * expected, (rho, report.mi, expected)


def test_criterion_03_pca_oracle(announce):
    with criterion(3, "explained variances match dense eigendecomposition", 5.0, announce):
        stream = derive_stream(103, b"acceptance.pca-oracle")
        for i in range(50):
            rows = 5 + int(stream.words(1)[0] % 46)  # 5..50
            cols = 2 + int(stream.words(1)[0] % 19)  # 2..20
            x = stream.normals(rows * cols).reshape(rows, cols)
            r = min(rows - 1, cols)
            model = pca_fit(x, r)
            eigvals = np.sort(np.linalg.eigvalsh(covariance(x)))[::-1]
            assert np.abs(model.explained_variance - eigvals[:r]).max() < 1e-8


def test_criterion_04_unlinkability_sanity(announce):
    with criterion(4, "d_sys endpoints and the discrete hand example", 5.0, announce):
        stream = derive_stream(104, b"acceptance.unlink")
        values = stream.uniforms(2000)
        identical = unlinkability(score_set(values, values), 100)
        assert identical.d_sys <= 0.02
        disjoint = unlinkability(
            score_set(0.75 + 0.25 * stream.uniforms(2000), 0.25 * stream.uniforms(2000)),
            100,
        )
        assert disjoint.d_sys >= 0.98
        hand = unlinkability(
            score_set([0.8, 0.8, 0.8, 0.4], [0.8, 0.4, 0.4, 0.4]), 10
        )
        assert hand.d_sys == 0.375


def test_criterion_05_unlinkability_trend(standard_battery, announce):
    with criterion(5, "every scheme near-unlinkable under sample-specific keys", 180.0, announce):
        assert standard_battery["elapsed_s"] < 180.0
        for scheme in SchemeId:
            scores = standard_battery["scores"][(scheme, Scenario.SAMPLE_SPECIFIC)]
            report = unlinkability(scores, STANDARD_BINS)
            assert report.d_sys <= 0.10, (scheme.value, report.d_sys)


def test_criterion_06_irreversibility_trend(standard_battery, announce):
    with criterion(6, "stolen-key MI at least matches normal MI per scheme", 180.0, announce):
        assert standard_battery["elapsed_s"] < 180.0
        for scheme in SchemeId:
            mi_normal = standard_battery["mi"][(scheme, Scenario.NORMAL)].mi
            mi_stolen = standard_battery["mi"][(scheme, Scenario.STOLEN_TOKEN)].mi
            assert mi_stolen >= mi_normal, (scheme.value, mi_normal, mi_stolen)


def test_criterion_07_performance_trend(standard_battery, announce):
    with criterion(7, "stolen EER >= normal EER; key-carrying schemes near-perfect", 180.0, announce):
        assert standard_battery["elapsed_s"] < 180.0
        non_bloom = [s for s in SchemeId if s is not SchemeId.BLOOM_FILTER]
        for scheme in non_bloom:
            eer_normal = eer(
                compute_det(standard_battery["scores"][(scheme, Scenario.NORMAL)])
            )
            eer_stolen = eer(
                compute_det(standard_battery["scores"][(scheme, Scenario.STOLEN_TOKEN)])
            )
            assert eer_stolen + 0.005 >= eer_normal, (scheme.value, eer_normal, eer_stolen)
        for scheme in (SchemeId.BIOHASH, SchemeId.IOM_GRP, SchemeId.RAND_HASH):
            eer_normal = eer(
                compute_det(standard_battery["scores"][(scheme, Scenario.NORMAL)])
            )
            assert eer_normal <= 0.01, (scheme.value, eer_normal)


def test_criterion_08_bloom_degradation(standard_battery, announce):
    with criterion(8, "bloom filters degrade recognition versus biohash", 180.0, announce):
        bloom = eer(
            compute_det(standard_battery["scores"][(SchemeId.BLOOM_FILTER, Scenario.NORMAL)])
        )
        biohash = eer(
            compute_det(standard_battery["scores"][(SchemeId.BIOHASH, Scenario.NORMAL)])
        )
        assert bloom > biohash, (bloom, biohash)


def test_criterion_09_renewability(announce):
    with criterion(9, "cross-key similarity sits at chance level (3 SE)", 60.0, announce):
        d = 32
        params = SchemeParams(output_length=64, iom_k=16, bloom_block_cols=4)
        fixed = derive_stream(99, b"acceptance.renewability").normals(d)[None]
        for scheme in (
            SchemeId.BIOHASH,
            SchemeId.MLP_HASH,
            SchemeId.RAND_HASH,
            SchemeId.IOM_GRP,
            SchemeId.IOM_URP,
        ):
            scores = np.empty(1000)
            for i in range(1000):
                a = protect_batch(fixed, instantiate(SchemeKey(2 * i, scheme, params), d))
                b = protect_batch(fixed, instantiate(SchemeKey(2 * i + 1, scheme, params), d))
                scores[i] = similarities(scheme, params, a, b)[0]
            target = chance_level(scheme, params)
            se = scores.std(ddof=1) / math.sqrt(scores.size)
            assert abs(scores.mean() - target) <= 3.0 * se, (
                scheme.value, scores.mean(), target, se,
            )


def test_criterion_10_determinism_and_invariance(cpus, announce):
    with criterion(10, "replay, positive-scale invariance, symmetry, parallelism", 60.0, announce):
        d = 16
        params = SchemeParams(output_length=32, iom_k=8, bloom_block_cols=4)
        t1 = derive_stream(55, b"acceptance.det1").normals(d)[None]
        t2 = derive_stream(55, b"acceptance.det2").normals(d)[None]
        for scheme in SchemeId:
            inst = instantiate(SchemeKey(7, scheme, params), d)
            inst_replay = instantiate(SchemeKey(7, scheme, params), d)
            p1, p1_replay = protect_batch(t1, inst), protect_batch(t1, inst_replay)
            p2 = protect_batch(t2, inst)
            score = similarities(scheme, params, p1, p2)[0]
            # replay determinism across protect_batch and similarities
            assert np.array_equal(p1, p1_replay)
            assert similarities(scheme, params, p1_replay, p2)[0] == score
            # exact positive-scale invariance
            for c in (0.5, 3.0, 100.0):
                scaled = protect_batch(c * t1, inst)
                assert np.array_equal(p1, scaled), (scheme.value, c)
            # comparator symmetry
            assert similarities(scheme, params, p2, p1)[0] == score

        ds = generate(SynthConfig(6, 3, d, 0.35, 5))
        for scheme in SchemeId:
            policy = KeyPolicy(3, Scenario.NORMAL, scheme, params)
            cpus(1)
            serial = scores_of(ds, policy)
            cpus(4)
            parallel = scores_of(ds, policy)
            assert np.array_equal(serial.mated, parallel.mated)
            assert np.array_equal(serial.nonmated, parallel.nonmated)


def test_criterion_11_end_to_end_bench(tmp_path, announce):
    with criterion(11, "cmd_bench standard config: full report plus DET files", 300.0, announce):
        config_path = tmp_path / "standard.json"
        out_dir = tmp_path / "out"
        config_path.write_text(
            json.dumps(
                {
                    "master_seed": 42,
                    "schemes": [s.value for s in SchemeId],
                    "scenarios": ["normal", "stolen"],
                    "unlinkability_bins": STANDARD_BINS,
                    "mi_components": STANDARD_MI_COMPONENTS,
                    "synthetic": {
                        "subjects": 50,
                        "samples_per_subject": 6,
                        "dimension": 128,
                        "noise_sigma": 0.35,
                        "seed": 42,
                    },
                    "output_dir": str(out_dir),
                }
            ),
            encoding="utf-8",
        )
        assert main(["bench", "--config", str(config_path)]) == 0
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert len(report["cells"]) == 12
        assert sum("mi" in cell for cell in report["cells"]) == 12
        assert len(report["unlinkability"]) == 6
        assert all("d_sys" in row for row in report["unlinkability"])
        for cell in report["cells"]:
            curve = read_det_csv(out_dir / cell["det_csv"])
            assert eer(curve) == cell["eer"], cell
