import re

import numpy as np
import pytest

from cbbench.core import Dataset, Scenario, SchemeId, SchemeParams
from cbbench.errors import InvalidArgumentError
from cbbench.numerics import derive_stream
from cbbench.protocol import (
    KeyPolicy, ScoreSet, derive_key, pair_indices, protected_matrix, run_scenario,
)
from cbbench.synthdata import SynthConfig, generate

from conftest import make_dataset, oracle_pairs, scores_of

PARAMS = SchemeParams(output_length=32, iom_k=8, bloom_block_cols=4)


def row_pairs(ds):
    """(mated, non-mated) lists of the row-index pairs ``pair_indices`` names."""
    return [list(zip(i.tolist(), j.tolist())) for i, j in pair_indices(ds)]


def key_of(p, ds, i):
    """The key row ``i`` of the dataset is protected with under the policy."""
    return derive_key(p, ds.subject_ids[i], ds.sample_ids[i])


def policy(scenario, scheme=SchemeId.BIOHASH, seed=7):
    return KeyPolicy(master_seed=seed, scenario=scenario, scheme_id=scheme, params=PARAMS)


class TestDeriveKey:
    def test_stolen_ignores_identity(self):
        p = policy(Scenario.STOLEN_TOKEN)
        assert derive_key(p, "A", "1") == derive_key(p, "B", "2")

    def test_normal_keys_on_subject_only(self):
        p = policy(Scenario.NORMAL)
        assert derive_key(p, "A", "1") == derive_key(p, "A", "2")
        assert derive_key(p, "A", "1") != derive_key(p, "B", "1")

    def test_sample_specific_keys_on_both(self):
        p = policy(Scenario.SAMPLE_SPECIFIC)
        assert derive_key(p, "A", "1") != derive_key(p, "A", "2")
        assert derive_key(p, "A", "1") == derive_key(p, "A", "1")

    def test_master_seed_separates_runs(self):
        assert derive_key(policy(Scenario.NORMAL, seed=1), "A", "1") != derive_key(
            policy(Scenario.NORMAL, seed=2), "A", "1"
        )

    def test_identity_concatenation_unambiguous(self):
        p = policy(Scenario.SAMPLE_SPECIFIC)
        assert derive_key(p, "ab", "c") != derive_key(p, "a", "bc")

    @pytest.mark.parametrize("subject_id, sample_id, name", [
        ("a\x1fb", "c", "subject_id 'a\\x1fb'"), ("a", "b\x1fc", "sample_id 'b\\x1fc'"),
    ])
    def test_id_holding_the_separator_rejected(self, subject_id, sample_id, name):
        # joined with \x1f, ("a\x1fb", "c") and ("a", "b\x1fc") would share one key
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(name)} holds "):
            derive_key(policy(Scenario.SAMPLE_SPECIFIC), subject_id, sample_id)
        # one part is not joined, so it keys as before
        assert derive_key(policy(Scenario.NORMAL), subject_id, sample_id).seed == derive_key(
            policy(Scenario.NORMAL), subject_id, "").seed

    def test_known_answers(self):
        # BLAKE2b of the 8-byte big-endian seed and the label: no numpy draw
        # is involved, so these hold on every platform and numpy release
        seeds = {Scenario.NORMAL: 0xB13C7A6C2136905B, Scenario.STOLEN_TOKEN: 0x9192C093DAE466C3,
                 Scenario.SAMPLE_SPECIFIC: 0x2221B01B30078F69}
        for scenario, seed in seeds.items():
            assert derive_key(KeyPolicy(42, scenario, SchemeId.BIOHASH), "s00", "0").seed == seed
        state = derive_stream(42, b"biohash.projection")._gen.bit_generator.state
        assert state["state"]["key"].tolist() == [16860324609218488974, 3815471626311388816]

    # a float or bool seed once passed and derived the keys of int(seed)
    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_out_of_range_master_seed_rejected(self, seed):
        with pytest.raises(InvalidArgumentError, match="^master_seed "):
            policy(Scenario.NORMAL, seed=seed)

    def test_scenario_that_is_not_a_scenario_rejected(self):
        # a string scenario once fell through to sample-specific keys
        with pytest.raises(InvalidArgumentError, match="scenario"):
            derive_key(KeyPolicy(1, "normal", SchemeId.BIOHASH), "s", "0")

    def test_stable_derivation_constant(self):
        # locked value: BLAKE2b-64 of the 8-byte big-endian master seed 42 and
        # b"subject-007"; guards against accidental changes to key derivation
        for sample_id in ("", "x"):  # a normal key reads no sample id
            key = derive_key(policy(Scenario.NORMAL, seed=42), "subject-007", sample_id)
            assert key.seed == 0x036648CDBB2D2251


class TestPairGeneration:
    def test_single_subject_six_samples(self):
        ds = make_dataset({"a": [[float(i), 1.0] for i in range(6)], "b": [[9.0, 1.0], [8.0, 1.0]]})
        per_subject = [(i, j) for i, j in row_pairs(ds)[0] if ds.subject_ids[i] == "a"]
        assert len(per_subject) == 15  # C(6, 2)

    def test_subject_with_two_samples(self):
        ds = make_dataset({"a": [[1.0, 0.0], [2.0, 0.0]], "b": [[1.0, 1.0], [2.0, 1.0]]})
        assert len(row_pairs(ds)[0]) == 2  # one per subject

    def test_finger_vein_shape_unordered_count(self):
        # 318 subjects x 6 samples: unordered within-subject combinations
        ds = make_dataset(
            {f"s{i}": [[float(j), float(i)] for j in range(6)] for i in range(318)}
        )
        assert len(row_pairs(ds)[0]) == 318 * 15 == 4770

    def test_nonmated_three_subjects(self):
        ds = make_dataset({s: [[1.0, 0.0], [0.0, 1.0]] for s in "abc"})
        assert len(row_pairs(ds)[1]) == 3

    def test_nonmated_150_subjects(self):
        ds = make_dataset(
            {f"s{i}": [[1.0, float(i)], [2.0, float(i)]] for i in range(150)}
        )
        assert len(row_pairs(ds)[1]) == 150 * 149 // 2 == 11175

    def test_nonmated_two_subjects(self):
        ds = make_dataset({"a": [[1.0, 0.0], [0.0, 1.0]], "b": [[1.0, 1.0], [0.0, 2.0]]})
        assert len(row_pairs(ds)[1]) == 1

    def test_nonmated_uses_first_sample(self):
        ds = make_dataset({"a": [[1.0, 0.0], [5.0, 5.0]], "b": [[0.0, 1.0], [6.0, 6.0]]})
        ((i, j),) = row_pairs(ds)[1]
        assert ds.sample_ids[i] == "0" and ds.sample_ids[j] == "0"

    @pytest.mark.parametrize("order", [
        "abab", "aabbcc", "abcabc", "cbacab", "aaaa", "abcdefgabcdefgcdg", "baab", "abba",
    ])
    def test_pair_indices_equal_itertools_oracle(self, order):
        # subjects interleave, repeat unevenly or come back in reverse order
        counts = {}
        samples = []
        for s in order:
            counts[s] = counts.get(s, 0) + 1
            samples.append(str(counts[s]))
        rows = [[float(i), 1.0] for i in range(len(order))]
        ds = Dataset(rows, list(order), samples)
        (mated_i, mated_j), (nonmated_i, nonmated_j) = pair_indices(ds)
        mated, nonmated = oracle_pairs(ds)
        for arr in (mated_i, mated_j, nonmated_i, nonmated_j):
            assert arr.dtype.kind == "i" and arr.ndim == 1
        assert list(zip(mated_i.tolist(), mated_j.tolist())) == mated
        assert list(zip(nonmated_i.tolist(), nonmated_j.tolist())) == nonmated

    def test_pair_indices_equal_oracle_on_synthetic_data(self):
        ds = generate(SynthConfig(13, 3, 16, 0.3, 6))
        (mated_i, mated_j), (nonmated_i, nonmated_j) = pair_indices(ds)
        mated, nonmated = oracle_pairs(ds)
        assert list(zip(mated_i.tolist(), mated_j.tolist())) == mated
        assert list(zip(nonmated_i.tolist(), nonmated_j.tolist())) == nonmated
        assert len(nonmated) == 78 > 64  # crosses one 64-pair scoring chunk


class TestScoreSet:
    def test_sorted_canonically(self):
        s = ScoreSet(
            mated=np.array([0.9, 0.1, 0.5]),
            nonmated=np.array([0.3, 0.2]),
            scheme_id=SchemeId.BIOHASH,
            scenario=Scenario.NORMAL,
        )
        assert np.array_equal(s.mated, [0.1, 0.5, 0.9])
        assert np.array_equal(s.nonmated, [0.2, 0.3])

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ScoreSet(np.array([1.5]), np.array([0.5]), None, None)


class TestRunScenario:
    def test_tiny_dataset_counts(self):
        ds = generate(SynthConfig(3, 2, 16, 0.3, 5))
        scores = scores_of(ds, policy(Scenario.NORMAL))
        assert scores.mated.size == 3  # 3 subjects x C(2,2)=1
        assert scores.nonmated.size == 3  # C(3,2)
        assert scores.scheme_id is SchemeId.BIOHASH
        assert scores.scenario is Scenario.NORMAL

    def test_stolen_single_instance(self):
        p = policy(Scenario.STOLEN_TOKEN)
        ds = generate(SynthConfig(3, 2, 16, 0.3, 5))
        keys = {key_of(p, ds, i).seed for i in range(len(ds))}
        assert len(keys) == 1

    def test_normal_mated_pair_shares_key(self):
        p = policy(Scenario.NORMAL)
        ds = generate(SynthConfig(3, 2, 16, 0.3, 5))
        for i, j in row_pairs(ds)[0]:
            assert key_of(p, ds, i) == key_of(p, ds, j)

    def test_repeat_runs_bit_identical(self):
        ds = generate(SynthConfig(4, 3, 16, 0.3, 6))
        a = scores_of(ds, policy(Scenario.SAMPLE_SPECIFIC))
        b = scores_of(ds, policy(Scenario.SAMPLE_SPECIFIC))
        assert np.array_equal(a.mated, b.mated)
        assert np.array_equal(a.nonmated, b.nonmated)

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_parallel_equals_serial(self, cpus, scheme):
        ds = generate(SynthConfig(4, 3, 16, 0.3, 6))
        cpus(1)
        serial = scores_of(ds, policy(Scenario.NORMAL, scheme=scheme))
        cpus(4)
        parallel = scores_of(ds, policy(Scenario.NORMAL, scheme=scheme))
        assert np.array_equal(serial.mated, parallel.mated)
        assert np.array_equal(serial.nonmated, parallel.nonmated)

    @pytest.mark.parametrize("scenario", list(Scenario))
    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_caching_never_alters_results(self, scheme, scenario):
        # score every pair without any instance/protection reuse and compare
        # against run_scenario on the one protect pass
        from cbbench.schemes import compare, instantiate, protect

        p = policy(scenario, scheme=scheme)

        def uncached_score(i, j):
            pa = protect(ds.features[i], instantiate(key_of(p, ds, i), ds.dimension))
            pb = protect(ds.features[j], instantiate(key_of(p, ds, j), ds.dimension))
            return compare(p.scheme_id, p.params, pa, pb)

        # the second dataset has 78 non-mated pairs, so scoring crosses a 64-pair chunk
        for cfg in (SynthConfig(4, 3, 16, 0.3, 6), SynthConfig(13, 3, 16, 0.3, 6)):
            ds = generate(cfg)
            m_pairs, nm_pairs = row_pairs(ds)
            mated = np.sort([uncached_score(i, j) for i, j in m_pairs])
            nonmated = np.sort([uncached_score(i, j) for i, j in nm_pairs])
            cached = scores_of(ds, p)
            assert np.array_equal(cached.mated, mated)
            assert np.array_equal(cached.nonmated, nonmated)

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_bloom_many_blocks_matches_per_pair_expression(self, scenario):
        # with >= 8 blocks numpy sums the block mean pairwise, not in
        # sequence; the reference is the per-pair 1-D comparator expression
        from cbbench.schemes import instantiate, protect

        params = SchemeParams(bloom_word_bits=4, bloom_block_cols=16)
        p = KeyPolicy(7, scenario, SchemeId.BLOOM_FILTER, params)
        ds = generate(SynthConfig(4, 3, 640, 0.3, 6))

        def blocks(i):
            inst = instantiate(key_of(p, ds, i), ds.dimension)
            return protect(ds.features[i], inst).reshape(-1, 2**params.bloom_word_bits)

        def reference(i, j):
            ba, bb = blocks(i), blocks(j)
            sym_diff = np.count_nonzero(ba != bb, axis=1).astype(np.float64)
            total = (ba.sum(axis=1) + bb.sum(axis=1)).astype(np.float64)
            dissim = np.divide(sym_diff, total, out=np.zeros_like(sym_diff), where=total > 0)
            return 1.0 - float(dissim.mean())

        assert blocks(0).shape[0] == 10
        scores = scores_of(ds, p)
        m_pairs, nm_pairs = row_pairs(ds)
        assert np.array_equal(scores.mated, np.sort([reference(i, j) for i, j in m_pairs]))
        assert np.array_equal(
            scores.nonmated, np.sort([reference(i, j) for i, j in nm_pairs])
        )


class TestProtectedMatrix:
    # subjects interleave (a, b, a, b), so key groups are not contiguous rows
    INTERLEAVED = [("a", "0"), ("b", "0"), ("a", "1"), ("b", "1"), ("a", "2")]

    def dataset(self):
        feats = derive_stream(3, b"test.interleaved").normals(5 * 16).reshape(5, 16)
        return Dataset(feats, *map(list, zip(*self.INTERLEAVED)))

    @pytest.mark.parametrize("scenario", list(Scenario))
    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_rows_follow_dataset_order(self, cpus, scheme, scenario):
        from cbbench.schemes import instantiate, protect

        ds = self.dataset()
        p = policy(scenario, scheme=scheme)
        expected = np.vstack([
            protect(ds.features[i], instantiate(key_of(p, ds, i), 16)) for i in range(len(ds))
        ])
        for workers in (1, 3):
            cpus(workers)
            assert np.array_equal(protected_matrix(ds, p), expected)

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_stolen_key_crosses_block_boundary(self, cpus, scheme):
        # one key for 2 * 64 + 1 rows: protected in blocks of 64, 64 and 1 rows
        from cbbench.schemes import instantiate, protect

        ds = generate(SynthConfig(43, 3, 16, 0.3, 5))
        assert len(ds) == 2 * 64 + 1
        p = policy(Scenario.STOLEN_TOKEN, scheme=scheme)
        inst = instantiate(derive_key(p, "", ""), 16)
        expected = np.vstack([protect(x, inst) for x in ds.features])
        for workers in (1, 3):
            cpus(workers)
            assert np.array_equal(protected_matrix(ds, p), expected)

    @pytest.mark.parametrize("keys", [1, 2, 3, 5])
    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_striped_keys_equal_serial(self, cpus, scheme, keys):
        # covers fewer keys than workers and stripes of unequal length
        feats = derive_stream(4, b"test.stripes").normals(keys * 3 * 16).reshape(keys * 3, 16)
        # subjects interleave, so no key's rows are contiguous
        n = len(feats)
        ds = Dataset(feats, [f"s{i % keys}" for i in range(n)], [str(i // keys) for i in range(n)])
        p = policy(Scenario.NORMAL, scheme=scheme)
        assert len({derive_key(p, subject) for subject in ds.subject_ids}) == keys
        cpus(1)
        serial = protected_matrix(ds, p)
        for workers in (2, 3):
            cpus(workers)
            assert np.array_equal(protected_matrix(ds, p), serial)

    @pytest.mark.parametrize(
        "scenario, workers",
        [(Scenario.STOLEN_TOKEN, 4), (Scenario.NORMAL, 1), (Scenario.STOLEN_TOKEN, 1)],
    )
    def test_serial_pass_starts_no_thread(self, monkeypatch, cpus, scenario, workers):
        # one worker, or one key whose rows fill one block (21 x 3 = 63 rows),
        # runs on the calling thread alone
        from cbbench import protocol

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        subjects = 43 if workers == 1 else 21
        ds = generate(SynthConfig(subjects, 3, 16, 0.3, 5))
        p = policy(scenario, scheme=SchemeId.IOM_GRP)
        cpus(2)
        expected = protocol.protected_matrix(ds, p)
        monkeypatch.setattr(protocol, "ThreadPoolExecutor", no_pool)
        cpus(workers)
        assert np.array_equal(protocol.protected_matrix(ds, p), expected)

    @pytest.mark.parametrize("workers, pool_threads", [(2, 1), (3, 2), (8, 3)])
    def test_lone_key_deals_its_blocks_to_every_worker(
        self, monkeypatch, cpus, workers, pool_threads
    ):
        # one key for 100 x 3 = 300 rows: four blocks of 64 rows and one of 44;
        # the first sizes the result, the other four go to the calling thread
        # and up to three pool threads
        from cbbench import protocol

        pools = []

        class CountingPool(protocol.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        ds = generate(SynthConfig(100, 3, 16, 0.3, 5))
        p = policy(Scenario.STOLEN_TOKEN, scheme=SchemeId.IOM_GRP)
        cpus(1)
        expected = protocol.protected_matrix(ds, p)
        monkeypatch.setattr(protocol, "ThreadPoolExecutor", CountingPool)
        cpus(workers)
        assert np.array_equal(protocol.protected_matrix(ds, p), expected)
        assert pools == [pool_threads]

    @pytest.mark.parametrize("rows", [2, 64, 65, 129, 1500])
    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_lone_key_equal_for_every_worker_count(self, cpus, scheme, rows):
        # the stolen key's blocks start every 64 rows from its first row, on
        # whichever thread protects them; a lost or misplaced block changes
        # the matrix
        import sys

        from cbbench.schemes import instantiate, protect_batch

        feats = derive_stream(8, b"test.lone-key").normals(rows * 16).reshape(rows, 16)
        # rows // 3 subjects (one for 2 rows), interleaved, of 2 or more samples each
        m = max(1, rows // 3)
        ds = Dataset(feats, [f"s{i % m}" for i in range(rows)], [str(i // m) for i in range(rows)])
        p = policy(Scenario.STOLEN_TOKEN, scheme=scheme)
        inst = instantiate(derive_key(p, "", ""), 16)
        expected = np.vstack([protect_batch(feats[s : s + 64], inst) for s in range(0, rows, 64)])
        interval = sys.getswitchinterval()
        try:
            for switch in (interval, 1e-6):
                sys.setswitchinterval(switch)
                for workers in (1, 2, 3, 8):
                    cpus(workers)
                    assert np.array_equal(protected_matrix(ds, p), expected)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "scenario, calls",
        [(Scenario.NORMAL, 4), (Scenario.STOLEN_TOKEN, 1), (Scenario.SAMPLE_SPECIFIC, 12)],
    )
    def test_each_distinct_key_derived_once(self, monkeypatch, cpus, scenario, calls):
        # 4 subjects x 3 samples: one key per subject, one in all, one per row
        from cbbench import protocol

        seen = []

        def counting(p, subject_id, sample_id=""):
            seen.append((subject_id, sample_id))
            return derive_key(p, subject_id, sample_id)

        ds = generate(SynthConfig(4, 3, 16, 0.3, 6))
        p = policy(scenario)
        expected = protocol.protected_matrix(ds, p)
        monkeypatch.setattr(protocol, "derive_key", counting)
        cpus(2)
        assert np.array_equal(protocol.protected_matrix(ds, p), expected)
        assert len(seen) == calls

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("scenario", [Scenario.NORMAL, Scenario.SAMPLE_SPECIFIC])
    def test_at_most_one_live_instance_per_worker(self, monkeypatch, cpus, scenario, workers):
        # each thread drops a key's instance before it instantiates its next
        # key; wrap instantiate wherever a cbbench module binds it by name
        import sys
        import threading
        import weakref

        from cbbench import protocol, schemes

        original = schemes.instantiate
        lock = threading.Lock()  # pool threads instantiate and finalize too
        alive, most = 0, 0

        def died():
            nonlocal alive
            with lock:
                alive -= 1

        def counting(key, d):
            nonlocal alive, most
            inst = original(key, d)
            with lock:
                alive += 1
                most = max(most, alive)
            weakref.finalize(inst, died)
            return inst

        ds = generate(SynthConfig(8, 3, 16, 0.3, 5))  # 8 subject keys, 24 sample keys
        p = policy(scenario, scheme=SchemeId.IOM_GRP)
        expected = protocol.protected_matrix(ds, p)
        for name, mod in list(sys.modules.items()):
            if name == "cbbench" or name.startswith("cbbench."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counting)
        cpus(workers)
        assert np.array_equal(protocol.protected_matrix(ds, p), expected)
        assert alive == 0
        assert 1 <= most <= workers

    def test_threaded_pass_under_fast_switching(self, cpus):
        # more workers than cores, each protecting its own keys' rows; a lost
        # or misplaced row would change the matrix
        import sys

        ds = generate(SynthConfig(6, 3, 16, 0.3, 2))
        p = policy(Scenario.SAMPLE_SPECIFIC, scheme=SchemeId.IOM_GRP)
        cpus(1)
        expected = protected_matrix(ds, p)
        cpus(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert np.array_equal(protected_matrix(ds, p), expected)
        finally:
            sys.setswitchinterval(interval)

    def test_interleaved_pairs(self):
        ds = self.dataset()
        scores = scores_of(ds, policy(Scenario.NORMAL))
        assert scores.mated.size == 4  # C(3, 2) for a, C(2, 2) for b
        assert scores.nonmated.size == 1

    def test_empty_dataset_rejected(self):
        # refused when built, so protected_matrix and run_scenario never see one
        with pytest.raises(InvalidArgumentError, match="^features of shape \\(0, 4\\) needs"):
            Dataset(np.empty((0, 4)), [], [])

    def test_row_count_mismatch_rejected(self):
        ds = self.dataset()
        with pytest.raises(InvalidArgumentError):
            run_scenario(ds, policy(Scenario.NORMAL), np.zeros((4, 32)))


KEY_SEPARATING = [
    SchemeId.BIOHASH,
    SchemeId.MLP_HASH,
    SchemeId.IOM_GRP,
    SchemeId.IOM_URP,
    SchemeId.RAND_HASH,
]


@pytest.mark.parametrize("scheme", KEY_SEPARATING)
def test_scenario_ordering_trend(standard_battery, scheme):
    """Mated scores share one key under both scenarios, so their means agree
    in expectation; the trend check therefore allows key-sampling noise
    (three standard errors of the difference)."""
    from cbbench.core import Scenario

    normal = standard_battery["scores"][(scheme, Scenario.NORMAL)].mated
    stolen = standard_battery["scores"][(scheme, Scenario.STOLEN_TOKEN)].mated
    se_diff = np.sqrt(
        normal.var(ddof=1) / normal.size + stolen.var(ddof=1) / stolen.size
    )
    assert normal.mean() >= stolen.mean() - 3.0 * se_diff
