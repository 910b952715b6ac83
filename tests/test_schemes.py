import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbbench.core import SchemeId, SchemeKey, SchemeParams, Template
from cbbench.errors import InvalidArgumentError
from cbbench.numerics import derive_stream
from cbbench.schemes import (
    BioHashInstance,
    BloomInstance,
    IomGrpInstance,
    IomUrpInstance,
    MlpHashInstance,
    RandHashInstance,
    chance_level,
    compare,
    instantiate,
    protect,
    protect_batch,
)

ALL_SCHEMES = list(SchemeId)
SMALL = SchemeParams(output_length=32, iom_k=8, bloom_block_cols=4)


def template(vec) -> Template:
    return Template("s", "0", np.asarray(vec, dtype=float))


def random_template(d: int, seed: int = 5) -> Template:
    return template(derive_stream(seed, b"test-template").normals(d))


class TestInstantiate:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_replay_identical(self, scheme):
        a = instantiate(SchemeKey(11, scheme, SMALL), 16)
        b = instantiate(SchemeKey(11, scheme, SMALL), 16)
        for field in dataclasses.fields(a):
            va, vb = getattr(a, field.name), getattr(b, field.name)
            if isinstance(va, np.ndarray):
                assert np.array_equal(va, vb)
            elif isinstance(va, tuple):
                assert all(np.array_equal(x, y) for x, y in zip(va, vb))
            else:
                assert va == vb

    def test_different_seeds_differ(self):
        a = instantiate(SchemeKey(1, SchemeId.BIOHASH, SMALL), 16)
        b = instantiate(SchemeKey(2, SchemeId.BIOHASH, SMALL), 16)
        assert not np.array_equal(a.projection, b.projection)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_dimension_one_rejected(self, scheme):
        with pytest.raises(InvalidArgumentError):
            instantiate(SchemeKey(1, scheme, SMALL), 1)

    def test_urp_alphabet_larger_than_dimension_rejected(self):
        with pytest.raises(InvalidArgumentError):
            instantiate(SchemeKey(1, SchemeId.IOM_URP, SchemeParams(iom_k=32)), 16)

    def test_biohash_blocks_orthonormal(self):
        # output length above the dimension: each d-row block stays orthonormal
        inst = instantiate(SchemeKey(3, SchemeId.BIOHASH, SchemeParams(output_length=40)), 16)
        assert inst.projection.shape == (40, 16)
        block = inst.projection[:16]
        assert np.abs(block @ block.T - np.eye(16)).max() < 1e-8
        block2 = inst.projection[16:32]
        assert np.abs(block2 @ block2.T - np.eye(16)).max() < 1e-8


class TestBioHash:
    def test_forced_identity_projection(self):
        inst = BioHashInstance(SchemeId.BIOHASH, 2, projection=np.eye(2))
        bits = protect(template([1.0, 0.0]), inst).payload.bits
        assert np.array_equal(bits, [1, 0])  # <x,e1>=1 > 0; <x,e2>=0 is not > 0

    def test_zero_vector_gives_zero_bits(self):
        inst = instantiate(SchemeKey(4, SchemeId.BIOHASH, SMALL), 8)
        bits = protect(template(np.zeros(8)), inst).payload.bits
        assert not bits.any()

    def test_dimension_mismatch_rejected(self):
        inst = instantiate(SchemeKey(4, SchemeId.BIOHASH, SMALL), 8)
        with pytest.raises(InvalidArgumentError):
            protect(random_template(9), inst)


class TestMlpHash:
    def test_forced_identity_single_layer(self):
        inst = MlpHashInstance(SchemeId.MLP_HASH, 2, layers=(np.eye(2),))
        bits = protect(template([2.0, -1.0]), inst).payload.bits
        assert np.array_equal(bits, [1, 0])  # activations (2, -0.01)

    def test_replay(self):
        inst = instantiate(SchemeKey(9, SchemeId.MLP_HASH, SMALL), 12)
        t = random_template(12)
        a = protect(t, inst).payload.bits
        b = protect(t, inst).payload.bits
        assert np.array_equal(a, b)

    def test_layer_shapes(self):
        inst = instantiate(SchemeKey(9, SchemeId.MLP_HASH, SMALL), 12)
        assert inst.layers[0].shape == (32, 12)
        assert inst.layers[1].shape == (32, 32)


class TestBloom:
    def test_forced_hand_example(self):
        # w=2, two columns in one block, zero masks; binarized input
        # (1,0,1,1) gives column words (1,0)->2 and (1,1)->3
        inst = BloomInstance(
            SchemeId.BLOOM_FILTER, 4, word_bits=2, block_cols=2,
            masks=np.zeros(2, dtype=np.int64),
        )
        blocks = protect(template([1.0, -1.0, 0.5, 2.0]), inst).payload.blocks
        assert blocks.shape == (1, 4)
        assert np.array_equal(blocks[0], [0, 0, 1, 1])

    def test_masks_relocate_bits(self):
        inst = BloomInstance(
            SchemeId.BLOOM_FILTER, 4, word_bits=2, block_cols=2,
            masks=np.array([1, 1], dtype=np.int64),
        )
        blocks = protect(template([1.0, -1.0, 0.5, 2.0]), inst).payload.blocks
        assert np.array_equal(blocks[0], [0, 0, 1, 1])  # 2^1=3, 3^1=2: same set

    def test_duplicate_columns_idempotent(self):
        # all-positive input: every column word is 3; one bit set per block
        inst = BloomInstance(
            SchemeId.BLOOM_FILTER, 8, word_bits=2, block_cols=4,
            masks=np.zeros(4, dtype=np.int64),
        )
        blocks = protect(template(np.ones(8)), inst).payload.blocks
        assert blocks.sum() == 1 and blocks[0, 3] == 1

    def test_determinism_and_padding(self):
        inst = instantiate(SchemeKey(8, SchemeId.BLOOM_FILTER, SMALL), 10)
        t = random_template(10)
        a = protect(t, inst)
        b = protect(t, inst)
        assert np.array_equal(a.payload.blocks, b.payload.blocks)
        assert a.payload.blocks.shape == (1, 16)  # 10 bits pad to 4*4=16


class TestIomGrp:
    def test_forced_directions(self):
        directions = np.array([[[1.0, 0.0], [0.0, 1.0]]])  # one hash, k=2, e1/e2
        inst = IomGrpInstance(SchemeId.IOM_GRP, 2, directions=directions)
        codes = protect(template([2.0, 1.0]), inst).payload.codes
        assert np.array_equal(codes, [0])  # projections (2,1): argmax at 0

    def test_codes_in_alphabet(self):
        inst = instantiate(SchemeKey(21, SchemeId.IOM_GRP, SMALL), 16)
        payload = protect(random_template(16), inst).payload
        assert payload.k == SMALL.iom_k
        assert payload.codes.min() >= 0 and payload.codes.max() < SMALL.iom_k
        assert len(payload) == SMALL.output_length


class TestIomUrp:
    def test_forced_identity_permutation(self):
        x = np.array([0.1, 0.9, 0.5, 0.3, 0.8])
        perms = np.arange(5).reshape(1, 1, 5)
        inst = IomUrpInstance(SchemeId.IOM_URP, 5, perms=perms, k=3)
        codes = protect(template(x), inst).payload.codes
        assert np.array_equal(codes, [1])  # argmax of (0.1, 0.9, 0.5)

    @pytest.mark.parametrize("d", [16, 128])
    def test_perms_equal_one_draw_per_permutation(self, d):
        params = SchemeParams(output_length=64, iom_k=8, iom_p=3)
        inst = instantiate(SchemeKey(23, SchemeId.IOM_URP, params), d)
        # reference: one permutation(d) call per (code, factor), code-major
        stream = derive_stream(23, b"iom-urp.perms")
        perms = np.empty((params.output_length, params.iom_p, d), dtype=np.int64)
        for m in range(params.output_length):
            for p in range(params.iom_p):
                perms[m, p] = stream.permutation(d)
        assert np.array_equal(inst.perms, perms)

    def test_codes_in_alphabet(self):
        inst = instantiate(SchemeKey(22, SchemeId.IOM_URP, SMALL), 16)
        payload = protect(random_template(16), inst).payload
        assert payload.codes.min() >= 0 and payload.codes.max() < SMALL.iom_k


class TestRandHash:
    def test_forced_hand_example(self):
        inst = RandHashInstance(
            SchemeId.RAND_HASH, 2,
            perm=np.array([0, 1]),
            scales=np.array([1.0, 2.0]),
            signs=np.array([1.0, -1.0]),
            pad_bits=np.zeros(0, dtype=np.uint8),
            output_length=2,
        )
        bits = protect(template([3.0, -1.0]), inst).payload.bits
        assert np.array_equal(bits, [1, 1])  # y = (3, 2)

    def test_truncation_when_length_below_dim(self):
        inst = instantiate(SchemeKey(5, SchemeId.RAND_HASH, SchemeParams(output_length=8)), 16)
        bits = protect(random_template(16), inst).payload.bits
        assert bits.shape == (8,)

    def test_padding_when_length_above_dim(self):
        params = SchemeParams(output_length=32)
        inst = instantiate(SchemeKey(5, SchemeId.RAND_HASH, params), 16)
        t = random_template(16)
        bits = protect(t, inst).payload.bits
        assert bits.shape == (32,)
        # pad bits are key-derived constants, independent of the template
        other = protect(random_template(16, seed=77), inst).payload.bits
        assert np.array_equal(bits[16:], other[16:])

    def test_scales_positive_and_log_bounded(self):
        inst = instantiate(SchemeKey(5, SchemeId.RAND_HASH, SMALL), 64)
        assert inst.scales.min() >= 0.5 and inst.scales.max() <= 2.0


class TestProtectBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        scheme=st.sampled_from(ALL_SCHEMES),
        n=st.integers(1, 129),
        d=st.integers(2, 40),
        length=st.integers(8, 40),
        k=st.integers(2, 8),
        p=st.integers(1, 3),
        layers=st.integers(1, 3),
        word_bits=st.integers(2, 5),
        cols=st.integers(1, 5),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_rows_equal_one_row_calls(self, scheme, n, d, length, k, p, layers, word_bits,
                                      cols, seed):
        params = SchemeParams(
            output_length=length, iom_k=min(k, d), iom_p=p, mlp_layers=layers,
            bloom_word_bits=word_bits, bloom_block_cols=cols,
        )
        inst = instantiate(SchemeKey(seed, scheme, params), d)
        # Gaussian features, as the benchmark draws them
        x = derive_stream(seed, b"test.protect-batch").normals(n * d).reshape(n, d)
        y = protect_batch(x, inst)
        assert y.dtype == np.float64 and y.shape[0] == n
        for i in range(n):
            one = protect_batch(x[i : i + 1], inst)[0]
            assert np.array_equal(y[i], one)
            assert np.array_equal(one, protect(template(x[i]), inst).to_real_vector())

    def test_instance_type_mismatch_rejected(self):
        inst = instantiate(SchemeKey(4, SchemeId.BIOHASH, SMALL), 8)
        wrong = MlpHashInstance(SchemeId.BIOHASH, 8, layers=(np.eye(8),))
        with pytest.raises(InvalidArgumentError):
            protect_batch(np.ones((2, 8)), wrong)
        with pytest.raises(InvalidArgumentError):
            protect_batch(np.ones(8), inst)  # one row must still be a (1, dim) block


class TestScaleInvariance:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("c", [0.5, 3.0, 100.0])
    def test_positive_scaling_exact(self, scheme, c):
        inst = instantiate(SchemeKey(31, scheme, SMALL), 16)
        t = random_template(16, seed=13)
        scaled = template(c * t.features)
        a, b = protect(t, inst), protect(scaled, inst)
        if scheme is SchemeId.BLOOM_FILTER:
            assert np.array_equal(a.payload.blocks, b.payload.blocks)
        elif scheme in (SchemeId.IOM_GRP, SchemeId.IOM_URP):
            assert np.array_equal(a.payload.codes, b.payload.codes)
        else:
            assert np.array_equal(a.payload.bits, b.payload.bits)


class TestCompare:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_self_similarity_is_one(self, scheme):
        inst = instantiate(SchemeKey(41, scheme, SMALL), 16)
        p = protect(random_template(16), inst)
        assert compare(p, p) == 1.0

    def test_complementary_bitstrings(self):
        from cbbench.core import BitString, ProtectedTemplate

        a = ProtectedTemplate(SchemeId.BIOHASH, BitString(np.array([1, 0, 1, 0] * 8)))
        b = ProtectedTemplate(SchemeId.BIOHASH, BitString(np.array([0, 1, 0, 1] * 8)))
        assert compare(a, b) == 0.0

    def test_bloom_hand_example(self):
        from cbbench.core import BloomSet, ProtectedTemplate

        a_blocks = np.zeros((1, 8), dtype=np.uint8)
        a_blocks[0, [1, 2]] = 1
        b_blocks = np.zeros((1, 8), dtype=np.uint8)
        b_blocks[0, [2, 3]] = 1
        a = ProtectedTemplate(SchemeId.BLOOM_FILTER, BloomSet(a_blocks))
        b = ProtectedTemplate(SchemeId.BLOOM_FILTER, BloomSet(b_blocks))
        assert compare(a, b) == 0.5  # |xor|=2 over |A|+|B|=4

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_symmetry(self, scheme):
        inst = instantiate(SchemeKey(43, scheme, SMALL), 16)
        pa = protect(random_template(16, seed=1), inst)
        pb = protect(random_template(16, seed=2), inst)
        assert compare(pa, pb) == compare(pb, pa)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_range(self, scheme):
        inst = instantiate(SchemeKey(44, scheme, SMALL), 16)
        for seed in range(10):
            pa = protect(random_template(16, seed=seed), inst)
            pb = protect(random_template(16, seed=seed + 100), inst)
            assert 0.0 <= compare(pa, pb) <= 1.0

    def test_scheme_mismatch_rejected(self):
        bio = protect(random_template(16), instantiate(SchemeKey(1, SchemeId.BIOHASH, SMALL), 16))
        mlp = protect(random_template(16), instantiate(SchemeKey(1, SchemeId.MLP_HASH, SMALL), 16))
        with pytest.raises(InvalidArgumentError):
            compare(bio, mlp)

    def test_shape_mismatch_rejected(self):
        short = SchemeParams(output_length=16)
        a = protect(random_template(16), instantiate(SchemeKey(1, SchemeId.BIOHASH, SMALL), 16))
        b = protect(random_template(16), instantiate(SchemeKey(1, SchemeId.BIOHASH, short), 16))
        with pytest.raises(InvalidArgumentError):
            compare(a, b)

    def test_alphabet_mismatch_rejected(self):
        other = SchemeParams(output_length=32, iom_k=4)
        a = protect(random_template(16), instantiate(SchemeKey(1, SchemeId.IOM_GRP, SMALL), 16))
        b = protect(random_template(16), instantiate(SchemeKey(1, SchemeId.IOM_GRP, other), 16))
        with pytest.raises(InvalidArgumentError):
            compare(a, b)


class TestStatisticalProperties:
    def test_bit_balance_over_random_inputs_and_keys(self):
        # each output bit should be set half the time over fresh draws of
        # both the template and the key
        d, n = 32, 10_000
        params = SchemeParams(output_length=64)
        for scheme in (SchemeId.BIOHASH, SchemeId.RAND_HASH):
            feats = derive_stream(500, b"bitbalance." + scheme.value.encode())
            feats = feats.normals(n * d).reshape(n, d)
            freqs = np.zeros(64)
            for i, row in enumerate(feats):
                inst = instantiate(SchemeKey(i, scheme, params), d)
                freqs += protect(Template("s", "0", row), inst).payload.bits
            freqs /= n
            assert np.abs(freqs - 0.5).max() <= 0.02, scheme

    def test_chance_level_constants(self):
        params = SchemeParams(iom_k=8)
        assert chance_level(SchemeId.BIOHASH, params) == 0.5
        assert chance_level(SchemeId.MLP_HASH, params) == 0.5
        assert chance_level(SchemeId.RAND_HASH, params) == 0.5
        assert chance_level(SchemeId.IOM_GRP, params) == 0.125
        assert chance_level(SchemeId.IOM_URP, params) == 0.125
        assert chance_level(SchemeId.BLOOM_FILTER, params) is None
