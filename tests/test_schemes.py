import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbbench.core import SchemeId, SchemeKey, SchemeParams
from cbbench.errors import InvalidArgumentError
from cbbench.numerics import derive_stream
from cbbench.schemes import (
    BioHashInstance,
    BloomInstance,
    IomGrpInstance,
    IomUrpInstance,
    MlpHashInstance,
    RandHashInstance,
    TransformInstance,
    compare,
    instantiate,
    protect_batch,
    similarities,
)

ALL_SCHEMES = list(SchemeId)
SMALL = SchemeParams(output_length=32, iom_k=8, bloom_block_cols=4)


def random_template(d: int, seed: int = 5) -> np.ndarray:
    return derive_stream(seed, b"test-template").normals(d)


def one_row(x, inst: TransformInstance) -> np.ndarray:
    """The protected row of the one feature row ``x``: ``protect_batch`` of one row."""
    return protect_batch([x], inst)[0]


def blocks_of(row: np.ndarray, inst: BloomInstance) -> np.ndarray:
    """A protected Bloom row as its (n_blocks, 2**word_bits) filter blocks."""
    return row.reshape(inst.n_blocks, 2**inst.word_bits)


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

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("length, d, layers, k, p, word_bits, cols", [
        (8, 16, 1, 2, 3, 3, 5),  # L < d: no rand-hash pad; 15-bit Bloom blocks do not tile 16
        (16, 16, 3, 4, 1, 4, 4),  # L = d: one biohash block; Bloom blocks tile d
        (40, 16, 3, 2, 3, 2, 3),  # L > d: a pad and three biohash blocks; 6-bit Bloom blocks
    ])
    def test_equals_reference_draws(self, scheme, length, d, layers, k, p, word_bits, cols):
        # the oracle draws each scheme's arrays as one if-ladder over the
        # schemes did: same stream labels, same draws, same order
        from cbbench.numerics import gram_schmidt

        def block_orthonormal(stream, n_rows, dim):
            if n_rows <= dim:
                return gram_schmidt(stream.normals(n_rows * dim).reshape(n_rows, dim))
            blocks = [gram_schmidt(stream.normals(dim * dim).reshape(dim, dim))
                      for _ in range(-(-n_rows // dim))]
            return np.vstack(blocks)[:n_rows]

        def reference(seed):
            if scheme is SchemeId.BIOHASH:
                stream = derive_stream(seed, b"biohash.projection")
                return {"projection": block_orthonormal(stream, length, d)}
            if scheme is SchemeId.MLP_HASH:
                in_dims = [d] + [length] * (layers - 1)
                return {"layers": tuple(
                    block_orthonormal(derive_stream(seed, b"mlphash.layer%d" % i), length, n)
                    for i, n in enumerate(in_dims)
                )}
            if scheme is SchemeId.BLOOM_FILTER:
                n_words = -(-d // (word_bits * cols)) * cols
                masks = derive_stream(seed, b"bloom.masks").integers(n_words, 2**word_bits)
                return {"word_bits": word_bits, "block_cols": cols, "masks": masks}
            if scheme is SchemeId.IOM_GRP:
                stream = derive_stream(seed, b"iom-grp.directions")
                return {"directions": stream.normals(length * k * d).reshape(length, k, d)}
            if scheme is SchemeId.IOM_URP:
                stream = derive_stream(seed, b"iom-urp.perms")
                return {"perms": stream.permutation(d, length * p).reshape(length, p, d), "k": k}
            perm = derive_stream(seed, b"randhash.perm")._gen.permutation(d)
            signs = np.where(derive_stream(seed, b"randhash.sign").uniforms(d) < 0.5, -1.0, 1.0)
            n_pad = max(0, length - d)
            pad_bits = (
                (derive_stream(seed, b"randhash.pad").uniforms(n_pad) < 0.5).astype(np.uint8)
                if n_pad
                else np.zeros(0, dtype=np.uint8)
            )
            return {"perm": perm, "signs": signs, "pad_bits": pad_bits, "output_length": length}

        def bits(value):
            if isinstance(value, tuple):
                return tuple(bits(v) for v in value)
            if isinstance(value, np.ndarray):
                return value.dtype.str, value.shape, value.tobytes()
            return type(value), value

        params = SchemeParams(output_length=length, mlp_layers=layers, iom_k=k, iom_p=p,
                              bloom_word_bits=word_bits, bloom_block_cols=cols)
        for seed in (0, 7, 2**64 - 1):
            inst = instantiate(SchemeKey(seed, scheme, params), d)
            expected = {"dim": d, **reference(seed)}
            assert [f.name for f in dataclasses.fields(inst)] == list(expected)
            for name, value in expected.items():
                assert bits(getattr(inst, name)) == bits(value), name

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
        inst = BioHashInstance(2, projection=np.eye(2))
        bits = one_row([1.0, 0.0], inst)
        assert np.array_equal(bits, [1, 0])  # <x,e1>=1 > 0; <x,e2>=0 is not > 0

    def test_zero_vector_gives_zero_bits(self):
        inst = instantiate(SchemeKey(4, SchemeId.BIOHASH, SMALL), 8)
        bits = one_row(np.zeros(8), inst)
        assert not bits.any()

    def test_dimension_mismatch_rejected(self):
        inst = instantiate(SchemeKey(4, SchemeId.BIOHASH, SMALL), 8)
        with pytest.raises(InvalidArgumentError):
            one_row(random_template(9), inst)


class TestMlpHash:
    def test_forced_identity_single_layer(self):
        inst = MlpHashInstance(2, layers=(np.eye(2),))
        bits = one_row([2.0, -1.0], inst)
        assert np.array_equal(bits, [1, 0])  # activations (2, -0.01)

    def test_replay(self):
        inst = instantiate(SchemeKey(9, SchemeId.MLP_HASH, SMALL), 12)
        t = random_template(12)
        a = one_row(t, inst)
        b = one_row(t, inst)
        assert np.array_equal(a, b)

    def test_layer_shapes(self):
        inst = instantiate(SchemeKey(9, SchemeId.MLP_HASH, SMALL), 12)
        assert inst.layers[0].shape == (32, 12)
        assert inst.layers[1].shape == (32, 32)


class TestBloom:
    def test_forced_hand_example(self):
        # w=2, two columns in one block, zero masks; binarized input
        # (1,0,1,1) gives column words (1,0)->2 and (1,1)->3
        inst = BloomInstance(4, word_bits=2, block_cols=2, masks=np.zeros(2, dtype=np.int64))
        blocks = blocks_of(one_row([1.0, -1.0, 0.5, 2.0], inst), inst)
        assert blocks.shape == (1, 4)
        assert np.array_equal(blocks[0], [0, 0, 1, 1])

    def test_masks_relocate_bits(self):
        inst = BloomInstance(4, word_bits=2, block_cols=2, masks=np.array([1, 1], dtype=np.int64))
        blocks = blocks_of(one_row([1.0, -1.0, 0.5, 2.0], inst), inst)
        assert np.array_equal(blocks[0], [0, 0, 1, 1])  # 2^1=3, 3^1=2: same set

    def test_duplicate_columns_idempotent(self):
        # all-positive input: every column word is 3; one bit set per block
        inst = BloomInstance(8, word_bits=2, block_cols=4, masks=np.zeros(4, dtype=np.int64))
        blocks = blocks_of(one_row(np.ones(8), inst), inst)
        assert blocks.sum() == 1 and blocks[0, 3] == 1

    def test_determinism_and_padding(self):
        inst = instantiate(SchemeKey(8, SchemeId.BLOOM_FILTER, SMALL), 10)
        t = random_template(10)
        a = one_row(t, inst)
        b = one_row(t, inst)
        assert np.array_equal(a, b)
        assert blocks_of(a, inst).shape == (1, 16)  # 10 bits pad to 4*4=16


class TestIomGrp:
    def test_forced_directions(self):
        directions = np.array([[[1.0, 0.0], [0.0, 1.0]]])  # one hash, k=2, e1/e2
        inst = IomGrpInstance(2, directions=directions)
        codes = one_row([2.0, 1.0], inst)
        assert np.array_equal(codes, [0])  # projections (2,1): argmax at 0

    def test_codes_in_alphabet(self):
        inst = instantiate(SchemeKey(21, SchemeId.IOM_GRP, SMALL), 16)
        codes = one_row(random_template(16), inst)
        assert inst.directions.shape[1] == SMALL.iom_k
        assert codes.min() >= 0 and codes.max() < SMALL.iom_k
        assert codes.shape == (SMALL.output_length,)


class TestIomUrp:
    def test_forced_identity_permutation(self):
        x = np.array([0.1, 0.9, 0.5, 0.3, 0.8])
        perms = np.arange(5).reshape(1, 1, 5)
        inst = IomUrpInstance(5, perms=perms, k=3)
        codes = one_row(x, inst)
        assert np.array_equal(codes, [1])  # argmax of (0.1, 0.9, 0.5)

    @pytest.mark.parametrize("d", [16, 128])
    def test_perms_equal_one_draw_per_permutation(self, d):
        params = SchemeParams(output_length=64, iom_k=8, iom_p=3)
        inst = instantiate(SchemeKey(23, SchemeId.IOM_URP, params), d)
        # reference: one numpy permutation(d) call per (code, factor), code-major
        stream = derive_stream(23, b"iom-urp.perms")
        perms = np.empty((params.output_length, params.iom_p, d), dtype=np.int64)
        for m in range(params.output_length):
            for p in range(params.iom_p):
                perms[m, p] = stream._gen.permutation(d)
        assert np.array_equal(inst.perms, perms)

    def test_codes_in_alphabet(self):
        inst = instantiate(SchemeKey(22, SchemeId.IOM_URP, SMALL), 16)
        codes = one_row(random_template(16), inst)
        assert codes.min() >= 0 and codes.max() < SMALL.iom_k

    @pytest.mark.parametrize("c", [1e-300, 1e-190, 1.0, 1e190, 1e300])
    def test_products_neither_overflow_nor_underflow(self, c):
        # squares c^2 * (1, 4, 1e-20): unscaled they overflow to ties of inf
        # from c = 1e190 and underflow to ties of 0 below c = 1e-162
        inst = IomUrpInstance(3, perms=np.stack([np.arange(3)] * 2)[None], k=3)
        assert np.array_equal(one_row(c * np.array([1.0, 2.0, 1e-10]), inst), [1])


class TestRandHash:
    def test_forced_hand_example(self):
        inst = RandHashInstance(
            2,
            perm=np.array([0, 1]),
            signs=np.array([1.0, -1.0]),
            pad_bits=np.zeros(0, dtype=np.uint8),
            output_length=2,
        )
        bits = one_row([3.0, -1.0], inst)
        assert np.array_equal(bits, [1, 1])  # y = (3, 1)

    def test_truncation_when_length_below_dim(self):
        inst = instantiate(SchemeKey(5, SchemeId.RAND_HASH, SchemeParams(output_length=8)), 16)
        bits = one_row(random_template(16), inst)
        assert bits.shape == (8,)

    def test_padding_when_length_above_dim(self):
        params = SchemeParams(output_length=32)
        inst = instantiate(SchemeKey(5, SchemeId.RAND_HASH, params), 16)
        t = random_template(16)
        bits = one_row(t, inst)
        assert bits.shape == (32,)
        # pad bits are key-derived constants, independent of the template
        other = one_row(random_template(16, seed=77), inst)
        assert np.array_equal(bits[16:], other[16:])


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

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_zero_rows_give_zero_rows_of_the_row_width(self, scheme):
        inst = instantiate(SchemeKey(4, scheme, SMALL), 8)
        width = protect_batch(np.ones((1, 8)), inst).shape[1]
        assert protect_batch(np.ones((0, 8)), inst).shape == (0, width)

    def test_values_below_the_scaled_range_read_as_zero(self):
        # the power-of-two scaling takes a row's peak to [0.5, 1), so a value
        # 2**-1074 times that peak rounds to -0.0 and rand-hash reads its sign
        # as the sign of zero: the documented limit of the scale invariance
        inst = instantiate(SchemeKey(5, SchemeId.RAND_HASH, SchemeParams(output_length=8)), 4)
        row = np.array([[1.0, -5e-324, -5e-324, -5e-324]])
        assert np.array_equal(protect_batch(row, inst), [[0, 0, 0, 0, 0, 1, 1, 0]])
        assert np.array_equal(protect_batch(row, inst), protect_batch([[1.0, 0, 0, 0]], inst))
        assert np.array_equal(inst.rows(row), [[1, 1, 0, 1, 0, 1, 1, 0]])  # unscaled signs

    def test_instance_type_mismatch_rejected(self):
        # the scheme is the instance's class: no instance is built or edited
        # to claim another scheme than the kernel it runs
        with pytest.raises(TypeError):
            MlpHashInstance(SchemeId.BIOHASH, 8, layers=(np.eye(8),))
        inst = instantiate(SchemeKey(4, SchemeId.BIOHASH, SMALL), 8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.scheme_id = SchemeId.MLP_HASH
        with pytest.raises(InvalidArgumentError):
            protect_batch(np.ones(8), inst)  # one row must still be a (1, dim) block


BIT_SCHEMES = {SchemeId.BIOHASH, SchemeId.MLP_HASH, SchemeId.RAND_HASH}
CODE_SCHEMES = {SchemeId.IOM_GRP, SchemeId.IOM_URP}


class TestInstanceClasses:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_one_class_per_scheme_fixes_id_and_kind(self, scheme):
        (cls,) = [c for c in TransformInstance.__subclasses__() if c.scheme_id is scheme]
        inst = instantiate(SchemeKey(3, scheme, SMALL), 16)
        assert type(inst) is cls and inst.scheme_id is scheme
        # the class draws its own arrays: instantiate only looks the class up
        assert "_draw" in cls.__dict__
        assert type(cls._draw(3, SMALL, 16)) is cls
        kind = "bits" if scheme in BIT_SCHEMES else "codes" if scheme in CODE_SCHEMES else "bloom"
        assert cls.kind == kind
        # similarities scores rows by that kind
        a, b = protect_batch(derive_stream(3, b"test.kinds").normals(32).reshape(2, 16), inst)
        if kind == "bloom":
            blocks_a, blocks_b = blocks_of(a, inst), blocks_of(b, inst)
            xor = (blocks_a != blocks_b).sum(axis=1)
            expected = 1 - np.mean(xor / (blocks_a.sum(axis=1) + blocks_b.sum(axis=1)))
        else:
            expected = np.mean(a == b)
        assert similarities(scheme, SMALL, a, b) == pytest.approx(expected, abs=1e-15)


class TestRowInvariants:
    @settings(max_examples=80, deadline=None)
    @given(
        scheme=st.sampled_from(ALL_SCHEMES),
        d=st.integers(2, 24),
        length=st.integers(8, 40),
        k=st.integers(2, 8),
        p=st.integers(1, 3),
        word_bits=st.integers(2, 5),
        cols=st.integers(1, 5),
        seed=st.integers(0, 2**64 - 1),
        data=st.data(),
    )
    def test_rows_hold_their_kind_and_score_in_unit_range(self, scheme, d, length, k, p,
                                                          word_bits, cols, seed, data):
        params = SchemeParams(output_length=length, iom_k=min(k, d), iom_p=p,
                              bloom_word_bits=word_bits, bloom_block_cols=cols)
        inst = instantiate(SchemeKey(seed, scheme, params), d)
        # zeros, ties, subnormals and large values; 1e6 keeps iom-urp's products finite
        row = st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d)
        x = np.array(data.draw(st.lists(row, min_size=2, max_size=6)))
        y = protect_batch(x, inst)
        assert y.dtype == np.float64
        if scheme in BIT_SCHEMES:
            assert y.shape == (len(x), length)
            assert set(np.unique(y)) <= {0.0, 1.0}
        elif scheme in CODE_SCHEMES:
            assert y.shape == (len(x), length)
            assert np.array_equal(y, np.floor(y)) and y.min() >= 0 and y.max() < params.iom_k
        else:
            assert y.shape == (len(x), inst.n_blocks * 2**word_bits)
            blocks = y.reshape(len(x), inst.n_blocks, 2**word_bits)
            assert set(np.unique(blocks)) <= {0.0, 1.0}
            ones = blocks.sum(axis=2)
            assert ones.min() >= 1 and ones.max() <= cols
        # every pair of rows at once, (n, 1) against (1, n)
        scores = similarities(scheme, params, y[:, None], y[None, :])
        assert scores.shape == (len(x), len(x))
        assert ((0.0 <= scores) & (scores <= 1.0)).all()
        assert np.array_equal(scores, scores.T)
        assert (np.diag(scores) == 1.0).all()


class TestScaleInvariance:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("c", [0.5, 3.0, 100.0])
    def test_positive_scaling_exact(self, scheme, c):
        inst = instantiate(SchemeKey(31, scheme, SMALL), 16)
        t = random_template(16, seed=13)
        assert np.array_equal(one_row(t, inst), one_row(c * t, inst))


class TestCompare:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_self_similarity_is_one(self, scheme):
        inst = instantiate(SchemeKey(41, scheme, SMALL), 16)
        p = one_row(random_template(16), inst)
        assert similarities(scheme, SMALL, p, p) == 1.0

    def test_complementary_bitstrings(self):
        a = np.array([1.0, 0.0, 1.0, 0.0] * 8)
        assert similarities(SchemeId.BIOHASH, SMALL, a, 1.0 - a) == 0.0

    def test_bloom_hand_example(self):
        params = SchemeParams(bloom_word_bits=3)  # one block of 2**3 bits
        a = np.zeros(8)
        a[[1, 2]] = 1
        b = np.zeros(8)
        b[[2, 3]] = 1
        assert similarities(SchemeId.BLOOM_FILTER, params, a, b) == 0.5  # |xor|=2 over |A|+|B|=4

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_symmetry(self, scheme):
        inst = instantiate(SchemeKey(43, scheme, SMALL), 16)
        pa = one_row(random_template(16, seed=1), inst)
        pb = one_row(random_template(16, seed=2), inst)
        assert similarities(scheme, SMALL, pa, pb) == similarities(scheme, SMALL, pb, pa)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_range(self, scheme):
        inst = instantiate(SchemeKey(44, scheme, SMALL), 16)
        for seed in range(10):
            pa = one_row(random_template(16, seed=seed), inst)
            pb = one_row(random_template(16, seed=seed + 100), inst)
            assert 0.0 <= similarities(scheme, SMALL, pa, pb) <= 1.0

    def test_bloom_rows_must_be_whole_blocks(self):
        params = SchemeParams(bloom_word_bits=3)  # blocks of 8 bits
        with pytest.raises(InvalidArgumentError, match=r"^a rows of length 12 .*bloom_word_bits"):
            similarities(SchemeId.BLOOM_FILTER, params, np.zeros(12), np.zeros(12))
        with pytest.raises(InvalidArgumentError, match="^b rows of length 4 "):
            similarities(SchemeId.BLOOM_FILTER, params, np.zeros((2, 8)), np.zeros((2, 4)))

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_empty_rows_rejected(self, scheme):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="^a rows are empty"):
                similarities(scheme, SchemeParams(), np.zeros(0), np.zeros(0))
            with pytest.raises(InvalidArgumentError, match="^b rows are empty"):
                similarities(scheme, SchemeParams(), np.zeros((2, 16)), np.zeros((2, 0)))

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_rows_that_do_not_broadcast_rejected(self, scheme):
        with pytest.raises(InvalidArgumentError, match=r"^a rows of shape \(3, 16\) .* broadcast"):
            similarities(scheme, SMALL, np.zeros((3, 16)), np.zeros((2, 16)))
        with pytest.raises(InvalidArgumentError, match="^a rows of length 16 and b .* 32 differ"):
            similarities(scheme, SMALL, np.zeros((2, 16)), np.zeros((2, 32)))

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_values_outside_the_row_kind_rejected(self, scheme):
        # packing would silently read such values as other bits or codes
        top = 256.0 if scheme in CODE_SCHEMES else 2.0
        for value in (0.5, -1.0, top, np.nan, np.inf):
            row = np.zeros(16)
            row[3] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidArgumentError, match="^b rows hold values other than"):
                    similarities(scheme, SMALL, np.zeros(16), row)
        if scheme in CODE_SCHEMES:
            assert similarities(scheme, SMALL, np.full(16, 255.0), np.full(16, 255.0)) == 1.0

    def test_shape_mismatch_rejected(self):
        short = SchemeParams(output_length=16)
        a = one_row(random_template(16), instantiate(SchemeKey(1, SchemeId.BIOHASH, SMALL), 16))
        b = one_row(random_template(16), instantiate(SchemeKey(1, SchemeId.BIOHASH, short), 16))
        with pytest.raises(InvalidArgumentError, match="^a rows of length 32 and b .* 16 differ"):
            similarities(SchemeId.BIOHASH, SMALL, a, b)
        # compare, kept for the benchmark tracer, takes one pair: two rows, not two blocks
        with pytest.raises(InvalidArgumentError, match="1-D"):
            compare(SchemeId.BIOHASH, SMALL, a[None], a[None])


def unpacked_similarities(kind: str, f: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The float formulas on unpacked float64 rows: the reference that packed
    scoring must equal bit for bit."""
    if kind == "bits":
        return 1.0 - np.count_nonzero(a != b, axis=-1) / a.shape[-1]
    if kind == "codes":
        return np.count_nonzero(a == b, axis=-1) / a.shape[-1]
    a, b = a.reshape(*a.shape[:-1], -1, f), b.reshape(*b.shape[:-1], -1, f)
    sym_diff = np.count_nonzero(a != b, axis=-1).astype(np.float64)
    total = (np.count_nonzero(a, axis=-1) + np.count_nonzero(b, axis=-1)).astype(np.float64)
    dissim = np.divide(sym_diff, total, out=np.zeros_like(sym_diff), where=total > 0)
    return 1.0 - dissim.mean(axis=-1)


SCHEME_OF_KIND = {"bits": SchemeId.BIOHASH, "codes": SchemeId.IOM_GRP, "bloom": SchemeId.BLOOM_FILTER}


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestPackedScoring:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["bits", "codes", "bloom"]),
        length=st.integers(1, 70),  # mostly not a multiple of 8
        word_bits=st.sampled_from([2, 3, 4, 5, 8]),
        blocks=st.integers(1, 12),  # from 8 blocks on, the mean sums pairwise
        codes=st.integers(1, 256),
        fill=st.floats(0.0, 1.0),
        shapes=st.sampled_from([
            ((), ()), ((5,), (5,)), ((4, 1), (1, 3)), ((2, 3), (3,)), ((), (4,)), ((2, 1, 2), (3, 1)),
        ]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_unpacked_formulas(self, kind, length, word_bits, blocks, codes, fill,
                                      shapes, seed):
        rng = np.random.default_rng(seed)
        f = 2**word_bits

        def rows(lead):
            if kind == "codes":
                return rng.integers(0, codes, (*lead, length)).astype(np.float64)
            if kind == "bits":
                return (rng.random((*lead, length)) < fill).astype(np.float64)
            # about half the blocks all zero, so some block pairs hold no bit at all
            bits = (rng.random((*lead, blocks, f)) < fill) & (rng.random((*lead, blocks, 1)) < 0.5)
            return bits.reshape(*lead, blocks * f).astype(np.float64)

        a, b = rows(shapes[0]), rows(shapes[1])
        got = similarities(SCHEME_OF_KIND[kind], SchemeParams(bloom_word_bits=word_bits), a, b)
        assert_same_bits(got, unpacked_similarities(kind, f, a, b))

    def test_bloom_blocks_of_two_to_the_sixteen_bits(self):
        f = 2**16
        rng = np.random.default_rng(16)
        a, b = np.zeros((3, 4, f)), np.zeros((2, 4, f))
        for rows in (a, b):  # block 3 stays empty in every row
            for index in np.ndindex(rows.shape[:1] + (3,)):
                rows[index][rng.choice(f, size=rng.integers(0, 40), replace=False)] = 1.0
        a[0, :, :5] = b[0, :, :5] = 1.0  # shared bits
        a, b = a.reshape(3, 1, 4 * f), b.reshape(1, 2, 4 * f)
        got = similarities(SchemeId.BLOOM_FILTER, SchemeParams(bloom_word_bits=16), a, b)
        assert got.shape == (3, 2)
        assert_same_bits(got, unpacked_similarities("bloom", f, a, b))


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
                freqs += one_row(row, inst)
            freqs /= n
            assert np.abs(freqs - 0.5).max() <= 0.02, scheme

