import numpy as np
import pytest

from cbbench.core import Dataset, SchemeId, SchemeKey, SchemeParams, validate_dataset
from cbbench.errors import InvalidArgumentError
from cbbench.protocol import ScoreSet
from cbbench.schemes import (
    BioHashInstance,
    BloomInstance,
    IomGrpInstance,
    IomUrpInstance,
    MlpHashInstance,
    RandHashInstance,
    protect_batch,
)

from conftest import make_dataset


class TestSchemeParams:
    def test_defaults_valid(self):
        SchemeParams()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"output_length": 7},
            {"output_length": 4097},
            {"iom_k": 1},
            {"iom_k": 257},
            {"iom_p": 0},
            {"iom_p": 17},
            {"mlp_layers": 0},
            {"mlp_layers": 17},
            {"bloom_word_bits": 1},
            {"bloom_word_bits": 17},
            {"bloom_block_cols": 0},
            {"bloom_block_cols": 1025},
            {"output_length": 64.0},
            {"iom_p": True},
        ],
    )
    def test_invariants_enforced(self, kwargs):
        # the message starts with the field name, which the CLI maps to its flag
        with pytest.raises(InvalidArgumentError, match=f"^{next(iter(kwargs))} "):
            SchemeParams(**kwargs)

    def test_caps_inclusive(self):
        SchemeParams(output_length=4096, iom_k=256, iom_p=16, mlp_layers=16,
                     bloom_word_bits=16, bloom_block_cols=1024)


class TestSchemeNames:
    def test_round_trip(self):
        for scheme in SchemeId:
            assert SchemeId(scheme.value) is scheme

    def test_unknown_names_name_the_token(self):
        with pytest.raises(InvalidArgumentError, match="triplethash"):
            SchemeId("triplethash")

    def test_key_seed_range(self):
        for seed in (-1, 2**64, 2.5, True):
            with pytest.raises(InvalidArgumentError, match="^seed "):
                SchemeKey(seed=seed, scheme_id=SchemeId.BIOHASH)


class TestPayloads:
    """Protected rows hold what their scheme's kind admits, whatever the input."""

    # zeros, ties, signed extremes and subnormals: the inputs a sign or argmax could mishandle
    EDGES = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 1.0, 1.0, 1.0],
        [-1e300, 1e300, -5e-324, 5e-324],
        [1e300, -1e300, 0.0, -0.0],
    ])

    def test_code_alphabet_enforced(self):
        directions = np.stack([np.eye(4)] * 3)  # three hashes, k=4, axis directions
        urp = IomUrpInstance(4, perms=np.arange(4).reshape(1, 1, 4), k=4)
        for inst in (IomGrpInstance(4, directions=directions), urp):
            codes = protect_batch(self.EDGES, inst)
            assert np.array_equal(codes, np.floor(codes))
            assert codes.min() >= 0 and codes.max() < 4
        # ties resolve to the lowest index; the largest entry wins otherwise
        assert np.array_equal(protect_batch(self.EDGES, urp)[:, 0], [0, 0, 1, 0])

    def test_bits_binary_enforced(self):
        pad = np.ones(2, dtype=np.uint8)
        for inst in (
            BioHashInstance(4, projection=np.vstack([np.eye(4), -np.eye(4)])),
            MlpHashInstance(4, layers=(np.eye(4), -np.eye(4))),
            RandHashInstance(4, perm=np.arange(4), signs=-np.ones(4), pad_bits=pad,
                             output_length=6),
        ):
            bits = protect_batch(self.EDGES, inst)
            assert set(np.unique(bits)) <= {0.0, 1.0}, inst.scheme_id
            assert not bits[0, :4].any()  # 0 is not > 0; rand-hash pads with key bits after

    def test_real_vector_views(self):
        # bits and codes as floats, Bloom blocks concatenated block by block
        bio = BioHashInstance(2, projection=np.eye(2))
        assert np.array_equal(protect_batch([[1.0, -1.0]], bio), [[1.0, 0.0]])
        grp = IomGrpInstance(4, directions=np.stack([np.eye(4)] * 2))
        codes = protect_batch([[0.0, 1.0, 0.0, 3.0]], grp)
        assert codes.dtype == np.float64 and np.array_equal(codes, [[3.0, 3.0]])
        # w=2, one column per block: the second block's column word (1,0) sets bit 2
        bloom = BloomInstance(4, word_bits=2, block_cols=1, masks=np.zeros(2, dtype=np.int64))
        flat = protect_batch([[-1.0, -1.0, 1.0, -1.0]], bloom)[0]
        assert flat.shape == (8,) and flat.dtype == np.float64
        assert np.array_equal(flat, [1, 0, 0, 0, 0, 0, 1, 0])


class TestScore:
    def test_range_is_error_not_clamp(self):
        ScoreSet(np.array([0.0, 1.0]), np.array([1.0]))
        for bad in (1.0000001, -0.0000001, np.nan):
            with pytest.raises(InvalidArgumentError, match="within \\[0, 1\\]"):
                ScoreSet(np.array([0.5, bad]), np.array([0.5]))


class TestValidateDataset:
    # a Dataset runs validate_dataset when built and raises its issues, joined
    def test_well_formed(self):
        ds = make_dataset(
            {
                "a": [[1.0, 0.0], [0.9, 0.1]],
                "b": [[0.0, 1.0], [0.1, 0.9]],
                "c": [[0.5, 0.5], [0.4, 0.6]],
            }
        )
        assert validate_dataset(ds) == []

    def test_nan_named_with_location(self):
        with pytest.raises(InvalidArgumentError) as info:
            make_dataset({"a": [[1.0, 0.0], [0.9, np.nan]], "b": [[0.0, 1.0], [0.1, 0.9]]})
        assert str(info.value) == "features: subject a sample 1: non-finite feature at index 1"

    def test_single_sample_subject_flagged(self):
        with pytest.raises(InvalidArgumentError, match="^features: subject b has only 1 sample"):
            make_dataset({"a": [[1.0, 0.0], [0.9, 0.1]], "b": [[0.0, 1.0]]})

    def test_duplicate_pair_flagged(self):
        with pytest.raises(InvalidArgumentError, match="^features: duplicate"):
            Dataset([[1.0, 2.0], [2.0, 1.0]], ["a", "a"], ["0", "0"])

    def test_messages_in_row_order(self):
        # duplicates and non-finite values are reported row by row, as a
        # per-template loop would, then the subject counts
        x = np.array([[1.0, np.inf], [1.0, 2.0], [np.nan, -np.inf], [3.0, 4.0], [5.0, 6.0]])
        with pytest.raises(InvalidArgumentError) as info:
            Dataset(x, ["a", "a", "a", "b", "c"], ["0", "1", "0", "0", "0"])
        assert str(info.value) == "features: " + "; ".join([
            "subject a sample 0: non-finite feature at index 1",
            "duplicate (subject, sample) pair ('a', '0')",
            "subject a sample 0: non-finite feature at index 0",
            "subject a sample 0: non-finite feature at index 1",
            "subject b has only 1 sample(s); need >= 2",
            "subject c has only 1 sample(s); need >= 2",
        ])

    def test_one_dimension_flagged_first(self):
        with pytest.raises(InvalidArgumentError) as info:
            Dataset(np.array([[1.0], [np.nan]]), ["a", "a"], ["0", "1"])
        assert str(info.value) == (
            "features: dimension must be >= 2, got 1; "
            "subject a sample 1: non-finite feature at index 0"
        )


class TestDataset:
    def test_feature_rows_stack_as_float64(self):
        ds = Dataset([[1, 2], np.array([3.0, 4.0])], ["b", "b"], ["x", "y"])
        assert ds.features.dtype == np.float64 and ds.features.shape == (2, 2)
        assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.subject_ids == ["b", "b"] and ds.sample_ids == ["x", "y"]
        assert ds.dimension == 2 and len(ds) == 2

    def test_subject_rows_in_first_appearance_order(self):
        ds = Dataset(np.zeros((6, 2)), ["b", "a", "b", "c", "a", "c"], list("012345"))
        assert ds.subject_rows() == {"b": [0, 2], "a": [1, 4], "c": [3, 5]}
        assert list(ds.subject_rows()) == ["b", "a", "c"]

    def test_empty_template_list_rejected(self):
        with pytest.raises(InvalidArgumentError, match="^features must be a 2-D array"):
            Dataset([], [], [])

    @pytest.mark.parametrize("features, subjects, samples", [
        (np.zeros((2, 3)), ["a"], ["0", "1"]),
        (np.zeros((2, 3)), ["a", "a"], ["0"]),
        (np.zeros(3), ["a", "a", "a"], ["0", "1", "2"]),
        (np.zeros((1, 2, 3)), ["a"], ["0"]),
    ])
    def test_ids_must_match_rows(self, features, subjects, samples):
        wrong_rank = np.ndim(features) != 2
        match = "^features must be a 2-D array" if wrong_rank else "one id pair per row"
        with pytest.raises(InvalidArgumentError, match=match):
            Dataset(features, subjects, samples)

    def test_id_holding_the_key_separator_rejected(self):
        # ids are joined with \x1f into a sample-specific key's material, so
        # ("a\x1fb", "c") and ("a", "b\x1fc") would share one key
        with pytest.raises(InvalidArgumentError) as info:
            Dataset(np.eye(4), ["a\x1fb", "a\x1fb", "a", "a"], ["c", "d", "b\x1fc", "e"])
        assert str(info.value) == "features: " + "; ".join([
            "subject 'a\\x1fb' sample 'c': an id holds '\\x1f', the key-material separator",
            "subject 'a\\x1fb' sample 'd': an id holds '\\x1f', the key-material separator",
            "subject 'a' sample 'b\\x1fc': an id holds '\\x1f', the key-material separator",
        ])

    def test_ragged_rows_rejected(self):
        with pytest.raises(InvalidArgumentError, match="^features: the rows differ in length"):
            Dataset([[1.0, 2.0], [1.0, 2.0, 3.0]], ["a", "a"], ["0", "1"])
