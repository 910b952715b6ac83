import numpy as np
import pytest

from cbbench.core import (
    BitString,
    BloomSet,
    CodeVector,
    Dataset,
    ProtectedTemplate,
    Scenario,
    SchemeId,
    SchemeKey,
    SchemeParams,
    Template,
    as_score,
    validate_dataset,
)
from cbbench.errors import InvalidArgumentError

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
            assert SchemeId.from_name(scheme.value) is scheme
        for scenario in Scenario:
            assert Scenario.from_name(scenario.value) is scenario

    def test_unknown_names_name_the_token(self):
        with pytest.raises(InvalidArgumentError, match="triplethash"):
            SchemeId.from_name("triplethash")
        with pytest.raises(InvalidArgumentError, match="lost"):
            Scenario.from_name("lost")

    def test_key_seed_range(self):
        for seed in (-1, 2**64, 2.5, True):
            with pytest.raises(InvalidArgumentError, match="^seed "):
                SchemeKey(seed=seed, scheme_id=SchemeId.BIOHASH)


class TestPayloads:
    def test_variant_scheme_pairing_enforced(self):
        bits = BitString(np.array([1, 0, 1], dtype=np.uint8))
        codes = CodeVector(np.array([0, 1]), k=4)
        blocks = BloomSet(np.zeros((2, 16), dtype=np.uint8))
        ProtectedTemplate(SchemeId.BIOHASH, bits)
        ProtectedTemplate(SchemeId.IOM_GRP, codes)
        ProtectedTemplate(SchemeId.BLOOM_FILTER, blocks)
        with pytest.raises(InvalidArgumentError):
            ProtectedTemplate(SchemeId.BIOHASH, codes)
        with pytest.raises(InvalidArgumentError):
            ProtectedTemplate(SchemeId.IOM_URP, bits)
        with pytest.raises(InvalidArgumentError):
            ProtectedTemplate(SchemeId.BLOOM_FILTER, bits)

    def test_code_alphabet_enforced(self):
        with pytest.raises(InvalidArgumentError):
            CodeVector(np.array([0, 4]), k=4)
        with pytest.raises(InvalidArgumentError):
            CodeVector(np.array([-1, 0]), k=4)

    def test_bits_binary_enforced(self):
        with pytest.raises(InvalidArgumentError):
            BitString(np.array([0, 2], dtype=np.uint8))

    def test_real_vector_views(self):
        assert np.array_equal(
            ProtectedTemplate(SchemeId.BIOHASH, BitString(np.array([1, 0]))).to_real_vector(),
            [1.0, 0.0],
        )
        assert np.array_equal(
            ProtectedTemplate(SchemeId.IOM_GRP, CodeVector(np.array([3, 1]), k=4)).to_real_vector(),
            [3.0, 1.0],
        )
        blocks = np.zeros((2, 4), dtype=np.uint8)
        blocks[1, 2] = 1
        flat = ProtectedTemplate(SchemeId.BLOOM_FILTER, BloomSet(blocks)).to_real_vector()
        assert flat.shape == (8,) and flat[6] == 1.0


class TestScore:
    def test_range_is_error_not_clamp(self):
        assert as_score(0.0) == 0.0
        assert as_score(1.0) == 1.0
        with pytest.raises(InvalidArgumentError):
            as_score(1.0000001)
        with pytest.raises(InvalidArgumentError):
            as_score(-0.0000001)


class TestValidateDataset:
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
        ds = make_dataset({"a": [[1.0, 0.0], [0.9, np.nan]], "b": [[0.0, 1.0], [0.1, 0.9]]})
        issues = validate_dataset(ds)
        assert len(issues) == 1
        assert "subject a" in issues[0] and "sample 1" in issues[0] and "index 1" in issues[0]

    def test_single_sample_subject_flagged(self):
        ds = make_dataset({"a": [[1.0, 0.0], [0.9, 0.1]], "b": [[0.0, 1.0]]})
        issues = validate_dataset(ds)
        assert any("subject b" in i and "only 1 sample" in i for i in issues)

    def test_duplicate_pair_flagged(self):
        t = Template("a", "0", np.array([1.0, 2.0]))
        ds = Dataset.from_templates([t, Template("a", "0", np.array([2.0, 1.0]))])
        assert any("duplicate" in i for i in validate_dataset(ds))

    def test_dimension_mismatch_flagged(self):
        # a columnar dataset cannot hold rows of two dimensions: building one is refused
        templates = [
            Template("a", "0", np.array([1.0, 2.0])),
            Template("a", "1", np.array([1.0, 2.0, 3.0])),
        ]
        with pytest.raises(
            InvalidArgumentError, match=r"^subject a sample 1: dimension 3 != dataset dimension 2$"
        ):
            Dataset.from_templates(templates)

    def test_messages_in_row_order(self):
        # duplicates and non-finite values are reported row by row, as a
        # per-template loop would, then the subject counts
        x = np.array([[1.0, np.inf], [1.0, 2.0], [np.nan, -np.inf], [3.0, 4.0], [5.0, 6.0]])
        ds = Dataset(x, ["a", "a", "a", "b", "c"], ["0", "1", "0", "0", "0"])
        assert validate_dataset(ds) == [
            "subject a sample 0: non-finite feature at index 1",
            "duplicate (subject, sample) pair ('a', '0')",
            "subject a sample 0: non-finite feature at index 0",
            "subject a sample 0: non-finite feature at index 1",
            "subject b has only 1 sample(s); need >= 2",
            "subject c has only 1 sample(s); need >= 2",
        ]

    def test_one_dimension_flagged_first(self):
        ds = Dataset(np.array([[1.0], [np.nan]]), ["a", "a"], ["0", "1"])
        assert validate_dataset(ds) == [
            "dimension must be >= 2, got 1",
            "subject a sample 1: non-finite feature at index 0",
        ]


class TestDataset:
    def test_from_templates_stacks_rows(self):
        templates = [Template("b", "x", [1.0, 2.0]), Template("a", "y", [3.0, 4.0])]
        ds = Dataset.from_templates(templates)
        assert ds.features.dtype == np.float64 and ds.features.shape == (2, 2)
        assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.subject_ids == ["b", "a"] and ds.sample_ids == ["x", "y"]
        assert ds.dimension == 2 and len(ds) == 2

    def test_templates_are_row_views(self):
        ds = Dataset(np.arange(6.0).reshape(3, 2), ["a", "a", "b"], ["0", "1", "0"])
        templates = ds.templates
        assert [(t.subject_id, t.sample_id) for t in templates] == [
            ("a", "0"), ("a", "1"), ("b", "0")
        ]
        for i, t in enumerate(templates):
            assert np.shares_memory(t.features, ds.features)
            assert np.array_equal(t.features, ds.features[i])

    def test_subject_rows_in_first_appearance_order(self):
        ds = Dataset(np.zeros((5, 2)), ["b", "a", "b", "c", "a"], list("01234"))
        assert ds.subject_rows() == {"b": [0, 2], "a": [1, 4], "c": [3]}
        assert list(ds.subject_rows()) == ["b", "a", "c"]

    def test_empty_template_list_rejected(self):
        with pytest.raises(InvalidArgumentError, match="at least one template"):
            Dataset.from_templates([])

    @pytest.mark.parametrize("features, subjects, samples", [
        (np.zeros((2, 3)), ["a"], ["0", "1"]),
        (np.zeros((2, 3)), ["a", "a"], ["0"]),
        (np.zeros(3), ["a", "a", "a"], ["0", "1", "2"]),
        (np.zeros((1, 2, 3)), ["a"], ["0"]),
    ])
    def test_ids_must_match_rows(self, features, subjects, samples):
        with pytest.raises(InvalidArgumentError, match="one id pair per row"):
            Dataset(features, subjects, samples)
