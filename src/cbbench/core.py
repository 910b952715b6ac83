"""Domain types shared by every module: templates, keys, protected payloads,
scores and scenario tags."""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "SchemeId",
    "Scenario",
    "SchemeParams",
    "SchemeKey",
    "Template",
    "Dataset",
    "BitString",
    "CodeVector",
    "BloomSet",
    "ProtectedTemplate",
    "validate_dataset",
    "as_score",
]


class SchemeId(enum.Enum):
    """The six keyed template-protection transforms."""

    BIOHASH = "biohash"
    MLP_HASH = "mlp-hash"
    BLOOM_FILTER = "bloom"
    IOM_GRP = "iom-grp"
    IOM_URP = "iom-urp"
    RAND_HASH = "rand-hash"

    @classmethod
    def from_name(cls, name: str) -> "SchemeId":
        for member in cls:
            if member.value == name:
                return member
        known = ", ".join(m.value for m in cls)
        raise InvalidArgumentError(f"unknown scheme name {name!r} (known: {known})")


class Scenario(enum.Enum):
    """Key-management scenario under which templates are protected."""

    NORMAL = "normal"  # one secret key per subject
    STOLEN_TOKEN = "stolen"  # a single disclosed key for everyone
    SAMPLE_SPECIFIC = "sample-specific"  # a fresh key per sample (unlinkability runs)

    @classmethod
    def from_name(cls, name: str) -> "Scenario":
        for member in cls:
            if member.value == name:
                return member
        known = ", ".join(m.value for m in cls)
        raise InvalidArgumentError(f"unknown scenario name {name!r} (known: {known})")


def _param(default, help: str, low: int, high: int):
    """A dataclass field holding an integer in [low, high], which
    ``_check_ranges`` checks; pass ``dataclasses.MISSING`` for no default."""
    return field(default=default, metadata={"help": help, "range": (low, high)})


def _check_ranges(cls, **values) -> None:
    """Reject the first of ``values`` that belongs to a ``_param`` field of
    the dataclass ``cls`` (a class or an instance) and is not an integer in
    the field's range (a bool is not an integer), with a message that starts
    with the field name. ``__post_init__`` passes ``self, **vars(self)``."""
    for f in fields(cls):
        if "range" in f.metadata and f.name in values:
            low, high = f.metadata["range"]
            value = values[f.name]
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidArgumentError(f"{f.name} must be an integer, got {value!r}")
            if not low <= value <= high:
                raise InvalidArgumentError(f"{f.name} must be in [{low}, {high}], got {value}")


@dataclass(frozen=True)
class SchemeParams:
    """Transform hyperparameters. ``output_length`` is the common protected
    length: binary schemes emit that many bits, the index-of-max schemes that
    many codes; the Bloom scheme's storage length follows from its block
    structure instead. All fields are integers, described by ``help`` metadata
    and bounded by ``range`` metadata."""

    # Each cap keeps a mistyped size from allocating without bound, and every
    # documented config fits under it.
    # 4096 keeps mlp-hash's L x L layer at 128 MiB
    output_length: int = _param(256, "protected output length", 8, 4096)
    # 256 keeps iom-grp's L x k x d directions at 256 MiB for L = 256, d = 512
    iom_k: int = _param(16, "index-of-max alphabet size", 2, 256)
    # 16 keeps iom-urp's L x p x d permutations at 16 MiB for L = 256, d = 512
    iom_p: int = _param(2, "permutation factors (iom-urp)", 1, 16)
    # 16 keeps mlp-hash's layers at 8 MiB for the default L = 256
    mlp_layers: int = _param(2, "mlp-hash layer count", 1, 16)
    bloom_word_bits: int = _param(4, "bits per bloom column", 2, 16)
    # 1024 columns of 2 bits cover 2048 features, more than a deep template
    # has; wider blocks only draw unused masks
    bloom_block_cols: int = _param(16, "columns per bloom block", 1, 1024)

    def __post_init__(self) -> None:
        _check_ranges(self, **vars(self))


@dataclass(frozen=True)
class SchemeKey:
    """Seed plus parameters; equal keys induce identical transforms."""

    seed: int
    scheme_id: SchemeId
    params: SchemeParams = field(default_factory=SchemeParams)

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise InvalidArgumentError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


@dataclass
class Template:
    """An unprotected real-valued feature vector with subject/sample identity."""

    subject_id: str
    sample_id: str
    features: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 1:
            raise InvalidArgumentError("features must be a 1-D vector")

    @property
    def dimension(self) -> int:
        return self.features.shape[0]


@dataclass
class Dataset:
    """Templates of one dimension, column-wise: row ``i`` of the ``(n, d)`` float64
    ``features`` matrix is sample ``sample_ids[i]`` of subject ``subject_ids[i]``."""

    features: np.ndarray
    subject_ids: list[str]
    sample_ids: list[str]

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        shape = self.features.shape
        if len(shape) != 2 or not shape[0] == len(self.subject_ids) == len(self.sample_ids):
            raise InvalidArgumentError(f"features of shape {shape} need one id pair per row")

    @classmethod
    def from_templates(cls, templates: list[Template]) -> "Dataset":
        """Stack a non-empty list of templates of one dimension, in order."""
        if not templates:
            raise InvalidArgumentError("dataset needs at least one template")
        d = templates[0].dimension
        for t in templates:
            if t.dimension != d:
                raise InvalidArgumentError(
                    f"subject {t.subject_id} sample {t.sample_id}: dimension "
                    f"{t.dimension} != dataset dimension {d}"
                )
        ids = [(t.subject_id, t.sample_id) for t in templates]
        return cls(np.stack([t.features for t in templates]), *map(list, zip(*ids)))

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    @property
    def templates(self) -> list[Template]:
        """The rows as templates whose features are views of ``features``."""
        return [Template(*row) for row in zip(self.subject_ids, self.sample_ids, self.features)]

    def __len__(self) -> int:
        return self.features.shape[0]

    def subject_rows(self) -> dict[str, list[int]]:
        """Each subject's row indices in dataset order, subjects in first-appearance order."""
        rows: dict[str, list[int]] = {}
        for i, subject in enumerate(self.subject_ids):
            rows.setdefault(subject, []).append(i)
        return rows


def validate_dataset(ds: Dataset) -> list[str]:
    """Collect every invariant violation; an empty list means the dataset is valid.

    Checks: at least 2 feature dimensions, finite values (named per
    subject/sample/index), unique (subject, sample) pairs, and at least two
    samples per subject (needed for mated pairs).
    """
    issues = [f"dimension must be >= 2, got {ds.dimension}"] if ds.dimension < 2 else []
    finite = np.isfinite(ds.features)
    flagged = set(np.flatnonzero(~finite.all(axis=1)).tolist())
    seen: set[tuple[str, str]] = set()
    for i, ident in enumerate(zip(ds.subject_ids, ds.sample_ids)):
        if ident in seen:
            issues.append(f"duplicate (subject, sample) pair {ident}")
        seen.add(ident)
        if i in flagged:
            issues += [
                f"subject {ident[0]} sample {ident[1]}: non-finite feature at index {int(idx)}"
                for idx in np.flatnonzero(~finite[i])
            ]
    for subject, rows in ds.subject_rows().items():
        if len(rows) < 2:
            issues.append(f"subject {subject} has only {len(rows)} sample(s); need >= 2")
    return issues


def as_score(value: float) -> float:
    """Validate a similarity score. Out-of-range values are an error, never a
    clamp: a score outside [0, 1] means a comparator is broken."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise InvalidArgumentError(f"score {value!r} outside [0, 1]")
    return value


@dataclass(frozen=True)
class BitString:
    """Binary protected payload (entries 0/1, length = output_length)."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1:
            raise InvalidArgumentError("bits must be a 1-D array")
        if bits.size and bits.max() > 1:
            raise InvalidArgumentError("bits must be 0/1")
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return self.bits.shape[0]


@dataclass(frozen=True)
class CodeVector:
    """Index-of-max protected payload: integer codes, each in [0, k)."""

    codes: np.ndarray
    k: int

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes, dtype=np.int64)
        if codes.ndim != 1:
            raise InvalidArgumentError("codes must be a 1-D array")
        if self.k < 2:
            raise InvalidArgumentError(f"k must be >= 2, got {self.k}")
        if codes.size and (codes.min() < 0 or codes.max() >= self.k):
            raise InvalidArgumentError(f"codes must lie in [0, {self.k})")
        object.__setattr__(self, "codes", codes)

    def __len__(self) -> int:
        return self.codes.shape[0]


@dataclass(frozen=True)
class BloomSet:
    """Bloom protected payload: B filter blocks of 2**word_bits bits each,
    stored as a (B, 2**word_bits) 0/1 array."""

    blocks: np.ndarray

    def __post_init__(self) -> None:
        blocks = np.asarray(self.blocks, dtype=np.uint8)
        if blocks.ndim != 2:
            raise InvalidArgumentError("blocks must be a 2-D array")
        if blocks.size and blocks.max() > 1:
            raise InvalidArgumentError("block entries must be 0/1")
        object.__setattr__(self, "blocks", blocks)


_PAYLOAD_FOR_SCHEME = {
    SchemeId.BIOHASH: BitString,
    SchemeId.MLP_HASH: BitString,
    SchemeId.RAND_HASH: BitString,
    SchemeId.IOM_GRP: CodeVector,
    SchemeId.IOM_URP: CodeVector,
    SchemeId.BLOOM_FILTER: BloomSet,
}


@dataclass(frozen=True)
class ProtectedTemplate:
    """Scheme output. The payload variant must match the scheme: binary
    schemes carry a BitString, index-of-max schemes a CodeVector and the
    Bloom scheme a BloomSet."""

    scheme_id: SchemeId
    payload: BitString | CodeVector | BloomSet

    def __post_init__(self) -> None:
        expected = _PAYLOAD_FOR_SCHEME[self.scheme_id]
        if not isinstance(self.payload, expected):
            raise InvalidArgumentError(
                f"scheme {self.scheme_id.value} requires a {expected.__name__} payload, "
                f"got {type(self.payload).__name__}"
            )

    def to_real_vector(self) -> np.ndarray:
        """Flatten the payload to a real vector (bits and codes as floats,
        Bloom blocks concatenated)."""
        if isinstance(self.payload, BitString):
            return self.payload.bits.astype(np.float64)
        if isinstance(self.payload, CodeVector):
            return self.payload.codes.astype(np.float64)
        return self.payload.blocks.astype(np.float64).ravel()
