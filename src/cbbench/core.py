"""Domain types shared by every module: scheme and scenario tags, keys, the
columnar template dataset and the typed field declarations."""

from __future__ import annotations

import enum
import functools
import numbers
import types
import typing
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "SchemeId",
    "Scenario",
    "SchemeParams",
    "SchemeKey",
    "Dataset",
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
        """The scheme whose value is ``name``, else an error naming it."""
        try:
            return cls(name)
        except ValueError:
            known = ", ".join(m.value for m in cls)
            raise InvalidArgumentError(f"unknown scheme name {name!r} (known: {known})") from None


class Scenario(enum.Enum):
    """Key-management scenario under which templates are protected."""

    NORMAL = "normal"  # one secret key per subject
    STOLEN_TOKEN = "stolen"  # a single disclosed key for everyone
    SAMPLE_SPECIFIC = "sample-specific"  # a fresh key per sample (unlinkability runs)


def _param(default, help: str, low, high):
    """A dataclass field in [low, high] for an ``int``, (low, high] for a ``float``,
    checked by ``_check_ranges``; pass ``dataclasses.MISSING`` for no default."""
    return field(default=default, metadata={"help": help, "range": (low, high)})


def _declared_as(cls, name: str):
    """A field with the default, help and range of field ``name`` of the dataclass ``cls``."""
    (f,) = (f for f in fields(cls) if f.name == name)
    return field(default=f.default, metadata=f.metadata)


def _seed(default, help: str):
    """A ``_param`` field holding an unsigned 64-bit seed: every seed's one range."""
    return _param(default, help, 0, 2**64 - 1)


_NUMBERS = {int: numbers.Integral, float: numbers.Real}
# joins the ids in a key's material (protocol.derive_key), so no id may hold it
_ID_SEPARATOR = "\x1f"


@functools.cache
def _admitted(cls: type) -> list:
    """``(field, classes)`` for each field of the dataclass ``cls``: the
    classes its annotation admits, any integer for ``int``, any real for
    ``float``, either side of ``X | None``, a list for ``list[X]``, else the
    class itself."""
    hints, admitted = typing.get_type_hints(cls), []
    for f in fields(cls):
        hint = hints[f.name]
        arms = typing.get_args(hint) if isinstance(hint, types.UnionType) else [hint]
        admitted.append((f, tuple(typing.get_origin(a) or _NUMBERS.get(a, a) for a in arms)))
    return admitted


def _check_ranges(cls, **values) -> None:
    """Reject the first of ``values`` that its field of the dataclass ``cls``
    (a class or an instance) does not admit by its annotation (a bool is never
    a number) or, for a ``_param`` field, by its range, with a message that
    starts with the field name. ``__post_init__`` passes ``self, **vars(self)``."""
    for f, kinds in _admitted(cls if isinstance(cls, type) else type(cls)):
        if f.name in values:
            value = values[f.name]
            if not isinstance(value, kinds) or isinstance(value, bool) and bool not in kinds:
                raise InvalidArgumentError(f"{f.name} must be {f.type}, got {value!r}")
            if "range" in f.metadata:
                closed = kinds == (numbers.Integral,)
                _number(value, f.name, int if closed else float, *f.metadata["range"], closed)


def _number(value, name: str, kind: type, low, high=float("inf"), closed: bool = True):
    """``value`` if it is a ``kind`` (any integer for ``int``, any real for
    ``float``, never a bool) in [low, high], or (low, high] unless ``closed``,
    else an error naming ``name``: the one check of a scalar. NaN is in no range."""
    if (isinstance(value, bool) or not isinstance(value, _NUMBERS[kind])
            or not (low <= value if closed else low < value) or not value <= high):
        interval = f"{'[' if closed else '('}{low}, {high}]"
        raise InvalidArgumentError(f"{name} must be {kind.__name__} in {interval}, got {value!r}")
    return value


def _array(value, name: str, ndim: int = 2, rows: int = 0, cols: int | None = None, *,
           square: bool = False, finite: bool = True) -> np.ndarray:
    """``value`` as a float64 array of ``ndim`` axes: the one check of an array
    argument. Refuses, with a message that starts with ``name``, ragged rows, a
    dtype other than bool, integer or real (complex, object, str), another
    rank, fewer than ``rows`` rows, a width other than ``cols`` (the row count
    if ``square``) and, if ``finite``, NaN or inf."""
    try:
        m = np.asarray(value)
    except ValueError as exc:  # rows of different lengths, as numpy words it
        raise InvalidArgumentError(f"{name}: the rows differ in length ({exc})") from None
    if m.dtype.kind not in "biuf" or m.ndim != ndim:  # numpy 1.24 has no np.isdtype
        raise InvalidArgumentError(f"{name} must be a {ndim}-D array of real numbers, "
                                   f"got {m.dtype} of shape {m.shape}")
    width = m.shape[0] if square else cols
    if m.shape[0] < rows or width not in (None, m.shape[-1]):
        raise InvalidArgumentError(f"{name} of shape {m.shape} needs at least {rows} rows"
                                   + ("" if width is None else f" and {width} columns"))
    m = m.astype(np.float64, copy=False)
    if finite and not np.isfinite(m).all():
        raise InvalidArgumentError(f"{name} holds NaN or inf")
    return m


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

    seed: int = _seed(MISSING, "seed every random draw of the transform derives from")
    scheme_id: SchemeId
    params: SchemeParams = field(default_factory=SchemeParams)

    def __post_init__(self) -> None:
        _check_ranges(self, **vars(self))


@dataclass
class Dataset:
    """Templates of one dimension, column-wise: row ``i`` of the ``(n, d)`` float64
    ``features`` matrix is sample ``sample_ids[i]`` of subject ``subject_ids[i]``.
    Valid by construction: at least 2 rows, and none of ``validate_dataset``'s
    issues, which one error starting with ``features`` lists."""

    features: np.ndarray
    subject_ids: list[str]
    sample_ids: list[str]

    def __post_init__(self) -> None:
        for name, ids in (("subject_ids", self.subject_ids), ("sample_ids", self.sample_ids)):
            if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
                raise InvalidArgumentError(f"{name} must be a list of str, got {ids!r:.70}")
        # non-finite values are validate_dataset's report, which names the sample
        self.features = _array(self.features, "features", rows=2, finite=False)
        shape = self.features.shape
        if not shape[0] == len(self.subject_ids) == len(self.sample_ids):
            raise InvalidArgumentError(f"features of shape {shape} need one id pair per row")
        if issues := validate_dataset(self):
            raise InvalidArgumentError("features: " + "; ".join(issues))

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]

    def subject_rows(self) -> dict[str, list[int]]:
        """Each subject's row indices in dataset order, subjects in first-appearance order."""
        rows: dict[str, list[int]] = {}
        for i, subject in enumerate(self.subject_ids):
            rows.setdefault(subject, []).append(i)
        return rows


def validate_dataset(ds: Dataset) -> list[str]:
    """Every invariant violation of the dataset's rows, in row order, for
    ``Dataset`` to raise: at least 2 feature dimensions, finite values (named
    per subject/sample/index), unique (subject, sample) pairs of ids without
    the key-material separator, and at least two samples per subject (needed
    for mated pairs). Empty for every ``Dataset`` a caller can hold."""
    issues = [f"dimension must be >= 2, got {ds.dimension}"] if ds.dimension < 2 else []
    finite = np.isfinite(ds.features)
    flagged = set(np.flatnonzero(~finite.all(axis=1)).tolist())
    seen: set[tuple[str, str]] = set()
    for i, ident in enumerate(zip(ds.subject_ids, ds.sample_ids)):
        if ident in seen:
            issues.append(f"duplicate (subject, sample) pair {ident}")
        seen.add(ident)
        if _ID_SEPARATOR in ident[0] + ident[1]:  # two such pairs could derive one key
            issues.append(f"subject {ident[0]!r} sample {ident[1]!r}: an id holds "
                          f"{_ID_SEPARATOR!r}, the key-material separator")
        if i in flagged:
            issues += [
                f"subject {ident[0]} sample {ident[1]}: non-finite feature at index {int(idx)}"
                for idx in np.flatnonzero(~finite[i])
            ]
    for subject, rows in ds.subject_rows().items():
        if len(rows) < 2:
            issues.append(f"subject {subject} has only {len(rows)} sample(s); need >= 2")
    return issues
