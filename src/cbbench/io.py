"""File formats: template CSVs, DET-point CSVs, benchmark configs and the
JSON benchmark report. All text files are UTF-8 with LF line endings; reals
are rendered with shortest-round-trip precision, so every value written reads
back exactly: a template CSV through ``read_templates``, a DET-point CSV
through ``float()`` of each cell."""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .core import Dataset, SchemeId, SchemeParams, _check_ranges, _declared_as, _seed
from .errors import CbBenchError, InvalidArgumentError, ParseError
from .metrics import DetCurve, _Estimators
from .synthdata import STANDARD_CONFIG, SynthConfig

__all__ = [
    "read_templates",
    "write_templates",
    "write_det_points",
    "write_report",
    "SchemeSpec",
    "BenchmarkConfig",
    "load_config",
    "standard_benchmark_config",
]


# rows per parsed or formatted block: bounds the temporaries of the CSV
# reader and writer, whose whole-file forms raised peak memory
_BLOCK_ROWS = 64
# characters on which loadtxt and the csv loop may part: a quote (quoted
# fields, which may span lines), a carriage return (CRLF ends), NUL (a csv
# error before Python 3.11), and \x1c-\x1f, which loadtxt strips as
# whitespace around a number but float() rejects
_CSV_ONLY = '"\r\0\x1c\x1d\x1e\x1f'
# repr(float(i)) for i in [0, 255], the text of every protected cell
_SMALL_TEXT = np.array([repr(float(i)) for i in range(256)], dtype=object)


def _open_write(path: Path):
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise CbBenchError(f"cannot write {path}: {exc}") from exc


def _id_text(pair) -> str:
    """An id row's fields as csv.writer writes them (minus the line end): a
    plain join unless a field holds a character csv quotes. A CRLF terminator
    makes csv quote a lone ``\r`` too, which csv.reader would split on."""
    if any(c in field for field in pair for c in ',"\r\n'):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(pair)
        return buf.getvalue()[:-2]
    return ",".join(pair)


def _cells(block: np.ndarray) -> list[list[str]]:
    """The ``repr`` of each value of a float64 block, row by row: a block of
    integers in [0, 255] and no ``-0.0``, as every protected block is, indexes
    ``_SMALL_TEXT``; any other block, as a DET block is, formats each value."""
    with np.errstate(invalid="ignore"):  # the cast of a NaN or a huge value
        small = block.astype(np.uint8)
    if (small == block).all() and not np.signbit(block).any():
        return _SMALL_TEXT[small].tolist()
    return [list(map(repr, row)) for row in block.tolist()]


def _write_rows(path: str | Path, header: list[str], values, ids=None) -> None:
    """Write a CSV of ``header`` and one row per row of the ``(n, k)`` float
    array ``values``, each after its ``ids[i]`` fields, byte-identical to
    csv.writer's with a CRLF terminator then cut to LF (so an id holding a
    ``\r`` is quoted): every value is ``repr(float(v))``, the shortest decimal
    that round-trips. Each ``_BLOCK_ROWS`` rows go out as one text of one
    ``",".join`` per row of its id text and its ``_cells``.
    """
    with _open_write(Path(path)) as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for start in range(0, len(values), _BLOCK_ROWS):
            block = np.ascontiguousarray(values[start : start + _BLOCK_ROWS], dtype=np.float64)
            rows = _cells(block)
            if ids is not None:
                for pair, row in zip(ids[start : start + _BLOCK_ROWS], rows):
                    row.insert(0, _id_text(pair))
            fh.write("\n".join(map(",".join, rows)) + "\n")


def _read_rows(rows, path: Path, d: int, first: int, ids: list, blocks: list) -> None:
    """The csv loop: append the ``[subject, sample]`` ids of each csv row,
    numbered from ``first``, to ``ids`` and its features to ``blocks`` as a
    ``(1, d)`` block. The only code that words a row's ParseError."""
    lineno = first - 1
    try:
        for lineno, row in enumerate(rows, start=first):
            if not row:
                continue
            if len(row) != d + 2:
                raise ParseError(f"{path}:{lineno}: expected {d + 2} fields, got {len(row)}")
            try:
                features = np.array([float(v) for v in row[2:]], dtype=np.float64)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            if not np.isfinite(features).all():
                raise ParseError(f"{path}:{lineno}: non-finite feature value")
            ids.append(row[:2])
            blocks.append(features[None])
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(f"{path}:{lineno + 1}: {exc}") from None


@contextmanager
def _utf8(path: Path):
    """Raise a UnicodeDecodeError as a ParseError naming the CSV record of
    ``path`` that holds its first byte that is not UTF-8, counted as every
    other parse error counts (the header is line 1), by re-reading the file:
    the records of the text before that byte, the last completed by a
    stand-in character, so a quoted line break is not a record of its own."""
    try:
        yield
    except UnicodeDecodeError as exc:
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as first:
            text = io.StringIO(data[: first.start].decode("utf-8") + "x", newline="")
            try:
                lineno = sum(1 for _ in csv.reader(text))
            except csv.Error:  # an earlier record the reader refuses too
                raise ParseError(f"{path}: not UTF-8: {first}") from None
            raise ParseError(f"{path}:{lineno}: not UTF-8: {first}") from None
        raise ParseError(f"{path}: not UTF-8: {exc}") from None  # the file changed meanwhile


def _parse_block(lines: list[str], d: int):
    """``(ids, features)`` of a block of body lines, as ``[subject, sample]``
    lists and a ``(rows, d)`` array parsed by one C-level ``loadtxt``, or None
    where the csv loop must read it: a character of ``_CSV_ONLY`` or an
    over-long line in the block, a row of the wrong width (loadtxt refuses
    ragged rows, the shape check uniform ones), a value loadtxt refuses or a
    non-finite value. Blank lines are skipped, as csv.reader yields them as
    empty rows."""
    # line by line: a joined block can pass 128 KiB, and freeing an allocation
    # that large raises glibc's mmap threshold and with it later peak memory
    if max(map(len, lines)) > csv.field_size_limit() or any(
        c in line for line in lines for c in _CSV_ONLY
    ):
        return None
    ids, rests = [], []
    for line in lines:
        if line == "\n":
            continue
        parts = line.split(",", 2)
        if len(parts) != 3:
            return None
        ids.append(parts[:2])
        rests.append(parts[2])
    if not rests:
        return ids, np.empty((0, d))
    try:
        features = np.loadtxt(rests, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if features.shape != (len(rests), d) or not np.isfinite(features).all():
        return None
    return ids, features


def read_templates(path: str | Path) -> Dataset:
    """Read a template CSV (header ``subject_id,sample_id,f0,...``).

    Raises ParseError naming the offending line for malformed headers, rows
    of the wrong width, unparseable or non-finite values, and for datasets
    violating the core invariants (duplicate ids, subjects with one sample).

    The body is read in blocks of ``_BLOCK_ROWS`` lines, each parsed in C by
    ``loadtxt``, which rounds a value exactly as ``float()`` does. From the
    first block it cannot take as the csv loop would (see ``_parse_block``),
    the csv loop reads the rest of the file, so results and errors are the
    csv loop's.
    """
    path = Path(path)
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"cannot read templates from {path}: {exc}") from exc
    with fh, _utf8(path):
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise ParseError(f"{path}:1: {exc}") from None
        if len(header) < 4 or header[0] != "subject_id" or header[1] != "sample_id":
            raise ParseError(f"{path}:1: expected header subject_id,sample_id,f0,...")
        d = len(header) - 2
        expected_features = [f"f{i}" for i in range(d)]
        if header[2:] != expected_features:
            raise ParseError(f"{path}:1: feature columns must be named f0..f{d - 1}")
        ids, blocks = [], []  # [subject, sample] per row; (rows, d) feature blocks
        lineno = 2
        while lines := list(islice(fh, _BLOCK_ROWS)):
            parsed = _parse_block(lines, d)
            if parsed is None:
                _read_rows(csv.reader(chain(lines, fh)), path, d, lineno, ids, blocks)
                break
            ids += parsed[0]
            blocks.append(parsed[1])
            lineno += len(lines)
    if not ids:
        raise ParseError(f"{path}: no template rows")
    with _naming(f"{path}: invalid dataset"):
        return Dataset(np.concatenate(blocks), *map(list, zip(*ids)))


def write_templates(ds: Dataset, path: str | Path) -> None:
    """Write a dataset as a template CSV readable by :func:`read_templates`."""
    header = ["subject_id", "sample_id"] + [f"f{i}" for i in range(ds.dimension)]
    _write_rows(path, header, ds.features, list(zip(ds.subject_ids, ds.sample_ids)))


def write_det_points(curve: DetCurve, path: str | Path) -> None:
    """Emit ``threshold,fmr,fnmr`` rows sorted by threshold ascending."""
    order = np.argsort(curve.thresholds)
    _write_rows(
        path,
        ["threshold", "fmr", "fnmr"],
        np.column_stack([curve.thresholds[order], curve.fmr[order], curve.fnmr[order]]),
    )


def write_report(report: dict, path: str | Path) -> None:
    """Serialize a benchmark report as pretty-printed JSON with sorted keys
    (deterministic apart from whatever timestamp the caller put in). A numpy
    scalar is written as its Python value; any other value json cannot write
    raises json's TypeError, from ``np.generic.item``."""
    path = Path(path)
    with _open_write(path) as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=np.generic.item)
        fh.write("\n")


@dataclass(frozen=True)
class SchemeSpec:
    """One scheme to benchmark, with its own parameter set."""

    scheme_id: SchemeId
    params: SchemeParams = field(default_factory=SchemeParams)

    def __post_init__(self) -> None:
        _check_ranges(self, **vars(self))


@dataclass(frozen=True)
class BenchmarkConfig:
    """Full benchmark description.

    ``scenarios`` selects the performance/irreversibility grid (normal and/or
    stolen); the sample-specific unlinkability pass always runs once per
    scheme. Input is either ``synthetic``, a synthetic config, or
    ``templates``, a template CSV path; a config file keys each field by its name.
    """

    schemes: list[SchemeSpec]
    scenarios: list[str]
    master_seed: int = _seed(42, "master seed every key derives from")
    unlinkability_bins: int = _declared_as(_Estimators, "bins")
    mi_components: int = _declared_as(_Estimators, "r")
    synthetic: SynthConfig | None = None
    templates: str | None = None
    output_dir: str = "."

    def __post_init__(self) -> None:
        _check_ranges(self, **vars(self))
        if not self.schemes or not all(isinstance(s, SchemeSpec) for s in self.schemes):
            raise InvalidArgumentError("schemes must list at least one scheme, each a SchemeSpec")
        if not self.scenarios or any(s not in ("normal", "stolen") for s in self.scenarios):
            raise InvalidArgumentError(
                f"scenarios must list 'normal' and/or 'stolen', got {self.scenarios!r} "
                "(the sample-specific unlinkability pass always runs)"
            )
        cells = [f"{s.scheme_id.value}_{c}" for s in self.schemes for c in self.scenarios]
        twice = next((c for i, c in enumerate(cells) if c in cells[:i]), None)
        if twice is not None:  # a DET CSV is named by its cell's scheme and scenario only
            raise InvalidArgumentError(
                f"schemes and scenarios repeat the cell {twice}, whose two runs would write one "
                f"DET CSV, det_{twice}.csv; list each once, one config per parameter set"
            )
        if (self.synthetic is None) == (self.templates is None):
            raise InvalidArgumentError(
                "config needs exactly one input source: 'synthetic' or 'templates'"
            )


def standard_benchmark_config() -> BenchmarkConfig:
    """The reference desk-scale benchmark: all six schemes with default
    parameters on the standard synthetic dataset, normal and stolen scenarios.

    The estimator knobs are sized to the 300-sample dataset: 50 histogram
    bins keep ~15 mated scores per occupied bin, and 16 reduced features keep
    ~9 samples per joint Gaussian dimension. Larger values overfit at this
    scale (the sample canonical correlations saturate), drowning the
    normal-vs-stolen irreversibility ordering in estimation noise.
    """
    return BenchmarkConfig(
        schemes=[SchemeSpec(scheme) for scheme in SchemeId],
        scenarios=["normal", "stolen"],
        master_seed=42,
        unlinkability_bins=50,
        mi_components=16,
        synthetic=STANDARD_CONFIG,
    )


@contextmanager
def _naming(where):
    """Raise an InvalidArgumentError of a dataclass check, whose message
    starts with the field name, as a ParseError that says ``where`` first."""
    try:
        yield
    except InvalidArgumentError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _build(cls, data, where: str, **base):
    """``cls(**{**base, **data})`` for the JSON object ``data``, whose keys must be
    fields of the dataclass ``cls`` and, with ``base``, cover each field without
    a default; a ParseError says ``where`` first."""
    if not isinstance(data, dict):
        raise ParseError(f"{where} must be an object, got {data!r}")
    unknown = set(data) - {f.name for f in fields(cls)}
    missing = {f.name for f in fields(cls) if f.default is f.default_factory is MISSING}
    missing -= set(base) | set(data)
    faults = [f"{kind} key(s) {sorted(keys)}"
              for kind, keys in (("unknown", unknown), ("missing", missing)) if keys]
    if faults:
        raise ParseError(f"{where}: {', '.join(faults)}")
    with _naming(where):
        return cls(**{**base, **data})


def load_config(path: str | Path, master_seed: int | None = None) -> BenchmarkConfig:
    """Parse and validate a JSON benchmark config.

    The keys are the ``BenchmarkConfig`` fields and "params", the defaults
    of schemes without their own; a scheme entry is a bare name ("biohash")
    or an object {"name": ..., "params": {...}}. The top level is checked as
    each nested object is, by ``_build``: keys left out take their dataclass
    defaults, the synthetic seed the master seed, and a missing, unknown or
    ill-typed key (``templates`` too) or a value out of range raises
    ParseError naming the key. Of two faults the first found is named: a bad
    ``master_seed``, then ``synthetic``, ``params``, each scheme in turn,
    and last the rest of the top level. A ``master_seed`` other than None
    stands in for the file's, as if the file held it (so it seeds ``synthetic``).
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an integer too long to convert
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    if master_seed is not None:
        data["master_seed"] = master_seed
    seed = data.get("master_seed", BenchmarkConfig.master_seed)
    with _naming(path):  # before it seeds synthetic, so a bad one is named as itself
        _check_ranges(BenchmarkConfig, master_seed=seed)
    if "synthetic" in data:
        data["synthetic"] = _build(SynthConfig, data["synthetic"], f"{path}: synthetic", seed=seed)

    base_params = _build(SchemeParams, data.pop("params", {}), f"{path}: params")
    schemes = data.get("schemes", [])  # each entry becomes its SchemeSpec in place
    if not isinstance(schemes, list):
        raise ParseError(f"{path}: schemes must be a list, got {schemes!r}")
    for i, entry in enumerate(schemes):
        entry = {"name": entry} if isinstance(entry, str) else entry
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and set(entry) <= {"name", "params"}):
            raise ParseError(
                f"{path}: schemes entries must be names or objects with a 'name' and "
                f"optional 'params', got {entry!r}"
            )
        with _naming(f"{path}: schemes"):
            scheme = SchemeId(entry["name"])
        merged = _build(
            SchemeParams, entry.get("params", {}),
            f"{path}: scheme {entry['name']} params", **vars(base_params),
        )
        schemes[i] = SchemeSpec(scheme, merged)
    return _build(BenchmarkConfig, data, str(path))
