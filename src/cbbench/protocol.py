"""Key-derivation policy per scenario and mated/non-mated score generation.

Pairing convention: unordered pairs throughout. Mated comparisons take all
sample pairs within each subject; non-mated comparisons take all subject
pairs using each subject's first sample. Every comparator is symmetric, so an
ordered convention would only duplicate scores without moving any metric.
"""

from __future__ import annotations

import hashlib
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field

import numpy as np

from .core import Dataset, Scenario, SchemeId, SchemeKey, SchemeParams, _check_ranges, _seed
from .errors import InvalidArgumentError
from .schemes import instantiate, protect_batch, similarities

__all__ = [
    "KeyPolicy", "ScoreSet", "derive_key", "pair_indices", "protected_matrix", "run_scenario",
]

_STOLEN_LABEL = b"stolen-token"
_ID_SEPARATOR = b"\x1f"  # keeps ("ab", "c") distinct from ("a", "bc")
_BLOCK_ROWS = 64  # rows per protect_batch call (bounds the iom temporaries), pairs per score call


def _hash64(parts: list[bytes]) -> int:
    """Fixed 64-bit mix of the byte concatenation (BLAKE2b-64, big endian);
    stable across platforms and releases by construction."""
    return int.from_bytes(hashlib.blake2b(b"".join(parts), digest_size=8).digest(), "big")


@dataclass(frozen=True)
class KeyPolicy:
    """How per-template keys derive from the master seed in one scenario."""

    master_seed: int = _seed(MISSING, "master seed every key derives from")
    scenario: Scenario
    scheme_id: SchemeId
    params: SchemeParams = field(default_factory=SchemeParams)

    def __post_init__(self) -> None:
        _check_ranges(self, **vars(self))


def _identity(policy: KeyPolicy, subject_id: str, sample_id: str) -> tuple[str, ...]:
    """The identity parts the policy's scenario keys on: none (stolen), the
    subject (normal) or the subject and the sample (sample-specific)."""
    if policy.scenario is Scenario.STOLEN_TOKEN:
        return ()
    if policy.scenario is Scenario.NORMAL:
        return (subject_id,)
    return (subject_id, sample_id)


def derive_key(policy: KeyPolicy, subject_id: str, sample_id: str = "") -> SchemeKey:
    """Derive the scheme key a template is protected with.

    Stolen-token ignores identity entirely (one disclosed key for everyone),
    normal keys on the subject only, and sample-specific keys on both subject
    and sample.
    """
    parts = _identity(policy, subject_id, sample_id)
    label = _ID_SEPARATOR.join(part.encode("utf-8") for part in parts) if parts else _STOLEN_LABEL
    material = [int(policy.master_seed).to_bytes(8, "big"), label]
    return SchemeKey(seed=_hash64(material), scheme_id=policy.scheme_id, params=policy.params)


def _pairs_within(order: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order[a], order[b])`` for every ``a < b`` within each run of ``counts``
    entries of ``order``, run by run, in ``itertools.combinations`` order."""
    a = np.arange(len(order))
    later = np.repeat(np.cumsum(counts), counts) - a - 1  # entries after a in its run
    # a's pairs fill the slots from cumsum(later)[a] - later[a] on, with b from a + 1 on
    b = np.arange(later.sum()) + np.repeat(a + 1 - np.cumsum(later) + later, later)
    return np.repeat(order, later), order[b]


def pair_indices(ds: Dataset) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Row indices ``((mated_i, mated_j), (nonmated_i, nonmated_j))`` of all
    within-subject sample pairs and all pairs of subjects' first samples, in
    ``itertools.combinations`` order with subjects in first-appearance order."""
    subject_rows = list(ds.subject_rows().values())
    counts = np.array([len(rows) for rows in subject_rows])
    firsts = np.array([rows[0] for rows in subject_rows])
    mated = _pairs_within(np.concatenate(subject_rows), counts)
    return mated, _pairs_within(firsts, np.array([firsts.size]))


@dataclass
class ScoreSet:
    """Mated and non-mated similarity scores for one (scheme, scenario) run.

    Score arrays are stored sorted ascending so that any evaluation order
    (serial or parallel) produces a bit-identical value.
    """

    mated: np.ndarray
    nonmated: np.ndarray
    scheme_id: SchemeId | None
    scenario: Scenario | None

    def __post_init__(self) -> None:
        self.mated = np.sort(np.asarray(self.mated, dtype=np.float64))
        self.nonmated = np.sort(np.asarray(self.nonmated, dtype=np.float64))
        for name, arr in (("mated", self.mated), ("nonmated", self.nonmated)):
            if arr.ndim != 1:
                raise InvalidArgumentError(f"{name} scores must be 1-D")
            if arr.size and (not np.isfinite(arr).all() or arr.min() < 0 or arr.max() > 1):
                raise InvalidArgumentError(f"{name} scores must be finite and within [0, 1]")


def protected_matrix(ds: Dataset, policy: KeyPolicy, workers: int = 1) -> np.ndarray:
    """Protect the whole dataset under the policy and stack the ``protect_batch``
    rows in dataset order (bits as 0/1, codes as integers, Bloom blocks
    concatenated): the attacker's view of the protected database.

    Rows are grouped by the identity their scenario keys on, and each
    group's key is derived and instantiated once, protects its rows with one
    ``protect_batch`` call per block of up to 64 rows and is dropped, so at
    most ``workers`` instances are alive. The first key's rows are stacked
    on the calling thread and size the result (allocating the result before
    them left the CLI's serial peak RSS 0.4-1.5 MB higher, from heap
    layout); every other key writes its blocks straight into the result.
    Those keys are dealt round-robin to the calling thread and up to
    ``workers - 1`` pool threads (key instantiation, Philox draws and LAPACK
    QR, releases the GIL); no thread starts for a single key or
    ``workers == 1``. Results are bit-identical for every ``workers``.
    """
    rows_of: dict[tuple[str, ...], list[int]] = {}
    for i, ident in enumerate(zip(ds.subject_ids, ds.sample_ids)):
        rows_of.setdefault(_identity(policy, *ident), []).append(i)
    groups = {
        derive_key(policy, ds.subject_ids[rows[0]], ds.sample_ids[rows[0]]): rows
        for rows in rows_of.values()
    }

    def protected_blocks(key: SchemeKey):
        """(rows, protected rows) per block of the key's rows, from one instance."""
        inst = instantiate(key, ds.dimension)
        rows = groups[key]
        for s in range(0, len(rows), _BLOCK_ROWS):
            block = rows[s : s + _BLOCK_ROWS]
            yield block, protect_batch(ds.features[block], inst)

    def fill(blocks) -> None:
        for rows, part in blocks:
            y[rows] = part

    first, *rest = groups
    head = np.vstack([part for _, part in protected_blocks(first)])
    y = np.empty((len(ds), head.shape[1]))
    y[groups[first]] = head
    n = max(1, min(workers, len(rest)))
    stripes = [itertools.chain.from_iterable(map(protected_blocks, rest[s::n])) for s in range(n)]
    if n == 1:
        fill(stripes[0])
        return y
    with ThreadPoolExecutor(max_workers=n - 1) as pool:
        futures = [pool.submit(fill, stripe) for stripe in stripes[1:]]
        fill(stripes[0])
        for future in futures:
            future.result()
    return y


def run_scenario(
    ds: Dataset, policy: KeyPolicy, workers: int = 1, protected: np.ndarray | None = None
) -> ScoreSet:
    """Score the mated and non-mated pairs of ``pair_indices`` on the dataset
    protected under the policy, in chunks of 64 or more pairs (up to 2**14
    values a side) with ``similarities`` (so scores equal ``compare`` of each
    pair).

    ``protected`` reuses a ``protected_matrix(ds, policy)`` the caller already
    has; without it the matrix is computed here, on ``workers`` threads.
    """
    y = protected_matrix(ds, policy, workers) if protected is None else protected
    if y.shape[0] != len(ds):
        raise InvalidArgumentError(f"protected matrix has {y.shape[0]} rows, expected {len(ds)}")

    # 64 pairs of the default 256-value rows per call, more pairs of shorter rows,
    # whose per-call overhead (Bloom's ~10 small numpy calls) would dominate
    chunk = max(_BLOCK_ROWS, 2**14 // max(1, y.shape[1]))

    def scores(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        out = np.empty(len(i))
        for s in range(0, len(i), chunk):
            c = slice(s, s + chunk)
            out[c] = similarities(policy.scheme_id, policy.params, y[i[c]], y[j[c]])
        return out

    mated, nonmated = pair_indices(ds)
    return ScoreSet(
        mated=scores(*mated), nonmated=scores(*nonmated),
        scheme_id=policy.scheme_id, scenario=policy.scenario,
    )
