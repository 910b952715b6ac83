"""Key-derivation policy per scenario and mated/non-mated score generation.

Pairing convention: unordered pairs throughout. Mated comparisons take all
sample pairs within each subject; non-mated comparisons take all subject
pairs using each subject's first sample. Every comparator is symmetric, so an
ordered convention would only duplicate scores without moving any metric.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field

import numpy as np

from .core import Dataset, Scenario, SchemeId, SchemeKey, SchemeParams, _array, _check_ranges
from .core import _ID_SEPARATOR, _seed
from .errors import InvalidArgumentError
from .numerics import _keyed_hash
from .schemes import _pair_scorer, instantiate, protect_batch

__all__ = [
    "KeyPolicy", "ScoreSet", "derive_key", "pair_indices", "protected_matrix", "run_scenario",
]

_STOLEN_LABEL = b"stolen-token"
_BLOCK_ROWS = 64  # rows per protect_batch call, and per job where one key serves all rows
_SCORE_PAIRS = 4096  # pairs per scoring call: 128 KiB a side of packed 256-bit rows


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
    and sample, joined by ``\\x1f``, so a joined id holding it is refused by name.
    The key's seed is the 8-byte ``numerics._keyed_hash`` of the master seed and
    those ids, or ``b"stolen-token"`` for stolen.
    """
    parts = _identity(policy, subject_id, sample_id)
    for name, part in zip(("subject_id", "sample_id"), parts):
        if len(parts) > 1 and _ID_SEPARATOR in part:
            raise InvalidArgumentError(f"{name} {part!r} holds {_ID_SEPARATOR!r}, "
                                       "the key-material separator")
    label = _ID_SEPARATOR.join(parts).encode("utf-8") if parts else _STOLEN_LABEL
    seed = _keyed_hash(policy.master_seed, label, 8)
    return SchemeKey(seed=seed, scheme_id=policy.scheme_id, params=policy.params)


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
    """Mated and non-mated similarity scores and the scenario of the keys
    behind them, None for unprotected scores (``unlinkability`` needs sample-specific).

    Score arrays are non-empty, within [0, 1] and stored sorted ascending, so
    that ``compute_det`` counts scores below a threshold by binary search.
    """

    mated: np.ndarray
    nonmated: np.ndarray
    scenario: Scenario | None = None

    def __post_init__(self) -> None:
        for name, needs in (("mated", "a mated pair needs a subject with two samples"),
                            ("nonmated", "a non-mated pair needs at least two subjects")):
            # sorted, so a NaN is last and fails the range check, as inf does
            scores = np.sort(_array(getattr(self, name), name, ndim=1, finite=False))
            if not scores.size:
                raise InvalidArgumentError(f"{name} is empty: {needs}")
            if not (scores[0] >= 0 and scores[-1] <= 1):
                raise InvalidArgumentError(f"{name} scores must be finite and within [0, 1]")
            setattr(self, name, scores)


def protected_matrix(ds: Dataset, policy: KeyPolicy) -> np.ndarray:
    """Protect the whole dataset under the policy and stack the float64
    ``protect_batch`` rows in dataset order (bits as 0/1, codes as integers,
    Bloom blocks concatenated): the attacker's view of the protected database.

    The work is one list of jobs ``(key, rows, inst)``: one per key, or for a
    lone key (stolen) one per 64-row block, all sharing its one instance. A job
    writes its rows straight into the result, 64 per ``protect_batch`` call; a
    job without an instance instantiates its key and drops it when done, so at
    most ``workers`` instances are alive, one per CPU of the affinity mask
    (else ``os.cpu_count()``). The first job runs alone on the calling thread
    and its first block sizes the result (allocated earlier, it raised the
    CLI's serial peak RSS 0.4-1.5 MB); the rest are dealt round-robin to it
    and up to ``workers - 1`` pool threads (Philox draws and LAPACK QR release
    the GIL). No thread starts on one CPU or for a lone key of at most 64
    rows. Results are bit-identical for any CPU count.
    """
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    rows_of: dict[tuple[str, ...], list[int]] = {}
    for i, ident in enumerate(zip(ds.subject_ids, ds.sample_ids)):
        rows_of.setdefault(_identity(policy, *ident), []).append(i)
    jobs = [(derive_key(policy, ds.subject_ids[rows[0]], ds.sample_ids[rows[0]]), rows, None)
            for rows in rows_of.values()]
    if len(jobs) == 1:
        key, rows, _ = jobs[0]
        inst = instantiate(key, ds.dimension)
        jobs = [(key, rows[s : s + _BLOCK_ROWS], inst) for s in range(0, len(rows), _BLOCK_ROWS)]
    y = None

    def protect(rows: list[int], inst) -> None:
        nonlocal y
        for s in range(0, len(rows), _BLOCK_ROWS):
            block = rows[s : s + _BLOCK_ROWS]
            part = protect_batch(ds.features[block], inst)
            if y is None:
                y = np.empty((len(ds), part.shape[1]))
            y[block] = part

    def run(share) -> None:
        for key, rows, inst in share:
            # the instance is an argument, so it dies before the next key's
            protect(rows, inst or instantiate(key, ds.dimension))

    run(jobs[:1])
    n = max(1, min(workers, len(jobs) - 1))
    if n == 1:
        run(jobs[1:])
    else:
        with ThreadPoolExecutor(max_workers=n - 1) as pool:
            futures = [pool.submit(run, jobs[1 + s :: n]) for s in range(1, n)]
            run(jobs[1::n])
            for future in futures:
                future.result()
    return y


def run_scenario(ds: Dataset, policy: KeyPolicy, protected: np.ndarray) -> ScoreSet:
    """Score the mated and non-mated pairs of ``pair_indices`` on
    ``protected``, the dataset's ``protected_matrix`` under the policy. The
    float64 matrix is packed to bytes once (bits eight to a byte, codes one to
    a byte, Bloom blocks to bytes with their popcounts), then scored on the
    calling thread in chunks of 4096 pairs by the scorer ``similarities``
    uses, so scores equal ``similarities`` of each pair, bit for bit.
    """
    y = _array(protected, "protected", finite=False)  # NaN fails the row-kind check in scoring
    if y.shape[0] != len(ds):
        raise InvalidArgumentError(f"protected has {y.shape[0]} rows, expected {len(ds)}")
    score = _pair_scorer(policy.scheme_id, policy.params, y)

    def scores(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        out = np.empty(len(i))
        for s in range(0, len(i), _SCORE_PAIRS):
            c = slice(s, s + _SCORE_PAIRS)
            out[c] = score(i[c], j[c])
        return out

    mated, nonmated = pair_indices(ds)
    return ScoreSet(mated=scores(*mated), nonmated=scores(*nonmated), scenario=policy.scenario)
