"""Shared oracles and fixtures.

The oracles here deliberately take the dumbest correct path (dense
eigendecompositions, exhaustive threshold sweeps with direct counting,
per-value csv loops) so they stay independent of the library's faster
implementations.
"""

import csv
import io
import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from cbbench.core import Dataset, Scenario, SchemeId, SchemeParams
from cbbench.errors import InvalidArgumentError, ParseError
from cbbench.metrics import mutual_information, protected_matrix
from cbbench.protocol import KeyPolicy, run_scenario
from cbbench.synthdata import STANDARD_CONFIG, generate


def oracle_threshold_sweep(mated: np.ndarray, nonmated: np.ndarray):
    """Exhaustive DET sweep by direct comparison counting at every candidate
    threshold (midpoints of consecutive distinct pooled scores plus
    sentinels). Counts come from broadcast comparisons, chunked to bound
    memory. Returns (thresholds, fmr, fnmr) arrays."""
    mated = np.asarray(mated, dtype=float)
    nonmated = np.asarray(nonmated, dtype=float)
    pooled = np.unique(np.concatenate([mated, nonmated]))
    thresholds = np.concatenate(
        [[pooled[0] - 1.0], (pooled[:-1] + pooled[1:]) / 2.0, [pooled[-1] + 1.0]]
    )
    fmr = np.empty(thresholds.size)
    fnmr = np.empty(thresholds.size)
    for start in range(0, thresholds.size, 512):
        chunk = thresholds[start : start + 512, None]
        fmr[start : start + 512] = (nonmated[None, :] >= chunk).sum(axis=1) / nonmated.size
        fnmr[start : start + 512] = (mated[None, :] < chunk).sum(axis=1) / mated.size
    return thresholds, fmr, fnmr


def oracle_eer(mated: np.ndarray, nonmated: np.ndarray) -> float:
    """EER from the exhaustive sweep: halve fmr+fnmr where |fmr - fnmr| is
    minimal, first (lowest) threshold wins ties."""
    _, fmr, fnmr = oracle_threshold_sweep(mated, nonmated)
    best_gap, best_value = None, None
    for m, nm in zip(fmr, fnmr):
        gap = abs(m - nm)
        if best_gap is None or gap < best_gap:
            best_gap, best_value = gap, (m + nm) / 2.0
    return best_value


def oracle_fnmr_at_fmr(mated: np.ndarray, nonmated: np.ndarray, target: float) -> float:
    """FNMR at the first (lowest) threshold of the exhaustive sweep whose FMR
    is at most the target."""
    _, fmr, fnmr = oracle_threshold_sweep(mated, nonmated)
    for m, nm in zip(fmr, fnmr):
        if m <= target:
            return nm
    raise AssertionError("top sentinel always has fmr == 0")


def scores_of(ds: Dataset, policy: KeyPolicy):
    """The score set of one protect pass: ``run_scenario`` on ``protected_matrix``."""
    return run_scenario(ds, policy, protected_matrix(ds, policy))


def make_dataset(features_by_subject: dict[str, list]) -> Dataset:
    """Hand-build a dataset from {subject_id: [feature vectors]}."""
    ids = [(s, str(i)) for s, feats in features_by_subject.items() for i in range(len(feats))]
    rows = [f for feats in features_by_subject.values() for f in feats]
    return Dataset(rows, [s for s, _ in ids], [i for _, i in ids])


def oracle_pairs(ds: Dataset) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The protocol's (mated, non-mated) row-index pairs by itertools:
    all unordered within-subject sample pairs, subject by subject, then all
    unordered subject pairs on each subject's first sample."""
    subject_rows = {}
    for i, subject in enumerate(ds.subject_ids):
        subject_rows.setdefault(subject, []).append(i)
    mated = [p for rows in subject_rows.values() for p in itertools.combinations(rows, 2)]
    firsts = [rows[0] for rows in subject_rows.values()]
    return mated, list(itertools.combinations(firsts, 2))


def oracle_read_templates(path) -> Dataset:
    """Template CSV reader as one csv.reader loop with a float() per value."""
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if len(header) < 4 or header[0] != "subject_id" or header[1] != "sample_id":
            raise ParseError(f"{path}:1: expected header subject_id,sample_id,f0,...")
        d = len(header) - 2
        if header[2:] != [f"f{i}" for i in range(d)]:
            raise ParseError(f"{path}:1: feature columns must be named f0..f{d - 1}")
        rows, subject_ids, sample_ids = [], [], []
        for lineno, row in enumerate(reader, start=2):
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
            rows.append(features)
            subject_ids.append(row[0])
            sample_ids.append(row[1])
    if not rows:
        raise ParseError(f"{path}: no template rows")
    try:
        return Dataset(np.stack(rows), subject_ids, sample_ids)
    except InvalidArgumentError as exc:
        raise ParseError(f"{path}: invalid dataset: {exc}") from None


def oracle_write_rows(path, header, rows, ids=None) -> None:
    """CSV writer with one repr(float(v)) per value."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, row in enumerate(rows):
            prefix = list(ids[i]) if ids is not None else []
            writer.writerow(prefix + [repr(float(v)) for v in row])


# feature spellings on which float() and a C parser may part, or which the
# csv loop rejects, and ids that need quoting or are not ASCII
ODD_VALUES = ["nan", "-inf", "1e400", "-1e400", "1_0", " 1.5", "2.5 ", "\uff11", "\u0663",
              "\x1c1", "1\x1f", "\x0b3\x0c", "", "abc", "0x10", "1e", "+.5", "-0.0",
              "5e-324", "1,5", "1 2"]
ODD_IDS = ["a,b", 'q"t', '"x"', "na\u00efve", "\u65e5\u672c", "", " ", "x\ny", "c\r"]


@st.composite
def template_csvs(draw):
    """Text of a template CSV: numeric rows in shortest-repr form (signed
    zeros, subnormals and wide exponents among them), up to 135 rows so files
    cross the reader's 64-line blocks, then up to three edits (an odd value or
    id, a row one field short or long, a blank line), written either through
    csv.writer or as raw comma joins, with LF or CRLF ends."""
    d = draw(st.integers(2, 5))
    subjects = draw(st.integers(1, 45))
    samples = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.integers(-330, 300, size=(subjects * samples, d))
    values = rng.standard_normal((subjects * samples, d)) * scale
    values[rng.random(values.shape) < 0.05] = -0.0
    rows = [[f"s{i}", str(j)] + [repr(v) for v in values[i * samples + j].tolist()]
            for i in range(subjects) for j in range(samples)]
    blank_before = set()
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["value", "id", "short", "long", "blank"]))
        r = draw(st.integers(0, len(rows) - 1))
        if edit == "value" and len(rows[r]) > 2:
            rows[r][draw(st.integers(2, len(rows[r]) - 1))] = draw(st.sampled_from(ODD_VALUES))
        elif edit == "id":
            rows[r][draw(st.integers(0, 1))] = draw(st.sampled_from(ODD_IDS))
        elif edit == "short":
            rows[r].pop()
        elif edit == "long":
            rows[r].append("0.5")
        else:
            blank_before.add(r)
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    quoted = draw(st.booleans())
    lines = [",".join(["subject_id", "sample_id"] + [f"f{i}" for i in range(d)]) + end]
    for r, row in enumerate(rows):
        if r in blank_before:
            lines.append(end)
        if quoted:
            buf = io.StringIO()
            csv.writer(buf, lineterminator=end).writerow(row)
            lines.append(buf.getvalue())
        else:
            lines.append(",".join(row) + end)
    text = "".join(lines)
    return text if draw(st.booleans()) else text[: -len(end)]


@pytest.fixture()
def cpus(monkeypatch):
    """``cpus(n)`` gives this process an affinity mask of ``n`` CPUs, the
    worker count ``protected_matrix`` reads, until the test ends."""

    def set_count(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_count


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


# knobs of the reference benchmark, sized to its 300-sample dataset
# (see cbbench.io.standard_benchmark_config)
STANDARD_BINS = 50
STANDARD_MI_COMPONENTS = 16


@pytest.fixture(scope="session")
def standard_battery():
    """Run the full six-scheme battery on the standard synthetic benchmark
    once per session: score sets for all three scenarios plus the
    irreversibility estimates for normal/stolen."""
    start = time.perf_counter()
    ds = generate(STANDARD_CONFIG)
    x = ds.features
    scores = {}
    mi = {}
    for scheme in SchemeId:
        params = SchemeParams()
        for scenario in Scenario:
            policy = KeyPolicy(42, scenario, scheme, params)
            y = protected_matrix(ds, policy)
            scores[(scheme, scenario)] = run_scenario(ds, policy, y)
            if scenario is not Scenario.SAMPLE_SPECIFIC:
                mi[(scheme, scenario)] = mutual_information(x, y, STANDARD_MI_COMPONENTS)
    elapsed = time.perf_counter() - start
    return {"dataset": ds, "scores": scores, "mi": mi, "elapsed_s": elapsed}
