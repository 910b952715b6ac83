"""Class-conditional synthetic deep-template generator.

Each subject gets a unit mean direction drawn uniformly from the sphere; each
sample perturbs it with Gaussian noise whose coordinates are scaled to the
mean's coordinate scale (sigma/sqrt(d)), then renormalizes. sigma is thus the
expected noise-to-signal norm ratio and acts as the difficulty knob: raising
it drags mated cosine similarity from 1 toward the non-mated level.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass

import numpy as np

from .core import Dataset, _check_ranges, _param, _seed
from .errors import InvalidArgumentError
from .numerics import derive_stream
from .protocol import ScoreSet, pair_indices

__all__ = ["SynthConfig", "generate", "unprotected_scores", "STANDARD_CONFIG"]


@dataclass(frozen=True)
class SynthConfig:
    # Each cap keeps a mistyped size from allocating without bound.
    # 10 000 subjects make 5e7 non-mated pairs, 400 MB of scores
    subjects: int = _param(MISSING, "subject count", 2, 10_000)
    # 100 samples make 4950 mated pairs per subject
    samples_per_subject: int = _param(MISSING, "samples per subject", 2, 100)
    # as wide as SchemeParams' Bloom blocks cover, more than a deep template has
    dimension: int = _param(MISSING, "feature dimension", 2, 2048)
    # past 1e6 the unit mean is under 1e-6 of a row; from ~1e154 rows overflow to all 0
    noise_sigma: float = _param(MISSING, "noise-to-signal norm ratio", 0, 1e6)
    seed: int = _seed(MISSING, "generator seed")

    def __post_init__(self) -> None:
        _check_ranges(self, **vars(self))
        # the caps above bound each size alone; this bounds the features to 512 MiB
        if self.dimension * self.subjects * self.samples_per_subject > 2**26:
            raise InvalidArgumentError(
                f"dimension x subjects x samples_per_subject must be <= 2**26, got "
                f"{self.dimension} x {self.subjects} x {self.samples_per_subject}"
            )


# benchmark default: small enough that the full six-scheme, three-scenario
# battery runs in minutes on a laptop
STANDARD_CONFIG = SynthConfig(
    subjects=50, samples_per_subject=6, dimension=128, noise_sigma=0.35, seed=42
)


def generate(cfg: SynthConfig) -> Dataset:
    """Generate the synthetic dataset; a pure function of the config."""
    stream = derive_stream(cfg.seed, b"synthdata")
    d = cfg.dimension
    coord_sigma = cfg.noise_sigma / math.sqrt(d)
    n = cfg.samples_per_subject
    features = np.empty((cfg.subjects * n, d))
    for s in range(cfg.subjects):
        mean = stream.normals(d)
        mean /= np.linalg.norm(mean)
        for j in range(n):
            v = mean + coord_sigma * stream.normals(d)
            features[s * n + j] = v / np.linalg.norm(v)
    subjects = [f"s{s:0{len(str(cfg.subjects - 1))}d}" for s in range(cfg.subjects)]
    samples = [f"{j:0{len(str(n - 1))}d}" for j in range(n)]
    return Dataset(features, [s for s in subjects for _ in samples], samples * cfg.subjects)


def unprotected_scores(ds: Dataset) -> ScoreSet:
    """Baseline scores on raw templates: cosine similarity mapped to [0, 1]
    via (1 + cos)/2, over the pairs of ``pair_indices``, one ``np.dot`` per pair."""
    x = ds.features

    def score(i: int, j: int) -> float:
        cos = float(np.dot(x[i], x[j]) / (np.linalg.norm(x[i]) * np.linalg.norm(x[j])))
        cos = min(1.0, max(-1.0, cos))  # guard rounding at |cos| ~ 1
        return (1.0 + cos) / 2.0

    (mated_i, mated_j), (nonmated_i, nonmated_j) = pair_indices(ds)
    mated = np.array([score(i, j) for i, j in zip(mated_i.tolist(), mated_j.tolist())])
    nonmated = np.array([score(i, j) for i, j in zip(nonmated_i.tolist(), nonmated_j.tolist())])
    return ScoreSet(mated=mated, nonmated=nonmated)
