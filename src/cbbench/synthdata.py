"""Class-conditional synthetic deep-template generator.

Each subject gets a unit mean direction drawn uniformly from the sphere; each
sample perturbs it with Gaussian noise whose coordinates are scaled to the
mean's coordinate scale (sigma/sqrt(d)), then renormalizes. sigma is thus the
expected noise-to-signal norm ratio and acts as the difficulty knob: raising
it drags mated cosine similarity from 1 toward the non-mated level.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .core import Dataset, Template, _check_ranges, _param
from .errors import InvalidArgumentError
from .numerics import derive_stream
from .protocol import ScoreSet, mated_pairs, nonmated_pairs

__all__ = ["SynthConfig", "generate", "unprotected_scores", "STANDARD_CONFIG"]


# accepted types of a SynthConfig field by its annotation (a string here)
_FIELD_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number")}


@dataclass(frozen=True)
class SynthConfig:
    # Each cap keeps a mistyped size from allocating without bound.
    # 10 000 subjects make 5e7 non-mated pairs, 400 MB of scores
    subjects: int = _param(MISSING, "subject count", 2, 10_000)
    # 100 samples make 4950 mated pairs per subject
    samples_per_subject: int = _param(MISSING, "samples per subject", 2, 100)
    # as wide as SchemeParams' Bloom blocks cover, more than a deep template has
    dimension: int = _param(MISSING, "feature dimension", 2, 2048)
    noise_sigma: float
    seed: int

    def __post_init__(self) -> None:
        for f in fields(self):
            kind, what = _FIELD_KINDS[f.type]
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, kind):  # a bool is no number
                raise InvalidArgumentError(f"{f.name} must be {what}, got {value!r}")
        _check_ranges(self)
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma > 0):
            raise InvalidArgumentError(
                f"noise_sigma must be finite and > 0, got {self.noise_sigma}"
            )
        if not 0 <= self.seed < 2**64:
            raise InvalidArgumentError(f"seed must be in [0, 2**64), got {self.seed}")


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
    subject_width = len(str(cfg.subjects - 1))
    sample_width = len(str(cfg.samples_per_subject - 1))
    templates: list[Template] = []
    for s in range(cfg.subjects):
        mean = stream.normals(d)
        mean /= np.linalg.norm(mean)
        for j in range(cfg.samples_per_subject):
            v = mean + coord_sigma * stream.normals(d)
            v /= np.linalg.norm(v)
            templates.append(
                Template(
                    subject_id=f"s{s:0{subject_width}d}",
                    sample_id=f"{j:0{sample_width}d}",
                    features=v,
                )
            )
    return Dataset(templates=templates, dimension=d)


def unprotected_scores(ds: Dataset) -> ScoreSet:
    """Baseline scores on raw templates: cosine similarity mapped to [0, 1]
    via (1 + cos)/2, over the standard mated/non-mated pair lists."""

    def score(a: Template, b: Template) -> float:
        cos = float(
            np.dot(a.features, b.features)
            / (np.linalg.norm(a.features) * np.linalg.norm(b.features))
        )
        cos = min(1.0, max(-1.0, cos))  # guard rounding at |cos| ~ 1
        return (1.0 + cos) / 2.0

    mated = np.array([score(a, b) for a, b in mated_pairs(ds)])
    nonmated = np.array([score(a, b) for a, b in nonmated_pairs(ds)])
    return ScoreSet(mated=mated, nonmated=nonmated, scheme_id=None, scenario=None)
