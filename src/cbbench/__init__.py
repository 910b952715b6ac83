"""cbbench: benchmarking toolkit for keyed biometric template protection.

Six cancelable transforms (biohash, mlp-hash, bloom, iom-grp, iom-urp,
rand-hash) plus the standard evaluation battery: recognition performance
(DET/EER/FNMR@FMR), unlinkability of score distributions under
sample-specific keys, and irreversibility as Gaussian-approximated mutual
information between unprotected and protected template sets.
"""

__version__ = "0.1.0"

from .core import Dataset, Scenario, SchemeId, SchemeKey, SchemeParams
from .errors import (
    CbBenchError,
    DegenerateInputError,
    InvalidArgumentError,
    NumericError,
    ParseError,
)
from .metrics import (
    DetCurve,
    IrreversibilityReport,
    UnlinkabilityReport,
    compute_det,
    eer,
    fnmr_at_fmr,
    mutual_information,
    protected_matrix,
    unlinkability,
)
from .numerics import (
    PcaModel,
    RandomStream,
    covariance,
    default_ridge,
    derive_stream,
    gaussian_entropy,
    gaussian_matrix,
    gram_schmidt,
    pca_fit,
    pca_transform,
)
from .io import (
    BenchmarkConfig,
    SchemeSpec,
    load_config,
    read_det_points,
    read_templates,
    standard_benchmark_config,
    write_det_points,
    write_report,
    write_templates,
)
from .protocol import KeyPolicy, ScoreSet, derive_key, pair_indices, run_scenario
from .schemes import chance_level, compare, instantiate, protect, protect_batch, similarities
from .synthdata import STANDARD_CONFIG, SynthConfig, generate, unprotected_scores

__all__ = [
    "__version__",
    # core
    "Dataset", "SchemeId", "Scenario", "SchemeParams", "SchemeKey",
    # errors
    "CbBenchError", "InvalidArgumentError", "DegenerateInputError", "NumericError",
    "ParseError",
    # numerics
    "RandomStream", "derive_stream", "gaussian_matrix", "gram_schmidt", "PcaModel",
    "pca_fit", "pca_transform", "covariance", "default_ridge", "gaussian_entropy",
    # schemes
    "instantiate", "protect_batch", "similarities", "protect", "compare", "chance_level",
    # protocol
    "KeyPolicy", "ScoreSet", "derive_key", "pair_indices", "run_scenario",
    # metrics
    "DetCurve", "compute_det", "eer", "fnmr_at_fmr", "UnlinkabilityReport", "unlinkability",
    "IrreversibilityReport", "mutual_information", "protected_matrix",
    # synthdata
    "SynthConfig", "STANDARD_CONFIG", "generate", "unprotected_scores",
    # io
    "BenchmarkConfig", "SchemeSpec", "load_config", "standard_benchmark_config",
    "read_templates", "write_templates", "read_det_points", "write_det_points",
    "write_report",
]
