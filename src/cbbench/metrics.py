"""The three evaluation families: recognition performance (DET/EER/FNMR@FMR),
unlinkability from mated/non-mated score distributions, and irreversibility
as mutual information between reduced unprotected and protected template sets
under a multivariate Gaussian approximation. All entropies and mutual
informations are in nats."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Scenario, _array, _check_ranges, _number, _param
from .errors import InvalidArgumentError
from .numerics import covariance, default_ridge, gaussian_entropy, pca_fit
from .protocol import ScoreSet, protected_matrix  # protected_matrix only for perfbench's tracer

__all__ = [
    "DetCurve",
    "compute_det",
    "eer",
    "fnmr_at_fmr",
    "UnlinkabilityReport",
    "unlinkability",
    "IrreversibilityReport",
    "mutual_information",
]

# per-feature shared information beyond this many nats means the residual
# variance sits at the ridge floor: the protected set is effectively a
# deterministic function of the unprotected one
_NEAR_DETERMINISTIC_NATS_PER_DIM = 3.0


@dataclass(frozen=True)
class _Estimators:
    """The estimator settings' one declaration: ``unlinkability`` and
    ``mutual_information`` check their arguments against it, and
    ``BenchmarkConfig`` declares its two fields as these."""

    # 10 000 bins keep the histograms and the local curve at 80 KB each
    bins: int = _param(100, "unlinkability histogram bins", 10, 10_000)
    # r_used never exceeds either matrix's width; 4096 is the output_length cap
    r: int = _param(100, "reduced feature count for both MI sets", 1, 4096)


@dataclass
class DetCurve:
    """Detection error tradeoff: false match and false non-match rates at
    each candidate threshold, thresholds ascending. fmr is non-increasing and
    fnmr non-decreasing along the curve."""

    thresholds: np.ndarray
    fmr: np.ndarray
    fnmr: np.ndarray


def compute_det(scores: ScoreSet) -> DetCurve:
    """Trace the DET curve over every decision-relevant threshold.

    Candidate thresholds are the midpoints between consecutive distinct
    pooled scores plus one sentinel below the minimum and one above the
    maximum; fmr(t) counts non-mated scores >= t, fnmr(t) mated scores < t.
    """
    mated, nonmated = scores.mated, scores.nonmated
    pooled = np.unique(np.concatenate([mated, nonmated]))
    thresholds = np.concatenate(
        [[pooled[0] - 1.0], (pooled[:-1] + pooled[1:]) / 2.0, [pooled[-1] + 1.0]]
    )
    # score arrays are stored sorted, so counts come from binary search
    fnmr = np.searchsorted(mated, thresholds, side="left") / mated.size
    fmr = (nonmated.size - np.searchsorted(nonmated, thresholds, side="left")) / nonmated.size
    return DetCurve(thresholds=thresholds, fmr=fmr, fnmr=fnmr)


def eer(curve: DetCurve) -> float:
    """Equal error rate: (fmr + fnmr) / 2 at the threshold minimizing
    |fmr - fnmr|, ties resolved to the lowest threshold."""
    i = int(np.argmin(np.abs(curve.fmr - curve.fnmr)))
    return float((curve.fmr[i] + curve.fnmr[i]) / 2.0)


def fnmr_at_fmr(curve: DetCurve, target_fmr: float) -> float:
    """FNMR at the smallest threshold whose FMR is at most the target (the
    conservative operating point)."""
    if not _number(target_fmr, "target_fmr", float, 0, closed=False) < 1:
        raise InvalidArgumentError(f"target_fmr must be in (0, 1), got {target_fmr}")
    # fmr is non-increasing in the threshold: take the first qualifying point
    i = int(np.argmax(curve.fmr <= target_fmr))
    return float(curve.fnmr[i])


@dataclass
class UnlinkabilityReport:
    """System unlinkability measure with its per-bin local curve. d_sys is 0
    for indistinguishable mated/non-mated score distributions and 1 for fully
    separated ones."""

    d_sys: float
    bin_centers: np.ndarray
    local_d: np.ndarray
    bin_count: int
    degenerate_range: bool = False


def unlinkability(scores: ScoreSet, bins: int = _Estimators.bins) -> UnlinkabilityReport:
    """Posterior-difference unlinkability over shared equal-width score bins.

    Requires scores generated under sample-specific keys. Per bin, with equal
    priors, the local measure is max(0, (pm - pnm) / (pm + pnm)) where pm and
    pnm are the per-bin probabilities of the mated and non-mated scores; the
    system measure is the expectation of the local measure over mated mass.
    The raw posterior difference can dip negative, so it is clipped to keep
    the declared [0, 1] range.
    """
    if scores.scenario is not Scenario.SAMPLE_SPECIFIC:
        raise InvalidArgumentError(
            "unlinkability requires scores generated under the sample-specific scenario"
        )
    _check_ranges(_Estimators, bins=bins)
    mated, nonmated = scores.mated, scores.nonmated
    lo = min(mated[0], nonmated[0])
    hi = max(mated[-1], nonmated[-1])
    if hi == lo:
        # all scores identical: one degenerate bin, no separation at all
        return UnlinkabilityReport(
            d_sys=0.0,
            bin_centers=np.array([lo]),
            local_d=np.array([0.0]),
            bin_count=bins,
            degenerate_range=True,
        )
    edges = np.linspace(lo, hi, bins + 1)
    p_m = np.histogram(mated, bins=edges)[0] / mated.size
    p_nm = np.histogram(nonmated, bins=edges)[0] / nonmated.size
    total = p_m + p_nm
    diff = np.divide(p_m - p_nm, total, out=np.zeros_like(total), where=total > 0)
    local = np.clip(diff, 0.0, None)
    d_sys = float(np.sum(p_m * local))
    return UnlinkabilityReport(
        d_sys=d_sys,
        bin_centers=(edges[:-1] + edges[1:]) / 2.0,
        local_d=local,
        bin_count=bins,
    )


@dataclass
class IrreversibilityReport:
    """Mutual information between the reduced unprotected and protected sets,
    with the three entropy terms it decomposes into (all nats)."""

    mi: float
    h_x: float
    h_y: float
    h_joint: float
    r_used: int
    near_deterministic: bool = False


def mutual_information(
    x: np.ndarray, y: np.ndarray, r: int = _Estimators.r
) -> IrreversibilityReport:
    """MI(X_r, Y_r) = H(X_r) + H(Y_r) - H(X_r, Y_r) under a Gaussian fit.

    Both matrices are reduced to r_used = min(r, rows-1, cols(x), cols(y))
    principal components, fitted separately. Each marginal covariance gets
    its trace-scaled default ridge and the joint covariance the matching
    block-diagonal ridge. That keeps the regularized joint's marginals exact,
    so the estimate is a genuine Gaussian MI: non-negative up to rounding and,
    as the ridges scale with the covariances, invariant to rounding (1e-9
    relative over power-of-two scales 2**-1000 to 2**1000) when either input
    is rescaled by a positive constant. A matrix whose largest |value| has a
    binary exponent outside [-500, 500], where its covariance would overflow
    or underflow, is first scaled by the exact power of two that brings that
    value to [0.5, 1); the entropies get back the nats that scaling took.
    """
    _check_ranges(_Estimators, r=r)
    x, y = _array(x, "x", rows=3), _array(y, "y", rows=3)
    if y.shape[0] != x.shape[0]:
        raise InvalidArgumentError(f"y has {y.shape[0]} rows, x has {x.shape[0]}")
    r_used = min(r, x.shape[0] - 1, x.shape[1], y.shape[1])
    if r_used < 1:
        raise InvalidArgumentError(f"{'y' if x.size else 'x'} has no columns")
    # scaling by 2**-e takes r_used * e * ln 2 nats from an entropy; they are added back
    e_x, e_y = (int(np.frexp(max(m.max(), -m.min()))[1]) for m in (x, y))
    e_x, e_y = (e if abs(e) > 500 else 0 for e in (e_x, e_y))
    x, y = (np.ldexp(x, -e_x) if e_x else x), (np.ldexp(y, -e_y) if e_y else y)
    nats = r_used * math.log(2.0)

    px, py = pca_fit(x, r_used), pca_fit(y, r_used)
    x_r, y_r = (x - px.mean) @ px.components.T, (y - py.mean) @ py.components.T

    cov_x = covariance(x_r)
    cov_y = covariance(y_r)
    cov_joint = covariance(np.hstack([x_r, y_r]))
    ridge_x = default_ridge(cov_x)
    ridge_y = default_ridge(cov_y)
    block_ridge = np.concatenate([np.full(r_used, ridge_x), np.full(r_used, ridge_y)])

    h_x = gaussian_entropy(cov_x, ridge_x) + nats * e_x
    h_y = gaussian_entropy(cov_y, ridge_y) + nats * e_y
    h_joint = gaussian_entropy(cov_joint + np.diag(block_ridge)) + nats * (e_x + e_y)
    mi = h_x + h_y - h_joint
    if -1e-9 <= mi < 0.0:
        mi = 0.0
    return IrreversibilityReport(
        mi=mi,
        h_x=h_x,
        h_y=h_y,
        h_joint=h_joint,
        r_used=r_used,
        near_deterministic=mi >= _NEAR_DETERMINISTIC_NATS_PER_DIM * r_used,
    )
