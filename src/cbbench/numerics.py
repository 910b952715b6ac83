"""Seeded randomness and the small linear-algebra kernel used everywhere else.

Matrices are plain 2-D float64 numpy arrays with row-major semantics. All
functions are pure: identical inputs (including generator state) produce
identical outputs, which is the backbone of the key-based renewability and
replay guarantees of the rest of the toolkit. ``pca_fit`` goes through
LAPACK's SVD, so its output, and every mutual-information field built on it,
is bit-stable only at a fixed BLAS thread count and kernel.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, field

import numpy as np

from .core import _array, _check_ranges, _number, _seed
from .errors import DegenerateInputError, InvalidArgumentError, NumericError

__all__ = [
    "RandomStream",
    "derive_stream",
    "gaussian_matrix",
    "gram_schmidt",
    "PcaModel",
    "pca_fit",
    "pca_transform",
    "covariance",
    "default_ridge",
    "gaussian_entropy",
]

_U64_MAX = np.iinfo(np.uint64).max

# 0.5 * ln(2*pi*e), the differential entropy of a unit-variance Gaussian
_HALF_LN_2PI_E = 0.5 * (math.log(2.0 * math.pi) + 1.0)


def _philox_key(seed: int, label: bytes) -> int:
    """128-bit Philox key from a 64-bit seed and a domain-separation label."""
    material = int(seed).to_bytes(8, "big") + bytes(label)
    return int.from_bytes(hashlib.blake2b(material, digest_size=16).digest(), "big")


@dataclass
class RandomStream:
    """Deterministic random stream bound to a (seed, label) pair.

    Two streams built from the same pair replay the same sequence; distinct
    labels under one seed give independent-looking sequences. Backed by the
    counter-based Philox generator, keyed with BLAKE2b(seed || label).
    """

    origin_seed: int = _seed(MISSING, "seed the stream derives from")
    label: bytes
    _gen: np.random.Generator = field(repr=False)

    def words(self, n: int) -> np.ndarray:
        """Return ``n`` uniform 64-bit words."""
        n = _number(n, "n", int, 0)
        return self._gen.integers(_U64_MAX, dtype=np.uint64, endpoint=True, size=n)

    def normals(self, n: int) -> np.ndarray:
        """Return ``n`` standard-normal draws."""
        return self._gen.standard_normal(_number(n, "n", int, 0))

    def uniforms(self, n: int) -> np.ndarray:
        """Return ``n`` uniform reals in [0, 1)."""
        return self._gen.random(_number(n, "n", int, 0))

    def integers(self, n: int, high: int) -> np.ndarray:
        """Return ``n`` uniform integers in [0, high)."""
        high = _number(high, "high", int, 1)
        return self._gen.integers(0, high, size=_number(n, "n", int, 0), dtype=np.int64)

    def permutation(self, n: int, count: int | None = None) -> np.ndarray:
        """Return a uniform permutation of range(n), or a (count, n) array of them.

        With ``count``, row i is what the i-th of ``count`` sequential
        ``permutation(n)`` calls would return, and the stream is left in the
        same state: both run the same Fisher-Yates shuffle, row after row.
        """
        n = _number(n, "n", int, 0)
        if count is None:
            return self._gen.permutation(n)
        count = _number(count, "count", int, 0)
        return self._gen.permuted(np.tile(np.arange(n), (count, 1)), axis=1)


def derive_stream(seed: int, label: bytes | str) -> RandomStream:
    """Derive the deterministic stream identified by (seed, label)."""
    if isinstance(label, str):
        label = label.encode("utf-8")
    if not isinstance(label, bytes):  # bytes(5) would silently be five NUL bytes
        raise InvalidArgumentError(f"label must be bytes or str, got {label!r}")
    _check_ranges(RandomStream, origin_seed=seed)
    gen = np.random.Generator(np.random.Philox(key=_philox_key(seed, label)))
    return RandomStream(origin_seed=int(seed), label=label, _gen=gen)


def gaussian_matrix(stream: RandomStream, rows: int, cols: int) -> np.ndarray:
    """Matrix of i.i.d. standard-normal entries, consumed in row-major order."""
    rows, cols = _number(rows, "rows", int, 1), _number(cols, "cols", int, 1)
    return stream.normals(rows * cols).reshape(rows, cols)


def gram_schmidt(m: np.ndarray) -> np.ndarray:
    """Orthonormalize the rows of ``m`` by Householder QR of ``m.T``.

    Row i of the result is the unit vector modified Gram-Schmidt would give:
    the columns of Q are multiplied by the signs of diag(R), which makes the
    factorization unique, and the two agree to about 1e-15. Requires
    rows <= cols; raises DegenerateInputError naming the first row whose
    |R_ii| is below 1e-12 (it is linearly dependent on the rows before it).
    """
    m = _array(m, "m")
    if m.shape[0] > m.shape[1]:
        raise InvalidArgumentError(f"m needs rows <= cols to orthonormalize rows, got {m.shape}")
    q, r = np.linalg.qr(m.T)
    diag = np.diag(r)
    dependent = np.flatnonzero(np.abs(diag) < 1e-12)
    if dependent.size:
        raise DegenerateInputError(f"m row {dependent[0]} is linearly dependent on previous rows")
    return np.ascontiguousarray((q * np.sign(diag)).T)


@dataclass
class PcaModel:
    """Principal-component model: per-column mean, orthonormal component rows
    (r x input_cols) and the explained variance of each component, sorted
    non-increasing."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.components.shape[1]


def pca_fit(x: np.ndarray, r: int) -> PcaModel:
    """Fit the top-``r`` principal components of the column-centered data.

    Uses the SVD of the centered matrix for every shape: the right singular
    vectors remain orthonormal to machine precision even when trailing
    singular values vanish, which matters for the rank-deficient bit matrices
    this toolkit routinely feeds in. Explained variances are the eigenvalues
    of the unbiased sample covariance (divisor rows - 1).
    """
    x = _array(x, "x", rows=2)
    rows, cols = x.shape
    r = _number(r, "r", int, 1, min(rows - 1, cols))
    mean = x.mean(axis=0)
    centered = x - mean
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    explained = (singular[:r] ** 2) / (rows - 1)
    return PcaModel(mean=mean, components=vt[:r].copy(), explained_variance=explained)


def pca_transform(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Project centered data onto the model's components (rows x r output)."""
    x = _array(x, "x", cols=model.input_dim)
    return (x - model.mean) @ model.components.T


def covariance(x: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance (divisor rows - 1), exactly symmetric."""
    x = _array(x, "x", rows=2)
    rows = x.shape[0]
    centered = x - x.mean(axis=0)
    cov = (centered.T @ centered) / (rows - 1)
    return (cov + cov.T) / 2.0


def default_ridge(cov: np.ndarray) -> float:
    """Trace-scaled diagonal regularizer: 1e-6 * trace/dim for a positive
    trace, so it scales with the covariance, else 1e-12.

    Rank-deficient covariances (stolen-scenario protected templates are a
    routine source) need the ridge to stay factorizable.
    """
    cov = _array(cov, "cov", rows=1, square=True)
    trace = float(np.trace(cov))
    return 1e-6 * trace / len(cov) if trace > 0 else 1e-12


def gaussian_entropy(cov: np.ndarray, ridge: float = 0.0) -> float:
    """Differential entropy (nats) of a Gaussian with covariance ``cov + ridge*I``.

    Returns 0.5 * (dim * ln(2*pi*e) + logdet(cov + ridge*I)) with the
    log-determinant taken from a Cholesky factorization; raises NumericError
    when the regularized matrix is still not positive definite.
    """
    cov = _array(cov, "cov", square=True)
    ridge = _number(ridge, "ridge", float, 0)
    dim = cov.shape[0]
    scale = max(1.0, float(np.abs(cov).max(initial=0.0)))
    if float(np.abs(cov - cov.T).max(initial=0.0)) > 1e-8 * scale:
        raise InvalidArgumentError("cov must be symmetric")
    a = cov + ridge * np.eye(dim)
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"cov is not positive definite after ridge={ridge!r}") from exc
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return dim * _HALF_LN_2PI_E + 0.5 * logdet
