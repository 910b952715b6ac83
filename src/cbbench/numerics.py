"""Seeded randomness and the small linear-algebra kernel used everywhere else.

Matrices are plain 2-D float64 numpy arrays with row-major semantics. All
functions are pure: identical inputs (including generator state) produce
identical outputs, which is the backbone of the key-based renewability and
replay guarantees of the rest of the toolkit; every key and stream derives
from one keyed hash, ``_keyed_hash``. ``gram_schmidt`` scales its
matrix to a largest |value| in [0.5, 1), as ``protect_batch`` scales each
feature row, then calls the QR routines of numpy's bundled OpenBLAS through
ctypes, which releases the GIL, and gives the bits of ``np.linalg.qr``, its
fallback. ``pca_fit`` goes through LAPACK's SVD, so its output, and every
mutual-information field built on it, is bit-stable only at a fixed BLAS
thread count and kernel. A tall matrix reaches that SVD as its QR's R, the
step dgesdd itself takes first, so the bits stay dgesdd's (see ``pca_fit``).
"""

from __future__ import annotations

import functools
import hashlib
import math
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .core import _array, _check_ranges, _number, _seed
from .errors import DegenerateInputError, InvalidArgumentError, NumericError

__all__ = [
    "RandomStream",
    "derive_stream",
    "gram_schmidt",
    "PcaModel",
    "pca_fit",
    "covariance",
    "default_ridge",
    "gaussian_entropy",
]

_U64_MAX = np.iinfo(np.uint64).max

# 0.5 * ln(2*pi*e), the differential entropy of a unit-variance Gaussian
_HALF_LN_2PI_E = 0.5 * (math.log(2.0 * math.pi) + 1.0)


def _keyed_hash(seed: int, label: bytes, size: int) -> int:
    """The ``size``-byte BLAKE2b digest of the 8-byte big-endian seed then ``label``,
    as a big-endian integer: the one hash of every key (8 bytes) and stream (16)."""
    digest = hashlib.blake2b(int(seed).to_bytes(8, "big") + label, digest_size=size).digest()
    return int.from_bytes(digest, "big")


@dataclass
class RandomStream:
    """Deterministic random stream bound to a (seed, label) pair.

    Two streams built from the same pair replay the same sequence; distinct
    labels under one seed give independent-looking sequences. Backed by the
    counter-based Philox generator, keyed with ``_keyed_hash(seed, label, 16)``.
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

    def permutation(self, n: int, count: int) -> np.ndarray:
        """Return a (count, n) array of uniform permutations of range(n): row i
        is what the i-th of ``count`` sequential ``Generator.permutation(n)``
        calls on the stream's generator would return, and the stream is left
        in the same state, as both run the same Fisher-Yates shuffle."""
        n = _number(n, "n", int, 0)
        count = _number(count, "count", int, 0)
        return self._gen.permuted(np.tile(np.arange(n), (count, 1)), axis=1)


def derive_stream(seed: int, label: bytes) -> RandomStream:
    """Derive the deterministic stream identified by (seed, label). Both are
    checked against their ``RandomStream`` fields, so a str label is refused."""
    _check_ranges(RandomStream, origin_seed=seed, label=label)
    gen = np.random.Generator(np.random.Philox(key=_keyed_hash(seed, label, 16)))
    return RandomStream(origin_seed=int(seed), label=label, _gen=gen)


@functools.cache
def _openblas() -> SimpleNamespace | None:
    """The functions cbbench calls in the OpenBLAS bundled in ``numpy.libs``
    (scipy-openblas on numpy 2, openblas64_ on numpy 1.x wheels), or None for
    any other BLAS. Looked up on first use, so importing opens no library."""
    import ctypes

    int_, ptr = ctypes.c_int, ctypes.c_void_p
    signatures = {  # name: restype, argtypes
        "openblas_get_num_threads": (int_, []), "openblas_set_num_threads": (None, [int_]),
        "dgeqrf_": (None, [ptr] * 8), "dorgqr_": (None, [ptr] * 9),
    }
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_", ""):
            if all(hasattr(lib, f"{prefix}{name}64_") for name in signatures):
                blas = SimpleNamespace()
                for name, (restype, argtypes) in signatures.items():
                    setattr(blas, name.rstrip("_"), fn := lib[f"{prefix}{name}64_"])
                    fn.restype, fn.argtypes = restype, argtypes
                return blas
    return None


def _householder(a: np.ndarray) -> np.ndarray:
    """Overwrite the C-order float64 ``a`` with the rows of Q of the QR of
    ``a.T`` and return diag(R), the bits of ``np.linalg.qr``: the bundled
    LAPACK's dgeqrf and dorgqr, with numpy's workspace sizes, work on ``a`` in
    place (it is the Fortran layout of ``a.T``) without the GIL."""
    blas = _openblas()
    if blas is None:
        q, r = np.linalg.qr(a.T)
        a[...] = q.T
        return np.diag(r)
    rows, cols = a.shape
    # M, N (= K), LDA, the LWORKs of dgeqrf and dorgqr, INFO: each passed by address
    ints = np.array([cols, rows, max(1, cols), -1, -1, 0], dtype=np.int64)
    m, n, lda, lwork_qrf, lwork_gqr, info = (ints.ctypes.data + 8 * i for i in range(6))
    a_, tau, work = a.ctypes.data, np.empty(rows), np.zeros(2)
    blas.dgeqrf(m, n, a_, lda, tau.ctypes.data, work.ctypes.data, lwork_qrf, info)
    blas.dorgqr(m, n, n, a_, lda, tau.ctypes.data, work.ctypes.data + 8, lwork_gqr, info)
    ints[3:5] = np.maximum(work, max(1, rows))
    work = np.empty(ints[3:5].max())
    blas.dgeqrf(m, n, a_, lda, tau.ctypes.data, work.ctypes.data, lwork_qrf, info)
    diag = a.diagonal().copy()
    blas.dorgqr(m, n, n, a_, lda, tau.ctypes.data, work.ctypes.data, lwork_gqr, info)
    if ints[5]:  # both check the same arguments, so dorgqr refuses what dgeqrf did
        raise NumericError(f"m: LAPACK's Householder QR refused its argument {-ints[5]}")
    return diag


def gram_schmidt(m: np.ndarray) -> np.ndarray:
    """Orthonormalize the rows of ``m`` by Householder QR of ``m.T``.

    Row i of the result is the unit vector modified Gram-Schmidt would give:
    the columns of Q are multiplied by the signs of diag(R), which makes the
    factorization unique, and the two agree to about 1e-15. The QR calls
    LAPACK directly, without the GIL, else ``np.linalg.qr`` (``_householder``).
    Requires rows <= cols; raises DegenerateInputError naming the first row
    whose |R_ii| is at most 1e-12 * max|m| (it is linearly dependent on the
    rows before it). Q does not depend on a positive scale of ``m``, so ``m``
    is first scaled by the power of two that brings its largest |value| to
    [0.5, 1), where no Householder norm overflows or underflows.
    """
    m = _array(m, "m")
    if m.shape[0] > m.shape[1]:
        raise InvalidArgumentError(f"m needs rows <= cols to orthonormalize rows, got {m.shape}")
    peak, e = np.frexp(np.abs(m).max(initial=0.0))
    q = np.ldexp(m, -e, order="C")
    diag = _householder(q)
    dependent = np.flatnonzero(np.abs(diag) <= 1e-12 * peak)
    if dependent.size:
        raise DegenerateInputError(f"m row {dependent[0]} is linearly dependent on previous rows")
    q *= np.sign(diag)[:, None]
    return q


@dataclass
class PcaModel:
    """Principal-component model: per-column mean, orthonormal component rows
    (r x input_cols) and the explained variance of each component, sorted
    non-increasing."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray


@contextmanager
def _second_moments_of_x():
    """Raise a float64 overflow in the block, where huge finite ``x`` makes
    its second moments infinite, as a NumericError naming ``x``."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise NumericError("x: values too large: its second moments overflow float64") from None


def _unscaled_by_dgesdd(a: np.ndarray) -> bool:
    """Whether LAPACK's dgesdd takes ``a`` as it is: it rescales a matrix whose
    largest |value| is nonzero and outside [2**-459, 2**459], or not finite."""
    peak = np.abs(a).max(initial=0.0)
    return peak == 0.0 or 2.0**-459 <= peak <= 2.0**459


def pca_fit(x: np.ndarray, r: int) -> PcaModel:
    """Fit the top-``r`` principal components of the column-centered data.

    Uses the SVD of the centered matrix: the right singular vectors remain
    orthonormal to machine precision even when trailing singular values
    vanish, which matters for the rank-deficient bit matrices this toolkit
    routinely feeds in. A tall matrix (rows >= cols * 11 // 6, dgesdd's own
    crossover) goes to the SVD as the (cols x cols) R of its QR: from that
    crossover on, dgesdd itself factors with dgeqrf and then treats R as it
    treats a square input, so the singular values and right vectors are the
    same bits, without building the (rows x cols) left vectors this fit
    drops. Where dgesdd would rescale the centered matrix or R, the centered
    matrix goes to the SVD as it is. Explained variances are the eigenvalues
    of the unbiased sample covariance (divisor rows - 1). Raises NumericError
    when the second moments of ``x`` overflow float64.
    """
    x = _array(x, "x", rows=2)
    rows, cols = x.shape
    r = _number(r, "r", int, 1, min(rows - 1, cols))
    with _second_moments_of_x():
        mean = x.mean(axis=0)
        centered = x - mean
        if rows >= cols * 11 // 6 and _unscaled_by_dgesdd(centered):
            upper = np.linalg.qr(centered, mode="r")
            if _unscaled_by_dgesdd(upper):
                centered = upper
        _, singular, vt = np.linalg.svd(centered, full_matrices=False)
        if not np.isfinite(singular).all():  # LAPACK overflows without a numpy flag
            raise FloatingPointError
        explained = (singular[:r] ** 2) / (rows - 1)
    return PcaModel(mean=mean, components=vt[:r].copy(), explained_variance=explained)


def covariance(x: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance (divisor rows - 1), exactly symmetric.
    Raises NumericError when the second moments of ``x`` overflow float64."""
    x = _array(x, "x", rows=2)
    rows = x.shape[0]
    with _second_moments_of_x():
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
