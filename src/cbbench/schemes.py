"""The six keyed template-protection transforms and their comparators.

Every transform is a pure function of (key, input dimension, template):
``instantiate`` materializes all key-derived randomness up front, and the
per-scheme batch kernels behind ``protect_batch`` never draw randomness. All six
constructions are sign/argmax based, so protecting c*x for any c > 0 yields
exactly the same protected template as protecting x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    _PAYLOAD_FOR_SCHEME,
    BitString,
    BloomSet,
    CodeVector,
    ProtectedTemplate,
    SchemeId,
    SchemeKey,
    Template,
    as_score,
)
from .errors import InvalidArgumentError
from .numerics import derive_stream, gaussian_matrix, gram_schmidt

__all__ = [
    "TransformInstance",
    "BioHashInstance",
    "MlpHashInstance",
    "BloomInstance",
    "IomGrpInstance",
    "IomUrpInstance",
    "RandHashInstance",
    "instantiate",
    "protect",
    "protect_batch",
    "compare",
    "similarities",
    "chance_level",
]

# slope of the negative branch of the leaky ramp nonlinearity; positively
# homogeneous, so sign patterns are exactly invariant under positive scaling
_LEAKY_SLOPE = 0.01


@dataclass(frozen=True)
class TransformInstance:
    """Key-derived transform parameters for one scheme at one input dimension.

    Instances carry materialized arrays only; shapes define the output
    length, which keeps hand-built instances usable in tests.
    """

    scheme_id: SchemeId
    dim: int


@dataclass(frozen=True)
class BioHashInstance(TransformInstance):
    projection: np.ndarray  # (L, dim), rows orthonormal per block


@dataclass(frozen=True)
class MlpHashInstance(TransformInstance):
    layers: tuple[np.ndarray, ...]  # (L, dim) then (L, L) weight matrices


@dataclass(frozen=True)
class BloomInstance(TransformInstance):
    word_bits: int
    block_cols: int
    masks: np.ndarray  # (n_words,) int64, one XOR mask per column word

    @property
    def padded_bits(self) -> int:
        return self.masks.shape[0] * self.word_bits

    @property
    def n_blocks(self) -> int:
        return self.masks.shape[0] // self.block_cols


@dataclass(frozen=True)
class IomGrpInstance(TransformInstance):
    directions: np.ndarray  # (m, k, dim) Gaussian projection directions

    @property
    def k(self) -> int:
        return self.directions.shape[1]


@dataclass(frozen=True)
class IomUrpInstance(TransformInstance):
    perms: np.ndarray  # (m, p, dim) permutation index arrays
    k: int


@dataclass(frozen=True)
class RandHashInstance(TransformInstance):
    perm: np.ndarray  # (dim,) permutation indices
    scales: np.ndarray  # (dim,) positive scales
    signs: np.ndarray  # (dim,) entries in {-1, +1}
    pad_bits: np.ndarray  # (max(0, L - dim),) key-derived fixed bits
    output_length: int


def _block_orthonormal(stream, n_rows: int, dim: int) -> np.ndarray:
    """Stack of ``n_rows`` Gaussian rows, orthonormalized in blocks of
    min(n_rows, dim) rows each. When n_rows > dim, full dim x dim blocks are
    orthonormalized independently and the concatenation truncated."""
    if n_rows <= dim:
        return gram_schmidt(gaussian_matrix(stream, n_rows, dim))
    n_blocks = -(-n_rows // dim)  # ceil
    blocks = [gram_schmidt(gaussian_matrix(stream, dim, dim)) for _ in range(n_blocks)]
    return np.vstack(blocks)[:n_rows]


def instantiate(key: SchemeKey, d: int) -> TransformInstance:
    """Materialize all key-derived parameters of a transform for dimension d.

    Every random quantity comes from streams labelled by scheme and role, so
    equal keys reproduce identical parameters and different components of one
    scheme never share randomness.
    """
    if d < 2:
        raise InvalidArgumentError(f"input dimension must be >= 2, got {d}")
    params = key.params
    length = params.output_length
    scheme = key.scheme_id

    if scheme is SchemeId.BIOHASH:
        stream = derive_stream(key.seed, b"biohash.projection")
        return BioHashInstance(scheme, d, projection=_block_orthonormal(stream, length, d))

    if scheme is SchemeId.MLP_HASH:
        layers = []
        in_dim = d
        for i in range(params.mlp_layers):
            stream = derive_stream(key.seed, b"mlphash.layer%d" % i)
            layers.append(_block_orthonormal(stream, length, in_dim))
            in_dim = length
        return MlpHashInstance(scheme, d, layers=tuple(layers))

    if scheme is SchemeId.BLOOM_FILTER:
        w = params.bloom_word_bits
        cols = params.bloom_block_cols
        block_bits = w * cols
        n_blocks = -(-d // block_bits)
        n_words = n_blocks * cols
        stream = derive_stream(key.seed, b"bloom.masks")
        masks = stream.integers(n_words, 2**w)
        return BloomInstance(scheme, d, word_bits=w, block_cols=cols, masks=masks)

    if scheme is SchemeId.IOM_GRP:
        stream = derive_stream(key.seed, b"iom-grp.directions")
        directions = stream.normals(length * params.iom_k * d).reshape(length, params.iom_k, d)
        return IomGrpInstance(scheme, d, directions=directions)

    if scheme is SchemeId.IOM_URP:
        if params.iom_k > d:
            raise InvalidArgumentError(
                f"iom_k={params.iom_k} exceeds the input dimension {d}"
            )
        stream = derive_stream(key.seed, b"iom-urp.perms")
        perms = stream.permutation(d, length * params.iom_p).reshape(length, params.iom_p, d)
        return IomUrpInstance(scheme, d, perms=perms, k=params.iom_k)

    perm = derive_stream(key.seed, b"randhash.perm").permutation(d)
    # log-uniform on [0.5, 2]: positive, centered on 1 in log space
    u = derive_stream(key.seed, b"randhash.scale").uniforms(d)
    scales = np.exp(np.log(0.5) + u * (np.log(2.0) - np.log(0.5)))
    signs = np.where(derive_stream(key.seed, b"randhash.sign").uniforms(d) < 0.5, -1.0, 1.0)
    n_pad = max(0, length - d)
    pad_bits = (
        (derive_stream(key.seed, b"randhash.pad").uniforms(n_pad) < 0.5).astype(np.uint8)
        if n_pad
        else np.zeros(0, dtype=np.uint8)
    )
    return RandHashInstance(
        scheme, d, perm=perm, scales=scales, signs=signs,
        pad_bits=pad_bits, output_length=length,
    )


def _biohash_kernel(x: np.ndarray, inst: BioHashInstance) -> np.ndarray:
    """Project onto the orthonormalized random rows and threshold at zero."""
    return x @ inst.projection.T > 0


def _mlphash_kernel(x: np.ndarray, inst: MlpHashInstance) -> np.ndarray:
    """Pass through the random orthonormal layers with a leaky ramp between
    them, then threshold the final activations at zero."""
    h = x
    for w in inst.layers:
        z = h @ w.T
        h = np.where(z > 0, z, _LEAKY_SLOPE * z)
    return h > 0


def _bloom_kernel(x: np.ndarray, inst: BloomInstance) -> np.ndarray:
    """Sign-binarize, split into key-masked column words and populate one
    filter block per group of columns."""
    n = x.shape[0]
    padded = np.pad(x > 0, ((0, 0), (0, inst.padded_bits - inst.dim)))
    # consecutive w-bit runs form column words, most significant bit first
    weights = 1 << np.arange(inst.word_bits - 1, -1, -1, dtype=np.int64)
    words = padded.reshape(n, -1, inst.word_bits) @ weights
    masked = (words ^ inst.masks).reshape(n, inst.n_blocks, inst.block_cols)
    blocks = np.zeros((n, inst.n_blocks, 2**inst.word_bits), dtype=np.uint8)
    np.put_along_axis(blocks, masked, 1, axis=2)
    return blocks.reshape(n, -1)


def _iom_grp_kernel(x: np.ndarray, inst: IomGrpInstance) -> np.ndarray:
    """For each hash, record which of its k Gaussian projections is largest
    (ties resolve to the lowest index)."""
    # (m, n, k): k last, so argmax reduces the contiguous axis without a copy
    return np.argmax(x @ inst.directions.transpose(0, 2, 1), axis=2).T


def _iom_urp_kernel(x: np.ndarray, inst: IomUrpInstance) -> np.ndarray:
    """For each hash, multiply p independently permuted copies of the input
    elementwise and record the argmax among the first k entries."""
    kept = inst.perms[:, :, : inst.k]  # (m, p, k): only the entries the argmax reads
    products = x[:, kept[:, 0]]  # factor by factor, as np.prod: no (n, m, p, k) gather
    for j in range(1, kept.shape[1]):
        products *= x[:, kept[:, j]]
    return np.argmax(products, axis=2)


def _randhash_kernel(x: np.ndarray, inst: RandHashInstance) -> np.ndarray:
    """Scale, sign-flip and permute, then binarize at zero. Output is
    truncated to the requested length, or padded with key-derived fixed bits
    when the length exceeds the input dimension."""
    bits = (x * inst.signs * inst.scales)[:, inst.perm] > 0
    if inst.output_length <= inst.dim:
        return bits[:, : inst.output_length]
    return np.hstack([bits, np.broadcast_to(inst.pad_bits, (x.shape[0], inst.pad_bits.size))])


_KERNEL_FOR_SCHEME = {
    SchemeId.BIOHASH: (BioHashInstance, _biohash_kernel),
    SchemeId.MLP_HASH: (MlpHashInstance, _mlphash_kernel),
    SchemeId.BLOOM_FILTER: (BloomInstance, _bloom_kernel),
    SchemeId.IOM_GRP: (IomGrpInstance, _iom_grp_kernel),
    SchemeId.IOM_URP: (IomUrpInstance, _iom_urp_kernel),
    SchemeId.RAND_HASH: (RandHashInstance, _randhash_kernel),
}


def protect_batch(x: np.ndarray, inst: TransformInstance) -> np.ndarray:
    """Protect each row of the (n, dim) feature block ``x`` with the transform
    the instance was built for, as float64 rows in the ``to_real_vector``
    layout (bits as 0/1, codes as integers, Bloom blocks concatenated)."""
    expected, kernel = _KERNEL_FOR_SCHEME[inst.scheme_id]
    if not isinstance(inst, expected):
        raise InvalidArgumentError(f"instance is {type(inst).__name__}, not {expected.__name__}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != inst.dim:
        raise InvalidArgumentError(f"feature block shape {x.shape} is not (n, {inst.dim})")
    return kernel(x, inst).astype(np.float64)


def protect(t: Template, inst: TransformInstance) -> ProtectedTemplate:
    """Apply the transform the instance was built for to one template: the
    one-row call of ``protect_batch``, wrapped in the scheme's payload type."""
    row = protect_batch(t.features[None], inst)[0]
    payload = _PAYLOAD_FOR_SCHEME[inst.scheme_id]
    if payload is BloomSet:
        return ProtectedTemplate(inst.scheme_id, BloomSet(row.reshape(inst.n_blocks, -1)))
    if payload is CodeVector:
        return ProtectedTemplate(inst.scheme_id, CodeVector(row, k=inst.k))
    return ProtectedTemplate(inst.scheme_id, BitString(row))


def _bit_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1 - Hamming distance / length of bit rows, element-wise over leading axes."""
    return 1.0 - np.count_nonzero(a != b, axis=-1) / a.shape[-1]


def _code_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Fraction of equal codes of code rows, element-wise over leading axes."""
    return np.count_nonzero(a == b, axis=-1) / a.shape[-1]


def _bloom_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1 - mean over blocks of |A xor B| / (|A| + |B|) of (..., B, F) blocks, element-wise
    over leading axes; the mean runs along contiguous rows, summing as a lone (B,) array would."""
    sym_diff = np.count_nonzero(a != b, axis=-1).astype(np.float64)
    total = (np.count_nonzero(a, axis=-1) + np.count_nonzero(b, axis=-1)).astype(np.float64)
    dissim = np.divide(sym_diff, total, out=np.zeros_like(sym_diff), where=total > 0)
    return 1.0 - dissim.mean(axis=-1)


def similarities(scheme_id: SchemeId, params, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``compare`` of protected rows ``a`` and ``b``, element-wise over their
    (broadcast) leading axes, all in the ``to_real_vector`` layout of a
    protected matrix (not range-checked)."""
    payload = _PAYLOAD_FOR_SCHEME[scheme_id]
    if payload is BloomSet:
        f = 2**params.bloom_word_bits
        return _bloom_similarity(a.reshape(*a.shape[:-1], -1, f), b.reshape(*b.shape[:-1], -1, f))
    return (_code_similarity if payload is CodeVector else _bit_similarity)(a, b)


def compare(a: ProtectedTemplate, b: ProtectedTemplate) -> float:
    """Similarity in [0, 1] between two protected templates of one scheme.

    BitString: 1 - Hamming distance / length. CodeVector: fraction of equal
    codes. BloomSet: 1 - mean over blocks of |A xor B| / (|A| + |B|) with
    popcounts; an empty block pair contributes dissimilarity 0. Uses the
    kernels of ``similarities``, so both give bit-identical scores.
    """
    if a.scheme_id is not b.scheme_id:
        raise InvalidArgumentError(
            f"cannot compare {a.scheme_id.value} against {b.scheme_id.value}"
        )
    pa, pb = a.payload, b.payload  # of one class, which ProtectedTemplate ties to the scheme
    if isinstance(pa, BitString):
        if len(pa) != len(pb):
            raise InvalidArgumentError(f"bit lengths differ: {len(pa)} vs {len(pb)}")
        return as_score(_bit_similarity(pa.bits, pb.bits[None])[0])
    if isinstance(pa, CodeVector):
        if len(pa) != len(pb) or pa.k != pb.k:
            raise InvalidArgumentError("code vectors have mismatched shape or alphabet")
        return as_score(_code_similarity(pa.codes, pb.codes[None])[0])
    if pa.blocks.shape != pb.blocks.shape:
        raise InvalidArgumentError("bloom block shapes differ")
    return as_score(_bloom_similarity(pa.blocks, pb.blocks[None])[0])


def chance_level(scheme_id: SchemeId, params) -> float | None:
    """Expected cross-key similarity: 0.5 for bit schemes, 1/k for
    index-of-max schemes; None for Bloom, whose level depends on fill rate."""
    payload = _PAYLOAD_FOR_SCHEME[scheme_id]
    if payload is BloomSet:
        return None
    return 0.5 if payload is BitString else 1.0 / params.iom_k
