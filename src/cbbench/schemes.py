"""The six keyed template-protection transforms and their comparators.

Every transform is a pure function of (key, input dimension, template). Each
scheme is one instance class: its ``_draw`` (behind ``instantiate``) draws all
key-derived randomness up front, and its batch kernel ``rows`` (behind
``protect_batch``) never draws randomness.
``similarities`` scores protected rows, packed to bytes and counted through
one popcount table. All six transforms are sign/argmax based, so protecting
c*x for any c > 0 yields exactly the same protected row as protecting x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import SchemeId, SchemeKey, _array, _number
from .errors import InvalidArgumentError
from .numerics import derive_stream, gram_schmidt

__all__ = [
    "TransformInstance",
    "BioHashInstance",
    "MlpHashInstance",
    "BloomInstance",
    "IomGrpInstance",
    "IomUrpInstance",
    "RandHashInstance",
    "instantiate",
    "protect_batch",
    "similarities",
]

# slope of the negative branch of the leaky ramp nonlinearity; positively
# homogeneous, so sign patterns are exactly invariant under positive scaling
_LEAKY_SLOPE = 0.01


def _block_orthonormal(stream, n_rows: int, dim: int) -> np.ndarray:
    """Stack of ``n_rows`` Gaussian rows, orthonormalized in blocks of
    min(n_rows, dim) rows each. When n_rows > dim, full dim x dim blocks are
    orthonormalized independently and the concatenation truncated."""
    size = min(n_rows, dim)
    draws = (stream.normals(size * dim).reshape(size, dim) for _ in range(-(-n_rows // size)))
    return np.vstack([gram_schmidt(m) for m in draws])[:n_rows]


@dataclass(frozen=True)
class TransformInstance:
    """Key-derived transform parameters for one scheme at one input dimension.

    Each subclass is one scheme: its ``scheme_id``, the ``kind`` of its
    protected rows (0/1 ``bits``, index-of-max ``codes`` in [0, iom_k), or
    ``bloom``: the 0/1 filter blocks of 2**bloom_word_bits bits each,
    concatenated), its arrays, drawn by the classmethod ``_draw(seed, params, d)``
    that ``instantiate`` calls with a checked ``d``, and its batch kernel
    ``rows(x)``, which maps the float64 ``(n, dim)`` feature block ``x`` to its
    protected rows; each row of ``x`` comes from ``protect_batch`` with a
    largest |value| in [0.5, 1). Besides ``dim`` and its arrays, an instance holds
    only the integers its kernel reads that no shape gives: Bloom's ``word_bits``
    and ``block_cols``, iom-urp's ``k`` and rand-hash's ``output_length``. All
    other sizes are shapes, which keeps hand-built instances usable in tests.
    """

    scheme_id: ClassVar[SchemeId]
    kind: ClassVar[str]
    dim: int


@dataclass(frozen=True)
class BioHashInstance(TransformInstance):
    scheme_id, kind = SchemeId.BIOHASH, "bits"
    projection: np.ndarray  # (L, dim), rows orthonormal per block

    @classmethod
    def _draw(cls, seed, params, d):
        stream = derive_stream(seed, b"biohash.projection")
        return cls(d, projection=_block_orthonormal(stream, params.output_length, d))

    def rows(self, x):
        """Project onto the orthonormalized random rows and threshold at zero."""
        return x @ self.projection.T > 0


@dataclass(frozen=True)
class MlpHashInstance(TransformInstance):
    scheme_id, kind = SchemeId.MLP_HASH, "bits"
    layers: tuple[np.ndarray, ...]  # (L, dim) then (L, L) weight matrices

    @classmethod
    def _draw(cls, seed, params, d):
        length = params.output_length
        return cls(d, layers=tuple(
            _block_orthonormal(derive_stream(seed, b"mlphash.layer%d" % i), length,
                               length if i else d)
            for i in range(params.mlp_layers)
        ))

    def rows(self, x):
        """Pass through the random orthonormal layers with a leaky ramp between
        them, then threshold the final activations at zero."""
        h = x
        for w in self.layers:
            z = h @ w.T
            h = np.where(z > 0, z, _LEAKY_SLOPE * z)
        return h > 0


@dataclass(frozen=True)
class BloomInstance(TransformInstance):
    scheme_id, kind = SchemeId.BLOOM_FILTER, "bloom"
    word_bits: int
    block_cols: int
    masks: np.ndarray  # (n_words,) int64, one XOR mask per column word

    @classmethod
    def _draw(cls, seed, params, d):
        w, cols = params.bloom_word_bits, params.bloom_block_cols
        n_words = -(-d // (w * cols)) * cols  # whole blocks cover the d features
        masks = derive_stream(seed, b"bloom.masks").integers(n_words, 2**w)
        return cls(d, word_bits=w, block_cols=cols, masks=masks)

    @property
    def n_blocks(self) -> int:
        return self.masks.shape[0] // self.block_cols

    def rows(self, x):
        """Sign-binarize, split into key-masked column words and populate one
        filter block per group of columns."""
        n, n_words = x.shape[0], self.masks.shape[0]
        padded = np.pad(x > 0, ((0, 0), (0, n_words * self.word_bits - self.dim)))
        # consecutive w-bit runs form column words, most significant bit first
        weights = 1 << np.arange(self.word_bits - 1, -1, -1, dtype=np.int64)
        words = padded.reshape(n, n_words, self.word_bits) @ weights
        masked = (words ^ self.masks).reshape(n, self.n_blocks, self.block_cols)
        blocks = np.zeros((n, self.n_blocks, 2**self.word_bits), dtype=np.uint8)
        np.put_along_axis(blocks, masked, 1, axis=2)
        return blocks.reshape(n, self.n_blocks << self.word_bits)


@dataclass(frozen=True)
class IomGrpInstance(TransformInstance):
    scheme_id, kind = SchemeId.IOM_GRP, "codes"
    directions: np.ndarray  # (m, k, dim) Gaussian projection directions

    @classmethod
    def _draw(cls, seed, params, d):
        m, k = params.output_length, params.iom_k
        stream = derive_stream(seed, b"iom-grp.directions")
        return cls(d, directions=stream.normals(m * k * d).reshape(m, k, d))

    def rows(self, x):
        """For each hash, record which of its k Gaussian projections is largest
        (ties resolve to the lowest index)."""
        # (m, n, k): k last, so argmax reduces the contiguous axis without a copy
        return np.argmax(x @ self.directions.transpose(0, 2, 1), axis=2).T


@dataclass(frozen=True)
class IomUrpInstance(TransformInstance):
    scheme_id, kind = SchemeId.IOM_URP, "codes"
    perms: np.ndarray  # (m, p, dim) permutation index arrays
    k: int

    @classmethod
    def _draw(cls, seed, params, d):
        m, k, p = params.output_length, params.iom_k, params.iom_p
        if k > d:
            raise InvalidArgumentError(f"iom_k={k} exceeds the input dimension {d}")
        perms = derive_stream(seed, b"iom-urp.perms").permutation(d, m * p).reshape(m, p, d)
        return cls(d, perms=perms, k=k)

    def rows(self, x):
        """For each hash, multiply p independently permuted copies of the input
        elementwise and record the argmax among the first k entries."""
        # protect_batch hands in rows whose largest |x| is in [0.5, 1): no product overflows
        kept = self.perms[:, :, : self.k]  # (m, p, k): only the entries the argmax reads
        products = x[:, kept[:, 0]]  # factor by factor, as np.prod: no (n, m, p, k) gather
        for j in range(1, kept.shape[1]):
            products *= x[:, kept[:, j]]
        return np.argmax(products, axis=2)


@dataclass(frozen=True)
class RandHashInstance(TransformInstance):
    scheme_id, kind = SchemeId.RAND_HASH, "bits"
    perm: np.ndarray  # (dim,) permutation indices
    signs: np.ndarray  # (dim,) entries in {-1, +1}
    pad_bits: np.ndarray  # (max(0, L - dim),) key-derived fixed bits
    output_length: int

    @classmethod
    def _draw(cls, seed, params, d):
        length = params.output_length
        perm = derive_stream(seed, b"randhash.perm").permutation(d, 1)[0]
        signs = np.where(derive_stream(seed, b"randhash.sign").uniforms(d) < 0.5, -1.0, 1.0)
        pad = derive_stream(seed, b"randhash.pad").uniforms(max(0, length - d)) < 0.5
        return cls(d, perm=perm, signs=signs, pad_bits=pad.astype(np.uint8), output_length=length)

    def rows(self, x):
        """Sign-flip and permute, then binarize at zero. Output is truncated to
        the requested length, or padded with key-derived fixed bits when the
        length exceeds the input dimension."""
        bits = (x * self.signs)[:, self.perm[: self.output_length]] > 0
        return np.hstack([bits, np.broadcast_to(self.pad_bits, (x.shape[0], self.pad_bits.size))])


# each scheme's instance class, which instantiate draws through and whose row
# kind similarities and the report's length unit read
_CLASS_OF_SCHEME = {c.scheme_id: c for c in TransformInstance.__subclasses__()}


def instantiate(key: SchemeKey, d: int) -> TransformInstance:
    """Materialize all key-derived parameters of a transform for dimension d.

    Every random quantity comes from streams labelled by scheme and role, so
    equal keys reproduce identical parameters and different components of one
    scheme never share randomness.
    """
    return _CLASS_OF_SCHEME[key.scheme_id]._draw(key.seed, key.params, _number(d, "d", int, 2))


def protect_batch(x: np.ndarray, inst: TransformInstance) -> np.ndarray:
    """Protect each row of the (n, dim) feature block ``x`` with the transform
    the instance was built for, as float64 protected rows (bits as 0/1, codes
    as integers, Bloom blocks concatenated). Rows stay float64, the form every
    stored matrix and fingerprint holds; only scoring packs them to bytes.
    Refuses, naming ``x``, a block that is not a finite real ``(n, dim)`` matrix.
    Every scheme's rows are invariant to a positive scale of a feature row, so
    each row is first scaled by the power of two that brings its largest
    |value| to [0.5, 1): no projection or product then overflows, and a tiny
    row does not underflow into ties. That scaling may read a value at or below
    2**-1074 times its row's largest |value| as ±0, which can flip a bit of
    rand-hash or Bloom, the schemes that read each feature's sign."""
    x = _array(x, "x", cols=inst.dim)
    x = np.ldexp(x, -np.frexp(np.abs(x).max(axis=1, keepdims=True, initial=0.0))[1])
    return inst.rows(x).astype(np.float64)


# set bits of every byte value: the one popcount of packed scoring, on every numpy
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def _packed(kind: str, params, name: str, rows) -> tuple[np.ndarray, ...]:
    """Protected rows of one kind as the uint8 arrays ``_scores`` reads: bits
    packed eight to a byte, codes one to a byte, or Bloom blocks packed to
    bytes, ``(..., blocks, bytes)``, with each block's popcount beside them.
    Refuses, naming ``name``, rows that are empty or not real, hold other
    values than their kind or are not whole Bloom blocks."""
    rows = np.asarray(rows)
    if rows.ndim == 0 or rows.shape[-1] == 0 or rows.dtype.kind not in "biuf":
        raise InvalidArgumentError(f"{name} rows are empty or not real, got {rows.dtype} "
                                   f"of shape {rows.shape}")
    with np.errstate(invalid="ignore"):  # NaN and inf cast to some byte, then fail the check
        u = rows.astype(np.uint8)
    if not ((u == rows) & (u <= (255 if kind == "codes" else 1))).all():
        held = "integer codes in [0, 256)" if kind == "codes" else "0/1 values"
        raise InvalidArgumentError(f"{name} rows hold values other than {held}")
    if kind == "codes":
        return (u,)
    if kind == "bits":
        return (np.packbits(u, axis=-1),)
    f = 2**params.bloom_word_bits
    if rows.shape[-1] % f:
        raise InvalidArgumentError(f"{name} rows of length {rows.shape[-1]} are not "
                                   f"whole blocks of 2**bloom_word_bits = {f} bits")
    blocks = np.packbits(u.reshape(*u.shape[:-1], -1, f), axis=-1)
    return blocks, _POPCOUNT.take(blocks).sum(axis=-1, dtype=np.int32)


def _scores(kind: str, length: int, a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]):
    """Similarity of the ``_packed`` forms of rows of ``length`` values,
    element-wise over their broadcast leading axes: each float expression is
    the one of unpacked rows, so every score is bit-identical to it."""
    # int32 sums: a short contiguous axis reduces ~2x faster into them than into intp
    if kind == "codes":
        return (a[0] == b[0]).sum(axis=-1, dtype=np.int32) / length
    differing = _POPCOUNT.take(a[0] ^ b[0]).sum(axis=-1, dtype=np.int32)
    if kind == "bits":
        return 1.0 - differing / length
    sym_diff = differing.astype(np.float64)
    total = (a[1] + b[1]).astype(np.float64)
    dissim = np.divide(sym_diff, total, out=np.zeros_like(sym_diff), where=total > 0)
    # the mean runs along the contiguous block axis, summing as a lone (B,) array would
    return 1.0 - dissim.mean(axis=-1)


def _pair_scorer(scheme_id: SchemeId, params, rows: np.ndarray):
    """``score(i, j)``: ``similarities`` of ``rows[i]`` and ``rows[j]``, from
    the (n, width) protected ``rows`` packed once."""
    kind = _CLASS_OF_SCHEME[scheme_id].kind
    packed = _packed(kind, params, "protected", rows)
    return lambda i, j: _scores(kind, rows.shape[1], [p.take(i, axis=0) for p in packed],
                                [p.take(j, axis=0) for p in packed])


def similarities(scheme_id: SchemeId, params, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Similarity in [0, 1] of protected rows ``a`` and ``b``, element-wise over
    their (broadcast) leading axes.

    Bits: 1 - Hamming distance / length. Codes: fraction of equal codes.
    Bloom: 1 - mean over blocks of |A xor B| / (|A| + |B|) with popcounts; an
    empty block pair contributes dissimilarity 0. Rows are packed to bytes
    first and scored as ``run_scenario`` scores them. Refuses, naming ``a`` or
    ``b``, empty or non-real rows, rows of other values than their kind, Bloom
    rows that are not whole blocks, and rows of different lengths or leading
    axes that do not broadcast.
    """
    kind = _CLASS_OF_SCHEME[scheme_id].kind
    pa, pb = _packed(kind, params, "a", a), _packed(kind, params, "b", b)
    a_shape, b_shape = np.shape(a), np.shape(b)
    if a_shape[-1] != b_shape[-1]:
        raise InvalidArgumentError(
            f"a rows of length {a_shape[-1]} and b rows of length {b_shape[-1]} differ"
        )
    try:
        np.broadcast_shapes(a_shape[:-1], b_shape[:-1])
    except ValueError:
        raise InvalidArgumentError(
            f"a rows of shape {a_shape} and b rows of shape {b_shape} do not broadcast"
        ) from None
    return _scores(kind, a_shape[-1], pa, pb)


# protect and compare are public in no __all__: perfbench's tracer looks them up
# by name, and they go when it traces protect_batch and similarities instead
def protect(x: np.ndarray, inst: TransformInstance) -> np.ndarray:
    """The protected row of the one ``(dim,)`` feature row ``x``: ``protect_batch`` of one row."""
    return protect_batch([x], inst)[0]


def compare(scheme_id: SchemeId, params, a: np.ndarray, b: np.ndarray) -> float:
    """``similarities`` of the one pair of protected rows ``a`` and ``b``."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 1 or a.shape != b.shape:
        raise InvalidArgumentError(
            f"a and b must be two 1-D rows of one length, got shapes {a.shape} and {b.shape}"
        )
    return float(similarities(scheme_id, params, a, b))

