"""Bit-level codecs used on the simulated wire.

Four codec families live here:

1. **Sign-bit packing** — a sign vector over ``{-1, +1}`` (or the bit
   convention ``{0, 1}`` with ``1 == +1``) is stored eight elements per byte.
   This is the one-bit representation Marsit puts on the wire every hop.
   :class:`BitVector` is the byte-level reference object;
   :class:`PackedBits` is the word-level fast path (64 elements per machine
   op) that the hot sign pipeline carries hop-to-hop.
2. **Elias gamma/delta codes** — universal codes for positive integers.  The
   paper's baselines compact multi-bit sign sums with Elias coding (Section 5,
   "Baselines"), so SSDM-under-MAR messages can be entropy-coded here.  The
   public codecs are fully vectorized (prefix-sum bit placement); the
   original per-bit implementations survive as ``*_reference`` for property
   tests and benchmarks.
3. **Width accounting** — :func:`signed_int_bit_width` computes the fixed
   number of bits needed for a partial sign sum after ``m`` hops, which models
   the bit-length expansion of Section 3.1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

try:  # pragma: no cover - exercised indirectly via the decoders
    from scipy.sparse import csr_matrix as _csr_matrix
    from scipy.sparse.csgraph import breadth_first_order as _breadth_first_order
except ImportError:  # pragma: no cover
    _csr_matrix = None
    _breadth_first_order = None

__all__ = [
    "BitVector",
    "PackedBits",
    "PackedBitsBatch",
    "elias_delta_decode",
    "elias_delta_decode_reference",
    "elias_delta_encode",
    "elias_delta_encode_reference",
    "elias_gamma_decode",
    "elias_gamma_decode_reference",
    "elias_gamma_encode",
    "elias_gamma_encode_reference",
    "pack_signs",
    "signed_int_bit_width",
    "unpack_signs",
    "zigzag_decode",
    "zigzag_encode",
]

#: Explicit little-endian words so the byte view is the bit-plane layout on
#: any host; on little-endian machines this is the native uint64.
_WORD_DTYPE = np.dtype("<u8")
_WORD_BITS = 64


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map signed integers to positive ones: 0,-1,1,-2,2 -> 1,2,3,4,5.

    Shifted by one relative to protobuf zigzag so the output is strictly
    positive, as Elias codes require.
    """
    values = np.asarray(values, dtype=np.int64)
    return np.where(values >= 0, 2 * values + 1, -2 * values)


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 1:
        raise ValueError("zigzag codes are strictly positive")
    return np.where(values % 2 == 1, (values - 1) // 2, -(values // 2))


@dataclass(frozen=True)
class BitVector:
    """An immutable packed vector of bits.

    ``data`` holds ``ceil(length / 8)`` bytes; bit ``j`` of the logical vector
    is bit ``j % 8`` (LSB-first) of byte ``j // 8``.  The class exists so that
    all-reduce code can move *exactly* the number of bytes a real
    implementation would, and so tests can round-trip through the packed
    representation.
    """

    data: bytes
    length: int

    def __post_init__(self) -> None:
        expected = (self.length + 7) // 8
        if len(self.data) != expected:
            raise ValueError(
                f"BitVector of length {self.length} needs {expected} bytes, "
                f"got {len(self.data)}"
            )

    @property
    def nbytes(self) -> int:
        """Number of bytes this vector occupies on the wire."""
        return len(self.data)

    def to_bits(self) -> np.ndarray:
        """Return the logical bits as a ``uint8`` array of 0/1 values."""
        raw = np.frombuffer(self.data, dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little")
        return bits[: self.length].copy()

    def to_signs(self) -> np.ndarray:
        """Return the vector as ``float64`` signs: bit 1 -> +1, bit 0 -> -1."""
        return self.to_bits().astype(np.float64) * 2.0 - 1.0

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "BitVector":
        """Pack an array of 0/1 values into a :class:`BitVector`.

        ``uint8``/``bool`` inputs are trusted bit vectors (the internal hop
        convention) and skip revalidation; other dtypes are checked.
        """
        bits = np.asarray(bits)
        if bits.ndim != 1:
            raise ValueError("from_bits expects a 1-D array")
        if bits.size and not _is_trusted_bits(bits) and not _binary_valued(bits):
            raise ValueError("from_bits expects only 0/1 values")
        packed = np.packbits(bits.astype(np.uint8, copy=False), bitorder="little")
        return cls(data=packed.tobytes(), length=int(bits.size))

    @classmethod
    def from_signs(cls, signs: np.ndarray) -> "BitVector":
        """Pack a ``{-1, +1}`` vector; zero is treated as +1 (sign of 0)."""
        signs = np.asarray(signs)
        return cls.from_bits((signs >= 0).astype(np.uint8))


def pack_signs(values: np.ndarray) -> BitVector:
    """Compress ``values`` to one bit per element keeping only the sign.

    Zeros map to +1, matching the convention ``sgn(0) = +1`` used throughout
    the library so that every transmitted bit decodes to a nonzero sign.
    """
    return BitVector.from_signs(np.asarray(values, dtype=np.float64))


def unpack_signs(vector: BitVector) -> np.ndarray:
    """Inverse of :func:`pack_signs` up to magnitude: returns ``{-1, +1}``."""
    return vector.to_signs()


def _is_trusted_bits(array: np.ndarray) -> bool:
    """``uint8``/``bool`` arrays are internal bit vectors: already validated."""
    return array.dtype == np.uint8 or array.dtype == np.bool_


def _binary_valued(array: np.ndarray) -> bool:
    """~3x cheaper than ``np.isin(array, (0, 1)).all()``."""
    return bool(((array == 0) | (array == 1)).all())


if hasattr(np, "bitwise_count"):

    def _popcount_words(words: np.ndarray) -> int:
        return int(np.bitwise_count(words).sum())

else:  # pragma: no cover - numpy < 2.0 fallback
    _POPCOUNT_TABLE = np.array(
        [bin(value).count("1") for value in range(256)], dtype=np.int64
    )

    def _popcount_words(words: np.ndarray) -> int:
        return int(_POPCOUNT_TABLE[words.view(np.uint8)].sum())


@dataclass(frozen=True, eq=False)
class PackedBits:
    """A bit vector stored as contiguous little-endian ``uint64`` words.

    Logical bit ``j`` is bit ``j % 64`` of word ``j // 64`` — the same
    little-endian bit-plane layout as :class:`BitVector`, widened from bytes
    to machine words so the Marsit ``⊙`` merge, the Bernoulli transient and
    the consensus checks all run 64 elements per numpy op instead of one.

    Invariants: ``words`` holds exactly ``ceil(length / 64)`` words and every
    padding bit past ``length`` is zero, so AND/OR/XOR/popcount need no tail
    masking.  Instances are immutable; all operators return new objects.

    ``nbytes`` is the *wire* size (``ceil(length / 8)`` — identical to the
    byte-packed :class:`BitVector`), not the in-memory word storage, so
    traffic accounting is unchanged by the fast path.
    """

    words: np.ndarray = field(repr=False)
    length: int

    def __post_init__(self) -> None:
        words = np.asarray(self.words, dtype=_WORD_DTYPE)
        if words.ndim != 1:
            raise ValueError("PackedBits words must be 1-D")
        expected = (self.length + _WORD_BITS - 1) // _WORD_BITS
        if words.size != expected:
            raise ValueError(
                f"PackedBits of length {self.length} needs {expected} words, "
                f"got {words.size}"
            )
        tail = self.length % _WORD_BITS
        if words.size and tail:
            mask = _WORD_DTYPE.type((1 << tail) - 1)
            if int(words[-1] & ~mask):
                raise ValueError("PackedBits padding bits must be zero")
        object.__setattr__(self, "words", words)

    # ------------------------------------------------------------------
    # construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "PackedBits":
        """Pack an array of 0/1 values (this is the *only* packing step).

        Like :meth:`BitVector.from_bits`, ``uint8``/``bool`` inputs are
        trusted internal bit vectors and skip the value check.
        """
        bits = np.asarray(bits)
        if bits.ndim != 1:
            raise ValueError("from_bits expects a 1-D array")
        if bits.size and not _is_trusted_bits(bits) and not _binary_valued(bits):
            raise ValueError("from_bits expects only 0/1 values")
        length = int(bits.size)
        packed = np.packbits(bits.astype(np.uint8, copy=False), bitorder="little")
        return cls(words=_bytes_to_words(packed, length), length=length)

    @classmethod
    def from_signs(cls, signs: np.ndarray) -> "PackedBits":
        """Pack a float/sign vector; ``>= 0`` maps to bit 1 (``sgn(0)=+1``)."""
        return cls.from_bits(np.asarray(signs) >= 0)

    @classmethod
    def from_bitvector(cls, vector: BitVector) -> "PackedBits":
        """Reinterpret a byte-packed :class:`BitVector` as words (no unpack)."""
        raw = np.frombuffer(vector.data, dtype=np.uint8).copy()
        tail = vector.length % 8
        if raw.size and tail:
            raw[-1] &= (1 << tail) - 1
        return cls(words=_bytes_to_words(raw, vector.length), length=vector.length)

    def to_bitvector(self) -> BitVector:
        """Byte-packed view for the final decode; no bit-level work."""
        data = self._byte_view()[: self.nbytes].tobytes()
        return BitVector(data=data, length=self.length)

    def to_bits(self) -> np.ndarray:
        """Unpack to a 0/1 ``uint8`` array — the final decode step."""
        raw = self._byte_view()[: self.nbytes]
        return np.unpackbits(raw, bitorder="little")[: self.length].copy()

    def to_signs(self) -> np.ndarray:
        """Unpack to ``{-1, +1}`` floats — the final decode step.

        ``2 b - 1`` is formed in ``int8`` on the unpacked bits, so the one
        ``float64`` array is the result.
        """
        signs = np.unpackbits(
            self._byte_view(), count=self.length, bitorder="little"
        ).view(np.int8)
        signs += signs
        signs -= 1
        return signs.astype(np.float64)

    def _byte_view(self) -> np.ndarray:
        """The words reinterpreted as the little-endian byte stream."""
        return self.words.view(np.uint8)

    # ------------------------------------------------------------------
    # word-level ops (the fast path)
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Wire bytes: ``ceil(length / 8)``, same as :class:`BitVector`."""
        return (self.length + 7) // 8

    def __len__(self) -> int:
        return self.length

    def _check_same_length(self, other: "PackedBits") -> None:
        if not isinstance(other, PackedBits):
            raise TypeError(f"expected PackedBits, got {type(other)!r}")
        if other.length != self.length:
            raise ValueError(
                f"length mismatch: {self.length} vs {other.length}"
            )

    def __and__(self, other: "PackedBits") -> "PackedBits":
        self._check_same_length(other)
        return PackedBits(words=self.words & other.words, length=self.length)

    def __or__(self, other: "PackedBits") -> "PackedBits":
        self._check_same_length(other)
        return PackedBits(words=self.words | other.words, length=self.length)

    def __xor__(self, other: "PackedBits") -> "PackedBits":
        self._check_same_length(other)
        return PackedBits(words=self.words ^ other.words, length=self.length)

    def invert(self) -> "PackedBits":
        """Bitwise NOT over the logical bits (padding stays zero)."""
        out = np.bitwise_not(self.words)
        tail = self.length % _WORD_BITS
        if out.size and tail:
            out[-1] &= _WORD_DTYPE.type((1 << tail) - 1)
        return PackedBits(words=out, length=self.length)

    def popcount(self) -> int:
        """Number of set bits (word-parallel)."""
        return _popcount_words(self.words)

    def equals(self, other: "PackedBits") -> bool:
        """Exact equality by word comparison (the consensus check)."""
        return (
            isinstance(other, PackedBits)
            and other.length == self.length
            and bool(np.array_equal(self.words, other.words))
        )

    # ------------------------------------------------------------------
    # slicing / concatenation (byte-shift arithmetic, no unpacking)
    # ------------------------------------------------------------------
    def slice(self, start: int, stop: int) -> "PackedBits":
        """The sub-vector ``[start, stop)``, realigned by byte shifts."""
        if not 0 <= start <= stop <= self.length:
            raise ValueError(
                f"invalid slice [{start}, {stop}) of length {self.length}"
            )
        nbits = stop - start
        if nbits == 0:
            return PackedBits(
                words=np.zeros(0, dtype=_WORD_DTYPE), length=0
            )
        raw = self._byte_view()
        first, shift = divmod(start, 8)
        need = (shift + nbits + 7) // 8
        seg = raw[first : first + need].copy()
        if shift:
            out = seg >> shift
            out[:-1] |= seg[1:] << (8 - shift)
        else:
            out = seg
        out = out[: (nbits + 7) // 8]
        tail = nbits % 8
        if tail:
            out[-1] &= (1 << tail) - 1
        return PackedBits(words=_bytes_to_words(out, nbits), length=nbits)

    def split(self, num_parts: int) -> list["PackedBits"]:
        """Split into ``num_parts`` pieces with ``np.array_split`` semantics."""
        if num_parts < 1:
            raise ValueError("num_parts must be >= 1")
        base, extra = divmod(self.length, num_parts)
        parts: list[PackedBits] = []
        start = 0
        for index in range(num_parts):
            size = base + (1 if index < extra else 0)
            parts.append(self.slice(start, start + size))
            start += size
        return parts

    @classmethod
    def concat(cls, parts: "list[PackedBits]") -> "PackedBits":
        """Concatenate packed vectors by OR-ing byte-shifted planes."""
        total = sum(part.length for part in parts)
        out = np.zeros(
            ((total + _WORD_BITS - 1) // _WORD_BITS) * 8, dtype=np.uint8
        )
        offset = 0
        for part in parts:
            if not isinstance(part, PackedBits):
                raise TypeError(f"expected PackedBits, got {type(part)!r}")
            if part.length == 0:
                continue
            data = part._byte_view()[: part.nbytes]
            byte0, shift = divmod(offset, 8)
            if shift == 0:
                out[byte0 : byte0 + data.size] |= data
            else:
                out[byte0 : byte0 + data.size] |= data << shift
                high = data >> (8 - shift)
                stop = min(byte0 + 1 + data.size, out.size)
                out[byte0 + 1 : stop] |= high[: stop - byte0 - 1]
            offset += part.length
        return cls(words=_bytes_to_words(out, total), length=total)


@dataclass(frozen=True, eq=False)
class PackedBitsBatch:
    """Lane-stacked bit vectors: one ``(lanes, width)`` ``uint64`` matrix.

    Row ``i`` holds a bit vector of ``lengths[i]`` logical bits in the same
    little-endian bit-plane layout as :class:`PackedBits`, zero-padded to a
    shared word ``width``, so a whole synchronous step of the lockstep
    simulation — every (cycle, position) lane at once — runs as *one* numpy
    operation instead of one Python call per lane.

    Invariants mirror :class:`PackedBits` per row: every padding bit past
    ``lengths[i]`` is zero, so AND/OR/XOR across the full matrix need no
    masking and a row prefix view *is* a valid :class:`PackedBits`.
    :meth:`row` returns exactly that zero-copy view.
    """

    words: np.ndarray = field(repr=False)
    lengths: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        words = np.asarray(self.words, dtype=_WORD_DTYPE)
        lengths = np.asarray(self.lengths, dtype=np.int64)
        if words.ndim != 2:
            raise ValueError("PackedBitsBatch words must be 2-D")
        if lengths.ndim != 1 or lengths.size != words.shape[0]:
            raise ValueError("lengths must hold one entry per lane")
        if lengths.size and lengths.min() < 0:
            raise ValueError("lengths must be non-negative")
        needed = int(lengths.max()) if lengths.size else 0
        if words.shape[1] < (needed + _WORD_BITS - 1) // _WORD_BITS:
            raise ValueError(
                f"width {words.shape[1]} words cannot hold "
                f"{needed}-bit lanes"
            )
        if words.size:
            # Per-row padding must be zero: whole words past each row's
            # data, plus the tail bits of each row's last partial word.
            col = np.arange(words.shape[1], dtype=np.int64)
            full = (lengths + _WORD_BITS - 1) // _WORD_BITS
            if words[col[None, :] >= full[:, None]].any():
                raise ValueError("PackedBitsBatch padding words must be zero")
            tail = lengths % _WORD_BITS
            ragged = np.flatnonzero(tail)
            if ragged.size:
                last = words[ragged, lengths[ragged] // _WORD_BITS]
                mask = (_WORD_DTYPE.type(1) << tail[ragged].astype(np.uint64)) - 1
                if (last & ~mask).any():
                    raise ValueError("PackedBitsBatch padding bits must be zero")
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "lengths", lengths)

    @classmethod
    def _trusted(cls, words: np.ndarray, lengths: np.ndarray) -> "PackedBitsBatch":
        """Wrap arrays whose invariants the caller guarantees (hot path)."""
        batch = object.__new__(cls)
        object.__setattr__(batch, "words", words)
        object.__setattr__(batch, "lengths", lengths)
        return batch

    # ------------------------------------------------------------------
    # construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_bit_matrix(
        cls,
        bits: np.ndarray,
        lengths: np.ndarray | None = None,
        width: int | None = None,
    ) -> "PackedBitsBatch":
        """Pack a ``(lanes, n)`` 0/1 matrix, one lane per row.

        ``lengths`` (default: all ``n``) marks each lane's valid prefix;
        columns at or past a lane's length are zeroed before packing, so
        ragged lanes share one rectangular buffer.  ``width`` pads the word
        matrix wider than ``n`` needs — used to match an existing batch's
        buffer so word-level operators line up.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2:
            raise ValueError("from_bit_matrix expects a 2-D array")
        if bits.size and not _is_trusted_bits(bits) and not _binary_valued(bits):
            raise ValueError("from_bit_matrix expects only 0/1 values")
        lanes, n = bits.shape
        if lengths is None:
            lengths = np.full(lanes, n, dtype=np.int64)
        else:
            lengths = np.asarray(lengths, dtype=np.int64)
            if lengths.shape != (lanes,):
                raise ValueError("lengths must hold one entry per lane")
            if lengths.size and (lengths.min() < 0 or lengths.max() > n):
                raise ValueError("lengths must lie in [0, columns]")
            bits = bits & (np.arange(n) < lengths[:, None])
        min_width = (n + _WORD_BITS - 1) // _WORD_BITS
        if width is None:
            width = min_width
        elif width < min_width:
            raise ValueError(f"width {width} cannot hold {n}-bit lanes")
        return cls._trusted(_pack_bit_rows(bits, width), lengths)

    @classmethod
    def from_sign_matrix(cls, signs: np.ndarray) -> "PackedBitsBatch":
        """Pack a ``(lanes, n)`` sign matrix; ``>= 0`` maps to bit 1."""
        return cls.from_bit_matrix(np.asarray(signs) >= 0)

    @classmethod
    def from_rows(
        cls, parts: Sequence[PackedBits], width: int | None = None
    ) -> "PackedBitsBatch":
        """Stack :class:`PackedBits` rows into one shared-width buffer."""
        lengths = np.array([part.length for part in parts], dtype=np.int64)
        needed = int(lengths.max()) if lengths.size else 0
        min_width = (needed + _WORD_BITS - 1) // _WORD_BITS
        if width is None:
            width = min_width
        elif width < min_width:
            raise ValueError(f"width {width} cannot hold {needed}-bit lanes")
        words = np.zeros((len(parts), width), dtype=_WORD_DTYPE)
        for i, part in enumerate(parts):
            if not isinstance(part, PackedBits):
                raise TypeError(f"expected PackedBits, got {type(part)!r}")
            words[i, : part.words.size] = part.words
        return cls._trusted(words, lengths)

    def row(self, index: int) -> PackedBits:
        """Lane ``index`` as a zero-copy :class:`PackedBits` view."""
        length = int(self.lengths[index])
        num_words = (length + _WORD_BITS - 1) // _WORD_BITS
        return PackedBits(words=self.words[index, :num_words], length=length)

    def rows(self) -> list[PackedBits]:
        """All lanes as zero-copy :class:`PackedBits` views."""
        return [self.row(index) for index in range(self.num_lanes)]

    # ------------------------------------------------------------------
    # batched word-level ops
    # ------------------------------------------------------------------
    @property
    def num_lanes(self) -> int:
        return self.words.shape[0]

    @property
    def width(self) -> int:
        """Shared row width in ``uint64`` words."""
        return self.words.shape[1]

    @property
    def nbytes_per_lane(self) -> np.ndarray:
        """Wire bytes per lane: ``ceil(length / 8)``, as for PackedBits."""
        return (self.lengths + 7) // 8

    def __len__(self) -> int:
        return self.num_lanes

    def _check_compatible(self, other: "PackedBitsBatch") -> None:
        if not isinstance(other, PackedBitsBatch):
            raise TypeError(f"expected PackedBitsBatch, got {type(other)!r}")
        if other.words.shape != self.words.shape or not np.array_equal(
            other.lengths, self.lengths
        ):
            raise ValueError("batch shape/length mismatch")

    def __and__(self, other: "PackedBitsBatch") -> "PackedBitsBatch":
        self._check_compatible(other)
        return PackedBitsBatch._trusted(self.words & other.words, self.lengths)

    def __or__(self, other: "PackedBitsBatch") -> "PackedBitsBatch":
        self._check_compatible(other)
        return PackedBitsBatch._trusted(self.words | other.words, self.lengths)

    def __xor__(self, other: "PackedBitsBatch") -> "PackedBitsBatch":
        self._check_compatible(other)
        return PackedBitsBatch._trusted(self.words ^ other.words, self.lengths)

    def invert(self) -> "PackedBitsBatch":
        """Bitwise NOT over every lane's logical bits (padding stays zero)."""
        out = np.bitwise_not(self.words)
        _mask_row_padding(out, self.lengths)
        return PackedBitsBatch._trusted(out, self.lengths)

    def popcounts(self) -> np.ndarray:
        """Set-bit count per lane (word-parallel)."""
        if hasattr(np, "bitwise_count"):
            return np.bitwise_count(self.words).sum(axis=1, dtype=np.int64)
        return np.array(
            [self.row(index).popcount() for index in range(self.num_lanes)],
            dtype=np.int64,
        )

    def equals(self, other: "PackedBitsBatch") -> bool:
        """Exact equality over all lanes by word comparison."""
        return (
            isinstance(other, PackedBitsBatch)
            and np.array_equal(other.lengths, self.lengths)
            and bool(np.array_equal(self.words, other.words))
        )

    def all_lanes_equal(self) -> bool:
        """True when every lane holds identical bits (consensus check)."""
        if self.num_lanes <= 1:
            return True
        if self.lengths.size and (self.lengths != self.lengths[0]).any():
            return False
        return bool((self.words == self.words[0]).all())


def _pack_bit_rows(bits: np.ndarray, width: int) -> np.ndarray:
    """Pack a ``(lanes, n)`` 0/1 matrix into ``(lanes, width)`` words."""
    lanes = bits.shape[0]
    packed = np.packbits(
        bits.astype(np.uint8, copy=False), axis=1, bitorder="little"
    )
    out = np.zeros((lanes, width * 8), dtype=np.uint8)
    out[:, : packed.shape[1]] = packed
    return out.view(_WORD_DTYPE)


@functools.lru_cache(maxsize=64)
def _row_padding(
    lengths: bytes, width: int
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray]:
    """Where ``int64`` row lengths pad a ``width``-word matrix.

    Returns a boolean mask of the whole padding words (``None`` when every
    row fills its width) and, for each row whose last word is partial, its
    ``(row, column, valid-bit mask)``.  Cached: a lane-stacked hop sees the
    same few length vectors every round.
    """
    sizes = np.frombuffer(lengths, dtype=np.int64)
    full = (sizes + _WORD_BITS - 1) // _WORD_BITS
    spare = None
    if sizes.size and full.min() < width:
        spare = np.arange(width, dtype=np.int64)[None, :] >= full[:, None]
    rows = np.flatnonzero(sizes % _WORD_BITS)
    tails = (sizes[rows] % _WORD_BITS).astype(np.uint64)
    keep = (_WORD_DTYPE.type(1) << tails) - _WORD_DTYPE.type(1)
    cols = full[rows] - 1
    for array in (spare, rows, cols, keep):
        if array is not None:
            array.flags.writeable = False
    return spare, rows, cols, keep


def _mask_row_padding(words: np.ndarray, lengths: np.ndarray) -> None:
    """Zero every bit at or past ``lengths[i]`` in row ``i``, in place."""
    if not words.size:
        return
    spare, rows, cols, keep = _row_padding(
        np.asarray(lengths, dtype=np.int64).tobytes(), words.shape[1]
    )
    if spare is not None:
        words[spare] = 0
    if rows.size:
        words[rows, cols] &= keep


def _bytes_to_words(raw: np.ndarray, length: int) -> np.ndarray:
    """Zero-pad a little-endian byte stream to whole ``uint64`` words."""
    num_words = (length + _WORD_BITS - 1) // _WORD_BITS
    if raw.size == num_words * 8:
        return raw.view(_WORD_DTYPE)
    buf = np.zeros(num_words * 8, dtype=np.uint8)
    buf[: raw.size] = raw[: buf.size]
    return buf.view(_WORD_DTYPE)


def signed_int_bit_width(max_abs_value: int) -> int:
    """Bits for a fixed-width signed encoding of ``[-v, +v]``.

    Models Section 3.1's bit-length expansion: a sum of ``m`` signs lies in
    ``{-m, ..., +m}`` and needs ``ceil(log2(m + 1)) + 1`` bits (magnitude plus
    a sign bit).  ``m = 1`` correctly yields 1 bit because the values are then
    only ``{-1, +1}`` and the sign bit alone is enough.
    """
    if max_abs_value < 1:
        raise ValueError("max_abs_value must be >= 1")
    if max_abs_value == 1:
        return 1
    return math.ceil(math.log2(max_abs_value + 1)) + 1


class _BitWriter:
    """Accumulates bits MSB-first into a byte string."""

    def __init__(self) -> None:
        self._bits: list[int] = []

    def write(self, bit: int) -> None:
        self._bits.append(bit & 1)

    def write_int(self, value: int, width: int) -> None:
        for shift in range(width - 1, -1, -1):
            self.write((value >> shift) & 1)

    def getvalue(self) -> bytes:
        bits = np.array(self._bits, dtype=np.uint8)
        return np.packbits(bits, bitorder="big").tobytes()

    def __len__(self) -> int:
        return len(self._bits)


class _BitReader:
    """Reads bits MSB-first from a byte string."""

    def __init__(self, data: bytes) -> None:
        raw = np.frombuffer(data, dtype=np.uint8)
        self._bits = np.unpackbits(raw, bitorder="big")
        self._pos = 0

    def read(self) -> int:
        if self._pos >= self._bits.size:
            raise EOFError("bit stream exhausted")
        bit = int(self._bits[self._pos])
        self._pos += 1
        return bit

    def read_int(self, width: int) -> int:
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read()
        return value

    @property
    def remaining(self) -> int:
        return int(self._bits.size - self._pos)


def _elias_gamma_write(writer: _BitWriter, value: int) -> None:
    if value < 1:
        raise ValueError("Elias gamma encodes positive integers only")
    n = value.bit_length() - 1
    for _ in range(n):
        writer.write(0)
    writer.write_int(value, n + 1)


def _elias_gamma_read(reader: _BitReader) -> int:
    n = 0
    while reader.read() == 0:
        n += 1
    value = 1
    for _ in range(n):
        value = (value << 1) | reader.read()
    return value


def elias_gamma_encode_reference(
    values: np.ndarray | list[int],
) -> tuple[bytes, int]:
    """Per-bit reference encoder (the original loop implementation)."""
    writer = _BitWriter()
    for value in np.asarray(values, dtype=np.int64):
        _elias_gamma_write(writer, int(value))
    return writer.getvalue(), len(writer)


def elias_gamma_decode_reference(payload: bytes, count: int) -> np.ndarray:
    """Per-bit reference decoder (the original loop implementation)."""
    reader = _BitReader(payload)
    return np.array([_elias_gamma_read(reader) for _ in range(count)], dtype=np.int64)


def elias_delta_encode_reference(
    values: np.ndarray | list[int],
) -> tuple[bytes, int]:
    """Per-bit reference encoder (the original loop implementation)."""
    writer = _BitWriter()
    for raw in np.asarray(values, dtype=np.int64):
        value = int(raw)
        if value < 1:
            raise ValueError("Elias delta encodes positive integers only")
        n = value.bit_length()
        _elias_gamma_write(writer, n)
        writer.write_int(value & ((1 << (n - 1)) - 1), n - 1)
    return writer.getvalue(), len(writer)


def elias_delta_decode_reference(payload: bytes, count: int) -> np.ndarray:
    """Per-bit reference decoder (the original loop implementation)."""
    reader = _BitReader(payload)
    out = []
    for _ in range(count):
        n = _elias_gamma_read(reader)
        value = 1
        for _ in range(n - 1):
            value = (value << 1) | reader.read()
        out.append(value)
    return np.array(out, dtype=np.int64)




# ----------------------------------------------------------------------
# vectorized Elias codecs
# ----------------------------------------------------------------------
def _bit_lengths(values: np.ndarray) -> np.ndarray:
    """Exact ``bit_length`` per element (positive ``int64`` inputs).

    ``np.frexp`` yields the double-precision exponent, which equals the bit
    length exactly below ``2**53``; one comparison repairs the values whose
    float conversion rounded up to the next power of two.
    """
    v = values.astype(np.int64, copy=False)
    _, exponents = np.frexp(v.astype(np.float64))
    lengths = exponents.astype(np.int64)
    capped = np.clip(lengths - 1, 0, 62)
    lengths -= (np.int64(1) << capped) > v
    return np.minimum(lengths, 63)


def elias_gamma_encode(values: np.ndarray | list[int]) -> tuple[bytes, int]:
    """Elias-gamma encode positive integers (fully vectorized).

    Returns ``(payload, bit_count)``; ``bit_count`` is the exact number of
    meaningful bits (the payload is padded to a byte boundary).  Output is
    byte-identical to :func:`elias_gamma_encode_reference`.

    A gamma code is the value written MSB-first in ``2n + 1`` bits, so bit
    ``k`` of code ``i`` is bit ``lengths[i] - 1 - k`` of ``values[i]`` —
    the whole stream assembles from ``np.repeat`` plus one shift, with no
    scatter and no per-value loop.
    """
    values = np.asarray(values, dtype=np.int64).reshape(-1)
    if values.size == 0:
        return b"", 0
    if values.min() < 1:
        raise ValueError("Elias gamma encodes positive integers only")
    lengths = 2 * _bit_lengths(values) - 1
    total_bits = int(lengths.sum())
    ends = np.cumsum(lengths)
    if total_bits < (1 << 31) and int(values.max()) < (1 << 31):
        # 32-bit lanes halve memory traffic on the bitstream-sized arrays.
        vals_rep = np.repeat(values.astype(np.int32), lengths)
        shift = np.repeat((ends - 1).astype(np.int32), lengths)
        shift -= np.arange(total_bits, dtype=np.int32)
        np.minimum(shift, np.int32(31), out=shift)
        bits_arr = ((vals_rep >> shift) & np.int32(1)).astype(np.uint8)
    else:
        vals_rep = np.repeat(values, lengths)
        shift = np.repeat(ends - 1, lengths)
        shift -= np.arange(total_bits, dtype=np.int64)
        np.minimum(shift, np.int64(63), out=shift)
        bits_arr = ((vals_rep >> shift) & np.int64(1)).astype(np.uint8)
    return np.packbits(bits_arr, bitorder="big").tobytes(), total_bits


def elias_delta_encode(values: np.ndarray | list[int]) -> tuple[bytes, int]:
    """Elias-delta encode positive integers (fully vectorized).

    Byte-identical to :func:`elias_delta_encode_reference`: a gamma-coded
    ``bit_length`` prefix followed by the value's low ``n - 1`` bits.  The
    two regions of every code are assembled with the same repeat-plus-shift
    scheme as :func:`elias_gamma_encode` and selected per bit position.
    """
    values = np.asarray(values, dtype=np.int64).reshape(-1)
    if values.size == 0:
        return b"", 0
    if values.min() < 1:
        raise ValueError("Elias delta encodes positive integers only")
    n = _bit_lengths(values)
    ng = _bit_lengths(n) - 1
    lengths = 2 * ng + n
    total_bits = int(lengths.sum())
    ends = np.cumsum(lengths)
    offsets = ends - lengths
    low = values - (np.int64(1) << (n - 1))
    if total_bits < (1 << 31) and int(values.max()) < (1 << 31):
        dtype, max_shift = np.int32, np.int32(31)
    else:
        dtype, max_shift = np.int64, np.int64(63)
    positions = np.arange(total_bits, dtype=dtype)
    # Bit k of code i reads n[i] while the gamma(n) prefix lasts, then the
    # low bits of the value; both shifts are affine in k, so each is one
    # repeat of its per-code base minus the global arange.
    prefix_shift = np.repeat((offsets + 2 * ng).astype(dtype), lengths)
    prefix_shift -= positions
    low_shift = np.repeat((ends - 1).astype(dtype), lengths)
    low_shift -= positions
    np.minimum(low_shift, max_shift, out=low_shift)
    in_prefix = prefix_shift >= 0
    np.clip(prefix_shift, 0, max_shift, out=prefix_shift)
    n_rep = np.repeat(n.astype(dtype), lengths)
    low_rep = np.repeat(low.astype(dtype), lengths)
    bits_arr = np.where(
        in_prefix, n_rep >> prefix_shift, low_rep >> low_shift
    ).astype(np.uint8)
    bits_arr &= 1
    return np.packbits(bits_arr, bitorder="big").tobytes(), total_bits


def _next_one_table(bits_arr: np.ndarray) -> np.ndarray:
    """``F[p]`` = position of the first 1-bit at or after ``p``.

    Positions past the last 1-bit get the sentinel ``size``.  Built from the
    1-bit positions with one ``np.repeat`` (streaming, no binary search).
    """
    size = bits_arr.size
    dtype = np.int32 if size < (1 << 30) else np.int64
    ones = np.flatnonzero(bits_arr)
    table = np.empty(size, dtype=dtype)
    if ones.size:
        covered = int(ones[-1]) + 1
        gaps = np.diff(ones, prepend=np.int64(-1))
        table[:covered] = np.repeat(ones.astype(dtype), gaps)
        table[covered:] = size
    else:
        table[:] = size
    return table


def _orbit(jump: np.ndarray, count: int) -> np.ndarray | None:
    """First ``count`` positions of the cursor orbit ``0, j(0), j(j(0))…``.

    ``jump`` is an ``int32`` next-code-start table whose values stay in
    ``[p + 1, size - 1]``; a clamped stream therefore always funnels into
    the fixed point at ``size - 1``.  Returns ``None`` when the orbit hits
    that fixed point before yielding ``count`` positions — the sequential
    cursor would have run off the stream, so the caller raises ``EOFError``.

    Small counts walk the table in Python.  Large counts follow the chain
    in one C-level pass: the table is a functional graph (out-degree one),
    so a breadth-first order from position zero IS the orbit.  Without
    scipy, fall back to composing ``jump`` with itself twice (near-monotone
    gathers), walking the quarter-length orbit of ``jump^4``, and expanding
    each anchor back to four consecutive starts vectorized.
    """
    size = jump.size
    if count <= 4096:
        walk = [0] * count
        position = 0
        view = memoryview(jump)
        for index in range(count):
            walk[index] = position
            if position == size - 1 and index + 1 < count:
                return None
            position = view[position]
        return np.array(walk, dtype=np.int32)
    if _breadth_first_order is not None:
        # float64 weights let csgraph's validate_graph reuse the matrix
        # as-is; any other dtype triggers a full-stream cast copy per call.
        graph = _csr_matrix(
            (
                np.broadcast_to(np.float64(1.0), size),
                jump,
                np.arange(size + 1, dtype=np.int32),
            ),
            shape=(size, size),
            copy=False,
        )
        order = _breadth_first_order(
            graph, 0, directed=True, return_predecessors=False
        )
        if order.size < count:
            return None
        return order[:count].astype(np.int32, copy=False)
    stride = 4
    power = jump[jump]
    power = power[power]
    anchors_needed = -(-count // stride)
    walk = [0] * anchors_needed
    position = 0
    view = memoryview(power)
    for index in range(anchors_needed):
        walk[index] = position
        position = view[position]
    frontier = np.array(walk, dtype=np.int32)
    expanded = np.empty((stride, anchors_needed), dtype=np.int32)
    for step in range(stride):
        expanded[step] = frontier
        if step + 1 < stride:
            frontier = jump[frontier]
    starts = expanded.T.reshape(-1)[:count]
    if count > 1 and starts[-1] == size - 1 and starts[-2] == size - 1:
        return None
    return starts


def _read_bit_fields(
    padded: np.ndarray, starts_bits: np.ndarray, widths: np.ndarray
) -> np.ndarray:
    """Read one MSB-first integer of ``widths[i]`` bits per start position.

    Gathers a byte window per field from the padded payload (the pad lets
    every window read full bytes) and shifts the field out of it; widths
    must be in ``[1, 63]``.
    """
    base = starts_bits >> 3
    max_width = int(widths.max())
    if max_width <= 25:
        # 32-bit lanes: a field plus its bit phase always fits four bytes.
        window_bytes = (max_width + 14) // 8
        window = np.zeros(starts_bits.shape, dtype=np.uint32)
        for k in range(window_bytes):
            window |= padded[base + k].astype(np.uint32) << np.uint32(
                8 * (3 - k)
            )
        window <<= (starts_bits & 7).astype(np.uint32)
        return (window >> (np.uint32(32) - widths.astype(np.uint32))).astype(
            np.int64
        )
    phase = (starts_bits & 7).astype(np.uint64)
    window_bytes = (max_width + 14) // 8
    window = np.zeros(starts_bits.shape, dtype=np.uint64)
    for k in range(min(window_bytes, 8)):
        window |= padded[base + k].astype(np.uint64) << np.uint64(8 * (7 - k))
    window <<= phase
    if window_bytes > 8:
        window |= padded[base + 8].astype(np.uint64) >> (np.uint64(8) - phase)
    return (window >> (np.uint64(64) - widths.astype(np.uint64))).astype(
        np.int64
    )


def elias_gamma_decode(payload: bytes, count: int) -> np.ndarray:
    """Decode ``count`` Elias-gamma integers from ``payload`` (vectorized).

    The sequential cursor of the reference reader becomes a jump table
    ``next_start(p) = 2 * next_one(p) - p + 1`` whose orbit from zero is
    resolved by :func:`_orbit`; the decoded boundaries then replay the
    cursor exactly, so truncated or overrun streams raise ``EOFError``
    precisely when the reference reader would.
    """
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    data = np.frombuffer(payload, dtype=np.uint8)
    bits_arr = np.unpackbits(data, bitorder="big")
    size = bits_arr.size
    if size == 0:
        raise EOFError("bit stream exhausted")
    dtype = np.int32 if size < (1 << 30) else np.int64
    ones = np.flatnonzero(bits_arr)
    # Unclamped next-start table: a gamma code starting at p ends exactly at
    # 2 * next_one(p) - p + 1, so one table is both the jump function and
    # the cursor replay that validation checks against.
    raw_jump = np.empty(size, dtype=dtype)
    if ones.size:
        covered = int(ones[-1]) + 1
        gaps = np.diff(ones, prepend=np.int64(-1))
        head = np.repeat((2 * ones + 1).astype(dtype), gaps)
        head -= np.arange(covered, dtype=dtype)
        raw_jump[:covered] = head
        raw_jump[covered:] = size + 1
    else:
        raw_jump[:] = size + 1
    jump = np.minimum(raw_jump, dtype(size - 1))
    starts = _orbit(jump, count)
    if starts is None:
        raise EOFError("bit stream exhausted")
    ends = raw_jump[starts]
    n = (ends - starts) >> 1
    # Replay the sequential cursor exactly: each code's (unclamped) end must
    # be the next code's start, and the last end must fit in the stream.
    if (
        (n > 62).any()
        or int(ends[-1]) > size
        or (ends[:-1] != starts[1:]).any()
    ):
        raise EOFError("bit stream exhausted")
    padded = np.concatenate([data, np.zeros(16, dtype=np.uint8)])
    return _read_bit_fields(padded, starts + n, n + 1)


def elias_delta_decode(payload: bytes, count: int) -> np.ndarray:
    """Decode ``count`` Elias-delta integers from ``payload`` (vectorized).

    The jump table needs the gamma-decoded length ``n`` at every position;
    since valid lengths keep ``n <= 63`` the gamma prefix spans at most 13
    bits, so a seven-bit window gathered at each next-one position recovers
    ``n`` everywhere at once.
    """
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    data = np.frombuffer(payload, dtype=np.uint8)
    bits_arr = np.unpackbits(data, bitorder="big")
    size = bits_arr.size
    if size == 0:
        raise EOFError("bit stream exhausted")
    padded = np.concatenate([data, np.zeros(16, dtype=np.uint8)])
    next_one = _next_one_table(bits_arr)
    dtype = next_one.dtype.type
    positions = np.arange(size, dtype=next_one.dtype)
    ng_capped = np.minimum(next_one - positions, dtype(6))
    lead_byte = next_one >> 3
    window = (padded[lead_byte].astype(next_one.dtype) << 8) | padded[
        lead_byte + 1
    ]
    window = (window >> (dtype(9) - (next_one & dtype(7)))) & dtype(0x7F)
    n_all = window >> (dtype(6) - ng_capped)
    jump = (next_one << 1) - positions + n_all
    np.minimum(jump, dtype(size - 1), out=jump)
    starts = _orbit(jump, count)
    if starts is None:
        raise EOFError("bit stream exhausted")
    lead = next_one[starts]
    ng = lead - starts
    n = n_all[starts]
    # Replay the sequential cursor exactly (see elias_gamma_decode); ng <= 6
    # bounds the prefix this decoder trusts, and n <= 63 the int64 range.
    ends = (lead << 1) - starts + n
    if (
        (ng > 6).any()
        or (n < 1).any()
        or (n > 63).any()
        or int(ends[-1]) > size
        or (ends[:-1] != starts[1:]).any()
    ):
        raise EOFError("bit stream exhausted")
    low_starts = starts + 2 * ng + np.int32(1)
    low = _read_bit_fields(padded, low_starts, np.maximum(n - 1, 1))
    n64 = n.astype(np.int64)
    return (np.int64(1) << (n64 - 1)) + np.where(n64 > 1, low, 0)
