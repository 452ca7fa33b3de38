"""Bit containers and wire-size rules used on the simulated wire.

Two things live here:

1. **Sign-bit packing** — a sign vector over ``{-1, +1}`` (or the bit
   convention ``{0, 1}`` with ``1 == +1``) travels one bit per element.
   :class:`PackedBits` stores it as little-endian ``uint64`` words (64
   elements per machine op), the one-bit representation Marsit carries
   hop to hop; :class:`PackedBitsBatch` stacks many such vectors so a whole
   lockstep step is one numpy op.  Either charges ``ceil(length / 8)``
   wire bytes.
2. **Size rules for multi-bit sign sums** — :func:`signed_int_bit_width`
   is the fixed width a partial sign sum over ``m`` hops needs (Section
   3.1's bit-length expansion); :func:`elias_gamma_bits` is the exact
   length of the Elias-gamma code the paper's baselines compact those sums
   with (Section 5, "Baselines"), after :func:`zigzag_encode` maps them to
   positive integers.  The simulator charges only the code length, so no
   bitstream is ever built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PackedBits",
    "PackedBitsBatch",
    "elias_gamma_bits",
    "signed_int_bit_width",
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

    Logical bit ``j`` is bit ``j % 64`` of word ``j // 64``, so the byte
    view is ``np.packbits(bits, bitorder="little")`` widened from bytes to
    machine words: the Marsit ``⊙`` merge, the Bernoulli transient and the
    consensus checks all run 64 elements per numpy op instead of one.

    Invariants: ``words`` holds exactly ``ceil(length / 64)`` words and every
    padding bit past ``length`` is zero, so AND/OR/XOR/popcount need no tail
    masking.  Instances are immutable; all operators return new objects.

    ``nbytes`` is the *wire* size (``ceil(length / 8)``, the byte-packed
    length), not the in-memory word storage, so word padding is never
    charged.
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

        ``uint8``/``bool`` inputs are trusted internal bit vectors and skip
        the value check; other dtypes are checked.
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


    def to_bits(self) -> np.ndarray:
        """Unpack to a 0/1 ``uint8`` array — the final decode step."""
        raw = self._byte_view()[: self.nbytes]
        return np.unpackbits(raw, bitorder="little")[: self.length].copy()

    def to_signs(self, scale: float = 1.0) -> np.ndarray:
        """Unpack to ``{-scale, +scale}`` floats — the final decode step.

        ``2 b - 1`` is formed in ``int8`` on the unpacked bits, and one
        multiply writes the ``float64`` result.  ``±1.0 * scale`` is exact,
        so this equals ``scale * to_signs()`` bit for bit in one sweep.
        """
        signs = np.unpackbits(
            self._byte_view(), count=self.length, bitorder="little"
        ).view(np.int8)
        signs += signs
        signs -= 1
        return np.multiply(signs, scale, dtype=np.float64)

    def _byte_view(self) -> np.ndarray:
        """The words reinterpreted as the little-endian byte stream."""
        return self.words.view(np.uint8)

    # ------------------------------------------------------------------
    # word-level ops (the fast path)
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Wire bytes: ``ceil(length / 8)``."""
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

    def row(self, index: int) -> PackedBits:
        """Lane ``index`` as a zero-copy :class:`PackedBits` view."""
        length = int(self.lengths[index])
        num_words = (length + _WORD_BITS - 1) // _WORD_BITS
        return PackedBits(words=self.words[index, :num_words], length=length)

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


# ----------------------------------------------------------------------
# Elias-gamma code length
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


def elias_gamma_bits(values: np.ndarray | list[int]) -> int:
    """Exact length in bits of the Elias-gamma code of positive integers.

    A gamma code writes ``v`` MSB-first after ``bit_length(v) - 1`` zeros,
    so the stream of ``values`` is ``sum(2 * bit_length(v) - 1)`` bits
    long.  Only that length goes on the simulated wire, so it is computed
    from the bit lengths alone.
    """
    values = np.asarray(values, dtype=np.int64).reshape(-1)
    if values.size == 0:
        return 0
    if values.min() < 1:
        raise ValueError("Elias gamma encodes positive integers only")
    return 2 * int(_bit_lengths(values).sum()) - int(values.size)
