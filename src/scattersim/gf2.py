"""Exact linear algebra over GF(2): immutable bit vectors and matrices.

Bits are packed into Python ints, one word per vector or matrix row, so
XOR-heavy kernels run word-parallel without external dependencies. Index 0
of a vector is the first-processed (most significant) bit; the backing int
keeps bit i at position ``length - 1 - i``. All values are immutable after
construction and safe to share across threads.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Union

BitsLike = Union["BitVector", Iterable[int], str]

# Bit-reversal of a single byte, used when converting between byte streams
# and bit order at serialization boundaries.
_BYTE_REFLECT = bytes(
    sum(((b >> i) & 1) << (7 - i) for i in range(8)) for b in range(256)
)


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class SingularMatrixError(ValueError):
    """Square matrix has no inverse over GF(2)."""

    def __init__(self, size: int, rank: int):
        super().__init__(f"{size}x{size} matrix is not invertible, rank = {rank}")
        self.size = size
        self.rank = rank


def _coerce_bits(bits: BitsLike) -> tuple[int, int]:
    """Return (packed value, length) for a vector-like input."""
    if isinstance(bits, BitVector):
        return bits.value, len(bits)
    if isinstance(bits, str):
        stripped = bits.replace(" ", "").replace("_", "")
        if stripped and any(c not in "01" for c in stripped):
            raise ValueError(f"bit string may contain only 0/1, got {bits!r}")
        return (int(stripped, 2) if stripped else 0), len(stripped)
    value = 0
    n = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bit values must be 0 or 1, got {b!r}")
        value = (value << 1) | b
        n += 1
    return value, n


class BitVector:
    """Immutable row vector over GF(2)."""

    __slots__ = ("_value", "_length")

    def __init__(self, value: int, length: int):
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        if value < 0 or value >> length:
            raise ValueError(f"value {value:#x} does not fit in {length} bits")
        self._value = value
        self._length = length

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        return cls(0, length)

    @classmethod
    def from_bits(cls, bits: BitsLike) -> "BitVector":
        value, length = _coerce_bits(bits)
        return cls(value, length)

    @classmethod
    def unit(cls, length: int, index: int) -> "BitVector":
        """Basis vector with a single 1 at ``index``."""
        if not 0 <= index < length:
            raise IndexError(f"index {index} out of range for length {length}")
        return cls(1 << (length - 1 - index), length)

    @classmethod
    def from_bytes(cls, data: bytes, lsb_first: bool = False) -> "BitVector":
        """Unpack bytes into bits, LSB-first within each byte if requested."""
        if lsb_first:
            data = data.translate(_BYTE_REFLECT)
        return cls(int.from_bytes(data, "big"), 8 * len(data))

    def to_bytes(self, lsb_first: bool = False) -> bytes:
        if self._length % 8:
            raise ValueError(f"length {self._length} is not a whole number of bytes")
        data = self._value.to_bytes(self._length // 8, "big")
        return data.translate(_BYTE_REFLECT) if lsb_first else data

    @property
    def value(self) -> int:
        """Packed int; bit i of the vector is int bit ``len - 1 - i``."""
        return self._value

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(self._length)
            if step != 1:
                raise ValueError("only contiguous slices are supported")
            width = max(0, stop - start)
            chunk = (self._value >> (self._length - stop)) & ((1 << width) - 1)
            return BitVector(chunk, width)
        if key < 0:
            key += self._length
        if not 0 <= key < self._length:
            raise IndexError(f"index {key} out of range for length {self._length}")
        return (self._value >> (self._length - 1 - key)) & 1

    def __iter__(self) -> Iterator[int]:
        n = self._length
        v = self._value
        for i in range(n - 1, -1, -1):
            yield (v >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if not isinstance(other, BitVector):
            return NotImplemented
        if self._length != other._length:
            raise DimensionError(
                f"length mismatch: {self._length} vs {other._length}"
            )
        return BitVector(self._value ^ other._value, self._length)

    def __add__(self, other: "BitVector") -> "BitVector":
        """Concatenation."""
        if not isinstance(other, BitVector):
            return NotImplemented
        return BitVector(
            (self._value << other._length) | other._value,
            self._length + other._length,
        )

    def __matmul__(self, matrix: "BitMatrix") -> "BitVector":
        """Row vector times matrix."""
        if not isinstance(matrix, BitMatrix):
            return NotImplemented
        n, k = matrix.shape
        if self._length != n:
            raise DimensionError(
                f"cannot multiply 1x{self._length} vector by {n}x{k} matrix"
            )
        acc = 0
        v = self._value
        rows = matrix._rows
        for i in range(n):
            if (v >> (n - 1 - i)) & 1:
                acc ^= rows[i]
        return BitVector(acc, k)

    def popcount(self) -> int:
        return self._value.bit_count()

    def flip_range(self, start: int, stop: int) -> "BitVector":
        """Return a copy with bits in [start, stop) inverted."""
        if not 0 <= start <= stop <= self._length:
            raise IndexError(
                f"range [{start}, {stop}) out of bounds for length {self._length}"
            )
        width = stop - start
        mask = ((1 << width) - 1) << (self._length - stop)
        return BitVector(self._value ^ mask, self._length)

    def reversed_bits(self) -> "BitVector":
        if not self._length:
            return self
        return BitVector(
            int(format(self._value, f"0{self._length}b")[::-1], 2), self._length
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._length == other._length and self._value == other._value

    def __hash__(self) -> int:
        return hash((self._value, self._length))

    def __str__(self) -> str:
        return format(self._value, f"0{self._length}b") if self._length else ""

    def __repr__(self) -> str:
        return f"BitVector('{self}')"


class BitMatrix:
    """Immutable dense matrix over GF(2); each row is one packed int."""

    __slots__ = ("_rows", "_cols")

    def __init__(self, rows: Iterable[int], cols: int):
        rows = tuple(rows)
        if cols < 0:
            raise ValueError(f"cols must be >= 0, got {cols}")
        for r in rows:
            if r < 0 or r >> cols:
                raise ValueError(f"row {r:#x} does not fit in {cols} columns")
        self._rows = rows
        self._cols = cols

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls((1 << (n - 1 - i) for i in range(n)), n)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self._rows), self._cols

    def row(self, i: int) -> BitVector:
        return BitVector(self._rows[i], self._cols)

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if not isinstance(other, BitMatrix):
            return NotImplemented
        n, m = self.shape
        m2, k = other.shape
        if m != m2:
            raise DimensionError(
                f"cannot multiply {n}x{m} matrix by {m2}x{k} matrix"
            )
        orows = other._rows
        out = []
        for r in self._rows:
            acc = 0
            for i in range(m):
                if (r >> (m - 1 - i)) & 1:
                    acc ^= orows[i]
            out.append(acc)
        return BitMatrix(out, k)

    def __pow__(self, exponent: int) -> "BitMatrix":
        n, m = self.shape
        if n != m:
            raise DimensionError(f"cannot exponentiate non-square {n}x{m} matrix")
        if exponent < 0:
            raise ValueError("negative exponents are not supported; invert first")
        result = BitMatrix.identity(n)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result

    def rank(self) -> int:
        n, m = self.shape
        rows = list(self._rows)
        rank = 0
        for col in range(m):
            pivot_bit = 1 << (m - 1 - col)
            pivot = next((i for i in range(rank, n) if rows[i] & pivot_bit), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for i in range(rank + 1, n):
                if rows[i] & pivot_bit:
                    rows[i] ^= rows[rank]
            rank += 1
            if rank == n:
                break
        return rank

    def invert(self) -> "BitMatrix":
        """Gauss-Jordan inverse; raises SingularMatrixError if rank < n."""
        n, m = self.shape
        if n != m:
            raise DimensionError(f"cannot invert non-square {n}x{m} matrix")
        # Augment [M | I]: matrix part in the high n bits, identity in the low.
        rows = [(self._rows[i] << n) | (1 << (n - 1 - i)) for i in range(n)]
        rank = 0
        for col in range(n):
            pivot_bit = 1 << (2 * n - 1 - col)
            pivot = next((i for i in range(rank, n) if rows[i] & pivot_bit), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for i in range(n):
                if i != rank and rows[i] & pivot_bit:
                    rows[i] ^= rows[rank]
            rank += 1
        if rank < n:
            raise SingularMatrixError(n, rank)
        low_mask = (1 << n) - 1
        return BitMatrix((r & low_mask for r in rows), n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self._cols == other._cols and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._rows, self._cols))

    def __str__(self) -> str:
        return "\n".join(format(r, f"0{self._cols}b") for r in self._rows)

    def __repr__(self) -> str:
        n, m = self.shape
        return f"<BitMatrix {n}x{m}>"
