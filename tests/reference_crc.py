"""Independent CRC reference implementations for the tests.

Deliberately separate from the package under test: byte-wise table lookups
with the reflected (LSB-first) register for CRC-32 and the plain MSB-first
register for the narrower checks, plus the bit-serial MSB-first register
rule itself, forward and rewound, for any width. Expected values come from
the published check strings ("123456789") of the standard algorithm
catalogue.
"""
from __future__ import annotations

CRC32_POLY_REFLECTED = 0xEDB88320


def _crc32_table() -> list[int]:
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ CRC32_POLY_REFLECTED if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE32 = _crc32_table()


def crc32_ieee(data: bytes, crc: int = 0) -> int:
    """Standard reflected CRC-32 (the 802.11 FCS value) of whole bytes."""
    crc ^= 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _TABLE32[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def _msb_table(width: int, poly: int) -> list[int]:
    top = 1 << (width - 1)
    mask = (1 << width) - 1
    table = []
    for i in range(256):
        crc = (i << (width - 8)) & mask if width >= 8 else i
        for _ in range(8):
            crc = ((crc << 1) ^ poly) & mask if crc & top else (crc << 1) & mask
        table.append(crc)
    return table


class MsbTableCrc:
    """Table-driven MSB-first CRC for widths that are whole bytes >= 8."""

    def __init__(self, width: int, poly: int, init: int, final: int):
        if width % 8 or width < 8:
            raise ValueError("byte-wise tables need width in {8, 16, 24, ...}")
        self.width = width
        self.init = init
        self.final = final
        self.mask = (1 << width) - 1
        self.table = _msb_table(width, poly)

    def compute(self, data: bytes) -> int:
        crc = self.init
        shift = self.width - 8
        for byte in data:
            crc = ((crc << 8) & self.mask) ^ self.table[((crc >> shift) ^ byte) & 0xFF]
        return crc ^ self.final


CRC8_REF = MsbTableCrc(8, 0x07, 0x00, 0x00)
CRC16_CCITT_REF = MsbTableCrc(16, 0x1021, 0xFFFF, 0x0000)

# Catalogue check values over b"123456789".
CHECK_CRC32 = 0xCBF43926
CHECK_CRC8 = 0xF4
CHECK_CRC16_CCITT = 0x29B1


def _bits(data: int, n: int) -> str:
    """The n low bits of data as a string, first-processed bit first."""
    return format(data, f"0{n}b")[-n:] if n else ""


def serial_forward(width: int, poly: int, reg: int, data: int, n: int) -> int:
    """Raw MSB-first register over n data bits, one shift and tap per bit."""
    mask = (1 << width) - 1
    for bit in _bits(data, n):
        feedback = (reg >> (width - 1)) ^ int(bit)
        reg = (reg << 1) & mask
        if feedback & 1:
            reg ^= poly
    return reg


def serial_reverse(width: int, poly: int, reg: int, data: int, n: int) -> int:
    """Rewind serial_forward one bit at a time; needs poly with a constant term."""
    for bit in reversed(_bits(data, n)):
        # The low bit is 1 exactly when the forward step tapped poly.
        tapped = reg & 1
        if tapped:
            reg ^= poly
        reg = (reg >> 1) | ((tapped ^ int(bit)) << (width - 1))
    return reg
