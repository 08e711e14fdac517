"""802.11n-style MAC/PHY data model.

MPDUs carry a checksum trailer over header and body; an aggregate packs
several MPDUs behind simple length delimiters so one PHY packet exposes
multiple independent checksums. A symbol map partitions the serialized
bitstream into PHY symbols (26 MAC bits each at MCS 0 / 20 MHz) and window
location picks, per MPDU, the symbol the tag modulates plus the width-R
recovery window that starts at the same bit.

Serialized bit order is register processing order: for a reflected
checksum spec each byte goes LSB-first and the checksum trailer is
little-endian, so the stream is exactly what the CRC consumes.
"""
from __future__ import annotations

from dataclasses import dataclass

from .crc import CrcSpec, fcs
from .gf2 import BitVector

DEFAULT_HEADER_LEN = 24
MIN_BODY_LEN = 4
DELIMITER_LEN = 2
UNIT_ALIGN = 4


class FrameParseError(ValueError):
    """Malformed or truncated aggregate; carries the failing subframe index."""

    def __init__(self, subframe: int, reason: str):
        super().__init__(f"subframe {subframe}: {reason}")
        self.subframe = subframe


@dataclass(frozen=True)
class Mpdu:
    """MAC frame: header, body, and checksum value over header + body."""

    header: bytes
    body: bytes
    fcs: BitVector

    def __post_init__(self):
        if len(self.body) < MIN_BODY_LEN:
            raise ValueError(
                f"body must be >= {MIN_BODY_LEN} bytes, got {len(self.body)}"
            )

    def content(self) -> bytes:
        return self.header + self.body

    def length(self, spec: CrcSpec) -> int:
        """Serialized byte length including the checksum trailer."""
        return len(self.header) + len(self.body) + spec.width // 8


@dataclass(frozen=True)
class Ampdu:
    """Aggregate of MPDUs, each independently checksummed."""

    subframes: tuple[Mpdu, ...]

    def __post_init__(self):
        if not self.subframes:
            raise ValueError("aggregate needs at least one subframe")


@dataclass(frozen=True)
class SymbolMap:
    """MAC-bit to PHY-symbol mapping over the serialized bitstream."""

    bits_per_symbol: int = 26
    origin: int = 0

    def __post_init__(self):
        if self.bits_per_symbol < 1:
            raise ValueError(
                f"bits_per_symbol must be >= 1, got {self.bits_per_symbol}"
            )
        if self.origin < 0:
            raise ValueError(f"origin must be >= 0, got {self.origin}")

    def symbol_start(self, index: int) -> int:
        return self.origin + index * self.bits_per_symbol


@dataclass(frozen=True)
class WindowPolicy:
    """Which eligible symbol of an MPDU carries the tag bit (0 = first)."""

    eligible_index: int = 0

    def __post_init__(self):
        if self.eligible_index < 0:
            raise ValueError(
                f"eligible_index must be >= 0, got {self.eligible_index}"
            )


@dataclass(frozen=True)
class ModulationWindow:
    """Per-MPDU location of the modulated symbol and its recovery window.

    Offsets are bits relative to the MPDU's first header bit. The recovery
    window starts at the modulated symbol's first bit and spans the checksum
    width, so the modulated bits sit in its leading portion.
    """

    mpdu_index: int
    symbol_index: int
    mod_start: int
    mod_len: int
    rec_len: int

    @property
    def mod_range(self) -> range:
        return range(self.mod_start, self.mod_start + self.mod_len)

    @property
    def recovery_range(self) -> range:
        return range(self.mod_start, self.mod_start + self.rec_len)


@dataclass(frozen=True)
class SubframeLayout:
    """Bit offsets of one subframe within the serialized aggregate."""

    mpdu_start: int
    header_bits: int
    body_bits: int
    fcs_bits: int

    @property
    def body_start(self) -> int:
        return self.mpdu_start + self.header_bits

    @property
    def fcs_start(self) -> int:
        return self.body_start + self.body_bits

    @property
    def mpdu_end(self) -> int:
        return self.fcs_start + self.fcs_bits


def build_mpdu(header: bytes, body: bytes, spec: CrcSpec) -> Mpdu:
    """Assemble an MPDU with a freshly computed checksum trailer."""
    header, body = bytes(header), bytes(body)
    return Mpdu(header, body, fcs(spec, BitVector.from_bytes(header + body)))


def verify_fcs(mpdu: Mpdu, spec: CrcSpec) -> bool:
    """Recompute the checksum over header + body and compare."""
    return fcs(spec, BitVector.from_bytes(mpdu.content())) == mpdu.fcs


def aggregate(mpdus: list[Mpdu]) -> Ampdu:
    return Ampdu(tuple(mpdus))


def fcs_bytes(value: BitVector, spec: CrcSpec) -> bytes:
    """A checksum value as its trailer bytes on the wire."""
    if spec.width % 8:
        raise ValueError(f"cannot serialize a {spec.width}-bit checksum to bytes")
    data = value.to_bytes()
    return data[::-1] if spec.reflected else data


def _fcs_from_bytes(data: bytes, spec: CrcSpec) -> BitVector:
    ordered = data[::-1] if spec.reflected else data
    return BitVector.from_bytes(ordered)


def serialize_mpdu(mpdu: Mpdu, spec: CrcSpec) -> bytes:
    return mpdu.content() + fcs_bytes(mpdu.fcs, spec)


def _pad_len(unit_len: int) -> int:
    return -unit_len % UNIT_ALIGN


def serialize_ampdu(ampdu: Ampdu, spec: CrcSpec) -> bytes:
    """Delimited byte stream: 16-bit BE length, MPDU bytes, pad to 4-byte units."""
    parts = []
    for mpdu in ampdu.subframes:
        payload = serialize_mpdu(mpdu, spec)
        if len(payload) > 0xFFFF:
            raise ValueError(f"MPDU of {len(payload)} bytes exceeds delimiter range")
        unit = len(payload).to_bytes(DELIMITER_LEN, "big") + payload
        parts.append(unit + b"\x00" * _pad_len(len(unit)))
    return b"".join(parts)


def parse_ampdu(
    data: bytes, spec: CrcSpec, header_len: int = DEFAULT_HEADER_LEN
) -> Ampdu:
    """Inverse of serialize_ampdu; checksum fields are kept as received."""
    fcs_len = spec.width // 8
    min_len = header_len + MIN_BODY_LEN + fcs_len
    subframes = []
    pos = 0
    index = 0
    while pos < len(data):
        if pos + DELIMITER_LEN > len(data):
            raise FrameParseError(index, "truncated delimiter")
        length = int.from_bytes(data[pos : pos + DELIMITER_LEN], "big")
        pos += DELIMITER_LEN
        if length < min_len:
            raise FrameParseError(
                index, f"delimiter length {length} below minimum {min_len}"
            )
        if pos + length > len(data):
            raise FrameParseError(
                index, f"truncated MPDU: need {length} bytes, have {len(data) - pos}"
            )
        payload = data[pos : pos + length]
        pos += length
        subframes.append(
            Mpdu(
                payload[:header_len],
                payload[header_len : length - fcs_len],
                _fcs_from_bytes(payload[length - fcs_len :], spec),
            )
        )
        pad = _pad_len(DELIMITER_LEN + length)
        if pos + pad > len(data):
            raise FrameParseError(index, "truncated padding")
        pos += pad
        index += 1
    if not subframes:
        raise FrameParseError(0, "empty stream")
    return Ampdu(tuple(subframes))


def serialize_bits(ampdu: Ampdu, spec: CrcSpec) -> BitVector:
    """Serialized aggregate in register processing order."""
    return BitVector.from_bytes(serialize_ampdu(ampdu, spec), lsb_first=spec.reflected)


def bits_to_bytes(bits: BitVector, spec: CrcSpec) -> bytes:
    """Inverse of serialize_bits for byte-aligned streams."""
    return bits.to_bytes(lsb_first=spec.reflected)


def ampdu_layout(ampdu: Ampdu, spec: CrcSpec) -> list[SubframeLayout]:
    """Bit offsets of every subframe within serialize_bits output."""
    fcs_bits = spec.width
    out = []
    pos = 0
    for mpdu in ampdu.subframes:
        payload_len = mpdu.length(spec)
        out.append(
            SubframeLayout(
                mpdu_start=(pos + DELIMITER_LEN) * 8,
                header_bits=len(mpdu.header) * 8,
                body_bits=len(mpdu.body) * 8,
                fcs_bits=fcs_bits,
            )
        )
        pos += DELIMITER_LEN + payload_len + _pad_len(DELIMITER_LEN + payload_len)
    return out


def _eligible_range(
    layout: SubframeLayout, symbol_map: SymbolMap, rec_len: int
) -> range:
    bps = symbol_map.bits_per_symbol
    first = max(0, -(-(layout.body_start - symbol_map.origin) // bps))  # ceil
    # Symbol k fits while origin + k * bps + max(bps, rec_len) <= fcs_start.
    stop = (layout.fcs_start - symbol_map.origin - max(bps, rec_len)) // bps + 1
    return range(first, max(first, stop))


def eligible_symbols(
    layout: SubframeLayout, symbol_map: SymbolMap, rec_len: int
) -> list[int]:
    """Symbols fully inside this MPDU's body with room for the recovery window."""
    return list(_eligible_range(layout, symbol_map, rec_len))


def _window(
    layout: SubframeLayout,
    mpdu_index: int,
    spec: CrcSpec,
    symbol_map: SymbolMap,
    policy: WindowPolicy,
) -> ModulationWindow:
    if symbol_map.bits_per_symbol > spec.width:
        raise ValueError(
            f"symbol of {symbol_map.bits_per_symbol} MAC bits exceeds the "
            f"{spec.width}-bit recovery capacity; reduce the symbol size"
        )
    symbols = _eligible_range(layout, symbol_map, spec.width)
    if not symbols:
        raise ValueError(
            f"mpdu {mpdu_index}: no symbol fits the body with a "
            f"{spec.width}-bit recovery window"
        )
    if policy.eligible_index >= len(symbols):
        raise ValueError(
            f"mpdu {mpdu_index}: policy wants eligible symbol "
            f"{policy.eligible_index} but only {len(symbols)} fit"
        )
    symbol = symbols[policy.eligible_index]
    return ModulationWindow(
        mpdu_index=mpdu_index,
        symbol_index=symbol,
        mod_start=symbol_map.symbol_start(symbol) - layout.mpdu_start,
        mod_len=symbol_map.bits_per_symbol,
        rec_len=spec.width,
    )


def locate_window(
    ampdu: Ampdu,
    mpdu_index: int,
    spec: CrcSpec,
    symbol_map: SymbolMap = SymbolMap(),
    policy: WindowPolicy = WindowPolicy(),
) -> ModulationWindow:
    """Pick the modulated symbol for one MPDU and its recovery window.

    The recovery window is spec.width bits starting at the symbol's first
    bit; it must lie wholly inside the body, so symbols overlapping header
    or checksum are never eligible.
    """
    if not 0 <= mpdu_index < len(ampdu.subframes):
        raise IndexError(f"mpdu_index {mpdu_index} out of range")
    layout = ampdu_layout(ampdu, spec)[mpdu_index]
    return _window(layout, mpdu_index, spec, symbol_map, policy)


def locate_windows(
    ampdu: Ampdu,
    spec: CrcSpec,
    symbol_map: SymbolMap = SymbolMap(),
    policy: WindowPolicy = WindowPolicy(),
) -> list[ModulationWindow]:
    """One window per subframe, in subframe order, from one layout pass."""
    return [
        _window(layout, i, spec, symbol_map, policy)
        for i, layout in enumerate(ampdu_layout(ampdu, spec))
    ]

