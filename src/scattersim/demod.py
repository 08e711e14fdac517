"""Single-receiver demodulation of ambient and tag data from one bitstream.

Per MPDU, in syndrome form (``tag_pattern = S · A^(-s) · G_R^(-1)``):

1. Residue S (``crc.residue``): the raw register over the received
   content XOR the unfinalized trailer, one forward run through
   ``crc.register_run``. It is zero exactly when the checksum verifies.
2. Rewind S over the s zero-input steps of the bits after the recovery
   window, logarithmic in s. This is the paper's bracketing of the window
   between a forward and a rewound register, folded into one map:
   ``bracket_registers`` returns the zero state and the rewound residue.
3. Solve: the inverse generator matrix turns the rewound residue into the
   tag's flip pattern inside the window.

The received window XOR the pattern is the recovered ambient block, and a
majority vote over the pattern decides the tag bit. The frame verifies
after un-flipping exactly when the pattern is that bit's modulation, so no
re-check run is needed.

A brute-force demodulator (enumerate every tag candidate, un-flip, verify
each MPDU's checksum) serves as the independent cross-check; it is
exponential in the tag bit count where the syndrome path is linear. It
brackets each window with its own bit-serial register runs and shares no
register code with the path it checks.
"""
from __future__ import annotations

from dataclasses import dataclass

from .crc import CrcSpec, recover_block, residue, state_transition_inverse
from .frames import (
    DEFAULT_HEADER_LEN,
    ModulationWindow,
    SubframeLayout,
    SymbolMap,
    WindowPolicy,
    ampdu_layout,
    bits_to_bytes,
    locate_windows,
    parse_ampdu,
)
from .gf2 import BitVector

DEFAULT_BRUTE_CAP = 20


class UndecodableError(ValueError):
    """Brute-force search found no tag candidate passing every checksum."""


class CrcCollisionError(ValueError):
    """Brute-force search found multiple candidates passing every checksum."""


@dataclass(frozen=True)
class WindowRecord:
    """Decoding outcome for one modulation window."""

    mpdu_index: int
    recovered_ambient: BitVector
    tag_pattern: BitVector
    ones_count: int
    tag_bit: int
    margin: int
    ambient_ok: bool


@dataclass(frozen=True)
class DemodResult:
    records: tuple[WindowRecord, ...]
    tag_bits: BitVector


def _vote(spec: CrcSpec, pattern: BitVector) -> tuple[int, int, int]:
    ones = pattern.popcount()
    half = spec.width // 2
    tag_bit = 1 if ones > half else 0
    return ones, tag_bit, abs(ones - half)


def bracket_registers(
    spec: CrcSpec,
    mpdu_bits: BitVector,
    fcs_bits: BitVector,
    window: ModulationWindow,
) -> tuple[BitVector, BitVector]:
    """Register states just before and just after the window's flip pattern.

    The syndrome form of bracketing the recovery window: the flip pattern
    runs from the zero state onto the residue (raw register over the
    received content XOR the unfinalized trailer) rewound over the bits
    after the window. The residue is zero exactly when the checksum
    verifies.
    """
    rewind = len(mpdu_bits) - window.recovery_range.stop
    syndrome = residue(spec, mpdu_bits, fcs_bits)
    return BitVector.zeros(spec.width), state_transition_inverse(spec, syndrome, rewind)


def demodulate_mpdu(
    spec: CrcSpec, received_mpdu_bits: BitVector, window: ModulationWindow
) -> WindowRecord:
    """Decode one MPDU's window from its full received bits (trailer included).

    Noisy input yields a low-margin record, never an exception; the
    ambient_ok flag reports whether un-flipping the decoded tag bit makes
    the received frame's checksum verify.
    """
    n = len(received_mpdu_bits) - spec.width
    content = received_mpdu_bits[:n]
    rec = window.recovery_range
    zero, syndrome = bracket_registers(spec, content, received_mpdu_bits[n:], window)
    pattern = recover_block(spec, zero, syndrome)
    received_window = content[rec.start : rec.stop]
    ones, tag_bit, margin = _vote(spec, pattern)
    # Only the recovered block makes the checksum verify (the window maps
    # bijectively onto the register after it), so un-flipping the decoded
    # bit verifies exactly when the pattern is that bit's modulation.
    expected = zero.flip_range(0, window.mod_len) if tag_bit else zero
    return WindowRecord(
        mpdu_index=window.mpdu_index,
        recovered_ambient=received_window ^ pattern,
        tag_pattern=pattern,
        ones_count=ones,
        tag_bit=tag_bit,
        margin=margin,
        ambient_ok=pattern == expected,
    )


def _resolve_layout(
    spec: CrcSpec,
    received: BitVector,
    layout: list[SubframeLayout] | None,
    header_len: int,
) -> list[SubframeLayout]:
    if layout is not None:
        return layout
    parsed = parse_ampdu(bits_to_bytes(received, spec), spec, header_len)
    return ampdu_layout(parsed, spec)


def demodulate_ampdu(
    spec: CrcSpec,
    received: BitVector,
    windows: list[ModulationWindow],
    layout: list[SubframeLayout] | None = None,
    header_len: int = DEFAULT_HEADER_LEN,
) -> DemodResult:
    """Decode every window independently using its MPDU's own checksum.

    ``layout`` is the receiver's known frame schedule; without it the
    framing is parsed from the received bytes, which a corrupted delimiter
    can break (FrameParseError names the subframe).
    """
    layout = _resolve_layout(spec, received, layout, header_len)
    records = []
    tag_value = 0
    for w in windows:
        sf = layout[w.mpdu_index]
        record = demodulate_mpdu(spec, received[sf.mpdu_start : sf.mpdu_end], w)
        records.append(record)
        tag_value = (tag_value << 1) | record.tag_bit
    return DemodResult(tuple(records), BitVector(tag_value, len(windows)))


def demodulate_blind(
    spec: CrcSpec,
    received: BitVector,
    symbol_map: SymbolMap = SymbolMap(),
    policy: WindowPolicy = WindowPolicy(),
    header_len: int = DEFAULT_HEADER_LEN,
) -> DemodResult:
    """Parse framing from the received bytes and decode one window per MPDU."""
    parsed = parse_ampdu(bits_to_bytes(received, spec), spec, header_len)
    windows = locate_windows(parsed, spec, symbol_map, policy)
    return demodulate_ampdu(spec, received, windows, ampdu_layout(parsed, spec))


def _serial_forward(spec: CrcSpec, reg: int, data: int, n: int) -> int:
    """The oracle's own register run: one shift and tap per data bit."""
    top, poly, mask = spec.width - 1, spec.poly, spec.mask
    for bit in bin(data | 1 << n)[3:]:
        if (reg >> top & 1) ^ (bit == "1"):
            reg = ((reg << 1) ^ poly) & mask
        else:
            reg = (reg << 1) & mask
    return reg


def _serial_reverse(spec: CrcSpec, reg: int, data: int, n: int) -> int:
    """The oracle's own register rewind: the inverse of _serial_forward."""
    if not spec.poly & 1:
        raise ValueError(
            "polynomial has no constant term; register steps cannot be rewound"
        )
    top, poly = spec.width - 1, spec.poly
    for bit in reversed(bin(data | 1 << n)[3:]):
        if reg & 1:
            reg = ((reg ^ poly) >> 1) | ((bit == "0") << top)
        else:
            reg = (reg >> 1) | ((bit == "1") << top)
    return reg


def _candidate_passes(
    spec: CrcSpec,
    front: int,
    window_bits: int,
    n_bits: int,
    back: int,
) -> bool:
    """Checksum verdict for one MPDU under one candidate window content.

    Equivalent to recomputing the frame's checksum with the candidate
    window spliced in: prefix and suffix contributions are candidate
    independent, so only the window span needs stepping.
    """
    return _serial_forward(spec, front, window_bits, n_bits) == back


def brute_force_demodulate(
    spec: CrcSpec,
    received: BitVector,
    windows: list[ModulationWindow],
    layout: list[SubframeLayout] | None = None,
    header_len: int = DEFAULT_HEADER_LEN,
    cap: int = DEFAULT_BRUTE_CAP,
) -> DemodResult:
    """Try all 2^n tag candidates; keep the one passing every checksum.

    Raises UndecodableError when nothing passes and CrcCollisionError when
    several candidates do (surfaced, never silently picked).
    """
    n = len(windows)
    if n > cap:
        raise ValueError(f"{n} tag bits exceeds brute-force cap {cap}")
    layout = _resolve_layout(spec, received, layout, header_len)
    width = spec.width

    brackets = []
    for w in windows:
        sf = layout[w.mpdu_index]
        mpdu_bits = received[sf.mpdu_start : sf.mpdu_end]
        content = mpdu_bits[: len(mpdu_bits) - width]
        fcs_field = mpdu_bits[len(mpdu_bits) - width :]
        rec = w.recovery_range
        prefix, suffix = content[: rec.start], content[rec.stop :]
        front = _serial_forward(spec, spec.init_xor, prefix.value, len(prefix))
        back = _serial_reverse(
            spec, fcs_field.value ^ spec.final_xor, suffix.value, len(suffix)
        )
        window_bits = content[rec.start : rec.stop]
        flipped = window_bits.flip_range(0, w.mod_len)
        brackets.append((front, back, (window_bits, flipped)))
    packed = [
        (front, back, (variants[0].value, variants[1].value), width)
        for front, back, variants in brackets
    ]

    survivors = []
    for candidate in range(1 << n):
        ok = True
        for k in range(n):
            front, back, variants, nb = packed[k]
            bit = (candidate >> (n - 1 - k)) & 1
            if not _candidate_passes(spec, front, variants[bit], nb, back):
                ok = False
                break
        if ok:
            survivors.append(candidate)
    if not survivors:
        raise UndecodableError(
            f"no tag candidate among 2^{n} passes all checksums"
        )
    if len(survivors) > 1:
        raise CrcCollisionError(
            f"{len(survivors)} tag candidates pass all checksums"
        )
    winner = survivors[0]
    records = []
    for k, w in enumerate(windows):
        front, back, variants = brackets[k]
        bit = (winner >> (n - 1 - k)) & 1
        ambient = variants[bit]
        pattern = ambient ^ variants[0]
        ones, tag_bit, margin = _vote(spec, pattern)
        records.append(
            WindowRecord(
                mpdu_index=w.mpdu_index,
                recovered_ambient=ambient,
                tag_pattern=pattern,
                ones_count=ones,
                tag_bit=tag_bit,
                margin=margin,
                ambient_ok=True,
            )
        )
    return DemodResult(tuple(records), BitVector(winner, n))
