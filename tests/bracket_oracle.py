"""Test-side decode of one window by explicit register brackets.

The paper's construction, step by step and bit-serially: the register from
the init state over the bits before the window (front), the rewind from the
unfinalized trailer over the bits after it (back), the block solve between
the two, and the re-check that un-flipping the decoded tag bit steps the
front register onto the back one. The syndrome-form demodulator must agree
with it record for record.
"""
from __future__ import annotations

from scattersim.crc import recover_block
from scattersim.demod import WindowRecord
from scattersim.gf2 import BitVector

from reference_crc import serial_forward, serial_reverse


def brackets(spec, mpdu_bits, window) -> tuple[BitVector, BitVector]:
    """Bit-serial register states just before and just after the window."""
    width = spec.width
    content, trailer = mpdu_bits[:-width], mpdu_bits[-width:]
    rec = window.recovery_range
    prefix, suffix = content[: rec.start], content[rec.stop :]
    front = serial_forward(width, spec.poly, spec.init_xor, prefix.value, len(prefix))
    back = serial_reverse(
        width, spec.poly, trailer.value ^ spec.final_xor, suffix.value, len(suffix)
    )
    return BitVector(front, width), BitVector(back, width)


def oracle_record(spec, mpdu_bits, window) -> WindowRecord:
    """The window's record from brackets, block solve and re-check."""
    width = spec.width
    front, back = brackets(spec, mpdu_bits, window)
    rec = window.recovery_range
    received = mpdu_bits[rec.start : rec.stop]
    recovered = recover_block(spec, front, back)
    pattern = recovered ^ received
    ones = pattern.popcount()
    tag_bit = int(ones > width // 2)
    candidate = received.flip_range(0, window.mod_len) if tag_bit else received
    stepped = serial_forward(width, spec.poly, front.value, candidate.value, width)
    return WindowRecord(
        mpdu_index=window.mpdu_index,
        recovered_ambient=recovered,
        tag_pattern=pattern,
        ones_count=ones,
        tag_bit=tag_bit,
        margin=abs(ones - width // 2),
        ambient_ok=stepped == back.value,
    )
