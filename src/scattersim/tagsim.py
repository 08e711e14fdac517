"""Backscatter tag modulation and an abstract noisy channel.

The tag conveys each bit by 0/180-degree phase rotation of one PHY symbol,
which at the bit level is XOR of the symbol's bits: backscattered = ambient
XOR tag. Checksum trailers and everything outside the chosen symbols pass
through untouched. The channel is a binary symmetric abstraction; AWGN/BPSK
maps SNR to a flip probability once and then behaves like a BSC. Flips are
sampled through their geometric gaps, so a channel costs O(flips), not one
random draw per bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .crc import CrcSpec
from .frames import Ampdu, ModulationWindow, ampdu_layout, serialize_bits
from .gf2 import BitVector

CHANNEL_MODES = ("noiseless", "bsc", "awgn")


@dataclass(frozen=True)
class TagPayload:
    """Tag data scheduled across an aggregate, one bit per window."""

    bits: BitVector


@dataclass(frozen=True)
class ChannelConfig:
    """Channel abstraction: noiseless, bsc(p), or awgn_bpsk(snr_db)."""

    mode: str = "noiseless"
    ber: float = 0.0
    snr_db: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in CHANNEL_MODES:
            raise ValueError(f"unknown channel mode {self.mode!r}; use {CHANNEL_MODES}")
        if self.mode == "bsc" and not 0.0 <= self.ber <= 0.5:
            raise ValueError(f"bsc flip probability must be in [0, 0.5], got {self.ber}")
        if self.mode == "awgn" and not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")

    def flip_probability(self) -> float:
        if self.mode == "noiseless":
            return 0.0
        if self.mode == "bsc":
            return self.ber
        return snr_to_ber(self.snr_db)


def snr_to_ber(snr_db: float) -> float:
    """BPSK-over-AWGN bit error rate: 0.5 * erfc(sqrt(snr_linear))."""
    return 0.5 * math.erfc(math.sqrt(10.0 ** (snr_db / 10.0)))


def modulate(
    clean: Ampdu,
    tag: TagPayload,
    windows: list[ModulationWindow],
    spec: CrcSpec,
) -> BitVector:
    """Serialized aggregate with each tag-1 window's symbol bits inverted.

    A tag bit of 0 leaves its symbol untouched; 1 flips all of it. Windows
    must be one-per-MPDU and pairwise disjoint.
    """
    if len(windows) != len(tag.bits):
        raise ValueError(
            f"{len(tag.bits)} tag bits scheduled over {len(windows)} windows"
        )
    seen = set()
    for w in windows:
        if w.mpdu_index in seen:
            raise ValueError(
                f"mpdu {w.mpdu_index} carries more than one window; one "
                "checksum per MPDU supports a single tag bit"
            )
        seen.add(w.mpdu_index)
    bits = serialize_bits(clean, spec)
    layout = ampdu_layout(clean, spec)
    for bit, w in zip(tag.bits, windows):
        if bit:
            start = layout[w.mpdu_index].mpdu_start + w.mod_start
            bits = bits.flip_range(start, start + w.mod_len)
    return bits


def flip_positions(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Sorted positions in range(n), each drawn independently with probability p.

    Draws the geometric gaps between successive flips, so the cost grows
    with the number of flips, not with n. Every channel in the package
    samples its flips here.
    """
    chunks = [np.empty(0, np.int64)]
    last = -1
    while p > 0.0 and last < n - 1:
        expected = (n - 1 - last) * p
        gaps = rng.geometric(p, int(expected + 5.0 * math.sqrt(expected)) + 16)
        # A gap past the end ends the draw; clipping keeps the sum in int64.
        at = last + np.cumsum(np.minimum(gaps, n + 1))
        chunks.append(at[at < n])
        last = int(at[-1])
    return np.concatenate(chunks)


def flip_bits(buf: np.ndarray, at: np.ndarray, lsb_first: bool = False) -> None:
    """Invert bits ``at`` of a flat uint8 buffer in place.

    Bit i lives in byte i // 8, counted from the byte's MSB, or from its
    LSB when ``lsb_first`` (the processing order of a reflected checksum).
    """
    shift = at & 7 if lsb_first else 7 - (at & 7)
    np.bitwise_xor.at(buf, at >> 3, (1 << shift).astype(np.uint8))


def apply_channel(bits: BitVector, cfg: ChannelConfig) -> BitVector:
    """Flip each bit independently with the configured probability."""
    p = cfg.flip_probability()
    if p == 0.0 or len(bits) == 0:
        return bits
    mask = np.zeros(-(-len(bits) // 8), np.uint8)
    flip_bits(mask, flip_positions(np.random.default_rng(cfg.seed), len(bits), p))
    # The mask's last byte is padded to a byte boundary; drop the pad bits.
    pad = -len(bits) % 8
    return bits ^ BitVector(int.from_bytes(mask.tobytes(), "big") >> pad, len(bits))
