import math
import random

import numpy as np
import pytest

from scattersim.crc import CRC32_FCS
from scattersim.frames import (
    aggregate,
    ampdu_layout,
    build_mpdu,
    locate_windows,
    serialize_bits,
)
from scattersim.gf2 import BitVector
from scattersim.tagsim import (
    ChannelConfig,
    TagPayload,
    apply_channel,
    modulate,
    snr_to_ber,
)

SPEC = CRC32_FCS


def setup_frame(rng, n_sub=4, body=32):
    a = aggregate([build_mpdu(bytes(24), rng.randbytes(body), SPEC) for _ in range(n_sub)])
    return a, locate_windows(a, SPEC), ampdu_layout(a, SPEC)


class TestModulate:
    def test_all_zero_tag_is_identity(self):
        rng = random.Random(0)
        a, windows, _ = setup_frame(rng)
        tx = modulate(a, TagPayload(BitVector.zeros(4)), windows, SPEC)
        assert tx == serialize_bits(a, SPEC)

    def test_codeword_translation_truth_table(self):
        # backscattered bit = ambient XOR tag for every bit of the symbol:
        # 0/0 -> 0, 0/1 -> 1, 1/0 -> 1, 1/1 -> 0.
        rng = random.Random(1)
        a, windows, layout = setup_frame(rng, n_sub=1)
        clean = serialize_bits(a, SPEC)
        tx = modulate(a, TagPayload(BitVector(1, 1)), windows, SPEC)
        w = windows[0]
        start = layout[0].mpdu_start + w.mod_start
        for pos in range(len(clean)):
            tag_bit = 1 if start <= pos < start + w.mod_len else 0
            assert tx[pos] == clean[pos] ^ tag_bit

    def test_flip_count_and_location(self):
        rng = random.Random(2)
        a, windows, layout = setup_frame(rng)
        tag = TagPayload(BitVector.from_bits("1011"))
        tx = modulate(a, tag, windows, SPEC)
        diff = tx ^ serialize_bits(a, SPEC)
        assert diff.popcount() == 26 * 3
        for bit_value, w in zip(tag.bits, windows):
            start = layout[w.mpdu_index].mpdu_start + w.mod_start
            window_diff = diff[start : start + w.mod_len]
            expected = BitVector((1 << 26) - 1, 26) if bit_value else BitVector.zeros(26)
            assert window_diff == expected

    def test_fcs_fields_untouched(self):
        rng = random.Random(3)
        a, windows, layout = setup_frame(rng)
        tx = modulate(a, TagPayload(BitVector(0b1111, 4)), windows, SPEC)
        clean = serialize_bits(a, SPEC)
        for sf in layout:
            assert tx[sf.fcs_start : sf.mpdu_end] == clean[sf.fcs_start : sf.mpdu_end]

    def test_involution(self):
        rng = random.Random(4)
        a, windows, _ = setup_frame(rng)
        tag = TagPayload(BitVector.from_bits("1101"))
        once = modulate(a, tag, windows, SPEC)
        # flipping the same windows again restores the clean stream
        twice = once
        for bit_value, w in zip(tag.bits, windows):
            if bit_value:
                layout = ampdu_layout(a, SPEC)
                start = layout[w.mpdu_index].mpdu_start + w.mod_start
                twice = twice.flip_range(start, start + w.mod_len)
        assert twice == serialize_bits(a, SPEC)

    def test_count_mismatch_rejected(self):
        rng = random.Random(5)
        a, windows, _ = setup_frame(rng)
        with pytest.raises(ValueError, match="tag bits"):
            modulate(a, TagPayload(BitVector.zeros(3)), windows, SPEC)

    def test_two_windows_same_mpdu_rejected(self):
        rng = random.Random(6)
        a, windows, _ = setup_frame(rng)
        doubled = [windows[0], windows[0]] + windows[2:]
        with pytest.raises(ValueError, match="more than one window"):
            modulate(a, TagPayload(BitVector.zeros(4)), doubled, SPEC)


class TestChannel:
    def test_validation(self):
        with pytest.raises(ValueError, match="flip probability"):
            ChannelConfig("bsc", ber=0.6)
        with pytest.raises(ValueError, match="finite"):
            ChannelConfig("awgn", snr_db=math.inf)
        with pytest.raises(ValueError, match="unknown channel"):
            ChannelConfig("fading")

    def test_noiseless_identity(self):
        rng = random.Random(7)
        bits = BitVector(rng.getrandbits(1000), 1000)
        assert apply_channel(bits, ChannelConfig("noiseless")) == bits

    def test_deterministic_for_fixed_seed(self):
        rng = random.Random(8)
        bits = BitVector(rng.getrandbits(4096), 4096)
        cfg = ChannelConfig("bsc", ber=0.1, seed=99)
        assert apply_channel(bits, cfg) == apply_channel(bits, cfg)
        other = ChannelConfig("bsc", ber=0.1, seed=100)
        assert apply_channel(bits, other) != apply_channel(bits, cfg)

    def test_bsc_half_flip_fraction(self):
        n = 1_000_000
        bits = BitVector.zeros(n)
        out = apply_channel(bits, ChannelConfig("bsc", ber=0.5, seed=1))
        assert abs(out.popcount() / n - 0.5) < 0.01

    def test_bsc_rate_converges(self):
        n = 2_000_000
        p = 0.01
        out = apply_channel(BitVector.zeros(n), ChannelConfig("bsc", ber=p, seed=2))
        flips = out.popcount()
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(flips - n * p) < 4 * sigma

    def test_awgn_flip_rate_matches_q_function(self):
        # Flip probability must equal Q(sqrt(2 * snr)) = 0.5 erfc(sqrt(snr)).
        n = 10_000_000
        snr_db = 10.0
        p = 0.5 * math.erfc(math.sqrt(10.0 ** (snr_db / 10.0)))
        out = apply_channel(
            BitVector.zeros(n), ChannelConfig("awgn", snr_db=snr_db, seed=3)
        )
        flips = out.popcount()
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(flips - n * p) <= 3 * sigma


class TestSnrToBer:
    def test_asymptotes(self):
        assert snr_to_ber(100.0) == 0.0
        assert abs(snr_to_ber(-100.0) - 0.5) < 1e-4

    def test_value_at_zero_db(self):
        assert snr_to_ber(0.0) == pytest.approx(0.5 * math.erfc(1.0), abs=1e-15)
        assert snr_to_ber(0.0) == pytest.approx(0.0786496, abs=1e-6)

    def test_strictly_decreasing(self):
        points = np.linspace(-20, 25, 50)
        values = [snr_to_ber(float(s)) for s in points]
        assert all(a > b for a, b in zip(values, values[1:]))
