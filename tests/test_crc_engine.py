"""Differential tests of the byte-table register engine.

Every register run in the package goes through one engine: whole bytes by
table lookup, leftover bits by the bit-serial rule. These tests hold it to
the bit-serial rule in ``reference_crc`` at every bit count modulo 8, to the
table-driven checksum references, and, through ``bracket_registers``, on
whole noisy MPDUs.
"""
import binascii
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scattersim import crc
from scattersim.crc import (
    CRC8,
    CRC16_CCITT,
    CRC32_FCS,
    SPEC_PRESETS,
    CrcSpec,
    crc_forward,
    crc_reverse,
    fcs,
    state_transition,
    state_transition_inverse,
)
from scattersim.demod import bracket_registers, demodulate_blind
from scattersim.frames import (
    SymbolMap,
    aggregate,
    ampdu_layout,
    build_mpdu,
    locate_windows,
    serialize_bits,
)
from scattersim.gf2 import BitVector
from scattersim.tagsim import ChannelConfig, TagPayload, apply_channel, modulate

from reference_crc import (
    CRC8_REF,
    CRC16_CCITT_REF,
    crc32_ieee,
    serial_forward,
    serial_reverse,
)

# CRC-5/USB: narrower than a byte, so the tables run it left-aligned.
CRC5 = CrcSpec(5, 0x05, 0x1F, 0x1F)
ENGINE_SPECS = (CRC5, CRC8, CRC16_CCITT, CRC32_FCS)
SPEC_IDS = [f"w{s.width}" for s in ENGINE_SPECS]
REFERENCES = {
    "crc32": crc32_ieee,
    "crc16-ccitt": CRC16_CCITT_REF.compute,
    "crc8": CRC8_REF.compute,
}


def rand_bits(rng, n):
    return BitVector(rng.getrandbits(n) if n else 0, n)


def serial_forward_vec(spec, state, data):
    return BitVector(
        serial_forward(spec.width, spec.poly, state.value, data.value, len(data)),
        spec.width,
    )


def serial_reverse_vec(spec, state, data):
    return BitVector(
        serial_reverse(spec.width, spec.poly, state.value, data.value, len(data)),
        spec.width,
    )


@pytest.mark.parametrize("spec", ENGINE_SPECS, ids=SPEC_IDS)
class TestAgainstBitSerial:
    def test_every_tail_length(self, spec):
        rng = random.Random(spec.width)
        for n in [0, 1, 2, 3, 4, 5, 6, 7] + [8 * q + r for q in (1, 2, 5, 40) for r in range(8)]:
            for _ in range(6):
                s = rand_bits(rng, spec.width)
                d = rand_bits(rng, n)
                assert crc_forward(spec, s, d) == serial_forward_vec(spec, s, d)
                assert crc_reverse(spec, s, d) == serial_reverse_vec(spec, s, d)

    def test_zero_runs(self, spec):
        rng = random.Random(100 + spec.width)
        for n in (0, 1, 7, 8, 9, 31, 32, 33, 777):
            s = rand_bits(rng, spec.width)
            zeros = BitVector.zeros(n)
            assert state_transition(spec, s, n) == serial_forward_vec(spec, s, zeros)
            assert state_transition_inverse(spec, s, n) == serial_reverse_vec(
                spec, s, zeros
            )

    def test_every_single_byte(self, spec):
        # All 256 table entries, forward and rewound, from a random state.
        rng = random.Random(200 + spec.width)
        s = rand_bits(rng, spec.width)
        for byte in range(256):
            d = BitVector(byte, 8)
            assert crc_forward(spec, s, d) == serial_forward_vec(spec, s, d)
            assert crc_reverse(spec, s, d) == serial_reverse_vec(spec, s, d)

    @given(data=st.data(), n=st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, spec, data, n):
        s = BitVector(data.draw(st.integers(0, spec.mask)), spec.width)
        d = BitVector(data.draw(st.integers(0, (1 << n) - 1)), n)
        end = crc_forward(spec, s, d)
        assert end == serial_forward_vec(spec, s, d)
        assert crc_reverse(spec, end, d) == s


@given(
    width=st.integers(1, 40),
    data=st.data(),
    n=st.integers(0, 80),
)
@settings(max_examples=200, deadline=None)
def test_any_width_and_polynomial(width, data, n):
    poly = data.draw(st.integers(0, (1 << width) - 1))
    spec = CrcSpec(width, poly, 0, 0)
    s = BitVector(data.draw(st.integers(0, spec.mask)), width)
    d = BitVector(data.draw(st.integers(0, (1 << n) - 1)), n)
    assert crc_forward(spec, s, d) == serial_forward_vec(spec, s, d)
    if poly & 1:
        assert crc_reverse(spec, s, d) == serial_reverse_vec(spec, s, d)


class TestFcs:
    @pytest.mark.parametrize("name", sorted(SPEC_PRESETS))
    def test_presets_against_references(self, name):
        spec = SPEC_PRESETS[name]
        rng = random.Random(300)
        for length in list(range(0, 20)) + [64, 1500, 4095]:
            data = rng.randbytes(length)
            assert fcs(spec, BitVector.from_bytes(data)).value == REFERENCES[name](data)

    def test_stdlib_path_matches_table_path(self):
        # The 802.11 preset goes through the stdlib CRC-32; run the same
        # bytes through the table engine by hand and compare.
        rng = random.Random(301)
        for length in (0, 1, 3, 4, 5, 90, 1524):
            data = rng.randbytes(length)
            raw = crc_forward(
                CRC32_FCS,
                CRC32_FCS.init_state(),
                BitVector.from_bytes(data, lsb_first=True),
            )
            table = raw.reversed_bits() ^ CRC32_FCS.final_vector()
            assert fcs(CRC32_FCS, BitVector.from_bytes(data)) == table

    def test_reflected_spec_off_the_stdlib_path(self):
        # Same register as the 802.11 FCS without the final XOR, so it takes
        # the generic reflected path and must still match the reference.
        spec = CrcSpec(32, 0x04C11DB7, 0xFFFFFFFF, 0, reflected=True)
        rng = random.Random(302)
        for length in (0, 1, 9, 200):
            data = rng.randbytes(length)
            assert fcs(spec, BitVector.from_bytes(data)).value == (
                crc32_ieee(data) ^ 0xFFFFFFFF
            )

    def test_ccitt_against_stdlib(self):
        data = random.Random(303).randbytes(333)
        assert fcs(CRC16_CCITT, BitVector.from_bytes(data)).value == binascii.crc_hqx(
            data, 0xFFFF
        )


def test_brackets_match_bit_serial_on_noisy_mpdus():
    rng = random.Random(400)
    pipelines = (
        (CRC8, SymbolMap(bits_per_symbol=6)),
        (CRC16_CCITT, SymbolMap(bits_per_symbol=12)),
        (CRC32_FCS, SymbolMap()),
    )
    for spec, symbol_map in pipelines:
        for trial in range(8):
            bodies = [rng.randrange(4, 600) for _ in range(4)]
            a = aggregate([build_mpdu(bytes(24), rng.randbytes(b), spec) for b in bodies])
            windows = locate_windows(a, spec, symbol_map)
            layout = ampdu_layout(a, spec)
            tag = TagPayload(rand_bits(rng, len(windows)))
            tx = modulate(a, tag, windows, spec)
            rx = apply_channel(tx, ChannelConfig("bsc", ber=2e-3, seed=trial))
            for w in windows:
                sf = layout[w.mpdu_index]
                mpdu = rx[sf.mpdu_start : sf.mpdu_end]
                content, trailer = mpdu[: -spec.width], mpdu[-spec.width :]
                rec = w.recovery_range
                front, back = bracket_registers(spec, content, trailer, w)
                assert front == serial_forward_vec(
                    spec, spec.init_state(), content[: rec.start]
                )
                assert back == serial_reverse_vec(
                    spec, trailer ^ spec.final_vector(), content[rec.stop :]
                )


class TestNoConstantTerm:
    SPEC = CrcSpec(8, 0x06, 0, 0)

    def test_forward_still_runs(self):
        d = BitVector(0xA5, 8)
        assert crc_forward(self.SPEC, BitVector(0x3C, 8), d) == serial_forward_vec(
            self.SPEC, BitVector(0x3C, 8), d
        )

    @pytest.mark.parametrize("n", [0, 3, 8, 100])
    def test_rewinds_refuse(self, n):
        with pytest.raises(ValueError, match="constant term"):
            crc_reverse(self.SPEC, BitVector.zeros(8), BitVector.zeros(n))
        with pytest.raises(ValueError, match="constant term"):
            state_transition_inverse(self.SPEC, BitVector.zeros(8), n)


def test_caches_stay_bounded_over_many_lengths():
    # A receiver keeps meeting new frame lengths; nothing in crc may grow
    # with them. 500 distinct MPDU lengths, decoded blind.
    rng = random.Random(500)
    bodies = list(range(8, 508))
    rng.shuffle(bodies)
    for start in range(0, len(bodies), 10):
        chunk = bodies[start : start + 10]
        a = aggregate([build_mpdu(bytes(24), rng.randbytes(b), CRC32_FCS) for b in chunk])
        result = demodulate_blind(CRC32_FCS, serialize_bits(a, CRC32_FCS))
        assert all(r.ambient_ok for r in result.records)
    caches = [f for f in vars(crc).values() if hasattr(f, "cache_info")]
    assert caches
    for f in caches:
        info = f.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, f
