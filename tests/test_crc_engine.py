"""Differential tests of the byte-table register engine.

Every register run in the package goes through one engine: whole bytes by
table lookup, leftover bits by the bit-serial rule. These tests hold it to
the bit-serial rule in ``reference_crc`` at every bit count modulo 8, to the
table-driven checksum references, and, through the syndrome-form
demodulator, to the bit-serial bracketing construction on whole noisy MPDUs.
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
    fcs,
    register_run,
    state_transition,
    state_transition_inverse,
)
from scattersim.demod import demodulate_blind, demodulate_mpdu
from scattersim.frames import ModulationWindow, aggregate, build_mpdu, serialize_bits
from scattersim.gf2 import BitVector
from scattersim.tagsim import ChannelConfig, apply_channel

from bracket_oracle import oracle_record

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

    def test_zero_runs(self, spec):
        rng = random.Random(100 + spec.width)
        for n in [8 * q + r for q in (0, 1, 3, 4, 31, 32, 97, 255, 256) for r in range(8)]:
            s = rand_bits(rng, spec.width)
            zeros = BitVector.zeros(n)
            assert state_transition(spec, s, n) == serial_forward_vec(spec, s, zeros)
            assert state_transition_inverse(spec, s, n) == serial_reverse_vec(
                spec, s, zeros
            )

    def test_long_zero_rewinds(self, spec):
        # Up to the longest MPDU a 16-bit delimiter can announce; the byte
        # counts set the highest power alone, every power, and alternate ones.
        rng = random.Random(150 + spec.width)
        for n in (8 * 32768 + 3, 8 * 43690 + 5, 8 * 65535 + 7):
            s = rand_bits(rng, spec.width)
            back = state_transition_inverse(spec, s, n)
            assert back == serial_reverse_vec(spec, s, BitVector.zeros(n))
            assert state_transition(spec, back, n) == s

    def test_every_single_byte(self, spec):
        # All 256 table entries from a random state.
        rng = random.Random(200 + spec.width)
        s = rand_bits(rng, spec.width)
        for byte in range(256):
            d = BitVector(byte, 8)
            assert crc_forward(spec, s, d) == serial_forward_vec(spec, s, d)

    @given(data=st.data(), n=st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, spec, data, n):
        s = BitVector(data.draw(st.integers(0, spec.mask)), spec.width)
        d = BitVector(data.draw(st.integers(0, (1 << n) - 1)), n)
        assert crc_forward(spec, s, d) == serial_forward_vec(spec, s, d)
        assert state_transition_inverse(spec, state_transition(spec, s, n), n) == s


@given(
    width=st.integers(1, 80),
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
    assert state_transition(spec, s, n) == serial_forward_vec(spec, s, BitVector.zeros(n))
    if poly & 1:
        assert state_transition_inverse(spec, s, 8 * n + n % 8) == serial_reverse_vec(
            spec, s, BitVector.zeros(8 * n + n % 8)
        )


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

    def test_register_run_stdlib_branch_matches_table_path(self):
        # register_run returns the register in processing order; for the
        # 802.11 preset it reads it off the stdlib CRC-32.
        rng = random.Random(303)
        for n in (0, 1, 7, 8, 9, 40, 720, 12192):
            bits = BitVector(rng.getrandbits(n), n)
            expected = crc_forward(CRC32_FCS, CRC32_FCS.init_state(), bits)
            assert register_run(CRC32_FCS, bits) == expected

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


def test_syndrome_path_matches_bit_serial_brackets():
    # demodulate_mpdu (residue, zero rewind, solve) against the bracketing
    # construction run bit-serially in the test, on hand-serialized MPDUs:
    # the trailer is the raw final register XOR final_xor in processing
    # order, which also lets a 5-bit register carry one.
    rng = random.Random(400)
    symbol_bits = {5: 3, 8: 6, 16: 12, 32: 26}
    for spec in ENGINE_SPECS:
        mod_len = symbol_bits[spec.width]
        verdicts = set()
        for trial in range(30):
            n = 8 * (24 + rng.randrange(4, 601))
            content = rand_bits(rng, n)
            raw = serial_forward(spec.width, spec.poly, spec.init_xor, content.value, n)
            mpdu = content + BitVector(raw ^ spec.final_xor, spec.width)
            start = rng.choice(
                [8 * 24, n - spec.width, rng.randrange(8 * 24, n - spec.width + 1)]
            )
            window = ModulationWindow(trial, 0, start, mod_len, spec.width)
            if rng.getrandbits(1):
                mpdu = mpdu.flip_range(start, start + mod_len)
            ber = rng.choice((0.0, 1e-4, 2e-3))
            channel = ChannelConfig("bsc", ber=ber, seed=trial) if ber else ChannelConfig()
            rx = apply_channel(mpdu, channel)
            record = demodulate_mpdu(spec, rx, window)
            assert record == oracle_record(spec, rx, window), (spec, trial)
            verdicts.add(record.ambient_ok)
        assert verdicts == {True, False}, spec


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
    assert crc._zero_rewind_power in caches
    assert crc._zero_rewind_power.cache_info().currsize > 0
    for f in caches:
        info = f.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, f
