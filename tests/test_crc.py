import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scattersim.crc import (
    CRC8,
    CRC16_CCITT,
    CRC32_FCS,
    CrcSpec,
    crc_forward,
    decompose_check,
    fcs,
    generator_matrix,
    recover_block,
    spec_from_config,
    state_transition,
    state_transition_inverse,
)
from scattersim.gf2 import BitVector

from reference_crc import (
    CHECK_CRC8,
    CHECK_CRC16_CCITT,
    CHECK_CRC32,
    CRC8_REF,
    CRC16_CCITT_REF,
    crc32_ieee,
    serial_forward,
)

ALL_SPECS = (CRC8, CRC16_CCITT, CRC32_FCS)


def rand_state(rng, spec):
    return BitVector(rng.getrandbits(spec.width), spec.width)


def rand_bits(rng, n):
    return BitVector(rng.getrandbits(n) if n else 0, n)


class TestCrcSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CrcSpec(0, 0, 0, 0)
        with pytest.raises(ValueError):
            CrcSpec(8, 0x107, 0, 0)
        with pytest.raises(ValueError):
            CrcSpec(8, 0x07, 0x100, 0)

    def test_from_config(self):
        spec = spec_from_config(
            {"width": 32, "poly": "0x04C11DB7", "init": "0xFFFFFFFF",
             "final": "0xFFFFFFFF", "reflected": True}
        )
        assert spec == CRC32_FCS
        with pytest.raises(ValueError, match="width"):
            spec_from_config({"poly": 7})


class TestForward:
    def test_empty_data_is_identity(self):
        s = BitVector(0xAB, 8)
        assert crc_forward(CRC8, s, BitVector.zeros(0)) == s

    def test_zero_state_zero_data_absorbing(self):
        z = BitVector.zeros(32)
        assert crc_forward(CRC32_FCS, z, BitVector.zeros(100)) == z

    def test_impulse_response_matches_generator_rows(self):
        g = generator_matrix(CRC32_FCS, 32)
        zero = BitVector.zeros(32)
        for i in range(32):
            impulse = BitVector.unit(32, i)
            assert crc_forward(CRC32_FCS, zero, impulse) == g.row(i)

    def test_state_length_checked(self):
        with pytest.raises(ValueError, match="register width"):
            crc_forward(CRC32_FCS, BitVector.zeros(16), BitVector.zeros(8))


class TestStateTransition:
    def test_zero_steps(self):
        rng = random.Random(11)
        s = rand_state(rng, CRC32_FCS)
        assert state_transition(CRC32_FCS, s, 0) == s
        assert state_transition_inverse(CRC32_FCS, s, 0) == s

    def test_zero_state_fixed_point(self):
        z = BitVector.zeros(32)
        for n in (1, 32, 200):
            assert state_transition(CRC32_FCS, z, n) == z
            assert state_transition_inverse(CRC32_FCS, z, n) == z

    def test_agrees_with_forward_over_zeros(self):
        rng = random.Random(12)
        for n in (1, 26, 32, 512):
            s = rand_state(rng, CRC32_FCS)
            assert state_transition(CRC32_FCS, s, n) == crc_forward(
                CRC32_FCS, s, BitVector.zeros(n)
            )

    def test_matches_serial_run_over_zeros(self):
        rng = random.Random(13)
        for spec in ALL_SPECS:
            for n in (0, 1, 63, 64, 65, 100, 512, 4096):
                s = rand_state(rng, spec)
                expected = serial_forward(spec.width, spec.poly, s.value, 0, n)
                assert state_transition(spec, s, n) == BitVector(expected, spec.width)

    def test_inverse_roundtrip(self):
        rng = random.Random(14)
        for n in (1, 26, 32, 512):
            s = rand_state(rng, CRC32_FCS)
            assert state_transition(
                CRC32_FCS, state_transition_inverse(CRC32_FCS, s, n), n
            ) == s


class TestGeneratorMatrix:
    def test_single_step_crc8_row_is_poly(self):
        g = generator_matrix(CRC8, 1)
        assert g.row(0) == BitVector(0x07, 8)

    def test_zero_data_maps_to_zero(self):
        for n in (1, 8, 100):
            g = generator_matrix(CRC32_FCS, n)
            assert BitVector.zeros(n) @ g == BitVector.zeros(32)

    def test_full_rank_at_width(self):
        for spec in ALL_SPECS:
            assert generator_matrix(spec, spec.width).rank() == spec.width

    def test_inverse_verified_by_mat_mul(self):
        from scattersim.gf2 import BitMatrix

        g = generator_matrix(CRC32_FCS, 32)
        assert g @ g.invert() == BitMatrix.identity(32)

    def test_injective_below_width_bijective_at_width(self):
        rng = random.Random(15)
        n = 20
        g = generator_matrix(CRC32_FCS, n)
        seen = {}
        for _ in range(10_000):
            d = rand_bits(rng, n)
            c = d @ g
            if c in seen:
                assert seen[c] == d
            seen[c] = d
        assert generator_matrix(CRC32_FCS, 32).rank() == 32


class TestDecomposition:
    def test_zero_case(self):
        assert decompose_check(CRC32_FCS, BitVector.zeros(32), BitVector.zeros(64))

    def test_all_ones_with_26_bit_block(self):
        rng = random.Random(16)
        assert decompose_check(CRC32_FCS, BitVector(0xFFFFFFFF, 32), rand_bits(rng, 26))

    def test_random_trials(self):
        rng = random.Random(17)
        for spec in ALL_SPECS:
            for _ in range(100):
                init = rand_state(rng, spec)
                data = rand_bits(rng, rng.randrange(0, 513))
                assert decompose_check(spec, init, data)

    @given(st.integers(0, 2**32 - 1), st.binary(max_size=96))
    @settings(max_examples=60)
    def test_decomposition_property(self, state, data):
        assert decompose_check(
            CRC32_FCS, BitVector(state, 32), BitVector.from_bytes(data)
        )


class TestRecoverBlock:
    def test_zero_fixed_point(self):
        z = BitVector.zeros(32)
        assert recover_block(CRC32_FCS, z, z) == z

    def test_forward_then_recover(self):
        rng = random.Random(18)
        for spec in ALL_SPECS:
            w = spec.width
            for _ in range(200):
                front = rand_state(rng, spec)
                block = rand_bits(rng, w)
                back = crc_forward(spec, front, block)
                assert recover_block(spec, front, back) == block

    def test_all_ones_front(self):
        rng = random.Random(19)
        front = BitVector(0xFFFFFFFF, 32)
        for _ in range(10_000):
            block = rand_bits(rng, 32)
            back = crc_forward(CRC32_FCS, front, block)
            assert recover_block(CRC32_FCS, front, back) == block

    def test_postcondition_forward_consistency(self):
        rng = random.Random(20)
        for _ in range(100):
            front = rand_state(rng, CRC32_FCS)
            back = rand_state(rng, CRC32_FCS)
            block = recover_block(CRC32_FCS, front, back)
            assert crc_forward(CRC32_FCS, front, block) == back

    def test_degenerate_polynomial_raises(self):
        spec = CrcSpec(8, 0x00, 0, 0)
        with pytest.raises(ValueError, match="degenerate"):
            recover_block(spec, BitVector.zeros(8), BitVector.zeros(8))


class TestFcs:
    def test_crc32_check_value_against_table_oracle(self):
        data = b"123456789"
        oracle = crc32_ieee(data)
        assert oracle == CHECK_CRC32
        assert fcs(CRC32_FCS, BitVector.from_bytes(data)).value == oracle

    def test_narrow_specs_against_table_oracles(self):
        data = b"123456789"
        assert fcs(CRC8, BitVector.from_bytes(data)).value == CRC8_REF.compute(data)
        assert CRC8_REF.compute(data) == CHECK_CRC8
        assert (
            fcs(CRC16_CCITT, BitVector.from_bytes(data)).value
            == CRC16_CCITT_REF.compute(data)
        )
        assert CRC16_CCITT_REF.compute(data) == CHECK_CRC16_CCITT

    def test_random_frames_match_reference(self):
        rng = random.Random(21)
        for _ in range(300):
            data = rng.randbytes(rng.randrange(0, 200))
            assert fcs(CRC32_FCS, BitVector.from_bytes(data)).value == crc32_ieee(data)

    def test_empty_frame_is_init_xor_final(self):
        out = fcs(CRC32_FCS, BitVector.zeros(0))
        assert out == BitVector.zeros(32)

    def test_trailer_residue_constant(self):
        # Reference implementation defines the residue once; appending a
        # frame's own little-endian trailer always lands there.
        rng = random.Random(22)
        reference = crc32_ieee(b"\x00\x00\x00\x00" + struct.pack("<I", crc32_ieee(b"\x00" * 4)))
        for _ in range(1000):
            frame = rng.randbytes(rng.randrange(4, 64))
            trailer = struct.pack("<I", fcs(CRC32_FCS, BitVector.from_bytes(frame)).value)
            assert crc32_ieee(frame + trailer) == reference
            assert fcs(CRC32_FCS, BitVector.from_bytes(frame + trailer)).value == reference

    def test_reflected_requires_whole_bytes(self):
        with pytest.raises(ValueError, match="whole bytes"):
            fcs(CRC32_FCS, BitVector.zeros(12))
