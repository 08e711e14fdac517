import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scattersim.crc import CRC8, CRC32_FCS, crc_forward
from scattersim.frames import (
    FrameParseError,
    Mpdu,
    SubframeLayout,
    SymbolMap,
    WindowPolicy,
    aggregate,
    ampdu_layout,
    build_mpdu,
    eligible_symbols,
    locate_window,
    locate_windows,
    parse_ampdu,
    serialize_ampdu,
    serialize_bits,
    verify_fcs,
)
from scattersim.gf2 import BitVector

from reference_crc import crc32_ieee

SPEC = CRC32_FCS


def random_ampdu(rng, n_sub=None, body_range=(4, 256)):
    n = n_sub if n_sub is not None else rng.randrange(1, 17)
    mpdus = [
        build_mpdu(bytes(24), rng.randbytes(rng.randrange(*body_range)), SPEC)
        for _ in range(n)
    ]
    return aggregate(mpdus)


class TestMpdu:
    def test_build_computes_reference_fcs(self):
        m = build_mpdu(bytes(24), bytes(4), SPEC)
        assert m.fcs.value == crc32_ieee(bytes(28))
        assert verify_fcs(m, SPEC)

    def test_body_too_short(self):
        with pytest.raises(ValueError, match=">= 4 bytes"):
            build_mpdu(bytes(24), bytes(3), SPEC)

    def test_single_bit_flip_detected(self):
        rng = random.Random(0)
        m = build_mpdu(bytes(24), rng.randbytes(16), SPEC)
        for byte_idx in (0, 7, 15):
            body = bytearray(m.body)
            body[byte_idx] ^= 0x10
            assert not verify_fcs(Mpdu(m.header, bytes(body), m.fcs), SPEC)

    def test_26_consecutive_flips_detected(self):
        # One modulated symbol breaks plain checksum verification; that is
        # exactly why a receiver needs the bracketing recovery path.
        rng = random.Random(1)
        m = build_mpdu(bytes(24), rng.randbytes(16), SPEC)
        bits = BitVector.from_bytes(m.content()).flip_range(200, 226)
        corrupted = bits.to_bytes()
        assert not verify_fcs(Mpdu(corrupted[:24], corrupted[24:], m.fcs), SPEC)


class TestAggregate:
    def test_single_subframe_layout(self):
        m = build_mpdu(bytes(24), bytes(8), SPEC)
        a = aggregate([m])
        data = serialize_ampdu(a, SPEC)
        # 2-byte delimiter + 36-byte MPDU + 2 pad bytes
        assert len(data) == 40
        assert data[:2] == (36).to_bytes(2, "big")
        assert data[-2:] == b"\x00\x00"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            aggregate([])

    def test_roundtrip(self):
        rng = random.Random(2)
        a = random_ampdu(rng, n_sub=10)
        assert parse_ampdu(serialize_ampdu(a, SPEC), SPEC) == a

    def test_each_subframe_independently_verifiable(self):
        rng = random.Random(3)
        a = random_ampdu(rng, n_sub=10)
        parsed = parse_ampdu(serialize_ampdu(a, SPEC), SPEC)
        assert all(verify_fcs(m, SPEC) for m in parsed.subframes)

    def test_truncated_final_subframe_names_index(self):
        rng = random.Random(4)
        a = random_ampdu(rng, n_sub=10)
        data = serialize_ampdu(a, SPEC)
        with pytest.raises(FrameParseError, match="subframe 9") as err:
            parse_ampdu(data[:-20], SPEC)
        assert err.value.subframe == 9

    def test_truncated_delimiter(self):
        rng = random.Random(5)
        a = random_ampdu(rng, n_sub=2)
        data = serialize_ampdu(a, SPEC)
        with pytest.raises(FrameParseError, match="subframe 1"):
            parse_ampdu(data[: len(serialize_ampdu(aggregate([a.subframes[0]]), SPEC)) + 1], SPEC)

    def test_bad_length_named(self):
        with pytest.raises(FrameParseError, match="subframe 0"):
            parse_ampdu(b"\x00\x01\xff\x00", SPEC)

    def test_serialization_bijective_1000_random(self):
        rng = random.Random(6)
        for _ in range(1000):
            a = random_ampdu(rng)
            assert parse_ampdu(serialize_ampdu(a, SPEC), SPEC) == a

    @given(st.data())
    @settings(max_examples=50)
    def test_roundtrip_property(self, data):
        n = data.draw(st.integers(1, 5))
        mpdus = [
            build_mpdu(
                bytes(24),
                data.draw(st.binary(min_size=4, max_size=40)),
                SPEC,
            )
            for _ in range(n)
        ]
        a = aggregate(mpdus)
        assert parse_ampdu(serialize_ampdu(a, SPEC), SPEC) == a


class TestStreamConsistency:
    def test_trailer_equals_raw_register_xor_final(self):
        # The serialized trailer, read in processing order, must equal the
        # raw final register XOR final_xor for every subframe; the whole
        # receiver rests on this identity.
        rng = random.Random(7)
        for spec in (SPEC, CRC8):
            a_mpdus = [build_mpdu(bytes(24), rng.randbytes(12), spec) for _ in range(3)]
            a = aggregate(a_mpdus)
            bits = serialize_bits(a, spec)
            for sf in ampdu_layout(a, spec):
                content = bits[sf.mpdu_start : sf.fcs_start]
                trailer = bits[sf.fcs_start : sf.mpdu_end]
                raw = crc_forward(spec, spec.init_state(), content)
                assert trailer == raw ^ spec.final_vector()


class TestSymbolMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            SymbolMap(bits_per_symbol=0)
        with pytest.raises(ValueError):
            SymbolMap(origin=-1)


class TestLocateWindow:
    def test_first_eligible_symbol_at_min_body(self):
        # 2-byte delimiter + 24-byte header = bit 208 = symbol boundary 8;
        # a 4-byte body leaves exactly one 32-bit window.
        a = aggregate([build_mpdu(bytes(24), bytes(4), SPEC)])
        w = locate_window(a, 0, SPEC)
        assert (w.symbol_index, w.mod_start, w.mod_len, w.rec_len) == (8, 192, 26, 32)
        assert list(w.mod_range) == list(range(192, 218))
        assert list(w.recovery_range) == list(range(192, 224))

    def test_full_symbol_fits_recovery_window(self):
        # 32 // 26 == 1: the modulated symbol sits inside the window.
        a = aggregate([build_mpdu(bytes(24), bytes(8), SPEC)])
        w = locate_window(a, 0, SPEC)
        assert w.mod_len <= w.rec_len

    def test_containment_never_header_or_fcs(self):
        # Bodies >= 8 bytes always fit a window regardless of how the
        # 26-bit grid lands (max 25 bits of misalignment + 32-bit window).
        rng = random.Random(9)
        for _ in range(50):
            a = random_ampdu(rng, n_sub=4, body_range=(8, 256))
            layout = ampdu_layout(a, SPEC)
            for w, sf in zip(locate_windows(a, SPEC), layout):
                start = sf.mpdu_start + w.mod_start
                assert start >= sf.body_start
                assert start + w.rec_len <= sf.fcs_start

    def test_symbol_too_wide_rejected(self):
        a = aggregate([build_mpdu(bytes(24), bytes(64), SPEC)])
        with pytest.raises(ValueError, match="exceeds"):
            locate_window(a, 0, SPEC, SymbolMap(bits_per_symbol=33))

    def test_policy_out_of_range(self):
        a = aggregate([build_mpdu(bytes(24), bytes(4), SPEC)])
        with pytest.raises(ValueError, match="only 1 fit"):
            locate_window(a, 0, SPEC, policy=WindowPolicy(1))

    def test_policy_picks_later_symbol(self):
        a = aggregate([build_mpdu(bytes(24), bytes(64), SPEC)])
        w0 = locate_window(a, 0, SPEC, policy=WindowPolicy(0))
        w2 = locate_window(a, 0, SPEC, policy=WindowPolicy(2))
        assert w2.symbol_index == w0.symbol_index + 2

    def test_no_room_for_window(self):
        # Body of 4 bytes but symbol grid shifted so nothing fits.
        a = aggregate([build_mpdu(bytes(24), bytes(4), SPEC)])
        with pytest.raises(ValueError, match="no symbol fits"):
            locate_window(a, 0, SPEC, SymbolMap(origin=1))

    def test_eligible_symbols_need_recovery_room(self):
        a = aggregate([build_mpdu(bytes(24), bytes(4), SPEC)])
        layout = ampdu_layout(a, SPEC)[0]
        assert eligible_symbols(layout, SymbolMap(), 32) == [8]
        # with a 6-byte body there is still only one: next symbol start
        # (234) + 32 would pass the body end
        a6 = aggregate([build_mpdu(bytes(24), bytes(6), SPEC)])
        assert eligible_symbols(ampdu_layout(a6, SPEC)[0], SymbolMap(), 32) == [8]

    def test_eligible_symbols_match_symbol_walk(self):
        # Reference: walk the grid symbol by symbol from the first one at or
        # after the body start, keeping each that leaves room to the FCS.
        def walk(layout, symbol_map, rec_len):
            bps = symbol_map.bits_per_symbol
            k = max(0, -(-(layout.body_start - symbol_map.origin) // bps))
            out = []
            while symbol_map.symbol_start(k) + max(bps, rec_len) <= layout.fcs_start:
                out.append(k)
                k += 1
            return out

        rng = random.Random(10)
        for _ in range(2000):
            layout = SubframeLayout(
                rng.randrange(0, 3000), rng.randrange(0, 300), rng.randrange(0, 600), 32
            )
            symbol_map = SymbolMap(rng.randrange(1, 40), rng.randrange(0, 4000))
            rec_len = rng.randrange(1, 40)
            assert eligible_symbols(layout, symbol_map, rec_len) == walk(
                layout, symbol_map, rec_len
            )
