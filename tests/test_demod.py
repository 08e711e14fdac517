import random

import pytest

from scattersim.crc import CRC8, CRC16_CCITT, CRC32_FCS, crc_forward, recover_block
from scattersim.demod import (
    CrcCollisionError,
    UndecodableError,
    bracket_registers,
    brute_force_demodulate,
    demodulate_ampdu,
    demodulate_blind,
    demodulate_mpdu,
)
from scattersim.frames import (
    FrameParseError,
    ModulationWindow,
    SymbolMap,
    aggregate,
    ampdu_layout,
    build_mpdu,
    locate_windows,
    serialize_bits,
)
from scattersim.gf2 import BitVector
from scattersim.tagsim import ChannelConfig, TagPayload, apply_channel, modulate

from bracket_oracle import brackets, oracle_record

SPEC = CRC32_FCS

# Narrow-register pipelines need symbols that fit the recovery window and
# still win the majority vote: more than width/2 modulated bits.
PIPELINES = (
    (CRC8, SymbolMap(bits_per_symbol=6)),
    (CRC16_CCITT, SymbolMap(bits_per_symbol=12)),
    (CRC32_FCS, SymbolMap(bits_per_symbol=26)),
)


def make_instance(rng, spec=SPEC, symbol_map=SymbolMap(), n_sub=10, body=64, tag_bits=None):
    a = aggregate(
        [build_mpdu(bytes(24), rng.randbytes(body), spec) for _ in range(n_sub)]
    )
    windows = locate_windows(a, spec, symbol_map)
    if tag_bits is None:
        tag_bits = BitVector(rng.getrandbits(n_sub), n_sub)
    tag = TagPayload(tag_bits)
    tx = modulate(a, tag, windows, spec)
    return a, windows, ampdu_layout(a, spec), tag, tx


def mpdu_slice(bits, layout, i):
    sf = layout[i]
    return bits[sf.mpdu_start : sf.mpdu_end]


class TestSyndromePath:
    """demodulate_mpdu against the bracketing construction it folds away."""

    def test_window_at_mpdu_start(self):
        # Empty prefix: the front bracket is the init state itself.
        rng = random.Random(0)
        a, _, layout, _, _ = make_instance(rng, n_sub=1, body=8)
        w0 = ModulationWindow(0, 0, 0, 26, 32)
        mpdu = mpdu_slice(serialize_bits(a, SPEC), layout, 0)
        front, _ = brackets(SPEC, mpdu, w0)
        assert front == SPEC.init_state()
        rec = demodulate_mpdu(SPEC, mpdu, w0)
        assert rec == oracle_record(SPEC, mpdu, w0)
        assert rec.tag_pattern == BitVector.zeros(32) and rec.ambient_ok

    def test_window_against_trailer(self):
        # Empty suffix: no zero rewind, the back bracket is the trailer
        # without its final XOR.
        rng = random.Random(1)
        a, _, layout, _, _ = make_instance(rng, n_sub=1, body=8)
        mpdu = mpdu_slice(serialize_bits(a, SPEC), layout, 0)
        content, trailer = mpdu[:-32], mpdu[-32:]
        w = ModulationWindow(0, 0, len(content) - 32, 26, 32)
        _, back = brackets(SPEC, mpdu, w)
        assert back == trailer ^ SPEC.final_vector()
        for seed in range(10):
            noisy = apply_channel(mpdu, ChannelConfig("bsc", ber=0.01, seed=seed))
            assert demodulate_mpdu(SPEC, noisy, w) == oracle_record(SPEC, noisy, w)

    def test_clean_tag_zero_has_zero_pattern(self):
        # A frame that verifies has a zero residue, so a zero pattern, and
        # the recovered block is the received window.
        rng = random.Random(2)
        for _ in range(20):
            a, windows, layout, _, _ = make_instance(
                rng, n_sub=1, body=32, tag_bits=BitVector.zeros(1)
            )
            mpdu = mpdu_slice(serialize_bits(a, SPEC), layout, 0)
            w = windows[0]
            rec = demodulate_mpdu(SPEC, mpdu, w)
            assert rec.tag_pattern == BitVector.zeros(32)
            assert rec.ambient_ok and rec.tag_bit == 0
            r = w.recovery_range
            assert rec.recovered_ambient == mpdu[r.start : r.stop]

    def test_matches_bit_serial_brackets(self):
        rng = random.Random(3)
        for spec, symbol_map in PIPELINES:
            a, windows, layout, _, tx = make_instance(
                rng, spec=spec, symbol_map=symbol_map, n_sub=2, body=48
            )
            for seed in range(10):
                rx = apply_channel(tx, ChannelConfig("bsc", ber=2e-3, seed=seed))
                for w in windows:
                    mpdu = mpdu_slice(rx, layout, w.mpdu_index)
                    assert demodulate_mpdu(spec, mpdu, w) == oracle_record(spec, mpdu, w)


    def test_bracket_registers_bracket_the_flip_pattern(self):
        # The syndrome-form brackets run from the zero state over the flip
        # pattern that the bit-serial brackets solve for.
        rng = random.Random(5)
        for spec, symbol_map in PIPELINES:
            a, windows, layout, _, tx = make_instance(
                rng, spec=spec, symbol_map=symbol_map, n_sub=2, body=40
            )
            for seed in range(5):
                rx = apply_channel(tx, ChannelConfig("bsc", ber=2e-3, seed=seed))
                for w in windows:
                    mpdu = mpdu_slice(rx, layout, w.mpdu_index)
                    content, trailer = mpdu[: -spec.width], mpdu[-spec.width :]
                    front, back = bracket_registers(spec, content, trailer, w)
                    r = w.recovery_range
                    pattern = recover_block(spec, *brackets(spec, mpdu, w)) ^ content[
                        r.start : r.stop
                    ]
                    assert front == BitVector.zeros(spec.width)
                    assert crc_forward(spec, front, pattern) == back


class TestDemodulateMpdu:
    def test_noiseless_tag_zero(self):
        rng = random.Random(4)
        a, windows, layout, _, tx = make_instance(
            rng, n_sub=1, tag_bits=BitVector.zeros(1)
        )
        rec = demodulate_mpdu(SPEC, mpdu_slice(tx, layout, 0), windows[0])
        assert rec.tag_bit == 0
        assert rec.tag_pattern == BitVector.zeros(32)
        assert rec.ones_count == 0
        assert rec.margin == 16
        assert rec.ambient_ok

    def test_noiseless_tag_one(self):
        rng = random.Random(5)
        a, windows, layout, _, tx = make_instance(
            rng, n_sub=1, tag_bits=BitVector(1, 1)
        )
        rec = demodulate_mpdu(SPEC, mpdu_slice(tx, layout, 0), windows[0])
        assert rec.tag_bit == 1
        assert rec.ones_count == 26
        assert rec.margin == 10
        assert rec.tag_pattern == BitVector((1 << 26) - 1, 26) + BitVector.zeros(6)
        assert rec.ambient_ok

    def test_recovered_ambient_matches_truth(self):
        rng = random.Random(6)
        a, windows, layout, _, tx = make_instance(rng, n_sub=1)
        clean = serialize_bits(a, SPEC)
        w = windows[0]
        start = layout[0].mpdu_start + w.mod_start
        rec = demodulate_mpdu(SPEC, mpdu_slice(tx, layout, 0), w)
        assert rec.recovered_ambient == clean[start : start + 32]

    def test_single_flip_sweep_inside_window(self):
        # Any one flip inside the 32-bit window leaves the vote at 25 or 27
        # ones and never moves the decoded tag bit; the block recovery only
        # reads bits outside the window, so the ambient stays exact.
        rng = random.Random(7)
        a, windows, layout, _, tx = make_instance(
            rng, n_sub=1, tag_bits=BitVector(1, 1)
        )
        w = windows[0]
        clean = serialize_bits(a, SPEC)
        start = layout[0].mpdu_start + w.mod_start
        truth = clean[start : start + 32]
        mpdu = mpdu_slice(tx, layout, 0)
        base = w.mod_start
        for offset in range(32):
            flipped = mpdu.flip_range(base + offset, base + offset + 1)
            rec = demodulate_mpdu(SPEC, flipped, w)
            assert rec.ones_count in (25, 27)
            assert rec.tag_bit == 1
            assert rec.recovered_ambient == truth
            assert not rec.ambient_ok

    def test_up_to_five_flips_keep_vote(self):
        # 26-vs-6 design margin: flips confined to the window never flip
        # the vote while there are at most 5 of them.
        rng = random.Random(8)
        a, windows, layout, tag, tx = make_instance(rng, n_sub=1)
        w = windows[0]
        mpdu = mpdu_slice(tx, layout, 0)
        for _ in range(10_000):
            k = rng.randrange(1, 6)
            flipped = mpdu
            for pos in rng.sample(range(32), k):
                flipped = flipped.flip_range(
                    w.mod_start + pos, w.mod_start + pos + 1
                )
            rec = demodulate_mpdu(SPEC, flipped, w)
            assert rec.tag_bit == tag.bits[0]

    def test_noise_never_raises(self):
        rng = random.Random(9)
        a, windows, layout, _, tx = make_instance(rng, n_sub=1)
        noisy = apply_channel(tx, ChannelConfig("bsc", ber=0.3, seed=1))
        rec = demodulate_mpdu(SPEC, mpdu_slice(noisy, layout, 0), windows[0])
        assert rec.tag_bit in (0, 1)

    def test_self_consistency_under_noise(self):
        # The recovered block always forward-steps front to back, noise or
        # not; the algebra is consistent with the brackets by construction.
        rng = random.Random(10)
        a, windows, layout, _, tx = make_instance(rng, n_sub=1)
        w = windows[0]
        for seed in range(20):
            noisy = apply_channel(tx, ChannelConfig("bsc", ber=0.05, seed=seed))
            mpdu = mpdu_slice(noisy, layout, 0)
            front, back = brackets(SPEC, mpdu, w)
            rec = demodulate_mpdu(SPEC, mpdu, w)
            assert crc_forward(SPEC, front, rec.recovered_ambient) == back


class TestDemodulateAmpdu:
    def test_ten_subframes_noiseless_exact(self):
        rng = random.Random(11)
        for _ in range(10):
            a, windows, layout, tag, tx = make_instance(rng)
            res = demodulate_ampdu(SPEC, tx, windows, layout)
            assert res.tag_bits == tag.bits

    def test_single_mpdu_single_bit(self):
        rng = random.Random(12)
        a, windows, layout, tag, tx = make_instance(rng, n_sub=1)
        res = demodulate_ampdu(SPEC, tx, windows, layout)
        assert len(res.tag_bits) == 1
        assert res.tag_bits == tag.bits

    def test_burst_in_one_subframe(self):
        rng = random.Random(13)
        a, windows, layout, tag, tx = make_instance(rng)
        sf = layout[4]
        burst = tx
        for pos in range(sf.body_start, sf.body_start + 200, 3):
            burst = burst.flip_range(pos, pos + 1)
        res = demodulate_ampdu(SPEC, burst, windows, layout)
        for i, (rec, sent) in enumerate(zip(res.records, tag.bits)):
            if i == 4:
                assert not rec.ambient_ok
            else:
                assert rec.tag_bit == sent
                assert rec.ambient_ok

    def test_blind_mode_parses_framing(self):
        rng = random.Random(14)
        a, windows, layout, tag, tx = make_instance(rng)
        res = demodulate_blind(SPEC, tx)
        assert res.tag_bits == tag.bits

    def test_blind_mode_parse_failure_names_subframe(self):
        rng = random.Random(15)
        a, windows, layout, tag, tx = make_instance(rng, n_sub=3)
        truncated = BitVector.from_bytes(
            tx.to_bytes(lsb_first=True)[:-12], lsb_first=True
        )
        with pytest.raises(FrameParseError, match="subframe 2"):
            demodulate_blind(SPEC, truncated)

    def test_three_spec_noiseless_completeness(self):
        # ~10k window trials across the three register widths: ambient and
        # tag recovery must be exact in every one.
        rng = random.Random(16)
        for spec, symbol_map in PIPELINES:
            for _ in range(850):
                a, windows, layout, tag, tx = make_instance(
                    rng, spec=spec, symbol_map=symbol_map, n_sub=4, body=16
                )
                res = demodulate_ampdu(spec, tx, windows, layout)
                assert res.tag_bits == tag.bits
                clean = serialize_bits(a, spec)
                for rec, w in zip(res.records, windows):
                    start = layout[w.mpdu_index].mpdu_start + w.mod_start
                    assert (
                        rec.recovered_ambient == clean[start : start + spec.width]
                    )


class TestBruteForce:
    def test_single_bit_matches_bracketing_path(self):
        rng = random.Random(17)
        for _ in range(20):
            a, windows, layout, tag, tx = make_instance(rng, n_sub=1)
            bf = brute_force_demodulate(SPEC, tx, windows, layout)
            direct = demodulate_ampdu(SPEC, tx, windows, layout)
            assert bf.tag_bits == direct.tag_bits == tag.bits

    def test_agreement_200_noiseless_trials(self):
        rng = random.Random(18)
        for _ in range(200):
            n = rng.randrange(1, 11)
            a, windows, layout, tag, tx = make_instance(rng, n_sub=n, body=16)
            bf = brute_force_demodulate(SPEC, tx, windows, layout)
            direct = demodulate_ampdu(SPEC, tx, windows, layout)
            assert bf.tag_bits == direct.tag_bits
            assert [r.recovered_ambient for r in bf.records] == [
                r.recovered_ambient for r in direct.records
            ]

    def test_cap_enforced(self):
        rng = random.Random(19)
        a, windows, layout, tag, tx = make_instance(rng, n_sub=3, body=16)
        with pytest.raises(ValueError, match="cap"):
            brute_force_demodulate(SPEC, tx, windows, layout, cap=2)

    def test_undecodable_when_noise_breaks_every_candidate(self):
        rng = random.Random(20)
        a, windows, layout, tag, tx = make_instance(rng, n_sub=2, body=16)
        # Corrupt a prefix bit outside any window: no candidate can pass.
        sf = layout[0]
        noisy = tx.flip_range(sf.mpdu_start + 8, sf.mpdu_start + 9)
        with pytest.raises(UndecodableError):
            brute_force_demodulate(SPEC, noisy, windows, layout)

    def test_collision_surfaced(self, monkeypatch):
        # Structurally unreachable with a full-rank recovery window, so
        # force the pass check to accept everything and assert the branch.
        rng = random.Random(21)
        a, windows, layout, tag, tx = make_instance(rng, n_sub=2, body=16)
        import scattersim.demod as demod_module

        monkeypatch.setattr(
            demod_module, "_candidate_passes", lambda *args: True
        )
        with pytest.raises(CrcCollisionError, match="4 tag candidates"):
            brute_force_demodulate(SPEC, tx, windows, layout)

    def test_independent_of_fast_path(self, monkeypatch):
        # The oracle keeps its own bit-serial register runs: with every
        # fast-path register entry point broken it must still decode.
        rng = random.Random(23)
        a, windows, layout, tag, tx = make_instance(rng, n_sub=4, body=40)
        import scattersim.crc as crc_module
        import scattersim.demod as demod_module

        def broken(*args):
            raise AssertionError("oracle reached the fast path")

        for module, name in (
            (demod_module, "bracket_registers"),
            (demod_module, "residue"),
            (crc_module, "residue"),
            (crc_module, "register_run"),
            (demod_module, "state_transition_inverse"),
            (demod_module, "recover_block"),
            (crc_module, "_run_forward"),
            (crc_module, "_forward_table"),
            (crc_module, "_zero_rewind_power"),
            (crc_module, "_rewind_zeros"),
        ):
            monkeypatch.setattr(module, name, broken)
        bf = brute_force_demodulate(SPEC, tx, windows, layout)
        assert bf.tag_bits == tag.bits

    def test_empty_windows_decode_to_empty(self):
        rng = random.Random(22)
        a, windows, layout, tag, tx = make_instance(
            rng, n_sub=1, tag_bits=BitVector.zeros(1)
        )
        res = brute_force_demodulate(SPEC, tx, [], layout)
        assert len(res.tag_bits) == 0
        assert res.records == ()
