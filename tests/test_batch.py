"""Differential tests of the batched Monte-Carlo path against the scalar one.

The batch builds, tags, corrupts and decodes whole arrays of frames. These
tests feed its received bytes to the scalar ``demodulate_ampdu`` with the
plan's windows and layout and require every record field to agree, hold
its transmitter to ``modulate`` and its channel to the flip sampler, pin
the CLI's per-seed output of the batched run and of the channel, and check
that the plan cache is bounded and the sampler's flip rate holds.
"""
import hashlib
import math

import numpy as np
import pytest

from scattersim import crc
from scattersim.cli import main
from scattersim.crc import CRC8, CRC16_CCITT, CRC32_FCS, CrcSpec
from scattersim.demod import demodulate_ampdu
from scattersim.experiments import (
    ExperimentConfig,
    frame_plan,
    run_batch,
    run_e2e,
)
from scattersim.frames import (
    SymbolMap,
    WindowPolicy,
    bits_to_bytes,
    parse_ampdu,
    serialize_ampdu,
    verify_fcs,
)
from scattersim.gf2 import BitVector
from scattersim.tagsim import (
    ChannelConfig,
    TagPayload,
    apply_channel,
    flip_positions,
    modulate,
)

# CRC-32C (Castagnoli), reflected: no preset, so its checksum and residues
# take the byte-table path, not the stdlib CRC-32.
CRC32C = CrcSpec(32, 0x1EDC6F41, 0xFFFFFFFF, 0xFFFFFFFF, reflected=True)

# Symbols must fit the recovery window and win the vote: > width/2 bits.
PIPELINES = (
    (CRC8, SymbolMap(bits_per_symbol=6)),
    (CRC16_CCITT, SymbolMap(bits_per_symbol=12)),
    (CRC32_FCS, SymbolMap()),
    (CRC32C, SymbolMap()),
)
PIPELINE_IDS = ["crc8", "crc16-ccitt", "crc32", "crc32c-reflected"]
CHANNELS = [ChannelConfig("bsc", ber=p) for p in (0.0, 1e-4, 2e-3, 0.05, 0.5)] + [
    ChannelConfig("awgn", snr_db=4.0)
]
CHANNEL_IDS = ["p0", "p1e-4", "p2e-3", "p0.05", "p0.5", "awgn4dB"]

SUBFRAMES, BODY_LEN, HEADER_LEN, FRAMES = 6, 40, 24, 12


def plan_for(spec, symbol_map):
    return frame_plan(spec, SUBFRAMES, BODY_LEN, HEADER_LEN, symbol_map, WindowPolicy())


def stream_bits(row: np.ndarray, spec) -> BitVector:
    return BitVector.from_bytes(row.tobytes(), lsb_first=spec.reflected)


@pytest.mark.parametrize("channel", CHANNELS, ids=CHANNEL_IDS)
@pytest.mark.parametrize("spec,symbol_map", PIPELINES, ids=PIPELINE_IDS)
def test_batch_records_match_scalar_demodulator(spec, symbol_map, channel):
    plan = plan_for(spec, symbol_map)
    rng = np.random.default_rng([spec.width, int(channel.flip_probability() * 1e6)])
    batch = run_batch(plan, channel.flip_probability(), rng, FRAMES)
    windows, layout = list(plan.windows), list(plan.layout)
    outcomes = set()
    for b in range(FRAMES):
        clean = stream_bits(batch.clean[b], spec)
        result = demodulate_ampdu(spec, stream_bits(batch.received[b], spec), windows, layout)
        for k, (rec, w) in enumerate(zip(result.records, windows)):
            start = layout[k].mpdu_start + w.mod_start
            offset = start - 8 * int(plan.cover_at[k, 0])
            pattern = stream_bits(batch.patterns[b, k], spec)[offset : offset + spec.width]
            got = (
                int(batch.tag_bits[b, k]),
                int(batch.ones[b, k]),
                int(batch.margin[b, k]),
                bool(batch.ambient_ok[b, k]),
                bool(batch.recovered[b, k]),
            )
            want = (
                rec.tag_bit,
                rec.ones_count,
                rec.margin,
                rec.ambient_ok,
                rec.recovered_ambient == clean[start : start + spec.width],
            )
            assert got == want, f"frame {b}, mpdu {k}"
            assert pattern == rec.tag_pattern
            outcomes.add(rec.ambient_ok)
    if channel.flip_probability() == 0.0:
        assert outcomes == {True}
        assert (batch.tag_bits == batch.sent).all() and batch.recovered.all()
    if channel.flip_probability() >= 0.05:
        assert False in outcomes


@pytest.mark.parametrize("spec,symbol_map", PIPELINES, ids=PIPELINE_IDS)
def test_noiseless_batch_is_the_scalar_transmitter(spec, symbol_map):
    plan = plan_for(spec, symbol_map)
    batch = run_batch(plan, 0.0, np.random.default_rng(5), 4)
    for b in range(4):
        data = batch.clean[b].tobytes()
        ampdu = parse_ampdu(data, spec, HEADER_LEN)
        assert all(verify_fcs(mpdu, spec) for mpdu in ampdu.subframes)
        assert serialize_ampdu(ampdu, spec) == data
        tag = TagPayload(BitVector.from_bits(batch.sent[b].tolist()))
        tx = modulate(ampdu, tag, list(plan.windows), spec)
        assert bits_to_bytes(tx, spec) == batch.received[b].tobytes()


@pytest.mark.parametrize("spec,symbol_map", PIPELINES, ids=PIPELINE_IDS)
def test_batch_channel_flips_the_sampled_positions(spec, symbol_map):
    # Bodies, then tags, then the channel's flips: replaying the draws
    # gives exactly the bits the batch's channel inverted.
    plan = plan_for(spec, symbol_map)
    p, frames = 2e-3, 5
    batch = run_batch(plan, p, np.random.default_rng(8), frames)
    replay = np.random.default_rng(8)
    replay.bytes(frames * SUBFRAMES * BODY_LEN)
    replay.integers(0, 2, (frames, SUBFRAMES), dtype=np.uint8)
    expected = flip_positions(replay, batch.received.size * 8, p)
    tx = bytearray()
    for b in range(frames):
        ampdu = parse_ampdu(batch.clean[b].tobytes(), spec, HEADER_LEN)
        tag = TagPayload(BitVector.from_bits(batch.sent[b].tolist()))
        tx += bits_to_bytes(modulate(ampdu, tag, list(plan.windows), spec), spec)
    diff = stream_bits(np.frombuffer(bytes(tx), np.uint8) ^ batch.received.reshape(-1), spec)
    assert [i for i, bit in enumerate(diff) if bit] == expected.tolist()


def test_apply_channel_flips_the_sampled_positions():
    n, p = 1001, 0.01
    out = apply_channel(BitVector.zeros(n), ChannelConfig("bsc", ber=p, seed=4))
    expected = flip_positions(np.random.default_rng(4), n, p)
    assert len(expected) > 0
    assert [i for i, bit in enumerate(out) if bit] == expected.tolist()


@pytest.mark.parametrize("p,n", [(1e-5, 10**8), (0.5, 10**6)])
def test_flip_sampler_rate(p, n):
    at = flip_positions(np.random.default_rng(31), n, p)
    assert at.dtype == np.int64
    assert (np.diff(at) > 0).all() and at[0] >= 0 and at[-1] < n
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(len(at) - n * p) < 4 * sigma
    # Flips spread evenly: each tenth of the range holds a tenth of them.
    per_tenth = np.bincount(at * 10 // n, minlength=10)
    sigma_tenth = math.sqrt(n / 10 * p * (1 - p))
    assert (np.abs(per_tenth - n / 10 * p) < 4 * sigma_tenth).all()


def test_flip_sampler_edges():
    rng = np.random.default_rng(2)
    assert flip_positions(rng, 1000, 0.0).size == 0
    assert flip_positions(rng, 0, 0.5).size == 0
    assert flip_positions(rng, 64, 1.0).tolist() == list(range(64))
    # A gap far past the end must not wrap around in int64.
    assert flip_positions(rng, 10**6, 1e-300).size == 0


def test_every_plan_cache_stays_bounded():
    for body_len in range(8, 8 + 3 * frame_plan.cache_info().maxsize):
        rows = run_e2e(
            ExperimentConfig(frames=1, subframes=2, body_len=body_len, header_len=0, seed=1)
        )
        assert rows[0]["tag_errors"] == 0
    caches = [frame_plan] + [f for f in vars(crc).values() if hasattr(f, "cache_info")]
    assert len(caches) >= 4
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, cache


def _sha256(path) -> str:
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_e2e_and_channel_outputs_are_pinned(tmp_path, capsys):
    # The per-seed output of the batched e2e run and of the channel must
    # not change: a fixed seed gives fixed bytes.
    cfg16 = tmp_path / "c16.txt"
    cfg16.write_text("bits_per_symbol=12\n")
    paths = {name: str(tmp_path / name)
             for name in ("e2e32.csv", "e2e16.csv", "frame.hex", "rx.hex")}
    common = ["--frames", "70", "--subframes", "4", "--body-len", "40",
              "--channel", "bsc", "--ber", "1e-3", "--seed", "17"]
    assert main(["e2e", "--spec", "crc32", *common, "--out", paths["e2e32.csv"]]) == 0
    assert main(["e2e", "--config", str(cfg16), "--spec", "crc16-ccitt", *common,
                 "--out", paths["e2e16.csv"]]) == 0
    assert main(["gen", "--seed", "5", "--subframes", "3", "--body-len", "40",
                 "--out", paths["frame.hex"]]) == 0
    assert main(["channel", "--input", paths["frame.hex"], "--channel", "bsc",
                 "--ber", "0.01", "--seed", "6", "--out", paths["rx.hex"]]) == 0
    digests = {name: _sha256(path) for name, path in paths.items()}
    assert digests == {
        "e2e32.csv": "4ea550be4b047e5a655d1b4975fb4286ae048338896c16aef3c2f4b32f2db9d0",
        "e2e16.csv": "1681e421d1ad753aa13249285f952896fea584f5d06902f7b82158290ff953a9",
        "frame.hex": "2846e3efc5e3407766dcb2a5b4c4778ab6ba2b86940cbd1279be560359dfd89f",
        "rx.hex": "d0ad2c1d127c84b4f98476c90391b18cda1322e623027cac8092ed9c09f77093",
    }
