"""Seeded, reproducible experiment harness emitting CSV rows.

Every run wires frame building, tag modulation, the channel, and
demodulation end to end. All randomness descends from one master seed;
sweep points mix the master seed with the point's value (not its list
position), so reordering a sweep list never changes per-point results.
Timing columns are the only nondeterministic outputs.

The Monte-Carlo runs (``run_e2e``, ``run_prr_sweep``, ``run_ber_sweep``)
share one batched path: plan -> batch -> map.

- Plan: every frame of a config has the same geometry, so its windows,
  byte offsets and one width x width decode map per window position
  (``crc.syndrome_map``) are built once, from a template aggregate, by
  the scalar code's own window location, layout and serialization.
- Batch: ``BATCH_FRAMES`` frames at a time as numpy byte arrays. Bodies
  come from one ``rng.bytes`` draw and tags from one ``rng.integers``
  draw; each trailer is ``crc.fcs`` of its MPDU; the tag XORs the plan's
  symbol masks; the channel flips bits drawn by ``tagsim.flip_positions``.
- Map: the receiver takes each MPDU's residue from its received bytes
  (``crc.residue``, as ``demod`` does) and sends it through its window's
  map to get the flip pattern; vote, margin, ``ambient_ok`` and recovery
  follow as in ``demod.demodulate_mpdu``, vectorized over the batch.

The batched path replaced a per-frame one, which changed the random
stream's layout once: the per-seed output bytes of ``e2e``, ``sweep-prr``
and ``sweep-ber`` differ from those of the per-frame path. The scalar
functions remain for the CLI's file tools, blind receive and
``run_timing``, and ``tests/test_batch.py`` holds the batch to them.
"""
from __future__ import annotations

import csv
import struct
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from statistics import median
from typing import TextIO

import numpy as np

from .crc import SPEC_PRESETS, CrcSpec, fcs, residue, syndrome_map
from .demod import DEFAULT_BRUTE_CAP, brute_force_demodulate, demodulate_ampdu
from .frames import (
    DEFAULT_HEADER_LEN,
    Ampdu,
    ModulationWindow,
    SubframeLayout,
    SymbolMap,
    WindowPolicy,
    aggregate,
    ampdu_layout,
    bits_to_bytes,
    build_mpdu,
    fcs_bytes,
    locate_windows,
    serialize_ampdu,
)
from .gf2 import BitVector
from .tagsim import ChannelConfig, TagPayload, flip_bits, flip_positions, modulate

MIN_TAG_BITS_PER_BER_POINT = 100_000


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    frames: int = 10_000
    subframes: int = 10
    body_len: int = 64
    header_len: int = DEFAULT_HEADER_LEN
    channel: ChannelConfig = ChannelConfig()
    seed: int = 0
    spec: CrcSpec = SPEC_PRESETS["crc32"]
    symbol_map: SymbolMap = SymbolMap()
    policy: WindowPolicy = WindowPolicy()
    snr_db_list: tuple[float, ...] = ()
    ber_list: tuple[float, ...] = ()
    tag_bit_counts: tuple[int, ...] = ()
    reps: int = 30
    brute_cap: int = DEFAULT_BRUTE_CAP

    def __post_init__(self):
        if self.frames < 1:
            raise ConfigError(f"frames must be >= 1, got {self.frames}")
        if self.subframes < 1:
            raise ConfigError(f"subframes must be >= 1, got {self.subframes}")
        if self.body_len < 4:
            raise ConfigError(f"body_len must be >= 4 bytes, got {self.body_len}")
        if self.header_len < 0:
            raise ConfigError(f"header_len must be >= 0, got {self.header_len}")
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")


def point_seed(master_seed: int, value) -> np.random.SeedSequence:
    """Mix the master seed with a sweep point's value, order-independently."""
    if isinstance(value, float):
        key = struct.unpack(">Q", struct.pack(">d", value))[0]
    else:
        key = int(value)
    return np.random.SeedSequence(entropy=[master_seed & 0xFFFFFFFFFFFFFFFF, key])


def random_ampdu(cfg: ExperimentConfig, rng: np.random.Generator) -> Ampdu:
    """Aggregate of zero-header MPDUs with random bodies."""
    return aggregate(
        [
            build_mpdu(bytes(cfg.header_len), rng.bytes(cfg.body_len), cfg.spec)
            for _ in range(cfg.subframes)
        ]
    )


def random_tag(n: int, rng: np.random.Generator) -> TagPayload:
    """n uniform tag bits, the first drawn first."""
    value = 0
    for b in rng.integers(0, 2, n):
        value = (value << 1) | int(b)
    return TagPayload(BitVector(value, n))


BATCH_FRAMES = 64  # frames per numpy batch; fixed, so a seed fixes the output


@dataclass(frozen=True, eq=False)
class FramePlan:
    """Geometry shared by every frame of one config, built once.

    Byte offsets index the serialized aggregate of ``L`` bytes, which is
    ``S`` equal subframe units; ``C`` is the bytes that hold one recovery
    window at any bit offset.
    """

    spec: CrcSpec
    header: bytes
    windows: tuple[ModulationWindow, ...]
    layout: tuple[SubframeLayout, ...]
    template: np.ndarray  # (L,) uint8: the aggregate with all-zero bodies
    body: slice  # the body bytes within each subframe unit
    trailer: slice  # the trailer bytes within each subframe unit
    cover_at: np.ndarray  # (S, C) bytes holding each recovery window
    window_mask: np.ndarray  # (S, C) the recovery window's bits in them
    mod_mask: np.ndarray  # (S, C) the modulated symbol's bits in them
    decode: np.ndarray  # (S, width/8, 256, C) residue byte -> pattern bytes


def _wire_bytes(
    spec: CrcSpec, value: int, nbits: int, offset: int, nbytes: int
) -> np.ndarray:
    """``nbits`` bits of ``value`` placed ``offset`` bits into ``nbytes``
    bytes of the stream, as serialized (processing order on the wire)."""
    bits = BitVector(value << (8 * nbytes - offset - nbits), 8 * nbytes)
    return np.frombuffer(bits_to_bytes(bits, spec), np.uint8)


def _byte_tables(images: np.ndarray) -> np.ndarray:
    """A linear map as one lookup table per input byte.

    ``images[j, t]`` is the image of bit t (MSB first) of input byte j;
    entry ``[j, v]`` of the result XORs the images of the set bits of v.
    """
    tables = np.zeros((images.shape[0], 1, images.shape[2]), np.uint8)
    for t in range(7, -1, -1):  # LSB first: each step doubles the table
        tables = np.concatenate([tables, tables ^ images[:, t, None]], axis=1)
    return tables


@lru_cache(maxsize=16)
def frame_plan(
    spec: CrcSpec,
    subframes: int,
    body_len: int,
    header_len: int,
    symbol_map: SymbolMap,
    policy: WindowPolicy,
) -> FramePlan:
    """Windows, byte offsets and per-window decode maps of one geometry.

    Built from a template aggregate with the scalar code's own window
    location, layout and serialization. Each window's decode map is
    ``crc.syndrome_map`` laid out as byte tables: XOR-ing the entries of a
    residue's bytes gives the window's flip pattern in wire bytes.
    """
    template = aggregate([build_mpdu(bytes(header_len), bytes(body_len), spec)] * subframes)
    windows = locate_windows(template, spec, symbol_map, policy)
    layout = ampdu_layout(template, spec)
    data = serialize_ampdu(template, spec)
    first = layout[0]
    width, cover = spec.width, (spec.width + 14) // 8
    cover_at, window_mask, mod_mask, decode = [], [], [], []
    for w, sf in zip(windows, layout):
        start, offset = divmod(sf.mpdu_start + w.mod_start, 8)
        cover_at.append(start)
        window_mask.append(_wire_bytes(spec, (1 << width) - 1, width, offset, cover))
        mod_mask.append(_wire_bytes(spec, (1 << w.mod_len) - 1, w.mod_len, offset, cover))
        rewind = sf.fcs_start - sf.mpdu_start - w.recovery_range.stop
        decode_map = syndrome_map(spec, rewind)
        rows = [decode_map.row(i).value for i in range(width)]
        images = np.array([_wire_bytes(spec, r, width, offset, cover) for r in rows])
        decode.append(_byte_tables(images.reshape(width // 8, 8, cover)))
    return FramePlan(
        spec=spec,
        header=bytes(header_len),
        windows=tuple(windows),
        layout=tuple(layout),
        template=np.frombuffer(data, np.uint8),
        body=slice(first.body_start // 8, first.fcs_start // 8),
        trailer=slice(first.fcs_start // 8, first.mpdu_end // 8),
        cover_at=np.array(cover_at)[:, None] + np.arange(cover),
        window_mask=np.array(window_mask),
        mod_mask=np.array(mod_mask),
        decode=np.array(decode),
    )


@dataclass(frozen=True)
class Batch:
    """Frames through tag, channel and receiver, as arrays over
    (frame, MPDU); ``patterns`` holds each window's decoded flip pattern
    in the plan's ``cover_at`` bytes."""

    sent: np.ndarray  # (B, S) tag bits sent
    clean: np.ndarray  # (B, L) serialized frames before the tag
    received: np.ndarray  # (B, L) bytes after the channel
    patterns: np.ndarray  # (B, S, C)
    tag_bits: np.ndarray  # (B, S) majority vote over each pattern
    ones: np.ndarray  # (B, S) ones in each pattern
    margin: np.ndarray  # (B, S) distance of the ones from width / 2
    ambient_ok: np.ndarray  # un-flipping the decoded bit verifies the FCS
    recovered: np.ndarray  # received window ^ pattern == clean window


def run_batch(plan: FramePlan, p: float, rng: np.random.Generator, frames: int) -> Batch:
    """``frames`` random frames through the pipeline at flip probability p.

    Draws, in order: every body, every tag bit, then the channel's flips.
    The receiver decodes each MPDU from its received bytes alone: its
    residue (``crc.residue``, as the scalar demodulator computes it) through
    its window's decode map.
    """
    spec, subframes = plan.spec, len(plan.windows)
    body_len = plan.body.stop - plan.body.start
    bodies = rng.bytes(frames * subframes * body_len)
    sent = rng.integers(0, 2, (frames, subframes), dtype=np.uint8)
    trailers = []
    for i in range(0, len(bodies), body_len):
        content = BitVector.from_bytes(plan.header + bodies[i : i + body_len])
        trailers.append(fcs_bytes(fcs(spec, content), spec))
    shape = (frames, subframes, -1)
    clean = np.tile(plan.template, (frames, 1))
    units = clean.reshape(shape)  # a view: one row per subframe unit
    units[:, :, plan.body] = np.frombuffer(bodies, np.uint8).reshape(shape)
    units[:, :, plan.trailer] = np.frombuffer(b"".join(trailers), np.uint8).reshape(shape)
    rx = clean.copy()
    rx[:, plan.cover_at] ^= sent[:, :, None] * plan.mod_mask
    flip_bits(rx.reshape(-1), flip_positions(rng, rx.size * 8, p), spec.reflected)

    data, frame_len, lsb = rx.tobytes(), rx.shape[1], spec.reflected
    mpdus = [(sf.mpdu_start // 8, sf.fcs_start // 8, sf.mpdu_end // 8) for sf in plan.layout]
    residues = b"".join(
        residue(
            spec,
            BitVector.from_bytes(data[base + start : base + at], lsb),
            BitVector.from_bytes(data[base + at : base + end], lsb),
        ).to_bytes()
        for base in range(0, len(data), frame_len)
        for start, at, end in mpdus
    )
    res = np.frombuffer(residues, np.uint8).reshape(shape)
    k, j = np.arange(subframes)[:, None], np.arange(res.shape[2])
    patterns = np.bitwise_xor.reduce(plan.decode[k, j, res], axis=2)
    ones = np.unpackbits(patterns, axis=2).sum(axis=2, dtype=np.int64)
    half = spec.width // 2
    tag_bits = (ones > half).astype(np.uint8)
    errors = (rx[:, plan.cover_at] ^ clean[:, plan.cover_at]) & plan.window_mask
    return Batch(
        sent=sent,
        clean=clean,
        received=rx,
        patterns=patterns,
        tag_bits=tag_bits,
        ones=ones,
        margin=np.abs(ones - half),
        ambient_ok=(patterns == tag_bits[:, :, None] * plan.mod_mask).all(axis=2),
        recovered=(errors == patterns).all(axis=2),
    )


def _batches(cfg: ExperimentConfig, channel: ChannelConfig, rng, frames: int):
    """``frames`` frames of cfg's geometry through ``channel``, batch by batch."""
    plan = frame_plan(
        cfg.spec, cfg.subframes, cfg.body_len, cfg.header_len, cfg.symbol_map, cfg.policy
    )
    p = channel.flip_probability()
    for done in range(0, frames, BATCH_FRAMES):
        yield run_batch(plan, p, rng, min(BATCH_FRAMES, frames - done))


def _bit_strings(bits: np.ndarray) -> list[str]:
    """Each row of a 0/1 array as a bit string."""
    text = (bits + ord("0")).astype(np.uint8).tobytes().decode("ascii")
    n = bits.shape[1]
    return [text[i : i + n] for i in range(0, len(text), n)]


E2E_FIELDS = [
    "trial",
    "mpdus",
    "tag_bits_sent",
    "tag_bits_recovered",
    "tag_errors",
    "ambient_recovered",
    "fcs_confirmed",
    "min_margin",
]


def run_e2e(cfg: ExperimentConfig) -> list[dict]:
    """Per-frame rows for the full pipeline under the configured channel."""
    rng = np.random.default_rng(point_seed(cfg.seed, 0))
    rows = []
    for batch in _batches(cfg, cfg.channel, rng, cfg.frames):
        columns = zip(
            _bit_strings(batch.sent),
            _bit_strings(batch.tag_bits),
            (batch.sent != batch.tag_bits).sum(axis=1).tolist(),
            batch.recovered.sum(axis=1).tolist(),
            batch.ambient_ok.sum(axis=1).tolist(),
            batch.margin.min(axis=1).tolist(),
        )
        for sent, got, errors, recovered, confirmed, margin in columns:
            rows.append(
                {
                    "trial": len(rows),
                    "mpdus": cfg.subframes,
                    "tag_bits_sent": sent,
                    "tag_bits_recovered": got,
                    "tag_errors": errors,
                    "ambient_recovered": recovered,
                    "fcs_confirmed": confirmed,
                    "min_margin": margin,
                }
            )
    return rows


BER_FIELDS = ["snr_db", "tag_ber", "tag_bits", "tag_errors"]


def run_ber_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Tag bit error rate per SNR point, >= 1e5 tag bits per point."""
    if cfg.channel.mode != "awgn":
        raise ConfigError(
            f"BER sweep needs an awgn channel, got {cfg.channel.mode!r}"
        )
    if not cfg.snr_db_list:
        raise ConfigError("BER sweep needs a non-empty snr_db_list")
    frames = max(cfg.frames, -(-MIN_TAG_BITS_PER_BER_POINT // cfg.subframes))
    rows = []
    for snr_db in cfg.snr_db_list:
        channel = replace(cfg.channel, snr_db=float(snr_db))
        rng = np.random.default_rng(point_seed(cfg.seed, float(snr_db)))
        bits = 0
        errors = 0
        for batch in _batches(cfg, channel, rng, frames):
            bits += batch.sent.size
            errors += int((batch.sent != batch.tag_bits).sum())
        rows.append(
            {
                "snr_db": repr(float(snr_db)),
                "tag_ber": repr(errors / bits),
                "tag_bits": bits,
                "tag_errors": errors,
            }
        )
    return rows


PRR_FIELDS = ["ber_or_snr", "prr", "mpdus", "recovered"]


def run_prr_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Fraction of MPDUs whose recovered window matches the clean frame."""
    if cfg.channel.mode == "bsc":
        points = cfg.ber_list
        if not points:
            raise ConfigError("PRR sweep over a bsc channel needs ber_list")
    elif cfg.channel.mode == "awgn":
        points = cfg.snr_db_list
        if not points:
            raise ConfigError("PRR sweep over an awgn channel needs snr_db_list")
    else:
        raise ConfigError("PRR sweep needs a bsc or awgn channel")
    rows = []
    for value in points:
        if cfg.channel.mode == "bsc":
            channel = replace(cfg.channel, ber=float(value))
        else:
            channel = replace(cfg.channel, snr_db=float(value))
        rng = np.random.default_rng(point_seed(cfg.seed, float(value)))
        total = 0
        recovered = 0
        for batch in _batches(cfg, channel, rng, cfg.frames):
            total += batch.recovered.size
            recovered += int(batch.recovered.sum())
        rows.append(
            {
                "ber_or_snr": repr(float(value)),
                "prr": repr(recovered / total),
                "mpdus": total,
                "recovered": recovered,
            }
        )
    return rows


TIMING_FIELDS = ["n_tag_bits", "crc_reverse_ns", "brute_force_ns"]


def _median_ns(fn, reps: int) -> int:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    return int(median(samples))


def run_timing(cfg: ExperimentConfig) -> list[dict]:
    """Median decode times: the syndrome-form checksum path vs brute-force search."""
    if not cfg.tag_bit_counts:
        raise ConfigError("timing run needs a non-empty tag_bit_counts list")
    for n in cfg.tag_bit_counts:
        if n > cfg.brute_cap:
            raise ConfigError(
                f"{n} tag bits exceeds brute-force cap {cfg.brute_cap}"
            )
    rows = []
    for n in cfg.tag_bit_counts:
        point_cfg = replace(cfg, subframes=max(int(n), 1))
        rng = np.random.default_rng(point_seed(cfg.seed, int(n)))
        spec = cfg.spec
        ampdu = random_ampdu(point_cfg, rng)
        windows = locate_windows(ampdu, spec, cfg.symbol_map, cfg.policy)[: int(n)]
        layout = ampdu_layout(ampdu, spec)
        tag = random_tag(len(windows), rng)
        rx = modulate(ampdu, tag, windows, spec)
        crc_ns = _median_ns(
            lambda: demodulate_ampdu(spec, rx, windows, layout), cfg.reps
        )
        brute_ns = _median_ns(
            lambda: brute_force_demodulate(
                spec, rx, windows, layout, cap=cfg.brute_cap
            ),
            cfg.reps,
        )
        rows.append(
            {
                "n_tag_bits": int(n),
                "crc_reverse_ns": crc_ns,
                "brute_force_ns": brute_ns,
            }
        )
    return rows


def write_csv(out: str | TextIO, fieldnames: list[str], rows: list[dict]) -> None:
    """Schema-stable CSV to an open text stream or a path: fixed header row,
    LF endings, repr'd floats."""
    if not hasattr(out, "write"):
        with open(out, "w", newline="") as fh:
            write_csv(fh, fieldnames, rows)
        return
    writer = csv.DictWriter(out, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
