"""Seeded, reproducible experiment harness emitting CSV rows.

Every run wires frame building, tag modulation, the channel, and
demodulation end to end. All randomness descends from one master seed;
sweep points mix the master seed with the point's value (not its list
position), so reordering a sweep list never changes per-point results.
Timing columns are the only nondeterministic outputs.
"""
from __future__ import annotations

import csv
import struct
import time
from dataclasses import dataclass, replace
from statistics import median

import numpy as np

from .crc import SPEC_PRESETS, CrcSpec
from .demod import DemodResult, brute_force_demodulate, demodulate_ampdu
from .frames import (
    DEFAULT_HEADER_LEN,
    Ampdu,
    SymbolMap,
    WindowPolicy,
    aggregate,
    ampdu_layout,
    build_mpdu,
    locate_windows,
    serialize_bits,
)
from .gf2 import BitVector
from .tagsim import ChannelConfig, TagPayload, apply_channel, modulate

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
    brute_cap: int = 20

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


def _random_frame(
    cfg: ExperimentConfig, rng: np.random.Generator
) -> tuple[Ampdu, list, list]:
    """Random-payload aggregate plus its windows and layout."""
    ampdu = random_ampdu(cfg, rng)
    windows = locate_windows(ampdu, cfg.spec, cfg.symbol_map, cfg.policy)
    return ampdu, windows, ampdu_layout(ampdu, cfg.spec)


def random_tag(n: int, rng: np.random.Generator) -> TagPayload:
    """n uniform tag bits, the first drawn first."""
    value = 0
    for b in rng.integers(0, 2, n):
        value = (value << 1) | int(b)
    return TagPayload(BitVector(value, n))


def _transmit(
    cfg: ExperimentConfig,
    ampdu: Ampdu,
    tag: TagPayload,
    windows: list,
    rng: np.random.Generator,
) -> BitVector:
    tx = modulate(ampdu, tag, windows, cfg.spec)
    channel = replace(cfg.channel, seed=int(rng.integers(0, 2**63)))
    return apply_channel(tx, channel)


def _ground_truth_windows(ampdu, windows, layout, spec) -> list[BitVector]:
    clean = serialize_bits(ampdu, spec)
    out = []
    for w in windows:
        start = layout[w.mpdu_index].mpdu_start + w.mod_start
        out.append(clean[start : start + w.rec_len])
    return out


def _run_trial(
    cfg: ExperimentConfig, rng: np.random.Generator
) -> tuple[TagPayload, DemodResult, int]:
    """One frame through the pipeline; returns sent tag, result, and the
    number of windows whose recovered block matches the clean frame."""
    ampdu, windows, layout = _random_frame(cfg, rng)
    tag = random_tag(len(windows), rng)
    rx = _transmit(cfg, ampdu, tag, windows, rng)
    result = demodulate_ampdu(cfg.spec, rx, windows, layout)
    truth = _ground_truth_windows(ampdu, windows, layout, cfg.spec)
    recovered = sum(
        rec.recovered_ambient == t for rec, t in zip(result.records, truth)
    )
    return tag, result, recovered


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
    for trial in range(cfg.frames):
        tag, result, recovered = _run_trial(cfg, rng)
        errors = (tag.bits ^ result.tag_bits).popcount()
        rows.append(
            {
                "trial": trial,
                "mpdus": cfg.subframes,
                "tag_bits_sent": str(tag.bits),
                "tag_bits_recovered": str(result.tag_bits),
                "tag_errors": errors,
                "ambient_recovered": recovered,
                "fcs_confirmed": sum(r.ambient_ok for r in result.records),
                "min_margin": min((r.margin for r in result.records), default=0),
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
        point_cfg = replace(
            cfg, channel=replace(cfg.channel, snr_db=float(snr_db))
        )
        rng = np.random.default_rng(point_seed(cfg.seed, float(snr_db)))
        bits = 0
        errors = 0
        for _ in range(frames):
            tag, result, _ = _run_trial(point_cfg, rng)
            bits += len(tag.bits)
            errors += (tag.bits ^ result.tag_bits).popcount()
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
            point_cfg = replace(cfg, channel=replace(cfg.channel, ber=float(value)))
        else:
            point_cfg = replace(cfg, channel=replace(cfg.channel, snr_db=float(value)))
        rng = np.random.default_rng(point_seed(cfg.seed, float(value)))
        total = 0
        recovered = 0
        for _ in range(cfg.frames):
            _, _, frame_recovered = _run_trial(point_cfg, rng)
            total += cfg.subframes
            recovered += frame_recovered
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
        point_cfg = replace(
            cfg,
            subframes=max(int(n), 1),
            channel=ChannelConfig("noiseless"),
        )
        rng = np.random.default_rng(point_seed(cfg.seed, int(n)))
        ampdu, windows, layout = _random_frame(point_cfg, rng)
        windows = windows[: int(n)]
        tag = random_tag(len(windows), rng)
        rx = _transmit(point_cfg, ampdu, tag, windows, rng)
        spec = cfg.spec
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


def write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    """Schema-stable CSV: fixed header row, LF endings, repr'd floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
