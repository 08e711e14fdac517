"""Workload definitions, input generation and correctness gates.

Every workload uses crc32, the 802.11 FCS. The rx-blind streams are built
here from numpy payloads, ``zlib.crc32`` trailers and an independent copy of
the 26-bit symbol-grid window rule, without calling scattersim, so that no
change to the program can change the inputs it is measured on.
"""
from __future__ import annotations

import csv
import hashlib
import math
import zlib
from dataclasses import dataclass

HEADER_LEN = 24
DELIMITER_LEN = 2
FCS_LEN = 4
BITS_PER_SYMBOL = 26
WINDOW_BITS = 32
PRR_SIGMAS = 5.0
OUT_DIR = ".perfbench_out"  # scratch files and spans, relative to the checkout
WARMUP = 0  # index of the warm-up operation; timed operations follow it


@dataclass(frozen=True)
class Workload:
    """One benchmark load. ``kind`` is "e2e" (the ``scattersim e2e`` command
    run in-process) or "rx" (the blind receive path on generated streams)."""

    name: str
    kind: str
    subframes: int
    p: float
    body_len: int = 0
    frames_per_op: int = 1

    def config(self) -> dict:
        cfg = {"kind": self.kind, "spec": "crc32", "subframes": self.subframes,
               "bsc_p": self.p}
        if self.kind == "e2e":
            cfg.update(body_len=self.body_len, frames_per_op=self.frames_per_op)
        else:
            cfg.update(body_len=f"{SMALL_BODY[0]}-{SMALL_BODY[1]} or "
                                f"{LARGE_BODY[0]}-{LARGE_BODY[1]} (half each)")
        return cfg


# Bimodal body lengths, like real WiFi traffic: short control/ack-sized
# frames and near-MTU data frames, half of each in every stream.
SMALL_BODY = (40, 120)
LARGE_BODY = (1400, 1500)

WORKLOADS = {
    # The ROADMAP reference load: short frames of fixed geometry, so
    # per-MPDU fixed costs (locate, tagsim, harness, CSV) weigh most.
    "e2e-ref": Workload("e2e-ref", "e2e", subframes=10, p=1e-4, body_len=64,
                        frames_per_op=20),
    # Near-MTU frames: per-bit costs (FCS, bracketing) dominate.
    "e2e-mtu": Workload("e2e-mtu", "e2e", subframes=10, p=1e-5, body_len=1500,
                        frames_per_op=1),
    # Receive path only; geometries keep changing, so per-length caches miss.
    "rx-blind": Workload("rx-blind", "rx", subframes=16, p=1e-5),
}


def op_seed(seed: int, workload: str, index: int) -> int:
    """Deterministic 63-bit seed for operation ``index`` of a run."""
    digest = hashlib.blake2b(f"{workload}:{seed}:{index}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big") >> 1


# ---------------------------------------------------------------- e2e ----

def e2e_argv(wl: Workload, seed: int, out_csv: str, frames: int,
             noiseless: bool) -> list[str]:
    """Arguments of one ``scattersim e2e`` call."""
    channel = ["--channel", "noiseless"] if noiseless else [
        "--channel", "bsc", "--ber", repr(wl.p)]
    return ["e2e", "--spec", "crc32", "--subframes", str(wl.subframes),
            "--body-len", str(wl.body_len), "--frames", str(frames),
            "--seed", str(seed), "--out", out_csv, *channel]


def read_e2e_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: int(v) for k, v in row.items()
                 if k in ("mpdus", "tag_errors", "ambient_recovered", "fcs_confirmed")}
                for row in csv.DictReader(fh)]


def check_noiseless_rows(rows: list[dict], frames: int, subframes: int) -> list[str]:
    """Gate: a noiseless frame decodes exactly."""
    if len(rows) != frames:
        return [f"noiseless e2e: {len(rows)} CSV rows for {frames} frames"]
    errors = []
    for i, r in enumerate(rows):
        if not (r["mpdus"] == subframes and r["tag_errors"] == 0
                and r["ambient_recovered"] == r["fcs_confirmed"] == r["mpdus"]):
            errors.append(f"noiseless e2e frame {i}: {r}")
    return errors


def prr_model(p: float, body_len: int) -> float:
    """Analytic ambient PRR: every bit outside the recovery window is clean.

    Content plus FCS minus the width-32 window is (header + body) * 8 bits.
    """
    return (1.0 - p) ** ((HEADER_LEN + body_len) * 8)


def check_prr(recovered: int, mpdus: int, p: float, body_len: int) -> list[str]:
    """Gate: measured ambient PRR within PRR_SIGMAS binomial sigmas of the model."""
    q = prr_model(p, body_len)
    sigma = math.sqrt(q * (1.0 - q) / mpdus)
    prr = recovered / mpdus
    if abs(prr - q) > PRR_SIGMAS * sigma:
        return [f"ambient PRR {prr:.5f} over {mpdus} MPDUs is outside "
                f"{q:.5f} +- {PRR_SIGMAS:g} sigma ({sigma:.5f})"]
    return []


# ----------------------------------------------------------- rx-blind ----

@dataclass(frozen=True)
class Stream:
    """A received A-MPDU stream and what the sender and channel did to it."""

    data: bytes
    body_lens: tuple[int, ...]
    tag_bits: tuple[int, ...]
    clean_windows: tuple[int, ...]   # 32-bit clean window, first bit as MSB
    clean_mpdus: tuple[bool, ...]    # no channel flip in the MPDU's bits


def make_stream(seed: int, index: int, subframes: int = 16, p: float = 1e-5) -> Stream:
    """Stream ``index`` of run ``seed``; the same pair gives the same bytes.

    Bits are in register processing order: LSB-first within each byte, as
    the reflected crc32 consumes them. The tag flips the first 26-bit symbol
    (grid origin at the stream's first bit) that lies inside the body with
    room for a 32-bit recovery window. Channel flips spare the delimiters:
    a corrupted delimiter makes the stream unparseable, which is a framing
    failure rather than decode work.
    """
    import numpy as np

    rng = np.random.default_rng([seed, index])
    large = rng.permutation(np.arange(subframes) % 2)
    small_lens = rng.integers(SMALL_BODY[0], SMALL_BODY[1] + 1, subframes)
    large_lens = rng.integers(LARGE_BODY[0], LARGE_BODY[1] + 1, subframes)
    body_lens = tuple(int(n) for n in np.where(large == 1, large_lens, small_lens))
    tag_bits = tuple(int(b) for b in rng.integers(0, 2, subframes))

    parts = []
    mpdu_spans = []      # (first bit, end bit) of each MPDU
    window_starts = []
    delimiter_bits = []
    pos = 0
    for body_len in body_lens:
        content = rng.bytes(HEADER_LEN + body_len)
        mpdu = content + zlib.crc32(content).to_bytes(FCS_LEN, "little")
        unit = len(mpdu).to_bytes(DELIMITER_LEN, "big") + mpdu
        unit += bytes(-len(unit) % 4)
        delimiter_bits.append(pos * 8)
        start = (pos + DELIMITER_LEN) * 8
        body_start = start + HEADER_LEN * 8
        symbol = -(-body_start // BITS_PER_SYMBOL)
        window_starts.append(symbol * BITS_PER_SYMBOL)
        mpdu_spans.append((start, start + len(mpdu) * 8))
        parts.append(unit)
        pos += len(unit)

    clean = np.unpackbits(np.frombuffer(b"".join(parts), np.uint8), bitorder="little")
    weights = 1 << np.arange(WINDOW_BITS - 1, -1, -1, dtype=np.int64)
    clean_windows = tuple(int(clean[s : s + WINDOW_BITS] @ weights) for s in window_starts)

    rx = clean.copy()
    for bit, s in zip(tag_bits, window_starts):
        if bit:
            rx[s : s + BITS_PER_SYMBOL] ^= 1
    flips = rng.random(len(rx)) < p
    for d in delimiter_bits:
        flips[d : d + DELIMITER_LEN * 8] = False
    rx ^= flips
    clean_mpdus = tuple(not flips[a:b].any() for a, b in mpdu_spans)
    return Stream(
        data=np.packbits(rx, bitorder="little").tobytes(),
        body_lens=body_lens,
        tag_bits=tag_bits,
        clean_windows=clean_windows,
        clean_mpdus=clean_mpdus,
    )


def check_stream_result(stream: Stream, records) -> list[str]:
    """Gate: every MPDU the channel left clean decodes to the sent tag bit
    and the clean window, with ``ambient_ok``."""
    if len(records) != len(stream.body_lens):
        return [f"{len(records)} records for {len(stream.body_lens)} MPDUs"]
    errors = []
    for i, rec in enumerate(records):
        if not stream.clean_mpdus[i]:
            continue
        want = format(stream.clean_windows[i], f"0{WINDOW_BITS}b")
        if (rec.tag_bit != stream.tag_bits[i] or str(rec.recovered_ambient) != want
                or not rec.ambient_ok):
            errors.append(
                f"MPDU {i}: tag {rec.tag_bit} (sent {stream.tag_bits[i]}), "
                f"ambient_ok {rec.ambient_ok}, window "
                f"{'ok' if str(rec.recovered_ambient) == want else 'wrong'}")
    return errors
