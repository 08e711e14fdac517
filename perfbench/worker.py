"""One measured process of the benchmark; run.py starts it, fresh each time.

  worker.py setup ROOT WORKLOAD SEED [STREAM_FILE]
      Time import plus the first completed frame or stream.
  worker.py run ROOT WORKLOAD SEED SECONDS TRACE SPANS_FILE
      One warm-up operation, then a closed loop of timed operations until
      SECONDS of operation time, at the reference host speed, are measured.

Prints one JSON object on its last stdout line. Correctness gates that fail
are listed under "gate_failures"; they do not change the exit code.
"""
import time

import hostspeed

KERNEL_AT_START = hostspeed.time_kernel()
T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wls  # noqa: E402  (stdlib only at import time)
from tracer import SELF_TIME_METRICS, Tracer  # noqa: E402

# A run measures SECONDS of operation time at the reference host speed, so
# the amount of work, and with it how warm rx-blind's caches get, does not
# depend on how fast the host happens to be. On a slow host the wall time
# grows; it is capped at this multiple of SECONDS.
WALL_LIMIT_FACTOR = 2.5


def import_program(root: str):
    """scattersim's modules, imported from the checkout's ``src``."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import scattersim
    if not os.path.realpath(scattersim.__file__).startswith(os.path.realpath(src)):
        raise SystemExit(f"scattersim imported from {scattersim.__file__}, not {src}")
    from scattersim import cli, crc, demod, gf2
    return cli, crc, demod, gf2


class E2eOp:
    """One in-process ``scattersim e2e`` call writing its CSV to a scratch file.
    The warm-up call runs one noiseless frame."""

    def __init__(self, program, wl: wls.Workload, seed: int, csv_path: str):
        self.cli = program[0]
        self.wl, self.seed, self.csv_path = wl, seed, csv_path

    def prepare(self, index: int):
        noiseless = index == wls.WARMUP
        frames = 1 if noiseless else self.wl.frames_per_op
        return frames, wls.e2e_argv(self.wl, wls.op_seed(self.seed, self.wl.name, index),
                                    self.csv_path, frames, noiseless)

    def __call__(self, prepared):
        rc = self.cli.main(prepared[1])
        if rc != 0:
            raise RuntimeError(f"scattersim e2e exited {rc}")

    def check(self, index: int, prepared, _result) -> tuple[dict, list[str]]:
        frames = prepared[0]
        rows = wls.read_e2e_csv(self.csv_path)
        if index == wls.WARMUP:
            gates = wls.check_noiseless_rows(rows, frames, self.wl.subframes)
        elif len(rows) != frames:
            gates = [f"{len(rows)} CSV rows for {frames} frames"]
        else:
            gates = []
        return {"mpdus": sum(r["mpdus"] for r in rows),
                "ambient_ok": sum(r["fcs_confirmed"] for r in rows),
                "recovered": sum(r["ambient_recovered"] for r in rows)}, gates

    def close(self, totals: dict) -> list[str]:
        """Remove the scratch CSV; gate the ambient PRR of the timed calls."""
        if os.path.exists(self.csv_path):
            os.remove(self.csv_path)
        if not totals["mpdus"]:
            return []
        return wls.check_prr(totals["recovered"], totals["mpdus"], self.wl.p,
                             self.wl.body_len)


class RxOp:
    """``scattersim demod`` on one received stream: unpack, then blind decode."""

    def __init__(self, program, wl: wls.Workload, seed: int):
        _, self.crc, self.demod, self.gf2 = program
        self.wl, self.seed = wl, seed

    def prepare(self, index: int) -> wls.Stream:
        return wls.make_stream(self.seed, index, self.wl.subframes, self.wl.p)

    def decode(self, data: bytes):
        bits = self.gf2.BitVector.from_bytes(data, lsb_first=True)
        return self.demod.demodulate_blind(self.crc.SPEC_PRESETS["crc32"], bits)

    def __call__(self, stream: wls.Stream):
        return self.decode(stream.data)

    def check(self, _index: int, stream: wls.Stream, result) -> tuple[dict, list[str]]:
        records = result.records
        return {"mpdus": len(records), "ambient_ok": sum(r.ambient_ok for r in records),
                "recovered": 0}, wls.check_stream_result(stream, records)

    def close(self, _totals: dict) -> list[str]:
        return []


def setup(root: str, name: str, seed: int, stream_file: str = "") -> dict:
    """Fresh process to first completed frame or stream: import plus lazy set-up."""
    wl = wls.WORKLOADS[name]
    if wl.kind == "rx":
        data = Path(stream_file).read_bytes()
        op = RxOp(import_program(root), wl, seed)
        result = op.decode(data)
        raw_s = time.perf_counter() - T_START
        _, gates = op.check(wls.WARMUP, op.prepare(wls.WARMUP), result)
    else:
        csv_path = os.path.join(root, wls.OUT_DIR, f"setup-{os.getpid()}.csv")
        op = E2eOp(import_program(root), wl, seed, csv_path)
        prepared = op.prepare(wls.WARMUP)
        op(prepared)
        raw_s = time.perf_counter() - T_START
        _, gates = op.check(wls.WARMUP, prepared, None)
        op.close({"mpdus": 0})
    scale = hostspeed.scale(KERNEL_AT_START, hostspeed.time_kernel())
    return {"setup_s": raw_s * scale, "raw_setup_s": raw_s, "gate_failures": gates}


def run(root: str, name: str, seed: int, seconds: float, trace: bool,
        spans_file: str) -> dict:
    """Warm-up operation, then a closed loop of timed operations."""
    wl = wls.WORKLOADS[name]
    program = import_program(root)
    crc = program[1]
    if wl.kind == "rx":
        op = RxOp(program, wl, seed)
    else:
        op = E2eOp(program, wl, seed,
                   os.path.join(root, wls.OUT_DIR, f"run-{os.getpid()}.csv"))

    prepared = op.prepare(wls.WARMUP)
    _, gates = op.check(wls.WARMUP, prepared, op(prepared))

    tracer = Tracer() if trace else None
    misses0 = _misses(crc)
    if tracer:
        tracer.install()
    out = {"op_s": [], "raw_op_s": [], "op_mpdus": [], "kernel_s": [], "failed": 0}
    totals = {"mpdus": 0, "ambient_ok": 0, "recovered": 0}
    clock = time.perf_counter
    kernel_before = hostspeed.time_kernel()
    measured = 0.0
    wall_deadline = clock() + WALL_LIMIT_FACTOR * seconds
    index = wls.WARMUP
    try:
        while measured < seconds and clock() < wall_deadline:
            index += 1
            prepared = op.prepare(index)
            t0 = clock()
            try:
                result = tracer.run_op(index, op, prepared) if tracer else op(prepared)
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                out["failed"] += 1
                measured += clock() - t0
                if out["failed"] <= 5:
                    print(f"operation {index}: {exc!r}", file=sys.stderr)
                continue
            raw = clock() - t0
            kernel_after = hostspeed.time_kernel()
            counts, errors = op.check(index, prepared, result)
            gates += [f"operation {index}: {e}" for e in errors]
            out["op_s"].append(raw * hostspeed.scale(kernel_before, kernel_after))
            measured += out["op_s"][-1]
            out["raw_op_s"].append(raw)
            out["kernel_s"].append(kernel_after)
            out["op_mpdus"].append(counts["mpdus"])
            for key in totals:
                totals[key] += counts[key]
            kernel_before = kernel_after
    finally:
        if tracer:
            tracer.uninstall()
    gates += op.close(totals)
    out["gate_failures"] = gates
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        out["layers"] = _layers(tracer, crc, totals, _misses(crc) - misses0,
                                out["kernel_s"])
        out["absent"] = tracer.absent
        tracer.write(spans_file)
    return out


def _cached_matrices(crc) -> int:
    return sum(f.cache_info().currsize for f in vars(crc).values()
               if hasattr(f, "cache_info"))


def _misses(crc) -> int:
    gm = getattr(crc, "generator_matrix", None)
    return gm.cache_info().misses if hasattr(gm, "cache_info") else 0


def _layers(tracer, crc, totals: dict, misses: int, kernel_s: list[float]) -> dict:
    """Per-layer metrics of a traced run, per MPDU unless noted. Times are
    at the reference host speed, scaled by the run's median kernel time."""
    self_ns, calls, work = tracer.self_times()
    per = max(totals["mpdus"], 1)
    kernel_s = sorted(kernel_s) or [hostspeed.KERNEL_REF_S]
    scale = hostspeed.KERNEL_REF_S / kernel_s[len(kernel_s) // 2]
    fcs_bytes = work.get("crc.fcs", 0) / 8
    layers = {
        "gf2.vecmat_calls": calls.get("gf2.vecmat", 0) / per,
        "gf2.vecmat_bits": work.get("gf2.vecmat", 0) / per,
        "crc.fcs_ns_per_byte":
            self_ns.get("crc.fcs", 0) * scale / fcs_bytes if fcs_bytes else 0.0,
        "crc.generator_matrix_misses": misses,
        "crc.cached_matrices": _cached_matrices(crc),
        "frames.layout_calls": tracer.counts.get("frames.layout_calls", 0) / per,
        "demod.ambient_ok_frac": totals["ambient_ok"] / per,
    }
    for metric, group in SELF_TIME_METRICS.items():
        layers[metric] = self_ns.get(group, 0) * scale / 1e3 / per
    return layers


def main(argv: list[str]) -> int:
    mode, root, name, seed = argv[0], argv[1], argv[2], int(argv[3])
    if mode == "setup":
        result = setup(root, name, seed, *argv[4:5])
    else:
        result = run(root, name, seed, float(argv[4]), argv[5] == "1", argv[6])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
