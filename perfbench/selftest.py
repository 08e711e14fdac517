"""The benchmark's own tests: python3 -m pytest perfbench/selftest.py

They run tiny benchmark runs and check that the correctness gates fire.
The file is not named test_*.py, so the program's test suite does not
collect it.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads as wls  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    table = "\n".join(lines[:-1])
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']} " in line
                   for line in table.splitlines()), m["name"]
    assert '"config"' in table


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("e2e-ref", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def program():
    return worker.import_program(str(ROOT))


def test_noiseless_stream_matches_the_program_framing(program):
    from scattersim import frames

    stream = wls.make_stream(5, 1, p=0.0)
    assert all(stream.clean_mpdus)
    spec = program[1].SPEC_PRESETS["crc32"]
    parsed = frames.parse_ampdu(stream.data, spec)
    assert [len(m.body) for m in parsed.subframes] == list(stream.body_lens)
    # The tag flips a symbol, never the checksum trailer.
    assert sum(frames.verify_fcs(m, spec) for m in parsed.subframes) == (
        len(stream.tag_bits) - sum(stream.tag_bits))


def test_rx_gate_fires_on_a_corrupted_decode(program):
    op = worker.RxOp(program, wls.WORKLOADS["rx-blind"], seed=5)
    stream = op.prepare(1)
    records = list(op(stream).records)
    assert wls.check_stream_result(stream, records) == []
    i = stream.clean_mpdus.index(True)
    for corrupt in (
        dict(tag_bit=1 - records[i].tag_bit),
        dict(ambient_ok=False),
        dict(recovered_ambient=records[i].recovered_ambient.flip_range(0, 1)),
    ):
        bad = records[:i] + [dataclasses.replace(records[i], **corrupt)] + records[i + 1:]
        assert len(wls.check_stream_result(stream, bad)) == 1, corrupt
    assert wls.check_stream_result(stream, records[:-1])


def test_worker_reports_gate_failures_from_a_corrupted_decoder(program, monkeypatch):
    demod = program[2]
    decode = demod.demodulate_blind

    def flip_first_tag_bit(*args, **kwargs):
        result = decode(*args, **kwargs)
        first = dataclasses.replace(result.records[0], tag_bit=1 - result.records[0].tag_bit)
        return dataclasses.replace(result, records=(first, *result.records[1:]))

    monkeypatch.setattr(demod, "demodulate_blind", flip_first_tag_bit)
    out = worker.run(str(ROOT), "rx-blind", 5, 0.2, False, "-")
    assert out["gate_failures"]
    assert out["failed"] == 0


def test_e2e_gates_fire():
    exact = {"mpdus": 10, "tag_errors": 0, "ambient_recovered": 10, "fcs_confirmed": 10}
    assert wls.check_noiseless_rows([exact], 1, 10) == []
    assert wls.check_noiseless_rows([dict(exact, tag_errors=1)], 1, 10)
    assert wls.check_noiseless_rows([dict(exact, fcs_confirmed=9)], 1, 10)
    assert wls.check_noiseless_rows([], 1, 10)
    q = wls.prr_model(1e-4, 64)
    assert wls.check_prr(round(q * 10_000), 10_000, 1e-4, 64) == []
    assert wls.check_prr(10_000, 10_000, 1e-4, 64)


def test_tracer_restores_the_program_and_reports_absent_names(program, monkeypatch):
    cli, crc, demod, gf2 = program
    originals = (gf2.BitVector.__matmul__, crc.fcs, demod.recover_block, cli.main)
    monkeypatch.setattr(tracer_mod, "SPAN_TARGETS", tracer_mod.SPAN_TARGETS
                        + [("crc.gone", "crc", "no_such_function")])
    t = tracer_mod.Tracer()
    t.install()
    try:
        assert gf2.BitVector.__matmul__ is not originals[0]
        assert demod.recover_block is not originals[2]
        spec = crc.SPEC_PRESETS["crc32"]
        t.run_op(1, crc.recover_block, spec, spec.init_state(), spec.init_state())
    finally:
        t.uninstall()
    assert (gf2.BitVector.__matmul__, crc.fcs, demod.recover_block, cli.main) == originals
    assert t.absent == ["crc.no_such_function"]
    self_ns, calls, work = t.self_times()
    assert calls["op"] == calls["crc.recover_block"] == 1
    assert calls["gf2.vecmat"] == 1 and work["gf2.vecmat"] == 32
    total = t.spans[0][2] - t.spans[0][1]
    assert sum(self_ns.values()) == total
