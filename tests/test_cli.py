import hashlib
import json

import pytest

from scattersim import cli
from scattersim.cli import load_config_file, main


def run(args):
    return main(args)


class TestFilePipeline:
    def test_gen_modulate_channel_demod_roundtrip(self, tmp_path, capsys):
        frame = tmp_path / "frame.hex"
        tx = tmp_path / "tx.hex"
        rx = tmp_path / "rx.hex"
        out = tmp_path / "demod.csv"
        assert run(["gen", "--seed", "3", "--subframes", "5", "--body-len", "16",
                    "--out", str(frame)]) == 0
        assert run(["modulate", "--input", str(frame), "--tag-bits", "10110",
                    "--out", str(tx)]) == 0
        assert run(["channel", "--input", str(tx), "--out", str(rx),
                    "--channel", "noiseless"]) == 0
        assert run(["demod", "--input", str(rx), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "tag_bits=10110" in captured.err
        lines = out.read_text().splitlines()
        assert lines[0] == "mpdu,tag_bit,ones_count,margin,ambient_ok,recovered_ambient"
        bits = "".join(line.split(",")[1] for line in lines[1:])
        assert bits == "10110"

    def test_binary_format(self, tmp_path):
        frame = tmp_path / "frame.bin"
        assert run(["gen", "--seed", "1", "--subframes", "2", "--body-len", "8",
                    "--format", "bin", "--out", str(frame)]) == 0
        raw = frame.read_bytes()
        assert raw[:2] == (24 + 8 + 4).to_bytes(2, "big")

    def test_random_tag_bits_from_seed(self, tmp_path, capsys):
        frame = tmp_path / "frame.hex"
        tx = tmp_path / "tx.hex"
        run(["gen", "--seed", "3", "--subframes", "4", "--body-len", "8",
             "--out", str(frame)])
        assert run(["modulate", "--input", str(frame), "--seed", "9",
                    "--out", str(tx)]) == 0
        first = capsys.readouterr().out
        run(["modulate", "--input", str(frame), "--seed", "9", "--out", str(tx)])
        assert capsys.readouterr().out == first

    def test_gen_and_modulate_bytes_are_pinned(self, tmp_path, capsys):
        # The frame and stream files of a fixed seed must not change: gen
        # and modulate draw bodies and tags through the experiment harness.
        cfg16 = tmp_path / "c16.txt"
        cfg16.write_text("bits_per_symbol=12\n")
        paths = {name: str(tmp_path / name)
                 for name in ("frame.hex", "tx.hex", "f16.bin", "t16.bin")}
        assert run(["gen", "--seed", "5", "--subframes", "3", "--body-len", "40",
                    "--out", paths["frame.hex"]]) == 0
        assert run(["modulate", "--input", paths["frame.hex"], "--seed", "8",
                    "--out", paths["tx.hex"]]) == 0
        assert run(["gen", "--seed", "5", "--subframes", "2", "--body-len", "12",
                    "--spec", "crc16-ccitt", "--format", "bin",
                    "--out", paths["f16.bin"]]) == 0
        assert run(["modulate", "--config", str(cfg16), "--spec", "crc16-ccitt",
                    "--format", "bin", "--input", paths["f16.bin"], "--seed", "2",
                    "--out", paths["t16.bin"]]) == 0
        assert capsys.readouterr().out == "tag_bits=100\ntag_bits=10\n"
        digests = {name: hashlib.sha256(open(path, "rb").read()).hexdigest()
                   for name, path in paths.items()}
        assert digests == {
            "frame.hex": "2846e3efc5e3407766dcb2a5b4c4778ab6ba2b86940cbd1279be560359dfd89f",
            "tx.hex": "6cbfb36e54789d1b13b09112ea67aba07f53b97dfb445a936a8ac133b33d7236",
            "f16.bin": "91a822b65d92f52d5e11d55eb747c1300978b790d9cd8595ba57610e046f1bba",
            "t16.bin": "4d5dd8c7649f843faddf1b4f549309722a5d854bb6e9a82d85c1d9474833c3d2",
        }


class TestParserReuse:
    def test_successive_calls_share_no_option_state(self, tmp_path, capsys):
        # The parser is built once per process; each call must still see
        # only its own flags and the declared defaults.
        frame = tmp_path / "frame.bin"
        assert run(["gen", "--seed", "1", "--subframes", "2", "--body-len", "8",
                    "--format", "bin", "--out", str(frame)]) == 0
        out = tmp_path / "e2e.csv"
        assert run(["e2e", "--frames", "2", "--subframes", "2", "--body-len", "8",
                    "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3
        hex_frame = tmp_path / "frame.hex"
        assert run(["gen", "--seed", "1", "--subframes", "2", "--body-len", "8",
                    "--out", str(hex_frame)]) == 0
        # --format fell back to hex: the same frame, written as hex text.
        assert bytes.fromhex(hex_frame.read_text()) == frame.read_bytes()
        assert run(["e2e", "--channel", "quantum"]) == 1
        assert run(["demod", "--bogus"]) == 1
        assert capsys.readouterr().err.count("config error") == 2
        assert run(["energy", "--out", str(tmp_path / "e.csv")]) == 0
        assert cli._build_parser() is cli._build_parser()


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        assert run(["energy", "--out", str(tmp_path / "e.csv")]) == 0

    def test_config_error_is_one(self, capsys):
        assert run(["e2e", "--frames", "0"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_flag_is_one(self, capsys):
        assert run(["e2e", "--channel", "quantum"]) == 1

    def test_missing_input_is_one(self, capsys):
        assert run(["demod", "--input", "/nonexistent/stream.hex"]) == 1

    def test_runtime_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "garbage.hex"
        bad.write_text("00ff00ff")
        assert run(["demod", "--input", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_hex_is_one(self, tmp_path, capsys):
        bad = tmp_path / "garbage.hex"
        bad.write_text("00ff0g")
        assert run(["demod", "--input", str(bad)]) == 1
        assert "not a hex stream" in capsys.readouterr().err

    def test_unknown_spec_is_one(self, capsys):
        assert run(["e2e", "--spec", "crc64"]) == 1


class TestEnergyCommand:
    def test_table_contents(self, tmp_path):
        out = tmp_path / "energy.csv"
        assert run(["energy", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "profile,excitor_w,tag_w,receiver_w,total_w"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert float(rows["helper-excitor"][4]) == pytest.approx(15.4, abs=0.05)
        assert float(rows["dual-receiver"][4]) == pytest.approx(10.8, abs=0.05)
        assert float(rows["single-receiver"][4]) == pytest.approx(5.4, abs=0.05)

    def test_custom_profiles(self, tmp_path):
        profiles = tmp_path / "p.json"
        profiles.write_text(
            '{"lab": {"excitor_w": 0, "tag_w": 1e-6, "receiver_w": 2.0}}'
        )
        out = tmp_path / "energy.csv"
        assert run(["energy", "--profiles", str(profiles), "--out", str(out)]) == 0
        assert "lab" in out.read_text()


class TestConfigFile:
    def test_json_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frames": 3, "subframes": 2, "body_len": 8,
                                   "seed": 4, "channel": "bsc", "ber": 0.001}))
        out = tmp_path / "e2e.csv"
        assert run(["e2e", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_key_value_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("frames=3\nsubframes=2\nbody_len=8\nseed=4\n# comment\n")
        parsed = load_config_file(str(cfg))
        assert parsed == {"frames": 3, "subframes": 2, "body_len": 8, "seed": 4}
        out = tmp_path / "e2e.csv"
        assert run(["e2e", "--config", str(cfg), "--out", str(out)]) == 0

    def test_key_value_lists(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("ber_list=0.001,0.01\nframes=5\nsubframes=2\nbody_len=8\nchannel=bsc\n")
        out = tmp_path / "prr.csv"
        assert run(["sweep-prr", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_crc_object_in_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "frames": 2, "subframes": 1, "body_len": 8,
            "crc": {"width": 32, "poly": "0x04C11DB7", "init": "0xFFFFFFFF",
                    "final": "0xFFFFFFFF", "reflected": True},
        }))
        out = tmp_path / "e2e.csv"
        assert run(["e2e", "--config", str(cfg), "--out", str(out)]) == 0

    def test_malformed_line_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("frames 3\n")
        assert run(["e2e", "--config", str(cfg)]) == 1

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frames": 100, "subframes": 2, "body_len": 8}))
        out = tmp_path / "e2e.csv"
        assert run(["e2e", "--config", str(cfg), "--frames", "2",
                    "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3


class TestSweepCommands:
    def test_sweep_prr_defaults_to_bsc(self, tmp_path):
        out = tmp_path / "prr.csv"
        assert run(["sweep-prr", "--frames", "5", "--subframes", "2",
                    "--body-len", "8", "--ber-list", "0.001", "--out", str(out)]) == 0
        assert out.read_text().startswith("ber_or_snr,prr,mpdus,recovered")

    def test_timing_csv(self, tmp_path):
        out = tmp_path / "timing.csv"
        assert run(["timing", "--tag-counts", "1", "2", "--reps", "2",
                    "--body-len", "8", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n_tag_bits,crc_reverse_ns,brute_force_ns"
        assert len(lines) == 3
