"""Command-line front end: file-level codec tools and experiment harnesses.

Subcommands: gen, modulate, channel, demod, e2e, sweep-ber, sweep-prr,
timing, energy. Config precedence is defaults < --config file < explicit
flags; all randomness flows from --seed. Exit codes: 0 success, 1 config
error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .crc import SPEC_PRESETS, CrcSpec, spec_from_config
from .demod import demodulate_blind
from .experiments import (
    BER_FIELDS,
    E2E_FIELDS,
    PRR_FIELDS,
    TIMING_FIELDS,
    ConfigError,
    ExperimentConfig,
    random_ampdu,
    random_tag,
    run_ber_sweep,
    run_e2e,
    run_prr_sweep,
    run_timing,
    write_csv,
)
from .frames import (
    SymbolMap,
    WindowPolicy,
    bits_to_bytes,
    locate_windows,
    parse_ampdu,
    serialize_ampdu,
)
from .gf2 import BitVector
from .power import load_profiles, total_power
from .tagsim import ChannelConfig, TagPayload, apply_channel, modulate

import numpy as np


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _read_stream(path: str, fmt: str) -> bytes:
    if fmt == "hex":
        with open(path) as fh:
            text = "".join(fh.read().split())
        try:
            return bytes.fromhex(text)
        except ValueError as exc:
            raise ConfigError(f"{path} is not a hex stream: {exc}") from exc
    with open(path, "rb") as fh:
        return fh.read()


def _write_stream(path: str, data: bytes, fmt: str) -> None:
    if fmt == "hex":
        with open(path, "w") as fh:
            fh.write(data.hex())
            fh.write("\n")
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        if "," in text:
            return [_parse_value(part) for part in text.split(",") if part]
        return text


def load_config_file(path: str) -> dict:
    """JSON object, or key=value lines with JSON-ish scalar/list values."""
    with open(path) as fh:
        content = fh.read()
    stripped = content.lstrip()
    if stripped.startswith("{"):
        cfg = json.loads(content)
        if not isinstance(cfg, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        return cfg
    cfg = {}
    for lineno, line in enumerate(content.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        cfg[key.strip()] = _parse_value(value.strip())
    return cfg


def _resolve_spec(args, cfg: dict) -> CrcSpec:
    if getattr(args, "spec", None):
        name = args.spec
    elif "crc" in cfg:
        return spec_from_config(cfg["crc"])
    else:
        name = cfg.get("spec", "crc32")
    if name not in SPEC_PRESETS:
        raise ConfigError(
            f"unknown crc profile {name!r}; choose from {sorted(SPEC_PRESETS)}"
        )
    return SPEC_PRESETS[name]


def _resolve_channel(args, cfg: dict) -> ChannelConfig:
    mode = getattr(args, "channel", None) or cfg.get("channel", "noiseless")
    ber = getattr(args, "ber", None)
    if ber is None:
        ber = cfg.get("ber", 0.0)
    snr_db = getattr(args, "snr_db", None)
    if snr_db is None:
        snr_db = cfg.get("snr_db", 0.0)
    try:
        return ChannelConfig(mode=mode, ber=float(ber), snr_db=float(snr_db))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _as_tuple(value, cast) -> tuple:
    if isinstance(value, (int, float, str)):
        value = [value]
    return tuple(cast(v) for v in value)


# (field, flag, config key, cast) of each value a flag or the config file
# may set; a value that neither sets keeps the default its class declares.
_EXPERIMENT_FIELDS = [
    (name, name, name, int)
    for name in (
        "frames", "subframes", "body_len", "header_len", "seed", "reps", "brute_cap"
    )
] + [
    ("snr_db_list", "snr_list", "snr_db_list", lambda v: _as_tuple(v, float)),
    ("ber_list", "ber_list", "ber_list", lambda v: _as_tuple(v, float)),
    ("tag_bit_counts", "tag_counts", "tag_bit_counts", lambda v: _as_tuple(v, int)),
]
_SYMBOL_FIELDS = (
    ("bits_per_symbol", None, "bits_per_symbol", int),
    ("origin", None, "symbol_origin", int),
)
_POLICY_FIELDS = (("eligible_index", None, "window_policy", int),)


def build_experiment_config(args, cfg: dict) -> ExperimentConfig:
    """Explicit flags over the config file over the class defaults."""

    def given(fields) -> dict:
        out = {}
        for name, flag, key, cast in fields:
            value = getattr(args, flag, None) if flag else None
            if value is None:
                value = cfg.get(key)
            if value is not None:
                out[name] = cast(value)
        return out

    try:
        return ExperimentConfig(
            channel=_resolve_channel(args, cfg),
            spec=_resolve_spec(args, cfg),
            symbol_map=SymbolMap(**given(_SYMBOL_FIELDS)),
            policy=WindowPolicy(**given(_POLICY_FIELDS)),
            **given(_EXPERIMENT_FIELDS),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_gen(args, cfg):
    ecfg = build_experiment_config(args, cfg)
    if not args.out:
        raise ConfigError("gen needs --out <frame file>")
    ampdu = random_ampdu(ecfg, np.random.default_rng(ecfg.seed))
    _write_stream(args.out, serialize_ampdu(ampdu, ecfg.spec), args.format)
    return 0


def _cmd_modulate(args, cfg):
    ecfg = build_experiment_config(args, cfg)
    if not args.input or not args.out:
        raise ConfigError("modulate needs --input <frame file> and --out <stream file>")
    data = _read_stream(args.input, args.format)
    ampdu = parse_ampdu(data, ecfg.spec, ecfg.header_len)
    windows = locate_windows(ampdu, ecfg.spec, ecfg.symbol_map, ecfg.policy)
    if args.tag_bits is not None:
        tag = TagPayload(BitVector.from_bits(args.tag_bits))
    else:
        tag = random_tag(len(windows), np.random.default_rng(ecfg.seed))
    tx = modulate(ampdu, tag, windows, ecfg.spec)
    _write_stream(args.out, bits_to_bytes(tx, ecfg.spec), args.format)
    print(f"tag_bits={tag.bits}")
    return 0


def _cmd_channel(args, cfg):
    ecfg = build_experiment_config(args, cfg)
    if not args.input or not args.out:
        raise ConfigError("channel needs --input and --out stream files")
    data = _read_stream(args.input, args.format)
    bits = BitVector.from_bytes(data, lsb_first=ecfg.spec.reflected)
    channel = ChannelConfig(
        mode=ecfg.channel.mode,
        ber=ecfg.channel.ber,
        snr_db=ecfg.channel.snr_db,
        seed=ecfg.seed,
    )
    out = apply_channel(bits, channel)
    _write_stream(args.out, bits_to_bytes(out, ecfg.spec), args.format)
    return 0


DEMOD_FIELDS = [
    "mpdu",
    "tag_bit",
    "ones_count",
    "margin",
    "ambient_ok",
    "recovered_ambient",
]


def _cmd_demod(args, cfg):
    ecfg = build_experiment_config(args, cfg)
    if not args.input:
        raise ConfigError("demod needs --input <stream file>")
    data = _read_stream(args.input, args.format)
    bits = BitVector.from_bytes(data, lsb_first=ecfg.spec.reflected)
    result = demodulate_blind(
        ecfg.spec, bits, ecfg.symbol_map, ecfg.policy, ecfg.header_len
    )
    rows = [
        {
            "mpdu": rec.mpdu_index,
            "tag_bit": rec.tag_bit,
            "ones_count": rec.ones_count,
            "margin": rec.margin,
            "ambient_ok": int(rec.ambient_ok),
            "recovered_ambient": str(rec.recovered_ambient),
        }
        for rec in result.records
    ]
    write_csv(args.out or sys.stdout, DEMOD_FIELDS, rows)
    print(f"tag_bits={result.tag_bits}", file=sys.stderr)
    return 0


def _cmd_e2e(args, cfg):
    ecfg = build_experiment_config(args, cfg)
    write_csv(args.out or sys.stdout, E2E_FIELDS, run_e2e(ecfg))
    return 0


def _cmd_sweep_ber(args, cfg):
    if getattr(args, "channel", None) is None and "channel" not in cfg:
        cfg = dict(cfg, channel="awgn")
    ecfg = build_experiment_config(args, cfg)
    write_csv(args.out or sys.stdout, BER_FIELDS, run_ber_sweep(ecfg))
    return 0


def _cmd_sweep_prr(args, cfg):
    if getattr(args, "channel", None) is None and "channel" not in cfg:
        cfg = dict(cfg, channel="bsc")
    ecfg = build_experiment_config(args, cfg)
    write_csv(args.out or sys.stdout, PRR_FIELDS, run_prr_sweep(ecfg))
    return 0


def _cmd_timing(args, cfg):
    ecfg = build_experiment_config(args, cfg)
    write_csv(args.out or sys.stdout, TIMING_FIELDS, run_timing(ecfg))
    return 0


ENERGY_FIELDS = ["profile", "excitor_w", "tag_w", "receiver_w", "total_w"]


def _cmd_energy(args, cfg):
    profiles = load_profiles(args.profiles or cfg.get("profiles"))
    rows = [
        {
            "profile": name,
            "excitor_w": repr(p.excitor_w),
            "tag_w": repr(p.tag_w),
            "receiver_w": repr(p.receiver_w),
            "total_w": repr(total_power(p)),
        }
        for name, p in sorted(profiles.items())
    ]
    write_csv(args.out or sys.stdout, ENERGY_FIELDS, rows)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "modulate": _cmd_modulate,
    "channel": _cmd_channel,
    "demod": _cmd_demod,
    "e2e": _cmd_e2e,
    "sweep-ber": _cmd_sweep_ber,
    "sweep-prr": _cmd_sweep_prr,
    "timing": _cmd_timing,
    "energy": _cmd_energy,
}


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, and building it costs milliseconds."""
    parser = _Parser(prog="scattersim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="config file (JSON or key=value lines)")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output CSV / stream path")
        p.add_argument("--spec", help="crc profile name (crc32, crc16-ccitt, crc8)")
        p.add_argument("--channel", choices=("noiseless", "bsc", "awgn"))
        p.add_argument("--ber", type=float)
        p.add_argument("--snr-db", dest="snr_db", type=float)
        p.add_argument("--frames", type=int)
        p.add_argument("--subframes", type=int)
        p.add_argument("--body-len", dest="body_len", type=int)
        p.add_argument("--header-len", dest="header_len", type=int)
        p.add_argument("--format", choices=("hex", "bin"), default="hex")
        p.add_argument("--input", help="input frame/stream file")
        p.add_argument("--tag-bits", dest="tag_bits", help="explicit tag bit string")
        p.add_argument("--snr-list", dest="snr_list", type=float, nargs="+")
        p.add_argument("--ber-list", dest="ber_list", type=float, nargs="+")
        p.add_argument("--tag-counts", dest="tag_counts", type=int, nargs="+")
        p.add_argument("--reps", type=int)
        p.add_argument("--brute-cap", dest="brute_cap", type=int)
        p.add_argument("--profiles", help="power profile JSON path")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config_file(args.config) if args.config else {}
        return _COMMANDS[args.command](args, cfg)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
