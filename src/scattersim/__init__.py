"""WiFi backscatter link simulator with single-receiver checksum-reversal decoding."""

from .gf2 import BitMatrix, BitVector, DimensionError, SingularMatrixError
from .crc import (
    CRC8,
    CRC16_CCITT,
    CRC32_FCS,
    SPEC_PRESETS,
    CrcSpec,
    crc_forward,
    decompose_check,
    fcs,
    generator_matrix,
    recover_block,
    register_run,
    spec_from_config,
    state_transition,
    state_transition_inverse,
)
from .frames import (
    Ampdu,
    FrameParseError,
    ModulationWindow,
    Mpdu,
    SymbolMap,
    WindowPolicy,
    aggregate,
    ampdu_layout,
    build_mpdu,
    locate_window,
    locate_windows,
    parse_ampdu,
    serialize_ampdu,
    serialize_bits,
    verify_fcs,
)
from .tagsim import ChannelConfig, TagPayload, apply_channel, modulate, snr_to_ber
from .demod import (
    CrcCollisionError,
    DemodResult,
    UndecodableError,
    WindowRecord,
    brute_force_demodulate,
    demodulate_ampdu,
    demodulate_blind,
    demodulate_mpdu,
)
from .power import (
    ACTIVE_RADIO_W,
    DEFAULT_PROFILES,
    PowerProfile,
    load_profiles,
    tag_power_ratio,
    total_power,
    transceiver_energy,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    run_ber_sweep,
    run_e2e,
    run_prr_sweep,
    run_timing,
)

__version__ = "0.1.0"
