"""Parametric CRC register engine and its exact algebraic structure.

The register update is affine over GF(2): running n data bits from state s
lands on ``state_transition(s, n) ^ (data @ generator_matrix(n))``, where
the first term is the data-independent zero-input evolution and the second
collects each data bit's impulse response. Because the n = R generator
matrix is invertible for any polynomial with a constant term, an unknown
R-bit block is recoverable from the register states that bracket it; that
single fact powers the whole demodulator.

The engine has two register operations. A forward run, with data or
over zeros, is linear-time: one byte table for whole bytes and the
bit-serial rule for the bits that do not fill a byte. A rewind runs only
over zeros and is logarithmic: square-and-multiply over cached powers of
the zero-input step, each stored as byte tables. The demodulator needs
just that: a frame's residue (``residue``, one ``register_run``) rewound
over the bits after its recovery window, then the block solve.
``syndrome_map`` folds the rewind and the solve into one width x width
map per window position, which the batched experiments apply. Generator
matrices exist for the block solve and the algebra's tests, never for
stepping.

All register math runs MSB-first (left-shift register). The ``reflected``
flag only changes bit mapping at the fcs() value boundary, inside
register_run's stdlib branch and at frame serialization; it never leaks
into the algebra.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache

from .gf2 import BitMatrix, BitVector, SingularMatrixError


@dataclass(frozen=True)
class CrcSpec:
    """Shift-register CRC definition.

    ``poly`` holds the generator polynomial coefficients below the implicit
    leading x^width term, in the usual hex convention (int bit k = a_k).
    ``reflected`` selects wire conformance where bytes enter the register
    LSB-first and the checksum value is bit-reversed, as 802.11 does.
    """

    width: int
    poly: int
    init_xor: int
    final_xor: int
    reflected: bool = False

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        for name in ("poly", "init_xor", "final_xor"):
            value = getattr(self, name)
            if value < 0 or value >> self.width:
                raise ValueError(f"{name} {value:#x} does not fit in {self.width} bits")

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    def init_state(self) -> BitVector:
        return BitVector(self.init_xor, self.width)

    def final_vector(self) -> BitVector:
        return BitVector(self.final_xor, self.width)


# 802.11 FCS: CRC-32 with all-ones pre/post conditioning, reflected on the wire.
CRC32_FCS = CrcSpec(32, 0x04C11DB7, 0xFFFFFFFF, 0xFFFFFFFF, reflected=True)
CRC16_CCITT = CrcSpec(16, 0x1021, 0xFFFF, 0x0000, reflected=False)
CRC8 = CrcSpec(8, 0x07, 0x00, 0x00, reflected=False)

SPEC_PRESETS = {
    "crc32": CRC32_FCS,
    "crc16-ccitt": CRC16_CCITT,
    "crc8": CRC8,
}


def spec_from_config(cfg: dict) -> CrcSpec:
    """Build a CrcSpec from config mapping {width, poly, init, final, reflected}.

    poly/init/final accept ints or hex strings.
    """

    def as_int(v) -> int:
        return int(v, 0) if isinstance(v, str) else int(v)

    try:
        return CrcSpec(
            width=int(cfg["width"]),
            poly=as_int(cfg["poly"]),
            init_xor=as_int(cfg.get("init", 0)),
            final_xor=as_int(cfg.get("final", 0)),
            reflected=bool(cfg.get("reflected", False)),
        )
    except KeyError as exc:
        raise ValueError(f"crc config missing required key {exc}") from exc


def _step_bits(width: int, poly: int, reg: int, data: int, n: int) -> int:
    """Bit-serial register rule over the n low bits of data, MSB first."""
    mask = (1 << width) - 1
    shift_out = width - 1
    for i in range(n - 1, -1, -1):
        if ((reg >> shift_out) ^ (data >> i)) & 1:
            reg = ((reg << 1) ^ poly) & mask
        else:
            reg = (reg << 1) & mask
    return reg


def _unstep_bits(width: int, poly: int, reg: int, n: int) -> int:
    """Exact inverse of _step_bits over n zero bits."""
    top = width - 1
    for _ in range(n):
        if reg & 1:
            reg = ((reg ^ poly) >> 1) | (1 << top)
        else:
            reg >>= 1
    return reg


@lru_cache(maxsize=16)
def _forward_table(width: int, poly: int) -> tuple[int, ...]:
    """Byte table of the register (Sarwate, CACM 1988), cached per (width, poly).

    Entry b is the register after running byte b from the zero state.
    """
    return tuple(_step_bits(width, poly, 0, b, 8) for b in range(256))


def _run_forward(width: int, poly: int, reg: int, data: int, n: int) -> int:
    """Raw register evolution over n MSB-first data bits, in O(n).

    Whole bytes go through the forward table; the n % 8 bits that do not
    fill a byte are stepped bit-serially at the end.
    """
    forward = _forward_table(width, poly)
    mask = (1 << width) - 1
    tail = n % 8
    for byte in (data >> tail).to_bytes(n // 8, "big"):
        reg <<= 8
        reg = (reg & mask) ^ forward[(reg >> width) ^ byte]
    return _step_bits(width, poly, reg, data & 0xFF, tail)


def _apply_linear(tables: tuple[tuple[int, ...], ...], reg: int) -> int:
    """A linear register map stored as one lookup table per register byte."""
    out = 0
    for table in tables:
        out ^= table[reg & 0xFF]
        reg >>= 8
    return out


@lru_cache(maxsize=64)
def _zero_rewind_power(width: int, poly: int, k: int) -> tuple[tuple[int, ...], ...]:
    """A^(-8·2^k), the rewind over 8·2^k zero bits, as per-byte tables.

    The map is linear, so it is stored as ceil(width/8) tables, low
    register byte first, each built from the images of its byte's basis
    bits. Level 0 takes each image from eight bit-serial zero un-steps;
    level k squares level k-1, so a rewind over q zero bytes needs only
    the levels below q's bit length.
    """
    if k == 0:

        def step(reg: int) -> int:
            return _unstep_bits(width, poly, reg, 8)

    else:
        half = _zero_rewind_power(width, poly, k - 1)

        def step(reg: int) -> int:
            return _apply_linear(half, _apply_linear(half, reg))

    tables = []
    for low in range(0, width, 8):
        table = [0]
        for bit in range(low, min(low + 8, width)):
            image = step(1 << bit)
            table += [entry ^ image for entry in table]
        tables.append(tuple(table))
    return tuple(tables)


def _rewind_zeros(width: int, poly: int, reg: int, n: int) -> int:
    """Rewind the register over n zero bits, in O(log n) table lookups.

    Square-and-multiply: the n % 8 leftover bits step bit-serially, and
    each set bit k of the byte count n // 8 applies the level-k power.
    Powers of one map commute, so the order of the factors is free.
    """
    if not poly & 1:
        raise ValueError(
            "polynomial has no constant term; register steps cannot be rewound"
        )
    reg = _unstep_bits(width, poly, reg, n % 8)
    count, k = n >> 3, 0
    while count:
        if count & 1:
            reg = _apply_linear(_zero_rewind_power(width, poly, k), reg)
        count >>= 1
        k += 1
    return reg


def _check_state(spec: CrcSpec, state: BitVector, name: str) -> None:
    if len(state) != spec.width:
        raise ValueError(
            f"{name} has {len(state)} bits, register width is {spec.width}"
        )


def crc_forward(spec: CrcSpec, start: BitVector, data: BitVector) -> BitVector:
    """Run the raw shift register from ``start`` over ``data``.

    Per bit: left-shift the register, and XOR in the polynomial when the
    shifted-out bit differs from the data bit. No init/final conditioning.
    """
    _check_state(spec, start, "start state")
    return BitVector(
        _run_forward(spec.width, spec.poly, start.value, data.value, len(data)),
        spec.width,
    )


def state_transition(spec: CrcSpec, state: BitVector, n: int) -> BitVector:
    """Advance the register n steps with all-zero input (data-independent)."""
    _check_state(spec, state, "state")
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    return BitVector(_run_forward(spec.width, spec.poly, state.value, 0, n), spec.width)


def state_transition_inverse(spec: CrcSpec, state: BitVector, n: int) -> BitVector:
    """Rewind the register n zero-input steps; inverse of state_transition."""
    _check_state(spec, state, "state")
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    return BitVector(_rewind_zeros(spec.width, spec.poly, state.value, n), spec.width)


def generator_matrix(spec: CrcSpec, n: int) -> BitMatrix:
    """n x width matrix G with crc_forward(zero, D) == D @ G for n-bit D.

    Row i is the register response to a unit impulse at data position i:
    the polynomial pattern advanced by the remaining n-1-i zero steps, so
    the whole matrix builds in O(n) register steps.
    """
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    rows = [0] * n
    state = spec.poly
    rows[n - 1] = state
    for i in range(n - 2, -1, -1):
        state = _step_bits(spec.width, spec.poly, state, 0, 1)
        rows[i] = state
    return BitMatrix(rows, spec.width)


def decompose_check(spec: CrcSpec, init: BitVector, data: BitVector) -> bool:
    """Executable theorem: bit-serial run == zero-input evolution ^ data @ G.

    Exists so the test suite can assert the affine decomposition on random
    inputs; a correct engine returns True for every (init, data).
    """
    _check_state(spec, init, "init state")
    serial = crc_forward(spec, init, data)
    drift = state_transition(spec, init, len(data))
    if len(data) == 0:
        return serial == drift
    return serial == drift ^ (data @ generator_matrix(spec, len(data)))


@lru_cache(maxsize=8)
def _recovery_inverse(spec: CrcSpec) -> BitMatrix:
    try:
        return generator_matrix(spec, spec.width).invert()
    except SingularMatrixError as exc:
        raise ValueError(
            f"degenerate polynomial {spec.poly:#x}: width-{spec.width} generator "
            f"matrix has rank {exc.rank}, block recovery is impossible"
        ) from exc


def recover_block(spec: CrcSpec, front: BitVector, back: BitVector) -> BitVector:
    """Recover the width-R data block bracketed by two register states.

    Given the register ``front`` just before an unknown R-bit block and
    ``back`` just after it, the block is the unique D with
    crc_forward(front, D) == back, obtained by cancelling the zero-input
    drift and applying the cached inverse generator matrix.
    """
    _check_state(spec, front, "front register")
    _check_state(spec, back, "back register")
    if front.value:
        # The zero state has no drift: zero input keeps it at zero.
        back ^= state_transition(spec, front, spec.width)
    return back @ _recovery_inverse(spec)


def syndrome_map(spec: CrcSpec, rewind: int) -> BitMatrix:
    """The width x width decode map ``A^(-rewind) · G_R^(-1)``.

    A received MPDU's residue times this map is the flip pattern of the
    recovery window that ends ``rewind`` content bits before the trailer,
    the syndrome form of bracketing. Row i is the image of basis state i
    under the same zero rewind and block solve that ``demod`` applies to
    one residue.
    """
    zero = BitVector.zeros(spec.width)
    rows = []
    for i in range(spec.width):
        rewound = state_transition_inverse(spec, BitVector.unit(spec.width, i), rewind)
        rows.append(recover_block(spec, zero, rewound).value)
    return BitMatrix(rows, spec.width)


def register_run(spec: CrcSpec, bits: BitVector) -> BitVector:
    """Raw register from the init state over ``bits``, before the final XOR.

    ``bits`` is in processing order, the order the register consumes them
    (for a reflected spec, each byte LSB-first, as on the wire), and so is
    the result. The 802.11 preset runs in the stdlib CRC-32, whose value is
    the reflected, finalized register.
    """
    if spec == CRC32_FCS and not len(bits) % 8:
        crc = zlib.crc32(bits.to_bytes(lsb_first=True)) ^ spec.final_xor
        return BitVector(crc, 32).reversed_bits()
    return BitVector(
        _run_forward(spec.width, spec.poly, spec.init_xor, bits.value, len(bits)),
        spec.width,
    )


def residue(spec: CrcSpec, content: BitVector, trailer: BitVector) -> BitVector:
    """A received MPDU's residue: the raw register over its content XOR its
    unfinalized trailer, both in processing order. Zero exactly when the
    checksum verifies; the flip pattern of any one window is linear in it.
    """
    return register_run(spec, content) ^ trailer ^ spec.final_vector()


def fcs(spec: CrcSpec, frame_bits: BitVector) -> BitVector:
    """Standardized checksum of a frame: init conditioning, raw run, final XOR.

    ``frame_bits`` is in natural order (each byte MSB-first). In reflected
    mode the register consumes each byte LSB-first and the checksum value is
    bit-reversed, which is what wire-conformant 802.11 hardware computes;
    for that preset the stdlib CRC-32 returns the checksum directly.
    """
    if not spec.reflected:
        return register_run(spec, frame_bits) ^ spec.final_vector()
    if len(frame_bits) % 8:
        raise ValueError(
            f"reflected mode needs whole bytes, got {len(frame_bits)} bits"
        )
    if spec == CRC32_FCS:
        return BitVector(zlib.crc32(frame_bits.to_bytes()), 32)
    wire = BitVector.from_bytes(frame_bits.to_bytes(), lsb_first=True)
    return register_run(spec, wire).reversed_bits() ^ spec.final_vector()
