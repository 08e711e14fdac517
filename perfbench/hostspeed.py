"""Host-speed calibration for timings taken on a shared machine.

On a VM with shared cores the speed of the host drifts by tens of percent
over a few seconds: the same e2e call takes 90 ms in one stretch and 130 ms
in the next, and CPU time drifts exactly like wall time, so neither a
different clock nor a longer run removes it. Every timed interval is
therefore bracketed by a fixed pure-Python kernel, and reported at the
reference speed at which that kernel takes ``KERNEL_REF_S``:

    reported = measured * KERNEL_REF_S / kernel_s

where ``kernel_s`` is the mean of the kernel's timings just before and just
after the interval. The kernel is part of the benchmark, so no program
change can move it. Raw wall times are kept alongside for reference.
"""
import time

KERNEL_REF_S = 0.005
KERNEL_STEPS = 20_000


def kernel() -> int:
    """Big-int multiply, shift and XOR in an interpreter loop: the same kind
    of work as scattersim's bit-packed GF(2) code."""
    acc, v = 0, 0x9E3779B97F4A7C15
    for i in range(KERNEL_STEPS):
        v = (v * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        acc ^= v >> (i & 31)
    return acc


def time_kernel() -> float:
    """Seconds one kernel run takes on the host right now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(kernel_before: float, kernel_after: float) -> float:
    """Factor that turns a wall time measured between the two kernel runs
    into a time at the reference speed."""
    return KERNEL_REF_S / ((kernel_before + kernel_after) / 2)
