"""Span tracer that wraps scattersim's public functions from outside.

Each target function is replaced, in every scattersim module that holds a
reference to it, by a wrapper that records a span: group, start, end,
parent span and an optional work count. Spans live in memory and are
written out once, when the run ends; self times are derived from the parent
links afterwards. A target the code no longer has is reported as absent.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric group, module, attribute) for every span-recording wrapper.
SPAN_TARGETS = [
    ("gf2.vecmat", "gf2", "BitVector.__matmul__"),
    ("gf2.matmul", "gf2", "BitMatrix.__matmul__"),
    ("gf2.matmul", "gf2", "BitMatrix.__pow__"),
    ("gf2.matmul", "gf2", "BitMatrix.invert"),
    ("crc.fcs", "crc", "fcs"),
    ("crc.recover_block", "crc", "recover_block"),
    ("crc.transition", "crc", "state_transition"),
    ("crc.transition", "crc", "state_transition_inverse"),
    ("crc.forward", "crc", "crc_forward"),
    ("crc.generator_matrix", "crc", "generator_matrix"),
    ("frames.build", "frames", "build_mpdu"),
    ("frames.locate", "frames", "locate_windows"),
    ("frames.locate", "frames", "locate_window"),
    ("frames.parse", "frames", "parse_ampdu"),
    ("frames.serialize", "frames", "serialize_bits"),
    ("frames.serialize", "frames", "bits_to_bytes"),
    ("tagsim.modulate", "tagsim", "modulate"),
    ("tagsim.channel", "tagsim", "apply_channel"),
    ("demod.known", "demod", "demodulate_ampdu"),
    ("demod.mpdu", "demod", "demodulate_mpdu"),
    ("demod.bracket", "demod", "bracket_registers"),
    ("demod.blind", "demod", "demodulate_blind"),
    ("experiments.self", "experiments", "run_e2e"),
    ("cli.self", "cli", "main"),
]

# Call counters without a span: their time stays with the caller.
COUNT_TARGETS = [
    ("frames.layout_calls", "frames", "ampdu_layout"),
]

def _bits(index):
    def work(args):
        try:
            return len(args[index])
        except (IndexError, TypeError):
            return 0
    return work


# Work counted per span, in bits, from the call's arguments: the vector
# length for vector-matrix products, the frame length for the FCS.
WORK = {
    "gf2.vecmat": _bits(0),
    "crc.fcs": _bits(1),
}

PACKAGE = "scattersim"
ROOT_GROUP = "op"

# Per-layer metrics that are a group's self time, in microseconds per MPDU.
SELF_TIME_METRICS = {
    "gf2.vecmat_us": "gf2.vecmat",
    "gf2.matmul_us": "gf2.matmul",
    "crc.fcs_us": "crc.fcs",
    "crc.recover_block_us": "crc.recover_block",
    "crc.transition_us": "crc.transition",
    "crc.forward_us": "crc.forward",
    "crc.generator_matrix_us": "crc.generator_matrix",
    "frames.build_us": "frames.build",
    "frames.locate_us": "frames.locate",
    "frames.parse_us": "frames.parse",
    "frames.serialize_us": "frames.serialize",
    "tagsim.modulate_us": "tagsim.modulate",
    "tagsim.channel_us": "tagsim.channel",
    "demod.known_us": "demod.known",
    "demod.mpdu_us": "demod.mpdu",
    "demod.bracket_us": "demod.bracket",
    "demod.blind_us": "demod.blind",
    "experiments.self_us": "experiments.self",
    "cli.self_us": "cli.self",
}


def _resolve(module, path: str):
    """Return (owner, name, original) or None when the code lacks it."""
    owner = module
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return None if original is None else (owner, name, original)


class Tracer:
    """Install with ``install()``; time operations with ``run_op()``; restore
    the program with ``uninstall()``."""

    def __init__(self):
        self.spans: list = []     # (group, t0_ns, t1_ns, parent, op, work)
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list = []  # (owner, name, original)
        self._root = self._span_wrapper(ROOT_GROUP, lambda fn, *args: fn(*args))

    @staticmethod
    def _modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _patch_everywhere(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))
        if isinstance(owner, type):
            return
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def _span_wrapper(self, group: str, fn):
        spans, stack = self.spans, self._stack
        work_of = WORK.get(group)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = (group, t0, t1, parent, self._op,
                                work_of(args) if work_of else 0)
        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts
        counts[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for targets, make in ((SPAN_TARGETS, self._span_wrapper),
                              (COUNT_TARGETS, self._count_wrapper)):
            for key, mod_name, path in targets:
                try:
                    module = importlib.import_module(f"{PACKAGE}.{mod_name}")
                except ImportError:
                    module = None
                found = module and _resolve(module, path)
                if not found:
                    self.absent.append(f"{mod_name}.{path}")
                    continue
                owner, name, original = found
                self._patch_everywhere(owner, name, original, make(key, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def run_op(self, index: int, fn, *args):
        """Call ``fn(*args)`` under a root span; every span inside it carries
        ``index`` as its operation id."""
        self._op = index
        return self._root(fn, *args)

    def self_times(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """Per group: self time in ns, span count and work count."""
        child = [0] * len(self.spans)
        for group, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        work: dict[str, int] = {}
        for i, (group, t0, t1, _, _, w) in enumerate(self.spans):
            self_ns[group] = self_ns.get(group, 0) + (t1 - t0 - child[i])
            calls[group] = calls.get(group, 0) + 1
            work[group] = work.get(group, 0) + w
        return self_ns, calls, work

    def write(self, path) -> None:
        """Write every span as one CSV line, once, at the end of a run."""
        with open(path, "w") as fh:
            fh.write("index,group,start_ns,end_ns,parent,op,work\n")
            for i, (group, t0, t1, parent, op, w) in enumerate(self.spans):
                fh.write(f"{i},{group},{t0},{t1},{parent},{op},{w}\n")
