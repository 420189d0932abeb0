"""Span recording around the calls signrate's layers make into each other.

The tracer swaps module attributes that the library looks up at call time
(for example ``signrate.rates.mc_estimate``) for wrappers that record a
span: layer name, parent span, operation number, start and end.  Nothing inside
``src/`` changes; uninstalling puts the original functions back.

Each thread keeps its own stack of open spans, so a span's parent is the
innermost open span of the thread that made the call.  A pool thread
starts with an empty stack; its spans take as parent the innermost open
span of the caller thread, which is the call that owns the pool (the
benchmark has one caller, so that span is unambiguous).
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import threading
import time
from collections import defaultdict

from signrate.transitions import CHUNK_SAMPLES


@dataclasses.dataclass
class Span:
    name: str
    parent: "Span | None"
    op: int
    start: float
    end: float = 0.0
    counts: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _mc_counts(args, kwargs, result) -> dict:
    samples = args[1] if len(args) > 1 else kwargs["samples"]
    return {"samples": samples, "chunks": math.ceil(samples / CHUNK_SAMPLES)}


def _enum_counts(args, kwargs, result) -> dict:
    # enumerate_exact integrates the windows whose center symbol lies in
    # the lower half of the alphabet and mirrors the rest.
    ch = args[0] if args else kwargs["ch"]
    size = ch.alphabet.size
    windows = (size + 1) // 2 * size ** ch.memory
    return {"windows": windows, "orthants": windows * ch.n_outputs}


def _csv_counts(args, kwargs, result) -> dict:
    return {"csv_bytes": len(result.encode())}


# (module, attribute, layer name, counter) for every wrapped call site.
# ``discretize`` appears twice: ``assemble`` reaches it through the channel
# module and ``combined_response`` through the pulses module.
CALL_SITES = (
    ("signrate.channel", "discretize", "pulses.discretize", None),
    ("signrate.pulses", "discretize", "pulses.discretize", None),
    ("signrate.channel", "combined_response", "pulses.combined_response", None),
    ("signrate.rates", "assemble", "channel.assemble", None),
    ("signrate.rates", "mc_estimate", "transitions.mc_estimate", _mc_counts),
    ("signrate.rates", "enumerate_exact", "transitions.enumerate_exact",
     _enum_counts),
    ("signrate.rates", "rate_for_config", "rates.rate_for_config", None),
    ("signrate.sweeps", "rate_for_config", "rates.rate_for_config", None),
    ("signrate.rates", "rate_from_table", "rates.rate_from_table", None),
    ("signrate.rates", "dmc_mutual_information",
     "rates.dmc_mutual_information", None),
    ("signrate.sweeps", "run_sweep", "sweeps.run_sweep", None),
    ("signrate.sweeps", "load_sweep_csv", "sweeps.load_sweep_csv", None),
    ("signrate.sweeps", "sweep_csv_text", "sweeps.sweep_csv_text", _csv_counts),
    ("signrate.sweeps", "region_compare", "sweeps.region_compare", None),
    ("signrate.sweeps", "find_optimum", "sweeps.find_optimum", None),
)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._local = threading.local()
        self._caller_stack: list[Span] = []
        self._caller = threading.get_ident()
        self._saved: list = []

    def _stack(self) -> list:
        if threading.get_ident() == self._caller:
            return self._caller_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = self._caller_stack[-1:]
                parent = owner[0] if owner else None
            span = Span(name, parent, self.op, time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for module_name, attr, name, counter in CALL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counter))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Self time of every span: its duration minus what its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    return {id(span): span.duration - _union_length(
        children[id(span)], span.start, span.end) for span in spans}


def op_counts(spans) -> dict:
    """Exact per-operation counts: calls per layer plus the layer counters."""
    out = defaultdict(lambda: defaultdict(int))
    for span in spans:
        counts = out[span.op]
        counts[f"{span.name}.calls"] += 1
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] += value
    return {op: dict(counts) for op, counts in out.items()}
