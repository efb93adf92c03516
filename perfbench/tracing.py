"""Spans around the public functions of hazardnet, recorded from outside.

A :class:`Tracer` replaces chosen module attributes with wrappers that
record one span per call (name, start, end, parent span) in memory, and puts
the original functions back on :meth:`Tracer.uninstall`. Only the names the
caller looks up are wrapped: ``hazardnet.cli.<name>`` for the CLI workloads
and ``hazardnet.<name>`` for the library workload. A library function that
reaches another through its own module is therefore one span, e.g. the
sampling inside ``predict_distributions`` counts as ``evaluate.predict_s``.

Untraced runs never create a Tracer, so their timings come from the
unwrapped functions.
"""

from __future__ import annotations

import os
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# function name -> (layer, metric it adds to, extra fact recorded on the span)
# "events": infections sampled; "solver": iterations, system time and minor
# page faults of the call; "bytes": size of the file written.
TRACED = {
    "simulate_set": ("simulate", "simulate.sample_s", "events"),
    "generate_kronecker": ("simulate", "simulate.generate_s", None),
    "assign_parameters": ("simulate", "simulate.generate_s", None),
    "predict_distributions": ("evaluate", "evaluate.predict_s", None),
    "compare_networks": ("evaluate", "evaluate.compare_s", None),
    "split_cascades": ("evaluate", "evaluate.split_s", None),
    "infer_additive": ("additive", "additive.infer_s", "solver"),
    "additive_set_loglik": ("additive", "additive.loglik_s", None),
    "additive_gradient": ("additive", "additive.gradient_s", None),
    "additive_kkt_violation": ("additive", "additive.kkt_s", None),
    "infer_multiplicative": ("multiplicative", "multiplicative.infer_s", "solver"),
    "multiplicative_set_loglik": ("multiplicative", "multiplicative.loglik_s", None),
    "multiplicative_gradient": ("multiplicative", "multiplicative.gradient_s", None),
    "multiplicative_kkt_violation": ("multiplicative", "multiplicative.kkt_s", None),
    "write_cascades": ("fileio", "fileio.write_s", "bytes"),
    "write_network": ("fileio", "fileio.write_s", None),
    "write_csv": ("fileio", "fileio.write_s", None),
    "read_cascades": ("fileio", "fileio.read_s", None),
    "read_network": ("fileio", "fileio.read_s", None),
}


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; a span's parent is the span open when it began."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = Span(name, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn):
        layer, _, extra = TRACED[name]
        tracer = self

        def wrapper(*args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_SELF) if extra == "solver" else None
            with tracer.span(f"{layer}.{name}") as record:
                result = fn(*args, **kwargs)
            if extra == "solver":
                after = resource.getrusage(resource.RUSAGE_SELF)
                record.info["iterations"] = int(result.iterations)
                record.info["sys_s"] = after.ru_stime - before.ru_stime
                record.info["minor_faults"] = after.ru_minflt - before.ru_minflt
            elif extra == "events":
                record.info["events"] = int(sum(c.size for c in result))
            elif extra == "bytes":
                record.info["bytes"] = os.path.getsize(args[0])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, module) -> None:
        """Wrap every traced name that ``module`` exposes."""
        for name in TRACED:
            fn = getattr(module, name, None)
            if fn is not None:
                self._patches.append((module, name, fn))
                setattr(module, name, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patches):
            setattr(module, name, fn)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Write the spans as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\tinfo\n")
            for k, s in enumerate(self.spans):
                info = ",".join(f"{key}={value}" for key, value in s.info.items())
                fh.write(f"{k}\t{s.parent}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{info}\n")

    def totals(self, first: int, last: int) -> dict[str, float]:
        """Per-layer figures summed over spans[first:last]."""
        out: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            out[key] = out.get(key, 0.0) + value

        for k in range(first, last):
            s = self.spans[k]
            layer, _, name = s.name.partition(".")
            if layer == "cli":
                add(f"cli.{name}_s", s.seconds)
                library = sum(c.seconds for c in self.spans[k + 1:last] if c.parent == k)
                add("cli.overhead_s", s.seconds - library)
                continue
            if name not in TRACED:
                continue
            add(TRACED[name][1], s.seconds)
            for key, value in s.info.items():
                if key == "bytes":
                    add("fileio.cascade_bytes", value)
                elif key == "events":
                    add("simulate.events", value)
                else:
                    add(f"{layer}.infer_{key}" if key != "iterations" else f"{layer}.iterations",
                        value)
        return out
