"""Per-layer spans recorded around calls into the program's modules.

The traced run wraps public functions of each layer -- the MinC
compiler passes, the assembler, the VM, the trace cache, the replay
engines, the alias analyzer and each experiment -- for the duration of
a ``with Recorder().installed():`` block, and restores them after.  No
code under ``src/`` is changed: the wrappers live here and patch the
names the callers actually look up.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from metrics import self_times


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    attrs: Dict[str, float] = field(default_factory=dict)


class Recorder:
    """Spans of one thread of calls, kept in memory until read."""

    def __init__(self):
        self.spans: List[Span] = []
        #: Trace-cache hits and misses seen while installed.
        self.cache = {"hits": 0, "misses": 0}
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def wrap(self, fn: Callable, name: str,
             attrs: Optional[Callable] = None) -> Callable:
        """*fn* timed as span *name*; ``attrs(args, result)`` may add
        counts to the span once the call returns."""
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    record.attrs.update(attrs(args, result))
                return result
        return timed

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer entry point for the duration."""
        from repro.core.engines.batch import BatchEngine
        from repro.core.engines.scalar import ScalarEngine
        from repro.lang import compiler
        from repro.telemetry.tables import AliasingAnalyzer
        from repro.trace.stats import cache_stats
        from repro.trace.trace import ValueTrace
        from repro.vm.machine import Machine

        def records(args, result):
            return {"records": len(args[2])}

        def instructions(args, result):
            return {"instructions": args[0].instructions_executed}

        load = ValueTrace.__dict__["load"].__func__
        patches = [
            (compiler, "parse", self.wrap(compiler.parse, "lang.parse")),
            (compiler, "analyze", self.wrap(compiler.analyze, "lang.sema")),
            (compiler, "generate",
             self.wrap(compiler.generate, "lang.codegen")),
            (compiler, "optimize_assembly",
             self.wrap(compiler.optimize_assembly, "lang.optimizer")),
            (compiler, "assemble",
             self.wrap(compiler.assemble, "asm.assemble")),
            (Machine, "run", self.wrap(Machine.run, "vm.run", instructions)),
            (ValueTrace, "save",
             self.wrap(ValueTrace.save, "trace.cache_save")),
            (ValueTrace, "load",
             classmethod(self.wrap(load, "trace.cache_load"))),
            (BatchEngine, "run",
             self.wrap(BatchEngine.run, "core.engines.batch", records)),
            (ScalarEngine, "run",
             self.wrap(ScalarEngine.run, "core.engines.scalar", records)),
            (AliasingAnalyzer, "run",
             self.wrap(AliasingAnalyzer.run, "telemetry.tables.alias")),
        ]
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in patches]
        before = {key: getattr(cache_stats(), key) for key in self.cache}
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            for key in self.cache:
                self.cache[key] += getattr(cache_stats(), key) - before[key]


def traced(recorder: Optional[Recorder]):
    """*recorder*'s wrappers installed, or nothing when it is ``None``."""
    return recorder.installed() if recorder else contextlib.nullcontext()


#: Leaf layers reported as summed self time, in seconds.
TIMED_LAYERS = ("lang.parse", "lang.sema", "lang.codegen", "lang.optimizer",
                "asm.assemble", "vm.run", "trace.cache_save",
                "trace.cache_load", "core.engines.batch",
                "core.engines.scalar", "telemetry.tables.alias")


def layer_metrics(recorder: Recorder) -> Dict[str, float]:
    """Self time per layer plus the engine, VM and cache counts."""
    spans = recorder.spans
    selfs = self_times([(s.start, s.end, s.parent) for s in spans])
    out = {f"{name}_s": 0.0 for name in TIMED_LAYERS}
    for span, own in zip(spans, selfs):
        key = f"{span.name}_s"
        if key in out:
            out[key] += own
    fallback_parents = {span.parent for span in spans
                        if span.name == "core.engines.scalar"
                        and span.parent is not None
                        and spans[span.parent].name == "core.engines.batch"}
    batch_records = sum(
        span.attrs.get("records", 0) for i, span in enumerate(spans)
        if span.name == "core.engines.batch" and i not in fallback_parents)
    scalar_records = sum(span.attrs.get("records", 0) for span in spans
                         if span.name == "core.engines.scalar")
    replayed = batch_records + scalar_records
    instructions = sum(span.attrs.get("instructions", 0) for span in spans
                       if span.name == "vm.run")
    out.update({
        "core.engines.batch_records": batch_records,
        "core.engines.scalar_records": scalar_records,
        "core.engines.batch_share": (batch_records / replayed
                                     if replayed else 0.0),
        "core.engines.fallback_calls": len(fallback_parents),
        "vm.instructions": instructions,
        "trace.cache_hits": recorder.cache["hits"],
        "trace.cache_misses": recorder.cache["misses"],
        "vm.mips": (instructions / out["vm.run_s"] / 1e6
                    if out["vm.run_s"] else 0.0),
    })
    return out
