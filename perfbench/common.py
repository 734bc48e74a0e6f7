"""What the workloads share: the checkout layout, the seeded workload
sources, the five serve phases and the record stream they replay."""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from metrics import min_samples

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
#: Scratch space (per-run trace caches, server logs) inside the checkout.
WORK = ROOT / ".perfbench_work"

#: The initialiser every MinC workload's PRNG starts from (the prelude).
DEFAULT_RAND_INIT = "int __rand_state = 123456789;"
DEFAULT_RAND_STATE = 123456789

#: Records per trace in the offline suite, as the pytest benchmarks use.
SUITE_LIMIT = 30_000
#: The served stream: li, at the harness's default trace length.
SERVE_TRACE = "li"
SERVE_LIMIT = 100_000
L1, L2 = 1 << 16, 1 << 12

_MASK32 = 0xFFFFFFFF


def rand_state(seed: int) -> int:
    """MinC ``__rand_state`` for benchmark *seed*; seed 0 keeps the
    workloads' own initialiser."""
    if seed == 0:
        return DEFAULT_RAND_STATE
    return (DEFAULT_RAND_STATE + 7919 * seed) % (1 << 31) or 1


def seed_workloads(seed: int) -> None:
    """Rewrite every registered workload's PRNG initialiser in this
    process, as ``ext_seeds`` does; the trace cache keys on the source,
    so seeded traces never alias default ones."""
    from repro.workloads.registry import WORKLOADS
    if seed == 0:
        return
    line = f"int __rand_state = {rand_state(seed)};"
    for name, workload in list(WORKLOADS.items()):
        if DEFAULT_RAND_INIT not in workload.source:
            raise RuntimeError(f"workload {name} has no {DEFAULT_RAND_INIT!r}")
        WORKLOADS[name] = dataclasses.replace(
            workload, source=workload.source.replace(DEFAULT_RAND_INIT, line))


def trace_digest(trace) -> str:
    digest = hashlib.sha256(trace.name.encode())
    digest.update(np.ascontiguousarray(trace.pcs, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(trace.values, dtype=np.int64).tobytes())
    return digest.hexdigest()


def stored_digests(seed: int) -> Optional[dict]:
    """Digests recorded by ``record_digests.py`` for *seed*, if any."""
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(str(seed))


def spec():
    from repro.core.spec import DFCMSpec
    return DFCMSpec(L1, L2)


# ---------------------------------------------------------------- phases

@dataclasses.dataclass(frozen=True)
class Phase:
    name: str
    block: int
    window: int
    connections: int


#: The five closed-loop phases every workload runs, in order.
PHASES = (Phase("b1", 1, 0, 1), Phase("b256", 256, 0, 1),
          Phase("b4096", 4096, 0, 1), Phase("w4", 256, 4, 1),
          Phase("c2", 256, 0, 2))


#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Each phase's requests are sent in this many chunks, the phases taking
#: turns chunk by chunk, so a stall of the shared host lands on all
#: phases alike instead of on whichever phase it overlaps.
ROUNDS = 10


def phase_requests(seconds: int) -> int:
    """Requests per phase: enough that p99 has ten samples beyond it,
    and more as ``--seconds`` grows."""
    requests = max(min_samples(99), 40 * seconds)
    return -(-requests // (2 * ROUNDS)) * 2 * ROUNDS


class Stream:
    """The li trace rotated by a seed-derived offset, masked to the
    32-bit words the wire carries."""

    def __init__(self, trace, seed: int):
        offset = (seed * 7919) % len(trace)
        self.pcs = np.roll(np.asarray(trace.pcs, dtype=np.int64) & _MASK32,
                           -offset)
        self.values = np.roll(
            np.asarray(trace.values, dtype=np.int64) & _MASK32, -offset)
        self.pc_list = self.pcs.tolist()
        self.value_list = self.values.tolist()
        self._expected: Dict[Tuple[int, int, int], int] = {}

    def __len__(self) -> int:
        return len(self.pcs)

    def expected_hits(self, window: int, start: int, records: int) -> int:
        """Offline-engine hits of a fresh predictor over *records*
        records from *start*."""
        key = (window, start, records)
        if key not in self._expected:
            from repro.core.spec import DelayedSpec
            from repro.harness.simulate import measure_accuracy
            from repro.trace.trace import ValueTrace
            reference = DelayedSpec(spec(), window) if window else spec()
            end = start + records
            trace = ValueTrace(SERVE_TRACE, self.pcs[start:end],
                               self.values[start:end])
            self._expected[key] = measure_accuracy(reference, trace).correct
        return self._expected[key]


@dataclasses.dataclass
class PhaseRun:
    """What one phase did: per-request latencies and trace ids, the
    throughput of each chunk, and each session's replayed slice of the
    stream with client-counted and session-reported hits."""

    phase: Phase
    latencies: List[float] = dataclasses.field(default_factory=list)
    trace_ids: List[int] = dataclasses.field(default_factory=list)
    chunk_rates: List[float] = dataclasses.field(default_factory=list)
    sessions: List[Tuple[int, int, int, int]] = dataclasses.field(
        default_factory=list)
    records: int = 0
    elapsed: float = 0.0
    attempted: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)


class PhaseDriver:
    """One phase's closed-loop connections, run a chunk at a time.

    A session replays the stream from where the connection's previous
    session stopped and is closed at the end of each chunk (or of the
    stream), so at most one session per connection is open.
    """

    def __init__(self, connect, phase: Phase, stream: Stream):
        self.phase = phase
        self.stream = stream
        self.run = PhaseRun(phase)
        self._lock = threading.Lock()
        self._conns = []
        self._cursors = [0] * phase.connections
        try:
            for _ in range(phase.connections):
                self.run.attempted += 1
                self._conns.append(connect())
        except Exception as exc:  # counted as a failed operation
            self._fail(exc)

    def _fail(self, exc: Exception) -> None:
        with self._lock:
            self.run.errors.append(
                f"phase {self.phase.name}: {type(exc).__name__}: {exc}")

    def chunk(self, requests: int) -> None:
        """Send *requests* requests, split over the connections."""
        if self.run.errors:
            return
        before = self.run.records
        share = requests // self.phase.connections
        started = time.perf_counter()
        if len(self._conns) == 1:
            self._drive(0, share)
        else:
            threads = [threading.Thread(target=self._drive, args=(i, share))
                       for i in range(len(self._conns))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        elapsed = time.perf_counter() - started
        self.run.elapsed += elapsed
        self.run.chunk_rates.append((self.run.records - before) / elapsed)

    def _drive(self, index: int, requests: int) -> None:
        conn, stream, phase = self._conns[index], self.stream, self.phase
        latencies, trace_ids, sessions = [], [], []
        attempted = records = 0
        n = len(stream)
        try:
            while len(latencies) < requests:
                start = self._cursors[index]
                attempted += 1
                handle = conn.open(phase.window)
                pos, hits = start, 0
                while pos < n and len(latencies) < requests:
                    end = min(pos + phase.block, n)
                    attempted += 1
                    began = time.perf_counter()
                    if phase.block == 1:
                        hit = conn.step(handle, stream.pc_list[pos],
                                        stream.value_list[pos])
                    else:
                        hit = conn.step_block(handle, stream.pcs[pos:end],
                                              stream.values[pos:end])
                    latencies.append(time.perf_counter() - began)
                    trace_ids.append(conn.last_trace_id())
                    hits += hit
                    records += end - pos
                    pos = end
                attempted += 1
                sessions.append((start, pos - start, hits,
                                 conn.close(handle)))
                self._cursors[index] = pos % n
        except Exception as exc:  # counted as a failed operation
            self._fail(exc)
        with self._lock:
            self.run.latencies.extend(latencies)
            self.run.trace_ids.extend(trace_ids)
            self.run.sessions.extend(sessions)
            self.run.records += records
            self.run.attempted += attempted

    def close(self) -> None:
        for conn in self._conns:
            conn.disconnect()


def run_phases(connect, stream: Stream, requests: int,
               around_chunk=None) -> Tuple[float, Dict[str, PhaseRun]]:
    """All phases, interleaved in :data:`ROUNDS` rounds of one chunk
    each; returns the summed wall time of the chunks and each phase's
    run.

    ``around_chunk(driver)``, when given, is a context manager entered
    around every chunk, outside its timing (the traced run scrapes the
    server there).
    """
    drivers = [PhaseDriver(connect, phase, stream) for phase in PHASES]
    try:
        for _ in range(ROUNDS):
            # Objects that outlive the round (traces, modules) are moved
            # out of the collector's reach, so a full collection of the
            # benchmark's own heap does not land in a latency sample.
            gc.collect()
            gc.freeze()
            try:
                for driver in drivers:
                    with (around_chunk(driver) if around_chunk
                          else contextlib.nullcontext()):
                        driver.chunk(requests // ROUNDS)
            finally:
                gc.unfreeze()
    finally:
        for driver in drivers:
            driver.close()
    return (sum(driver.run.elapsed for driver in drivers),
            {driver.phase.name: driver.run for driver in drivers})


def check_phase(run: PhaseRun, stream: Stream) -> List[str]:
    """Mismatches between served, session-reported and offline hits."""
    problems = []
    for start, records, client_hits, session_hits in run.sessions:
        expected = stream.expected_hits(run.phase.window, start, records)
        if client_hits != expected or session_hits != expected:
            problems.append(
                f"phase {run.phase.name}: records {start}..{start + records}"
                f" gave {client_hits} hits (session reports "
                f"{session_hits}), offline engine {expected}")
    return problems


def make_workdir() -> Path:
    WORK.mkdir(exist_ok=True)
    path = WORK / f"run-{os.getpid()}-{time.time_ns()}"
    path.mkdir()
    return path
