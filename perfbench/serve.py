"""``serve-direct`` and ``serve-routed``: the five closed-loop phases
against one ``repro serve`` process, or through ``repro cluster serve
--workers 1`` so the only difference is the router hop.

Set-up captures the li stream into an empty trace cache and starts the
server up to its ``listening`` line.  Every server ends with SIGTERM;
its ``drained`` line, exit code 0 and (behind the router) the absence
of any forked worker are checked, and a miss counts as a failure.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from typing import Dict, List, Optional

from common import (ROOT, ROUNDS, SERVE_LIMIT, SERVE_TRACE, SETUPS, SRC,
                    Stream, check_phase, phase_requests, run_phases, spec,
                    trace_digest)
from layers import Recorder, layer_metrics, traced
from metrics import (counter_delta, mean, parse_prometheus, percentile,
                     stage_samples)

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


class ServerProcess:
    """One ``repro serve`` / ``repro cluster serve`` child process."""

    def __init__(self, routed: bool, workdir, tag: str):
        command = ([sys.executable, "-m", "repro"]
                   + (["cluster", "serve", "--workers", "1"] if routed
                      else ["serve"])
                   + ["--json", "--obs-port", "0"])
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.routed = routed
        self.worker_pids: List[int] = []
        self._stderr = open(workdir / f"server-{tag}.err", "w")
        self.proc = subprocess.Popen(command, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=self._stderr, text=True)
        self.events: List[dict] = []
        self._listening = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self._listening.wait(START_TIMEOUT_S)
        listening = next((e for e in self.events
                          if e.get("event") == "listening"), None)
        if listening is None:
            self.kill()
            raise RuntimeError(f"server did not listen within "
                               f"{START_TIMEOUT_S:.0f}s")
        self.port = listening["port"]
        self.obs_port = listening["obs_port"]
        if routed:
            (worker,) = listening["workers"]
            self.worker_pids = [worker["pid"]]
            self.worker_obs_port = worker["obs_port"]
        else:
            self.worker_obs_port = self.obs_port
        # The CLI installs its SIGTERM handler after printing the
        # listening line, with no await in between: the first answer
        # from the event loop proves the handler is in place.
        http_get(self.obs_port, "/healthz")

    def _read(self) -> None:
        for line in self.proc.stdout:
            try:
                event = json.loads(line)
            except ValueError:
                continue
            self.events.append(event)
            if event.get("event") == "listening":
                self._listening.set()
        self._listening.set()

    def peak_rss_mb(self) -> float:
        """Peak resident set of the server and its workers."""
        total_kb = 0
        for pid in [self.proc.pid] + self.worker_pids:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> List[str]:
        """SIGTERM, then check the drain; returns the problems seen."""
        problems = []
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            code = None
        self._reader.join(STOP_TIMEOUT_S)
        self._stderr.close()
        if code != 0:
            problems.append(f"server exited with code {code}")
        if not any(e.get("event") == "drained" for e in self.events):
            problems.append("server printed no drained line")
        for pid in self.worker_pids:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
                problems.append(f"worker {pid} outlived the router")
        return problems

    def kill(self) -> None:
        for pid in self.worker_pids:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._stderr.close()


def http_get(port: int, path: str) -> str:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=30) as response:
        return response.read().decode("utf-8")


def _alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False


class ServedConnection:
    """The phases over one client connection; a torn connection or an
    error frame raises instead of being retried."""

    def __init__(self, port: int):
        from repro.serve.client import ServeClient
        self.client = ServeClient("127.0.0.1", port, reconnect=0)

    def open(self, window: int) -> int:
        return self.client.open_session(spec(), window)

    def step(self, session: int, pc: int, value: int) -> int:
        return self.client.step(session, pc, value)[1]

    def step_block(self, session: int, pcs, values) -> int:
        return self.client.step_block(session, pcs, values)[1]

    def close(self, session: int) -> int:
        return self.client.close_session(session)["hits"]

    def last_trace_id(self) -> int:
        return self.client.last_trace_id

    def disconnect(self) -> None:
        self.client.close()


def setup(routed: bool, workdir, index: int, recorder: Optional[Recorder]):
    """Capture the li stream into an empty cache and start a server."""
    from repro.trace.cache import cached_trace
    os.environ["REPRO_TRACE_CACHE"] = str(workdir / f"cache{index}")
    with traced(recorder):
        trace = cached_trace(SERVE_TRACE, SERVE_LIMIT)
    return trace, ServerProcess(routed, workdir, str(index))


class Scrapes:
    """The traced run's view of the servers, per phase: worker
    ``/metrics`` deltas across each chunk, and the request spans of the
    worker (and router) ``/trace`` dumps read after each chunk.  A chunk
    of *chunk_requests* requests is far smaller than the 4096 spans a
    store retains."""

    COUNTERS = ("repro_serve_batch_size_count", "repro_serve_batch_size_sum",
                "repro_serve_fused_records_total",
                "repro_serve_records_total", "repro_serve_errors_total")

    def __init__(self, server: ServerProcess, chunk_requests: int):
        self.server = server
        # Room for the chunk's session opens and closes as well.
        self.limit = 2 * chunk_requests + 64
        self.deltas: Dict[str, Dict[str, float]] = {}
        self.spans: Dict[str, List[dict]] = {"worker": [], "router": []}
        #: Wall time spent scraping: what the traced run adds.
        self.seconds = 0.0

    def _metrics(self) -> dict:
        return parse_prometheus(http_get(self.server.worker_obs_port,
                                         "/metrics"))

    def _spans(self, port: int) -> List[dict]:
        return json.loads(http_get(port,
                                   f"/trace?limit={self.limit}"))["spans"]

    @contextlib.contextmanager
    def around(self, driver):
        started = time.perf_counter()
        before = self._metrics()
        self.seconds += time.perf_counter() - started
        yield
        started = time.perf_counter()
        after = self._metrics()
        deltas = self.deltas.setdefault(driver.phase.name, {})
        for name in self.COUNTERS:
            deltas[name] = (deltas.get(name, 0.0)
                            + counter_delta(before, after, name))
        deltas["requests"] = deltas.get("requests", 0.0) + counter_delta(
            before, after, "repro_serve_requests_total",
            type=("step", "step_block"))
        self.spans["worker"] += self._spans(self.server.worker_obs_port)
        if self.server.routed:
            self.spans["router"] += self._spans(self.server.obs_port)
        self.seconds += time.perf_counter() - started

    def phase_layers(self, phase_run) -> Dict[str, float]:
        """Worker (and router) stage figures for one phase."""
        name = phase_run.phase.name
        ids = [f"{trace_id:016x}" for trace_id in phase_run.trace_ids]

        def samples(source: str):
            stages, latency, found = stage_samples(self.spans[source], ids,
                                                   source)
            if found < len(ids):
                raise RuntimeError(
                    f"phase {name}: the {source} /trace dumps hold {found} "
                    f"of {len(ids)} request spans")
            return stages, latency

        stages, worker_latency = samples("worker")
        deltas = self.deltas[name]
        batches = deltas["repro_serve_batch_size_count"]
        records = deltas["repro_serve_records_total"]
        out = {
            f"{name}.serve.batcher.queue_ms": mean(stages.get("queue", [])),
            f"{name}.serve.batcher.queue_p99_ms":
                percentile(stages.get("queue", []), 99) or 0.0,
            f"{name}.serve.batcher.fuse_ms": mean(stages.get("fuse", [])),
            f"{name}.serve.session.execute_ms":
                mean(stages.get("execute", [])),
            f"{name}.serve.server.flush_ms": mean(stages.get("flush", [])),
            f"{name}.serve.protocol.wire_ms": mean(
                [1e3 * rtt - worker_latency[trace_id]
                 for rtt, trace_id in zip(phase_run.latencies, ids)]),
            f"{name}.serve.batcher.batch_size": (
                deltas["repro_serve_batch_size_sum"] / batches
                if batches else 0.0),
            f"{name}.serve.batcher.fused_share": (
                deltas["repro_serve_fused_records_total"] / records
                if records else 0.0),
            f"{name}.serve.server.requests": deltas["requests"],
            f"{name}.serve.server.errors": deltas["repro_serve_errors_total"],
        }
        if self.server.routed:
            router_stages, _ = samples("router")
            for stage in ("route", "proxy", "write"):
                out[f"{name}.serve.cluster.router.{stage}_ms"] = mean(
                    router_stages.get(stage, []))
        return out


def serve_phases(server: ServerProcess, stream: Stream, requests: int,
                 traced: bool):
    """The five phases against *server*: their summed wall time, each
    phase's run and, when *traced*, each phase's worker (and router)
    stage figures and the seconds spent scraping for them."""
    # The traced run scrapes the server around every chunk, outside the
    # chunk's timing; the server traces every request either way.
    scrapes = Scrapes(server, requests // ROUNDS) if traced else None
    wall, phases = run_phases(lambda: ServedConnection(server.port), stream,
                              requests,
                              around_chunk=scrapes and scrapes.around)
    layers: Dict[str, float] = {}
    if scrapes is None:
        return wall, phases, layers, 0.0
    for phase_run in phases.values():
        if not phase_run.errors:
            layers.update(scrapes.phase_layers(phase_run))
    return wall, phases, layers, scrapes.seconds


def run(args, stored: Optional[dict], workdir, routed: bool) -> dict:
    workload = "serve-routed" if routed else "serve-direct"
    recorder = Recorder() if args.trace else None
    problems: List[str] = []
    setups, digests = [], set()
    attempted = failed = 0
    server = None
    try:
        for i in range(SETUPS):
            started = time.perf_counter()
            trace, server = setup(routed, workdir, i,
                                  recorder if i == SETUPS - 1 else None)
            setups.append(time.perf_counter() - started)
            digests.add(trace_digest(trace))
            if i < SETUPS - 1:
                attempted += 1
                stop_problems = server.stop()
                server = None
                failed += bool(stop_problems)
                problems += [f"workload {workload}: set-up {i}: {p}"
                             for p in stop_problems]
        key = f"{SERVE_TRACE}-{SERVE_LIMIT}"
        if len(digests) != 1:
            problems.append(f"workload {workload}: set-ups captured "
                            "different traces")
        elif stored is not None and stored["traces"].get(key) not in digests:
            problems.append(f"workload {workload}: trace {key} SHA-256 "
                            "differs from the stored digest")

        stream = Stream(trace, args.seed)
        requests = phase_requests(args.seconds)

        wall, phases, layers, scrape_s = serve_phases(
            server, stream, requests, traced=recorder is not None)
        if recorder is not None:
            layers.update(layer_metrics(recorder))
            layers["trace_overhead_pct"] = 100.0 * scrape_s / wall
        peak_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            attempted += 1
            stop_problems = server.stop()
            failed += bool(stop_problems)
            problems += [f"workload {workload}: final drain: {p}"
                         for p in stop_problems]
    for phase_run in phases.values():
        attempted += phase_run.attempted
        failed += len(phase_run.errors)
        problems += [f"workload {workload}: {e}" for e in phase_run.errors]
        problems += [f"workload {workload}: {p}"
                     for p in check_phase(phase_run, stream)]
    out = {
        "setups": setups,
        "wall_s": wall,
        "peak_rss_mb": peak_rss,
        "phases": phases,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if recorder is not None:
        out["layers"] = layers
    return out
