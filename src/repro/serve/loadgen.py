"""Trace replay against the prediction service: the one replay driver.

Every pass replays a :class:`~repro.trace.trace.ValueTrace` in order
through a fresh session, so its served hit count must equal the
offline engines' (:func:`~repro.harness.simulate.measure_accuracy` on
the spec, wrapped in :class:`~repro.core.spec.DelayedSpec` when a
window is set) bit for bit, and the count the closing session reports
must equal the client's.  :class:`_Replay` runs one pass -- STEP frames
of one record (``naive``) or STEP_BLOCK frames of ``block`` records
(``batched``) -- and :func:`_fan_out` runs S concurrent session
threads of such passes.  Three report builders sit on top:

- :func:`run_loadgen` targets a running server with one session per
  mode; ``verify.matched`` is the parity verdict and, in mode
  ``both``, *min_speedup* gates batched over naive (``speedup_ok``).
- :func:`run_scaling_loadgen` self-hosts a
  :class:`~repro.serve.cluster.router.ClusterThread` per fleet size and
  replays one pass per session; ``parity_ok`` covers every session and
  *min_scaling* gates the best larger fleet over the smallest
  (``scaling_ok``).  ``cpu_count`` tells a reader why a local run may
  stay flat.
- :func:`run_soak` holds one fleet under S replay loops for a
  wall-clock duration while a poller samples the router's ``/scale``
  signals.  It fails when a sample's *sustained* SLO burn
  (``min(fast, slow)`` window, as the alert rule and the autoscaler
  see it) reaches *max_burn*, when a pass breaks parity, or when a
  session thread errors; ``trace_dump`` ships the router's recent
  cross-process spans as forensics.

Reports are JSON-able dicts with ``schema`` 1; the cluster reports
carry a ``kind`` that :mod:`repro.harness.bench` files in
``BENCH_history.jsonl``.
"""

from __future__ import annotations

import os
import threading
import time
from typing import List, Optional, Sequence

from repro.core.spec import DelayedSpec, PredictorSpec
from repro.serve.client import ServeClient
from repro.serve.cluster.router import ClusterThread
from repro.serve.obs import latency_summary

__all__ = ["run_loadgen", "run_scaling_loadgen", "run_soak",
           "render_loadgen", "render_scaling", "render_soak"]

LOADGEN_SCHEMA = 1
#: Most recent router trace spans a soak report keeps.
TRACE_DUMP_LIMIT = 256

_MASK32 = 0xFFFFFFFF


def _require_positive(**values: int) -> None:
    for name, value in values.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


class _Replay:
    """One run's replay input: the masked records of *trace* and the
    hit count the offline engines produce on them."""

    def __init__(self, spec: PredictorSpec, trace, window: int):
        from repro.harness.simulate import measure_accuracy
        self.spec = spec
        self.window = window
        self.trace_name = trace.name
        self.pcs = [int(pc) & _MASK32 for pc in trace.pcs]
        self.values = [int(v) & _MASK32 for v in trace.values]
        self.offline_spec = DelayedSpec(spec, window) if window else spec
        self.offline_hits = measure_accuracy(self.offline_spec,
                                             trace).correct

    def header(self, block: int) -> dict:
        """The report fields every driver shares."""
        return {"schema": LOADGEN_SCHEMA, "trace": self.trace_name,
                "records": len(self.pcs), "spec": self.spec.name,
                "spec_config": self.spec.to_config(),
                "window": self.window, "block": block}

    def run_pass(self, client: ServeClient, block: Optional[int]) -> dict:
        """Replay every record through a fresh session, one STEP frame
        each when *block* is None; ``seconds`` times the replay loop
        only, not the session open or close."""
        session = client.open_session(self.spec, self.window)
        latencies: List[float] = []
        hits = 0
        started = time.perf_counter()
        if block is None:
            for pc, value in zip(self.pcs, self.values):
                sent = time.perf_counter()
                _, hit = client.step(session, pc, value)
                latencies.append(time.perf_counter() - sent)
                hits += hit
        else:
            for start in range(0, len(self.pcs), block):
                sent = time.perf_counter()
                _, chunk_hits = client.step_block(
                    session, self.pcs[start:start + block],
                    self.values[start:start + block])
                latencies.append(time.perf_counter() - sent)
                hits += chunk_hits
        elapsed = time.perf_counter() - started
        stats = client.close_session(session)
        if stats["hits"] != hits:
            raise RuntimeError(
                f"session {session}: client counted {hits} hits, "
                f"session reported {stats['hits']}")
        return {"session": session, "hits": hits, "seconds": elapsed,
                "latencies": latencies}


def _session_thread(replay: _Replay, host: str, port: int,
                    block: Optional[int], deadline: Optional[float],
                    result: dict) -> None:
    try:
        with ServeClient(host, port, reconnect=5) as client:
            while True:
                result["passes"].append(replay.run_pass(client, block))
                if deadline is None or time.monotonic() >= deadline:
                    break
            result["reconnects"] = client.reconnects
    except Exception as exc:  # noqa: BLE001 - reported by the caller
        result["error"] = exc


def _fan_out(replay: _Replay, host: str, port: int, sessions: int,
             block: Optional[int], deadline: Optional[float] = None) -> dict:
    """Run *sessions* concurrent session threads, each replaying one
    pass, or passes until the ``time.monotonic()`` *deadline*.  Returns
    every finished pass, their pooled round-trip latencies, the summed
    reconnects, ``(thread index, exception)`` per failed thread and the
    wall time from start to join."""
    results = [{"passes": [], "reconnects": 0, "error": None}
               for _ in range(sessions)]
    threads = [threading.Thread(target=_session_thread,
                                args=(replay, host, port, block, deadline,
                                      result))
               for result in results]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    passes = [p for result in results for p in result["passes"]]
    return {"passes": passes,
            "latencies": [lat for p in passes for lat in p["latencies"]],
            "reconnects": sum(result["reconnects"] for result in results),
            "errors": [(key, result["error"])
                       for key, result in enumerate(results)
                       if result["error"] is not None],
            "seconds": elapsed}


def run_loadgen(spec: PredictorSpec, trace, host: str, port: int,
                window: int = 0, mode: str = "both", block: int = 256,
                min_speedup: Optional[float] = None) -> dict:
    """Replay *trace* against the server at ``host:port``, one session
    per mode; see the module docstring for the gates."""
    if mode not in ("naive", "batched", "both"):
        raise ValueError(f"unknown loadgen mode {mode!r}")
    if min_speedup is not None and mode != "both":
        raise ValueError(f"min_speedup compares batched with naive and "
                         f"needs mode 'both', got {mode!r}")
    _require_positive(block=block)
    replay = _Replay(spec, trace, window)
    report = replay.header(block)
    report["modes"] = {}
    for name in (("naive", "batched") if mode == "both" else (mode,)):
        run = _fan_out(replay, host, port, 1,
                       None if name == "naive" else block)
        if run["errors"]:
            raise run["errors"][0][1]
        (one,) = run["passes"]
        hits, elapsed = one["hits"], one["seconds"]
        records = len(replay.pcs)
        report["modes"][name] = {
            "mode": name,
            "records": records,
            "requests": len(run["latencies"]),
            "seconds": round(elapsed, 6),
            "records_per_s": round(records / elapsed, 1) if elapsed else 0.0,
            "latency": latency_summary(run["latencies"]),
            "hits": hits,
            "accuracy": round(hits / records, 6) if records else 0.0,
        }
    if mode == "both":
        naive_rate = report["modes"]["naive"]["records_per_s"]
        batched_rate = report["modes"]["batched"]["records_per_s"]
        speedup = batched_rate / naive_rate if naive_rate else 0.0
        report["speedup"] = round(speedup, 2)
        report["min_speedup"] = min_speedup
        if min_speedup is not None:
            report["speedup_ok"] = speedup >= min_speedup
    served = {name: stats["hits"] for name, stats in report["modes"].items()}
    report["verify"] = {
        "offline_spec": replay.offline_spec.name,
        "offline_hits": replay.offline_hits,
        "served_hits": served,
        "matched": all(hits == replay.offline_hits
                       for hits in served.values()),
    }
    return report


def render_loadgen(report: dict) -> str:
    """Human-readable per-mode throughput and the parity verdict."""
    lines = [f"{report['spec']} on {report['trace']} "
             f"({report['records']} records, window {report['window']})"]
    for name, stats in report["modes"].items():
        latency = stats["latency"]
        lines.append(
            f"  {name:8s} {stats['records_per_s']:>12,.0f} rec/s  "
            f"p50 {latency['p50_ms']:.3f}ms  "
            f"p99 {latency['p99_ms']:.3f}ms  "
            f"accuracy {stats['accuracy']:.4f}")
    if "speedup" in report:
        lines.append(f"  speedup: batched {report['speedup']:.1f}x naive")
    state = "match" if report["verify"]["matched"] else "MISMATCH"
    lines.append(f"  offline parity: {state} "
                 f"({report['verify']['offline_hits']} hits)")
    return "\n".join(lines) + "\n"


def run_scaling_loadgen(spec: PredictorSpec, trace,
                        workers: Sequence[int] = (1, 2, 3),
                        sessions: int = 4, window: int = 0,
                        block: int = 256,
                        state_dir: Optional[str] = None,
                        min_scaling: Optional[float] = None,
                        **worker_kwargs) -> dict:
    """Replay *trace* through *sessions* concurrent sessions at each
    fleet size in *workers*; see the module docstring for the gates."""
    counts = sorted(set(int(n) for n in workers))
    if not counts or counts[0] < 1:
        raise ValueError(f"workers must be >= 1, got {list(workers)}")
    if min_scaling is not None and len(counts) < 2:
        raise ValueError(f"min_scaling compares fleet sizes and needs at "
                         f"least two, got {counts}")
    _require_positive(sessions=sessions, block=block)
    replay = _Replay(spec, trace, window)

    points = []
    for n_workers in counts:
        with ClusterThread(workers=n_workers, state_dir=state_dir,
                           **worker_kwargs) as cluster:
            run = _fan_out(replay, "127.0.0.1", cluster.port, sessions,
                           block)
            stats = cluster.router.cluster_report()
        if run["errors"]:
            raise run["errors"][0][1]
        total_records = len(replay.pcs) * sessions
        points.append({
            "workers": n_workers,
            "sessions": sessions,
            "records": total_records,
            "seconds": round(run["seconds"], 6),
            "records_per_s": round(total_records / run["seconds"], 1)
            if run["seconds"] else 0.0,
            "latency": latency_summary(run["latencies"],
                                       ("p50", "p90", "p99")),
            "session_hits": {str(p["session"]): p["hits"]
                             for p in run["passes"]},
            "reconnects": run["reconnects"],
            "migrations_total": stats["migrations_total"],
            "sessions_lost_total": stats["sessions_lost_total"],
            "offline_hits": replay.offline_hits,
            "parity_ok": all(p["hits"] == replay.offline_hits
                             for p in run["passes"]),
        })

    report = replay.header(block)
    report.update({"kind": "cluster_scaling", "sessions": sessions,
                   "cpu_count": os.cpu_count(), "points": points,
                   "parity_ok": all(p["parity_ok"] for p in points)})
    if len(points) > 1:
        base_rate = points[0]["records_per_s"]
        best = max(points[1:], key=lambda p: p["records_per_s"])
        speedup = (best["records_per_s"] / base_rate) if base_rate else 0.0
        report["speedup"] = round(speedup, 2)
        report["speedup_workers"] = best["workers"]
        report["min_scaling"] = min_scaling
        if min_scaling is not None:
            report["scaling_ok"] = speedup >= min_scaling
    return report


def render_scaling(report: dict) -> str:
    """Human-readable scaling table."""
    from repro.harness.report import format_table
    rows = [[f"{p['workers']}", f"{p['records']:,}",
             f"{p['records_per_s']:,.1f}",
             f"{p['latency']['p50_ms']:.3f}",
             f"{p['latency']['p99_ms']:.3f}",
             "ok" if p["parity_ok"] else "MISMATCH"]
            for p in report["points"]]
    lines = [format_table(
        ["workers", "records", "rec/s", "p50 ms", "p99 ms", "parity"],
        rows,
        title=(f"cluster scaling: {report['spec']} on "
               f"{report['trace']} x{report['sessions']} sessions"))]
    if "speedup" in report:
        gate = ""
        if report.get("min_scaling") is not None:
            verdict = "PASS" if report.get("scaling_ok") else "FAIL"
            gate = (f" (gate >= {report['min_scaling']:g}x: {verdict})")
        lines.append(
            f"speedup: {report['speedup']:g}x at "
            f"{report['speedup_workers']} workers vs 1{gate}")
    return "\n".join(lines) + "\n"


def _scale_sample(cluster: ClusterThread) -> dict:
    """One ``/scale`` telemetry sample, or the error that replaced it."""
    try:
        report = cluster.call(cluster.router.scale_report())
        return {"t_s": round(time.monotonic(), 3),
                "signals": report["signals"],
                "alerts": report["alerts"],
                "workers_alive": report["workers_alive"]}
    except Exception as exc:  # noqa: BLE001 - the soak keeps running
        return {"t_s": round(time.monotonic(), 3),
                "error": f"{type(exc).__name__}: {exc}"}


def _poll_telemetry(cluster: ClusterThread, interval_s: float,
                    stop: threading.Event, samples: List[dict]) -> None:
    while not stop.is_set():
        samples.append(_scale_sample(cluster))
        stop.wait(interval_s)


def run_soak(spec: PredictorSpec, trace, workers: int = 2,
             sessions: int = 4, duration_s: float = 60.0,
             window: int = 0, block: int = 256,
             state_dir: Optional[str] = None, max_burn: float = 2.0,
             **worker_kwargs) -> dict:
    """Hold a *workers*-worker cluster under *sessions* concurrent
    replay loops for *duration_s* seconds; see the module docstring
    for the pass/fail rule."""
    _require_positive(workers=workers, sessions=sessions, block=block)
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    if max_burn <= 0:
        raise ValueError(f"max_burn must be > 0, got {max_burn}")
    replay = _Replay(spec, trace, window)
    # At least four samples per run, and one every 2 s on long runs.
    poll_interval_s = min(2.0, duration_s / 4)

    samples: List[dict] = []
    with ClusterThread(workers=workers, state_dir=state_dir,
                       **worker_kwargs) as cluster:
        stop_poll = threading.Event()
        poller = threading.Thread(
            target=_poll_telemetry,
            args=(cluster, poll_interval_s, stop_poll, samples),
            daemon=True)
        poller.start()
        run = _fan_out(replay, "127.0.0.1", cluster.port, sessions, block,
                       deadline=time.monotonic() + duration_s)
        stop_poll.set()
        poller.join(timeout=poll_interval_s + 10.0)
        # Final forensics while the fleet is still up: one last
        # telemetry sample and the router's recent trace spans.
        final = _scale_sample(cluster)
        if "signals" in final:
            final["final"] = True
        samples.append(final)
        trace_dump = cluster.router.trace_dump(TRACE_DUMP_LIMIT)
        cluster_stats = cluster.router.cluster_report()

    passes = len(run["passes"])
    records_total = passes * len(replay.pcs)
    mismatches = sum(1 for p in run["passes"]
                     if p["hits"] != replay.offline_hits)
    burns = [s["signals"]["slo_burn_rate"] for s in samples
             if "signals" in s]
    burn_breaches = sum(1 for b in burns if b >= max_burn)
    errors = [f"session thread {key}: {type(exc).__name__}: {exc}"
              for key, exc in run["errors"]]
    parity_ok = mismatches == 0 and passes > 0
    slo_ok = burn_breaches == 0
    report = replay.header(block)
    report.update({
        "kind": "cluster_soak",
        "workers": workers,
        "sessions": sessions,
        "duration_s": round(duration_s, 3),
        "seconds": round(run["seconds"], 3),
        "cpu_count": os.cpu_count(),
        "passes": passes,
        "records_total": records_total,
        "records_per_s": (round(records_total / run["seconds"], 1)
                          if run["seconds"] else 0.0),
        "offline_hits": replay.offline_hits,
        "mismatched_passes": mismatches,
        "parity_ok": parity_ok,
        "reconnects": run["reconnects"],
        "latency": latency_summary(run["latencies"],
                                   ("count", "p50", "p99")),
        "max_burn": max_burn,
        "peak_burn": round(max(burns, default=0.0), 4),
        "burn_breaches": burn_breaches,
        "slo_ok": slo_ok,
        "alerts": sorted({alert for s in samples
                          for alert in s.get("alerts", [])}),
        "samples": samples,
        "errors": errors,
        "migrations_total": cluster_stats["migrations_total"],
        "sessions_lost_total": cluster_stats["sessions_lost_total"],
        "trace_dump": trace_dump,
        "soak_ok": parity_ok and slo_ok and not errors,
    })
    return report


def render_soak(report: dict) -> str:
    """Human-readable soak verdict."""
    lines = [
        (f"cluster soak: {report['spec']} on {report['trace']} -- "
         f"{report['workers']} workers x{report['sessions']} sessions, "
         f"{report['seconds']:.1f}s"),
        (f"  passes: {report['passes']} "
         f"({report['records_total']:,} records, "
         f"{report['records_per_s']:,.1f} rec/s), "
         f"reconnects: {report['reconnects']}"),
        (f"  latency: p50 {report['latency']['p50_ms']:.3f} ms, "
         f"p99 {report['latency']['p99_ms']:.3f} ms"),
        (f"  parity: "
         f"{'ok' if report['parity_ok'] else 'MISMATCH'} "
         f"({report['mismatched_passes']} mismatched passes)"),
        (f"  slo burn: peak {report['peak_burn']:g} "
         f"(gate < {report['max_burn']:g}: "
         f"{'PASS' if report['slo_ok'] else 'FAIL'}, "
         f"{report['burn_breaches']} breaching samples)"),
    ]
    if report["alerts"]:
        lines.append(f"  alerts seen: {', '.join(report['alerts'])}")
    for error in report["errors"]:
        lines.append(f"  error: {error}")
    lines.append(f"soak: {'PASS' if report['soak_ok'] else 'FAIL'}")
    return "\n".join(lines) + "\n"
