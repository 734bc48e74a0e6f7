"""``offline-experiments``: every registered experiment, full grid,
serially, over the suite -- what ``repro run <id>`` does for each id.

Set-up captures the O0/O1/O2 suite (plus ``norm`` and the li stream)
into an empty trace cache, so ``setup_s`` pays for lang, asm and vm.
The timed body is the harness, the replay engines and the table
analyses.  Every run reports every end-to-end metric, so before the
timed body this workload also runs the five serve phases against a
``repro serve`` of its own: its phase figures mean what they mean on
``serve-direct``, of which they are a second sample.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import time
from typing import Dict, List, Optional

from common import (SERVE_LIMIT, SERVE_TRACE, SETUPS, SUITE_LIMIT, Stream,
                    check_phase, phase_requests, trace_digest)
from hostspeed import HostSpeed
from layers import Recorder, layer_metrics, traced
from serve import ServerProcess, serve_phases


def capture_suite(cache_dir) -> Dict[str, object]:
    """Every trace the experiments read, captured into *cache_dir*."""
    from repro.trace.cache import cached_trace
    from repro.workloads.registry import SPEC_NAMES
    os.environ["REPRO_TRACE_CACHE"] = str(cache_dir)
    traces = {}
    for optimize in (0, 1, 2):
        for name in SPEC_NAMES:
            traces[f"{name}-O{optimize}"] = cached_trace(
                name, SUITE_LIMIT, optimize=optimize)
    traces["norm-O0"] = cached_trace("norm", SUITE_LIMIT)
    traces[f"{SERVE_TRACE}-{SERVE_LIMIT}"] = cached_trace(SERVE_TRACE,
                                                          SERVE_LIMIT)
    return traces


def table_digests(result) -> Dict[str, str]:
    return {table.title: hashlib.sha256(table.to_csv().encode()).hexdigest()
            for table in result.tables}


class Experiments:
    """Experiments run one by one, through ``run_experiment`` as
    ``repro run <id>`` does; ``wall`` sums their wall times, and
    ``speed`` samples the host before and after each."""

    def __init__(self, recorder: Optional[Recorder]):
        self.recorder = recorder
        self.speed = HostSpeed()
        self.wall = 0.0
        self.digests: Dict[str, Dict[str, str]] = {}
        self.results: Dict[str, object] = {}
        self.failures: List[str] = []

    def run(self, experiment_ids) -> None:
        from repro.harness.experiments import run_experiment
        for experiment_id in experiment_ids:
            self.speed.sample()
            started = time.perf_counter()
            try:
                with traced(self.recorder):
                    scope = (self.recorder.span(
                        f"harness.experiments.{experiment_id}")
                        if self.recorder else contextlib.nullcontext())
                    with scope:
                        result = run_experiment(experiment_id,
                                                limit=SUITE_LIMIT)
            except Exception as exc:  # an experiment that raised
                self.failures.append(f"experiment {experiment_id}: "
                                     f"{type(exc).__name__}: {exc}")
                continue
            finally:
                self.wall += time.perf_counter() - started
                self.speed.sample()
            self.results[experiment_id] = result
            self.digests[experiment_id] = table_digests(result)


def check_tables(digests: dict, stored: Optional[dict]) -> List[str]:
    if stored is None:
        return []
    problems = []
    for experiment_id, tables in stored.items():
        got = digests.get(experiment_id)
        if got is None:
            continue  # reported as a failed experiment
        for title, digest in tables.items():
            if got.get(title) != digest:
                problems.append(f"experiment {experiment_id}: table "
                                f"{title!r} differs from the stored digest")
        for title in set(got) - set(tables):
            problems.append(f"experiment {experiment_id}: unexpected "
                            f"table {title!r}")
    return problems


def check_fig10_reference(results: dict, traces: dict) -> List[str]:
    """Seed-independent gate: fig10's per-benchmark FCM and DFCM cells
    at L2=2^12 equal the scalar reference engine's accuracies."""
    from repro.core.spec import DFCMSpec, FCMSpec
    from repro.harness.simulate import measure_suite
    from repro.workloads.registry import SPEC_NAMES
    if "fig10" not in results:
        return []
    table = results["fig10"].table("per-benchmark")
    suite = [traces[f"{name}-O0"] for name in SPEC_NAMES]
    problems = []
    for column, reference in (("fcm", FCMSpec), ("dfcm", DFCMSpec)):
        scalar = measure_suite(reference(1 << 16, 1 << 12), suite,
                               engine="scalar")
        for name in SPEC_NAMES + ["weighted_avg"]:
            want = (scalar.accuracy if name == "weighted_avg"
                    else scalar.accuracy_of(name))
            got = table.lookup("benchmark", name, column)
            if got != want:
                problems.append(f"experiment fig10: {column} on {name} is "
                                f"{got}, scalar reference engine {want}")
    return problems


def run(args, stored: Optional[dict], workdir) -> dict:
    """One run of the workload; see :func:`run.main` for the shape."""
    recorder = Recorder() if args.trace else None
    os.environ["REPRO_TRACE_LEN"] = str(SUITE_LIMIT)
    problems: List[str] = []
    setups, digest_sets, traces = [], [], {}
    setup_speed = HostSpeed()
    for i in range(SETUPS):
        # Only the last set-up is traced: per-layer figures cover one
        # set-up and one timed body.
        setup_speed.sample()
        started = time.perf_counter()
        with traced(recorder if i == SETUPS - 1 else None):
            traces = capture_suite(workdir / f"cache{i}")
        setups.append(time.perf_counter() - started)
        digest_sets.append({key: trace_digest(trace)
                            for key, trace in traces.items()})
    setup_speed.sample()
    if any(digests != digest_sets[0] for digests in digest_sets):
        problems.append("workload offline-experiments: set-ups captured "
                        "different traces")
    if stored is not None and stored.get("traces") != digest_sets[0]:
        bad = sorted(key for key, digest in digest_sets[0].items()
                     if stored.get("traces", {}).get(key) != digest)
        problems.append(f"workload offline-experiments: trace SHA-256 "
                        f"differs from the stored digest for {bad}")

    # Timed in-process, without a server, the phases measure the
    # interpreter's speed alone, which on a shared host spread their
    # rates 0.11 to 0.34 of the median over ten runs; served, 0.05 to
    # 0.09.
    stream = Stream(traces[f"{SERVE_TRACE}-{SERVE_LIMIT}"], args.seed)
    server = ServerProcess(False, workdir, "phases")
    try:
        _, phases, phase_layers, _ = serve_phases(
            server, stream, phase_requests(args.seconds),
            traced=recorder is not None)
    finally:
        drain = server.stop()
    problems += [f"workload offline-experiments: drain: {p}" for p in drain]

    from repro.harness.experiments import experiment_ids
    ids = experiment_ids()
    untraced = None
    if recorder is not None:
        untraced = Experiments(None)
        untraced.run(ids)
    body = Experiments(recorder)
    body.run(ids)
    wall = body.wall
    failures = body.failures
    problems += failures
    problems += check_tables(body.digests,
                             stored and stored.get("experiments"))
    problems += check_fig10_reference(body.results, traces)
    for phase_run in phases.values():
        problems += [f"workload offline-experiments: {p}" for p in
                     phase_run.errors + check_phase(phase_run, stream)]

    out = {
        "setups": setups,
        "wall_s": wall,
        # The set-ups and the experiments are CPU-bound work in this
        # process, so they are scaled to the reference host speed.
        "host_speed": {"setup_s": setup_speed, "wall_s": body.speed},
        "phases": phases,
        "attempted": len(ids) + 1 + sum(
            p.attempted for p in phases.values()),
        "failed": len(failures) + bool(drain) + sum(
            len(p.errors) for p in phases.values()),
        "problems": problems,
    }
    if recorder is not None:
        layers = layer_metrics(recorder)
        for span in recorder.spans:
            if span.name.startswith("harness.experiments."):
                layers[f"{span.name}_s"] = span.end - span.start
        layers.update(phase_layers)
        # Each pass at reference speed, so host drift between the two
        # passes does not read as tracing cost.
        plain = untraced.wall / untraced.speed.factor()
        layers["trace_overhead_pct"] = 100.0 * (
            wall / body.speed.factor() - plain) / plain
        out["layers"] = layers
    return out
