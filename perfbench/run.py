"""The repository's benchmark: one command for both pipelines.

    python3 perfbench/run.py --workload offline-experiments --seed 0 \\
        --seconds 25 --trace 0

prints every end-to-end metric by name and unit (``--trace 1``: every
per-layer metric instead), then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.  It exits 1 when any output
is wrong or any operation failed, naming the workload, phase or
experiment, and 2 when the checkout holds no program to measure.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import sys
from typing import Tuple

from common import (PHASES, SRC, WORK, make_workdir, seed_workloads,
                    stored_digests)
from hostspeed import REFERENCE_S
from metrics import percentile

WORKLOADS = ("offline-experiments", "serve-direct", "serve-routed")

#: name -> unit, in print order.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
for _phase in PHASES:
    END_TO_END[f"{_phase.name}_rec_s"] = "rec/s"
END_TO_END["b1_p50_ms"] = "ms"

#: The registered experiments, one per-layer wall time each.
EXPERIMENT_IDS = (
    "ablation_confidence", "ablation_hash", "ablation_meta", "ablation_order",
    "ext_confidence", "ext_l1_pressure", "ext_mix", "ext_optlevel",
    "ext_seeds", "ext_taxonomy", "fig10", "fig11", "fig12_14", "fig16",
    "fig17", "fig3", "fig6_9", "sec4_4", "table1")


def per_layer_units() -> dict:
    """Every per-layer metric -> unit, in print order."""
    units = {}
    for name in ("lang.parse", "lang.sema", "lang.codegen",
                 "lang.optimizer", "asm.assemble", "vm.run"):
        units[f"{name}_s"] = "s"
    units.update({"vm.instructions": "count", "vm.mips": "MIPS",
                  "trace.cache_save_s": "s", "trace.cache_load_s": "s",
                  "trace.cache_hits": "count", "trace.cache_misses": "count",
                  "core.engines.batch_s": "s", "core.engines.scalar_s": "s",
                  "core.engines.batch_records": "count",
                  "core.engines.scalar_records": "count",
                  "core.engines.batch_share": "ratio",
                  "core.engines.fallback_calls": "count",
                  "telemetry.tables.alias_s": "s"})
    for experiment_id in EXPERIMENT_IDS:
        units[f"harness.experiments.{experiment_id}_s"] = "s"
    for phase in PHASES:
        prefix = f"{phase.name}.serve"
        units.update({
            f"{prefix}.batcher.queue_ms": "ms",
            f"{prefix}.batcher.queue_p99_ms": "ms",
            f"{prefix}.batcher.fuse_ms": "ms",
            f"{prefix}.session.execute_ms": "ms",
            f"{prefix}.server.flush_ms": "ms",
            f"{prefix}.batcher.batch_size": "requests",
            f"{prefix}.batcher.fused_share": "ratio",
            f"{prefix}.server.requests": "count",
            f"{prefix}.server.errors": "count",
            f"{prefix}.protocol.wire_ms": "ms",
            f"{prefix}.client.p99_ms": "ms",
            f"{prefix}.cluster.router.route_ms": "ms",
            f"{prefix}.cluster.router.proxy_ms": "ms",
            f"{prefix}.cluster.router.write_ms": "ms",
        })
    units["trace_overhead_pct"] = "%"
    return units


def percentile_ms(phase_run, p: float, problems: list):
    """The phase's p-th percentile round trip in ms and its note; a
    percentile without ten samples beyond it is a sizing error,
    reported as a problem."""
    n = len(phase_run.latencies)
    value = percentile(phase_run.latencies, p)
    if value is None:
        problems.append(f"phase {phase_run.phase.name}: {n} samples are "
                        f"too few for p{p}")
        return None, ""
    return value * 1e3, f"n={n}, {n - -(-p * n // 100)} beyond"


def end_to_end(result: dict, problems: list) -> Tuple[dict, dict]:
    """The end-to-end figures of one run, and a note for each.  Times
    the workload scales to the reference host speed (``hostspeed.py``)
    are divided by their host factor; the note gives the measured one."""
    values = {"setup_s": statistics.median(result["setups"]),
              "wall_s": result["wall_s"],
              "peak_rss_mb": result["peak_rss_mb"]}
    notes = {"setup_s": f"median of {len(result['setups'])} set-ups"}
    for name, phase_run in result["phases"].items():
        values[f"{name}_rec_s"] = statistics.median(phase_run.chunk_rates)
        notes[f"{name}_rec_s"] = (f"median of {len(phase_run.chunk_rates)} "
                                  f"chunks; {phase_run.records} records in "
                                  f"{len(phase_run.latencies)} requests")
    value, note = percentile_ms(result["phases"]["b1"], 50, problems)
    if value is not None:
        values["b1_p50_ms"], notes["b1_p50_ms"] = value, note
    for name, speed in result.get("host_speed", {}).items():
        factor = speed.factor()
        scaled = (f"measured {values[name]:.6g} s over host factor "
                  f"{factor:.4f}, the median of {len(speed.samples)} "
                  f"reference-kernel samples / {REFERENCE_S} s")
        notes[name] = f"{notes[name]}; {scaled}" if name in notes else scaled
        values[name] /= factor
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 keeps the MinC workloads' "
                             "own PRNG initialiser")
    parser.add_argument("--seconds", type=int, default=25,
                        help="sizes the serve phases (max(1000, 40 x "
                             "seconds) requests each)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: print the per-layer metrics of a traced "
                             "run instead of the end-to-end ones")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A SIGTERM unwinds like an exception, so servers are stopped and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    seed_workloads(args.seed)
    stored = stored_digests(args.seed)
    workdir = make_workdir()
    try:
        if args.workload == "offline-experiments":
            import offline
            result = offline.run(args, stored, workdir)
            result["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            import serve
            result = serve.run(args, stored, workdir,
                               routed=args.workload == "serve-routed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    problems = list(result["problems"])
    # The p99 round trips are printed on every run but reported as
    # metrics only by the traced run: on a shared host they move with
    # its load far more than any bound allows (see README.md).
    tails = {}
    for name, phase_run in result["phases"].items():
        value, note = percentile_ms(phase_run, 99, problems)
        if value is not None:
            tails[f"{name}.serve.client.p99_ms"] = (value, note)
    if args.trace:
        units = per_layer_units()
        values = {name: float(result["layers"].get(name, 0.0))
                  for name in units}
        notes = {name: "layer not on this workload's path"
                 for name in units if name not in result["layers"]}
        for name, (value, note) in tails.items():
            values[name], notes[name] = value, note
        unbounded = {}
    else:
        units = END_TO_END
        values, notes = end_to_end(result, problems)
        unbounded = tails
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}"
          + ("" if stored else " (no stored digests for this seed; "
             "checks use the scalar reference engine and the offline "
             "engine only)"))
    for name, unit in units.items():
        if name in values:
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:44s} {values[name]:16.6f} {unit}{note}")
    for name, (value, note) in unbounded.items():
        print(f"  {name:44s} {value:16.6f} ms  ({note}; not bounded)")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_ratio':44s} {failed / max(attempted, 1):16.6f} "
          f"({failed} failed of {attempted} attempted)")
    for problem in problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
