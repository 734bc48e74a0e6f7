"""Record the digests ``run.py`` checks a seed's outputs against.

    python3 perfbench/record_digests.py --seed 0

captures the suite for the seed into an empty cache, runs every
experiment, and stores the SHA-256 of each captured trace and of each
experiment table under the seed in ``perfbench/digests.json``.  Record
a seed only from a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from common import DIGESTS, SRC, SUITE_LIMIT, make_workdir, seed_workloads, \
    trace_digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import offline
    from repro.harness.experiments import experiment_ids
    seed_workloads(args.seed)
    os.environ["REPRO_TRACE_LEN"] = str(SUITE_LIMIT)
    workdir = make_workdir()
    try:
        traces = offline.capture_suite(workdir / "cache")
        experiments = offline.Experiments(None)
        experiments.run(experiment_ids())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if experiments.failures:
        print("\n".join(experiments.failures), file=sys.stderr)
        return 1
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    stored[str(args.seed)] = {
        "traces": {key: trace_digest(trace) for key, trace in traces.items()},
        "experiments": experiments.digests,
    }
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"recorded seed {args.seed}: {len(traces)} traces, "
          f"{sum(map(len, experiments.digests.values()))} tables")
    return 0


if __name__ == "__main__":
    sys.exit(main())
