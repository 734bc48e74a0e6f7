"""Online value-prediction service (``repro serve`` / ``repro loadgen``).

The offline harness replays traces through the engine layer in batch;
this package serves the same predictors over TCP, online:

- :mod:`repro.serve.protocol` -- the length-prefixed binary frame
  format (one version-2 header; OPEN_SESSION / PREDICT / OUTCOME / STEP /
  STEP_BLOCK / FLUSH / STATS / CLOSE_SESSION).
- :mod:`repro.serve.session` -- per-session predictor state built from
  a picklable :class:`~repro.core.spec.PredictorSpec`, with an optional
  in-flight *window* implementing delayed update online
  (:mod:`repro.core.delayed` semantics, bit-for-bit).
- :mod:`repro.serve.batcher` -- the cross-connection micro-batcher:
  bounded queues, max-batch-size / max-delay knobs, backpressure,
  graceful drain.
- :mod:`repro.serve.server` -- the asyncio TCP server; sessions are
  sharded across worker tasks by session id.
- :mod:`repro.serve.client` / :mod:`repro.serve.loadgen` -- a blocking
  client (with reconnect-on-reset backoff) and the one trace-replay
  driver: single-server loadgen, cluster scaling sweeps and sustained
  soaks, each pass verified against the offline engine.
- :mod:`repro.serve.cluster` -- multi-worker serving: a
  :class:`~repro.serve.cluster.supervisor.ClusterSupervisor` fleet of
  worker processes behind a session-affine
  :class:`~repro.serve.cluster.router.Router` (rendezvous-hashed
  placement, hot migration over durable-state arenas, zero-drop
  drain/failover, aggregated observability).

Serving is bit-identical to the offline engines: a served trace
produces the same hit/miss counts as ``measure_suite`` on the same
spec, including under delayed-update windows -- at every fleet size.
"""

from repro.serve.client import ServeClient
from repro.serve.cluster import (ClusterSupervisor, ClusterThread,
                                 RendezvousRing, Router)
from repro.serve.obs import ObservabilityServer
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError
from repro.serve.server import PredictionServer, ServerThread
from repro.serve.session import Session
from repro.serve.tracing import (RequestTrace, SlowRequestSampler,
                                 format_trace_id, new_trace_id)

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Session",
    "PredictionServer",
    "ServerThread",
    "ServeClient",
    "ClusterSupervisor",
    "ClusterThread",
    "RendezvousRing",
    "Router",
    "ObservabilityServer",
    "RequestTrace",
    "SlowRequestSampler",
    "new_trace_id",
    "format_trace_id",
]
