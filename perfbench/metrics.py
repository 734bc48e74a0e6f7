"""Pure helpers the benchmark computes its figures with.

Nothing here imports ``repro``: these functions take plain samples,
Prometheus exposition text, ``/trace`` dumps and span intervals, so
``test_metrics.py`` can pin them without a server.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, the "p99" of a small sample is its maximum.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> Optional[float]:
    """Nearest-rank *p*-th percentile of *samples*, or ``None`` when
    fewer than :data:`MIN_BEYOND` samples lie beyond it."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def min_samples(p: float) -> int:
    """Smallest sample count for which :func:`percentile` reports *p*."""
    n = MIN_BEYOND + 1
    while percentile(range(n), p) is None:
        n += 1
    return n


def mean(samples: Sequence[float]) -> float:
    return sum(samples) / len(samples) if samples else 0.0


# ------------------------------------------------------------ Prometheus

Series = Tuple[str, Tuple[Tuple[str, str], ...]]

_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)')
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> Dict[Series, float]:
    """Exposition text -> ``{(name, sorted label pairs): value}``.

    Comment lines and OpenMetrics exemplars (after ``#``) are dropped.
    """
    out: Dict[Series, float] = {}
    for line in text.splitlines():
        line = line.split(" # ", 1)[0].strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        pairs = tuple(sorted(_LABEL.findall(labels or "")))
        out[(name, pairs)] = float(value)
    return out


def _selected(series: Series, name: str, labels: dict) -> bool:
    if series[0] != name:
        return False
    have = dict(series[1])
    for key, wanted in labels.items():
        allowed = wanted if isinstance(wanted, (tuple, list, set)) \
            else (wanted,)
        if have.get(key) not in allowed:
            return False
    return True


def counter_delta(before: Dict[Series, float], after: Dict[Series, float],
                  name: str, **labels) -> float:
    """Increase of every series of *name* matching *labels* (a label
    value may be a tuple of accepted values) between two scrapes; a
    series absent from *before* counts from zero."""
    return sum(value - before.get(series, 0.0)
               for series, value in after.items()
               if _selected(series, name, labels))


def histogram_delta(before: Dict[Series, float], after: Dict[Series, float],
                    name: str, **labels) -> Tuple[float, float]:
    """``(count, sum)`` observed by histogram *name* between scrapes."""
    return (counter_delta(before, after, name + "_count", **labels),
            counter_delta(before, after, name + "_sum", **labels))


# --------------------------------------------------------- /trace dumps

def stage_samples(spans: Iterable[dict], trace_ids: Iterable[str],
                  source: str) -> Tuple[Dict[str, List[float]],
                                        Dict[str, float], int]:
    """Per-stage millisecond samples of the *source* spans (``worker``
    or ``router``) whose trace id is in *trace_ids*.

    Returns ``(stages, latency_by_id, found)``: stage name -> samples,
    trace id -> that span's ``latency_ms``, and how many wanted ids had
    a span.  A ``/trace`` dump retains only its store's most recent
    spans, so ``found`` below ``len(trace_ids)`` means the dump was
    scraped too late.  A worker span without a ``source`` key is a
    worker span.
    """
    wanted = set(trace_ids)
    stages: Dict[str, List[float]] = {}
    latency: Dict[str, float] = {}
    for span in spans:
        if span.get("source", "worker") != source:
            continue
        trace_id = span.get("trace_id")
        if trace_id not in wanted or trace_id in latency:
            continue
        latency[trace_id] = float(span.get("latency_ms", 0.0))
        for stage, ms in span.get("stages_ms", {}).items():
            stages.setdefault(stage, []).append(float(ms))
    return stages, latency, len(latency)


# ------------------------------------------------------------ self time

def covered(interval: Tuple[float, float],
            children: Iterable[Tuple[float, float]]) -> float:
    """Length of the part of *interval* covered by the union of
    *children* (clipped to *interval*; overlaps count once)."""
    lo, hi = interval
    clipped = sorted((max(lo, start), min(hi, end))
                     for start, end in children)
    total = 0.0
    reach = lo
    for start, end in clipped:
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Tuple[float, float, Optional[int]]]
               ) -> List[float]:
    """Self time of each ``(start, end, parent_index)`` span: its
    duration minus the part its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [(end - start) - covered((start, end), children.get(i, ()))
            for i, (start, end, _) in enumerate(spans)]
