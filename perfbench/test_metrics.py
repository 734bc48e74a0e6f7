"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

import gc
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import REFERENCE_S, HostSpeed, reference_kernel  # noqa: E402
from metrics import (MIN_BEYOND, counter_delta, covered,  # noqa: E402
                     histogram_delta, min_samples, parse_prometheus,
                     percentile, self_times, stage_samples)


class TestPercentile:
    def test_p99_needs_ten_samples_beyond(self):
        assert percentile(list(range(999)), 99) is None
        assert percentile(list(range(1000)), 99) == 989
        assert min_samples(99) == 1000

    def test_small_sample_never_reports_its_maximum(self):
        samples = [1.0] * 24 + [50.0]
        assert percentile(samples, 99) is None
        assert percentile(samples, 50) == 1.0

    def test_p50_is_nearest_rank_of_unsorted_input(self):
        assert percentile([5, 1, 4, 2, 3] * 5, 50) == 3
        assert min_samples(50) == 2 * MIN_BEYOND

    def test_empty(self):
        assert percentile([], 50) is None


SCRAPE_1 = """\
# HELP repro_serve_batch_size Micro-batch sizes per shard drain.
# TYPE repro_serve_batch_size histogram
repro_serve_batch_size_bucket{shard="0",le="1"} 10
repro_serve_batch_size_sum{shard="0"} 10
repro_serve_batch_size_count{shard="0"} 10
repro_serve_requests_total{type="step"} 7
repro_serve_requests_total{type="open_session"} 1
repro_serve_records_total 7
"""

SCRAPE_2 = """\
repro_serve_batch_size_bucket{shard="0",le="1"} 12 # {trace_id="ab"} 1
repro_serve_batch_size_sum{shard="0"} 16
repro_serve_batch_size_count{shard="0"} 12
repro_serve_batch_size_sum{shard="1"} 9
repro_serve_batch_size_count{shard="1"} 3
repro_serve_requests_total{type="step"} 7
repro_serve_requests_total{type="step_block"} 4
repro_serve_requests_total{type="open_session"} 2
repro_serve_records_total 1031
"""


class TestPrometheusDeltas:
    def test_parse_labels_and_exemplars(self):
        parsed = parse_prometheus(SCRAPE_2)
        key = ("repro_serve_batch_size_bucket",
               (("le", "1"), ("shard", "0")))
        assert parsed[key] == 12.0
        assert parsed[("repro_serve_records_total", ())] == 1031.0

    def test_histogram_delta_sums_shards_and_new_series(self):
        before, after = parse_prometheus(SCRAPE_1), parse_prometheus(SCRAPE_2)
        count, total = histogram_delta(before, after,
                                       "repro_serve_batch_size")
        assert (count, total) == (5.0, 15.0)
        assert histogram_delta(before, after, "repro_serve_batch_size",
                               shard="1") == (3.0, 9.0)

    def test_counter_delta_label_filter(self):
        before, after = parse_prometheus(SCRAPE_1), parse_prometheus(SCRAPE_2)
        assert counter_delta(before, after, "repro_serve_requests_total",
                             type=("step", "step_block")) == 4.0
        assert counter_delta(before, after, "repro_serve_requests_total") \
            == 5.0
        assert counter_delta(before, after, "repro_serve_errors_total") == 0


def _span(trace_id, source=None, **stages):
    span = {"trace_id": trace_id, "latency_ms": sum(stages.values()),
            "stages_ms": stages}
    if source:
        span["source"] = source
    return span


class TestStageSamples:
    def test_filters_by_id_and_source(self):
        spans = [_span("01", queue=2.0, execute=1.0),
                 _span("02", queue=3.0, execute=0.5),
                 _span("03", queue=9.0),
                 _span("01", "router", route=0.1, proxy=3.0)]
        stages, latency, found = stage_samples(spans, ["01", "02"], "worker")
        assert stages == {"queue": [2.0, 3.0], "execute": [1.0, 0.5]}
        assert latency == {"01": 3.0, "02": 3.5}
        assert found == 2
        stages, _, found = stage_samples(spans, ["01", "02"], "router")
        assert stages == {"route": [0.1], "proxy": [3.0]} and found == 1

    def test_truncated_dump_reports_missing_ids(self):
        # A store keeps its most recent spans only: a phase longer than
        # the store loses its oldest requests.
        capacity = 4096
        dump = [_span(f"{i:016x}", queue=1.0)
                for i in range(5000)][-capacity:]
        wanted = [f"{i:016x}" for i in range(5000)]
        _, _, found = stage_samples(dump, wanted, "worker")
        assert found == capacity

    def test_resent_span_counted_once(self):
        spans = [_span("01", queue=1.0), _span("01", queue=5.0)]
        stages, _, found = stage_samples(spans, ["01"], "worker")
        assert stages == {"queue": [1.0]} and found == 1


class TestSelfTime:
    def test_leaf_and_nested(self):
        spans = [(0.0, 10.0, None), (1.0, 3.0, 0), (5.0, 6.0, 0),
                 (5.2, 5.4, 2)]
        assert self_times(spans) == pytest.approx([7.0, 2.0, 0.8, 0.2])

    def test_overlapping_children_count_once(self):
        spans = [(0.0, 10.0, None), (1.0, 4.0, 0), (3.0, 6.0, 0)]
        assert self_times(spans)[0] == pytest.approx(5.0)

    def test_children_clipped_to_parent(self):
        assert covered((2.0, 4.0), [(0.0, 3.0), (3.5, 9.0)]) == \
            pytest.approx(1.5)


def test_benchmark_json_lists_the_printed_metrics():
    """BENCHMARK.json names exactly the metrics run.py prints."""
    import run
    spec = json.loads((Path(run.__file__).resolve().parents[1]
                       / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_experiment_ids_match_the_registry():
    import run
    sys.path.insert(0, str(run.SRC))
    from repro.harness.experiments import experiment_ids
    assert tuple(experiment_ids()) == run.EXPERIMENT_IDS


class TestHostSpeed:
    def test_factor_is_the_median_sample_over_the_reference(self):
        speed = HostSpeed()
        speed.samples = [REFERENCE_S * x for x in (1.5, 1.0, 9.0)]
        assert speed.factor() == pytest.approx(1.5)

    def test_kernel_leaves_the_collector_as_it_found_it(self):
        assert gc.isenabled()
        assert reference_kernel() > 0
        assert gc.isenabled()
        gc.disable()
        try:
            reference_kernel()
            assert not gc.isenabled()
        finally:
            gc.enable()
