"""Unit tests for the statistics collectors and the tracer."""

import math

import pytest

from repro.sim.stats import Counter, Histogram, LatencyRecorder, RateMeter, StatsRegistry
from repro.sim.trace import Tracer


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter().value == 0

    def test_increment(self):
        counter = Counter()
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter().increment(-1)

    def test_reset(self):
        counter = Counter()
        counter.increment(7)
        counter.reset()
        assert counter.value == 0


class TestHistogram:
    def test_mean_min_max(self):
        histogram = Histogram()
        for sample in (2, 4, 6):
            histogram.add(sample)
        assert histogram.mean == pytest.approx(4.0)
        assert histogram.minimum == 2
        assert histogram.maximum == 6
        assert histogram.count == 3

    def test_weighted_samples(self):
        histogram = Histogram()
        histogram.add(10, weight=3)
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(10.0)

    def test_percentile(self):
        histogram = Histogram()
        for sample in range(1, 101):
            histogram.add(sample)
        assert histogram.percentile(50) == 50
        assert histogram.percentile(100) == 100

    def test_percentile_out_of_range(self):
        histogram = Histogram()
        histogram.add(1)
        with pytest.raises(ValueError):
            histogram.percentile(150)

    def test_empty_histogram(self):
        histogram = Histogram()
        assert histogram.percentile(50) is None
        assert math.isnan(histogram.mean)

    def test_to_dict_sorted(self):
        histogram = Histogram()
        histogram.add(5)
        histogram.add(1)
        histogram.add(5)
        assert histogram.to_dict() == {1: 1, 5: 2}


class TestLatencyRecorder:
    def test_records_latency(self):
        recorder = LatencyRecorder()
        recorder.record(10, 25)
        recorder.record(20, 30)
        assert recorder.count == 2
        assert recorder.minimum == 10
        assert recorder.maximum == 15
        assert recorder.jitter == 5

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(10, 5)

    def test_empty_jitter_is_none(self):
        assert LatencyRecorder().jitter is None


class TestRateMeter:
    def test_rate_over_window(self):
        meter = RateMeter()
        for cycle in range(10):
            meter.add(cycle, 2)
        assert meter.items == 20
        assert meter.rate_per_cycle(10) == pytest.approx(2.0)

    def test_rate_over_observed_span(self):
        meter = RateMeter()
        meter.add(0, 1)
        meter.add(9, 1)
        assert meter.rate_per_cycle() == pytest.approx(0.2)

    def test_throughput_conversion(self):
        meter = RateMeter()
        for cycle in range(100):
            meter.add(cycle, 1)
        # 1 word (32 bits) per cycle at 500 MHz = 16 Gbit/s.
        assert meter.throughput_gbit_s(100, 500.0) == pytest.approx(16.0)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            RateMeter().rate_per_cycle(0)


class TestStatsRegistry:
    def test_collectors_are_memoized(self):
        registry = StatsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.latency("l") is registry.latency("l")
        assert registry.rate("r") is registry.rate("r")

    def test_summary_contains_all_collectors(self):
        registry = StatsRegistry()
        registry.counter("flits").increment(3)
        registry.latency("lat").record(0, 7)
        summary = registry.summary()
        assert summary["counter.flits"] == 3
        assert summary["latency.lat.max"] == 7


class TestTracer:
    def test_records_events(self):
        tracer = Tracer()
        tracer.record(100, "router", "forward", packet=1)
        assert len(tracer.events) == 1
        assert tracer.events[0].details["packet"] == 1

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.record(0, "x", "y")
        assert tracer.events == []

    def test_kind_filtering(self):
        tracer = Tracer(kinds={"forward"})
        tracer.record(0, "r", "forward")
        tracer.record(0, "r", "drop")
        assert len(tracer.events) == 1

    def test_filter_query(self):
        tracer = Tracer()
        tracer.record(0, "a", "x")
        tracer.record(0, "b", "x")
        tracer.record(0, "a", "y")
        assert len(tracer.filter(kind="x")) == 2
        assert len(tracer.filter(source="a")) == 2
        assert len(tracer.filter(kind="x", source="a")) == 1

    def test_filter_predicate(self):
        tracer = Tracer()
        for i in range(6):
            tracer.record(i * 10, "a" if i % 2 else "b", "x", seq=i)
        late = tracer.filter(predicate=lambda e: e.time_ps >= 30)
        assert [e.details["seq"] for e in late] == [3, 4, 5]
        # predicate composes with the kind/source filters.
        both = tracer.filter(source="a",
                             predicate=lambda e: e.details["seq"] > 1)
        assert [e.details["seq"] for e in both] == [3, 5]

    def test_max_events_cap(self):
        tracer = Tracer(max_events=2)
        for _ in range(5):
            tracer.record(0, "s", "k")
        assert len(tracer.events) == 2

    def test_listener_callback(self):
        tracer = Tracer()
        seen = []
        tracer.add_listener(seen.append)
        tracer.record(0, "s", "k")
        assert len(seen) == 1

    def test_dump_and_clear(self):
        tracer = Tracer()
        tracer.record(5, "src", "kind", a=1)
        assert "src" in tracer.dump()
        tracer.clear()
        assert tracer.events == []


class TestTracerRingBuffer:
    def test_ring_buffer_keeps_only_newest_events(self):
        tracer = Tracer(ring_buffer=3)
        for i in range(10):
            tracer.record(i, "s", "k", seq=i)
        assert len(tracer.events) == 3
        assert [e.details["seq"] for e in tracer.events] == [7, 8, 9]

    def test_ring_buffer_overrides_max_events(self):
        tracer = Tracer(ring_buffer=3, max_events=1)
        for i in range(5):
            tracer.record(i, "s", "k", seq=i)
        # max_events stops retention; ring_buffer evicts instead.
        assert [e.details["seq"] for e in tracer.events] == [2, 3, 4]

    def test_ring_buffer_must_be_positive(self):
        with pytest.raises(ValueError, match="ring_buffer"):
            Tracer(ring_buffer=0)

    def test_dump_and_filter_work_on_the_ring(self):
        tracer = Tracer(ring_buffer=2)
        tracer.record(0, "a", "x")
        tracer.record(1, "b", "x")
        tracer.record(2, "a", "y")
        assert len(tracer.filter(source="a")) == 1
        # With a ring buffer the retained window is "the moments around
        # the trigger", so limit= renders the newest events, not the head.
        dumped = tracer.dump(limit=1)
        assert "y" in dumped and "b" not in dumped

    def test_dump_limit_is_chronological_head_without_ring(self):
        tracer = Tracer()
        for i in range(5):
            tracer.record(i, "s", "k", seq=i)
        assert "seq=0" in tracer.dump(limit=1)
        assert "seq=4" not in tracer.dump(limit=1)

    def test_dump_tail_renders_newest_regardless_of_storage(self):
        unbounded = Tracer()
        ring = Tracer(ring_buffer=3)
        for i in range(5):
            unbounded.record(i, "s", "k", seq=i)
            ring.record(i, "s", "k", seq=i)
        for tracer in (unbounded, ring):
            dumped = tracer.dump(tail=2)
            assert "seq=3" in dumped and "seq=4" in dumped
            assert "seq=2" not in dumped
        assert unbounded.dump(tail=0) == ""


class TestTracerTrigger:
    def test_armed_tracer_discards_until_predicate_fires(self):
        tracer = Tracer()
        tracer.arm(lambda e: e.kind == "packet_poisoned")
        tracer.record(0, "link", "flit_forwarded")
        tracer.record(1, "link", "flit_forwarded")
        assert tracer.events == [] and not tracer.triggered
        tracer.record(2, "link", "packet_poisoned", packet=7)
        tracer.record(3, "link", "flit_forwarded")
        # Retention starts at the triggering event, inclusive.
        assert [e.kind for e in tracer.events] == ["packet_poisoned",
                                                   "flit_forwarded"]
        assert tracer.triggered

    def test_disarm_resumes_unconditional_retention(self):
        tracer = Tracer()
        tracer.arm(lambda e: False)
        tracer.record(0, "s", "k")
        assert tracer.events == []
        tracer.disarm()
        tracer.record(1, "s", "k")
        assert len(tracer.events) == 1

    def test_trigger_composes_with_ring_buffer(self):
        # The migScope use case: a tiny window of history around a fault,
        # without ever accumulating the whole run.
        tracer = Tracer(ring_buffer=2)
        tracer.arm(lambda e: e.kind == "fault")
        for i in range(100):
            tracer.record(i, "s", "noise", seq=i)
        tracer.record(100, "s", "fault")
        tracer.record(101, "s", "after")
        assert [e.kind for e in tracer.events] == ["fault", "after"]


# ---------------------------------------------------------------------------
# Sliding-window rate meters (per-link bandwidth, health_report()["links"])
# ---------------------------------------------------------------------------
class TestWindowedRate:
    def _rate(self, window=8):
        from repro.sim.stats import WindowedRate
        return WindowedRate(window)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            self._rate(0)

    def test_rate_over_window(self):
        meter = self._rate(8)
        for cycle in range(4):
            meter.add(cycle)
        assert meter.rate(3) == pytest.approx(4 / 8)
        assert meter.total == 4

    def test_old_cycles_age_out(self):
        meter = self._rate(4)
        meter.add(0)
        assert meter.rate(0) == pytest.approx(1 / 4)
        # 10 cycles later the window has slid past the recorded item.
        assert meter.rate(10) == pytest.approx(0.0)
        assert meter.total == 1          # cumulative total never decays

    def test_add_run_equals_per_cycle_adds(self):
        burst, flat = self._rate(8), self._rate(8)
        burst.add_run(3, 5)
        for cycle in range(3, 8):
            flat.add(cycle)
        assert burst.total == flat.total
        assert burst.rate(7) == flat.rate(7)
        assert burst.snapshot(9) == flat.snapshot(9)

    def test_add_run_longer_than_window(self):
        meter = self._rate(4)
        meter.add_run(0, 100)            # only the last 4 cycles observable
        assert meter.total == 100
        assert meter.rate(99) == pytest.approx(1.0)

    def test_snapshot_fields(self):
        meter = self._rate(16)
        meter.add(2, amount=3)
        snap = meter.snapshot(2)
        assert snap == {"window": 16.0,
                        "rate_per_cycle": pytest.approx(3 / 16),
                        "total": 3.0}


# ---------------------------------------------------------------------------
# Counter-threshold trace triggers
# ---------------------------------------------------------------------------
class TestArmOnCounter:
    def test_retains_from_threshold_crossing(self):
        counter = Counter("flits_forwarded")
        tracer = Tracer()
        tracer.arm_on_counter(counter, threshold=3)
        for i in range(5):
            tracer.record(i, "router", "forward", seq=i)
            counter.increment()
        # Records while value < 3 are discarded; the first event recorded
        # at value >= 3 (seq=3) starts retention.
        assert [e.details["seq"] for e in tracer.events] == [3, 4]

    def test_lookup_by_name_in_registry(self):
        registry = StatsRegistry()
        registry.counter("drops").increment(10)
        tracer = Tracer()
        tracer.arm_on_counter("drops", threshold=10, registry=registry)
        tracer.record(0, "link", "drop")
        assert len(tracer.events) == 1

    def test_name_without_registry_raises(self):
        with pytest.raises(ValueError):
            Tracer().arm_on_counter("drops", threshold=1)


# ---------------------------------------------------------------------------
# Per-link bandwidth meters end to end (health_report()["links"])
# ---------------------------------------------------------------------------
class TestLinkBandwidthMeters:
    def test_health_report_links_carry_rates(self):
        from repro.api import scenarios
        system = scenarios.build("gt_be_mix")
        system.run_flit_cycles(200)
        links = system.health_report()["links"]
        assert links                      # every link is metered
        carried_total = 0
        for name, info in links.items():
            assert "->" in name
            assert info["window_cycles"] == 64
            assert info["total"] == info["flits_carried"]
            assert 0.0 <= info["rate_per_cycle"] <= 1.0
            carried_total += info["flits_carried"]
        # Traffic flowed, and the busiest link shows a nonzero window rate.
        assert carried_total > 0
        assert max(info["rate_per_cycle"] for info in links.values()) > 0

    def test_meter_totals_are_batching_invariant(self):
        from repro.api import scenarios
        from repro.sim.batching import unbatched

        def totals():
            system = scenarios.build("gt_be_mix")
            system.run_flit_cycles(150)
            return {name: info["total"]
                    for name, info in system.health_report()["links"].items()}

        batched = totals()
        with unbatched():
            reference = totals()
        assert batched == reference
