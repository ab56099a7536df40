"""Tests for the metrics registry and the series-key codec."""

import pickle

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    series_key,
    split_series_key,
    summarize_delta,
)


class TestSeriesKey:
    def test_no_labels_is_the_bare_name(self):
        assert series_key("sim.cycles", {}) == "sim.cycles"
        assert split_series_key("sim.cycles") == ("sim.cycles", {})

    def test_labels_sorted_deterministically(self):
        a = series_key("x", {"b": 1, "a": 2})
        b = series_key("x", {"a": 2, "b": 1})
        assert a == b == "x{a=2,b=1}"

    @pytest.mark.parametrize(
        "labels",
        [
            {"block": "vdiff", "load": 3},
            {"system": "N(30,5) @ 30"},  # comma inside a value
            {"weird": "a=b,c\\d"},       # every syntax char at once
            {"empty": ""},
        ],
    )
    def test_round_trip(self, labels):
        key = series_key("sim.load_stall_cycles", labels)
        name, back = split_series_key(key)
        assert name == "sim.load_stall_cycles"
        assert back == {str(k): str(v) for k, v in labels.items()}

    def test_non_key_strings_pass_through(self):
        assert split_series_key("plain") == ("plain", {})
        assert split_series_key("trailing{") == ("trailing{", {})


class TestRegistry:
    def test_counters_accumulate(self):
        m = MetricsRegistry()
        m.inc("sched.steps", 2, block="b0")
        m.inc("sched.steps", 3, block="b0")
        m.inc("sched.steps", 1, block="b1")
        assert m.counters["sched.steps{block=b0}"] == 5
        assert m.counters["sched.steps{block=b1}"] == 1

    def test_gauges_last_write_wins(self):
        m = MetricsRegistry()
        m.set_gauge("sim.issue_width", 1, processor="UNLIMITED")
        m.set_gauge("sim.issue_width", 8, processor="UNLIMITED")
        assert m.gauges["sim.issue_width{processor=UNLIMITED}"] == 8

    def test_histograms_are_exact(self):
        m = MetricsRegistry()
        m.observe("stall", 5)
        m.observe("stall", 5)
        m.observe_many("stall", [2, 5, 9])
        hist = m.histograms["stall"]
        assert hist == {5: 3, 2: 1, 9: 1}
        assert MetricsRegistry.histogram_count(hist) == 5
        assert MetricsRegistry.histogram_total(hist) == 5 * 3 + 2 + 9

    def test_series_lists_every_label_set(self):
        m = MetricsRegistry()
        m.inc("x", 1, a="1")
        m.observe("x", 2, a="2")
        m.set_gauge("y", 3)
        found = m.series("x")
        assert [labels for _key, labels in found] == [{"a": "1"}, {"a": "2"}]
        assert m.series("missing") == []


class TestObserveCounts:
    """``observe_counts`` is ``observe`` for data that is counted
    already: the registries must be indistinguishable."""

    @staticmethod
    def _pair():
        one_by_one, counted = MetricsRegistry(), MetricsRegistry()
        for value in (3, 1, 3, 7, 3, 1):
            one_by_one.observe("sim.load_stall_cycles", value, load=2)
        one_by_one.observe("sim.latency_draw", 5, block="b0")
        counted.observe_counts(
            "sim.load_stall_cycles", [1, 3, 7], [2, 3, 1], load=2
        )
        counted.observe_counts("sim.latency_draw", [5, 9], [1, 0], block="b0")
        return one_by_one, counted

    def test_same_histograms_as_repeated_observe(self):
        one_by_one, counted = self._pair()
        assert counted.histograms == one_by_one.histograms
        # A zero count adds no bin, just as no observe call would.
        assert 9 not in counted.histograms["sim.latency_draw{block=b0}"]

    def test_empty_input_still_creates_the_series(self):
        # Mirrors observe_many over an empty iterable (a load-free
        # block's latency draws).
        counted, many = MetricsRegistry(), MetricsRegistry()
        counted.observe_counts("sim.latency_draw", [], [], block="b0")
        many.observe_many("sim.latency_draw", [], block="b0")
        assert counted.snapshot() == many.snapshot()

    def test_same_snapshot_delta_and_merge(self):
        one_by_one, counted = self._pair()
        assert counted.snapshot() == one_by_one.snapshot()
        empty = MetricsRegistry().snapshot()
        delta_a = MetricsRegistry.delta(empty, one_by_one.snapshot())
        delta_b = MetricsRegistry.delta(empty, counted.snapshot())
        assert delta_a == delta_b
        merged_a, merged_b = MetricsRegistry(), MetricsRegistry()
        merged_a.merge(delta_a)
        merged_a.merge(delta_a)
        merged_b.merge(delta_b)
        merged_b.observe_counts(
            "sim.load_stall_cycles", [1, 3, 7], [2, 3, 1], load=2
        )
        merged_b.observe_counts("sim.latency_draw", [5], [1], block="b0")
        assert merged_a.snapshot() == merged_b.snapshot()
        assert summarize_delta(delta_a) == summarize_delta(delta_b)


class TestSnapshotDeltaMerge:
    def test_delta_contains_only_what_changed(self):
        m = MetricsRegistry()
        m.inc("a", 5)
        m.observe("h", 1)
        before = m.snapshot()
        m.inc("a", 2)
        m.inc("b", 1)
        m.observe("h", 1)
        m.observe("h", 4)
        m.set_gauge("g", 7)
        delta = MetricsRegistry.delta(before, m.snapshot())
        assert delta["counters"] == {"a": 2, "b": 1}
        assert delta["histograms"] == {"h": {1: 1, 4: 1}}
        assert delta["gauges"] == {"g": 7}

    def test_unchanged_snapshot_gives_empty_delta(self):
        m = MetricsRegistry()
        m.inc("a", 5)
        snap = m.snapshot()
        delta = MetricsRegistry.delta(snap, m.snapshot())
        assert delta == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_merge_is_addition(self):
        parent = MetricsRegistry()
        parent.inc("a", 1)
        parent.observe("h", 2)
        parent.merge({"counters": {"a": 4}, "histograms": {"h": {2: 1, 3: 2}}})
        assert parent.counters["a"] == 5
        assert parent.histograms["h"] == {2: 2, 3: 2}

    def test_delta_survives_pickling(self):
        # The worker -> parent pool boundary moves deltas by pickle.
        m = MetricsRegistry()
        before = m.snapshot()
        m.inc("a", 1, block="b0")
        m.observe("h", 9, load=3)
        delta = MetricsRegistry.delta(before, m.snapshot())
        assert pickle.loads(pickle.dumps(delta)) == delta


class TestSummarizeDelta:
    def test_collapses_labels_by_base_name(self):
        m = MetricsRegistry()
        before = m.snapshot()
        m.inc("sim.cycles", 10, block="b0")
        m.inc("sim.cycles", 20, block="b1")
        m.observe("sim.load_stall_cycles", 5, load=0)
        m.observe("sim.load_stall_cycles", 7, load=1)
        delta = MetricsRegistry.delta(before, m.snapshot())
        summary = summarize_delta(delta)
        assert summary["counters"] == {"sim.cycles": 30}
        assert summary["histograms"] == {
            "sim.load_stall_cycles": {"count": 2, "total": 12}
        }

    def test_empty_delta_summarises_to_empty_dict(self):
        assert summarize_delta(
            {"counters": {}, "gauges": {}, "histograms": {}}
        ) == {}
