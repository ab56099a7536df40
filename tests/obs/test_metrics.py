"""Tests for the metrics registry and its exported series keys."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import metrics_json, prometheus_text
from repro.obs.metrics import (
    MetricsRegistry,
    counter_total,
    exported_name,
    render_series,
    series_labels,
    summarize_delta,
)
from tests.support.series_key import series_key, split_series_key


def _state(registry):
    return (
        registry.counters,
        registry.gauges,
        registry.histograms,
        registry.exemplars,
    )


class TestSeriesKey:
    def test_no_labels_is_the_bare_name(self):
        assert render_series(("sim.cycles", ())) == "sim.cycles"
        assert exported_name("sim.cycles") == "sim.cycles"

    def test_labels_sorted_deterministically(self):
        a = series_labels({"b": 1, "a": 2})
        b = series_labels({"a": 2, "b": "1"})
        assert a == b == (("a", "2"), ("b", "1"))
        assert render_series(("x", a)) == "x{a=2,b=1}"

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
        text = render_series(
            ("sim.load_stall_cycles", series_labels(labels))
        )
        assert exported_name(text) == "sim.load_stall_cycles"
        name, back = split_series_key(text)
        assert name == "sim.load_stall_cycles"
        assert back == {str(k): str(v) for k, v in labels.items()}

    def test_non_key_strings_pass_through(self):
        assert exported_name("plain") == "plain"
        assert exported_name("trailing{") == "trailing{"

    def test_exported_counter_total(self):
        m = MetricsRegistry()
        m.inc("sim.cycles", 10, block="b0")
        m.inc("sim.cycles", 20, block="b1")
        m.inc("sim.cyclesx", 5)
        exported = metrics_json(m)["counters"]
        assert counter_total(exported, "sim.cycles") == 30
        assert m.counter_total("sim.cycles") == 30


# Names and labels over the key syntax, Prometheus-hostile characters
# and spaces.  Names leave out "{": the text form of such a name cannot
# be split back, so the string-keyed registry mislabelled its
# Prometheus lines (and could merge distinct series).
_TEXT = st.text(alphabet="ab_.\\,={}() @3", max_size=6)
_NAME = st.text(alphabet="ab_.\\,=}() @3", min_size=1, max_size=6)
_VALUE = st.one_of(_TEXT, st.integers(-3, 40))
_LABELS = st.dictionaries(st.text(alphabet="ab_\\,={}() @", max_size=4),
                          _VALUE, max_size=3)
_WRITE = st.tuples(
    st.sampled_from(["inc", "set_gauge", "observe"]),
    _NAME,
    _LABELS,
    st.integers(0, 9),
)


def _string_oracle(writes):
    """What the string-keyed registry held after ``writes``."""
    counters, gauges, histograms = {}, {}, {}
    for kind, name, labels, value in writes:
        key = series_key(name, labels)
        if kind == "inc":
            counters[key] = counters.get(key, 0) + value
        elif kind == "set_gauge":
            gauges[key] = value
        else:
            hist = histograms.setdefault(key, {})
            hist[value] = hist.get(value, 0) + 1
    return counters, gauges, histograms


def _record(writes):
    m = MetricsRegistry()
    for kind, name, labels, value in writes:
        getattr(m, kind)(name, value, **labels)
    return m


class TestRendererMatchesStringKeys:
    """The structured registry exports every series exactly as the
    string series keys (``tests.support.series_key``) would."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_WRITE, max_size=12))
    def test_metrics_json_keys(self, writes):
        counters, gauges, histograms = _string_oracle(writes)
        exported = metrics_json(_record(writes))
        assert exported["counters"] == {
            k: counters[k] for k in sorted(counters)
        }
        assert list(exported["counters"]) == sorted(counters)
        assert list(exported["gauges"]) == sorted(gauges)
        assert exported["gauges"] == gauges
        assert list(exported["histograms"]) == sorted(histograms)
        assert exported["histograms"] == {
            k: {str(v): hist[v] for v in sorted(hist)}
            for k, hist in histograms.items()
        }

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_WRITE, max_size=12))
    def test_prometheus_lines(self, writes):
        counters, gauges, histograms = _string_oracle(writes)
        # Re-key the oracle's series through the old parser, the labels
        # the string-keyed exporter rendered, inserted in reverse text
        # order: the lines must come out in text order all the same.
        oracle = MetricsRegistry()
        for store, mine in (
            (counters, oracle.counters),
            (gauges, oracle.gauges),
            (histograms, oracle.histograms),
        ):
            for key, value in sorted(store.items(), reverse=True):
                name, labels = split_series_key(key)
                mine[(name, tuple(sorted(labels.items())))] = value
        assert prometheus_text(_record(writes)) == prometheus_text(oracle)

    @given(_NAME, _LABELS)
    def test_render_is_series_key(self, name, labels):
        key = (name, series_labels(labels))
        assert render_series(key) == series_key(name, labels)
        assert split_series_key(render_series(key)) == (
            (name, dict(key[1])) if labels else (name, {})
        )


class TestRegistry:
    def test_counters_accumulate(self):
        m = MetricsRegistry()
        m.inc("sched.steps", 2, block="b0")
        m.inc("sched.steps", 3, block="b0")
        m.inc("sched.steps", 1, block="b1")
        assert m.counters[("sched.steps", (("block", "b0"),))] == 5
        assert m.counters[("sched.steps", (("block", "b1"),))] == 1

    def test_gauges_last_write_wins(self):
        m = MetricsRegistry()
        m.set_gauge("sim.issue_width", 1, processor="UNLIMITED")
        m.set_gauge("sim.issue_width", 8, processor="UNLIMITED")
        assert m.gauges[
            ("sim.issue_width", (("processor", "UNLIMITED"),))
        ] == 8

    def test_histograms_are_exact(self):
        m = MetricsRegistry()
        m.observe("stall", 5)
        m.observe("stall", 5)
        m.observe_many("stall", [2, 5, 9])
        hist = m.histograms[("stall", ())]
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
        assert 9 not in counted.histograms[
            ("sim.latency_draw", (("block", "b0"),))
        ]

    def test_empty_input_still_creates_the_series(self):
        # Mirrors observe_many over an empty iterable (a load-free
        # block's latency draws).
        counted, many = MetricsRegistry(), MetricsRegistry()
        counted.observe_counts("sim.latency_draw", [], [], block="b0")
        many.observe_many("sim.latency_draw", [], block="b0")
        assert _state(counted) == _state(many)

    def test_same_merge_and_summary(self):
        one_by_one, counted = self._pair()
        assert _state(counted) == _state(one_by_one)
        merged_a, merged_b = MetricsRegistry(), MetricsRegistry()
        merged_a.merge(one_by_one)
        merged_a.merge(one_by_one)
        merged_b.merge(counted)
        merged_b.observe_counts(
            "sim.load_stall_cycles", [1, 3, 7], [2, 3, 1], load=2
        )
        merged_b.observe_counts("sim.latency_draw", [5], [1], block="b0")
        assert _state(merged_a) == _state(merged_b)
        assert summarize_delta(one_by_one) == summarize_delta(counted)


class TestMerge:
    def test_merge_is_addition(self):
        parent = MetricsRegistry()
        parent.inc("a", 1)
        parent.observe("h", 2)
        child = MetricsRegistry()
        child.inc("a", 4)
        child.observe_counts("h", [2, 3], [1, 2])
        child.set_gauge("g", 7)
        parent.merge(child)
        assert parent.counters[("a", ())] == 5
        assert parent.histograms[("h", ())] == {2: 2, 3: 2}
        assert parent.gauges == {("g", ()): 7}

    def test_merged_child_equals_recording_into_the_parent(self):
        # Zero counters and empty series survive the merge, so the
        # parent ends up exactly as if the child's writes went to it.
        direct, parent, child = (
            MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        )
        for registry in (direct, child):
            registry.inc("sched.gind_memo_hits", 0, block="b")
            registry.observe_many("sim.latency_draw", [], block="b")
            registry.inc("sim.cycles", 3)
            registry.observe("sim.load_stall_cycles", 2, exemplar={"t": "1"})
        parent.merge(child)
        assert _state(parent) == _state(direct)

    def test_registry_survives_pickling(self):
        # The worker -> parent pool boundary moves child registries by
        # pickle.
        m = MetricsRegistry()
        m.inc("a", 1, block="b0")
        m.observe("h", 9, load=3)
        m.set_gauge("g", 2)
        m.observe("l", 4, exemplar={"trace_id": "t"})
        assert _state(pickle.loads(pickle.dumps(m))) == _state(m)


class TestSummarizeDelta:
    def test_collapses_labels_by_base_name(self):
        m = MetricsRegistry()
        m.inc("sim.cycles", 10, block="b0")
        m.inc("sim.cycles", 20, block="b1")
        m.observe("sim.load_stall_cycles", 5, load=0)
        m.observe("sim.load_stall_cycles", 7, load=1)
        summary = summarize_delta(m)
        assert summary["counters"] == {"sim.cycles": 30}
        assert summary["histograms"] == {
            "sim.load_stall_cycles": {"count": 2, "total": 12}
        }

    def test_empty_delta_summarises_to_empty_dict(self):
        assert summarize_delta(MetricsRegistry()) == {}

    def test_zero_counters_and_empty_histograms_are_left_out(self):
        m = MetricsRegistry()
        m.inc("sched.gind_memo_hits", 0)
        m.inc("sim.interlock_cycles", 0, block="b0")
        m.inc("sim.interlock_cycles", 4, block="b1")
        m.observe_many("sim.latency_draw", [], block="b0")
        m.set_gauge("sim.runs_configured", 3)
        assert summarize_delta(m) == {
            "counters": {"sim.interlock_cycles": 4}
        }
