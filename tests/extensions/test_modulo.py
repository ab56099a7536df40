"""Tests for iterative modulo scheduling (Section 6)."""

import pytest

from repro.core.balanced import BalancedScheduler
from repro.core.traditional import TraditionalScheduler
from repro.extensions.modulo import ModuloSchedulingError, modulo_schedule
from repro.frontend.lowering import compile_minif
from repro.ir.block import BasicBlock

STREAM = """
program p
  array a[64], c[64]
  kernel k freq 1
    t1 = a[i] * a[i+1]
    c[i] = t1 + t1
  end
end
"""

DOT = """
program p
  array a[64], b[64]
  kernel k freq 1
    s = s + a[i] * b[i]
  end
end
"""

FILTER = """
program p
  array x[64]
  kernel k freq 1
    s = s * c0 + x[i]
  end
end
"""


def body_of(source):
    return compile_minif(source, pointer_loads=False).functions[0].blocks[0]


class TestModuloSchedule:
    @pytest.mark.parametrize("source", [STREAM, DOT, FILTER])
    def test_achieves_resource_bound_at_unit_weights(self, source):
        """With W=1 weights every loop pipelines at II = n (single
        issue): one instruction per cycle, iterations back to back."""
        body = body_of(source)
        schedule = modulo_schedule(body, TraditionalScheduler(1))
        assert schedule.ii == len(body)
        schedule.validate()

    @pytest.mark.parametrize("source", [STREAM, DOT, FILTER])
    def test_balanced_weights_still_reach_resource_ii(self, source):
        """Software pipelining absorbs the balanced load weights into
        pipeline *depth* (more overlapped stages), not II."""
        body = body_of(source)
        schedule = modulo_schedule(body, BalancedScheduler())
        assert schedule.ii == len(body)
        assert schedule.stage_count >= 1

    def test_bigger_weights_mean_deeper_pipeline(self):
        body = body_of(DOT)
        shallow = modulo_schedule(body, TraditionalScheduler(1))
        deep = modulo_schedule(body, TraditionalScheduler(9))
        assert deep.stage_count > shallow.stage_count
        assert deep.ii == shallow.ii  # latency moves to depth, not II

    def test_superscalar_width_reduces_ii(self):
        body = body_of(STREAM)
        narrow = modulo_schedule(body, TraditionalScheduler(2), issue_width=1)
        wide = modulo_schedule(body, TraditionalScheduler(2), issue_width=2)
        assert wide.ii < narrow.ii
        wide.validate()

    def test_carried_edges_recorded_for_reductions(self):
        schedule = modulo_schedule(body_of(DOT), TraditionalScheduler(1))
        assert schedule.carried_edges
        for edge in schedule.carried_edges:
            assert edge.src in schedule.slots
            assert edge.dst in schedule.slots

    def test_modulo_resource_respected(self):
        schedule = modulo_schedule(body_of(DOT), BalancedScheduler())
        used = [slot % schedule.ii for slot in schedule.slots.values()]
        assert len(used) == len(set(used))  # one instruction per slot

    def test_empty_block_rejected(self):
        with pytest.raises(ModuloSchedulingError):
            modulo_schedule(BasicBlock("empty"), TraditionalScheduler(1))

    def test_format_mentions_ii_and_stages(self):
        schedule = modulo_schedule(body_of(FILTER), BalancedScheduler())
        text = schedule.format()
        assert f"II = {schedule.ii}" in text
        assert "stage" in text


class TestAgainstUnrollingThroughput:
    def test_ii_beats_or_matches_unrolled_throughput(self):
        """Modulo scheduling's II is the throughput target unrolling
        approaches asymptotically: II <= measured cycles/iteration of
        the balanced unrolled schedule (small tolerance for the fit)."""
        from repro.simulate.throughput import throughput

        for source in (DOT, FILTER):
            body = body_of(source)
            schedule = modulo_schedule(body, BalancedScheduler())
            measured = throughput(
                body, BalancedScheduler(), load_latency=6, factors=(4, 8, 12)
            )
            assert schedule.ii <= measured.cycles_per_iteration + 0.5
