"""Tests for loop steady-state throughput analysis."""

import pytest

from repro.core.balanced import BalancedScheduler
from repro.core.traditional import TraditionalScheduler
from repro.frontend.lowering import compile_minif
from repro.simulate.throughput import recurrence_bound, throughput

STREAM = """
program p
  array a[64], c[64]
  kernel k freq 1
    t1 = a[i] * a[i+1]
    c[i] = t1 + t1
  end
end
"""

REDUCTION = """
program p
  array a[64]
  kernel k freq 1
    s = s + a[i]
  end
end
"""

SPINE = """
program p
  array a[64]
  kernel k freq 1
    s = s * c0 + a[i]
  end
end
"""

CHAINED = """
program p
  array a[64]
  kernel k freq 1
    s = (s + a[i]) / (s - a[i+1])
  end
end
"""


def body_of(source):
    return compile_minif(source, pointer_loads=False).functions[0].blocks[0]


class TestThroughput:
    def test_stream_loop_approaches_issue_limit(self):
        """A fully parallel loop sustains ~n instructions/iteration
        once the unroll factor covers the latency."""
        body = body_of(STREAM)
        result = throughput(body, BalancedScheduler(), load_latency=4,
                            factors=(2, 4, 8, 12))
        assert result.cycles_per_iteration == pytest.approx(len(body), rel=0.3)

    def test_slope_respects_issue_bound_asymptotically(self):
        """Whatever the latency, the sustained rate cannot beat one
        issue slot per instruction (measured at large factors, where
        fill transients no longer bend the fit)."""
        body = body_of(CHAINED)
        for latency in (2, 10):
            result = throughput(
                body, BalancedScheduler(), load_latency=latency,
                factors=(8, 12, 16, 20),
            )
            assert result.cycles_per_iteration >= len(body) - 0.6

    def test_samples_recorded(self):
        body = body_of(STREAM)
        result = throughput(body, BalancedScheduler(), load_latency=2,
                            factors=(2, 4))
        assert len(result.samples) == 2
        assert result.samples[0][0] == 2

    def test_needs_two_factors(self):
        with pytest.raises(ValueError):
            throughput(body_of(STREAM), BalancedScheduler(), 2, factors=(4,))

    def test_balanced_at_least_as_good_as_traditional_hit_weight(self):
        """At a latency above the baseline's optimistic weight, the
        balanced schedule's sustained rate is no worse."""
        body = body_of(STREAM)
        balanced = throughput(body, BalancedScheduler(), load_latency=8,
                              factors=(2, 4, 8))
        traditional = throughput(body, TraditionalScheduler(2), load_latency=8,
                                 factors=(2, 4, 8))
        assert (
            balanced.cycles_per_iteration
            <= traditional.cycles_per_iteration + 0.5
        )


class TestRecurrenceBound:
    def test_no_carried_values_bound_is_one(self):
        assert recurrence_bound(body_of(STREAM), load_latency=9) == 1

    def test_single_op_recurrence_bound_is_one(self):
        """s = s + a[i]: the carried cycle is one unit-latency fadd, so
        iterations can issue back to back -- bound 1."""
        assert recurrence_bound(body_of(REDUCTION), load_latency=9) == 1

    def test_two_op_spine_bound_is_two(self):
        """s = s*c0 + a[i]: fmul -> fadd around the carried cycle."""
        assert recurrence_bound(body_of(SPINE), load_latency=9) == 2

    def test_chained_bound_counts_cycle_latency(self):
        bound = recurrence_bound(body_of(CHAINED), load_latency=9)
        assert bound == 2  # fadd/fsub -> fdiv around the carried cycle

    def test_bound_independent_of_load_latency_off_cycle(self):
        """Loads feed the cycle but are not ON it (they have no carried
        ancestor), so the bound must not scale with load latency."""
        low = recurrence_bound(body_of(REDUCTION), load_latency=2)
        high = recurrence_bound(body_of(REDUCTION), load_latency=50)
        assert low == high

    def test_measured_throughput_respects_bound(self):
        for source in (REDUCTION, CHAINED):
            body = body_of(source)
            bound = recurrence_bound(body, load_latency=6)
            measured = throughput(
                body, BalancedScheduler(), load_latency=6, factors=(4, 8, 12)
            )
            assert measured.cycles_per_iteration >= float(bound) - 0.35
