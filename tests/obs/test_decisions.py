"""Tests for the scheduler decision log and its instrumentation.

The load-bearing property is *equivalence*: scheduling with the
decision-logging selection path must pick exactly the same instruction
at every step as the bare fast path, on real workloads.
"""

import pytest

from repro.core.balanced import BalancedScheduler
from repro.core.traditional import TraditionalScheduler
from repro.obs import recorder as obs
from repro.obs.decisions import Candidate, Decision, DecisionLog
from repro.workloads.perfect import load_program, program_names

REASONS = ("only-candidate", "priority", "tie-break:", "discovery-order")


def _schedule_orders(policy_factory, block):
    """The block's instruction order with obs off vs. obs+decisions on."""
    plain = policy_factory().schedule_block(block)
    with obs.recording(decisions=True) as rec:
        observed = policy_factory().schedule_block(block)
    return plain, observed, rec


class TestObservedSelectionEquivalence:
    @pytest.mark.parametrize("name", program_names())
    def test_observed_path_schedules_identically(self, name):
        """The narrated selection (`_explain`, obs on) and the packed-key
        `argmax` (obs off) agree on every step of every suite block, for
        both policies."""
        program = load_program(name)
        for function in program:
            for block in function:
                for factory in (
                    BalancedScheduler,
                    lambda: TraditionalScheduler(2),
                ):
                    plain, observed, _rec = _schedule_orders(factory, block)
                    assert [
                        str(i) for i in plain.block.instructions
                    ] == [str(i) for i in observed.block.instructions]

    def test_every_decision_has_a_known_reason(self):
        block = next(iter(next(iter(load_program("MDG")))))
        with obs.recording(decisions=True) as rec:
            BalancedScheduler().schedule_block(block)
        assert len(rec.decisions) > 0
        for entry in rec.decisions.entries:
            assert entry.reason.startswith(REASONS)
            chosen_nodes = [c.node for c in entry.candidates]
            assert entry.chosen in chosen_nodes

    def test_single_candidate_steps_say_so(self):
        block = next(iter(next(iter(load_program("MDG")))))
        with obs.recording(decisions=True) as rec:
            BalancedScheduler().schedule_block(block)
        for entry in rec.decisions.entries:
            if len(entry.candidates) == 1:
                assert entry.reason == "only-candidate"

    def test_metrics_recorded_without_decision_log(self):
        block = next(iter(next(iter(load_program("MDG")))))
        with obs.recording() as rec:  # decisions NOT requested
            BalancedScheduler().schedule_block(block)
        assert rec.decisions is None
        reasons = rec.metrics.series("sched.select_reason")
        assert reasons, "selection metrics must not depend on the log"
        sizes = rec.metrics.series("sched.ready_size")
        assert sizes


class TestDecisionLog:
    def _log(self, entries):
        log = DecisionLog()
        for entry in entries:
            log.record(entry)
        return log

    def _decision(self, block="b0", step=0, chosen=1, reason="priority"):
        return Decision(
            block=block,
            step=step,
            time=str(step),
            chosen=chosen,
            reason=reason,
            candidates=(
                Candidate(node=1, priority="3", text="load r1, a[0]"),
                Candidate(node=2, priority="2", text="add r3, r1, r2"),
            ),
        )

    def test_counts_by_reason(self):
        log = self._log(
            [
                self._decision(step=0, reason="priority"),
                self._decision(step=1, reason="priority"),
                self._decision(step=2, reason="only-candidate"),
            ]
        )
        assert log.counts_by_reason() == {"only-candidate": 1, "priority": 2}

    def test_blocks_in_first_appearance_order(self):
        log = self._log(
            [
                self._decision(block="b1", step=0),
                self._decision(block="b0", step=1),
                self._decision(block="b1", step=2),
            ]
        )
        assert log.blocks() == ["b1", "b0"]
        assert len(log.for_block("b1")) == 2

    def test_render_marks_the_winner(self):
        lines = self._log([self._decision()]).render()
        assert lines[0] == "== block b0 =="
        winner = [line for line in lines if line.lstrip().startswith("*")]
        assert len(winner) == 1
        assert "#1" in winner[0]

    def test_identical_logs_diff_empty(self):
        a = self._log([self._decision()])
        b = self._log([self._decision()])
        assert DecisionLog.diff(a, b) == []

    def test_differing_logs_produce_a_unified_diff(self):
        a = self._log([self._decision(chosen=1, reason="priority")])
        b = self._log([self._decision(chosen=2, reason="tie-break:x")])
        diff = DecisionLog.diff(a, b, "balanced", "traditional")
        assert diff[0] == "--- balanced"
        assert diff[1] == "+++ traditional"
        assert any(line.startswith("-step") for line in diff)
        assert any(line.startswith("+step") for line in diff)

    def test_real_policies_diff_on_a_suite_block(self):
        """The `explain` payload: balanced and traditional disagree
        somewhere on MDG (if they never did, the paper had no story)."""
        program = load_program("MDG")
        logs = {}
        for tag, policy in (
            ("balanced", BalancedScheduler()),
            ("traditional", TraditionalScheduler(2)),
        ):
            with obs.recording(decisions=True) as rec:
                for function in program:
                    for block in function:
                        policy.schedule_block(block)
            logs[tag] = rec.decisions
        assert DecisionLog.diff(logs["balanced"], logs["traditional"])
