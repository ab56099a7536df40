"""The staged compile memo (:class:`repro.core.pipeline.StageMemo`).

Compiling through a shared memo must give exactly what compiling
without one gives -- instructions, pass orders, spill counts and, with
observability on, metrics -- for every compilation ``run all`` makes.
A DAG the memo hands out is shared by every policy, so no policy may
write into it.  The process-wide memo behind the experiments builds
each pass-1 DAG once, is left alone by the renderers a daemon serves,
and is emptied by ``profile``.
"""

from __future__ import annotations

import pickle

import pytest

from repro import obs
from repro.analysis.alias import AliasModel
from repro.core import (
    AverageWeightScheduler,
    BalancedScheduler,
    OptimalScheduler,
    TraditionalScheduler,
    compile_block,
    compile_program,
)
from repro.core.pipeline import StageMemo
from repro.core.scheduler import Direction
from repro.experiments import common, runner
from repro.experiments.common import COMPILATION_CACHE, engine_session
from repro.experiments.table2 import run_table2
from repro.frontend import compile_minif
from repro.ir.printer import format_block
from repro.machine.config import paper_system_rows
from repro.obs.export import metrics_json
from repro.regalloc.chaitin import ChaitinAllocator
from repro.regalloc.target import DEFAULT_REGISTER_FILE, UNIMPROVED_REGISTER_FILE
from repro.workloads.perfect import load_program, program_names

LATENCIES = sorted({row.optimistic_latency for row in paper_system_rows()})


def _table_configs():
    """The table compilations: both policies at every table latency."""
    policies = [BalancedScheduler()] + [
        TraditionalScheduler(latency) for latency in LATENCIES
    ]
    return [(policy, {}) for policy in policies]


def _ablation_configs(program):
    """The ablations' compilations of ``program`` beyond the tables'."""
    configs = []
    if program == "MDG":
        configs += [(AverageWeightScheduler(), {})]
        configs += [
            (policy, {})
            for policy in (
                BalancedScheduler(direction=Direction.TOP_DOWN),
                TraditionalScheduler(2, direction=Direction.TOP_DOWN),
            )
        ]
        configs += [
            (policy, {"alias_model": AliasModel.C_CONSERVATIVE})
            for policy in (BalancedScheduler(), TraditionalScheduler(2))
        ]
    if program == "QCD2":
        configs += [
            (policy, {"register_file": UNIMPROVED_REGISTER_FILE})
            for policy in (BalancedScheduler(), TraditionalScheduler(2))
        ]
    if program == "BDNA":
        configs += [
            (policy, {"allocator": ChaitinAllocator(DEFAULT_REGISTER_FILE)})
            for policy in (
                BalancedScheduler(),
                TraditionalScheduler(2),
                TraditionalScheduler(30),
            )
        ]
    return configs


def _surface(compiled):
    """Everything a compilation's consumers read, as plain values."""
    return [
        (
            format_block(b.final),
            [inst.tag for inst in b.final],
            b.pass1.order,
            b.pass2.order if b.pass2 is not None else None,
            b.spill_count,
            b.pass1.noop_span,
        )
        for b in compiled.blocks
    ]


class TestMemoEqualsNoMemo:
    @pytest.mark.parametrize("program", program_names())
    def test_every_run_all_compilation(self, program):
        memo = StageMemo()
        source = load_program(program)
        for policy, options in _table_configs() + _ablation_configs(program):
            # Twice through the memo: the second compilation is all hits.
            for _ in range(2):
                shared = compile_program(source, policy, memo=memo, **options)
                alone = compile_program(source, policy, **options)
                assert _surface(shared) == _surface(alone), policy.name

    def test_optimal_policy(self):
        memo = StageMemo()
        source = load_program("TRACK")
        for latency in (2, 5):
            policy = OptimalScheduler(latency)
            shared = compile_program(source, policy, memo=memo)
            again = compile_program(source, OptimalScheduler(latency), memo=memo)
            alone = compile_program(source, policy)
            assert _surface(shared) == _surface(alone) == _surface(again)
            assert [b.pass1.certified for b in shared.blocks] == [
                b.pass1.certified for b in alone.blocks
            ]

    def test_a_repeat_compilation_reuses_every_stage(self):
        memo = StageMemo()
        source = load_program("ADM")
        first = compile_program(source, BalancedScheduler(), memo=memo)
        size = len(memo)
        second = compile_program(source, BalancedScheduler(), memo=memo)
        assert len(memo) == size
        for a, b in zip(first.blocks, second.blocks):
            assert a.pass1 is b.pass1 and a.pass2 is b.pass2
            assert a.allocation is b.allocation
        block = source.all_blocks()[0]
        assert memo.dag(block, AliasModel.FORTRAN) is memo.dag(
            block, AliasModel.FORTRAN
        )
        assert memo.dag(block, AliasModel.FORTRAN) is not memo.dag(
            block, AliasModel.C_CONSERVATIVE
        )


class TestSharedDagIsNeverWritten:
    def test_dag_byte_unchanged_under_every_policy(self):
        memo = StageMemo()
        block = load_program("MDG").all_blocks()[0]
        dag = memo.dag(block, AliasModel.FORTRAN)
        before = pickle.dumps(dag)
        for policy in (
            BalancedScheduler(),
            BalancedScheduler(direction=Direction.TOP_DOWN),
            TraditionalScheduler(2),
            TraditionalScheduler(30),
            AverageWeightScheduler(),
            OptimalScheduler(2),
            OptimalScheduler(5),
        ):
            compile_block(block, policy, memo=memo)
            assert memo.dag(block, AliasModel.FORTRAN) is dag
            assert pickle.dumps(dag) == before, policy.name


class TestObservedHits:
    """A stage hit records what the skipped work would have."""

    @staticmethod
    def _metrics(fn):
        with obs.recording() as rec:
            fn()
        return metrics_json(rec.metrics)

    def test_hits_replay_the_skipped_metrics(self):
        source = load_program("ADM")
        memo = StageMemo()
        with obs.recording():
            compile_program(source, BalancedScheduler(), memo=memo)
        for policy in (BalancedScheduler(), TraditionalScheduler(2)):
            shared = self._metrics(
                lambda: compile_program(source, policy, memo=memo)
            )
            alone = self._metrics(lambda: compile_program(source, policy))
            assert shared == alone
            assert shared["counters"]["regalloc.blocks"] == len(
                source.all_blocks()
            )

    def test_entries_filled_with_obs_off_observe_on_a_later_hit(self):
        source = load_program("ADM")
        memo = StageMemo()
        compile_program(source, BalancedScheduler(), memo=memo)
        size = len(memo)
        shared = self._metrics(
            lambda: compile_program(source, BalancedScheduler(), memo=memo)
        )
        alone = self._metrics(
            lambda: compile_program(source, BalancedScheduler())
        )
        assert shared == alone
        assert len(memo) == size

    def test_decision_log_hits_record_every_step(self):
        block = load_program("ADM").all_blocks()[0]
        memo = StageMemo()
        compile_block(block, BalancedScheduler(), memo=memo)
        with obs.recording(decisions=True) as shared:
            compile_block(block, BalancedScheduler(), memo=memo)
        with obs.recording(decisions=True) as alone:
            compile_block(block, BalancedScheduler())
        assert shared.decisions.render() == alone.decisions.render()

    def test_obs_off_keeps_no_registry(self):
        memo = StageMemo()
        compile_program(load_program("ADM"), BalancedScheduler(), memo=memo)
        tables = [memo._schedules, memo._allocations] + [
            entry.weights for entry in memo._dags.values()
        ]
        for table in tables:
            assert all(entry[1] is None for entry in table.values())


class TestProcessWideCache:
    def test_table2_builds_each_pass1_dag_once(self, monkeypatch):
        from repro.core import pipeline

        # Fresh per-process evaluators, so the cells compile the suite
        # program load_program returns now (and other tests' evaluators
        # are left as they were).
        monkeypatch.setattr(common, "_EVALUATORS", {})
        COMPILATION_CACHE.clear()
        sources = {id(b) for b in load_program("ADM").all_blocks()}
        built = []
        real_build_dag = pipeline.build_dag

        def counting(block, alias_model=AliasModel.FORTRAN, **kwargs):
            if id(block) in sources:
                built.append((id(block), alias_model))
            return real_build_dag(block, alias_model=alias_model, **kwargs)

        monkeypatch.setattr(pipeline, "build_dag", counting)
        with engine_session(cache=None, manifest=None, resume=False):
            run_table2(programs=["ADM"], runs=3)
        assert sorted(built) == sorted(
            (key, AliasModel.FORTRAN) for key in sources
        )

    def test_renderers_leave_the_process_cache_alone(self):
        program = compile_minif(
            """
program p
  array a[64], b[64]
  scalar s
  kernel k freq 3 unroll 2
    s = s + a[i] * b[i]
  end
end
"""
        )
        before = (len(COMPILATION_CACHE), len(COMPILATION_CACHE.stages))
        runner.render_compile(program, latency=3)
        for policy in ("balanced", "traditional", "optimal"):
            runner.render_schedule(program, policy_name=policy)
        runner.render_explain(program)
        with obs.recording():
            runner.render_compile(program)
        assert (len(COMPILATION_CACHE), len(COMPILATION_CACHE.stages)) == before

    def test_profile_clears_the_stage_tables(self, capsys):
        COMPILATION_CACHE.compile(load_program("TRACK"), BalancedScheduler())
        assert len(COMPILATION_CACHE.stages) > 0
        assert runner.main(["profile", "figure2"]) == 0
        capsys.readouterr()
        assert len(COMPILATION_CACHE.stages) == 0
