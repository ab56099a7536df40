"""Property tests: the oracle vs. the real pipeline at scale.

Two halves.  First, volume: 200 seeded random programs through the
full compile pipeline must produce zero violations under every
processor-model family and both alias models -- the oracle may not
cry wolf.  Second, teeth at scale: systematically corrupted versions
of real schedules must always be rejected.  A final section
cross-checks the oracle's independently restated analyses against the
production ones (alias predicate, dependence order, spill-region
naming), which is what licenses calling the oracle "independent"
rather than "divergent".
"""

import numpy as np
import pytest

from repro.analysis.alias import AliasModel, may_alias
from repro.analysis.dependence import build_dag, ordered_pairs
from repro.core.balanced import BalancedScheduler
from repro.core.pipeline import compile_block
from repro.core.traditional import TraditionalScheduler
from repro.ir.operands import MemRef, RegClass, VirtualReg
from repro.regalloc.spill import SPILL_HOME_REGION, SPILL_OUT_REGION
from repro.simulate.rng import spawn
from repro.verify.oracle import (
    check_compiled,
    check_schedule,
    constrained_pairs,
)
from repro.verify import oracle
from repro.verify.fuzz import FUZZ_PROCESSORS
from tests.support.equivalence import block_effect
from tests.support.generator import random_block

N_PROGRAMS = 200
POLICIES = (
    lambda: BalancedScheduler(),
    lambda: TraditionalScheduler(2),
)


def _case(seed: int):
    rng = spawn("verify-properties", seed)
    block = random_block(rng, n_instructions=int(rng.integers(4, 26)))
    model = (
        AliasModel.FORTRAN if seed % 2 == 0 else AliasModel.C_CONSERVATIVE
    )
    policy = POLICIES[seed % len(POLICIES)]()
    return block, policy, model


@pytest.mark.parametrize("chunk", range(10))
def test_real_pipeline_never_violates(chunk):
    """200 random programs, zero violations across every model family."""
    span = N_PROGRAMS // 10
    for seed in range(chunk * span, (chunk + 1) * span):
        block, policy, model = _case(seed)
        compiled = compile_block(block, policy, alias_model=model)
        violations = check_compiled(
            compiled, model, processors=FUZZ_PROCESSORS
        )
        assert violations == [], (
            f"seed {seed} ({policy.name}, {model.value}): {violations[:3]}"
        )


@pytest.mark.parametrize("seed", range(0, 40, 2))
def test_corrupted_schedules_always_rejected(seed):
    """Swap/drop/duplicate applied to a *real* schedule must be caught."""
    block, policy, model = _case(seed)
    compiled = compile_block(block, policy, register_file=None,
                             alias_model=model)
    source, scheduled = compiled.source, compiled.pass1.block

    # Drop the last instruction.
    dropped = scheduled.replaced(scheduled.instructions[:-1])
    assert any(
        v.rule == "completeness"
        for v in check_schedule(source, dropped, model)
    )

    # Duplicate the first instruction.
    duplicated = scheduled.replaced(
        scheduled.instructions + [scheduled.instructions[0]]
    )
    assert any(
        v.rule == "completeness"
        for v in check_schedule(source, duplicated, model)
    )

    # Swap the first constrained pair (skip blocks with none).
    pairs = constrained_pairs(source.instructions, model)
    if not pairs:
        return
    i, j = pairs[0]
    position = {
        inst.ident: k for k, inst in enumerate(scheduled.instructions)
    }
    pi = position[source.instructions[i].ident]
    pj = position[source.instructions[j].ident]
    instructions = list(scheduled.instructions)
    instructions[pi], instructions[pj] = instructions[pj], instructions[pi]
    assert any(
        v.rule == "dependence"
        for v in check_schedule(
            source, scheduled.replaced(instructions), model
        )
    )


# ----------------------------------------------------------------------
# Cross-checks: restated analyses vs. production analyses
# ----------------------------------------------------------------------
def _transitive_closure(pairs, n):
    succ = {i: set() for i in range(n)}
    for i, j in pairs:
        succ[i].add(j)
    reached = {}

    def reach(i):
        if i not in reached:
            acc = set()
            reached[i] = acc
            for j in succ[i]:
                acc.add(j)
                acc.update(reach(j))
        return reached[i]

    return {(i, j) for i in range(n) for j in reach(i)}


@pytest.mark.parametrize("model", list(AliasModel), ids=lambda m: m.value)
def test_constrained_pairs_generate_the_dag_order(model):
    """closure(oracle pairs) == closure(DAG edges), on random blocks.

    The oracle's direct-conflict relation lists fewer pairs than the
    DAG's transitive order (chained constraints are implied, not
    listed), but both must generate the *same* total-order constraint.
    """
    for seed in range(30):
        rng = np.random.default_rng(seed)
        block = random_block(rng, n_instructions=16)
        n = len(block.instructions)
        direct = constrained_pairs(block.instructions, model)
        want = ordered_pairs(build_dag(block, alias_model=model))
        got = _transitive_closure(direct, n)
        assert set(direct) <= want, f"seed {seed}: oracle over-constrains"
        assert got == want, f"seed {seed}: orders diverge"


def test_oracle_alias_agrees_with_production_alias():
    rng = np.random.default_rng(7)
    regs = [VirtualReg(i, RegClass.INT) for i in range(3)]
    regions = ["va", "vb", "__spill0", "__spill_home"]
    for _ in range(2000):
        def ref():
            return MemRef(
                region=regions[rng.integers(0, len(regions))],
                base=regs[rng.integers(0, len(regs))],
                offset=int(rng.integers(-2, 3)),
                affine_coeff=[None, 1, 2][rng.integers(0, 3)],
            )
        a, b = ref(), ref()
        for model in AliasModel:
            assert oracle.oracle_may_alias(a, b, model) == may_alias(
                a, b, model
            ), (a, b, model)


def test_oracle_spill_naming_matches_allocator():
    assert oracle.SPILL_HOME_REGION == SPILL_HOME_REGION
    assert oracle.SPILL_OUT_REGION == SPILL_OUT_REGION
    assert SPILL_HOME_REGION.startswith(oracle.SPILL_PREFIX)
    assert SPILL_OUT_REGION.startswith(oracle.SPILL_PREFIX)


@pytest.mark.parametrize("seed", range(0, 30, 3))
def test_oracle_effect_agrees_with_equivalence_checker(seed):
    """The oracle's private symbolic executor and the reference
    translation validator (``tests.support.equivalence``) must
    summarize a block identically."""
    block, policy, model = _case(seed)
    compiled = compile_block(block, policy, alias_model=model)
    for candidate in (compiled.source, compiled.final):
        stores, live_out = oracle._block_effect(candidate, model)
        reference = block_effect(candidate, model)
        assert stores == reference.store_multiset()
        assert live_out == reference.live_out
