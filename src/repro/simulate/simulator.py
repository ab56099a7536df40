"""Instruction-level basic-block simulator (Section 4.3).

The machine model matches the paper's accounting exactly: an in-order
processor issues one instruction per cycle (``issue_width`` > 1 is the
superscalar extension); a load's destination register becomes ready
``latency`` cycles after issue, with the latency drawn from the memory
system; any instruction whose source registers are not ready stalls
the processor (hardware interlocks).  Consequently, for single-issue
machines, ``runtime = instructions executed + interlock cycles``.

Processor constraints (Section 4.4):

* ``max_outstanding_loads`` (MAX-8): a load cannot issue while that
  many loads are still outstanding; it waits for the earliest
  completion.
* ``max_load_cycles`` (LEN-8): a load outstanding longer than the
  limit freezes the processor from ``issue + limit`` until its data
  returns; no instruction issues inside that window.

One scalar engine, :func:`_simulate_delaytrack`, times every model: the
delay-tracking front end with a table of size 0 never reorders, which
is exactly the in-order interlocked machine.  It records one trace
entry per executed instruction; :func:`simulate_block` summarises that
trace into cycle totals, :func:`~repro.simulate.trace.trace_block`
wraps it with per-instruction stall attribution, and
:func:`delaytrack_issue_trace` exports its issue order.  The batch
kernels in :mod:`repro.simulate.batch` share none of this code and are
the independent reference the engine is tested against.

Simulation is per basic block with cold state (the paper schedules and
simulates block by block); a trailing load whose consumer lives in a
later block costs nothing, identically for both schedulers.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.block import BasicBlock
from ..ir.instructions import Instruction, Opcode
from ..ir.operands import Register
from ..machine.processor import ProcessorModel, UNLIMITED


@dataclass(frozen=True)
class BlockSimResult:
    """Cycle accounting for one simulated execution of one block."""

    cycles: int
    instructions: int
    interlock_cycles: int

    @property
    def interlock_fraction(self) -> float:
        """Fraction of cycles that were interlock (stall) cycles."""
        if self.cycles == 0:
            return 0.0
        return self.interlock_cycles / self.cycles


class LatencyOverrunError(ValueError):
    """Raised when fewer latencies than loads are supplied."""


class StallReason(enum.Enum):
    """Why an instruction issued later than the previous one + 1."""

    NONE = "none"
    OPERAND = "operand"        # waiting for a source register
    LOAD_SLOTS = "load-slots"  # MAX-n: too many outstanding loads
    FREEZE = "freeze"          # LEN-n: processor frozen by a long load


def _validate_latencies(
    instructions: Sequence[Instruction], latencies: Sequence[int]
) -> int:
    """Check ``latencies`` covers every executed load, non-negatively.

    Returns the number of executed (non-NOP) loads.  Extra trailing
    latencies are permitted and ignored, so callers may share one
    oversized sample buffer across blocks; only the entries a load
    will actually consume are validated.  The batch simulator applies
    the same rules with the same messages (see
    ``tests/simulate/test_malformed_inputs.py``).
    """
    n_loads = sum(
        1
        for inst in instructions
        if inst.opcode is not Opcode.NOP and inst.is_load
    )
    if len(latencies) < n_loads:
        raise LatencyOverrunError(
            f"{n_loads} loads but only {len(latencies)} latencies"
        )
    for index in range(n_loads):
        value = int(latencies[index])
        if value < 0:
            raise ValueError(f"negative load latency {value} at load {index}")
    return n_loads


def simulate_block(
    instructions: Sequence[Instruction],
    latencies: Sequence[int],
    processor: ProcessorModel = UNLIMITED,
) -> BlockSimResult:
    """Simulate one execution of a straight-line instruction sequence.

    ``latencies`` supplies the sampled latency of each load, in program
    order (pre-drawing them lets callers vectorise the sampling across
    the 30 runs of an experiment).  The result summarises the engine's
    trace: a single-issue machine's interlocks are its cycles minus the
    instructions issued; a multi-issue machine's are the cycles in
    which nothing issued.
    """
    trace, cycles = _simulate_delaytrack(instructions, latencies, processor)
    if processor.issue_width == 1:
        busy = len(trace)
    else:
        busy = len({entry[1] for entry in trace})
    return BlockSimResult(
        cycles=cycles, instructions=len(trace), interlock_cycles=cycles - busy
    )


def conflict_successors(
    instructions: Sequence[Instruction],
) -> List[List[int]]:
    """Hardware-conservative ordering constraints between instructions.

    ``result[i]`` lists every ``j > i`` whose issue must stay after
    ``i``'s: register dependences (true, anti and output), memory pairs
    involving a store (no compile-time alias knowledge -- the hardware
    assumes any two references may overlap) and block terminators.
    The scalar engine's formulation; the batch kernel restates it as
    array operations and the verification oracle pairwise, each
    independently.
    """
    succ: List[List[int]] = [[] for _ in instructions]
    for j, inst_j in enumerate(instructions):
        for i in range(j):
            if instructions[i].conflicts_with(inst_j):
                succ[i].append(j)
    return succ


def _simulate_delaytrack(
    instructions: Sequence[Instruction],
    latencies: Sequence[int],
    processor: ProcessorModel,
    attribute: bool = False,
    successors: Optional[Sequence[Sequence[int]]] = None,
) -> Tuple[List[tuple], int]:
    """The scalar reference engine: delay-tracking adaptive issue.

    The issue logic keeps a ``load_delay_tracking``-entry table; a load
    wins an entry at issue time when fewer than that many tracked loads
    are still in flight, and only then does the hardware *know* when
    its data returns.  An in-order front end parks (fetches past) the
    head instruction exactly when every operand still in flight comes
    from an issued, tracked load -- the hardware then knows the head's
    ready time and can issue younger work in the meantime.  A stall on
    anything else (an untracked load, a multi-cycle ALU result, an
    operand of a not-yet-issued instruction) stalls fetch in order,
    just like the base interlocked machine.

    Among the visible instructions (parked ones plus the head) the
    earliest-issuable wins, oldest first on ties; reordered issue still
    respects every register dependence, store ordering under
    no-alias-knowledge, terminator placement and the MAX-n / LEN-n /
    BLOCKING resource rules (see :func:`conflict_successors` and
    ``docs/delay_tracking.md``).  A processor without a table (or with
    a table of size 0) never parks anything: that is the in-order
    interlocked model of the paper, single- or multi-issue.  A table
    larger than the block's load count gives perfect per-load
    knowledge.

    Returns ``(trace, cycles)``.  ``trace`` holds one tuple per
    executed (non-NOP) instruction, in issue order: ``(index, issue,
    completion)``, with ``index`` its source position.  With
    ``attribute`` -- only meaningful for the in-order, single-issue,
    non-blocking models :func:`~repro.simulate.trace.check_traceable`
    accepts -- each tuple continues with ``(stall, reason, waited_on,
    waited_on_writer)``: the cycles since the previous issue slot and
    what bound them.  The first operand whose ready time is the maximum
    is the cause, overridden by a MAX-n slot wait and then by a LEN-n
    freeze.  ``cycles`` is the block's runtime: the next free issue
    slot after the last instruction (single issue; a blocking load
    holds it until its data returns), or the last issue cycle + 1.

    ``successors``, when given, is :func:`conflict_successors` of the
    executed (non-NOP) instructions, built once by a caller that
    replays one block many times; it must hold one entry per executed
    instruction.  Omitted, the engine builds it itself.
    """
    _validate_latencies(instructions, latencies)
    width = processor.issue_width
    table = processor.load_delay_tracking or 0
    max_out = processor.max_outstanding_loads
    limit = processor.max_load_cycles
    blocking = processor.blocking_loads

    steps = [
        (pos, inst)
        for pos, inst in enumerate(instructions)
        if inst.opcode is not Opcode.NOP
    ]
    n = len(steps)
    if successors is not None and len(successors) != n:
        raise ValueError(
            f"successors has {len(successors)} entries but the block "
            f"executes {n} instructions"
        )
    trace: List[tuple] = []
    if n == 0:
        return trace, 0

    uses: List[Tuple[Register, ...]] = [inst.all_uses() for _, inst in steps]
    defs: List[Tuple[Register, ...]] = [inst.defs for _, inst in steps]
    is_load = [inst.is_load for _, inst in steps]
    static_lat = [inst.latency for _, inst in steps]
    load_col = []
    col = 0
    for flag in is_load:
        load_col.append(col if flag else -1)
        col += flag
    n_loads = col
    # Only a parked instruction reads its conflict successors, and
    # without a table nothing ever parks.
    succ = successors
    if table and succ is None:
        succ = conflict_successors([inst for _, inst in steps])

    PENDING, PARKED, ISSUED = 0, 1, 2
    status = [PENDING] * n
    e_data = [0] * n          # parked ready times (fixed at park time)
    blocked = [0] * n         # parked conflict-predecessors still unissued
    parked: List[int] = []    # ascending program order
    reg_ready: Dict[Register, int] = {}
    reg_tracked: Dict[Register, bool] = {}
    reg_writer: Dict[Register, int] = {}  # attribution only
    pending_writers: Dict[Register, int] = {}  # empty until a park
    # MAX-n: the max_out largest completions of issued loads, ascending
    # (zero-filled below capacity) -- same formulation as the batch
    # kernel's top-k array, so a load waits until top[0].
    top = [0] * max_out if max_out is not None else None
    # Tracking table occupancy, by the same top-k argument: with
    # table <= n_loads the table is full at issue time t exactly when
    # the table-th largest tracked completion exceeds t.
    always_tracked = table > n_loads
    track_top = [0] * table if 0 < table <= n_loads else None
    windows: deque = deque()  # LEN-n freeze windows, in issue order

    head = 0
    issued_count = 0
    next_free = 0             # width == 1 accounting
    cycle = 0                 # width > 1 accounting
    slots_used = 0
    now = 0                   # current evaluation time, >= earliest slot

    def apply_windows(t: int) -> int:
        # Push ``t`` past every freeze window it falls into.  Windows
        # are sorted by start, so one forward pass reaches the fixed
        # point.  Candidate evaluation probes hypothetical issue times,
        # so pruning is left to the outer loop (by ``now``, which only
        # grows).
        for start, end in windows:
            if start > t:
                break
            if t < end:
                t = end
        return t

    def earliest_issue(j: int, t: int) -> int:
        if is_load[j] and top is not None and top[0] > t:
            t = top[0]
        if limit is not None:
            t = apply_windows(t)
        return t

    while issued_count < n:
        while windows and windows[0][1] <= now:
            windows.popleft()

        # Fetch/park: advance past head instructions whose only
        # in-flight operands are issued tracked loads.
        while table and head < n:
            head_uses = uses[head]
            if pending_writers and any(
                pending_writers.get(r, 0) for r in head_uses
            ):
                break
            ready = 0
            for r in head_uses:
                rr = reg_ready.get(r, 0)
                if rr > ready:
                    ready = rr
            if ready <= now:
                break
            if steps[head][1].is_terminator:
                break
            if not all(
                reg_tracked.get(r, False)
                for r in head_uses
                if reg_ready.get(r, 0) > now
            ):
                break
            status[head] = PARKED
            e_data[head] = ready
            parked.append(head)
            for d in defs[head]:
                pending_writers[d] = pending_writers.get(d, 0) + 1
            for k in succ[head]:
                blocked[k] += 1
            head += 1

        # Candidate selection: earliest feasible issue time, oldest
        # first on ties (parked is in ascending program order and every
        # parked index precedes head).
        best_e = -1
        best_j = -1
        for j in parked:
            if blocked[j]:
                continue
            e = earliest_issue(j, e_data[j] if e_data[j] > now else now)
            if best_j < 0 or e < best_e:
                best_e, best_j = e, j
        head_event = -1
        if head < n:
            head_uses = uses[head]
            if not pending_writers or not any(
                pending_writers.get(r, 0) for r in head_uses
            ):
                ready = 0
                for r in head_uses:
                    rr = reg_ready.get(r, 0)
                    if rr > ready:
                        ready = rr
                if blocked[head] == 0:
                    e = earliest_issue(head, ready if ready > now else now)
                    if best_j < 0 or e < best_e:
                        best_e, best_j = e, head
                if table and ready > now:
                    # Earliest time the head's blocker set changes; the
                    # park decision must be re-evaluated there (an
                    # untracked stall resolving can unlock parking
                    # before any candidate issues).
                    head_event = min(
                        t
                        for t in (reg_ready.get(r, 0) for r in head_uses)
                        if t > now
                    )

        if best_e > now:
            # Advance to the next event and re-evaluate there.  Without
            # a table nothing parks, so the re-evaluation would choose
            # the same candidate at the same time: issue it straight away.
            now = head_event if 0 <= head_event < best_e else best_e
            if table:
                continue

        # Issue best_j at ``now``.
        j = best_j
        e = now
        index = steps[j][0]
        lat = int(latencies[load_col[j]]) if is_load[j] else static_lat[j]
        completion = e + lat
        if attribute:
            # In order, so ``j`` is the head and ``e`` the in-order
            # issue time: find which bound set it, before this
            # instruction's own results update the machine state.  Each
            # bound that moves ``t`` lies past ``next_free``, so an
            # unstalled instruction keeps reason NONE.
            t = next_free
            reason = StallReason.NONE
            waited_on = None
            for r in uses[j]:
                rr = reg_ready.get(r, 0)
                if rr > t:
                    t, reason, waited_on = rr, StallReason.OPERAND, r
            if is_load[j] and top is not None and top[0] > t:
                t, reason, waited_on = top[0], StallReason.LOAD_SLOTS, None
            if e > t:
                reason, waited_on = StallReason.FREEZE, None
            trace.append((
                index, e, completion, e - next_free, reason, waited_on,
                reg_writer.get(waited_on),
            ))
            for d in defs[j]:
                reg_writer[d] = index
        else:
            trace.append((index, e, completion))
        if width == 1:
            next_free = e + 1
        elif e > cycle:
            cycle = e
            slots_used = 1
        else:
            slots_used += 1
        tracked = False
        if is_load[j]:
            if top is not None:
                if completion > top[0]:
                    top[0] = completion
                    top.sort()
            if limit is not None and lat > limit:
                windows.append((e + limit, completion))
            if always_tracked:
                tracked = True
            elif track_top is not None and track_top[0] <= e:
                tracked = True
                track_top[0] = completion
                track_top.sort()
            if blocking:
                # Conventional hardware: stall until the data returns.
                next_free = completion
        for d in defs[j]:
            reg_ready[d] = completion
            reg_tracked[d] = tracked
        if status[j] == PARKED:
            parked.remove(j)
            for d in defs[j]:
                pending_writers[d] -= 1
            for k in succ[j]:
                blocked[k] -= 1
        else:
            head += 1
        status[j] = ISSUED
        issued_count += 1
        if width == 1:
            now = next_free
        else:
            now = cycle if slots_used < width else cycle + 1

    return trace, next_free if width == 1 else cycle + 1


def delaytrack_issue_trace(
    instructions: Sequence[Instruction],
    latencies: Sequence[int],
    processor: ProcessorModel,
    successors: Optional[Sequence[Sequence[int]]] = None,
) -> List[Tuple[int, int]]:
    """The delay-tracking issue order of one simulated execution.

    Returns ``(source_position, issue_cycle)`` per executed (non-NOP)
    instruction, in issue order -- the admissibility evidence consumed
    by :func:`repro.verify.check_delaytrack_issue`.  ``successors`` is
    :func:`conflict_successors` of the executed instructions, for a
    caller that replays one block at several table sizes; a list of
    any other length than the executed instructions raises
    ``ValueError``.
    """
    if processor.load_delay_tracking is None:
        raise ValueError(
            f"processor {processor.name} has no delay-tracking table"
        )
    trace, _ = _simulate_delaytrack(
        instructions, latencies, processor, successors=successors
    )
    return [(entry[0], entry[1]) for entry in trace]


def interlock_sweep(
    block: BasicBlock,
    latencies: Sequence[int],
    processor: ProcessorModel = UNLIMITED,
) -> List[int]:
    """Interlock counts of ``block`` at each fixed latency (Figure 3)."""
    out: List[int] = []
    n_loads = sum(1 for i in block.instructions if i.is_load)
    for latency in latencies:
        result = simulate_block(
            block.instructions, [latency] * n_loads, processor
        )
        out.append(result.interlock_cycles)
    return out
