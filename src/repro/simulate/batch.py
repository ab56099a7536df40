"""Run-axis-vectorised basic-block simulation.

:func:`simulate_block_batch` reproduces :func:`~repro.simulate.simulator.
simulate_block` exactly, but executes all ``runs`` Monte-Carlo
repetitions of a block at once: every piece of per-run machine state
(``next_free``, per-register ready times, interlock counters, MAX-n
outstanding-load bookkeeping, LEN-n freeze windows) becomes a numpy
array of shape ``(runs,)``, and each instruction step is a handful of
vector operations instead of a Python-level pass per run.

Every processor model is vectorised natively -- there is no scalar
fallback:

* single-issue, non-blocking loads (UNLIMITED);
* single-issue, blocking loads (the BLOCKING baseline);
* ``max_outstanding_loads`` (MAX-n), via a per-run top-``n`` array of
  outstanding completion times -- a load may not issue before the
  ``n``-th largest completion among previously issued loads;
* ``max_load_cycles`` (LEN-n), via :class:`_WindowBuffer` (see below);
* ``issue_width`` > 1 (the Section 6 superscalar extension), via
  :func:`_superscalar_kernel`: the per-run issue clock and the number
  of slots consumed in the current issue group become ``(runs,)``
  vectors, composed with the same top-k and window machinery;
* a nonzero ``load_delay_tracking`` table, via
  :func:`_delaytrack_kernel`.  A table of size 0 never parks an
  instruction, so it is the in-order machine and runs on the kernels
  above.

On request (``attribute=True``) the single-issue kernel also records
each step's stall and what bound it -- the stall attribution behind
``--obs`` -- so no run has to be replayed through the scalar tracer.

Equivalence with the scalar simulator is enforced by the property
tests ``tests/simulate/test_batch_equivalence.py`` and
``tests/simulate/test_superscalar_batch.py`` and by the differential
fuzz harness (``repro.verify.fuzz``) across all processor models,
issue widths and memory families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..ir.instructions import Instruction, Opcode
from ..machine.processor import ProcessorModel, UNLIMITED
from ..obs import recorder as _obs
from .simulator import LatencyOverrunError


#: ``BatchSimResult.causes`` codes besides an operand's position in
#: ``all_uses()``: a MAX-n load slot, or a LEN-n freeze window.
CAUSE_SLOT = -1
CAUSE_FREEZE = -2


@dataclass(frozen=True)
class BatchSimResult:
    """Per-run cycle accounting for ``runs`` executions of one block.

    ``stalls`` and ``causes`` are filled only when attribution is
    requested (``simulate_block_batch(..., attribute=True)``): row
    ``k`` is executed step ``k``, column ``r`` run ``r``.  ``stalls``
    holds each step's stall cycles; ``causes`` what bound the stall
    (meaningful where the stall is positive) -- the position in the
    step's ``all_uses()`` of the first operand whose ready time is the
    maximum, or :data:`CAUSE_SLOT` / :data:`CAUSE_FREEZE`.  The
    precedence is :func:`~repro.simulate.trace.trace_block`'s: an
    operand stall is overridden by a slot wait, and both by a freeze.
    """

    cycles: np.ndarray       # shape (runs,), int64
    instructions: int        # identical across runs (NOPs are static)
    interlocks: np.ndarray   # shape (runs,), int64
    stalls: Optional[np.ndarray] = None   # shape (steps, runs), int64
    causes: Optional[np.ndarray] = None   # shape (steps, runs), intp


class _WindowBuffer:
    """LEN-n freeze windows, vectorised across runs.

    Windows are kept as row-stacked ``(n_windows, runs)`` arrays in
    issue order (their per-run start times are monotone in issue order
    because issue times never decrease -- strictly increasing on a
    single-issue machine, non-decreasing within a superscalar issue
    group), with ``end = 0`` marking runs where a load did not exceed
    the limit.  The common case -- no run is inside any window -- is
    one vectorised membership test; when a window does bind, a single
    forward pass in issue order reaches the scalar simulator's fixed
    point: once a window has pushed ``t`` past its end, only windows
    with *later* starts can still contain ``t``, and those are visited
    afterwards.
    """

    __slots__ = ("starts", "ends", "max_end")

    def __init__(self) -> None:
        self.starts: Optional[np.ndarray] = None  # (n_windows, runs)
        self.ends: Optional[np.ndarray] = None
        self.max_end = 0

    def push(
        self,
        start: np.ndarray,
        end: np.ndarray,
        mask: np.ndarray,
        t: np.ndarray,
    ) -> None:
        zero = np.int64(0)
        row_s = np.where(mask, start, zero)
        row_e = np.where(mask, end, zero)
        peak = int(row_e.max())
        if self.starts is not None:
            # Overlapping freeze windows behave exactly like their
            # union (pushing past the first lands inside the second),
            # so absorb the new window into the newest row wherever
            # they overlap.  This keeps the buffer at ~1 row when long
            # loads issue back to back.
            last_end = self.ends[-1]
            overlap = mask & (row_s <= last_end)
            if overlap.any():
                np.maximum(
                    last_end, np.where(overlap, row_e, zero), out=last_end
                )
                remaining = mask & ~overlap
                if not remaining.any():
                    self.max_end = max(self.max_end, peak)
                    return
                row_s = np.where(remaining, start, zero)
                row_e = np.where(remaining, end, zero)
            if self.starts.shape[0] > 2:
                # May reset ``max_end``; the new row's peak is folded
                # back in below, after the append.
                self._prune(t)
        if self.starts is None:
            self.starts = row_s[None, :]
            self.ends = row_e[None, :]
        else:
            self.starts = np.concatenate((self.starts, row_s[None, :]))
            self.ends = np.concatenate((self.ends, row_e[None, :]))
        self.max_end = max(self.max_end, peak)

    def apply(self, t: np.ndarray) -> np.ndarray:
        if self.starts is None:
            return t
        if int(t.min()) >= self.max_end:
            # Every window has finished in every run; issue times only
            # grow, so none of them can ever trigger again.
            self.starts = self.ends = None
            self.max_end = 0
            return t
        n_rows = self.starts.shape[0]
        hit = (self.starts <= t) & (t < self.ends)
        if hit.any():
            if n_rows == 1:
                t = np.where(hit[0], self.ends[0], t)
            else:
                # Cascade: a push may land ``t`` inside a later window.
                for j in range(n_rows):
                    row_hit = (self.starts[j] <= t) & (t < self.ends[j])
                    if row_hit.any():
                        t = np.where(row_hit, self.ends[j], t)
            self._prune(t)
        return t

    def _prune(self, t: np.ndarray) -> None:
        """Drop windows finished in every run (they can never trigger
        again: per-run issue times never decrease)."""
        keep = (self.ends > t).any(axis=1)
        if keep.all():
            return
        if not keep.any():
            self.starts = self.ends = None
            self.max_end = 0
        else:
            self.starts = self.starts[keep]
            self.ends = self.ends[keep]


#: One step of the executed (non-NOP) sequence: ``(is_load, use
#: register rows, def register rows, static latency)`` with registers
#: densely indexed per block.
_Step = Tuple[bool, Tuple[int, ...], Tuple[int, ...], int]


def _index_steps(executed: Sequence[Instruction]) -> Tuple[List[_Step], int]:
    """Densely index the registers a block touches.

    ``reg_ready[i]`` then is the ``(runs,)`` ready-time vector of the
    i-th distinct register, so operand lookups inside the kernels are
    row slices, not dict probes.
    """
    reg_index: dict = {}
    steps: List[_Step] = []
    for inst in executed:
        uses = []
        for reg in inst.all_uses():
            idx = reg_index.get(reg)
            if idx is None:
                idx = reg_index[reg] = len(reg_index)
            uses.append(idx)
        defs = []
        for reg in inst.defs:
            idx = reg_index.get(reg)
            if idx is None:
                idx = reg_index[reg] = len(reg_index)
            defs.append(idx)
        steps.append((inst.is_load, tuple(uses), tuple(defs), inst.latency))
    return steps, len(reg_index)


def use_writers(
    instructions: Sequence[Instruction],
) -> List[Tuple[Optional[int], ...]]:
    """Per executed (non-NOP) instruction, the index in
    ``instructions`` of the last earlier writer of each of its
    ``all_uses()`` registers (``None`` for a live-in).

    Writers are resolved before the instruction's own defs overwrite
    them, as :func:`~repro.simulate.trace.trace_block` does, so
    ``r1 = r1 + 1`` names the earlier writer of ``r1``.  Together with
    ``BatchSimResult.causes`` this names the instruction a stall
    waited on.
    """
    writer: dict = {}
    out: List[Tuple[Optional[int], ...]] = []
    for index, inst in enumerate(instructions):
        if inst.opcode is Opcode.NOP:
            continue
        out.append(tuple(writer.get(reg) for reg in inst.all_uses()))
        for reg in inst.defs:
            writer[reg] = index
    return out


def attribution_skip_reason(processor: ProcessorModel) -> Optional[str]:
    """Why stall attribution does not cover ``processor`` (``None`` for
    the in-order, single-issue, non-blocking models it does -- the
    ones :func:`~repro.simulate.trace.trace_block` times, including a
    delay-tracking table of size 0, which never reorders)."""
    if processor.load_delay_tracking:
        # A delay-tracking front end reorders issue, so in-order
        # attribution does not describe it even at width 1.
        return "delay-tracking"
    if processor.issue_width != 1:
        return "multi-issue"
    if processor.blocking_loads:
        return "blocking-loads"
    return None


def batch_kernel(processor: ProcessorModel) -> str:
    """The kernel that times ``processor`` (the ``sim.batch_kernel``
    label): a nonzero delay-tracking table, else by issue width."""
    if processor.load_delay_tracking:
        return "delaytrack"
    if processor.issue_width > 1:
        return "superscalar"
    return "single-issue"


def simulate_block_batch(
    instructions: Sequence[Instruction],
    latencies: np.ndarray,
    processor: ProcessorModel = UNLIMITED,
    attribute: bool = False,
    count_runs: bool = True,
) -> BatchSimResult:
    """Simulate ``runs`` executions of a straight-line sequence at once.

    ``latencies`` has shape ``(runs, n_loads)``: row ``r`` holds the
    sampled latency of each load, in program order, for run ``r`` --
    exactly the per-run argument of the scalar ``simulate_block``.
    Runs are independent columns, so row-stacking several callers'
    latencies into one call returns each caller's columns unchanged.

    ``attribute=True`` also records each step's stall and its cause
    (``BatchSimResult.stalls`` / ``causes``); it raises ``ValueError``
    for a model :func:`attribution_skip_reason` excludes.  Under an
    active recorder the runs are counted under ``sim.batch_kernel``,
    unless ``count_runs=False``: a caller that stacked several parts'
    rows counts each part in its own registry.
    """
    latencies = np.asarray(latencies, dtype=np.int64)
    if latencies.ndim != 2:
        raise ValueError(
            f"latencies must have shape (runs, n_loads), got {latencies.shape}"
        )

    # Malformed-input handling mirrors the scalar ``simulate_block``
    # exactly (same exception types and messages), and runs *before*
    # either fast path so every processor model agrees; see
    # tests/simulate/test_malformed_inputs.py.  Extra trailing latency
    # columns are permitted and ignored, like extra scalar entries.
    executed = [i for i in instructions if i.opcode is not Opcode.NOP]
    n_loads = sum(1 for i in executed if i.is_load)
    runs = latencies.shape[0]
    if latencies.shape[1] < n_loads:
        raise LatencyOverrunError(
            f"{n_loads} loads but only {latencies.shape[1]} latencies"
        )
    used = latencies[:, :n_loads]
    if used.size and (used < 0).any():
        rows, cols = np.nonzero(used < 0)  # row-major: first bad run first
        run, load = int(rows[0]), int(cols[0])
        raise ValueError(
            f"negative load latency {int(used[run, load])} at load {load}"
        )

    if runs == 0:
        empty = np.zeros(0, dtype=np.int64)
        return BatchSimResult(empty, len(executed), empty.copy())

    kernel = batch_kernel(processor)
    if attribute and attribution_skip_reason(processor) is not None:
        raise ValueError(
            f"stall attribution models in-order, single-issue, "
            f"non-blocking processors only, not {processor.name}"
        )
    rec = _obs.get()
    if rec is not None and count_runs:
        rec.metrics.inc("sim.batch_kernel", runs, kernel=kernel)

    steps, n_regs = _index_steps(executed)
    if kernel == "delaytrack":
        return _delaytrack_kernel(
            executed, steps, n_regs, latencies, processor, runs
        )
    if kernel == "superscalar":
        return _superscalar_kernel(steps, n_regs, latencies, processor, runs)
    return _single_issue_kernel(
        steps, n_regs, latencies, processor, runs, attribute
    )


def _single_issue_kernel(
    steps: Sequence[_Step],
    n_regs: int,
    latencies: np.ndarray,
    processor: ProcessorModel,
    runs: int,
    attribute: bool,
) -> BatchSimResult:
    """The ``issue_width == 1`` recurrence (all four memory families).

    With ``attribute`` it also fills the per-step ``stalls`` and
    ``causes`` rows of the result; the binding writer of an operand
    stall is an argmax over the step's operand ready-time rows, so no
    scalar replay is needed.
    """
    stalls = causes = None
    if attribute:
        stalls = np.empty((len(steps), runs), dtype=np.int64)
        causes = np.zeros((len(steps), runs), dtype=np.intp)
    reg_ready = np.zeros((n_regs, runs), dtype=np.int64)
    next_free = np.zeros(runs, dtype=np.int64)
    interlock = np.zeros(runs, dtype=np.int64)

    max_out = processor.max_outstanding_loads
    # ``top`` holds, per run, the ``max_out`` largest completion times
    # of loads issued so far (ascending along axis 0).  A load waits
    # until the max_out-th largest completion: t >= top[0].
    top = (
        np.zeros((max_out, runs), dtype=np.int64)
        if max_out is not None
        else None
    )
    limit = processor.max_load_cycles
    windows = _WindowBuffer() if limit is not None else None
    blocking = processor.blocking_loads

    maximum = np.maximum
    col = 0
    for k, (is_load, uses, defs, static_latency) in enumerate(steps):
        if uses:
            t = maximum(next_free, reg_ready[uses[0]])
            for u in uses[1:]:
                maximum(t, reg_ready[u], out=t)
        else:
            t = next_free.copy()
        if causes is not None:
            # argmax returns the first maximal operand: trace_block's
            # strict ``>`` scan in all_uses() order.
            cause = causes[k]
            if len(uses) > 1:
                reg_ready[list(uses)].argmax(axis=0, out=cause)

        if is_load:
            lat = latencies[:, col]
            col += 1
            if top is not None:
                if causes is not None:
                    cause[top[0] > t] = CAUSE_SLOT
                maximum(t, top[0], out=t)
        if windows is not None:
            if causes is not None:
                unfrozen = t
            t = windows.apply(t)
            if causes is not None:
                cause[t > unfrozen] = CAUSE_FREEZE
        if stalls is not None:
            np.subtract(t, next_free, out=stalls[k])

        interlock += t
        interlock -= next_free

        if is_load:
            completion = t + lat
            if top is not None:
                maximum(top[0], completion, out=top[0])
                top.sort(axis=0)
            if windows is not None:
                over = lat > limit
                if over.any():
                    windows.push(t + limit, completion, over, t)
            if blocking:
                # Conventional hardware: stall until the data returns.
                interlock += lat
                interlock -= 1
                next_free = completion
            else:
                next_free = t + 1
        else:
            completion = t + static_latency
            next_free = t + 1
        for d in defs:
            reg_ready[d] = completion

    return BatchSimResult(
        cycles=next_free,
        instructions=len(steps),
        interlocks=interlock,
        stalls=stalls,
        causes=causes,
    )


def _superscalar_kernel(
    steps: Sequence[_Step],
    n_regs: int,
    latencies: np.ndarray,
    processor: ProcessorModel,
    runs: int,
) -> BatchSimResult:
    """The ``issue_width > 1`` recurrence (Section 6 extension).

    Per run the state is the current issue cycle, the number of slots
    already consumed in that cycle's issue group, and the count of
    *busy* cycles (cycles in which at least one instruction issued).
    An instruction's earliest issue is the current cycle -- or the next
    one when the group is full -- pushed by operand readiness, the
    MAX-n top-k bound and the LEN-n freeze windows, all of which are
    the same ``(runs,)`` vector machinery as the single-issue kernel.
    Whenever the issue time moves past the current cycle a fresh group
    opens there; interlocks are whole cycles in which nothing issued,
    so ``interlock = total_cycles - busy_cycles``.  (A blocking
    machine is single-issue by construction: ``ProcessorModel`` rejects
    ``blocking_loads`` at ``issue_width > 1``.)
    """
    width = processor.issue_width
    reg_ready = np.zeros((n_regs, runs), dtype=np.int64)
    cycle = np.zeros(runs, dtype=np.int64)
    slots_used = np.zeros(runs, dtype=np.int64)
    busy = np.zeros(runs, dtype=np.int64)

    max_out = processor.max_outstanding_loads
    top = (
        np.zeros((max_out, runs), dtype=np.int64)
        if max_out is not None
        else None
    )
    limit = processor.max_load_cycles
    windows = _WindowBuffer() if limit is not None else None

    maximum = np.maximum
    col = 0
    first = True
    for is_load, uses, defs, static_latency in steps:
        # Earliest slot: this cycle, or the next one if the current
        # issue group is already full.
        t = np.where(slots_used >= width, cycle + 1, cycle)
        for u in uses:
            maximum(t, reg_ready[u], out=t)

        if is_load:
            lat = latencies[:, col]
            col += 1
            if top is not None:
                maximum(t, top[0], out=t)
        if windows is not None:
            t = windows.apply(t)

        # ``t >= cycle`` always holds, so moving past the current
        # cycle opens a fresh issue group at ``t``.
        advanced = t > cycle
        if first:
            busy += 1
            first = False
        else:
            busy += advanced
        slots_used = np.where(advanced, 1, slots_used + 1)
        cycle = t

        if is_load:
            completion = cycle + lat
            if top is not None:
                maximum(top[0], completion, out=top[0])
                top.sort(axis=0)
            if windows is not None:
                over = lat > limit
                if over.any():
                    windows.push(cycle + limit, completion, over, cycle)
        else:
            completion = cycle + static_latency
        for d in defs:
            reg_ready[d] = completion

    if steps:
        total = cycle + 1
    else:
        total = np.zeros(runs, dtype=np.int64)
    return BatchSimResult(
        cycles=total, instructions=len(steps), interlocks=total - busy
    )


class _DTWindows:
    """LEN-n freeze windows for the delay-tracking kernel.

    The adaptive issue logic *probes* hypothetical issue times for
    every visible candidate before committing to one, so -- unlike
    :class:`_WindowBuffer` -- application must not prune: a window that
    a late candidate has passed may still bind an earlier one.  Rows
    are ``(runs,)`` start/end pairs in global issue-step order (per-run
    issue times are monotone, so per-run starts are too, and the
    scalar simulator's one-forward-pass fixed-point argument holds);
    dead rows are pruned once per outer step against the per-run
    evaluation clock, which also only grows.
    """

    __slots__ = ("starts", "ends")

    def __init__(self) -> None:
        self.starts: List[np.ndarray] = []
        self.ends: List[np.ndarray] = []

    def push(self, start: np.ndarray, end: np.ndarray) -> None:
        self.starts.append(start)
        self.ends.append(end)

    def apply_mat(self, t: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Push a ``(..., k)`` matrix of probe times past every window,
        without mutating buffer state.  ``idx`` names the run behind
        each trailing-axis column."""
        for start, end in zip(self.starts, self.ends):
            s, f = start[idx], end[idx]
            hit = (s <= t) & (t < f)
            if hit.any():
                t = np.where(hit, f, t)
        return t

    def prune(self, now: np.ndarray) -> None:
        if not self.starts:
            return
        keep = [
            k
            for k in range(len(self.starts))
            if bool((self.ends[k] > now).any())
        ]
        if len(keep) != len(self.starts):
            self.starts = [self.starts[k] for k in keep]
            self.ends = [self.ends[k] for k in keep]


def _conflict_matrix(
    uses_pad: np.ndarray,
    defs_pad: np.ndarray,
    def_sent: int,
    is_mem: np.ndarray,
    is_store: np.ndarray,
    is_term: np.ndarray,
) -> np.ndarray:
    """The delay-tracking hardware's ordering constraints, as an
    ``(n, n)`` int16 matrix: ``[j, i] = 1`` for each ``i < j`` whose
    issue must precede ``j``'s.

    A pair conflicts when one writes a register the other reads or
    writes, when both access memory and one is a store (the issue logic
    has no alias knowledge), or when either is a terminator.
    ``uses_pad`` / ``defs_pad`` are the kernel's padded register rows,
    ``def_sent`` the padding of ``defs_pad``.
    """
    n = len(defs_pad)
    # Def padding becomes -1, which matches no register and no padding.
    written = np.where(defs_pad == def_sent, -1, defs_pad)
    touched = np.concatenate((uses_pad, defs_pad), axis=1)
    # writes[i, j]: some def of i is read or written by j; a register
    # overlap in either direction is its union with the transpose.
    writes = np.zeros((n, n), dtype=bool)
    for d in written.T:
        for t in touched.T:
            writes |= d[:, None] == t[None, :]
    pair = writes | writes.T
    pair |= is_mem[:, None] & is_mem[None, :] & (
        is_store[:, None] | is_store[None, :]
    )
    pair |= is_term[:, None] | is_term[None, :]
    return np.tril(pair, -1).astype(np.int16)


def _delaytrack_kernel(
    executed: Sequence[Instruction],
    steps: Sequence[_Step],
    n_regs: int,
    latencies: np.ndarray,
    processor: ProcessorModel,
    runs: int,
) -> BatchSimResult:
    """The delay-tracking adaptive-issue recurrence, across runs.

    Makes the same decisions as the scalar engine
    (``_simulate_delaytrack``), in independent code -- down to the
    conflict rule, restated as array operations by
    :func:`_conflict_matrix`.  The table is nonzero: a table of size 0
    never parks, and :func:`simulate_block_batch` runs it on the
    in-order kernels.  Because
    tracked-load delays differ per run, runs diverge in *issue
    order* -- no single per-instruction sweep exists.  Instead the
    kernel runs a global step loop in which every unfinished run either
    parks head instructions, issues its best candidate, or advances its
    evaluation clock to the next event; all per-run state (register
    ready/tracked bits, park status, conflict counts, the tracking
    table and the MAX-n/LEN-n machinery) is ``(n, runs)`` / ``(regs,
    runs)`` arrays, and each step is a bounded number of vector
    gathers/scatters over the unfinished runs.

    Per-run results are exactly the scalar simulator's: the two
    implementations share the event rule (advance to the earlier of
    the best candidate's issue time and the head's next blocker
    resolution, then re-evaluate parking), so they visit identical
    clock sequences and make identical lexicographic
    (earliest-issue, oldest-first) choices.
    """
    width = processor.issue_width
    table = processor.load_delay_tracking
    max_out = processor.max_outstanding_loads
    limit = processor.max_load_cycles
    blocking = processor.blocking_loads

    n = len(steps)
    if n == 0:
        zero = np.zeros(runs, dtype=np.int64)
        return BatchSimResult(cycles=zero, instructions=0, interlocks=zero.copy())

    # ------------------------------------------------------------------
    # Static block structure.
    # ------------------------------------------------------------------
    use_sent = n_regs          # always-zero row probed by padded uses
    def_sent = n_regs + 1      # scratch row absorbing padded def writes
    m = n_regs + 2
    n_uses = max(1, max(len(s[1]) for s in steps))
    n_defs = max(1, max(len(s[2]) for s in steps))
    uses_pad = np.full((n, n_uses), use_sent, dtype=np.int64)
    defs_pad = np.full((n, n_defs), def_sent, dtype=np.int64)
    is_load = np.zeros(n, dtype=bool)
    is_mem = np.array([inst.is_mem for inst in executed], dtype=bool)
    is_store = np.array([inst.is_store for inst in executed], dtype=bool)
    is_term = np.array([inst.is_terminator for inst in executed], dtype=bool)
    static_lat = np.zeros(n, dtype=np.int64)
    load_col = np.zeros(n, dtype=np.int64)
    col = 0
    for j, (load_flag, uses, defs, lat) in enumerate(steps):
        uses_pad[j, : len(uses)] = uses
        defs_pad[j, : len(defs)] = defs
        is_load[j] = load_flag
        static_lat[j] = lat
        if load_flag:
            load_col[j] = col
            col += 1
    n_loads = col
    # Column i is the +/- increment applied to ``blocked`` when i
    # parks/issues.
    conflict = _conflict_matrix(
        uses_pad, defs_pad, def_sent, is_mem, is_store, is_term
    )

    # ------------------------------------------------------------------
    # Per-run machine state.
    # ------------------------------------------------------------------
    PENDING, PARKED = 0, 1
    INF = np.iinfo(np.int64).max
    reg_ready = np.zeros((m, runs), dtype=np.int64)
    reg_tracked = np.zeros((m, runs), dtype=bool)
    pending_writers = np.zeros((m, runs), dtype=np.int64)
    status = np.full((n, runs), PENDING, dtype=np.uint8)
    e_data = np.zeros((n, runs), dtype=np.int64)
    blocked = np.zeros((n, runs), dtype=np.int64)
    head = np.zeros(runs, dtype=np.int64)
    issued_count = np.zeros(runs, dtype=np.int64)
    next_free = np.zeros(runs, dtype=np.int64)
    interlock = np.zeros(runs, dtype=np.int64)
    cycle = np.zeros(runs, dtype=np.int64)
    slots_used = np.zeros(runs, dtype=np.int64)
    busy = np.zeros(runs, dtype=np.int64)
    now = np.zeros(runs, dtype=np.int64)
    seq = np.arange(n, dtype=np.int64)

    top = (
        np.zeros((max_out, runs), dtype=np.int64)
        if max_out is not None
        else None
    )
    always_tracked = table > n_loads
    track_top = (
        None if always_tracked else np.zeros((table, runs), dtype=np.int64)
    )
    windows = _DTWindows() if limit is not None else None

    n_parked = 0                  # parked, not yet issued, over all runs

    while True:
        act = np.nonzero(issued_count < n)[0]
        if act.size == 0:
            break
        if windows is not None:
            windows.prune(now)
        now_act = now[act]        # ``now`` is fixed until issue/advance

        # ------------------------------------------------------------
        # Fetch/park: per run, park head instructions whose in-flight
        # operands are all issued tracked loads.  The pass that parks
        # nothing leaves the state as it found it, so its view of the
        # heads (readiness, per-use ready times, in-flight mask) also
        # serves the head-event step below.
        # ------------------------------------------------------------
        while True:
            has_head = head[act] < n
            can = act[has_head]
            if can.size == 0:
                break
            h = head[can]
            rows = uses_pad[h]                   # (k, n_uses)
            cols = can[:, None]
            computable = (pending_writers[rows, cols] == 0).all(axis=1)
            rr = reg_ready[rows, cols]
            ready = rr.max(axis=1)
            now_h = now[can]
            in_flight = rr > now_h[:, None]
            stalled = computable & (ready > now_h)
            park = (
                stalled
                & (~in_flight | reg_tracked[rows, cols]).all(axis=1)
                & ~is_term[h]
            )
            if not park.any():
                break
            sel = can[park]
            hs = h[park]
            status[hs, sel] = PARKED
            e_data[hs, sel] = ready[park]
            np.add.at(pending_writers, (defs_pad[hs], sel[:, None]), 1)
            blocked[:, sel] += conflict[:, hs]
            head[sel] += 1
            n_parked += sel.size

        # ------------------------------------------------------------
        # Candidate selection: lexicographic (earliest issue, oldest).
        # ------------------------------------------------------------
        if n_parked:
            probe = np.maximum(e_data[:, act], now_act[None, :])
            if top is not None:
                probe[is_load] = np.maximum(
                    probe[is_load], top[0][act][None, :]
                )
            if windows is not None:
                probe = windows.apply_mat(probe, act)
            cand = (status[:, act] == PARKED) & (blocked[:, act] == 0)
            key = np.where(
                cand, probe * np.int64(n + 1) + seq[:, None], INF
            )
            best_key = key.min(axis=0)
        else:
            best_key = np.full(act.size, INF, dtype=np.int64)

        head_event = np.full(act.size, INF, dtype=np.int64)
        if can.size:
            eligible = computable & (blocked[h, can] == 0)
            if eligible.any():
                t = np.maximum(ready, now_h)
                if top is not None:
                    t = np.where(
                        is_load[h], np.maximum(t, top[0][can]), t
                    )
                if windows is not None:
                    t = windows.apply_mat(t, can)
                head_key = np.where(
                    eligible, t * np.int64(n + 1) + h, INF
                )
                best_key[has_head] = np.minimum(
                    best_key[has_head], head_key
                )
            if stalled.any():
                ev = np.where(in_flight, rr, INF).min(axis=1)
                head_event[has_head] = np.where(stalled, ev, INF)

        best_e = best_key // np.int64(n + 1)
        best_j = best_key - best_e * np.int64(n + 1)

        # ------------------------------------------------------------
        # Issue where the best candidate is issuable now; elsewhere
        # advance the clock to the next event and re-evaluate.
        # ------------------------------------------------------------
        issue = best_e == now_act
        adv = ~issue
        if adv.any():
            now[act[adv]] = np.minimum(best_e[adv], head_event[adv])
        if not issue.any():
            continue

        r = act[issue]
        j = best_j[issue]
        e = now[r]
        lat = static_lat[j].copy()
        lmask = is_load[j]
        if lmask.any():
            rl = r[lmask]
            lat[lmask] = latencies[rl, load_col[j[lmask]]]
        completion = e + lat

        if width == 1:
            interlock[r] += e - next_free[r]
            next_free[r] = e + 1
        else:
            advanced = e > cycle[r]
            busy[r] += advanced | (issued_count[r] == 0)
            slots_used[r] = np.where(advanced, 1, slots_used[r] + 1)
            cycle[r] = e

        tracked = np.zeros(r.size, dtype=bool)
        if lmask.any():
            rl = r[lmask]
            comp_l = completion[lmask]
            if top is not None:
                # Issue time already waited for top[0], so completion
                # replaces the finished slot it reuses.
                top[0, rl] = comp_l
                top[:, rl] = np.sort(top[:, rl], axis=0)
            if windows is not None:
                over = lat[lmask] > limit
                if over.any():
                    start = np.zeros(runs, dtype=np.int64)
                    end = np.zeros(runs, dtype=np.int64)
                    ro = rl[over]
                    start[ro] = e[lmask][over] + limit
                    end[ro] = comp_l[over]
                    windows.push(start, end)
            if always_tracked:
                tracked[lmask] = True
            else:
                won = track_top[0, rl] <= e[lmask]
                if won.any():
                    rw = rl[won]
                    track_top[0, rw] = comp_l[won]
                    track_top[:, rw] = np.sort(track_top[:, rw], axis=0)
                tracked[lmask] = won
            if blocking:
                interlock[rl] += comp_l - (e[lmask] + 1)
                next_free[rl] = comp_l

        rows = defs_pad[j]
        reg_ready[rows, r[:, None]] = completion[:, None]
        reg_tracked[rows, r[:, None]] = tracked[:, None]

        was_parked = status[j, r] == PARKED
        status[j, r] = 2
        if was_parked.any():
            jp = j[was_parked]
            rp = r[was_parked]
            np.add.at(pending_writers, (defs_pad[jp], rp[:, None]), -1)
            blocked[:, rp] -= conflict[:, jp]
            n_parked -= rp.size
        if (~was_parked).any():
            head[r[~was_parked]] += 1
        issued_count[r] += 1
        if width == 1:
            now[r] = next_free[r]
        else:
            now[r] = np.where(
                slots_used[r] < width, cycle[r], cycle[r] + 1
            )

    if width == 1:
        return BatchSimResult(
            cycles=next_free, instructions=n, interlocks=interlock
        )
    total = cycle + 1
    return BatchSimResult(
        cycles=total, instructions=n, interlocks=total - busy
    )
