"""Live intervals and register pressure over a linear instruction order.

The register allocator consumes :func:`live_intervals`; the schedulers'
register-pressure tie-break and several experiments consume
:func:`max_pressure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..ir.instructions import Instruction
from ..ir.operands import RegClass, Register


@dataclass
class LiveInterval:
    """Half-open live range ``[start, end)`` of a register.

    ``start`` is the defining instruction's index (or -1 for live-in
    values), ``end`` is one past the last use (or one past the block if
    live-out).  ``uses`` lists every use position, which the spiller
    needs to insert reloads.
    """

    reg: Register
    start: int
    end: int
    uses: List[int]
    live_out: bool = False

    @property
    def length(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "LiveInterval") -> bool:
        return self.start < other.end and other.start < self.end


def live_intervals(
    instructions: Sequence[Instruction],
    live_in: Iterable[Register] = (),
    live_out: Iterable[Register] = (),
) -> Dict[Register, LiveInterval]:
    """Compute one live interval per register in a straight-line block.

    Registers in ``live_in`` start live at -1; registers in
    ``live_out`` stay live through the end of the block.  A register
    redefined mid-block keeps a single merged interval (conservative,
    and faithful to how GCC's local allocator treats block-local
    pseudos).
    """
    out: Dict[Register, LiveInterval] = {}
    live_out_set: Set[Register] = set(live_out)

    for reg in live_in:
        out[reg] = LiveInterval(reg, start=-1, end=0, uses=[])

    n = len(instructions)
    for index, inst in enumerate(instructions):
        for reg in inst.all_uses():
            interval = out.get(reg)
            if interval is None:
                # Use without visible def: treat as live-in.
                interval = LiveInterval(reg, start=-1, end=index + 1, uses=[])
                out[reg] = interval
            interval.end = max(interval.end, index + 1)
            interval.uses.append(index)
        for reg in inst.defs:
            interval = out.get(reg)
            if interval is None:
                out[reg] = LiveInterval(reg, start=index, end=index + 1, uses=[])
            else:
                interval.end = max(interval.end, index + 1)

    for reg in live_out_set:
        if reg in out:
            out[reg].end = n + 1
            out[reg].live_out = True
    return out


def pressure_profile(
    instructions: Sequence[Instruction],
    rclass: Optional[RegClass] = None,
    live_in: Iterable[Register] = (),
    live_out: Iterable[Register] = (),
) -> List[int]:
    """Number of simultaneously live registers at each instruction."""
    intervals = live_intervals(instructions, live_in, live_out)
    n = len(instructions)
    profile = [0] * max(n, 1)
    for interval in intervals.values():
        if rclass is not None and interval.reg.rclass is not rclass:
            continue
        lo = max(interval.start, 0)
        hi = min(interval.end, n)
        for k in range(lo, hi):
            profile[k] += 1
    return profile


def max_pressure(
    instructions: Sequence[Instruction],
    rclass: Optional[RegClass] = None,
    live_in: Iterable[Register] = (),
    live_out: Iterable[Register] = (),
) -> int:
    """Peak register pressure of the block (optionally per class)."""
    profile = pressure_profile(instructions, rclass, live_in, live_out)
    return max(profile) if profile else 0
