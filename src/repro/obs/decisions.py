"""Scheduler decision logs: per-step candidate sets, diffable.

Every scheduling step the list scheduler picks one instruction from
its ready list by priority, then (among priority co-leaders) by the
tie-break chain, then by discovery order.  A :class:`Decision` records
one such step: the time slot, the full candidate set with priorities,
the winner, and *why* it won:

* ``only-candidate`` -- the ready list held a single node;
* ``priority`` -- a unique maximum priority (the common case);
* ``tie-break:<name>`` -- the first tie-break level whose value
  singled out one node among the priority co-leaders;
* ``discovery-order`` -- every key tied exactly; the node exposed
  earliest wins (the scheduler's first-discovery rule).

The log renders to stable plain text, so two runs of the *same* block
under different weighting policies (``balanced`` vs ``traditional``)
diff cleanly -- :func:`DecisionLog.diff` produces the unified diff the
``balanced-sched explain`` subcommand prints.  Logging is enabled
separately from spans/metrics (``Recorder(decisions=True)``): a full
table run takes millions of scheduling steps and the log is by far
the heaviest stream.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple


@dataclass(frozen=True)
class Candidate:
    """One ready-list entry at decision time."""

    node: int
    #: Priority rendered as text (exact ``Fraction`` survives rendering).
    priority: str
    text: str


@dataclass(frozen=True)
class Decision:
    """One scheduling step: who could have gone, who went, and why."""

    block: str
    step: int
    #: Scheduler clock at selection (reverse time for bottom-up).
    time: str
    chosen: int
    reason: str
    candidates: Tuple[Candidate, ...]


class DecisionLog:
    """An append-only list of :class:`Decision` records."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: List[Decision] = []

    def __len__(self) -> int:
        return len(self.entries)

    def record(self, decision: Decision) -> None:
        self.entries.append(decision)

    # ------------------------------------------------------------------
    def blocks(self) -> List[str]:
        """Block labels in first-appearance order."""
        seen: Dict[str, None] = {}
        for entry in self.entries:
            seen.setdefault(entry.block, None)
        return list(seen)

    def for_block(self, block: str) -> List[Decision]:
        return [e for e in self.entries if e.block == block]

    def counts_by_reason(self) -> Dict[str, int]:
        """How often each selection reason fired (tie-break pressure)."""
        counts: Dict[str, int] = {}
        for entry in self.entries:
            counts[entry.reason] = counts.get(entry.reason, 0) + 1
        return dict(sorted(counts.items()))

    # ------------------------------------------------------------------
    def render(self, block: str = None) -> List[str]:
        """Stable plain-text rendering (one block, or everything).

        The format deliberately excludes anything non-deterministic so
        renderings of identical schedules are byte-identical and
        renderings of different policies diff tightly.
        """
        entries: Iterable[Decision] = (
            self.entries if block is None else self.for_block(block)
        )
        lines: List[str] = []
        current = object()
        for entry in entries:
            if entry.block != current:
                current = entry.block
                lines.append(f"== block {entry.block} ==")
            lines.append(
                f"step {entry.step:>4} t={entry.time:<6} "
                f"-> #{entry.chosen}  [{entry.reason}]"
            )
            for cand in entry.candidates:
                marker = "*" if cand.node == entry.chosen else " "
                lines.append(
                    f"    {marker} #{cand.node:<4} "
                    f"p={cand.priority:<8} {cand.text}"
                )
        return lines

    @staticmethod
    def diff(
        a: "DecisionLog",
        b: "DecisionLog",
        label_a: str = "a",
        label_b: str = "b",
        block: str = None,
        context: int = 3,
    ) -> List[str]:
        """Unified diff of two rendered logs (``explain``'s payload)."""
        return list(
            difflib.unified_diff(
                a.render(block),
                b.render(block),
                fromfile=label_a,
                tofile=label_b,
                n=context,
                lineterm="",
            )
        )
