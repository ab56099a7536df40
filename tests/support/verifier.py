"""Structural well-formedness checks for IR blocks.

The verifier catches the mistakes that would silently corrupt the
scheduling or simulation results: uses of never-defined registers
(unless declared live-in), loads without destinations, stores with
destinations, terminators in the middle of a block, and duplicate
instruction identities.
"""

from __future__ import annotations

from typing import List, Set

from repro.ir.block import BasicBlock
from repro.ir.operands import Register


class VerificationError(ValueError):
    """Raised when an IR block violates a structural invariant."""


def verify_block(block: BasicBlock, strict_defs: bool = True) -> None:
    """Check one block; raise :class:`VerificationError` on violation.

    ``strict_defs=False`` relaxes the defined-before-use check, which
    post-register-allocation code legitimately violates (physical
    registers hold live-in values that were virtual-register live-ins
    before rewriting).
    """
    problems: List[str] = []
    defined: Set[Register] = set(block.live_in)
    seen_idents: Set[int] = set()

    for position, inst in enumerate(block.instructions):
        if inst.ident in seen_idents:
            problems.append(f"{position}: duplicate ident {inst.ident}")
        seen_idents.add(inst.ident)

        if inst.is_load:
            if len(inst.defs) != 1:
                problems.append(f"{position}: load must define exactly 1 reg")
            if inst.mem is None:
                problems.append(f"{position}: load without memory operand")
        if inst.is_store:
            if inst.defs:
                problems.append(f"{position}: store must not define a reg")
            if inst.mem is None:
                problems.append(f"{position}: store without memory operand")
            if len(inst.uses) != 1:
                problems.append(f"{position}: store must use exactly 1 value")
        if inst.is_terminator and position != len(block.instructions) - 1:
            problems.append(f"{position}: terminator not at block end")

        if strict_defs:
            for reg in inst.all_uses():
                if reg not in defined:
                    problems.append(
                        f"{position}: use of undefined register {reg} in '{inst}'"
                    )
        defined.update(inst.defs)

    if problems:
        raise VerificationError(
            f"block {block.name!r} failed verification:\n  "
            + "\n  ".join(problems)
        )
