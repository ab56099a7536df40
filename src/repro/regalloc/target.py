"""Machine register-file description.

The allocatable registers per class are the knob that produces the
register-pressure regimes of the paper's evaluation (their MIPS target
exposed ~20 allocatable integer and FP registers after reserving
ABI/assembler registers; we default to a comparable figure).

The *spill pool* models GCC's behaviour described in Section 4.1:
"when adding spill instructions, the GCC compiler always uses register
numbers selected from a small pool of spill registers."  The paper
improves scheduling by "increasing the size of GCC's spill register
pool by two and implementing a FIFO queue-like ordering of the
registers in the pool"; both the enlargement and the FIFO ordering are
configuration switches here so the ablation benchmark can measure
their effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..ir.operands import PhysReg, RegClass

#: GCC's historic spill pool size for the MIPS port (the baseline the
#: paper's "+2" improvement is measured against).
BASE_SPILL_POOL = 2


@dataclass(frozen=True)
class RegisterFile:
    """Allocatable registers and spill-pool configuration.

    ``n_int`` / ``n_fp`` count the registers available to the
    allocator for program values, *excluding* the spill pool.
    ``enlarged_pool`` applies the paper's +2 enlargement;
    ``fifo_pool`` selects FIFO (round-robin) pool reuse rather than
    always grabbing the lowest-numbered free pool register.
    """

    n_int: int = 10
    n_fp: int = 12
    base_pool: int = BASE_SPILL_POOL
    enlarged_pool: bool = True
    fifo_pool: bool = True

    @property
    def pool_size(self) -> int:
        return self.base_pool + (2 if self.enlarged_pool else 0)

    def allocatable(self, rclass: RegClass) -> List[PhysReg]:
        """The ordinary (non-pool) physical registers of a class."""
        count = self.n_int if rclass is RegClass.INT else self.n_fp
        return [PhysReg(i, rclass) for i in range(count)]

    def spill_pool(self, rclass: RegClass) -> List[PhysReg]:
        """The dedicated spill-pool registers of a class.

        Pool registers are numbered after the allocatable ones and
        flagged, so schedules and statistics can distinguish them.
        """
        count = self.n_int if rclass is RegClass.INT else self.n_fp
        return [
            PhysReg(count + i, rclass, is_spill_pool=True)
            for i in range(self.pool_size)
        ]

    def capacity(self, rclass: RegClass) -> int:
        return self.n_int if rclass is RegClass.INT else self.n_fp


#: The register file used by the paper-reproduction experiments.
DEFAULT_REGISTER_FILE = RegisterFile()

#: A deliberately tight register file (stress / QCD2-like pressure).
TIGHT_REGISTER_FILE = RegisterFile(n_int=7, n_fp=8)

#: GCC's unimproved configuration (ablation baseline): small pool,
#: lowest-numbered-first reuse.
UNIMPROVED_REGISTER_FILE = RegisterFile(enlarged_pool=False, fifo_pool=False)
