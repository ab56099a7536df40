"""Memory alias models.

Section 4.2 of the paper: the Perfect Club programs were converted from
FORTRAN with f2c, which forces C's conservative aliasing (every pointer
may alias every other), severely restricting load motion.  The authors
apply a source transformation that restores FORTRAN's no-alias
guarantee between distinct dummy arguments.  We expose the same choice
as an analysis mode:

* :attr:`AliasModel.C_CONSERVATIVE` -- references into *different*
  regions may alias (they came from pointers that could overlap);
  references into the same region alias unless they are provably
  distinct constant offsets of the same base.
* :attr:`AliasModel.FORTRAN` -- distinct regions never alias (the
  FORTRAN standard disallows aliased dummy arguments that are stored
  to); same-region references are disambiguated by their affine index
  expressions when possible.
"""

from __future__ import annotations

import enum

from ..ir.operands import MemRef


class AliasModel(enum.Enum):
    """Which language semantics govern memory disambiguation."""

    C_CONSERVATIVE = "c"
    FORTRAN = "fortran"


#: Regions created by the register allocator for spill slots.  They are
#: compiler-private stack locations, provably disjoint from user memory
#: under *either* language model.
SPILL_REGION_PREFIX = "__spill"


def _same_region_may_alias(a: MemRef, b: MemRef) -> bool:
    """Disambiguate two references into the same region.

    Two references with the same base register and the same induction-
    variable coefficient differ only in their constant offsets, so they
    alias exactly when the offsets are equal.  Anything less structured
    is treated conservatively.
    """
    if a.base == b.base and a.affine_coeff is not None and a.affine_coeff == b.affine_coeff:
        return a.offset == b.offset
    return True


def may_alias(a: MemRef, b: MemRef, model: AliasModel = AliasModel.FORTRAN) -> bool:
    """May the two references touch the same memory location?"""
    if a.region == b.region:
        return _same_region_may_alias(a, b)
    if a.region.startswith(SPILL_REGION_PREFIX) or b.region.startswith(
        SPILL_REGION_PREFIX
    ):
        return False  # spill slots never overlap user memory
    if model is AliasModel.FORTRAN:
        return False
    # C: distinct named regions arrived through pointers that might
    # overlap (the f2c artefact the paper works around).
    return True
