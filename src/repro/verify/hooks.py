"""The opt-in post-schedule assertion hook.

Mirrors the observability recorder's null-switch pattern
(:mod:`repro.obs.recorder`): a module-global hook that is ``None``
unless verification was explicitly enabled, so the compilation
pipeline pays one attribute read per block when off.  When on, every
:func:`repro.core.pipeline.compile_block` output is pushed through the
legality oracle; violations raise :class:`LegalityError` (the default)
or are only counted (``raise_on_violation=False``).

Counters are kept on the hook object and mirrored into the obs metrics
registry (``verify.blocks_checked`` / ``verify.violations``) when a
recorder is active, so ``run --verify --obs --metrics-out`` leaves an
auditable artifact that ``tools/check_verify.py`` can gate on.  With a
parallel engine (``--jobs N``) the hook is inherited by forked workers;
worker-side counters travel back only through the obs per-item child
metric registries, but a violation always fails the run -- the raised
:class:`LegalityError` propagates through the cell-evaluation error
path regardless of worker count.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..machine.processor import PAPER_PROCESSORS
from ..obs import recorder as _obs
from .oracle import LegalityError, Violation, check_compiled

__all__ = [
    "VerifyHook",
    "enable",
    "disable",
    "get",
    "verifying",
]


class VerifyHook:
    """Per-process verification state (counters + configuration)."""

    def __init__(
        self,
        raise_on_violation: bool = True,
        processors: Sequence[object] = PAPER_PROCESSORS,
    ):
        self.raise_on_violation = raise_on_violation
        self.processors = tuple(processors)
        self.blocks_checked = 0
        self.violations = 0
        self.last_violations: List[Violation] = []

    # ------------------------------------------------------------------
    def check(self, compiled, alias_model) -> List[Violation]:
        """Oracle-check one pipeline artefact; count and maybe raise."""
        violations = check_compiled(
            compiled, alias_model, processors=self.processors
        )
        self.blocks_checked += 1
        self.violations += len(violations)
        rec = _obs.get()
        if rec is not None:
            rec.metrics.inc("verify.blocks_checked")
            if violations:
                rec.metrics.inc("verify.violations", len(violations))
        if violations:
            self.last_violations = violations
            if self.raise_on_violation:
                raise LegalityError(
                    violations,
                    context=(
                        f"block {compiled.final.name!r} "
                        f"(alias model {getattr(alias_model, 'value', alias_model)})"
                    ),
                )
        return violations


_hook: Optional[VerifyHook] = None


def enable(
    raise_on_violation: bool = True,
    processors: Sequence[object] = PAPER_PROCESSORS,
) -> VerifyHook:
    """Install (and return) the process-wide verification hook."""
    global _hook
    _hook = VerifyHook(
        raise_on_violation=raise_on_violation, processors=processors
    )
    return _hook


def disable() -> Optional[VerifyHook]:
    """Remove the hook; returns it so callers can read final counters."""
    global _hook
    hook, _hook = _hook, None
    return hook


def get() -> Optional[VerifyHook]:
    """The active hook, or ``None`` (the common, free case)."""
    return _hook


class verifying:
    """Context manager: verification on for the duration of a block.

    >>> with verifying() as hook:
    ...     compile_block(block, policy)
    >>> hook.blocks_checked
    1
    """

    def __init__(self, raise_on_violation: bool = True, processors=PAPER_PROCESSORS):
        self._args = (raise_on_violation, processors)

    def __enter__(self) -> VerifyHook:
        self._saved = get()
        return enable(*self._args)

    def __exit__(self, *exc) -> None:
        global _hook
        _hook = self._saved
        return None
