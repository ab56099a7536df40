"""The pipeline verification hook: null-switch, counters, obs mirror.

The hook must be invisible when off (the default for every existing
caller), count and pass through when the pipeline is clean, raise
:class:`LegalityError` on a corrupted artefact, and mirror its
counters into the observability registry when a recorder is active
(that mirror is what ``tools/check_verify.py`` gates CI on).
"""

import dataclasses

import pytest

from repro.core.balanced import BalancedScheduler
from repro.core.pipeline import compile_block
from repro.frontend.lowering import compile_minif
from repro.ir.printer import format_block
from repro.obs import recorder as obs_recorder
from repro.verify import hooks
from repro.verify.oracle import LegalityError

SOURCE = """
program hooked
  array va[256], vb[256]
  scalar s0
  kernel k0 freq 5 unroll 1
    t0 = va[i] * vb[i]
    vb[i] = t0 + va[i+1]
    s0 = s0 + t0
  end
end
"""


def _block():
    program = compile_minif(SOURCE)
    (block,) = [b for f in program for b in f]
    return block


@pytest.fixture(autouse=True)
def _no_leftover_hook():
    yield
    hooks.disable()


def test_hook_is_off_by_default():
    assert hooks.get() is None


def test_verifying_context_counts_blocks():
    with hooks.verifying() as hook:
        compile_block(_block(), BalancedScheduler())
    assert hook.blocks_checked == 1
    assert hook.violations == 0
    assert hooks.get() is None, "context must restore the prior hook"


def test_enable_disable_round_trip():
    hook = hooks.enable()
    assert hooks.get() is hook
    assert hooks.disable() is hook
    assert hooks.get() is None
    assert hooks.disable() is None


def test_output_identical_with_hook_on():
    """Verification must observe, never transform."""
    plain = compile_block(_block(), BalancedScheduler())
    with hooks.verifying():
        checked = compile_block(_block(), BalancedScheduler())
    assert format_block(checked.final) == format_block(plain.final)


def test_corrupted_artifact_raises_legality_error():
    compiled = compile_block(_block(), BalancedScheduler())
    corrupted = dataclasses.replace(
        compiled,
        pass1=dataclasses.replace(
            compiled.pass1,
            block=compiled.pass1.block.replaced(
                compiled.pass1.block.instructions[:-1]
            ),
        ),
    )
    hook = hooks.enable()
    with pytest.raises(LegalityError, match="hooked|k0"):
        hook.check(corrupted, "fortran")
    assert hook.violations >= 1
    assert hook.last_violations


def test_raise_on_violation_false_only_counts():
    compiled = compile_block(_block(), BalancedScheduler())
    corrupted = dataclasses.replace(
        compiled,
        pass1=dataclasses.replace(
            compiled.pass1,
            block=compiled.pass1.block.replaced(
                compiled.pass1.block.instructions[:-1]
            ),
        ),
    )
    hook = hooks.enable(raise_on_violation=False)
    violations = hook.check(corrupted, "fortran")
    assert violations
    assert hook.violations == len(violations)


def test_counters_mirrored_into_obs_metrics():
    rec = obs_recorder.enable()
    try:
        with hooks.verifying():
            compile_block(_block(), BalancedScheduler())
    finally:
        obs_recorder.disable()
    counters = {
        name: value for (name, labels), value in rec.metrics.counters.items()
        if name.startswith("verify.") and not labels
    }
    assert counters.get("verify.blocks_checked") == 1
    assert "verify.violations" not in counters, "clean runs record no violations"
