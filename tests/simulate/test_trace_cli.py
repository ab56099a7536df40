"""The ``trace`` command's output, pinned byte for byte.

Each golden file under ``golden/`` is the stdout of::

    balanced-sched trace tests/simulate/fixtures/<fixture>.mf \
        --memory "N(30,5)" --processor <processor>

run from the repository root.  The fixture path is part of the
command's latency-sampling key, so the test runs the command from the
root with that same relative path.
"""

import os

import pytest

from repro.experiments.runner import main

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
FIXTURES = ("allload", "antifan", "empty", "lenwindow", "single")


@pytest.mark.parametrize("processor", ("unlimited", "max8", "len8"))
@pytest.mark.parametrize("fixture", FIXTURES)
def test_trace_output_matches_golden(fixture, processor, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    capsys.readouterr()
    status = main([
        "trace", f"tests/simulate/fixtures/{fixture}.mf",
        "--memory", "N(30,5)", "--processor", processor,
    ])
    assert status == 0
    golden = os.path.join(HERE, "golden", f"trace-{fixture}-{processor}.txt")
    with open(golden, "rb") as handle:
        assert capsys.readouterr().out.encode("utf-8") == handle.read()

