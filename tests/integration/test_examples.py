"""Every script in ``examples/`` runs to completion.

The examples are entry points of the reachability gate
(``tools/check_reachability.py``), so what they import ships; this
keeps them running.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _run(script: pathlib.Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script):
    assert _run(script)


def test_section6_widths_are_the_committed_ablation_rows():
    """The example's superscalar rows are ``results/ablations.txt``'s."""
    printed = re.findall(
        r"issue width (\d): .*: ([+-]\d+\.\d)%",
        _run(ROOT / "examples" / "section6_extensions.py"),
    )
    committed = re.findall(
        r"issue width (\d): .* ([+-]\d+\.\d)%",
        (ROOT / "results" / "ablations.txt").read_text(),
    )
    assert len(printed) == 3
    assert printed == committed
