"""What importing the CLI pulls in.

Every ``balanced-sched`` command pays its module's import before doing
any work, so the runner must not drag in machinery it never uses.
Cells are evaluated in the calling process: no process pool, hence no
``multiprocessing`` and no ``concurrent.futures.process``.  Checked in
a fresh interpreter, since this test process has imported who knows
what already.
"""

import os
import subprocess
import sys

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

PROBE = """
import sys
import repro.experiments.runner
print(" ".join(
    name for name in ("multiprocessing", "concurrent.futures.process")
    if name in sys.modules
))
"""


def test_runner_import_leaves_process_pools_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(REPO_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
