"""What importing the CLI pulls in.

Every ``balanced-sched`` command pays its module's import before doing
any work, so the runner must not drag in machinery it never uses.
Cells are evaluated in the calling process: no process pool, hence no
``multiprocessing`` and no ``concurrent.futures.process``.  Request
tracing belongs to the daemon, so the runner leaves
``repro.obs.requesttrace`` and ``repro.service`` unimported until
``serve`` asks for them.  Checked in a fresh interpreter, since this
test process has imported who knows what already.
"""

import os
import subprocess
import sys

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

PROBE = """
import sys
import repro.experiments.runner
print(" ".join(name for name in sys.argv[1:] if name in sys.modules))
"""


def _imported_by_runner(*modules):
    """Which of ``modules`` a fresh ``import repro.experiments.runner``
    loads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(REPO_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *modules],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_runner_import_leaves_process_pools_out():
    assert _imported_by_runner(
        "multiprocessing", "concurrent.futures.process"
    ) == []


def test_runner_import_leaves_request_tracing_out():
    assert _imported_by_runner("repro.obs.requesttrace", "repro.service") == []
