"""The fixed cost of a ``balanced-sched`` process: the package pins
OpenBLAS to one thread at import, and the process entry point
:func:`~repro.experiments.runner.cli` freezes the heap before exit.

Each check runs in a fresh interpreter: pytest may have imported numpy
before ``repro``, and a freeze in this process would outlive the test.
"""

import ast
import gc
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.experiments.runner import main

ROOT = pathlib.Path(__file__).resolve().parents[2]
RUNNER = ROOT / "src" / "repro" / "experiments" / "runner.py"


def _python(args, env=None, cwd=None):
    child_env = dict(os.environ)
    child_env.pop("OPENBLAS_NUM_THREADS", None)
    child_env.update(env or {})
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd or ROOT, env=child_env,
        capture_output=True, text=True, timeout=120,
    )


_THREADS_AFTER_IMPORT = """\
import os, re
import repro.experiments.runner
status = open("/proc/self/status").read()
print(re.search(r"Threads:\\s*(\\d+)", status).group(1),
      os.environ["OPENBLAS_NUM_THREADS"])
"""


def _threads_after_import(env=None):
    done = _python(["-c", _THREADS_AFTER_IMPORT], env=env)
    assert done.returncode == 0, done.stderr
    threads, setting = done.stdout.split()
    return int(threads), setting


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/status"
)
def test_import_starts_no_blas_worker():
    assert _threads_after_import() == (1, "1")


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/status"
)
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="one CPU: OpenBLAS starts no worker"
)
def test_a_callers_thread_count_is_kept():
    assert _threads_after_import({"OPENBLAS_NUM_THREADS": "2"}) == (2, "2")


def _mask_timing(text):
    return re.sub(r"regenerated in \d+\.\ds", "regenerated in Xs", text)


def test_module_run_matches_in_process_main(tmp_path, capsys):
    manifest = tmp_path / "process.jsonl"
    done = _python([
        "-m", "repro.experiments.runner", "run", "table1", "--no-cache",
        "--manifest", str(manifest),
    ], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    records = [json.loads(line) for line in manifest.read_text().splitlines()]
    assert records[-1]["event"] == "run_end"

    frozen = gc.get_freeze_count()
    assert main([
        "run", "table1", "--no-cache",
        "--manifest", str(tmp_path / "in-process.jsonl"),
    ]) == 0
    assert gc.get_freeze_count() == frozen, "main() must never freeze"
    assert _mask_timing(done.stdout) == _mask_timing(capsys.readouterr().out)


def test_bad_manifest_path_still_exits_2(tmp_path):
    (tmp_path / "file").write_text("")
    done = _python([
        "-m", "repro.experiments.runner", "run", "table1", "--no-cache",
        "--manifest", str(tmp_path / "file" / "m.jsonl"),
    ], cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith("balanced-sched: ")
    assert len(done.stderr.splitlines()) == 1


def test_missing_manifest_parents_are_created(tmp_path):
    """The end-to-end benchmark puts each operation's manifest in a
    directory that it never creates itself."""
    manifest = tmp_path / "a" / "b" / "m.jsonl"
    done = _python([
        "-m", "repro.experiments.runner", "run", "table1", "--no-cache",
        "--manifest", str(manifest),
    ], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    records = [json.loads(line) for line in manifest.read_text().splitlines()]
    assert records[-1]["event"] == "run_end"


@pytest.mark.parametrize("argv, status", [
    (["--help"], 0),            # argparse exits from inside main()
    (["run", "no-such-table"], 2),
])
def test_cli_freezes_and_keeps_atexit_on_every_exit(argv, status):
    done = _python(["-c", (
        "import atexit, gc, sys\n"
        "from repro.experiments.runner import cli\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
        f"sys.argv = ['balanced-sched', *{argv!r}]\n"
        "cli()\n"
    )])
    assert done.returncode == status, done.stderr
    frozen = re.search(r"^frozen (\d+)$", done.stdout, re.M)
    assert frozen and int(frozen.group(1)) > 0


def _main_block_call(path):
    """The function the ``if __name__ == "__main__":`` block calls."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test):
            (stmt,) = node.body
            return ast.unparse(stmt.value.func)
    raise AssertionError(f"{path} has no __main__ block")


def test_console_script_is_the_module_entry_point():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())[
        "project"]["scripts"]
    module, function = scripts["balanced-sched"].split(":")
    assert module == "repro.experiments.runner"
    assert _main_block_call(RUNNER) == function == "cli"
