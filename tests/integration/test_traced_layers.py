"""What the end-to-end benchmark relies on must still exist.

``benchmarks/e2e/traced.py`` names each layer by module and attribute
path and looks it up with ``vars(owner)[attr]``; a renamed or deleted
function would crash ``run.py --trace 1``.  This resolves every entry
the same way, without installing any wrapper.  The benchmark's load
generator (``client.py``) imports names from ``repro``, and ``run.py``
spawns the CLI with fixed command lines; both are checked here too.
"""

import ast
import importlib
import importlib.util
import pathlib

import pytest

from repro.experiments import runner

E2E = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
TRACED_PY = E2E / "traced.py"


def _load_traced():
    spec = importlib.util.spec_from_file_location("e2e_traced", TRACED_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACED = _load_traced()


@pytest.mark.parametrize(
    "name,module_name,path",
    [
        pytest.param(*entry, id=entry[0])
        for entry in _TRACED.LAYERS + _TRACED.SERVICE_LAYERS
    ],
)
def test_traced_layer_resolves(name, module_name, path):
    owner = importlib.import_module(module_name)
    *class_path, attr = path.split(".")
    for part in class_path:
        owner = getattr(owner, part)
    assert callable(vars(owner)[attr]), name


def _client_imports():
    """``(module, name)`` for every name ``client.py`` takes from
    ``repro``."""
    tree = ast.parse((E2E / "client.py").read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module.partition(".")[0] == "repro"
        for alias in node.names
    ]


@pytest.mark.parametrize(
    "module_name,name",
    [pytest.param(*entry, id=".".join(entry)) for entry in _client_imports()],
)
def test_client_import_resolves(module_name, name):
    assert hasattr(importlib.import_module(module_name), name)


#: The command lines ``run.py`` spawns (``--help`` aside).
RUN_PY_ARGV = [
    ["run", "all", "--jobs", "1", "--cache-dir", "w/cache",
     "--manifest", "w/manifest.jsonl"],
    ["delay-track"],
    ["serve", "--jobs", "1", "--port", "0", "--batch-window", "0.01",
     "--cache-dir", "w/cache", "--manifest", "w/manifest.jsonl"],
]


@pytest.mark.parametrize("argv", RUN_PY_ARGV, ids=lambda argv: argv[0])
def test_run_py_command_line_parses(argv):
    args = runner._build_parser().parse_args(argv)
    assert args.command == argv[0]
