"""Public-API consistency checks across every package.

Every name has one home: the module that defines it.  The package
``__init__`` files hold a docstring and re-export nothing, apart from
the four ``repro.service`` names the end-to-end benchmark client
imports, so ``import repro`` stays cheap and no import path can drift
from the definition.
"""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
E2E_CLIENT = ROOT / "benchmarks" / "e2e" / "client.py"

PACKAGES = [
    "repro",
    "repro.ir",
    "repro.frontend",
    "repro.analysis",
    "repro.core",
    "repro.regalloc",
    "repro.machine",
    "repro.simulate",
    "repro.workloads",
    "repro.extensions",
    "repro.experiments",
    "repro.obs",
    "repro.verify",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    importlib.import_module(name)


def test_every_submodule_imports():
    """Import every module in the tree (catches syntax/import errors in
    modules no test touches directly)."""
    failures = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        try:
            importlib.import_module(info.name)
        except Exception as error:  # pragma: no cover - failure reporting
            failures.append((info.name, error))
    assert not failures, failures


def _from_imports(path, module=None):
    """Names bound by ``from ... import`` statements in ``path``; only
    those taken from ``module`` when it is given."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (module is None or node.module == module)
        for alias in node.names
    }


def test_package_inits_hold_only_a_docstring():
    """Except ``repro`` (the OpenBLAS pin and ``__version__``, importing
    no name) and ``repro.service`` (checked below)."""
    with_code = set()
    for path in (SRC / "repro").rglob("__init__.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        docstring = ast.get_docstring(tree) is not None
        if tree.body[docstring:]:
            with_code.add(".".join(path.relative_to(SRC).parent.parts))
    assert with_code == {"repro", "repro.service"}
    assert _from_imports(SRC / "repro" / "__init__.py") == set()


def test_service_init_reexports_what_the_e2e_client_imports():
    client_names = _from_imports(E2E_CLIENT, "repro.service")
    assert client_names
    service_init = SRC / "repro" / "service" / "__init__.py"
    assert _from_imports(service_init) == client_names
    assert set(importlib.import_module("repro.service").__all__) == (
        client_names
    )


_LOADED_BY_IMPORT = """\
import sys
import repro
print(" ".join(sorted(
    name for name in sys.modules
    if name.partition(".")[0] in ("numpy", "repro")
)))
"""


def test_import_repro_loads_no_numpy():
    """Checked in a fresh interpreter: this process has imported numpy
    already."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", _LOADED_BY_IMPORT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["repro"]
