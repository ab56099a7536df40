#!/usr/bin/env python
"""CI gate against modules that no entry point reaches.

Usage::

    python tools/check_reachability.py [SRC [EXAMPLES]]

Builds the static import graph of the package under ``SRC`` (default:
``src``) from its entry points -- the CLI (``repro.experiments.runner``),
the daemon (``repro.service.server``), its client
(``repro.service.client``) and every script in ``EXAMPLES`` (default:
``examples``) -- and reports each module under ``SRC`` that none of
them reaches.  Every ``import`` and ``from ... import`` counts,
including lazy ones inside functions, and a package ``__init__``'s own
imports are followed like any module's.  Only the standard-library
:mod:`ast` is used.

Prints one line per unreached module; exit status 1 if there is any,
0 if every module is reached.
"""

import ast
import sys
from pathlib import Path

ENTRY_POINTS = (
    "repro.experiments.runner",
    "repro.service.server",
    "repro.service.client",
)


def index_modules(src: Path) -> dict:
    """Dotted module name -> path for every ``.py`` file under ``src``."""
    modules = {}
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _is_package(modules: dict, name: str) -> bool:
    return modules[name].name == "__init__.py"


def _absolute(modules: dict, importer: str, node: ast.ImportFrom) -> str:
    """The absolute module a (possibly relative) ``from`` import names."""
    if not node.level:
        return node.module or ""
    package = importer if _is_package(modules, importer) else (
        importer.rpartition(".")[0]
    )
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def _imports(tree: ast.AST, modules: dict, importer: str):
    """``(module, names)`` per import statement anywhere in ``tree``:
    ``names`` are what a ``from`` import takes out of ``module``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            module = _absolute(modules, importer, node)
            yield module, tuple(alias.name for alias in node.names)


class _Graph:
    """Lazily parsed import statements of every module in the index."""

    def __init__(self, modules: dict):
        self.modules = modules
        self._parsed = {}

    def imports(self, name: str, path: Path = None):
        if name not in self._parsed:
            path = path or self.modules[name]
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            self._parsed[name] = list(_imports(tree, self.modules, name))
        return self._parsed[name]

    def resolve(self, module: str, names) -> set:
        """The modules that ``from module import names`` names: the
        module itself and each name that is one of its submodules."""
        if module not in self.modules:
            return set()
        return {module} | {
            f"{module}.{name}" for name in names
            if f"{module}.{name}" in self.modules
        }

    def edges(self, name: str, path: Path = None) -> set:
        """Every module one module's own import statements reach."""
        found = set()
        for module, names in self.imports(name, path):
            found |= self.resolve(module, names)
        return found


def unreached(src: Path, entry_points=ENTRY_POINTS, scripts=()) -> list:
    """Paths of the non-``__init__`` modules under ``src`` that neither
    ``entry_points`` (dotted names) nor ``scripts`` (paths) reach."""
    graph = _Graph(index_modules(src))
    frontier = {name for name in entry_points if name in graph.modules}
    for script in scripts:
        frontier |= graph.edges(f"<{script}>", Path(script))
    seen = set()
    while frontier:
        name = frontier.pop()
        if name not in seen:
            seen.add(name)
            frontier |= graph.edges(name) - seen
    return sorted(
        path for name, path in graph.modules.items()
        if name not in seen and path.name != "__init__.py"
    )


def main(argv) -> int:
    """Report the unreached modules under ``argv[1]``; return their count."""
    src = Path(argv[1] if len(argv) > 1 else "src")
    examples = Path(argv[2] if len(argv) > 2 else "examples")
    orphans = unreached(src, ENTRY_POINTS, sorted(examples.glob("*.py")))
    for path in orphans:
        print(f"{path}: no entry point reaches this module")
    return len(orphans)


if __name__ == "__main__":
    sys.exit(1 if main(sys.argv) else 0)
