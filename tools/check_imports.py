#!/usr/bin/env python
"""CI gate against dead imports.

Usage::

    python tools/check_imports.py [ROOT ...]

Scans every ``.py`` module under each ``ROOT`` (default: ``src``) and
reports each name a module imports but never uses.  A name counts as
used when it is read anywhere in the module -- string annotations
included -- or listed in the module's ``__all__``.
Only the standard-library :mod:`ast` is used, so the gate runs before
any dependency is installed.

Prints one line per unused import; exit status 1 if there is any,
0 if the tree is clean.
"""

import ast
import sys
from pathlib import Path


def _imported(tree: ast.Module):
    """``(name, line)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set:
    """Every name the module reads, its ``__all__`` and the names inside
    string annotations (``"OrderedDict[str, dict]"``)."""
    used = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation else ():
            if isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(
                    name.id for name in ast.walk(parsed)
                    if isinstance(name, ast.Name)
                )
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path):
    """``(line, name)`` for each unused import of one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    return sorted(
        (line, name) for name, line in _imported(tree) if name not in used
    )


def main(argv) -> int:
    """Report the unused imports under each root named in ``argv[1:]``;
    return their count."""
    problems = 0
    for root in argv[1:] or ["src"]:
        for path in sorted(Path(root).rglob("*.py")):
            for line, name in unused_imports(path):
                print(f"{path}:{line}: {name!r} imported but unused")
                problems += 1
    return problems


if __name__ == "__main__":
    sys.exit(1 if main(sys.argv) else 0)
