"""Tests for the dead-import gate (``tools/check_imports.py``)."""

import importlib.util
import pathlib
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "check_imports", ROOT / "tools" / "check_imports.py"
)
check_imports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_imports)


def _module(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


def test_flags_each_unused_name(tmp_path):
    path = _module(tmp_path, """\
        from __future__ import annotations

        import os
        import numpy as np
        from typing import Dict, List

        def f(x: List[int]) -> int:
            return len(x)
        """)
    assert check_imports.unused_imports(path) == [
        (3, "os"), (4, "np"), (5, "Dict"),
    ]


def test_reads_all_string_annotations_and_dotted_imports(tmp_path):
    path = _module(tmp_path, """\
        import os.path
        from collections import OrderedDict
        from typing import Optional
        from .sibling import exported

        __all__ = ["exported"]

        def f(x: "Optional[int]") -> None:
            table: "OrderedDict[str, int]" = OrderedDict()
            return os.path.join(str(x), str(table))
        """)
    assert check_imports.unused_imports(path) == []


def test_every_root_is_scanned(tmp_path, capsys):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        _module(tmp_path / name, "import os\n")
    roots = [str(tmp_path / "a"), str(tmp_path / "b")]
    assert check_imports.main(["check_imports.py", *roots]) == 2
    assert capsys.readouterr().out.count("'os' imported but unused") == 2


def test_the_package_has_no_dead_imports():
    """The roots the CI gate scans: the package, its tests, the tools."""
    roots = [str(ROOT / name) for name in ("src", "tests", "tools")]
    assert check_imports.main(["check_imports.py", *roots]) == 0
