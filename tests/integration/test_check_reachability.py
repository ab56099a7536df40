"""Tests for the reachability gate (``tools/check_reachability.py``)."""

import importlib.util
import pathlib
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "check_reachability", ROOT / "tools" / "check_reachability.py"
)
check_reachability = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_reachability)


def _tree(tmp_path, files):
    """Write ``{relative path: source}`` under ``tmp_path/src``."""
    src = tmp_path / "src"
    for name, source in files.items():
        path = src / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return src


def _unreached(src, scripts=()):
    return [
        path.relative_to(src).as_posix()
        for path in check_reachability.unreached(src, ("pkg.main",), scripts)
    ]


def test_flags_an_orphan_module(tmp_path):
    src = _tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/main.py": "from .used import run\n",
        "pkg/used.py": "def run():\n    pass\n",
        "pkg/orphan.py": "def never():\n    pass\n",
    })
    assert _unreached(src) == ["pkg/orphan.py"]


def test_from_package_import_name_reaches_its_module(tmp_path):
    src = _tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/main.py": "from pkg.sub import build\n",
        "pkg/sub/__init__.py": "from .inner import build\n",
        "pkg/sub/inner.py": "from ..leaf import LEAF\n\ndef build():\n"
                            "    return LEAF\n",
        "pkg/leaf.py": "LEAF = 0\n",
    })
    assert _unreached(src) == []


def test_a_lazy_import_inside_a_function_counts(tmp_path):
    src = _tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/main.py": """\
            def serve():
                from . import late
                return late.VALUE
            """,
        "pkg/late.py": "VALUE = 1\n",
    })
    assert _unreached(src) == []


def test_an_example_script_is_a_root(tmp_path):
    src = _tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/main.py": "",
        "pkg/extra.py": "",
    })
    script = tmp_path / "demo.py"
    script.write_text("from pkg.extra import *\n")
    assert _unreached(src) == ["pkg/extra.py"]
    assert _unreached(src, [script]) == []


def test_every_shipped_module_is_reached(capsys):
    assert check_reachability.main(
        ["check_reachability.py", str(ROOT / "src"), str(ROOT / "examples")]
    ) == 0
    assert capsys.readouterr().out == ""
