"""Every layer the traced end-to-end benchmark wraps must still exist.

``benchmarks/e2e/traced.py`` names each layer by module and attribute
path and looks it up with ``vars(owner)[attr]``; a renamed or deleted
function would crash ``run.py --trace 1``.  This resolves every entry
the same way, without installing any wrapper.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACED_PY = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "e2e" / "traced.py"
)


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
