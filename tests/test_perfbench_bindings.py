"""The end-to-end benchmark's tracer still binds to the library.

``perfbench/tracing.py`` wraps pipeline entry points by module and
attribute name.  A rename in ``src/`` would only surface as a crash of
``perfbench/run.py --trace 1``; this test fails fast instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", TRACING
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "layer,module_name,class_name,attr", _targets(),
    ids=lambda value: str(value),
)
def test_target_resolves(layer, module_name, class_name, attr):
    module = importlib.import_module(module_name)
    if class_name is None:
        assert callable(getattr(module, attr)), (layer, module_name, attr)
    else:
        owner = getattr(module, class_name)
        # The tracer patches the defining class, so the attribute must
        # live in that class's own namespace.
        assert attr in owner.__dict__, (layer, class_name, attr)
