"""The benchmark's traced functions must exist under their names.

perfbench/layers.py lists the (module, function) pairs a traced benchmark
run wraps. A function renamed or inlined away drops its per-layer metrics
from the run, so every listed name is checked here.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def targets():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
    finally:
        sys.path.remove(str(PERFBENCH))
    return [(module, function) for module, function, _ in layers.TARGETS]


@pytest.mark.parametrize("module,function", targets(),
                         ids=lambda name: name)
def test_traced_function_is_defined(module, function):
    target = getattr(importlib.import_module(f"jointpref.{module}"), function,
                     None)
    assert callable(target), f"jointpref.{module}.{function} is gone"
