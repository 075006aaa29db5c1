"""The functions the benchmark's per-layer tracer wraps still exist.

``perfbench/layers.py`` replaces public lagdeform functions by name; a
rename or deletion would fail only inside a traced benchmark run. The
module is loaded from its file without writing bytecode next to it.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from lagdeform.conditions import DerivedFields
from lagdeform.sampling import Guards

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
        del sys.modules[spec.name]
    return module


def test_every_traced_function_resolves_on_lagdeform():
    layers = _load_layers()
    assert layers.SPANNED and layers.COUNTED
    missing = []
    for module, function in layers.SPANNED + layers.COUNTED:
        if not callable(getattr(importlib.import_module(f"lagdeform.{module}"), function, None)):
            missing.append(f"{module}.{function}")
    assert missing == []
    # the tracer spans the DerivedFields constructor through __post_init__
    assert callable(vars(DerivedFields).get("__post_init__"))
    # the tracer's wrapper calls admits(guards, row, params, eps) positionally
    assert list(inspect.signature(Guards.admits).parameters) == ["self", "row", "params", "eps"]
