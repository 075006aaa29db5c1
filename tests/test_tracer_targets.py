"""The functions the benchmark's per-layer tracer wraps still exist, and
the expression nodes it walks hold their structure only.

``perfbench/layers.py`` replaces public lagdeform functions by name; a
rename or deletion would fail only inside a traced benchmark run. The
module is loaded from its file without writing bytecode next to it.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from lagdeform import expressions as ex
from lagdeform.conditions import DerivedFields
from lagdeform.corpus import load_corpus_problem
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


def _concrete_nodes(cls=ex.Expr):
    for sub in cls.__subclasses__():
        if not sub.__name__.startswith("_"):
            yield sub
        yield from _concrete_nodes(sub)


def test_expression_nodes_slot_their_structure_only():
    # the tracer's derived_tree_sizes walks every slot a node class
    # declares as a child or an atom of the node, so a slot that caches
    # anything (a derivative, compiled code) makes a traced run raise;
    # derivatives are shared through a table the caller keeps instead
    structure = {ex.Const: ("value",), ex.Var: ("name",), ex.Pow: ("base", "exponent")}
    for cls in (ex.Add, ex.Sub, ex.Mul, ex.Div):
        structure[cls] = ("left", "right")
    for cls in (ex.Neg, ex.ExpFn, ex.LnFn, ex.SqrtFn, ex.SinFn, ex.CosFn, ex.AbsFn, ex.SignFn):
        structure[cls] = ("arg",)
    assert set(_concrete_nodes()) == set(structure)
    layers = _load_layers()
    for cls, fields in structure.items():
        assert layers._slots(cls) == fields, cls.__name__
        assert "__dict__" not in dir(cls), cls.__name__
    spec = load_corpus_problem("moebius")
    nodes, distinct = layers.derived_tree_sizes(spec.spray, spec.lagrangian)
    assert nodes > distinct > 0
