"""sympy as an independent oracle for the phase-space operators and for
the subtree sharing of compiled code.

Each corpus problem's sources are parsed by sympy itself, differentiated by
sympy, and compared with the compiled operators at 20 drawn rows; and the
common subexpressions ``sympy.cse`` extracts from the derived fields are
computed once by the compiled code of those fields.
"""

import json

import pytest

from lagdeform import expressions as ex
from lagdeform.conditions import DerivedFields
from lagdeform.corpus import CORPUS_NAMES, corpus_text
from lagdeform.geometry import fiber_hessian, lagrange_differential, liouville_apply, spray_apply
from lagdeform.pipeline import problem_from_dict
from lagdeform.sampling import Guards, draw_samples

sympy = pytest.importorskip("sympy")

_FUNCTIONS = {
    "exp": sympy.exp,
    "ln": sympy.log,
    "sqrt": sympy.sqrt,
    "sin": sympy.sin,
    "cos": sympy.cos,
    "abs": sympy.Abs,
    "sign": sympy.sign,
}


def _sympy_operators(data: dict) -> list:
    """C(L), S(L), the components of delta_S L and the cells of g, from
    sympy's own parse and derivatives of the problem's sources."""
    n = data["dim"]
    xs = sympy.symbols(" ".join(f"x{i}" for i in range(1, n + 1)), seq=True)
    ys = sympy.symbols(" ".join(f"y{i}" for i in range(1, n + 1)), seq=True)
    names = {**_FUNCTIONS, **{str(s): s for s in xs + ys}}
    names.update({k: sympy.Float(v) for k, v in data["params"].items()})

    def parse(source):
        return sympy.sympify(source.replace("^", "**"), locals=names)

    L = parse(data["lagrangian"])
    G = [parse(source) for source in data["spray"]]

    def S(F):
        return sum(y * sympy.diff(F, x) - 2 * g * sympy.diff(F, y) for x, y, g in zip(xs, ys, G))

    momenta = [sympy.diff(L, y) for y in ys]
    forms = [sum(y * p for y, p in zip(ys, momenta)), S(L)]
    forms += [S(p) - sympy.diff(L, x) for p, x in zip(momenta, xs)]
    forms += [sympy.diff(p, y) for p in momenta for y in ys]
    return [sympy.lambdify(xs + ys, form, modules="math") for form in forms]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_operators_match_sympy_derivatives(name):
    data = json.loads(corpus_text(name))
    spec = problem_from_dict(data)
    roots = (
        liouville_apply(spec.lagrangian).expr,
        spray_apply(spec.spray, spec.lagrangian).expr,
        *lagrange_differential(spec.spray, spec.lagrangian).components,
        *(cell for line in fiber_hessian(spec.lagrangian) for cell in line),
    )
    kernel = ex.compile(roots, ex.chart_names(spec.n), spec.params)
    rows = draw_samples(spec.plan(count=20), Guards(evaluable=roots), spec.params).rows
    oracles = _sympy_operators(data)
    assert len(oracles) == len(roots) and len(rows) == 20
    for row in rows:
        for got, oracle in zip(kernel(row), oracles):
            want = float(oracle(*row))
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want)), (row, got, want)


def _children(node) -> tuple:
    if isinstance(node, ex._Binary):
        return (node.left, node.right)
    if isinstance(node, ex.Pow):
        return (node.base,)
    if isinstance(node, (ex.Neg, ex._Func)):
        return (node.arg,)
    return ()


def _subtree_sources(roots) -> list:
    """The source text of every non-leaf subtree of ``roots``, once per node."""
    seen, sources, stack = set(), [], list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(_children(node))
            if _children(node):
                sources.append(ex.to_source(node))
    return sources


def _nonleaf_locals(roots, names, params) -> int:
    """The locals the emitter assigns to non-leaf subtrees of ``roots``: all
    of the compiled code's locals but the row and the variables read from it."""
    code = ex._compile(tuple(roots), names, params).__code__
    read = set(names) & frozenset().union(*(root.free_vars() for root in roots))
    return len(code.co_varnames) - 1 - len(read)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_compiled_code_shares_what_sympy_cse_extracts(name):
    data = json.loads(corpus_text(name))
    spec = problem_from_dict(data)
    derived = DerivedFields(spec.spray, spec.lagrangian, spec.params)
    roots = (
        spec.lagrangian.expr,
        derived.spray_of_L.expr,
        derived.liouville_of_L.expr,
        derived.energy_of_L.expr,
        derived.energy_rate.expr,
        *derived.vertical.components,
        *derived.defect.components,
        *(cell for line in derived.hessian for cell in line),
    )
    names = ex.chart_names(spec.n)
    declared = names + tuple(spec.params)
    symbols = {**_FUNCTIONS, **{v: sympy.Symbol(v) for v in declared}}

    def parse(source):
        return sympy.sympify(source.replace("^", "**"), locals=symbols)

    sources = _subtree_sources(roots)
    structures = {}  # sympy's form -> the source texts of the subtrees of that form
    for source in set(sources):
        structures.setdefault(parse(source), set()).add(source)
    replacements, _ = sympy.cse([parse(ex.to_source(r)) for r in roots])
    extracted = {}
    for symbol, e in replacements:
        extracted[symbol] = e.xreplace(extracted)
    # the subexpressions sympy extracts that are subtrees of one structure:
    # forms sympy reaches only by reordering or regrouping are left out
    same = [min(structures[e]) for e in extracted.values() if len(structures.get(e, ())) == 1]
    assert same
    # the emitter assigns at most one local to each distinct non-leaf
    # subtree, and more locals than sympy extracts subexpressions
    emitted = _nonleaf_locals(roots, names, spec.params)
    assert len(same) <= len(replacements) < emitted <= len(set(sources))
    # the code computes each extracted subtree once: compiled as one more
    # root, it adds no local
    for source in same:
        extra = (ex.parse(source, declared),)
        assert _nonleaf_locals(roots + extra, names, spec.params) == emitted, source
