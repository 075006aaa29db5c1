"""sympy as an independent oracle for the phase-space operators.

Each corpus problem's sources are parsed by sympy itself, differentiated by
sympy, and compared with the compiled operators at 20 drawn rows.
"""

import json

import pytest

from lagdeform import expressions as ex
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
