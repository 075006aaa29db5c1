import gc
import math
import operator
import random
import struct
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagdeform.expressions import (
    Const,
    DomainViolation,
    Dual,
    Expr,
    ExpressionError,
    Overflow,
    ParseError,
    UnboundVariable,
    UndeclaredIdentifier,
    Var,
    _compile,
    _emit,
    add,
    compile,
    div,
    evaluate,
    evaluate_dual,
    mul,
    parse,
    partial,
    pow_,
    sub,
    to_source,
)
from lagdeform.sampling import Guards

XY2 = ("x1", "x2", "y1", "y2")
XY3 = ("x1", "x2", "x3", "y1", "y2", "y3")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_kinetic_sum():
    e = parse("y1^2 + y2^2", XY2)
    assert evaluate(e, {"y1": 2.0, "y2": 1.0}) == 5.0


def test_parse_conformal_kinetic():
    e = parse("0.5*exp(2*x1)*(y1^2+y2^2+y3^2)", XY3)
    b = {"x1": 0.3, "y1": 1.0, "y2": 2.0, "y3": 0.5}
    expected = 0.5 * math.exp(0.6) * (1.0 + 4.0 + 0.25)
    assert evaluate(e, b) == pytest.approx(expected, rel=1e-15)


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        parse("x1 +* y1", XY2)
    assert exc.value.position == 4


def test_parse_undeclared_identifier():
    with pytest.raises(UndeclaredIdentifier) as exc:
        parse("x1 + q7", XY2)
    assert exc.value.name == "q7"


def test_parse_precedence():
    e = parse("1 + 2*3^2", ())
    assert evaluate(e, {}) == 19.0
    # pow binds tighter than unary minus
    e = parse("-2^2", ())
    assert evaluate(e, {}) == -4.0
    e = parse("(1+2)*3", ())
    assert evaluate(e, {}) == 9.0
    e = parse("2 - 1 - 1", ())
    assert evaluate(e, {}) == 0.0
    e = parse("8 / 4 / 2", ())
    assert evaluate(e, {}) == 1.0


def test_parse_negative_exponent():
    e = parse("x1^-2", XY2)
    assert evaluate(e, {"x1": 2.0}) == 0.25


def test_parse_variable_exponent_rejected():
    with pytest.raises(ParseError):
        parse("x1^y1", XY2)


def test_parse_scientific_literals():
    assert evaluate(parse("1e-3 + 2.5E2", ()), {}) == pytest.approx(250.001)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_kinetic_half():
    e = parse("0.5*(y1^2+y2^2)", XY2)
    assert evaluate(e, {"y1": 2.0, "y2": 1.0}) == 2.5


def test_evaluate_ln_negative_is_domain_violation():
    e = parse("ln(x1)", XY2)
    with pytest.raises(DomainViolation):
        evaluate(e, {"x1": -1.0})


def test_evaluate_division_by_zero():
    e = parse("1/(x1 - 1)", XY2)
    with pytest.raises(DomainViolation):
        evaluate(e, {"x1": 1.0})


def test_evaluate_zero_to_negative_power():
    e = parse("x1^-1", XY2)
    with pytest.raises(DomainViolation):
        evaluate(e, {"x1": 0.0})


def test_power_overflow_is_domain_violation():
    # math.pow raises OverflowError for 100^400, as math.exp does for exp(1000);
    # both are per-point outcomes, so a sampler rejects the point
    e = parse("x1^400", XY2)
    with pytest.raises(DomainViolation):
        evaluate(e, {"x1": 100.0})
    with pytest.raises(DomainViolation):
        evaluate_dual(e, {"x1": 100.0}, "x1")
    assert not Guards(evaluable=(e,)).admits([100.0, 1.0, 1.0, 1.0], None, 1e-6)
    assert not Guards(evaluable=(parse("exp(x1)", XY2),)).admits(
        [1000.0, 1.0, 1.0, 1.0], None, 1e-6
    )


def test_function_overflow_is_overflow():
    # math.exp overflows as math.pow does, and both are an Overflow, which
    # the integrator reports as a blow-up
    e = parse("exp(x1)", XY2)
    with pytest.raises(Overflow, match="math range error in 'exp\\(x1\\)'"):
        evaluate(e, {"x1": 1000.0})
    with pytest.raises(Overflow):
        evaluate_dual(e, {"x1": 1000.0}, "x1")
    with pytest.raises(Overflow):
        evaluate(parse("x1^400", XY2), {"x1": 100.0})


def test_evaluate_missing_binding_is_error():
    e = parse("x1 + y1", XY2)
    with pytest.raises(UnboundVariable):
        evaluate(e, {"x1": 1.0})


def test_evaluate_deterministic():
    e = parse("sin(x1)*exp(y1)/(1+x1^2)", XY2)
    b = {"x1": 0.7, "y1": -0.3}
    assert evaluate(e, b) == evaluate(e, b)


# ---------------------------------------------------------------------------
# symbolic differentiation
# ---------------------------------------------------------------------------


def test_partial_power_rule():
    e = parse("y1^2+y2^2", XY2)
    d = partial(e, "y1")
    assert evaluate(d, {"y1": 3.0, "y2": 7.0}) == 6.0


def test_partial_conformal_factor():
    # d/dx1 [0.5 e^{2 x1} q] = e^{2 x1} q
    e = parse("0.5*exp(2*x1)*(y1^2+y2^2+y3^2)", XY3)
    d = partial(e, "x1")
    b = {"x1": 0.4, "y1": 1.0, "y2": -1.5, "y3": 2.0}
    expected = math.exp(0.8) * (1.0 + 2.25 + 4.0)
    assert evaluate(d, b) == pytest.approx(expected, rel=1e-14)


def test_partial_independent_variable():
    e = parse("x2", XY2)
    d = partial(e, "y1")
    assert evaluate(d, {"x2": 5.0}) == 0.0


def test_partial_abs_gives_sign():
    e = parse("abs(x1)", XY2)
    d = partial(e, "x1")
    assert evaluate(d, {"x1": -2.0}) == -1.0
    assert evaluate(d, {"x1": 3.0}) == 1.0
    with pytest.raises(DomainViolation):
        evaluate(d, {"x1": 0.0})


def test_partial_quotient_rule():
    e = parse("x1/(1+y1^2)", XY2)
    d = partial(e, "y1")
    b = {"x1": 2.0, "y1": 1.0}
    assert evaluate(d, b) == pytest.approx(-2.0 * 2.0 * 1.0 / 4.0)


def test_a_derivative_table_shares_what_it_derives():
    # 12 levels of add(e, e): 2**12 occurrences of the base product in the
    # tree, one in the DAG. Through a table each node is differentiated once, so both
    # operands of the derivative are one object; without one every
    # occurrence is differentiated again into its own tree.
    e = mul(Var("x1"), mul(Var("y1"), Var("y1")))
    for _ in range(12):
        e = add(e, e)
    table = {}
    d = partial(e, "y1", table)
    assert d.left is d.right
    assert partial(e, "y1", table) is d
    assert to_source(d) == to_source(partial(e, "y1"))
    assert len(table) == 12 + 5  # the sums, the two products, x1 and both y1 nodes
    assert all(table[id(node), var][0] is node for node, var in [(e, "y1"), (e.left, "y1")])
    untabled = partial(e, "y1")
    assert untabled.left is not untabled.right
    # a table is per variable: d/dx1 of the same nodes is its own entry
    assert to_source(partial(e, "x1", table)) == to_source(partial(e, "x1"))
    assert len(table) == 2 * (12 + 5)


# ---------------------------------------------------------------------------
# dual numbers
# ---------------------------------------------------------------------------


def test_dual_square():
    assert evaluate_dual(parse("y1^2", XY2), {"y1": 3.0}, "y1") == (9.0, 6.0)


def test_dual_exp_chain():
    v, dv = evaluate_dual(parse("exp(2*x1)", XY2), {"x1": 0.0}, "x1")
    assert v == 1.0
    assert dv == 2.0


def test_dual_lienard_lagrangian():
    # L = (y + 2x)^2 at (x, y) = (1, 1): value 9, dL/dy = 6
    e = parse("(y1+2*x1)^2", ("x1", "y1"))
    v, dv = evaluate_dual(e, {"x1": 1.0, "y1": 1.0}, "y1")
    assert v == 9.0
    assert dv == 6.0


def test_dual_division_by_underflowing_square_raises_for_both_float_types():
    # 1.5e-193 is not 0, but its square underflows to 0: the quotient rule
    # cannot divide by it, whether the value is a Python float or a float64
    for tiny in (1.5e-193, np.float64(1.5e-193)):
        with pytest.raises(ZeroDivisionError):
            -2.0 / Dual(tiny, 1.0)
        with pytest.raises(DomainViolation, match="division by zero"):
            evaluate_dual(parse("1/x1", XY2), {"x1": tiny}, "x1")


def test_dual_domain_violation_matches_evaluate():
    e = parse("sqrt(x1)", XY2)
    with pytest.raises(DomainViolation):
        evaluate_dual(e, {"x1": -1.0}, "x1")


# ---------------------------------------------------------------------------
# random-expression generator shared with the acceptance suite
# ---------------------------------------------------------------------------


def random_expression(rng, names, depth):
    """Random expression tree, biased toward smooth polynomial shapes."""
    source = _random_source(rng, names, depth)
    return parse(source, names)


def _random_source(rng, names, depth):
    if depth <= 0:
        if rng.random() < 0.65:
            return rng.choice(names)
        return repr(round(rng.uniform(-2.0, 2.0), 3))
    r = rng.random()
    a = _random_source(rng, names, depth - 1)
    b = _random_source(rng, names, depth - 1)
    if r < 0.30:
        return f"({a} + {b})"
    if r < 0.50:
        return f"({a} - {b})"
    if r < 0.72:
        return f"({a} * {b})"
    if r < 0.78:
        return f"({a} / ({b} + 2.5))"
    if r < 0.84:
        return f"({a})^{rng.choice(['2', '3', '0.5', '-1'])}"
    if r < 0.88:
        return f"exp(0.3*({a}))"
    if r < 0.92:
        return f"ln(({a})^2 + 0.7)"
    if r < 0.95:
        return f"sqrt(({a})^2 + 0.4)"
    if r < 0.98:
        return f"sin({a})"
    return f"cos({a})"


def sample_valid_point(rng, e, names, tries=50):
    for _ in range(tries):
        b = {n: rng.uniform(0.25, 1.75) for n in names}
        try:
            v = evaluate(e, b)
        except DomainViolation:
            continue
        if math.isfinite(v) and abs(v) < 1e6:
            return b
    return None


def test_symbolic_vs_dual_vs_finite_differences():
    rng = random.Random(1234)
    names = ("x1", "x2", "y1", "y2")
    checked = 0
    while checked < 300:
        e = random_expression(rng, names, rng.randint(1, 4))
        b = sample_valid_point(rng, e, names)
        if b is None:
            continue
        var = rng.choice(names)
        d_sym = partial(e, var)
        try:
            sym = evaluate(d_sym, b)
            val, dual = evaluate_dual(e, b, var)
        except DomainViolation:
            continue
        assert abs(sym - dual) <= 1e-10 * (1.0 + abs(sym)), to_source(e)
        # central finite difference, h = 1e-6
        h = 1e-6
        try:
            up = evaluate(e, {**b, var: b[var] + h})
            dn = evaluate(e, {**b, var: b[var] - h})
        except DomainViolation:
            continue
        fd = (up - dn) / (2.0 * h)
        scale = max(abs(sym), abs(fd))
        if scale > 1e-3:
            assert abs(fd - sym) <= 1e-5 * scale, to_source(e)
        checked += 1


def test_mixed_partials_commute():
    rng = random.Random(77)
    names = ("x1", "y1", "y2")
    checked = 0
    while checked < 100:
        e = random_expression(rng, names, rng.randint(1, 3))
        b = sample_valid_point(rng, e, names)
        if b is None:
            continue
        d12 = partial(partial(e, "y1"), "y2")
        d21 = partial(partial(e, "y2"), "y1")
        try:
            v12 = evaluate(d12, b)
            v21 = evaluate(d21, b)
        except DomainViolation:
            continue
        assert v12 == pytest.approx(v21, rel=1e-9, abs=1e-9)
        checked += 1


def test_print_parse_round_trip_random():
    rng = random.Random(99)
    names = ("x1", "x2", "y1", "y2")
    checked = 0
    while checked < 150:
        e = random_expression(rng, names, rng.randint(1, 4))
        b = sample_valid_point(rng, e, names)
        if b is None:
            continue
        e2 = parse(to_source(e), names)
        assert evaluate(e, b) == evaluate(e2, b)
        # derivatives round-trip too (they may contain sign())
        d = partial(e, "y1")
        d2 = parse(to_source(d), names)
        try:
            assert evaluate(d, b) == evaluate(d2, b)
        except DomainViolation:
            pass
        checked += 1


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.floats(min_value=0.1, max_value=3, allow_nan=False),
)
def test_arithmetic_matches_python(a, b, c):
    e = parse("x1*y1 + x1/x2 - y1^2", ("x1", "x2", "y1"))
    got = evaluate(e, {"x1": a, "x2": c, "y1": b})
    assert got == a * b + a / c - b**2


def test_free_vars():
    e = parse("x1*y2 + exp(k*y1)", ("x1", "y1", "y2", "k"))
    assert e.free_vars() == frozenset({"x1", "y1", "y2", "k"})


# ---------------------------------------------------------------------------
# compiled kernels against the tree walk
# ---------------------------------------------------------------------------


class _ReadLog(dict):
    """A binding that records the names read from it, in order."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = []

    def __getitem__(self, name):
        self.reads.append(name)
        return super().__getitem__(name)


class _RowLog(list):
    """A positional row that records the indices read from it, in order."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = []

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


def _outcome(run):
    """The value's type and bits (any nan alike), or the error's type,
    message, context and blamed node."""
    try:
        v = run()
    except ExpressionError as exc:
        context = (type(exc.__context__), exc.__suppress_context__)
        return ("error", type(exc), str(exc), context, getattr(exc, "expr", None))
    return ("value", type(v), _value_bits(v))


def _value_bits(v):
    return "nan" if math.isnan(v) else struct.pack("<d", v)


def _assert_columns_match_rows(kernel, rows):
    """The stacked ``rows`` as columns mark exactly the rows whose compiled
    code raises, so that ``kernel(row)`` walks them, and give the bits of
    ``kernel(row)`` at every other row (any nan alike). Returns the marked
    rows."""
    rows = [[float(v) for v in row] for row in rows]
    stack = np.array(rows, dtype=float).reshape(len(rows), len(kernel.names)).T
    with np.errstate(all="ignore"):  # a constant may be a float64
        per_row = [kernel(row) for row in rows]
    columns, marked = kernel.columns(stack)
    assert marked == {j for j, values in enumerate(per_row) if not isinstance(values, tuple)}
    assert len(columns) == len(kernel.roots)
    for column in columns:
        assert isinstance(column, np.ndarray) and column.dtype == np.float64
        assert column.shape == (len(rows),)
    for j, values in enumerate(per_row):
        if j not in marked:
            assert [_value_bits(c[j]) for c in columns] == [_value_bits(v) for v in values]
    return marked


_NAMES = ("x1", "x2", "y1", "y2")
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, 1e300, -1e300, 1e154, math.inf, -math.inf, math.nan]),
    st.floats(min_value=-3.0, max_value=3.0),
)


@st.composite
def _expressions(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    e = random_expression(rng, _NAMES, draw(st.integers(min_value=1, max_value=4)))
    shape = draw(st.sampled_from(["tree", "shared", "quotient"]))
    if shape == "shared":
        # e appears as one object twice and inside its derivative as copies
        return add(e, mul(e, partial(e, "y1")))
    if shape == "quotient":
        return div(e, Var(draw(st.sampled_from(_NAMES))))
    return e


@st.composite
def _bindings(draw):
    missing = draw(st.sampled_from((None,) + _NAMES))
    binding = {}
    for name in _NAMES:
        v = draw(_VALUES)
        if name != missing:
            binding[name] = np.float64(v) if draw(st.booleans()) else v
    return binding


@settings(max_examples=400, deadline=None)
@given(
    _expressions(),
    st.lists(_bindings(), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=len(_NAMES)),
)
def test_compiled_evaluation_matches_tree_walk(e, bindings, split):
    # a one-root kernel over the first ``split`` names a binding binds, with
    # the rest bound in as constants, beside a constant named like the first
    # row entry that the row must shadow; a later binding of the same names
    # and constants reuses the code the first one ran
    kernels, stacked = {}, {}
    for binding in bindings:
        names = tuple(binding)[:split]
        constants = {name: binding[name] for name in tuple(binding)[split:]}
        if names:
            constants[names[0]] = 7.0  # no binding holds 7.0
        key = (names, tuple((k, type(v), v, math.copysign(1.0, v)) for k, v in constants.items()))
        if key not in kernels:
            kernels[key] = compile([e], names, constants)
        walk_log, row = _ReadLog(binding), _RowLog(binding[name] for name in names)
        with np.errstate(all="ignore"):
            want = _outcome(lambda: e.evaluate(walk_log))
            got = _outcome(lambda: kernels[key](row)[0])
        assert got == want, to_source(e)
        if want[0] == "value":
            # the same row names first read in the same order: the same
            # operations in the same order, less the repeats
            first_reads = [names[i] for i in dict.fromkeys(row.reads)]
            assert first_reads == [v for v in dict.fromkeys(walk_log.reads) if v in names]
        stacked.setdefault(key, []).append([binding[name] for name in names])
    for key, rows in stacked.items():
        _assert_columns_match_rows(kernels[key], rows)


def test_columns_of_signed_zeros_nan_and_inf_match_each_row():
    names = ("x1", "y1")
    sources = ("-x1", "x1*y1 - y1", "y1/x1", "a*x1", "a", "2.5", "x1^0.5 + y1", "sign(y1) + exp(x1)")
    roots = [parse(source, names + ("a",)) for source in sources]
    for constants in ({"a": 2.0}, {"a": -0.0}, {"a": 3}):
        kernel = compile(roots, names, constants)
        finite = [[2.0, -0.0], [-0.0, 3.0], [1e300, 1e300], [0.25, -7.5]]
        special = [[math.inf, 1.0], [math.nan, 2.0], [4.0, -math.inf], [1e-310, math.nan]]
        # sign(-0.0), y1/-0.0 and exp(1e300) raise
        assert _assert_columns_match_rows(kernel, finite) == {0, 1, 2}
        _assert_columns_match_rows(kernel, finite + special)
        # one lane alone raises: a zero denominator, or a non-integer power
        # of a negative base, or sign(0); the mask adds exactly that lane
        for lane in ([0.0, 1.0], [-0.0, 1.0], [-4.0, 1.0], [1.0, 0.0]):
            _assert_columns_match_rows(kernel, finite + [lane] + special)
            _, marked = kernel.columns(np.array(finite + [lane]).T)
            assert marked == {0, 1, 2, 4}
            _, marked = kernel.columns(np.array(finite[3:] + [lane]).T)
            assert marked == {1}
    # numpy's own power and transcendental functions differ from math's in
    # the last bit at some of these rows
    powers = compile([parse("x1^3.0 + y1^2.0 + exp(x1) + ln(y1) + x1^0.7", names)], names)
    draws = np.random.default_rng(3).uniform(0.1, 9.0, size=(2000, 2))
    _assert_columns_match_rows(powers, draws.tolist())
    # no rows at all, and a kernel of no names
    empty, marked = compile(roots, names, {"a": 1.0}).columns(np.zeros((2, 0)))
    assert [column.shape for column in empty] == [(0,)] * len(roots) and marked == set()
    constant = compile([parse("a + 1", ("a",))], (), {"a": 1.0})
    (line,), marked = constant.columns(np.zeros((0, 3)))
    assert line.tolist() == [2.0, 2.0, 2.0] and marked == set()


def test_float64_zero_denominator_is_domain_violation():
    # float64 / 0 gives inf with a warning instead of raising
    cases = (
        (parse("x1 / y1", XY2), np.float64(0.0)),
        (parse("x1 / y1", XY2), np.float64(-0.0)),
        (parse("x1 / (y1 - 1)", XY2), np.float64(1.0)),
    )
    for e, y in cases:
        kernel = compile([e], ("x1", "y1"))
        for _ in range(2):  # the first run of the code and a later one
            with pytest.raises(DomainViolation, match="division by zero") as exc:
                tuple(kernel([np.float64(2.0), y]))
            assert exc.value.expr is e


def test_constant_and_variable_roots():
    for value in (-0.0, 0.0, math.inf, 2.5):
        got = evaluate(Const(value), {})
        assert struct.pack("<d", got) == struct.pack("<d", value)
    v = np.float64(0.25)
    assert evaluate(Var("x1"), {"x1": v}) is v
    with pytest.raises(UnboundVariable, match="'x1'"):
        evaluate(Var("x1"), {"y1": 1.0})
    assert math.isnan(evaluate(Const(math.nan), {}))


def test_shared_failing_subtree_blames_the_tree_walks_node():
    first_ln = parse("ln(x1)", XY2)
    first_sqrt = parse("sqrt(y1)", XY2)
    # ln(x1) twice as one object and once as an equal copy; the quotient
    # computes its denominator first, so the walk blames sqrt(y1) first
    e = add(add(div(first_ln, first_sqrt), mul(first_ln, first_sqrt)), parse("ln(x1)", XY2))
    kernel = compile([e], ("x1", "y1"))
    for binding, blamed in (
        ({"x1": -1.0, "y1": -1.0}, first_sqrt),
        ({"x1": -1.0, "y1": 4.0}, first_ln),
    ):
        with pytest.raises(DomainViolation) as walk:
            e.evaluate(binding)
        assert walk.value.expr is blamed
        for _ in range(2):  # the first run of the code and a later one
            with pytest.raises(DomainViolation) as exc:
                tuple(kernel([binding["x1"], binding["y1"]]))
            assert exc.value.expr is blamed
            assert str(exc.value) == str(walk.value)


# ---------------------------------------------------------------------------
# multi-root kernels against evaluate of each root
# ---------------------------------------------------------------------------

_PARAMS = ("k",)


@st.composite
def _kernel_roots(draw):
    """1-4 roots that share subtrees with the first; some read a parameter."""
    first = draw(_expressions())
    roots = [first]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        shape = draw(st.sampled_from(["alone", "sum", "product", "derivative", "scaled"]))
        if shape == "derivative":
            roots.append(partial(first, draw(st.sampled_from(_NAMES))))
            continue
        other = draw(_expressions())
        if shape == "sum":
            other = add(other, first)
        elif shape == "product":
            other = mul(first, other)
        elif shape == "scaled":
            other = mul(Var("k"), other)
        roots.append(other)
    return roots


@st.composite
def _rows(draw):
    """Row names in any order, one of them possibly left out, and 1-3 rows."""
    names = list(draw(st.permutations(_NAMES + _PARAMS)))
    missing = draw(st.sampled_from((None,) + _NAMES + _PARAMS))
    if missing is not None:
        names.remove(missing)
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        row = [draw(_VALUES) for _ in names]
        rows.append([np.float64(v) if draw(st.booleans()) else v for v in row])
    return names, rows


def _tuple_outcome(run):
    """Each value's type and bits, or the error as :func:`_outcome` has it."""
    try:
        values = run()
    except ExpressionError:
        return _outcome(run)
    return ("values",) + tuple(_outcome(lambda: v) for v in values)


@settings(max_examples=300, deadline=None)
@given(_kernel_roots(), _rows())
def test_kernel_matches_evaluate_of_each_root(roots, layout):
    names, rows = layout
    kernel = compile(roots, names)
    # the first row runs the freshly built code, the others reuse it
    for row in rows:
        binding = dict(zip(names, row))
        with np.errstate(all="ignore"):
            want = _tuple_outcome(lambda: tuple(evaluate(r, binding) for r in roots))
            got = _tuple_outcome(lambda: tuple(kernel(row)))
        assert got == want, [to_source(r) for r in roots]


def test_kernel_of_no_roots_and_of_plain_roots():
    assert compile([], ("x1",))([1.0]) == ()
    v = np.float64(0.25)
    got = compile([Var("x1"), Const(-0.0), Var("y1")], ("y1", "x1"))([2.0, v])
    assert got[0] is v and got[2] == 2.0
    assert struct.pack("<d", got[1]) == struct.pack("<d", -0.0)
    with pytest.raises(UnboundVariable, match="'x2'"):
        tuple(compile([Var("x1"), Var("x2")], ("x1",))([1.0]))


def test_compile_emits_a_node_shared_by_identity_once():
    # 2**40 occurrences of x1 in the tree, 41 distinct nodes in the DAG: one
    # read of x1 and 40 sums, in the row code and in the column records
    e = Var("x1")
    for _ in range(40):
        e = add(e, e)
    kernel = compile([e], ("x1",))
    assert kernel([1.0]) == (2.0**40,)
    assert len(kernel.row_code().__code__.co_varnames) == 1 + 41
    ops, _, _ = _emit((e,), ("x1",), {})
    assert [f for f, _, _ in ops] == [operator.getitem] + [operator.add] * 40
    assert kernel.columns(np.array([[1.0, -0.5]]))[0][0].tolist() == [2.0**40, -(2.0**39)]


@pytest.mark.parametrize("columns", [False, True], ids=["row", "column"])
def test_a_sum_or_product_and_its_swap_compile_to_one_local(columns):
    # IEEE 754 + and * commute exactly, - does not: the code reads x1 and
    # x2 into two locals (the records into two slots), then computes each
    # distinct operation once
    stack = np.array([[0.1, -0.0, 5e-324, math.inf, 1e308], [-3.7, 2.0, 1e308, -0.0, 1e308]])
    rows = stack.T.tolist()
    x1, x2 = Var("x1"), Var("x2")
    for op, distinct in ((mul, 1), (add, 1), (sub, 2)):
        roots = (op(x1, x2), op(x2, x1))
        if columns:
            kernel = compile(roots, ("x1", "x2"))
            ops, _, outs = _emit(roots, ("x1", "x2"), {})
            assert len(ops) == 2 + distinct and len(set(outs)) == distinct
        else:
            code = _compile(roots, ("x1", "x2"), {})
            assert len(code.__code__.co_varnames) == 1 + 2 + distinct
        with np.errstate(all="ignore"):
            got = [kernel.columns(stack)[0]] if columns else [code(row) for row in rows]
        assert all((a is b) == (distinct == 1) for a, b in got)
        want = [[evaluate(root, {"x1": a, "x2": b}) for root in roots] for a, b in rows]
        values = np.array(got[0]).T if columns else np.array(got)
        assert values.tobytes() == np.array(want).tobytes()


def test_each_code_is_compiled_at_its_first_call_only(compile_calls):
    names = ("x1", "y1")
    roots = [parse(s, names) for s in ("ln(x1) + y1", "y1/x1")]
    stack = np.array([[1.0, 2.0, 4.0], [3.0, 5.0, 7.0]])
    # read only through columns: no code at all, the records built once
    kernel = compile(roots, names)
    assert compile_calls == []
    first, _ = kernel.columns(stack)
    again, _ = kernel.columns(stack[:, :1])
    assert compile_calls == ["_emit"]
    assert [c[:1].tolist() for c in first] == [c.tolist() for c in again]
    # read by rows: the row code once, also where a row falls back to a
    # walk, and the records once more for the columns
    kernel = compile(roots, names)
    compile_calls.clear()
    assert kernel([1.0, 3.0]) == (3.0, 3.0)
    with pytest.raises(DomainViolation, match="ln of non-positive value"):
        tuple(kernel([0.0, 3.0]))
    assert kernel([2.0, 1.0])[1] == 0.5
    kernel.columns(stack)
    kernel.columns(stack)
    assert compile_calls == ["_compile", "_emit", "exec", "_emit"]
    # a node the emitter cannot compile surfaces at the first call of each
    class Opaque(Expr):
        __slots__ = ()

    opaque = compile([add(Var("x1"), Opaque())], names)
    with pytest.raises(TypeError, match="cannot compile Opaque"):
        opaque([1.0, 2.0])
    with pytest.raises(TypeError, match="cannot compile Opaque"):
        opaque.columns(stack)


def test_kernel_values_walk_each_root_where_the_code_raises():
    names = ("x1", "y1")
    roots = [parse(s, names) for s in ("x1 + y1", "ln(x1)", "y1/x1", "sqrt(y1)")]
    kernel = compile(roots, names)
    assert kernel([2.0, 3.0]) == tuple(evaluate(r, {"x1": 2.0, "y1": 3.0}) for r in roots)
    row = [0.0, -1.0]
    values = kernel(row)
    assert values[0] == -1.0
    binding = dict(zip(names, row))
    for k in (1, 2, 3):
        with pytest.raises(DomainViolation) as want:
            evaluate(roots[k], binding)
        with pytest.raises(DomainViolation) as got:
            values[k]
        assert str(got.value) == str(want.value) and got.value.expr is want.value.expr


def test_a_failing_row_walks_each_root_when_it_is_read():
    # each root reads one name of its own; at the row, roots 1 and 3 fail
    names = ("x1", "x2", "y1", "y2")
    roots = [parse(s, names) for s in ("x1", "ln(x2)", "y1 + 1", "sqrt(y2)")]
    row = [2.0, -1.0, 3.0, -4.0]
    binding = dict(zip(names, row))
    errors = []
    for k in (1, 3):
        with pytest.raises(DomainViolation) as want:
            evaluate(roots[k], binding)
        errors.append(want.value)
    kernel = compile(roots, names)

    def walk():
        values = kernel(row)
        values.binding = _ReadLog(values.binding)
        return values

    def assert_raises(run, error):
        with pytest.raises(DomainViolation) as got:
            run()
        assert str(got.value) == str(error) and got.value.expr is error.expr

    values = walk()
    assert len(values) == 4 and values.binding.reads == []
    assert (values[2], values[0], values[-2]) == (4.0, 2.0, 4.0)
    assert values.binding.reads == ["y1", "x1", "y1"]
    assert values[:1] == (2.0,) and values[4:] == ()
    assert_raises(lambda: values[3], errors[1])
    assert_raises(lambda: values[2:], errors[1])
    # tuple(), unpacking and a slice over both failing roots meet root 1 first
    for read in (tuple, lambda v: [*v], lambda v: v[1:]):
        values = walk()
        assert_raises(lambda: read(values), errors[0])
        assert values.binding.reads[-1] == "x2" and "y2" not in values.binding.reads


@pytest.mark.parametrize(
    "exponent, base, outcome",
    [
        # integer exponents: math.pow itself raises where _pow_checked does
        (-2.0, 0.0, (DomainViolation, "zero raised to a negative power")),
        (-1.0, -0.0, (DomainViolation, "zero raised to a negative power")),
        (3.0, -2.0, -8.0),
        (-3.0, -2.0, -0.125),
        (3.0, 1e200, (Overflow, "math range error")),
        (2.0, -math.inf, math.inf),
        # a non-integer exponent keeps the checked call: math.pow(-inf, 0.5)
        # is inf, but a negative base has no real root
        (0.5, -math.inf, (DomainViolation, "negative base with non-integer exponent")),
        (0.5, -4.0, (DomainViolation, "negative base with non-integer exponent")),
    ],
)
def test_compiled_power_matches_the_tree_walk(exponent, base, outcome):
    # the power inside a sum, alone and beside the power as a root of its own
    e = add(pow_(Var("x1"), exponent), Var("y1"))
    binding = {"x1": base, "y1": 0.0}
    alone = compile([e], ("x1", "y1"))
    kernel = compile([e, pow_(Var("x1"), exponent)], ("x1", "y1"))
    for _ in range(2):  # the first run of the code and a later one
        if isinstance(outcome, tuple):
            kind, message = outcome
            for run in (
                lambda: e.evaluate(binding),
                lambda: tuple(alone([base, 0.0])),
                lambda: tuple(kernel([base, 0.0])),
            ):
                with pytest.raises(kind, match=message) as exc:
                    run()
                assert exc.value.expr is e.left
        else:
            assert (e.evaluate(binding),) == alone([base, 0.0]) == (outcome,)
            assert kernel([base, 0.0]) == (outcome, outcome)
    # the power in one lane of a column beside lanes that do not raise
    for rows in ([[base, 0.0]], [[2.0, -0.0], [base, 0.0], [math.nan, math.inf]]):
        _assert_columns_match_rows(alone, rows)
        _assert_columns_match_rows(kernel, rows)


def _functions_held_by(obj):
    held = gc.get_referents(obj)
    held += [v for r in held if isinstance(r, dict) for v in r.values()]
    return [r for r in held if isinstance(r, types.FunctionType)]


@pytest.mark.parametrize("source", ["x1*y1 + exp(x1)/(1 + y1^2) - sign(x1)", "exp(x1*y1)"])
def test_compiled_code_is_freed_with_its_root(source):
    # a kernel's code holds no node (a function node's own method included),
    # only values and plain functions, so it goes with the kernel that holds
    # its roots, without the cycle collector; a node has no dict to hold code
    e = parse(source, XY2)
    assert not hasattr(e, "__dict__")
    kernel = compile([e], ("x1", "y1"))
    assert kernel([0.5, 2.0]) == (e.evaluate({"x1": 0.5, "y1": 2.0}),)
    (run,) = _functions_held_by(kernel)
    assert run.__closure__ is None and run.__defaults__ is None
    assert not any(isinstance(getattr(v, "__self__", v), Expr) for v in run.__globals__.values())
    freed = weakref.ref(run)
    gc.disable()
    try:
        del kernel, e, run
        assert freed() is None
    finally:
        gc.enable()


class _Value(float):
    """A float that a weak reference can watch."""


@pytest.mark.parametrize("source", ["x1*y1 + exp(a*x1)/(1 + y1^2) - sign(x1)", "exp(x1*y1)/a"])
def test_column_records_hold_no_node_and_free_their_columns(source):
    # the records hold values and plain functions only, and nothing of the
    # walk that built them outlives it: they go with their kernel without
    # the cycle collector; a column call keeps its slots for the call only
    e = parse(source, XY2 + ("a",))
    a = _Value(1.5)
    freed = weakref.ref(a)
    stack = np.random.default_rng(5).uniform(0.5, 2.0, size=(2, 10**5))
    gc.disable()
    tracemalloc.start()
    try:
        kernel = compile([e], ("x1", "y1"), {"a": a})
        (column,), _ = kernel.columns(stack)
        assert column[0] == e.evaluate({"x1": stack[0, 0], "y1": stack[1, 0], "a": a})
        ops, slots, outs = kernel._ops
        held = slots + outs + [item for record in ops for item in (record[0], *record[2])]
        assert not any(isinstance(getattr(v, "__self__", v), Expr) for v in held)
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            tracemalloc.reset_peak()
            kept = kernel.columns(stack)
            after, peak = tracemalloc.get_traced_memory()
            # the intermediate columns were there during the call, and only
            # the root's column is left after it
            assert peak - before > 2 * column.nbytes
            assert after - before < 1.5 * column.nbytes
            del kept
        assert tracemalloc.get_traced_memory()[0] - before < 0.1 * column.nbytes
        del kernel, ops, slots, outs, held, a
        assert freed() is None
    finally:
        tracemalloc.stop()
        gc.enable()
