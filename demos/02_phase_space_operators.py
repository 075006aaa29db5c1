"""Phase-space operator tour on a Lienard system.

The equation x'' + x' - 2x = 0 (g = 1, h = -2x, Chiellini-integrable with
k = -2) encodes as a semi-spray; the operators below are everything the
deformability conditions are built from.
"""

from lagdeform.conditions import DerivedFields
from lagdeform.expressions import evaluate, parse, to_source
from lagdeform.geometry import (
    ScalarField,
    SemiSpray,
    energy,
    fiber_hessian,
    lagrange_differential,
    liouville_apply,
    spray_apply,
    vertical_differential,
)

names = ("x1", "y1")
spray = SemiSpray(1, [parse("(y1 - 2*x1)/2", names)])  # x'' + y - 2x = 0
L = ScalarField(1, parse("(y1 + 2*x1)^2", names))

row = [1.0, 1.0]  # the chart point (x1, y1)
b = dict(zip(names, row))

CL = liouville_apply(L)  # fiber Euler operator y dL/dy
SL = spray_apply(spray, L)  # derivative along the flow
EL = energy(L)  # C(L) - L
dJL = vertical_differential(L)  # momentum form dL/dy dx
delta = lagrange_differential(spray, L)  # S(dL/dy) - dL/dx

print("C(L)      =", to_source(CL.expr), "->", evaluate(CL.expr, b))
print("S(L)      =", evaluate(SL.expr, b), "(equals 2L =", 2 * evaluate(L.expr, b), ")")
print("E_L       =", evaluate(EL.expr, b))
print("d_J L     =", [evaluate(c, b) for c in dJL.components])
print("delta_S L =", [evaluate(c, b) for c in delta.components])

# the two contraction identities behind the main theorem, from one kernel
# call at the row: C(L), S(E_L), d_J L and delta_S L as a run derives them
derived = DerivedFields(spray, L)
kernel = derived.kernel(
    (derived.liouville_of_L.expr, derived.energy_rate.expr)
    + derived.vertical.components
    + derived.defect.components
)
c_of_l, s_of_e, dj, ds = kernel(row)
y = row[1]
print("y (d_J L) - C(L)        =", y * dj - c_of_l)
print("y (delta_S L) - S(E_L)  =", y * ds - s_of_e)

g = fiber_hessian(L)
print("fiber Hessian [d2L/dy2] =", evaluate(g[0][0], b))
