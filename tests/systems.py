"""Worked systems shared across the test modules.

Each constructor returns a dict with the semi-spray, Lagrangian, optional
force form / dissipation function, and the parameter binding used when
evaluating expressions.
"""

from lagdeform.expressions import chart_names, compile, parse
from lagdeform.geometry import ScalarField, SemiBasicForm, SemiSpray

XY1 = ("x1", "y1")
XY2 = ("x1", "x2", "y1", "y2")
XY3 = ("x1", "x2", "x3", "y1", "y2", "y3")


def row_of(point):
    """The positional row of ``point``: its chart coordinates."""
    return [*point.x, *point.y]


def binding(row, n, params=None):
    """The dict binding of a row of an n-dimensional chart: the parameters,
    then the coordinates, which bind a name they share with a parameter."""
    return {**(params or {}), **dict(zip(chart_names(n), row))}


def matrix_kernel(matrix, params=None):
    """An n x n expression matrix compiled into the callable ``row -> n*n
    entries`` in row-major order that ``hessian_report`` reads."""
    cells = tuple(cell for line in matrix for cell in line)
    return compile(cells, chart_names(len(matrix)), params)


def damped_oscillator(a=1.0, b=1.0, w=1.0):
    """Linear planar oscillator with rotational damping.

    The velocity Hessian story: sigma here is the velocity-aligned force
    (S(E_L)/C(L)) d_J L, which is NOT the Lagrange differential of this
    spray; see drag_system for the self-consistent deformable variant.
    """
    names = XY2 + ("a", "b", "w")
    params = {"a": a, "b": b, "w": w}
    spray = SemiSpray(
        2,
        [
            parse("(a*x1 + b*x2 + w*y1)/2", names),
            parse("(-b*x1 + a*x2 - w*y2)/2", names),
        ],
    )
    lagrangian = ScalarField(2, parse("0.5*(y1^2 + y2^2)", names))
    sigma_scale = "-(a*x1*y1 + b*x2*y1 + w*y1^2 - b*x1*y2 + a*x2*y2 - w*y2^2)/(y1^2 + y2^2)"
    sigma = SemiBasicForm(
        2,
        [parse(f"({sigma_scale})*y1", names), parse(f"({sigma_scale})*y2", names)],
    )
    dissipation = ScalarField(
        2,
        parse("-a*(x1*y1 + x2*y2) + b*(x1*y2 - x2*y1) + 0.5*w*(y2^2 - y1^2)", names),
    )
    return {
        "n": 2,
        "spray": spray,
        "lagrangian": lagrangian,
        "sigma": sigma,
        "dissipation": dissipation,
        "params": params,
    }


def drag_system(a=1.0, b=1.0, w=1.0):
    """Velocity-aligned drag dynamics: x_i'' = sigma_i with the oscillator's
    force coefficients projected onto the velocity. The unique SODE for which
    that sigma is the genuine Lagrange differential of the kinetic Lagrangian;
    deformable with Phi proportional to sqrt(L)."""
    names = XY2 + ("a", "b", "w")
    params = {"a": a, "b": b, "w": w}
    scale = "(a*x1*y1 + b*x2*y1 + w*y1^2 - b*x1*y2 + a*x2*y2 - w*y2^2)/(y1^2 + y2^2)"
    spray = SemiSpray(
        2,
        [parse(f"({scale})*y1/2", names), parse(f"({scale})*y2/2", names)],
    )
    lagrangian = ScalarField(2, parse("0.5*(y1^2 + y2^2)", names))
    sigma = SemiBasicForm(
        2,
        [parse(f"-({scale})*y1", names), parse(f"-({scale})*y2", names)],
    )
    return {
        "n": 2,
        "spray": spray,
        "lagrangian": lagrangian,
        "sigma": sigma,
        "params": params,
    }


def lienard(alpha=1.0):
    """Lienard equation x'' + g(x) x' + h(x) = 0 with g = 1, h = -2x,
    satisfying the Chiellini condition with k = -alpha(alpha+1) = -2."""
    names = XY1 + ("alpha",)
    params = {"alpha": alpha}
    spray = SemiSpray(1, [parse("(y1 - 2*x1)/2", names)])
    lagrangian = ScalarField(1, parse("(y1 + 2*x1/alpha)^2", names))
    sigma = SemiBasicForm(1, [parse("2*(-2*x1/alpha - y1)", names)])
    return {
        "n": 1,
        "spray": spray,
        "lagrangian": lagrangian,
        "sigma": sigma,
        "params": params,
    }


def exp_class(a=1.0, b=1.0, c=0.1):
    """Three-dimensional system with a logarithmic Lagrangian whose
    deformation slope is the constant b."""
    names = XY3 + ("a", "b", "c")
    params = {"a": a, "b": b, "c": c}
    q = "x1*y1 + x2*y2 + x3*y3 + y1^2 + y2^2"
    spray = SemiSpray(3, [parse(s, names) for s in ("0", "0", "x1*y1/2")])
    lagrangian = ScalarField(3, parse(f"a + (1/b)*ln(b*({q}) - c)", names))
    scale = f"b*(x1*x3*y1 - y1^2 - y2^2 - y3^2)/(b*({q}) - c)^2"
    sigma = SemiBasicForm(
        3,
        [
            parse(f"({scale})*(x1 + 2*y1)", names),
            parse(f"({scale})*(x2 + 2*y2)", names),
            parse(f"({scale})*x3", names),
        ],
    )
    return {
        "n": 3,
        "spray": spray,
        "lagrangian": lagrangian,
        "sigma": sigma,
        "params": params,
    }


def log_class(a=1.0, b=1.0):
    """Oscillator in the second coordinate with an exponential-family
    Lagrangian; deformation slope is -1/L."""
    names = XY3 + ("a", "b")
    params = {"a": a, "b": b}
    core = "exp(y1)*exp(y3)*exp(a*(0.5*y2^2 - x2^2) + b*y2)"
    spray = SemiSpray(3, [parse(s, names) for s in ("0", "x2", "0")])
    lagrangian = ScalarField(3, parse(core, names))
    drag = f"-2*x2*(2*a*y2 + b)*{core}"
    sigma = SemiBasicForm(
        3,
        [
            parse(drag, names),
            parse(f"({drag})*(b + a*y2)", names),
            parse(drag, names),
        ],
    )
    return {
        "n": 3,
        "spray": spray,
        "lagrangian": lagrangian,
        "sigma": sigma,
        "params": params,
    }


def moebius_class(a=1.0, b=0.0, c=1.0, d=2.0):
    """Flat spray with a Moebius-deformable Lagrangian."""
    names = XY3 + ("a", "b", "c", "d")
    params = {"a": a, "b": b, "c": c, "d": d}
    r = "x1*y1 + x2*y2 + x3*y3 + (y1*y2*y3)^2 + b"
    spray = SemiSpray(3, [parse("0", names)] * 3)
    lagrangian = ScalarField(3, parse(f"-d/c - 1/(a*c^2*({r}))", names))
    scale = f"-2*(y1^2 + y2^2 + y3^2)/(a*c^2*({r})^3)"
    sigma = SemiBasicForm(
        3,
        [
            parse(f"({scale})*(x1 + 2*y1*(y2*y3)^2)", names),
            parse(f"({scale})*(x2 + 2*y2*(y1*y3)^2)", names),
            parse(f"({scale})*(x3 + 2*y3*(y1*y2)^2)", names),
        ],
    )
    return {
        "n": 3,
        "spray": spray,
        "lagrangian": lagrangian,
        "sigma": sigma,
        "params": params,
    }


def homogeneous_example():
    """Spray and Lagrangian both fiber-homogeneous of degree 2 (conformally
    flat kinetic energy); deformable to a degree-1 root Lagrangian."""
    names = XY3
    spray = SemiSpray(
        3, [parse("-(y1^2 + y2^2 + y3^2)/2", names), parse("0", names), parse("0", names)]
    )
    lagrangian = ScalarField(3, parse("0.5*exp(2*x1)*(y1^2 + y2^2 + y3^2)", names))
    sigma = SemiBasicForm(
        3, [parse(f"2*y1*exp(2*x1)*y{i}", names) for i in (1, 2, 3)]
    )
    return {
        "n": 3,
        "spray": spray,
        "lagrangian": lagrangian,
        "sigma": sigma,
        "params": {},
    }


def free_particle(n=2):
    """Flat spray with the kinetic Lagrangian: the conservative case."""
    names = tuple(f"x{i}" for i in range(1, n + 1)) + tuple(
        f"y{i}" for i in range(1, n + 1)
    )
    spray = SemiSpray(n, [parse("0", names)] * n)
    kinetic = " + ".join(f"y{i}^2" for i in range(1, n + 1))
    lagrangian = ScalarField(n, parse(f"0.5*({kinetic})", names))
    return {"n": n, "spray": spray, "lagrangian": lagrangian, "params": {}}


def rayleigh_drag(n=2):
    """Kinetic Lagrangian with quadratic negative-definite dissipation
    D = -|y|^2/2 and the matching spray x_i'' + y_i = 0."""
    names = tuple(f"x{i}" for i in range(1, n + 1)) + tuple(
        f"y{i}" for i in range(1, n + 1)
    )
    spray = SemiSpray(n, [parse(f"y{i}/2", names) for i in range(1, n + 1)])
    kinetic = " + ".join(f"y{i}^2" for i in range(1, n + 1))
    lagrangian = ScalarField(n, parse(f"0.5*({kinetic})", names))
    sigma = SemiBasicForm(n, [parse(f"-y{i}", names) for i in range(1, n + 1)])
    dissipation = ScalarField(n, parse(f"-0.5*({kinetic})", names))
    return {
        "n": n,
        "spray": spray,
        "lagrangian": lagrangian,
        "sigma": sigma,
        "dissipation": dissipation,
        "params": {},
    }


def rayleigh_problem():
    """``rayleigh_drag`` as a problem file: D = -|y|^2/2 is fiber-quadratic,
    so the report checks S(E_L) = 2D and the sign of D."""
    return {
        "name": "rayleigh",
        "dim": 2,
        "params": {},
        "spray": ["y1/2", "y2/2"],
        "lagrangian": "0.5*(y1^2 + y2^2)",
        "sigma": ["-y1", "-y2"],
        "dissipation": "-0.5*(y1^2 + y2^2)",
        "box": {v: [0.5, 2.0] for v in XY2},
        "sampling": {"count": 100, "seed": 8, "guard": 1e-6},
    }


def damped_problem():
    """``damped_oscillator`` as a problem file: its D is linear in the
    velocities, not fiber-quadratic, so the report has no rate of 2D."""
    scale = "-(a*x1*y1 + b*x2*y1 + w*y1^2 - b*x1*y2 + a*x2*y2 - w*y2^2)/(y1^2 + y2^2)"
    return {
        "name": "damped",
        "dim": 2,
        "params": {"a": 1.0, "b": 1.0, "w": 1.0},
        "spray": ["(a*x1 + b*x2 + w*y1)/2", "(-b*x1 + a*x2 - w*y2)/2"],
        "lagrangian": "0.5*(y1^2 + y2^2)",
        "sigma": [f"({scale})*y1", f"({scale})*y2"],
        "dissipation": "-a*(x1*y1 + x2*y2) + b*(x1*y2 - x2*y1) + 0.5*w*(y2^2 - y1^2)",
        "box": {v: [0.5, 2.0] for v in XY2},
        "sampling": {"count": 150, "seed": 8, "guard": 1e-6},
    }
