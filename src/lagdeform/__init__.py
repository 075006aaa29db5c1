"""Scalar deformations of Lagrangians for second-order dynamics.

Given a second-order system encoded as a semi-spray together with a
Lagrangian and a covariant force form, this package decides whether the
dynamics are the genuine Euler-Lagrange equations of a deformed Lagrangian
``Phi(L)``, constructs ``Phi`` when it exists, and verifies the equivalence
numerically and along trajectories.
"""

from .conditions import (
    ConditionReport,
    DependenceResult,
    DerivedFields,
    FunctionalFit,
    InsufficientSamples,
    NotHomogeneous,
    check_dissipative,
    check_homogeneous,
    check_sigma_condition,
    check_sigma_consistency,
    classify,
    functional_dependence_test,
    hessian_report,
)
from .deformation import (
    ClosedForm,
    DeformedLagrangian,
    DomainConflict,
    Numeric,
    OutOfInterval,
    deformed_hessian,
    synthesize,
    synthesize_numeric,
    verify_deformed_el,
)
from .dynamics import (
    GeodesicError,
    IntegratorConfig,
    Trajectory,
    el_residual_along,
    energy_along,
    integrate_geodesic,
    trajectory_to_csv,
)
from .expressions import (
    DomainViolation,
    Expr,
    ParseError,
    UnboundVariable,
    UndeclaredIdentifier,
    evaluate,
    evaluate_dual,
    parse,
    partial,
    to_source,
)
from .families import (
    Affine,
    Constant,
    HomogeneousRoot,
    Logarithmic,
    Moebius,
    PowerShift,
    Tabulated,
)
from .geometry import (
    PhasePoint,
    ScalarField,
    SemiBasicForm,
    SemiSpray,
    energy,
    fiber_hessian,
    homogeneity_degree,
    lagrange_differential,
    liouville_apply,
    spray_apply,
    vertical_differential,
)
from .pipeline import (
    ProblemSpec,
    ReportDocument,
    SchemaError,
    emit_report,
    load_problem,
    problem_from_dict,
    run_pipeline,
)
from .sampling import Guards, GuardViolation, SamplePlan, Samples, TooManyRejections, draw_samples

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
