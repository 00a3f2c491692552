"""Blow-up vs. global existence for nonlinear ODE Cauchy problems.

The library classifies problems w^(m) = f(t, w, ..., w^(m-1)) with
0 <= f <= q(t) h(w^(k)) by the convergence of the dichotomy integral
int_1^inf h(s)^(-1/(m-k)) s^(1/(m-k)-1) ds, detects finite-time blow-up
with escape ladders, and constructs global solutions via monotone Picard
towers bounded by quadrature-inverted majorants.
"""

from .classify import (
    IntegralVerdict,
    Method,
    Verdict,
    blowup_integrand,
    classify,
    classify_from,
    classify_scaled,
)
from .errors import (
    BlowupError,
    BracketFailureError,
    ConfigError,
    FiniteEscapeError,
    InternalConsistencyError,
    InvalidParameterError,
    NumericFailureError,
    SingularIntegrandError,
    StageError,
)
from .functions import (
    Family,
    ScalarFn,
    make_constant,
    make_custom,
    make_piecewise,
    make_power,
    make_power_log,
    parse_fn_spec,
    scaled,
)
from .ode import (
    BlowupEvent,
    BlowupKind,
    BlowupReport,
    ProblemSpec,
    StepStats,
    Trajectory,
    detect_blowup,
    integrate,
)
from .picard import (
    BoundPreservationReport,
    ComparisonConstants,
    ComparisonReport,
    PicardTower,
    TowerLevel,
    apply_integral_operator,
    comparison_constants,
    majorant_growth,
    picard_solve,
    solve_autonomous_quadrature,
    verify_bound_preservation,
    verify_comparison_bound,
)
from .pipeline import (
    MajorizationRow,
    MajorizationTable,
    PipelineReport,
    lift_solution,
    majorization_experiment,
    reduce_problem,
    run_pipeline,
)
from .volterra import integral_image, partial_volterra, weighted_volterra

__version__ = "0.1.0"
