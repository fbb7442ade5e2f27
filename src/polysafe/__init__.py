"""Safety filtering for second-order systems with polytopic constraints.

Construction pipeline: a `SafetySpec` (union-of-intersections position
constraints) plus a `GeometryCert` yields an `ExtendedCbf` over position
and velocity; the `SafeguardAssembler` turns it into a per-step QP that
minimally modifies a nominal command; `simulate` closes the loop.
"""

from .errors import (
    EmptySet,
    Infeasible,
    NonFinite,
    NumericalBreakdown,
    ParameterViolation,
    PolysafeError,
    QpInfeasibleAt,
    UsageError,
    ValidationError,
)
from .lp import LpProblem, LpSolution, lp_feasible_point, lp_solve
from .polytope import (
    GeometryCert,
    HalfSpace,
    SafetySpec,
    compute_cert,
    contains,
    enumerate_s_cap,
    eval_h,
    eval_h_many,
    hexagon_spec,
    max_min_point,
    position_bounding_box,
    slab_spec,
)
from .inputs import Box, PolytopicBall, Unbounded, input_set_from_dict
from .cbf import (
    ActiveSet,
    ConditionReport,
    ExtendedCbf,
    SampleCheck,
    VelocityCert,
    build,
    cbf_from_dict,
    check_compactness,
    eval_B,
    eval_B_many,
    lift_position,
    sample_boundary,
    velocity_bound,
    verify_safety_condition,
)
from .qp import (
    QpProblem,
    QpSolution,
    QpWeights,
    SafeguardAssembler,
    SafeguardResult,
    solve_qp,
)
from .plant import (
    ArmParams,
    ElConstants,
    PlantModel,
    SineReference,
    double_integrator,
    estimate_constants,
    nominal_tracking,
    select_gamma,
    two_link_arm,
)
from .sim import (
    InvarianceReport,
    Scenario,
    TrajectoryLog,
    audit_invariance,
    rk4_step,
    simulate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
