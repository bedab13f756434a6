"""Analysis toolkit for homogeneous quarter-plane random walks.

Decides when an invariant measure can be a countable sum of geometric
terms, constructs the sum by compensation for eligible walks, and checks
every analytic claim against an independent truncated-chain oracle.
"""

from .compensation import (
    AssembledMeasure,
    CompensationSeries,
    assemble_measure,
    build_series,
    construct,
)
from .curve import (
    BranchPointReport,
    Intersection,
    KernelPoly,
    QPlusTrace,
    boundary_h,
    branch_points,
    curve_boundary_intersections,
    detect_singularity,
    disc_y_coeffs,
    kernel,
    trace_qplus,
    y_quadratic,
)
from .errors import (
    ComplexRoots,
    DegenerateT,
    Diverged,
    EmptyComponent,
    IllConditioned,
    InconsistentSingularity,
    InvalidRouting,
    InvalidWalk,
    MixedGroup,
    NotEligible,
    OffCurve,
    QpwalkError,
    SingularWalk,
    StalledAtBranchPoint,
)
from .model import (
    Drift,
    SingularClass,
    ValidationIssue,
    WalkSpec,
    drift,
    eligible,
    ensure_valid,
    from_switch,
    singular_class,
    validate,
)
from .oracle import (
    ConvexityReport,
    LatticeWindow,
    VerificationReport,
    balance_residuals,
    compare,
    convexity_check,
    grid_residual_report,
    transition_matrix,
    truncated_stationary,
)
from .terms import (
    ConditionReport,
    GammaSet,
    PartitionResult,
    WeightedTerm,
    bh_sum,
    bv_sum,
    maximal_partitions,
    necessary_conditions,
    separating_exponent,
)
from . import errors, presets

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
