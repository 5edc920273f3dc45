"""Log transforms of zero-counting measures for the symmetrized zeta function."""

from types import ModuleType as _ModuleType

from .errors import (
    ClusterError,
    ConvergenceError,
    DomainError,
    InsufficientZerosError,
    PoleError,
    ProximityError,
    RangeError,
    SingularityError,
    ZetaprodError,
)
from .specfun import (
    XiAsymptoticTerms,
    ln_zeta_bound_check,
    log_gamma,
    log_xi_asymptotic,
    log_xi_z,
    stirling_w,
    xi_s,
    xi_z,
    zeta,
)
from .transforms import (
    ROW_VERIFICATION_PAIRS,
    TRUNCATED_ROWS,
    CorrectionBound,
    CoshDemoResult,
    DensityForm,
    DensityKind,
    MultiplicityDemoResult,
    SineIdentityResult,
    StepFunction,
    StripQuad,
    TableRowCheck,
    TransformEvaluation,
    axial_product,
    correction_term_bound,
    cosh_demo,
    count_zeros_contour,
    multiplicity_demo,
    sine_integral_identity,
    strip_decomposition_check,
    strip_quad_factor,
    table_row_closed_form,
    transform_numeric,
    transform_step,
    verify_table_row,
)
from .zerodist import (
    A_ROOT,
    CrossingCount,
    OmegaStats,
    ResidualReport,
    ResidualSample,
    ZeroList,
    crossing_count,
    find_zeros,
    n_of_t,
    omega_stats,
    phi_smooth,
    predict_zeros,
    residual,
    residual_report,
    solve_a,
    t5,
    t5_constant,
)

__version__ = "0.1.0"

# The imports above are the public names; the submodules they bind are not.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
