"""Nesterov-accelerated gradient dynamics for N-player quadratic games.

The package simulates the damped second-order flow

    x''(t) + (r/t) x'(t) + F(x(t)) = 0,        F(x) = G x + b,

around Nash equilibria of quadratic games, classifies the interaction
spectrum into its four dynamically distinct regions, evaluates the
closed-form Bessel modal solutions, and measures convergence and escape
rates from trajectories.
"""

from .analysis import (
    ChetaevComplex,
    ChetaevNegative,
    LyapunovSeries,
    NullspaceDistance,
    RateFit,
    chetaev_complex,
    chetaev_negative,
    distance_to_nullspace,
    energy_identity_residual,
    fit_rate,
    lyapunov_series,
    modal_project,
)
from .dynamics import (
    IntegratorConfig,
    TrajectoryRecord,
    finite_difference_jacobian,
    simulate_first_order,
    simulate_modal,
    simulate_nagd,
    simulate_smooth_nagd,
)
from .errors import (
    ConfigError,
    DomainError,
    EigensolverNoConvergence,
    GridTooLarge,
    InsufficientPoints,
    NagdynError,
    NoEquilibrium,
    NonFiniteField,
    NonPositiveSeries,
    NotApplicable,
    OutputError,
    OverflowSaturation,
    SingularBasis,
    TrivialNullspace,
)
from .experiments import ExperimentConfig, load_config, parse_config, run_invariant_checks
from .game import (
    PseudoGradientSystem,
    QuadraticGame,
    pseudo_gradient,
    solve_equilibrium,
    translate_to_homogeneous,
    with_equilibrium,
)
from .special import (
    EXPONENT_CAP,
    SERIES_RADIUS,
    ModalSeries,
    ModalSolution,
    ModalValue,
    bessel_i0,
    bessel_i1,
    bessel_j0,
    bessel_j1,
    bessel_k0,
    bessel_k1,
    bessel_y0,
    bessel_y1,
    eval_modal,
    eval_modal_batch,
    eval_modal_series,
    make_modal_solution,
)
from .spectral import (
    ClassifiedEigenvalue,
    EigenvalueClass,
    FirstOrderVerdict,
    NagdVerdict,
    Spectrum,
    StabilityVerdict,
    boundedness_bound,
    classify_eigenvalue,
    classify_matrix,
    eigendecompose,
    fit_recipe,
    matrix_tolerance,
    nullspace_limit,
    predicted_rate,
)

__version__ = "0.1.0"
