"""stablegap: spectra and spectral-gap bounds of killed stable processes.

Eigenvalues of symmetric alpha-stable processes killed outside bounded 1D
and 2D domains, computed by a spectral Galerkin projection of the fractional
Dirichlet form, together with closed-form bounds, harmonic-extension energy
identities, weighted Poincare inequalities, and Monte Carlo exit-time
estimators that cross-check one another.
"""

from .bounds import (
    BoundReport,
    ball_laplacian_eigenvalues,
    bessel_zero,
    build_report,
    disk_gap_lower,
    final_inequality,
    gap_lower_main,
    gap_upper,
    main_gap_constants,
    rectangle_gap_lower,
    render_table,
    stable_eigenvalue_bracket,
    weighted_poincare_constant,
)
from .eigensolver import (
    DiskBasis,
    SineBasis,
    SpectralResult,
    assemble_form_matrix,
    scaling_check,
    solve_spectrum,
    spectral_basis,
)
from .errors import (
    EstimationError,
    NumericalBudgetError,
    StableGapError,
    UnsupportedConfigurationError,
    ValidationError,
)
from .geometry import Domain, GeometrySummary
from .kernels import (
    cauchy_constant,
    cauchy_kernel,
    gaussian_kernel,
    sample_stable_increment,
    sample_subordinator_increment,
    subordinated_gaussian,
    subordinator_density_half,
)
from .montecarlo import (
    McConfig,
    McEstimate,
    SurvivalCurve,
    estimate_gap_star,
    estimate_lambda1,
    estimate_phi1,
    simulate_skeleton,
    survival_curve,
    time_to_equilibrium_bounds,
)
from .poincare import (
    RayleighOutcome,
    WeightProfile,
    check_lemma_derivative,
    directional_quotient_2d,
    ground_state_weight,
    is_log_concave,
    min_antisymmetric_quotient,
    segment_log_concavity,
    skeleton_survival,
)
from .steklov import (
    ConstantField,
    HarmonicExtension,
    QResult,
    Truncation,
    check_boundary_derivative,
    check_harmonic,
    d01_lower_bound_check,
    extend,
    extend_ratio,
    gap_identity_check,
    ground_state_domination_check,
    q_functional,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
