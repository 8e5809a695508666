"""stablegap: spectra and spectral-gap bounds of killed stable processes.

Eigenvalues of symmetric alpha-stable processes killed outside bounded 1D
and 2D domains, computed by a spectral Galerkin projection of the fractional
Dirichlet form, together with closed-form bounds, harmonic-extension energy
identities, weighted Poincare inequalities, and Monte Carlo exit-time
estimators that cross-check one another.

`import stablegap` loads no submodule: each one loads on first use, when one
of its names below or the submodule itself is looked up (PEP 562).
"""

import importlib

# the exported names of each submodule
_EXPORTS = {
    "bounds": (
        "BoundReport",
        "ball_laplacian_eigenvalues",
        "bessel_zero",
        "build_report",
        "disk_gap_lower",
        "final_inequality",
        "gap_lower_main",
        "gap_upper",
        "main_gap_constants",
        "rectangle_gap_lower",
        "render_table",
        "stable_eigenvalue_bracket",
        "weighted_poincare_constant",
    ),
    "eigensolver": (
        "DiskBasis",
        "SineBasis",
        "SpectralResult",
        "assemble_form_matrix",
        "scaling_check",
        "solve_spectrum",
        "spectral_basis",
    ),
    "errors": (
        "EstimationError",
        "NumericalBudgetError",
        "StableGapError",
        "UnsupportedConfigurationError",
        "ValidationError",
    ),
    "geometry": ("Domain", "GeometrySummary"),
    "kernels": (
        "cauchy_constant",
        "cauchy_kernel",
        "gaussian_kernel",
        "sample_stable_increment",
        "sample_subordinator_increment",
        "subordinated_gaussian",
        "subordinator_density_half",
    ),
    "montecarlo": (
        "McConfig",
        "McEstimate",
        "SurvivalCurve",
        "estimate_gap_star",
        "estimate_lambda1",
        "estimate_phi1",
        "simulate_skeleton",
        "survival_curve",
        "time_to_equilibrium_bounds",
    ),
    "poincare": (
        "RayleighOutcome",
        "WeightProfile",
        "check_lemma_derivative",
        "directional_quotient_2d",
        "ground_state_weight",
        "is_log_concave",
        "min_antisymmetric_quotient",
        "segment_log_concavity",
        "skeleton_survival",
    ),
    "steklov": (
        "ConstantField",
        "HarmonicExtension",
        "QResult",
        "Truncation",
        "check_boundary_derivative",
        "check_harmonic",
        "d01_lower_bound_check",
        "extend",
        "extend_ratio",
        "gap_identity_check",
        "ground_state_domination_check",
        "q_functional",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

# the submodules and their exports, so that `from stablegap import *` binds both
__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
