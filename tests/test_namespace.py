"""The package namespace: every exported name loads its module on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stablegap

# the 64 exported names and the 8 submodules, as `from stablegap import *` binds them
ALL_NAMES = [
    "BoundReport", "ConstantField", "DiskBasis", "Domain", "EstimationError",
    "GeometrySummary", "HarmonicExtension", "McConfig", "McEstimate", "NumericalBudgetError",
    "QResult", "RayleighOutcome", "SineBasis", "SpectralResult", "StableGapError",
    "SurvivalCurve", "Truncation", "UnsupportedConfigurationError", "ValidationError",
    "WeightProfile", "assemble_form_matrix", "ball_laplacian_eigenvalues", "bessel_zero",
    "bounds", "build_report", "cauchy_constant", "cauchy_kernel", "check_boundary_derivative",
    "check_harmonic", "check_lemma_derivative", "d01_lower_bound_check",
    "directional_quotient_2d", "disk_gap_lower", "eigensolver", "errors", "estimate_gap_star",
    "estimate_lambda1", "estimate_phi1", "extend", "extend_ratio", "final_inequality",
    "gap_identity_check", "gap_lower_main", "gap_upper", "gaussian_kernel", "geometry",
    "ground_state_domination_check", "ground_state_weight", "is_log_concave", "kernels",
    "main_gap_constants", "min_antisymmetric_quotient", "montecarlo", "poincare",
    "q_functional", "rectangle_gap_lower", "render_table", "sample_stable_increment",
    "sample_subordinator_increment", "scaling_check", "segment_log_concavity",
    "simulate_skeleton", "skeleton_survival", "solve_spectrum", "spectral_basis",
    "stable_eigenvalue_bracket", "steklov", "subordinated_gaussian",
    "subordinator_density_half", "survival_curve", "time_to_equilibrium_bounds",
    "weighted_poincare_constant",
]


def test_all_keeps_every_name():
    assert stablegap.__all__ == ALL_NAMES


def test_every_name_is_its_owners_object():
    for name in ALL_NAMES:
        value = getattr(stablegap, name)
        if name in stablegap._EXPORTS:
            assert value is importlib.import_module(f"stablegap.{name}"), name
        else:
            owner = importlib.import_module(f"stablegap.{stablegap._OWNER[name]}")
            assert value is getattr(owner, name), name
            assert vars(stablegap)[name] is value, name  # cached after the first lookup


def test_unknown_name_is_no_attribute():
    assert not hasattr(stablegap, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        stablegap.no_such_name


def test_dir_lists_all_and_every_name():
    names = dir(stablegap)
    assert "__all__" in names
    assert set(ALL_NAMES) <= set(names)


def test_star_import_binds_every_name(tmp_path):
    code = ("import json; ns = {}; exec('from stablegap import *', ns); "
            "print(json.dumps(sorted(k for k in ns if k != '__builtins__')))")
    src = str(Path(stablegap.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(out.stdout) == ALL_NAMES
