"""Input checks shared across the modules: one rule for counts, and
positivity guards that NaN cannot pass."""

import numpy as np
import pytest

from stablegap import (ConstantField, Domain, ValidationError, check_harmonic, extend,
                       solve_spectrum)
from stablegap._quad import log_panels, panel_gauss
from stablegap.bounds import (
    ball_laplacian_eigenvalues,
    bessel_zero,
    disk_gap_lower,
    final_inequality,
    gap_lower_main,
    gap_upper,
    main_gap_constants,
    rectangle_gap_lower,
    stable_eigenvalue_bracket,
    weighted_poincare_constant,
)
from stablegap.eigensolver import spectral_basis
from stablegap.kernels import cauchy_kernel, gaussian_kernel, subordinator_density_half
from stablegap.montecarlo import (
    McConfig,
    McEstimate,
    estimate_phi1,
    survival_curve,
    time_to_equilibrium_bounds,
)
from stablegap.poincare import check_lemma_derivative, segment_log_concavity, skeleton_survival

INTERVAL = Domain.interval(-1.0, 1.0)


def _curve():
    return survival_curve(INTERVAL, 0.5, McConfig(paths=2_000, dt=1e-2, t_max=3.0, seed=1))


# a bool is an Integral but no count, and a float is no count even when whole
@pytest.mark.parametrize("call, name", [
    (lambda: solve_spectrum(INTERVAL, 1.0, True), "n_basis"),
    (lambda: solve_spectrum(INTERVAL, 1.0, 2.7), "n_basis"),
    (lambda: solve_spectrum(INTERVAL, 1.0, 4.0), "n_basis"),
    (lambda: spectral_basis(Domain.rectangle(-2.0, 2.0, -1.0, 1.0), (4, 2.5)), "n_basis"),
    (lambda: spectral_basis(Domain.disk(0.0, 0.0, 1.0), 2.5), "n_basis"),
    (lambda: solve_spectrum(INTERVAL, 1.0, 4, n_report=2.5), "n_report"),
    (lambda: solve_spectrum(INTERVAL, 1.0, 4, n_report=True), "n_report"),
    (lambda: bessel_zero(0, True), "index k"),
    (lambda: bessel_zero(0, 2.0), "index k"),
    (lambda: main_gap_constants(True), "dimension"),
    (lambda: weighted_poincare_constant(np.True_), "dimension"),
    (lambda: gap_upper(0, 1.0), "dimension"),
    (lambda: gap_upper(1.5, 1.0), "dimension"),
    (lambda: gap_upper(True, 1.0), "dimension"),
    (lambda: ball_laplacian_eigenvalues(0, 1.0), "dimension"),
    (lambda: ball_laplacian_eigenvalues(1.5, 1.0), "dimension"),
    (lambda: ball_laplacian_eigenvalues(True, 1.0), "dimension"),
    (lambda: segment_log_concavity(INTERVAL, (-0.8, 0.8), [0.5], n_points=2), "n_points"),
    (lambda: segment_log_concavity(INTERVAL, (-0.8, 0.8), [0.5], n_points=1), "n_points"),
    (lambda: segment_log_concavity(INTERVAL, (-0.8, 0.8), [0.5], n_points=0), "n_points"),
], ids=["n_basis-True", "n_basis-2.7", "n_basis-4.0", "rect-counts-2.5", "disk-2.5",
        "n_report-2.5", "n_report-True", "bessel-k-True", "bessel-k-2.0",
        "main-dim-True", "poincare-dim-np.True_", "gap_upper-dim-0", "gap_upper-dim-1.5",
        "gap_upper-dim-True", "ball-dim-0", "ball-dim-1.5", "ball-dim-True",
        "n_points-2", "n_points-1", "n_points-0"])
def test_counts_are_integers_and_not_bools(call, name):
    with pytest.raises(ValidationError, match=name):
        call()


@pytest.mark.parametrize("call", [
    lambda: ball_laplacian_eigenvalues(2, np.nan),
    lambda: stable_eigenvalue_bracket(np.nan, 1.0),
    lambda: gap_upper(2, np.nan),
    lambda: gap_lower_main(2, np.nan, 1.0),
    lambda: disk_gap_lower(np.nan),
    lambda: rectangle_gap_lower(np.nan),
    lambda: final_inequality(np.nan, 2.0),
    lambda: bessel_zero(np.nan, 1),
    lambda: cauchy_kernel(np.nan, [0.0], [0.5]),
    lambda: gaussian_kernel(np.nan, [0.0], [0.5]),
    lambda: subordinator_density_half(np.nan, 1.0),
    lambda: time_to_equilibrium_bounds(np.nan, 0.1, 1.0),
    lambda: check_lemma_derivative(np.linspace(0.0, 1.0, 5), np.ones(5), np.nan),
    lambda: check_harmonic(ConstantField(1), 0.0, np.nan),
    lambda: skeleton_survival(INTERVAL, 0.0, [np.nan]),
    lambda: skeleton_survival(INTERVAL, 0.0, [0.5, np.nan]),
    lambda: check_lemma_derivative([0.0, np.nan, 1.0], np.ones(3), 1.0),
    lambda: log_panels(np.nan, 1.0),
    lambda: log_panels(1e-3, np.nan),
    lambda: panel_gauss([0.0, np.nan, 1.0]),
    lambda: estimate_phi1(_curve(), np.nan, McEstimate(1.0, 0.01, 2_000)),
    lambda: time_to_equilibrium_bounds(1.0, 0.1, np.nan),
], ids=["ball", "bracket", "gap_upper", "gap_lower_main", "disk", "rectangle", "final",
        "bessel_zero", "cauchy", "gaussian", "subordinator", "equilibrium", "lemma",
        "harmonic-stencil", "skeleton-time", "skeleton-later-time", "lemma-sample-time",
        "log_panels-lo", "log_panels-hi", "panel_gauss-edge", "phi1-time", "equilibrium-c1"])
def test_nan_fails_every_positivity_guard(call):
    # every comparison with NaN is false, so a guard written x <= 0 let it through
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("what", ["contains", "eigenfunction", "kernels", "grid"])
def test_points_need_a_last_axis_of_d(what, d):
    # one layout in every dimension: points of shape (..., d) and tensor grids
    # of d axes; a last axis of d - 1 or d + 1, or that many axes, is refused
    domain = Domain.product(*[[(-1.0, 1.0)]] * d)
    wrong = [np.full((3, k), 0.5) for k in (d - 1, d + 1) if k >= 1]
    if what == "grid":
        fields = [ConstantField(d)]
        if d <= 2:  # extensions stop at d = 2
            fields.append(extend(solve_spectrum(domain, 1.0, 2), 1))
        for field in fields:
            for k in (d - 1, d + 1):
                with pytest.raises(ValidationError, match=f"needs {d} point axes"):
                    field.values([np.linspace(-0.5, 0.5, 3)] * k, [0.5])
            # an axis is a 1D array of points, not a column of them
            with pytest.raises(ValidationError, match="must be 1D"):
                field.values([np.zeros((3, 1))] * d, [0.5])
        return
    if what == "contains":
        calls = [domain.contains]
    elif what == "eigenfunction":
        calls = [solve_spectrum(domain, 1.0, 2).eigenfunction(1)]
    else:
        calls = [lambda y: kernel(0.5, np.zeros((3, d)), y)
                 for kernel in (cauchy_kernel, gaussian_kernel)]
    for call in calls:
        for x in wrong:
            with pytest.raises(ValidationError, match="need shape"):
                call(x)
