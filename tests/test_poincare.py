"""Weighted Poincare quotients, log-concavity, skeleton survival, and the
exponential-weight derivative inequality."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stablegap
from stablegap import (
    Domain,
    NumericalBudgetError,
    UnsupportedConfigurationError,
    ValidationError,
    WeightProfile,
    check_lemma_derivative,
    directional_quotient_2d,
    ground_state_weight,
    is_log_concave,
    min_antisymmetric_quotient,
    segment_log_concavity,
    skeleton_survival,
)

BOUND = np.pi**2 / 4


def test_log_concavity_examples():
    gauss = WeightProfile.from_function(lambda x: np.exp(-(x**2)), 1.0)
    assert is_log_concave(gauss)
    bump = WeightProfile.from_function(lambda x: 1.0 + x**2, 1.0)
    assert not is_log_concave(bump)
    # products of log-concave weights stay log-concave
    prod = WeightProfile.from_function(lambda x: np.exp(-(x**2) - x**4), 1.0)
    assert is_log_concave(prod)


def test_weight_profile_validation():
    with pytest.raises(ValidationError):
        WeightProfile.from_function(lambda x: x, 1.0)  # not positive
    with pytest.raises(ValidationError):
        WeightProfile.from_function(lambda x: np.exp(x), 1.0)  # not symmetric


@pytest.mark.parametrize("l", [0.0, -1.0])
def test_weight_profile_needs_an_increasing_grid(l):
    # (-l, l) with l <= 0 has no cells: from_function would sample an all-zero
    # or a decreasing grid, on which the quotient divides by a zero cell width
    with pytest.raises(ValidationError, match="strictly increasing"):
        WeightProfile.from_function(lambda x: np.ones_like(x), l)


def test_flat_weight_recovers_free_constant():
    flat = WeightProfile.from_function(lambda x: np.ones_like(x), 1.0)
    out = min_antisymmetric_quotient(flat, 1.0)
    assert abs(out.quotient - BOUND) < 1e-4
    assert out.passed


def test_flat_weight_scales_with_length():
    flat = WeightProfile.from_function(lambda x: np.ones_like(x), 2.0)
    out = min_antisymmetric_quotient(flat, 2.0)
    assert abs(out.quotient - BOUND / 4) < 1e-4


@pytest.mark.parametrize("l", [1.0, 0.0, -2.0, float("nan"), 2.0 * (1 + 1e-8)])
def test_length_must_match_the_profile(l):
    # a flat profile sampled on (-2, 2): l = 1 would give the quotient of (-1, 1)
    flat = WeightProfile.from_function(lambda x: np.ones_like(x), 2.0)
    with pytest.raises(ValidationError, match="half-extent"):
        min_antisymmetric_quotient(flat, l)
    assert min_antisymmetric_quotient(flat, 2.0 * (1 + 1e-10)).passed


@pytest.mark.parametrize("l", [1.0, 2.0])
def test_flat_weight_meets_the_p1_eigenvalue(l):
    # on n uniform cells of (0, l), with f(0) = 0 and a free end, the P1 pencil
    # has the eigenvector sin(i theta), theta = pi h / (2 l), and the eigenvalue
    # (6 / h^2) 2 sin^2(theta / 2) / (2 + cos theta)
    flat = WeightProfile.from_function(lambda x: np.ones_like(x), l)
    h = l / (flat.grid.size // 2)
    theta = np.pi * h / (2 * l)
    exact = 6 * 2 * np.sin(theta / 2) ** 2 / (h**2 * (2 + np.cos(theta)))
    assert abs(min_antisymmetric_quotient(flat, l).quotient - exact) <= 1e-13


def test_quotient_iteration_is_capped(monkeypatch):
    # two steps are still descending on a Gaussian weight
    from stablegap import poincare

    monkeypatch.setattr(poincare, "_QUOTIENT_STEPS", 2)
    gauss = WeightProfile.from_function(lambda x: np.exp(-(x**2)), 1.0)
    with pytest.raises(NumericalBudgetError, match="still descending after 2 steps"):
        min_antisymmetric_quotient(gauss, 1.0)


def test_import_leaves_out_scipy_sparse():
    # the quotient runs on LAPACK's tridiagonal solver: scipy.sparse (and with
    # it ARPACK, whose threaded BLAS is a second pool beside numpy's) stays out
    src = str(Path(stablegap.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, stablegap; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_gaussian_weight_beats_flat_constant():
    gauss = WeightProfile.from_function(lambda x: np.exp(-(x**2)), 1.0)
    out = min_antisymmetric_quotient(gauss, 1.0)
    assert out.quotient > BOUND
    assert out.passed


def test_ground_state_weights_satisfy_bound(interval_domain):
    from stablegap import solve_spectrum

    for alpha in (1.0, 1.5, 2.0):
        res = solve_spectrum(interval_domain, alpha, 128)
        prof = ground_state_weight(res)
        # alpha = 1: the squared Galerkin ground state carries sine-basis
        # ripples where it vanishes at the boundary, which bleed into the
        # discrete log second differences at the 1e-3 level; the smoother
        # alpha = 1.5 and exact alpha = 2 ground states are clean
        tol = 1e-3 if alpha == 1.0 else 1e-6
        assert is_log_concave(prof, tol=tol), alpha
        out = min_antisymmetric_quotient(prof, 1.0)
        assert out.quotient >= BOUND - 1e-4, alpha


def test_min_quotient_is_reproducible(interval_domain):
    from stablegap import solve_spectrum

    prof = ground_state_weight(solve_spectrum(interval_domain, 1.0, 64))
    quotients = [min_antisymmetric_quotient(prof, 1.0).quotient for _ in range(3)]
    assert quotients[0] == quotients[1] == quotients[2]


def test_ground_state_weight_off_centre_interval():
    from stablegap import solve_spectrum

    # phi_1 sampled at x + c on the centred grid: the same quotient as on (-1, 1)
    quotients = [
        min_antisymmetric_quotient(ground_state_weight(solve_spectrum(d, 1.0, 64)), 1.0)
        for d in (Domain.interval(0.0, 2.0), Domain.interval(-1.0, 1.0))
    ]
    assert quotients[0].quotient == pytest.approx(quotients[1].quotient, rel=1e-12)
    assert quotients[0].passed


def test_ground_state_weight_rejects_union():
    from stablegap import solve_spectrum

    union = solve_spectrum(Domain.interval_union([(-2.0, -0.5), (0.5, 2.0)]), 1.0, 8)
    with pytest.raises(ValidationError, match="single interval"):
        ground_state_weight(union)


def test_coarse_profile_rejected():
    coarse = WeightProfile(np.linspace(-0.99, 0.99, 10), np.ones(10))
    with pytest.raises(UnsupportedConfigurationError):
        min_antisymmetric_quotient(coarse, 1.0)


def test_directional_quotient_2d_equality_case(rect_domain):
    L = 2.0
    f = lambda p: np.sin(np.pi * p[:, 0] / (2 * L))
    w = lambda p: np.ones(p.shape[0])
    out = directional_quotient_2d(rect_domain, w, f, tol=1e-6)
    assert out["pass"]
    assert abs(out["lhs"] - out["rhs"]) < 1e-6 * out["rhs"]


def test_directional_quotient_2d_generic(rect_domain):
    f = lambda p: p[:, 0] * np.exp(-p[:, 1] ** 2)
    w = lambda p: np.exp(-(p[:, 0] ** 2))
    out = directional_quotient_2d(rect_domain, w, f)
    assert out["pass"]
    assert out["lhs"] >= out["rhs"]


def test_directional_quotient_2d_rejects_symmetric_f(rect_domain):
    with pytest.raises(ValidationError):
        directional_quotient_2d(rect_domain, lambda p: np.ones(p.shape[0]),
                                lambda p: np.ones(p.shape[0]))


def test_directional_quotient_needs_rectangle():
    with pytest.raises(ValidationError):
        directional_quotient_2d(Domain.disk(0.0, 0.0, 1.0),
                                lambda p: np.ones(p.shape[0]),
                                lambda p: p[:, 0])


def test_skeleton_survival_single_time_closed_form(interval_domain):
    # one observation: P(x + C_t in (-1,1)) =
    # (arctan((1-x)/t) + arctan((1+x)/t)) / pi
    for x, t in ((0.0, 1.0), (0.5, 0.7), (-0.3, 2.0)):
        got = skeleton_survival(interval_domain, x, [t])
        expected = (np.arctan((1 - x) / t) + np.arctan((1 + x) / t)) / np.pi
        assert abs(got - expected) < 1e-6
    assert abs(skeleton_survival(interval_domain, 0.0, [1.0]) - 0.5) < 1e-6


def test_skeleton_survival_monotone_in_observations(interval_domain):
    f1 = skeleton_survival(interval_domain, 0.5, [1.0])
    f2 = skeleton_survival(interval_domain, 0.5, [0.5, 1.0])
    f3 = skeleton_survival(interval_domain, 0.5, [0.4, 0.7, 1.0])
    assert f3 < f2 < f1 < 1.0


def test_skeleton_survival_reflection_symmetry(interval_domain):
    a = skeleton_survival(interval_domain, 0.4, [0.5, 1.0])
    b = skeleton_survival(interval_domain, -0.4, [0.5, 1.0])
    assert abs(a - b) < 1e-10
    union = Domain.interval_union([(-2.0, -0.5), (0.5, 2.0)])
    a = skeleton_survival(union, 1.2, [0.5, 1.0])
    b = skeleton_survival(union, -1.2, [0.5, 1.0])
    assert abs(a - b) < 1e-10
    # the gap between the components only removes surviving paths
    assert a < skeleton_survival(Domain.interval(-2.0, 2.0), 1.2, [0.5, 1.0])


def test_skeleton_survival_2d(rect_domain):
    # 9216 quadrature nodes: a dense kernel matrix alone would take 680 MB
    tracemalloc.start()
    try:
        v = skeleton_survival(rect_domain, np.array([0.0, 0.0]), [0.5, 1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200e6
    assert 0.0 < v < 1.0
    one = skeleton_survival(rect_domain, np.array([0.0, 0.0]), [0.5])
    assert v < one
    # one observation: the 2D Cauchy density integrates over the rectangle to
    # (1 / 2 pi) times the signed corner sum of arctan(u v / (t sqrt(t^2 + u^2 + v^2)))
    (a1, b1), (a2, b2) = rect_domain.bounding_box()

    def corner(u, v, t):
        return np.arctan(u * v / (t * np.sqrt(t**2 + u**2 + v**2)))

    for (x1, x2), t in (((0.0, 0.0), 0.5), ((0.7, -0.3), 1.0), ((-1.5, 0.6), 0.2)):
        expected = (corner(b1 - x1, b2 - x2, t) - corner(a1 - x1, b2 - x2, t)
                    - corner(b1 - x1, a2 - x2, t) + corner(a1 - x1, a2 - x2, t)) / (2 * np.pi)
        got = skeleton_survival(rect_domain, np.array([x1, x2]), [t])
        assert abs(got - expected) < 1e-5


def test_skeleton_survival_validation(interval_domain):
    with pytest.raises(ValidationError):
        skeleton_survival(interval_domain, 2.0, [1.0])  # starts outside
    with pytest.raises(ValidationError):
        skeleton_survival(interval_domain, 0.0, [1.0, 0.5])  # not increasing
    with pytest.raises(UnsupportedConfigurationError):
        skeleton_survival(interval_domain, 0.0, [1, 2, 3, 4, 5])


def test_skeleton_survival_takes_one_start_point(interval_domain):
    # two 1D points are no start point: montecarlo.start_point refuses them,
    # where the kernel once summed over both
    with pytest.raises(ValidationError, match="dimension"):
        skeleton_survival(interval_domain, [0.1, 0.2], [0.5])


@pytest.mark.parametrize("times", [[], np.array([])])
def test_skeleton_survival_rejects_no_times(interval_domain, times):
    with pytest.raises(ValidationError, match="nonempty"):
        skeleton_survival(interval_domain, 0.0, times)


def test_skeleton_survival_refuses_three_dimensions(monkeypatch):
    # a box in R^3 has 96^3 = 884 736 nodes, so each time past the first
    # applies about 7.8e11 kernel entries; it is refused before the rule is
    # built, a single time as well
    def no_rule(*args, **kwargs):
        raise AssertionError("the quadrature rule was built")

    monkeypatch.setattr(stablegap.poincare, "axis_rules", no_rule)
    box = Domain.product([(-2.0, 2.0)], [(-1.0, 1.0)], [(-1.0, 1.0)])
    with pytest.raises(UnsupportedConfigurationError, match="3D"):
        skeleton_survival(box, np.zeros(3), [1.0])


def test_segment_log_concavity(interval_domain):
    worst = segment_log_concavity(interval_domain, (-0.8, 0.8), [0.5, 1.0])
    assert worst <= 1e-7
    worst3 = segment_log_concavity(interval_domain, (-0.8, 0.8),
                                   [0.3, 0.6, 1.0], n_points=15)
    assert worst3 <= 1e-7


def test_lemma_derivative_exponential_example():
    ts = np.linspace(0.0, 40.0, 4001)
    out = check_lemma_derivative(ts, np.exp(-ts), 1.0)
    # I = int 2 e^{-3t} = 2/3, bound = 1/2
    assert abs(out["I"] - 2 / 3) < 1e-3
    assert out["pass"]
    assert out["ratio"] > 1.0


def test_lemma_derivative_minimizing_exponential():
    # f = e^{-rt} with r^2 + c r - 1 = 0 minimizes I among exponentials;
    # the bound still holds with slack
    c = 1.0
    r = (-c + np.sqrt(c**2 + 4)) / 2
    ts = np.linspace(0.0, 60.0, 6001)
    out = check_lemma_derivative(ts, np.exp(-r * ts), c)
    expected = (1 + r**2) / (2 * r + c)
    assert abs(out["I"] - expected) < 1e-3
    assert out["pass"]


def test_lemma_derivative_validation():
    ts = np.linspace(0.0, 10.0, 101)
    with pytest.raises(ValidationError):
        check_lemma_derivative(ts, np.exp(-ts), -1.0)
    with pytest.raises(ValidationError):
        check_lemma_derivative(ts + 0.1, np.exp(-ts), 1.0)
