"""Harmonic extensions to the upper half-space and the energy functional."""

import numpy as np
import pytest
from scipy.integrate import quad

from stablegap import (
    ConstantField,
    Domain,
    Truncation,
    ValidationError,
    check_boundary_derivative,
    check_harmonic,
    d01_lower_bound_check,
    extend,
    extend_ratio,
    gap_identity_check,
    gradient_scale_fit,
    ground_state_domination_check,
    q_functional,
    ratio_boundedness_check,
    sample_extension,
    solve_spectrum,
)
from stablegap.steklov import ExtensionEngine, smoothed_sine_mode

FD_STEP = 1e-5
TIMES = np.array([2e-4, 1e-3, 0.05, 1.0, 7.0])  # includes t <= 1e-3


@pytest.fixture(scope="module")
def interval_32(interval_domain):
    return solve_spectrum(interval_domain, 1.0, 32)


@pytest.fixture(scope="module")
def rect_8(rect_domain):
    return solve_spectrum(rect_domain, 1.0, 8)


def assert_gradient_matches(analytic, difference):
    # relative to the largest entry at each time: the field scale changes by
    # orders of magnitude between t = 2e-4 and t = 7
    scale = np.max(np.abs(analytic), axis=tuple(range(analytic.ndim - 1)))
    assert np.all(np.abs(analytic - difference) <= 1e-6 * scale)


def test_extension_boundary_values(interval_128):
    ext = extend(interval_128, 1)
    xs = np.linspace(-0.9, 0.9, 7)
    phi = interval_128.eigenfunction(1)(xs)
    at_zero = ext.values(xs, np.array([0.0]))[:, 0]
    assert np.max(np.abs(at_zero - phi)) < 1e-12
    near_zero = ext.values(xs, np.array([1e-6]))[:, 0]
    assert np.max(np.abs(near_zero - phi)) < 1e-4


def test_extension_decays_in_time(interval_128):
    ext = extend(interval_128, 1)
    vals = ext.values(np.array([0.0]), np.array([1.0, 5.0, 20.0]))[0]
    assert vals[0] > vals[1] > vals[2] > 0
    # far-field envelope: u(0, t) <= C / t for large t
    assert vals[2] < 0.1


def test_smoothed_sine_mode_solves_half_space_problem():
    # the engine's building block: boundary values sin(omega (x - c)) inside
    # the window, harmonic in (x, t)
    omega, c, halfw = 3.0, 0.2, 1.0
    xs = np.linspace(c - halfw + 0.05, c + halfw - 0.05, 9)
    s = 1e-14  # smoothing scale ~ sqrt(s)
    vals = smoothed_sine_mode(xs, s, omega, c, halfw)
    # convention: the mode vanishes at the left edge of the window
    assert np.max(np.abs(vals - np.sin(omega * (xs - c + halfw)))) < 1e-5
    outside = smoothed_sine_mode(np.array([c + 2.0, c - 3.0]), s, omega, c, halfw)
    assert np.max(np.abs(outside)) < 1e-10


def test_harmonicity_of_extension(interval_128):
    field = sample_extension(interval_128, 1)
    res = check_harmonic(field, 0.0, 1.0, h=1e-3)
    assert abs(res) < 1e-4
    res_half = check_harmonic(field, 0.3, 0.7, h=1e-3)
    assert abs(res_half) < 1e-4


def test_check_harmonic_stencil_is_exact_for_cubics():
    # x^3 - 3 x t^2 solves the 2-variable Laplace equation; the 5-point
    # stencil is exact on cubics, so the residual is pure roundoff
    class Poly:
        dim = 1

        def values(self, xs, ts):
            xs = np.atleast_1d(np.asarray(xs, dtype=float))
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            return xs[:, None] ** 3 - 3.0 * xs[:, None] * ts[None, :] ** 2

    assert abs(check_harmonic(Poly(), 0.4, 0.8, h=1e-3)) < 1e-6
    # and it detects a non-harmonic field
    class Bad(Poly):
        def values(self, xs, ts):
            xs = np.atleast_1d(np.asarray(xs, dtype=float))
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            return xs[:, None] ** 2 + 0.0 * ts[None, :]

    assert abs(check_harmonic(Bad(), 0.4, 0.8, h=1e-3)) > 1.0


def test_boundary_derivative_matches_principal_value_oracle(interval_128):
    # the h -> 0 residual of d/dt u(x, t) + lambda phi(x) at an interior point
    # equals the pointwise operator residual of the Galerkin eigenfunction,
    # computed here independently by principal-value quadrature
    r = interval_128
    n, x0 = 1, 0.0
    phi = r.eigenfunction(n)

    def deficit(y):
        return (2 * phi(np.array([x0]))[0]
                - phi(np.array([x0 + y]))[0]
                - phi(np.array([x0 - y]))[0]) / y**2

    inner, _ = quad(deficit, 0.0, 1.0 - x0, limit=400)
    outer, _ = quad(deficit, 1.0 - x0, np.inf, limit=400)
    oracle = abs((inner + outer) / np.pi - r.lambda1 * phi(np.array([x0]))[0])
    resid = check_boundary_derivative(r, n, x0, h=1e-5)
    assert resid == pytest.approx(oracle, rel=0.15)


def test_boundary_derivative_residual_decays_with_basis(interval_domain,
                                                        interval_128):
    r64 = solve_spectrum(interval_domain, 1.0, 64)
    resid64 = check_boundary_derivative(r64, 1, 0.0, h=1e-5)
    resid128 = check_boundary_derivative(interval_128, 1, 0.0, h=1e-5)
    assert resid128 < resid64


def test_boundary_derivative_outside_returns_field_size(interval_128):
    # outside the domain the boundary value is zero, so the check reports the
    # extension magnitude at height h, which must be tiny
    assert check_boundary_derivative(interval_128, 1, 1.5, h=1e-4) < 1e-3


def test_ground_state_domination_default_grid(interval_512):
    # the default grid starts above the resolution-dependent boundary layer
    # only at high basis order; the guarantee is stated for N = 512
    assert ground_state_domination_check(interval_512) >= -1e-8


def test_q_functional_algebra(interval_128):
    trunc = Truncation(1e-2, 10.0, 20.0)
    u = extend_ratio(interval_128, 2)
    u1 = extend(interval_128, 1)
    one = ConstantField(1)
    qc = q_functional(one, one, u1, trunc=trunc)
    assert abs(qc.value) < 1e-12
    quu = q_functional(u, u, u1, trunc=trunc)
    assert quu.value > 0
    qu1 = q_functional(u, one, u1, trunc=trunc)
    assert abs(qu1.value) < 1e-2 * quu.value


def test_gap_identity_interval(interval_128):
    trunc = Truncation(1e-3, 20.0, 40.0)
    chk = gap_identity_check(interval_128, trunc=trunc)
    assert chk["mode"] == 2
    assert abs(chk["relative_error"]) < 0.05
    assert chk["tail_bound"] < 0.01 * chk["lhs"]


def test_tail_bound_shrinks_with_box(interval_128):
    u = extend_ratio(interval_128, 2)
    u1 = extend(interval_128, 1)
    small = q_functional(u, u, u1, trunc=Truncation(1e-2, 10.0, 20.0))
    big = q_functional(u, u, u1, trunc=Truncation(1e-2, 20.0, 40.0))
    assert big.tail_bound < small.tail_bound
    assert small.tail_bound > 0


def test_ratio_boundedness(interval_128):
    out = ratio_boundedness_check(interval_128)
    assert np.isfinite(out) and 0 < out < 1e6


def test_gradient_scale_fit(interval_128):
    c = gradient_scale_fit(interval_128, trunc=Truncation(1e-2, 10.0, 20.0))
    assert np.isfinite(c) and c > 0


def test_d01_lower_bound_interval(interval_128):
    out = d01_lower_bound_check(interval_128, trunc=Truncation(1e-2, 10.0, 20.0))
    assert out["pass"]
    assert out["simplified_integral"] <= out["gap"] + 1e-3


def test_truncation_validation():
    with pytest.raises(ValidationError):
        Truncation(-1.0, 10.0, 20.0).validate()
    with pytest.raises(ValidationError):
        Truncation(1.0, 0.5, 20.0).validate()


# ---------------- analytic gradients ----------------


def test_smoothed_sine_mode_x_derivative():
    # basis frequencies k pi / (2 h) only: the mode must vanish at both ends
    s = np.array([1e-4, 1e-3, 0.3, 100.0])[None, :]
    xs = np.linspace(-2.0, 2.5, 11)[:, None]
    for k in (1, 6, 32):
        omega = k * np.pi / 2.0
        value, dx = smoothed_sine_mode(xs, s, omega, 0.2, 1.0, grad=True)
        assert np.array_equal(value, smoothed_sine_mode(xs, s, omega, 0.2, 1.0))
        fd = (smoothed_sine_mode(xs + FD_STEP, s, omega, 0.2, 1.0)
              - smoothed_sine_mode(xs - FD_STEP, s, omega, 0.2, 1.0)) / (2 * FD_STEP)
        assert_gradient_matches(dx, fd)


def test_engine_gradient_matches_central_differences_1d(interval_32):
    engine = ExtensionEngine(interval_32.basis)
    rows = interval_32.coefficients[:3]
    xs = np.array([-1.3, -0.7, 0.0, 0.45, 0.9, 1.6])
    h = FD_STEP
    g = engine.values(rows, xs, TIMES, grad=True)
    assert g.shape == (3, 3, xs.size, TIMES.size)
    assert np.array_equal(g[:, 0], engine.values(rows, xs, TIMES))
    dx = (engine.values(rows, xs + h, TIMES) - engine.values(rows, xs - h, TIMES)) / (2 * h)
    dt = (engine.values(rows, xs, TIMES + h) - engine.values(rows, xs, TIMES - h)) / (2 * h)
    assert_gradient_matches(g[:, 1], dx)
    assert_gradient_matches(g[:, 2], dt)


def test_engine_gradient_matches_central_differences_rect(rect_8):
    engine = ExtensionEngine(rect_8.basis)
    rows = rect_8.coefficients[:2]
    x1, x2 = np.array([-2.5, -1.0, 0.3, 1.9]), np.array([-0.5, 0.1, 0.8, 1.4])
    h = FD_STEP
    g = engine.values(rows, (x1, x2), TIMES, grad=True)
    assert g.shape == (2, 4, x1.size, x2.size, TIMES.size)

    def vals(a, b, ts=TIMES):
        return engine.values(rows, (a, b), ts)

    assert_gradient_matches(g[:, 1], (vals(x1 + h, x2) - vals(x1 - h, x2)) / (2 * h))
    assert_gradient_matches(g[:, 2], (vals(x1, x2 + h) - vals(x1, x2 - h)) / (2 * h))
    assert_gradient_matches(g[:, 3], (vals(x1, x2, TIMES + h) - vals(x1, x2, TIMES - h)) / (2 * h))


def test_ratio_field_quotient_rule(interval_32):
    w = extend_ratio(interval_32, 2)
    xs = np.array([-0.8, -0.2, 0.35, 0.95])
    h = FD_STEP
    g = w.values_and_grad(xs, TIMES)
    assert np.allclose(g[0], w.values(xs, TIMES), rtol=1e-14, atol=0.0)
    assert_gradient_matches(g[1], (w.values(xs + h, TIMES) - w.values(xs - h, TIMES)) / (2 * h))
    assert_gradient_matches(g[2], (w.values(xs, TIMES + h) - w.values(xs, TIMES - h)) / (2 * h))


def test_constant_field_has_zero_gradient():
    g = ConstantField(2, 3.0).values_and_grad((np.zeros(3), np.zeros(4)), TIMES)
    assert g.shape == (4, 3, 4, TIMES.size)
    assert np.all(g[0] == 3.0) and not np.any(g[1:])


def test_gradient_at_t_zero_is_rejected(interval_32):
    ext = extend(interval_32, 1)
    ts = np.array([0.0, 1.0])
    with pytest.raises(ValidationError):
        ext.values_and_grad(np.array([0.0]), ts)
    with pytest.raises(ValidationError):
        extend_ratio(interval_32, 2).values_and_grad(np.array([0.0]), ts)
    with pytest.raises(ValidationError):
        ConstantField(1).values_and_grad(np.array([0.0]), ts)
    # value-only calls at t = 0 still return the boundary values
    assert ext.values(np.array([0.0]), ts)[0, 0] == pytest.approx(
        interval_32.eigenfunction(1)(np.array([0.0]))[0], abs=1e-14)


def test_q_functional_needs_a_basis():
    one = ConstantField(1)
    with pytest.raises(ValidationError):
        q_functional(one, one, one)
