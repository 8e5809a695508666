"""Harmonic extensions to the upper half-space and the energy functional."""

import dataclasses
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import wofz

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
    ground_state_domination_check,
    q_functional,
    solve_spectrum,
)
from stablegap import steklov
from stablegap._quad import axis_rules, log_panels, mirror_linspace, panel_gauss
from stablegap.kernels import subordination_grid, subordinator_density_half
from stablegap.steklov import (
    ExtensionEngine,
    _energy_grid,
    _live_chunks,
    _scaled_erf,
    default_truncation,
    smoothed_sine_mode,
)

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
    phi = interval_128.eigenfunction(1)(xs[:, None])
    with pytest.raises(ValidationError):  # the boundary values are the eigenfunction's
        ext.values([xs], np.array([0.0]))
    near_zero = ext.values([xs], np.array([1e-6]))[:, 0]
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
    vals, _ = smoothed_sine_mode(xs, s, omega, c, halfw)
    # convention: the mode vanishes at the left edge of the window
    assert np.max(np.abs(vals - np.sin(omega * (xs - c + halfw)))) < 1e-5
    outside, _ = smoothed_sine_mode(np.array([c + 2.0, c - 3.0]), s, omega, c, halfw)
    assert np.max(np.abs(outside)) < 1e-10


def test_harmonicity_of_extension(interval_128, rect_8):
    ext = extend(interval_128, 1)
    res = check_harmonic(ext, 0.0, 1.0, h=1e-3)
    assert abs(res) < 1e-4
    res_half = check_harmonic(ext, 0.3, 0.7, h=1e-3)
    assert abs(res_half) < 1e-4
    for n in (1, 2):
        ext = extend(rect_8, n)
        assert check_harmonic(ext, (0.0, 0.0), 1.0, h=1e-3) < 1e-4
        assert check_harmonic(ext, np.array([0.5, 0.3]), 0.7, h=1e-3) < 1e-4


def test_check_harmonic_stencil_is_exact_for_cubics():
    # x^3 - 3 x t^2 solves the 2-variable Laplace equation; the 5-point
    # stencil is exact on cubics, so the residual is pure roundoff
    class Poly:
        dim = 1

        def values(self, xs, ts):
            xs = np.atleast_1d(np.asarray(xs[0], dtype=float))
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            return xs[:, None] ** 3 - 3.0 * xs[:, None] * ts[None, :] ** 2

    assert abs(check_harmonic(Poly(), 0.4, 0.8, h=1e-3)) < 1e-6
    # and it detects a non-harmonic field
    class Bad(Poly):
        def values(self, xs, ts):
            xs = np.atleast_1d(np.asarray(xs[0], dtype=float))
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            return xs[:, None] ** 2 + 0.0 * ts[None, :]

    assert abs(check_harmonic(Bad(), 0.4, 0.8, h=1e-3)) > 1.0

    # in 2D, x1^3 - 3 x1 t^2 + x2^2 - t^2 solves the 3-variable Laplace
    # equation, and the 7-point stencil is exact on it
    class Poly2:
        dim = 2

        def values(self, xs, ts):
            X1, X2, T = np.meshgrid(*xs, np.atleast_1d(ts), indexing="ij")
            return self.field(X1, X2, T)

        def field(self, x1, x2, t):
            return x1**3 - 3.0 * x1 * t**2 + x2**2 - t**2

    assert abs(check_harmonic(Poly2(), (0.4, -0.3), 0.8, h=1e-3)) < 1e-6

    class Bad2(Poly2):
        def field(self, x1, x2, t):
            return x1**3 + x2**2 + 0.0 * t  # Laplacian 6 x1 + 2

    assert abs(check_harmonic(Bad2(), (0.4, -0.3), 0.8, h=1e-3)) > 1.0


def test_boundary_derivative_matches_principal_value_oracle(interval_128):
    # the h -> 0 residual of d/dt u(x, t) + lambda phi(x) at an interior point
    # equals the pointwise operator residual of the Galerkin eigenfunction,
    # computed here independently by principal-value quadrature
    r = interval_128
    n, x0 = 1, 0.0
    phi = r.eigenfunction(n)

    def deficit(y):
        return (2 * phi(np.array([[x0]]))[0]
                - phi(np.array([[x0 + y]]))[0]
                - phi(np.array([[x0 - y]]))[0]) / y**2

    inner, _ = quad(deficit, 0.0, 1.0 - x0, limit=400)
    outer, _ = quad(deficit, 1.0 - x0, np.inf, limit=400)
    oracle = abs((inner + outer) / np.pi - r.lambda1 * phi(np.array([[x0]]))[0])
    resid = check_boundary_derivative(r, n, x0, h=1e-5)
    assert resid == pytest.approx(oracle, rel=0.15)


def test_boundary_derivative_residual_decays_with_basis(interval_domain,
                                                        interval_128):
    r64 = solve_spectrum(interval_domain, 1.0, 64)
    resid64 = check_boundary_derivative(r64, 1, 0.0, h=1e-5)
    resid128 = check_boundary_derivative(interval_128, 1, 0.0, h=1e-5)
    assert resid128 < resid64


def test_boundary_derivative_outside_returns_field_size(interval_128, rect_8):
    # outside the domain the boundary value is zero, so the check reports the
    # extension magnitude at height h, which must be tiny
    assert check_boundary_derivative(interval_128, 1, 1.5, h=1e-4) < 1e-3
    assert check_boundary_derivative(rect_8, 1, (2.6, 0.2), h=1e-4) < 1e-3
    assert check_boundary_derivative(rect_8, 1, np.array([0.3, -1.5]), h=1e-4) < 1e-3


def _pv_half_laplacian_rect(phi, x0, sides, nodes=40):
    # (-Delta)^(1/2) phi(x0) in 2D as the principal value
    #   (1 / 2 pi) int_0^pi dtheta int_0^inf
    #       (2 phi(x0) - phi(x0 + rho e) - phi(x0 - rho e)) / rho^2 drho,
    # with Gauss rules on the theta sectors between the corner directions and
    # on the rho ranges where both, one or none of x0 +- rho e lie in the
    # rectangle (beyond both exits the integrand is 2 phi(x0) / rho^2)
    g, w = np.polynomial.legendre.leggauss(nodes)
    lo, hi = np.array([s[0] for s in sides]), np.array([s[1] for s in sides])
    corners = [np.arctan2(y - x0[1], x - x0[0]) % np.pi for x in sides[0] for y in sides[1]]
    edges = np.unique(np.concatenate([[0.0, np.pi], corners]))
    f0 = phi(x0)
    total = 0.0
    for th0, th1 in zip(edges[:-1], edges[1:]):
        th = th0 + (th1 - th0) * (g + 1) / 2
        e = np.column_stack([np.cos(th), np.sin(th)])
        exits = []
        for d in (e, -e):
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(d > 0, (hi - x0) / d, np.where(d < 0, (lo - x0) / d, np.inf))
            exits.append(t.min(axis=1))
        r1, r2 = np.minimum(*exits), np.maximum(*exits)
        inner = 2 * f0 / r2
        for a, b in ((0 * r1, r1), (r1, r2)):
            rho = a[:, None] + (b - a)[:, None] * (g + 1) / 2
            step = rho[..., None] * e[:, None, :]
            D = 2 * f0 - phi(x0 + step) - phi(x0 - step)
            inner = inner + np.sum(D / rho**2 * (b - a)[:, None] * w / 2, axis=1)
        total += np.sum(inner * (th1 - th0) * w / 2)
    return total / (2 * np.pi)


def test_boundary_derivative_rectangle_matches_principal_value_oracle(rect_8):
    phi = rect_8.eigenfunction(1)
    sides = rect_8.domain.bounding_box()
    for x0 in (np.array([0.3, 0.2]), np.array([-1.1, 0.5])):
        oracle = abs(_pv_half_laplacian_rect(phi, x0, sides) - rect_8.lambda1 * phi(x0))
        resid = check_boundary_derivative(rect_8, 1, x0, h=1e-5)
        assert resid == pytest.approx(oracle, rel=0.01)


def test_ground_state_domination_default_grid(interval_512):
    # the default grid starts above the resolution-dependent boundary layer
    # only at high basis order; the guarantee is stated for N = 512
    margin = ground_state_domination_check(interval_512)
    assert margin >= -1e-8
    # the grid has no t = 0, where u_1 = phi_1 and the margin is exactly 0
    assert margin > 0


def test_ground_state_domination_needs_positive_heights(interval_128):
    with pytest.raises(ValidationError):
        ground_state_domination_check(interval_128, [np.linspace(-1, 1, 5)], [0.0])


def test_q_functional_algebra(interval_128):
    trunc = Truncation(1e-2, 10.0, 20.0)
    u = extend_ratio(interval_128, 2)
    u1 = extend(interval_128, 1)
    one = ConstantField(1)
    qc = q_functional(one, one, u1, trunc=trunc)
    assert abs(qc.value) < 1e-12
    quu = q_functional(u, u, u1, trunc=trunc)
    assert quu.value > 0
    # polarised gap identity: the energy pairs u_2/u_1 and u_4/u_1 to ~0
    # (u_3/u_1 would pair to zero by parity alone)
    q24 = q_functional(u, extend_ratio(interval_128, 4), u1, trunc=trunc)
    assert abs(q24.value) < 1e-2 * quu.value


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


@pytest.mark.parametrize("check", [gap_identity_check, d01_lower_bound_check])
def test_checks_reject_invalid_truncation(interval_32, check):
    # eps above t_max: every check that takes a box validates it, default or given
    with pytest.raises(ValidationError):
        check(interval_32, trunc=Truncation(1.0, 0.5, 20.0))


def test_d01_lower_bound_interval(interval_128):
    out = d01_lower_bound_check(interval_128, trunc=Truncation(1e-2, 10.0, 20.0))
    assert out["pass"]
    assert out["simplified_integral"] <= out["gap"] + 1e-3


def test_truncation_validation():
    with pytest.raises(ValidationError):
        Truncation(-1.0, 10.0, 20.0).validate()
    with pytest.raises(ValidationError):
        Truncation(1.0, 0.5, 20.0).validate()
    for bad in (Truncation(1e-3, np.inf, 20.0), Truncation(1e-3, 10.0, np.inf),
                Truncation(np.nan, 10.0, 20.0)):
        with pytest.raises(ValidationError):
            bad.validate()


# ---------------- analytic gradients ----------------


def test_smoothed_sine_mode_x_derivative():
    # basis frequencies k pi / (2 h) only: the mode must vanish at both ends
    s = np.array([1e-4, 1e-3, 0.3, 100.0])[None, :]
    xs = np.linspace(-2.0, 2.5, 11)[:, None]
    for k in (1, 6, 32):
        omega = k * np.pi / 2.0
        value, dx = smoothed_sine_mode(xs, s, omega, 0.2, 1.0)
        assert np.array_equal(value, smoothed_sine_mode(xs, s, omega, 0.2, 1.0)[0])
        fd = (smoothed_sine_mode(xs + FD_STEP, s, omega, 0.2, 1.0)[0]
              - smoothed_sine_mode(xs - FD_STEP, s, omega, 0.2, 1.0)[0]) / (2 * FD_STEP)
        assert_gradient_matches(dx, fd)


def test_smoothed_sine_mode_takes_scalars():
    # every argument a scalar: a 0-d result equal to that of the one-point
    # array call, in reach of the edges and out of it
    for x in (0.3, 30.3):
        got = smoothed_sine_mode(x, 0.1, np.pi / 2, 0.0, 1.0)
        ref = smoothed_sine_mode(np.array([x]), 0.1, np.pi / 2, 0.0, 1.0)
        for g, r in zip(got, ref):
            assert np.ndim(g) == 0 and np.array_equal(g, r[0])


@pytest.mark.parametrize("xs", [[0.0], [0.9], [0.9, 1.2], [-0.9, 0.0, 0.9]],
                         ids=["none", "one-edge", "one-edge-two-points", "both-edges"])
def test_every_wofz_call_goes_through_the_module_attribute(xs, monkeypatch):
    # the traced steklov.wofz_calls and wofz_evals wrap steklov.wofz: a name
    # bound elsewhere (scipy's wofz imported into _scaled_erf) would bypass
    # it. At s = 1e-3 an edge is in reach within 6.7 * 2 sqrt(s) = 0.42 of it
    original = steklov.wofz
    sizes = []

    def counting(z, out=None):
        sizes.append(np.size(z))
        return original(z, out=out)

    monkeypatch.setattr(steklov, "wofz", counting)
    xs, s = np.array(xs), 1e-3
    smoothed_sine_mode(xs, s, np.pi / 2, 0.0, 1.0)
    near = [np.abs(r) < 6.7 * 2 * np.sqrt(s) for r in (1.0 - xs, -1.0 - xs)]
    assert sizes == [int(n.sum()) for n in near if n.any()]


def test_engine_gradient_matches_central_differences_1d(interval_32):
    engine = ExtensionEngine(interval_32.basis)
    rows = interval_32.coefficients[:3]
    xs = np.array([-1.3, -0.7, 0.0, 0.45, 0.9, 1.6])
    h = FD_STEP
    g = engine.values(rows, [xs], TIMES)
    assert g.shape == (3, 3, xs.size, TIMES.size)

    def vals(a, ts=TIMES):
        return engine.values(rows, [a], ts)[:, 0]

    assert np.array_equal(g[:, 0], vals(xs))
    dx = (vals(xs + h) - vals(xs - h)) / (2 * h)
    dt = (vals(xs, TIMES + h) - vals(xs, TIMES - h)) / (2 * h)
    assert_gradient_matches(g[:, 1], dx)
    assert_gradient_matches(g[:, 2], dt)


def test_engine_gradient_matches_central_differences_rect(rect_8):
    engine = ExtensionEngine(rect_8.basis)
    rows = rect_8.coefficients[:2]
    x1, x2 = np.array([-2.5, -1.0, 0.3, 1.9]), np.array([-0.5, 0.1, 0.8, 1.4])
    h = FD_STEP
    g = engine.values(rows, (x1, x2), TIMES)
    assert g.shape == (2, 4, x1.size, x2.size, TIMES.size)

    def vals(a, b, ts=TIMES):
        return engine.values(rows, (a, b), ts)[:, 0]

    assert_gradient_matches(g[:, 1], (vals(x1 + h, x2) - vals(x1 - h, x2)) / (2 * h))
    assert_gradient_matches(g[:, 2], (vals(x1, x2 + h) - vals(x1, x2 - h)) / (2 * h))
    assert_gradient_matches(g[:, 3], (vals(x1, x2, TIMES + h) - vals(x1, x2, TIMES - h)) / (2 * h))


def test_ratio_field_quotient_rule(interval_32):
    w = extend_ratio(interval_32, 2)
    xs = np.array([-0.8, -0.2, 0.35, 0.95])
    h = FD_STEP
    g = w.values_and_grad([xs], TIMES)
    assert np.allclose(g[0], w.values([xs], TIMES), rtol=1e-14, atol=0.0)
    dx = (w.values([xs + h], TIMES) - w.values([xs - h], TIMES)) / (2 * h)
    assert_gradient_matches(g[1], dx)
    assert_gradient_matches(g[2], (w.values([xs], TIMES + h) - w.values([xs], TIMES - h)) / (2 * h))


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
    # and values, the value plane of the same pass
    with pytest.raises(ValidationError):
        ext.values(np.array([0.0]), ts)


def test_q_functional_needs_a_basis(interval_32):
    one = ConstantField(1)
    with pytest.raises(ValidationError):
        q_functional(one, one, one)
    with pytest.raises(ValidationError):  # the weight is u_1^2, not a ratio squared
        q_functional(one, one, extend_ratio(interval_32, 2))


def test_extensions_beyond_two_dimensions_unsupported():
    # the engine's mode sums and the energy tail constants stop at d = 2
    from stablegap import UnsupportedConfigurationError

    result = solve_spectrum(Domain.product(*[[(-1.0, 1.0)]] * 3), 1.0, 2)
    for call in (lambda: extend(result, 2), lambda: extend_ratio(result, 2),
                 lambda: gap_identity_check(result), lambda: ground_state_domination_check(result),
                 lambda: ExtensionEngine(result.basis)):
        with pytest.raises(UnsupportedConfigurationError, match="d <= 2"):
            call()


def test_star_mode_default_needs_x1_symmetric_domain():
    # (0, 2) has no x1-antisymmetric mode, so there is no default mode n
    result = solve_spectrum(Domain.interval(0.0, 2.0), 1.0, 8)
    assert result.star_index is None
    for check in (gap_identity_check, d01_lower_bound_check):
        with pytest.raises(ValidationError):
            check(result)


def test_extend_mode_out_of_range(interval_32, rect_8):
    for n in (0, -1, len(interval_32.coefficients) + 1):
        with pytest.raises(ValidationError):
            extend(interval_32, n)
        with pytest.raises(ValidationError):
            gap_identity_check(interval_32, n)
    with pytest.raises(ValidationError):  # lambda_1 - lambda_1 = 0
        gap_identity_check(interval_32, 1)
    for check in (extend, extend_ratio, gap_identity_check):
        with pytest.raises(ValidationError):
            check(interval_32, 2.5)
    # numpy integers name modes like ints
    xs = np.array([-0.5, 0.2])
    for make in (extend, extend_ratio):
        assert np.array_equal(make(interval_32, np.int64(2)).values([xs], TIMES),
                              make(interval_32, 2).values([xs], TIMES))
    # the boundary derivative takes one point of the domain's dimension
    with pytest.raises(ValidationError):
        check_boundary_derivative(interval_32, 1, (0.1, 0.2))
    with pytest.raises(ValidationError):
        check_boundary_derivative(rect_8, 1, 0.1)


@pytest.mark.parametrize("n", [1.5, 2.0, True, np.True_], ids=["1.5", "2.0", "True", "np.True_"])
def test_mode_number_is_an_integer_and_not_a_bool(interval_32, n):
    # a float indexes no mode, and a bool is an Integral that counts nothing
    for mode in (interval_32.eigenfunction, lambda n: extend(interval_32, n)):
        with pytest.raises(ValidationError, match="integer"):
            mode(n)


@pytest.mark.parametrize("h", [0.0, -1e-3, np.nan, np.inf])
def test_finite_difference_step_is_finite_and_positive(interval_32, h):
    with pytest.raises(ValidationError, match="step"):
        check_harmonic(extend(interval_32, 1), 0.0, 1.0, h=h)
    with pytest.raises(ValidationError, match="step"):
        check_boundary_derivative(interval_32, 1, 0.0, h=h)


def test_engine_refuses_a_disk_basis():
    disk = solve_spectrum(Domain.disk(0.0, 0.0, 1.0), 2.0, 6)
    with pytest.raises(ValidationError, match="sine basis"):
        ExtensionEngine(disk.basis)


def test_ratio_field_builds_one_engine(interval_32, monkeypatch):
    # u_2 / u_1 and its gradient come from one engine pass over both modes
    builds = []
    init = ExtensionEngine.__init__

    def counting_init(self, basis):
        builds.append(basis)
        init(self, basis)

    monkeypatch.setattr(ExtensionEngine, "__init__", counting_init)
    extend_ratio(interval_32, 2).values_and_grad([np.array([-0.5, 0.2])], TIMES)
    assert len(builds) == 1


# ---------------- subordination chunks and the sine-mode kernel ----------------


def _old_scaled_erf(r, omega, s):
    # the unfactored expression: one complex exponential over (mode, point, s)
    ra = np.abs(r)
    q_up = (2.0 * omega * s + 1j * ra) / (2.0 * np.sqrt(s))
    E = np.exp(-(omega**2) * s) - np.exp(-(ra**2) / (4.0 * s) + 1j * omega * ra) * wofz(q_up)
    return np.where(r >= 0, E, -np.conj(E))


def test_scaled_erf_matches_unfactored_expression():
    r = np.linspace(-62.0, 62.0, 249)[None, :, None]
    s = np.geomspace(1e-9, 1e12, 43)[None, None, :]
    omega = (np.arange(1, 65) * np.pi / 2)[:, None, None]
    assert np.max(np.abs(_scaled_erf(r, omega, s) - _old_scaled_erf(r, omega, s))) <= 1e-15


def test_scaled_erf_skips_only_weightless_faddeeva_terms(monkeypatch):
    # engine shapes, one chunk of nodes per call: at the points in reach of
    # the edge the value is that of the full evaluation to the bit; elsewhere
    # it is e^(-omega^2 s), off by less than e^(-_A_CUT^2)
    r = np.linspace(-62.0, 62.0, 249)[None, :, None]
    omega = (np.arange(1, 33) * np.pi / 2)[:, None, None]
    bound = np.exp(-steklov._A_CUT**2)
    assert bound <= 2.0**-64
    skipped = 0
    for s in np.split(subordination_grid()[0], 28)[::2]:
        s = s[None, None, :]
        cut = _scaled_erf(r, omega, s)
        with monkeypatch.context() as m:
            m.setattr(steklov, "_A_CUT", np.inf)
            full = _scaled_erf(r, omega, s)
        near = np.abs(r[0, :, 0]) / (2.0 * np.sqrt(s.max())) < steklov._A_CUT
        assert np.array_equal(cut[:, near], full[:, near])
        assert np.array_equal(cut[:, ~near], (np.exp(-(omega**2) * s) * np.sign(r))[:, ~near])
        assert np.max(np.abs(cut - full)) <= bound
        assert np.max(np.abs(cut - _old_scaled_erf(r, omega, s))) <= 1e-15 + bound
        skipped += np.count_nonzero(~near)
    assert skipped > 0


def test_shuffled_points_take_the_sorted_values(interval_32, monkeypatch):
    # on an unsorted point axis the run in reach of an edge, from its first
    # point in reach to its last, also holds points out of reach: they take
    # the Faddeeva term exactly, where the sorted axis skips it
    entries = _count_wofz_entries(monkeypatch)
    x = np.linspace(-3.0, 3.0, 61)
    perm = np.random.default_rng(5).permutation(x.size)
    values, tallies = [], []
    for xs in (x, x[perm]):
        engine = ExtensionEngine(interval_32.basis)
        entries.clear()
        values.append(engine.values(interval_32.coefficients[:3], [xs], TIMES)[:, 0])
        tallies.append(engine.faddeeva_entries.copy())
        assert tallies[-1][0] == sum(entries)
    assert np.max(np.abs(values[1] - values[0][:, perm])) <= np.exp(-steklov._A_CUT**2)
    assert tallies[1][0] > tallies[0][0] and tallies[1].sum() == tallies[0].sum()


@pytest.mark.parametrize("x", [0.3, 40.0])
def test_one_point_is_in_reach_or_not(interval_32, x, monkeypatch):
    # one point, as check_boundary_derivative evaluates: r varies along no
    # axis, so the run is every mode and node of the chunk or none of them
    nodes = subordination_grid()[0]
    i = np.searchsorted(nodes, 0.01) // steklov._S_CHUNK * steklov._S_CHUNK
    s = nodes[i : i + steklov._S_CHUNK][None, None, :]
    omega = (np.arange(1, 17) * np.pi / 2)[:, None, None]
    r = np.full((1, 1, 1), 1.0 - x)
    near = abs(1.0 - x) / (2.0 * np.sqrt(s.max())) < steklov._A_CUT
    assert near == (x < 1.0)
    cut = _scaled_erf(r, omega, s)
    with monkeypatch.context() as m:
        m.setattr(steklov, "_A_CUT", np.inf)
        full = _scaled_erf(r, omega, s)
    assert np.array_equal(cut, full if near else np.exp(-(omega**2) * s) * np.sign(r))
    # the engine's one-point pass: its tally is what wofz saw
    entries = _count_wofz_entries(monkeypatch)
    engine = ExtensionEngine(interval_32.basis)
    assert np.all(np.isfinite(engine.values(interval_32.coefficients[:1], np.array([x]), TIMES)))
    assert engine.faddeeva_entries[0] == sum(entries) and engine.faddeeva_entries[1] > 0
    assert np.isfinite(check_boundary_derivative(interval_32, 2, x))


@pytest.mark.parametrize("case", ["interval_32", "rect_8", "union", "off-centre"])
def test_faddeeva_cut_leaves_the_energies(case, request, monkeypatch):
    # the gap identity's energy and the d01 integral with and without the cut
    if case in ("interval_32", "rect_8"):
        result = request.getfixturevalue(case)
    else:
        domain = (Domain.interval_union(MIRROR_UNIONS[1]) if case == "union"
                  else Domain.interval(-0.5, 1.7))
        result = solve_spectrum(domain, 1.0, 8 if case == "union" else 16)

    entries = _count_wofz_entries(monkeypatch)

    def run():
        checks = [gap_identity_check(result, 2 if result.star_index is None else None)]
        if result.star_index is not None:
            checks.append(d01_lower_bound_check(result))
        return checks

    cut = run()
    # the tally counts what wofz saw, on every window and axis
    assert sum(c["faddeeva_entries"]["evaluated"] for c in cut) == sum(entries)
    monkeypatch.setattr(steklov, "_A_CUT", np.inf)
    full = run()
    assert all(c["faddeeva_entries"]["skipped"] == 0 for c in full)
    assert sum(c["faddeeva_entries"]["skipped"] for c in cut) > 0
    assert [sum(c["faddeeva_entries"].values()) for c in cut] == [
        c["faddeeva_entries"]["evaluated"] for c in full]
    assert cut[0]["rhs"] == pytest.approx(full[0]["rhs"], rel=1e-15, abs=0.0)
    for c, f in zip(cut[1:], full[1:]):
        assert c["simplified_integral"] == pytest.approx(f["simplified_integral"], rel=1e-15, abs=0.0)


def test_2d_mode_sum_takes_the_greedy_path():
    # the path found once from the shapes is the one einsum's optimize=True
    # finds, so the 2D mode sums are the same to the bit
    rng = np.random.default_rng(3)
    C = rng.standard_normal((2, 8, 4))
    factors = [rng.standard_normal((8, 9, 24)), rng.standard_normal((4, 7, 24))]
    assert np.array_equal(steklov._contract(C, factors),
                          np.einsum("fjk,jas,kbs->fabs", C, *factors, optimize=True))


def _time_grids(result):
    """The q_functional and d01_lower_bound_check time rules of a result."""
    trunc = default_truncation(result.domain.dim)
    q_grid = _energy_grid(result.domain, trunc)[1][0]
    d01_grid = log_panels(1e-6, trunc.t_max, panels_per_decade=3, nodes_per_panel=6)[0]
    return {"q": q_grid, "d01": d01_grid}


def _planes(v, grad):
    # the whole value and gradient stack of an engine pass, or with grad False
    # the value plane alone, which the probes and HarmonicExtension.values read
    return v if grad else v[:, 0]


@pytest.mark.parametrize("grad", [False, True])
@pytest.mark.parametrize("grid", ["q", "d01"])
@pytest.mark.parametrize("case", ["interval_32", "rect_8"])
def test_skipped_chunks_leave_engine_values_unchanged(case, grid, grad, request, monkeypatch):
    result = request.getfixturevalue(case)
    if result.domain.dim == 1:
        xs = [np.array([-1.3, -0.7, 0.0, 0.45, 0.9, 1.6])]
    else:
        xs = (np.array([-2.5, -1.0, 0.3, 1.9]), np.array([-0.5, 0.1, 0.8, 1.4]))
    ts = _time_grids(result)[grid]
    engine = ExtensionEngine(result.basis)
    rows = result.coefficients[:3]
    floor, by_workers = steklov._WEIGHT_FLOOR, []
    for workers in (1, 2):  # the serial pass, and in 1D the threaded one
        monkeypatch.setattr(steklov, "_cpu_count", lambda: workers)
        monkeypatch.setattr(steklov, "_WEIGHT_FLOOR", floor)
        trimmed = _planes(engine.values(rows, xs, ts), grad)
        monkeypatch.setattr(steklov, "_WEIGHT_FLOOR", 0.0)  # every chunk
        assert len(_live_chunks(engine._time_weights(ts))) == 28
        assert np.array_equal(trimmed, _planes(engine.values(rows, xs, ts), grad))
        by_workers.append(trimmed)
    assert np.array_equal(*by_workers)


def test_threaded_pass_leaves_no_threads(interval_32, monkeypatch):
    pools = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(steklov, "_cpu_count", lambda: 2)
    monkeypatch.setattr(steklov, "ThreadPoolExecutor", CountingPool)
    before = threading.active_count()
    gap_identity_check(interval_32, trunc=Truncation(1e-2, 10.0, 20.0))
    assert pools  # the energy grid went to the threads
    assert threading.active_count() == before


def test_threaded_pass_with_more_workers_than_cores(interval_32, monkeypatch):
    engine = ExtensionEngine(interval_32.basis)
    rows, xs = interval_32.coefficients[:3], [np.linspace(-1.5, 1.5, 37)]
    ts = _time_grids(interval_32)["d01"]
    monkeypatch.setattr(steklov, "_cpu_count", lambda: 1)
    serial = engine.values(rows, xs, ts)
    monkeypatch.setattr(steklov, "_cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = engine.values(rows, xs, ts)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(serial, threaded)


def test_1d_time_contractions_run_in_one_thread_blocks(interval_32, rect_8, monkeypatch):
    # per _time_contract call: its (rows, ns, nt) and the (m, k, n) of each
    # product it makes; phase 2 runs in the calling thread alone
    calls = []
    time_contract, gemm = steklov._time_contract, steklov._gemm

    def recording_time_contract(M, G, split):
        calls.append((M.size // M.shape[-1], *G.T.shape, []))
        return time_contract(M, G, split)

    def recording_gemm(a, b, out):
        calls[-1][-1].append((*a.shape, b.shape[1]))
        gemm(a, b, out)

    monkeypatch.setattr(steklov, "_time_contract", recording_time_contract)
    monkeypatch.setattr(steklov, "_gemm", recording_gemm)
    gap_identity_check(interval_32)
    assert calls and any(len(products) > 1 for *_, products in calls)
    for rows, k, n, products in calls:
        assert sum(m for m, *_ in products) == rows
        assert all((kk, nn) == (k, n) for _, kk, nn in products)
        # OpenBLAS keeps a gemm of at most 2^18 multiply-adds on one thread
        assert all(m * k * n <= 1 << 18 for m, *_ in products)
        assert all(m > 1 for m, *_ in products) or rows == 1  # one row: gemv
    calls.clear()
    ExtensionEngine(interval_32.basis).values(interval_32.coefficients[:1], [0.3], TIMES)
    assert calls and all(products == [(1, 24, TIMES.size)] for *_, products in calls)
    # a 2D pass keeps one product per chunk term
    calls.clear()
    xs = (np.linspace(-3.0, 3.0, 40), np.linspace(-1.5, 1.5, 30))
    ts = _time_grids(rect_8)["q"]
    ExtensionEngine(rect_8.basis).values(rect_8.coefficients[:2], xs, ts)
    assert calls and all(products == [(rows, k, n)] for rows, k, n, products in calls)
    assert max(rows * k * n for rows, k, n, _ in calls) > 1 << 18


@pytest.mark.parametrize("case", ["interval_32", "interval_128"])
def test_1d_mode_sums_run_in_one_thread_blocks(case, rect_8, request, monkeypatch):
    # per _contract call of a 1D pass: its (rows, modes, columns) and the
    # (m, k, n) of each product it makes, in whole points of 24 nodes
    result = request.getfixturevalue(case)
    calls, products = [], []
    contract, mode_product = steklov._contract, steklov._mode_product

    def recording_contract(C, factors):
        out = contract(C, factors)
        if len(factors) == 1:
            calls.append((*C.shape, out[0].size))
        return out

    def recording_mode_product(a, b, out):
        products.append((*a.shape, b.shape[1]))  # atomic across the worker threads
        mode_product(a, b, out)

    monkeypatch.setattr(steklov, "_contract", recording_contract)
    monkeypatch.setattr(steklov, "_mode_product", recording_mode_product)
    gap_identity_check(result)
    assert calls and len(products) > len(calls)
    assert sum(n for *_, n in products) == sum(n for *_, n in calls)
    assert all(n % steklov._S_CHUNK == 0 for *_, n in products)
    for m, k, n in products:
        # OpenBLAS keeps a gemv (one row) of fewer than 9216 multiply-adds,
        # and a gemm of at most 2^18, on one thread
        assert k * n < 9216 if m == 1 else m * k * n <= 1 << 18
    # a 2D pass makes its mode sums with einsum
    products.clear()
    xs = (np.linspace(-3.0, 3.0, 12), np.linspace(-1.5, 1.5, 10))
    ExtensionEngine(rect_8.basis).values(rect_8.coefficients[:2], xs, TIMES)
    assert products == []


@pytest.mark.parametrize("rows, nt, blocks", [
    (216, 216, [24, 48, 48, 48, 48]),
    (216, 108, [72, 72, 72]),
    (40, 276, [24, 16]),
    (40, 138, [40]),
    (100, 216, [24, 48, 28]),  # a partial tile at the end
    (49, 276, [24, 25]),  # a one-row tail joins the block before it
])
def test_blocked_time_contraction_is_bit_identical(rows, nt, blocks):
    # the first four are the gap-check shapes at n = 32: rows x 24 nodes
    # against 24 x nt time weights
    rng = np.random.default_rng(rows + nt)
    M, G = rng.standard_normal((rows, 24)), rng.standard_normal((nt, 24))
    assert [b.stop - b.start for b in steklov._row_blocks(rows, G.size)] == blocks
    single = steklov._time_contract(M, G, False)
    assert np.array_equal(single, M @ G.T)
    assert np.array_equal(steklov._time_contract(M, G, True), single)


def test_small_and_single_cpu_passes_build_no_pool(interval_32, rect_8, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was built")

    monkeypatch.setattr(steklov, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(steklov, "_cpu_count", lambda: 2)
    assert np.isfinite(check_boundary_derivative(interval_32, 2, 0.3))
    assert np.isfinite(check_harmonic(extend(interval_32, 2), 0.3, 0.5))
    # a 2D pass keeps one thread however large: this one is over 3x _PARALLEL_ENTRIES
    ts = _time_grids(rect_8)["q"]
    xs = (np.linspace(-3.0, 3.0, 40), np.linspace(-1.5, 1.5, 30))
    v = ExtensionEngine(rect_8.basis).values(rect_8.coefficients[:2], xs, ts)
    assert v.shape == (2, 4, 40, 30, ts.size)
    monkeypatch.setattr(steklov, "_cpu_count", lambda: 1)
    ts = _time_grids(interval_32)["q"]
    v = ExtensionEngine(interval_32.basis).values(interval_32.coefficients[:2],
                                                  [np.linspace(-2.0, 2.0, 50)], ts)
    assert v.shape == (2, 3, 50, ts.size)


@pytest.mark.parametrize("grad", [False, True])
def test_window_split_matches_per_mode_evaluation(grad):
    union = solve_spectrum(Domain.interval_union([(-2.0, -0.5), (0.5, 2.0)]), 1.0, 16)
    (table,) = union.basis.tables
    c, h, _, om = table
    windows = steklov._window_table(table, np.arange(c.size))
    assert len(windows) == 2
    x = np.linspace(-2.5, 2.5, 41)
    s = np.geomspace(1e-9, 1e3, 24)[None, None, :]
    split = steklov._axis_modes(x, s, windows)
    # one call with per-mode centres and halves, broadcast over all modes
    args = (x[None, :, None], s, om[:, None, None], c[:, None, None], h[:, None, None])
    whole = smoothed_sine_mode(*args)
    # grad False: the values alone, as the value plane reads them
    pick = slice(None) if grad else slice(1)
    assert np.array_equal(np.asarray(split[pick]), np.asarray(whole[pick]))


def test_live_chunk_counts(interval_32):
    engine = ExtensionEngine(interval_32.basis)
    grids = _time_grids(interval_32)
    chunks = {k: _live_chunks(engine._time_weights(ts)) for k, ts in grids.items()}
    assert engine.s_nodes.size == 28 * steklov._S_CHUNK
    assert (len(chunks["q"]), len(chunks["d01"])) == (21, 27)
    # a single small height keeps the decade s in [1e-15, 1e-14] and drops the one below
    first = _live_chunks(engine._time_weights(np.array([1e-6])))[0]
    assert 1e-15 < engine.s_nodes[first][0] < engine.s_nodes[first][-1] < 1e-14
    # t = 0 is no height of the half-space: it has no weights
    with pytest.raises(ValidationError):
        engine._time_weights(np.array([0.0]))


@pytest.mark.parametrize("case", ["interval_32", "rect_8"])
def test_zero_row_has_a_zero_extension(case, request, monkeypatch):
    # a row with no live mode is a group of its own, with no mode to evaluate
    result = request.getfixturevalue(case)
    xs = [np.linspace(-1.5, 1.5, 7)] if result.domain.dim == 1 else (np.linspace(-3, 3, 5),) * 2
    engine = ExtensionEngine(result.basis)
    rows = np.vstack([np.zeros(result.basis.size), result.coefficients[0]])
    both, alone = (engine.values(r, xs, TIMES) for r in (rows, rows[1:]))
    assert not np.any(both[0]) and np.array_equal(both[1:], alone)
    # its group skips the pass: no Faddeeva entry is evaluated or tallied
    entries = _count_wofz_entries(monkeypatch)
    zero = ExtensionEngine(result.basis)
    assert not np.any(zero.values(rows[:1], xs, TIMES))
    assert entries == [] and not np.any(zero.faddeeva_entries)


@pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan, np.inf])
def test_every_height_is_finite_and_positive(interval_32, bad):
    # one check on heights for the engine and every field sampler: t = 0 is
    # the boundary, whose values are the eigenfunctions themselves
    x, ts = np.array([0.0]), np.array([bad, 0.5])
    ext = extend(interval_32, 1)
    calls = [lambda: ExtensionEngine(interval_32.basis).values(interval_32.coefficients[:1], x, ts),
             lambda: ext.values(x, ts), lambda: ext.values_and_grad(x, ts),
             lambda: ConstantField(1).values(x, ts),
             lambda: ConstantField(1).values_and_grad(x, ts),
             lambda: ground_state_domination_check(interval_32, x, ts)]
    for call in calls:
        with pytest.raises(ValidationError, match="finite and > 0"):
            call()


def test_every_point_axis_is_nonempty(interval_32, rect_8):
    # an empty axis leaves the engine no entries to batch its chunks by
    calls = [(lambda: extend(interval_32, 1).values([np.array([])], [0.5]), "x1"),
             (lambda: extend(rect_8, 1).values((np.array([0.3]), np.array([])), [0.5]), "x2"),
             (lambda: ground_state_domination_check(interval_32, xs=[[]]), "x1")]
    for call, axis in calls:
        with pytest.raises(ValidationError, match=f"point axis {axis} is empty"):
            call()


@pytest.mark.parametrize("case", ["interval_32", "rect_8"])
def test_values_are_the_value_plane_of_values_and_grad(case, request):
    # to the bit, for an extension and a ratio: at one point and height,
    # where the contraction is one-row products, and on a grid
    result = request.getfixturevalue(case)
    for x, ts in ((np.array([0.3]), np.array([1e-3])), (np.linspace(-1.5, 1.5, 13), TIMES)):
        xs = [x] if result.domain.dim == 1 else (x, 0.5 * x)
        for field in (extend(result, 1), extend_ratio(result, 2)):
            assert np.array_equal(field.values(xs, ts), field.values_and_grad(xs, ts)[0])


# ---------------- mirror folds: half of each symmetric axis, then reflect ----------------


def _assert_mirror_exact(x, w):
    assert np.array_equal(x[::-1], -x) and np.array_equal(w[::-1], w)


@pytest.mark.parametrize("case", ["interval_domain", "rect_domain"])
def test_energy_rules_are_mirror_exact(case, request):
    domain = request.getfixturevalue(case)
    x_rules, _ = _energy_grid(domain, default_truncation(domain.dim))
    # the d01_lower_bound_check rules of both dimensions; np.linspace alone
    # gives 11 edges on (-1, 1) that are not antisymmetric to the last bit
    for panels, nodes in ((16, 5), (10, 4)):
        x_rules += axis_rules(domain, panels, nodes)
    for x, w in x_rules:
        _assert_mirror_exact(x, w)
    # and the probe grids of the pointwise checks, which carry no weights
    for x in steklov.default_field_grid(domain)[0]:
        assert np.array_equal(x[::-1], -x)


@pytest.mark.parametrize("x_max", [1.2, 1.5, 3.0, 60.0])
def test_energy_grid_spans_the_truncation_box(interval_domain, x_max):
    ((x, w),), _ = _energy_grid(interval_domain, Truncation(1e-3, 30.0, x_max))
    assert np.sum(w) == pytest.approx(2 * x_max, rel=1e-13)
    assert -x_max < x.min() and x.max() < x_max
    _assert_mirror_exact(x, w)


@pytest.mark.parametrize("x_max", [0.5, 1.0])
def test_energy_grid_rejects_a_box_inside_the_domain(interval_domain, x_max):
    with pytest.raises(ValidationError):
        _energy_grid(interval_domain, Truncation(1e-3, 30.0, x_max))


def _full_rules(rules, fields):
    # the half-rule helper patched out: every axis keeps all of its points
    return list(rules)


def _conditioned(v, ts, grad):
    # with grad=True, t du/dt for du/dt: at small t the d/dt sum cancels
    # weights of size 1/t, so its rounding grows as 1/t
    if grad:
        v = v.copy()
        v[:, -1] *= ts
    return v


def _mirrored(v, parities, grad):
    # v (rows, [terms,] n_1, ..., n_d, times) reflected on every grid axis,
    # times each row's parity there; d/dx_i takes the opposite parity on axis i
    lead = 2 if grad else 1
    for i in range(parities.shape[1]):
        sign = parities[:, i].astype(float).reshape((-1,) + (1,) * (v.ndim - 1))
        if grad:
            sign = np.repeat(sign, v.shape[1], axis=1)
            sign[:, 1 + i] *= -1
        v = np.flip(v, lead + i) * sign
    return v


@pytest.mark.parametrize("grad", [False, True])
@pytest.mark.parametrize(
    "case, points",
    [("interval_32", 33), ("rect_8", 33), ("interval_32", 32), ("rect_8", 32)],
    ids=["interval_32", "rect_8", "interval_32-even", "rect_8-even"],
)
def test_folded_pass_matches_unfolded_pass(case, points, grad, request, monkeypatch):
    # the engine on the second half of a mirror grid (what _half_rules keeps)
    # against the whole grid: point i the mirror of point n - 1 - i on each
    # axis, 0 among them when n is odd, no point at the centre when n is even
    result = request.getfixturevalue(case)
    axes = [mirror_linspace(-1.6 * hi, 1.6 * hi, points)
            for _, hi in result.domain.bounding_box()]
    half = [x for x, _ in steklov._half_rules([(x, None) for x in axes], (extend(result, 1),))]
    assert [x.size for x in half] == [points - points // 2] * len(axes)
    ts = _time_grids(result)["d01"]
    engine = ExtensionEngine(result.basis)
    # the ground state (even), the star mode (odd in x1) and mode 3
    modes = [1, result.star_index, 3]
    parities = np.array([steklov._mirror_parity(result, n) for n in modes])
    assert np.all(parities != 0)
    rows = result.coefficients[[n - 1 for n in modes]]
    by_workers = []
    for workers in (1, 2):  # the serial pass, and in 1D the threaded one
        monkeypatch.setattr(steklov, "_cpu_count", lambda: workers)
        whole = _planes(engine.values(rows, axes, ts), grad)
        kept = _planes(engine.values(rows, half, ts), grad)
        # the whole pass is even or odd to rounding: its first half computes
        # the mirrored mode phases at -u, which round apart from those at u
        w, m = (_conditioned(v, ts, grad) for v in (whole, _mirrored(whole, parities, grad)))
        assert np.max(np.abs(w - m)) <= 1e-14 * np.max(np.abs(w))
        # and the half pass is the whole pass's second half, to BLAS rounding
        # (products over fewer points can round apart)
        kept_points = tuple(slice(x.size // 2, None) for x in axes)
        second = whole[(slice(None),) * (2 if grad else 1) + kept_points]
        k, s = (_conditioned(v, ts, grad) for v in (kept, second))
        assert np.max(np.abs(k - s)) <= 1e-14 * np.max(np.abs(s))
        by_workers.append(kept)
    assert np.array_equal(*by_workers)


@pytest.mark.parametrize(
    "domain, n, case",
    [
        (Domain.interval(-1.0, 1.0), 32, "mixed"),
        (Domain.interval(-1.0, 1.0), 32, "permuted"),
        (Domain.interval(-0.5, 1.7), 16, None),
        # mirrored only to within geometry's tolerance: the solve takes it as
        # x1-symmetric, but the component centres are no exact mirrors
        (Domain.interval_union([(-2.0, -0.5), (0.5 + 1e-13, 2.0)]), 8, None),
        (Domain.rectangle(0.0, 3.0, -1.0, 0.5), 6, None),
    ],
    ids=["mixed-rows", "permuted-mirror-grid", "off-centre", "union", "off-centre-rect"],
)
@pytest.mark.parametrize("grad", [False, True])
def test_unfolded_cases_match_the_unfolded_pass(domain, n, case, grad, monkeypatch):
    # the quadratures and probes that keep every point: grad=True the energy
    # of u_2/u_1 (q_functional), grad=False the domination margin of u_1
    result = solve_spectrum(domain, 1.0, n)
    if case == "mixed":  # a ground state row that is neither even nor odd: u_1 + u_2
        coefficients = result.coefficients.copy()
        coefficients[0] += coefficients[1]
        result = dataclasses.replace(result, coefficients=coefficients)
    rules = _energy_grid(domain, default_truncation(domain.dim))[0]
    if case == "permuted":  # closed under x -> -x, but i not the mirror of n - 1 - i
        rules = [(x[p], w[p]) for (x, w), p in
                 ((rule, np.random.default_rng(5).permutation(rule[0].size)) for rule in rules)]
    w, u1 = extend_ratio(result, 2), extend(result, 1)
    fields = (w, w, u1, u1) if grad else (u1,)
    if not grad:  # the probe grids carry no weights
        rules = [(x, None) for x, _ in rules]
    cut = steklov._half_rules(rules, fields)
    assert all(c is r[0] for (c, _), r in zip(cut, rules))

    def run():
        if grad and case != "permuted":  # q_functional takes no grid
            q = q_functional(w, w, u1)
            return q.value, q.tail_bound, q.diagnostics["halved_axes"], q.diagnostics["grid_shape"]
        if not grad:
            return ground_state_domination_check(result, [x for x, _ in rules])

    checked = run()
    with monkeypatch.context() as m:
        m.setattr(steklov, "_half_rules", _full_rules)
        assert run() == checked
    if grad and case != "permuted":
        assert checked[2] == [False] * domain.dim


def _count_wofz_entries(monkeypatch):
    # the Faddeeva entries evaluated from here on, one list item per call
    entries = []

    def counting_wofz(z, out=None):
        entries.append(np.size(z))  # list.append is atomic across the worker threads
        return wofz(z, out=out)

    monkeypatch.setattr(steklov, "wofz", counting_wofz)
    return entries


def test_gap_check_halves_the_faddeeva_entries(interval_32, monkeypatch):
    entries = _count_wofz_entries(monkeypatch)
    counts, tallies = [], []
    for workers, half, cut in ((1, steklov._half_rules, steklov._A_CUT),
                               (2, steklov._half_rules, steklov._A_CUT),
                               (1, _full_rules, steklov._A_CUT),
                               (1, steklov._half_rules, np.inf), (1, _full_rules, np.inf)):
        monkeypatch.setattr(steklov, "_cpu_count", lambda: workers)
        monkeypatch.setattr(steklov, "_half_rules", half)
        monkeypatch.setattr(steklov, "_A_CUT", cut)
        entries.clear()
        tallies.append(gap_identity_check(interval_32)["faddeeva_entries"])
        counts.append(sum(entries))
    one, two, full, one_all, full_all = counts
    assert one == two
    # the engine's tally is what wofz saw, and it skipped the rest of the entries
    assert [t["evaluated"] for t in tallies] == counts
    assert [t["evaluated"] + t["skipped"] for t in tallies] == [one_all, one_all, full_all,
                                                                one_all, full_all]
    # the rules themselves: the chunks of 24 subordination nodes where some
    # node carries 1e-16 of the largest value or d/dt weight at some time;
    # in each, both edge offsets r = +-1 - x of the points x whose
    # a = |r| / (2 sqrt s) at the chunk's largest node s is below the cut;
    # each row with the modes of its parity (u* odd, u1 even): 32 in all
    ((x, _),), (tq, _) = _energy_grid(interval_32.domain, default_truncation(1))
    rows = interval_32.coefficients[[interval_32.star_index - 1, 0]]
    assert np.count_nonzero(rows) == 32 and not np.any((rows[0] != 0) & (rows[1] != 0))
    s, sw = subordination_grid()
    g = subordinator_density_half(tq[:, None], s[None, :]) * sw
    weighty = np.zeros(s.size, dtype=bool)
    for a in (np.abs(g), np.abs(g * (1.0 / tq[:, None] - tq[:, None] / (2.0 * s)))):
        top = a.max(axis=1, keepdims=True)
        weighty |= np.any((a >= 1e-16 * top) & (top > 0), axis=0)
    tops = [s[i : i + 24].max() for i in range(0, s.size, 24) if weighty[i : i + 24].any()]

    def rule(points):
        return 32 * 24 * sum(np.count_nonzero(np.abs(edge - points) / (2.0 * np.sqrt(top)) < 6.7)
                             for top in tops for edge in (1.0, -1.0))

    assert full_all == 2 * x.size * 32 * 24 * len(tops)
    assert (full, one) == (rule(x), rule(x[x.size // 2 :]))
    assert one_all <= 0.51 * full_all and one <= 0.51 * full
    # the cut skips more than 30% of the entries of the centred pass
    assert one <= 0.70 * one_all


def test_interval_gap_faddeeva_tally(interval_32, monkeypatch):
    # the gap identity and d01 passes of the interval gap check: the same
    # tallies on one engine thread and on two, and at most 5.7M entries
    tallies = []
    for workers in (1, 2):
        monkeypatch.setattr(steklov, "_cpu_count", lambda: workers)
        tallies.append([check(interval_32)["faddeeva_entries"]
                        for check in (gap_identity_check, d01_lower_bound_check)])
    assert tallies[0] == tallies[1]
    assert sum(t["evaluated"] for t in tallies[0]) <= 5.7e6


@pytest.mark.parametrize("mode", [3, 5])
def test_rect_gap_check_folds_every_pair(rect_8, mode, monkeypatch):
    # modes 3 and 5 with mode 1: every row of the pass is pure in x1 and in
    # x2 parity, so the energy and d01 grids are cut on both axes
    entries = _count_wofz_entries(monkeypatch)
    cuts, counts = [], []
    half_rules = steklov._half_rules

    def recording_half_rules(rules, fields):
        cut = half_rules(rules, fields)
        cuts.append([c[0].size < r[0].size for c, r in zip(cut, rules)])
        return cut

    for half in (recording_half_rules, _full_rules):
        monkeypatch.setattr(steklov, "_half_rules", half)
        entries.clear()
        gap_identity_check(rect_8, mode)
        d01_lower_bound_check(rect_8)
        counts.append(sum(entries))
    assert cuts == [[True, True]] * 2
    # a 2D pass evaluates each axis's modes at that axis's points: half of
    # the points of both axes is half of the entries
    halved, full = counts
    assert halved <= 0.51 * full


# ---------------- the half rules against the full rules ----------------


@pytest.mark.parametrize("case, mode", [("interval_32", None), ("rect_8", None),
                                        ("rect_8", 3), ("rect_8", 5)])
def test_half_rules_match_the_full_rules(case, mode, request, monkeypatch):
    result = request.getfixturevalue(case)
    mode = result.star_index if mode is None else mode

    def run():
        w, u1 = extend_ratio(result, mode), extend(result, 1)
        q = q_functional(w, w, u1)
        return (q, d01_lower_bound_check(result)["simplified_integral"],
                ground_state_domination_check(result))

    half, d01_half, margin_half = run()
    monkeypatch.setattr(steklov, "_half_rules", _full_rules)
    full, d01_full, margin_full = run()
    assert half.value == pytest.approx(full.value, rel=1e-14, abs=0.0)
    assert d01_half == pytest.approx(d01_full, rel=1e-14, abs=0.0)
    # the envelope constant is fitted where the integrand is near its rounding
    # floor, and the full rule evaluates the first half's rounding afresh
    assert half.tail_bound == pytest.approx(full.tail_bound, rel=1e-10, abs=0.0)
    # the domination margin, a minimum over the kept points: the mirrored
    # points differ by rounding alone
    assert margin_half == pytest.approx(margin_full, rel=1e-13, abs=0.0)
    assert half.n_x == full.n_x
    assert half.diagnostics["halved_axes"] == [True] * result.domain.dim
    assert full.diagnostics["halved_axes"] == [False] * result.domain.dim
    shape, full_shape = half.diagnostics["grid_shape"], full.diagnostics["grid_shape"]
    assert shape[-1] == full_shape[-1] == half.n_t
    assert shape == tuple(n - n // 2 for n in full_shape[:-1]) + (half.n_t,)


MIRROR_UNIONS = [[(-2.3, -0.7), (0.7, 2.3)], [(-2.0, -0.5), (0.5, 2.0)],
                 [(-3.1, -1.3), (-0.4, 0.4), (1.3, 3.1)]]


@pytest.mark.parametrize("comps", MIRROR_UNIONS, ids=["wide-gap", "gap-1", "three"])
def test_union_rules_are_mirror_exact(comps):
    # a left component is its mirror's points negated and reversed: one
    # np.linspace per component left the pairs apart in the last bit, so the
    # d01 rule (16 panels of 5) was not closed under x -> -x and no half rule
    # could cut it
    domain = Domain.interval_union(comps)
    for panels, nodes in ((16, 5), (24, 4), (24, 6)):
        ((x, w),) = axis_rules(domain, panels, nodes)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def test_union_rules_keep_single_components_bit_identical():
    # one component keeps the panel rule on its own linspace
    for a, b in ((-0.5, 1.7), (-1.0, 1.0), (0.7, 2.3)):
        ((x, w),) = axis_rules(Domain.interval(a, b), 16, 5)
        ((x0, w0),) = [panel_gauss(mirror_linspace(a, b, 17), 5)]
        assert np.array_equal(x, x0) and np.array_equal(w, w0)


def test_union_d01_and_probes_are_halved(monkeypatch):
    # on an exact mirror union the d01 rule and the domination probe's axis
    # are cut to their second half, and give the full rules' values to rounding
    result = solve_spectrum(Domain.interval_union(MIRROR_UNIONS[0]), 1.0, 8)
    half_rules, cuts = steklov._half_rules, []

    def recording_half_rules(rules, fields):
        cut = half_rules(rules, fields)
        cuts.append([c[0].size < r[0].size for c, r in zip(cut, rules)])
        return cut

    def run():
        return [d01_lower_bound_check(result)["simplified_integral"],
                ground_state_domination_check(result)]

    monkeypatch.setattr(steklov, "_half_rules", recording_half_rules)
    half = run()
    assert cuts == [[True]] * 2
    monkeypatch.setattr(steklov, "_half_rules", _full_rules)
    assert half == pytest.approx(run(), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("domain, n, value", [
    (Domain.interval(-0.5, 1.7), 16, 1.456176104247933),
    (Domain.rectangle(0.0, 3.0, -1.0, 0.5), 6, 0.7255928034119701),
    (Domain.interval(-1.0, 1.0 + 1e-13), 16, 1.6010391991745805),
    (Domain.interval_union([(-2.0, -0.5), (0.5 + 1e-13, 2.0)]), 8, 0.15218673583848408),
], ids=["off-centre", "off-centre-rect", "near-symmetric", "near-symmetric-union"])
def test_unhalved_energies_keep_their_values(domain, n, value):
    # windows that are no exact mirrors about 0 keep the full rule, and the
    # energy of u_2/u_1 its full-rule value, pinned from a pass without half rules
    result = solve_spectrum(domain, 1.0, n)
    q = q_functional(extend_ratio(result, 2), extend_ratio(result, 2), extend(result, 1))
    assert q.diagnostics["halved_axes"] == [False] * domain.dim
    assert q.value == pytest.approx(value, rel=1e-14, abs=0.0)


def test_odd_pairing_keeps_the_full_rule(interval_32):
    # u_2/u_1 is odd and u_3/u_1 even on (-1, 1): their pairing integrates an
    # odd function, which no half rule may double
    u1 = extend(interval_32, 1)
    q = q_functional(extend_ratio(interval_32, 2), extend_ratio(interval_32, 3), u1)
    assert q.diagnostics["halved_axes"] == [False]
    q22 = q_functional(extend_ratio(interval_32, 2), extend_ratio(interval_32, 2), u1)
    assert abs(q.value) <= 1e-15 * q22.value


def test_rect_gap_check_traced_memory(rect_8):
    # the field arrays live on the quarter of the energy grid that the half
    # rules keep: about 35 MB of numpy data at the peak, 198 MB on the full grid
    gap_identity_check(rect_8)
    tracemalloc.start()
    try:
        gap_identity_check(rect_8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 60 * 2**20
