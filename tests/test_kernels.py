"""Transition kernels, subordination, and the stable subordinator sampler."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc, gamma

from stablegap import (
    ValidationError,
    cauchy_constant,
    cauchy_kernel,
    gaussian_kernel,
    sample_stable_increment,
    sample_subordinator_increment,
    subordinated_gaussian,
    subordinator_density_half,
)


def test_cauchy_constant_closed_form():
    for d in (1, 2, 3):
        expected = gamma((d + 1) / 2) / np.pi ** ((d + 1) / 2)
        assert abs(cauchy_constant(d) - expected) < 1e-14


def test_cauchy_kernel_matches_explicit_1d():
    t, x, y = 0.7, 0.3, -0.4
    expected = t / (np.pi * (t**2 + (x - y) ** 2))
    assert abs(cauchy_kernel(t, [x], [y]) - expected) < 1e-14
    # two 1D points give two densities; the dimension is never guessed
    xs = np.array([0.1, 0.2])
    got = cauchy_kernel(1.0, xs[:, None], [0.0])
    assert got.shape == (2,)
    assert np.allclose(got, 1.0 / (np.pi * (1.0 + xs**2)), rtol=1e-14, atol=0.0)
    with pytest.raises(ValidationError):
        cauchy_kernel(1.0, xs, 0.0)


def test_cauchy_kernel_matches_explicit_2d():
    t = 0.5
    r = 1.3
    expected = t / (2 * np.pi * (t**2 + r**2) ** 1.5)
    assert abs(cauchy_kernel(t, [r, 0.0], [0.0, 0.0]) - expected) < 1e-14


def test_cauchy_kernel_normalizes_1d():
    t = 0.9
    total, _ = quad(lambda y: cauchy_kernel(t, [0.0], [y]), -np.inf, np.inf)
    assert abs(total - 1.0) < 1e-10


def test_gaussian_kernel_matches_normal_density():
    # variance of the kernel is 2t per coordinate
    t, x = 0.31, 0.7
    expected = np.exp(-(x**2) / (4 * t)) / np.sqrt(4 * np.pi * t)
    assert abs(gaussian_kernel(t, [x], [0.0]) - expected) < 1e-14


def test_subordination_reproduces_cauchy_kernel():
    # time-changed Gaussian with the 1/2-stable subordinator, quadrature in s,
    # against the closed form: the two routes are independent
    ts = np.array([0.05, 0.3, 1.0, 4.0])
    xs = np.array([0.0, 0.4, 1.5, 8.0])
    for dim in (1, 2):
        for t in ts:
            for x in xs:
                a = subordinated_gaussian(t, np.eye(dim)[0] * x, np.zeros(dim))
                b = cauchy_kernel(t, np.eye(dim)[0] * x, np.zeros(dim))
                assert abs(a - b) <= 1e-7 * max(1.0, abs(b))


def test_subordinator_density_half_closed_form_and_mass():
    t = 0.8
    s = np.linspace(0.01, 50.0, 7)
    expected = t / (2 * np.sqrt(np.pi) * s**1.5) * np.exp(-(t**2) / (4 * s))
    assert np.allclose(subordinator_density_half(t, s), expected, rtol=1e-12)
    total, _ = quad(lambda u: subordinator_density_half(t, u), 0.0, np.inf)
    assert abs(total - 1.0) < 1e-9


def test_subordinator_sampler_matches_analytic_cdf():
    # P(S_t <= s) = erfc(t / (2 sqrt(s))) for the 1/2-stable subordinator
    rng = np.random.default_rng(7)
    t = 0.5
    draws = sample_subordinator_increment(t, 0.5, rng, size=200_000)
    assert np.all(draws > 0)
    for s in (0.05, 0.2, 1.0, 5.0):
        emp = np.mean(draws <= s)
        ana = erfc(t / (2 * np.sqrt(s)))
        se = np.sqrt(ana * (1 - ana) / draws.size)
        assert abs(emp - ana) < 5 * se + 1e-4


def test_subordinator_sampler_laplace_transform():
    # E exp(-u S_t) = exp(-t u^beta), checked for a non-1/2 index as well
    rng = np.random.default_rng(11)
    for beta in (0.5, 0.75):
        t = 0.3
        draws = sample_subordinator_increment(t, beta, rng, size=400_000)
        for u in (0.5, 2.0):
            vals = np.exp(-u * draws)
            est = vals.mean()
            se = vals.std() / np.sqrt(vals.size)
            assert abs(est - np.exp(-t * u**beta)) < 5 * se + 1e-5


def test_subordinator_half_closed_form_matches_kanter_product():
    # at beta = 1/2 the sampler's closed form against the general Kanter
    # product, written out here, on the same (U, W) from one seed
    dt, beta, size = 1e-3, 0.5, 200_000
    got = sample_subordinator_increment(dt, beta, np.random.Generator(np.random.Philox(5)), size)
    rng = np.random.Generator(np.random.Philox(5))
    u = rng.uniform(0.0, 1.0, size)
    w = rng.exponential(1.0, size)
    pu = np.pi * u
    a = np.sin(beta * pu) ** (beta / (1 - beta)) * np.sin((1 - beta) * pu) / np.sin(pu) ** (
        1 / (1 - beta)
    )
    expected = dt ** (1 / beta) * (a / w) ** ((1 - beta) / beta)
    assert np.allclose(got, expected, rtol=4e-15, atol=0.0)


def test_subordinator_half_finite_at_uniform_endpoints():
    # U = 0 is a possible draw; the general product is 0/0 there
    class EndpointRng:
        def uniform(self, low, high, size):
            return np.array([0.0, 0.5, 1.0 - 2.0**-53])

        def random(self, size):
            return self.uniform(0.0, 1.0, size)

        def exponential(self, scale, size):
            return np.ones(3)

    dt = 0.1
    u = EndpointRng().uniform(0.0, 1.0, 3)
    got = sample_subordinator_increment(dt, 0.5, EndpointRng(), 3)
    assert np.all(np.isfinite(got)) and np.all(got > 0)
    assert np.allclose(got, dt**2 / (4 * np.cos(np.pi * u / 2) ** 2), rtol=4e-15, atol=0.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_stable_sampler_characteristic_function(alpha):
    # E cos(xi X) = exp(-dt |xi|^alpha) for the symmetric stable step; the
    # sample mean of a bounded cos has stderr at most 1/sqrt(n)
    dt, n = 0.3, 200_000
    draws = sample_stable_increment(dt, alpha, np.random.Generator(np.random.Philox(13)), n)
    assert draws.shape == (n,) and np.all(np.isfinite(draws))
    for xi in (0.3, 1.0, 2.0, 5.0):
        emp = np.cos(xi * draws).mean()
        assert abs(emp - np.exp(-dt * xi**alpha)) < 5 / np.sqrt(n)


def test_stable_sampler_alpha1_is_scaled_tangent():
    # at alpha = 1 the step is dt tan(pi (U - 1/2)) on the same uniforms,
    # and no exponential is drawn: the stream goes on with the next uniform
    dt, size = 2e-3, 10_000
    rng = np.random.Generator(np.random.Philox(5))
    got = sample_stable_increment(dt, 1.0, rng, size)
    after = rng.uniform(0.0, 1.0, 3)
    ref = np.random.Generator(np.random.Philox(5))
    u = ref.uniform(0.0, 1.0, size)
    assert np.array_equal(got, dt * np.tan(np.pi * (u - 0.5)))
    assert np.array_equal(after, ref.uniform(0.0, 1.0, 3))


def test_stable_sampler_matches_cms_formula():
    # the one-power form against the Chambers-Mallows-Stuck product as written
    dt, size = 1e-3, 100_000
    for alpha in (0.5, 1.5, 1.9):
        got = sample_stable_increment(dt, alpha, np.random.Generator(np.random.Philox(9)), size)
        rng = np.random.Generator(np.random.Philox(9))
        v = np.pi * (rng.uniform(0.0, 1.0, size) - 0.5)
        w = rng.exponential(1.0, size)
        expected = (dt ** (1 / alpha) * np.sin(alpha * v) / np.cos(v) ** (1 / alpha)
                    * (np.cos((1 - alpha) * v) / w) ** ((1 - alpha) / alpha))
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0)


def test_stable_sampler_validation():
    rng = np.random.default_rng(0)
    for alpha in (0.0, -1.0, 2.0, 2.5, np.nan):
        with pytest.raises(ValidationError):
            sample_stable_increment(1e-3, alpha, rng, 10)
    for dt in (0.0, -1e-3, np.nan):
        with pytest.raises(ValidationError):
            sample_stable_increment(dt, 1.0, rng, 10)


def test_kernel_validation():
    with pytest.raises(ValidationError):
        cauchy_kernel(-1.0, [0.0], [0.0])
