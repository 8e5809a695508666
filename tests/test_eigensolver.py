"""Galerkin eigensolver: brackets, exact cases, scaling, symmetry labels."""

from functools import reduce

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc, jn_zeros

from stablegap import (
    Domain,
    UnsupportedConfigurationError,
    ValidationError,
    assemble_form_matrix,
    scaling_check,
    solve_spectrum,
    stable_eigenvalue_bracket,
)
from stablegap import eigensolver
from stablegap._quad import log_panels
from stablegap.eigensolver import (
    _GL_NODES,
    _S_MAX,
    _S_MIN,
    _S_NODES,
    _S_PANELS_PER_DECADE,
    _X_SAT,
    _axis_form,
    _axis_quadrature,
    _parity_amplitudes,
    _sine_basis,
    _subordination_grams,
    _tail_integrals,
    basis_mode_transform,
    evaluate_basis_sum,
)

# interval (-1, 1), alpha = 1: Kulczycki, Kwasnicki, Malecki and Stos,
# "Spectral properties of the Cauchy process on half-line and interval",
# Proc. LMS 2010
KNOWN_LAMBDA1 = 1.1577738836977
KNOWN_GAP = 1.59786


def test_interval_alpha1_known_values(interval_128):
    r = interval_128
    assert abs(r.lambda1 - KNOWN_LAMBDA1) < 2e-3
    # Rayleigh-Ritz approximates from above
    assert r.lambda1 >= KNOWN_LAMBDA1
    assert abs(r.lambda2 - r.lambda1 - KNOWN_GAP) < 5e-3
    assert r.star_index == 2
    assert r.lambda_star == pytest.approx(r.lambda2)


def test_interval_alpha1_brackets(interval_128):
    lo1, hi1 = stable_eigenvalue_bracket((np.pi / 2) ** 2, 1.0)
    assert lo1 <= interval_128.lambda1 <= hi1
    lo2, hi2 = stable_eigenvalue_bracket(np.pi**2, 1.0)
    assert lo2 <= interval_128.lambda2 <= hi2


def test_eigenvalues_sorted_and_positive(interval_128):
    lam = interval_128.eigenvalues
    assert np.all(lam > 0)
    assert np.all(np.diff(lam) > 0)


def test_symmetry_labels(interval_128):
    assert interval_128.symmetry[0] == "symmetric"
    assert interval_128.symmetry[1] == "antisymmetric"
    assert interval_128.symmetry[2] == "symmetric"


def test_alpha2_interval_is_exact():
    r = solve_spectrum(Domain.interval(-1.0, 1.0), 2.0, 32)
    expected = (np.arange(1, 11) * np.pi / 2) ** 2
    assert np.max(np.abs(r.eigenvalues[:10] - expected)) < 1e-10


def test_alpha2_rectangle_is_exact():
    r = solve_spectrum(Domain.rectangle(-2.0, 2.0, -1.0, 1.0), 2.0, 8)
    expected = sorted(
        (j * np.pi / 4) ** 2 + (k * np.pi / 2) ** 2
        for j in range(1, 9)
        for k in range(1, 9)
    )[:6]
    assert np.max(np.abs(r.eigenvalues[:6] - np.array(expected))) < 1e-9


def test_alpha2_disk_matches_bessel_zeros():
    r = solve_spectrum(Domain.disk(0.0, 0.0, 1.0), 2.0, 8)
    assert r.eigenvalues[0] == pytest.approx(jn_zeros(0, 1)[0] ** 2, rel=1e-10)
    assert r.eigenvalues[1] == pytest.approx(jn_zeros(1, 1)[0] ** 2, rel=1e-10)


def test_disk_fractional_unsupported():
    with pytest.raises(UnsupportedConfigurationError):
        solve_spectrum(Domain.disk(0.0, 0.0, 1.0), 1.0, 8)


def test_union_axis_beyond_one_dimension_unsupported():
    # the cross terms and the parity blocks of d >= 2 hold for one interval per axis
    union_x_interval = Domain.product([(-2.0, -0.5), (0.5, 2.0)], [(-1.0, 1.0)])
    for domain in (union_x_interval, Domain.product([(-1.0, 1.0)], [(-2.0, -0.5), (0.5, 2.0)])):
        with pytest.raises(UnsupportedConfigurationError, match="more than one interval"):
            eigensolver.spectral_basis(domain, 4)
        with pytest.raises(UnsupportedConfigurationError):
            solve_spectrum(domain, 2.0, 4)


def test_scaling_covariance(interval_128):
    union = solve_spectrum(Domain.interval_union([(-2.0, -0.5), (0.5, 2.0)]), 1.0, 16)
    rect = solve_spectrum(Domain.rectangle(-2.0, 2.0, -1.0, 1.0), 1.0, (6, 5))
    for r in (interval_128, union, rect):
        scaled = scaling_check(r, 2.0)
        assert scaled.size == r.eigenvalues.size
        n = min(6, scaled.size)
        assert np.max(np.abs(scaled[:n] - r.eigenvalues[:n]) / r.eigenvalues[:n]) < 1e-8


def test_eigenfunction_orthonormality(interval_128):
    f1 = interval_128.eigenfunction(1)
    f2 = interval_128.eigenfunction(3)  # same parity as mode 1
    n11, _ = quad(lambda x: f1(np.array([[x]]))[0] ** 2, -1, 1, limit=100)
    n13, _ = quad(lambda x: f1(np.array([[x]]))[0] * f2(np.array([[x]]))[0], -1, 1,
                  limit=100)
    assert abs(n11 - 1.0) < 1e-8
    assert abs(n13) < 1e-8


def test_eigenfunction_vanishes_outside(interval_128):
    f1 = interval_128.eigenfunction(1)
    assert np.all(f1(np.array([[1.5], [-2.0], [7.0]])) == 0.0)


def test_union_domain_spectrum():
    comp = solve_spectrum(Domain.interval(0.5, 2.0), 1.0, 64)
    union = solve_spectrum(
        Domain.interval_union([(-2.0, -0.5), (0.5, 2.0)]), 1.0, 64
    )
    # a larger domain cannot have a larger ground eigenvalue
    assert union.lambda1 <= comp.lambda1 + 1e-10
    # the two-component spectrum is nearly doubly degenerate at the bottom
    assert union.eigenvalues[1] - union.eigenvalues[0] < 0.5 * (
        comp.eigenvalues[1] - comp.eigenvalues[0]
    )
    assert union.domain.summarize().symmetric_x1


def test_basis_refinement_monotone(interval_domain):
    # Rayleigh-Ritz from above: a larger basis can only lower the eigenvalues
    lam64 = solve_spectrum(interval_domain, 1.0, 64).eigenvalues[:8]
    lam128 = solve_spectrum(interval_domain, 1.0, 128).eigenvalues[:8]
    assert np.all(lam128 <= lam64 + 1e-12)


def test_n_report_limits_output(interval_domain):
    r = solve_spectrum(interval_domain, 1.0, 64, n_report=4)
    assert r.eigenvalues.size == 4


# ---------------- xi-space assembly ----------------


def _quad_transform(c, h, om, xi):
    # integral over (c - h, c + h) of h^(-1/2) sin(om (x - c + h)) exp(-i xi x)
    def mode(x):
        return np.sin(om * (x - c + h)) / np.sqrt(h)

    kw = dict(wvar=xi, epsabs=1e-13, epsrel=1e-12, limit=200)
    re, _ = quad(mode, c - h, c + h, weight="cos", **kw)
    im, _ = quad(mode, c - h, c + h, weight="sin", **kw)
    return re - 1j * im


@pytest.mark.parametrize(
    "domain",
    [Domain.interval(-1.0, 1.0), Domain.interval_union([(-2.0, -0.5), (0.5, 2.0)])],
    ids=["interval", "union"],
)
def test_mode_transform_matches_quadrature(domain):
    (table,) = _sine_basis(domain, 6).tables
    c, h, _, om = table
    om3, om4 = om[2], om[3]
    # zero, within 1e-9 of +-omega (the removable singularities), and large
    xi = np.array([0.0, om3 + 3e-10, -om3 - 7e-10, om4 - 5e-10, -om4 + 2e-10,
                   157.3, -1000.7])
    F = basis_mode_transform(table, xi)
    ref = np.array([[_quad_transform(*mode, x) for x in xi] for mode in zip(c, h, om)])
    np.testing.assert_allclose(F, ref, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "domain",
    [Domain.interval(-1.0, 1.0), Domain.interval(0.5, 2.0),
     Domain.interval_union([(-2.0, -0.5), (0.5, 2.5)])],
    ids=["centred", "shifted", "union"],
)
def test_interval_form_vanishes_across_parity(domain):
    # within each component; distinct components couple across parity
    A, basis = assemble_form_matrix(domain, 1.0, 16)
    ((c, _, k, _),) = basis.tables
    within = c[:, None] == c
    cross = (k[:, None] - k[None, :]) % 2 == 1
    assert np.all(A[within & cross] == 0.0)
    assert np.all(A[within & ~cross] != 0.0)


def _sinc_amplitudes(h, n, xi):
    # the real amplitudes of the sinc-pair transform: Re for odd k, Im for even k
    (table,) = _sine_basis(Domain.interval(-h, h), n).tables
    S = basis_mode_transform(table, xi)
    G = S.real.copy()
    G[1::2] = S.imag[1::2]
    return G


@pytest.mark.parametrize("n", [1, 2, 7, 64, 256])
@pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
def test_centred_amplitudes_match_sinc_transform(h, n):
    u, xi, _, _ = _axis_quadrature(h, n)
    k = np.arange(1, n + 1)
    for i0 in range(0, u.size, 4096):  # node chunks keep the complex transform small
        rows = slice(i0, i0 + 4096)
        np.testing.assert_allclose(_centred_amplitudes(h, n, u[rows]),
                                   _sinc_amplitudes(h, n, xi[rows]), rtol=0, atol=1e-13)
    # the node nearest omega_k, where both factors of the closed form vanish:
    # in u, omega_k = 2k is a panel edge, so no node is closer to it than the
    # outermost Gauss-Legendre offset
    i = np.searchsorted(u, 2 * k)  # u[i - 1] < 2k < u[i]
    near = np.where(2 * k - u[i - 1] < u[i] - 2 * k, i - 1, i)
    G = _centred_amplitudes(h, n, u[near])[k - 1, np.arange(n)]
    ref = _sinc_amplitudes(h, n, xi[near])[k - 1, np.arange(n)]
    np.testing.assert_allclose(G, ref, rtol=0, atol=1e-13)
    offset = 0.5 * (1 - np.polynomial.legendre.leggauss(_GL_NODES)[0].max())
    assert np.abs(u[near] - 2 * k).min() >= offset * (1 - 1e-9)


def _sinc_gram_form(table, alpha):
    # the axis form on the grid and tails of _axis_form, with the Gram product
    # of the sinc transforms [Re S | Im S] of every component at once
    c, h, k, om = table
    m = int(k.max())
    _, xi, w, xi_max = _axis_quadrature(h.min(), m)
    S = basis_mode_transform(table, xi) * np.sqrt(w * xi**alpha)
    X = np.concatenate([S.real, S.imag], axis=1)
    ref = X @ X.T / np.pi
    for a in range(0, c.size, m):
        own = slice(a, a + m)
        ref[own, own] += _tail_integrals(om[own], k[own], h[a], alpha, xi_max)
    return 0.5 * (ref + ref.T)


def _centred_amplitudes(h, n_modes, u):
    # the real amplitudes (n_modes, len(u)) of the sine modes of (-h, h) at
    # the panel coordinates u of _axis_quadrature, in the row order of
    # basis_mode_transform: the two blocks of _parity_amplitudes interleaved
    G = np.empty((n_modes, np.size(u)))
    G[0::2], G[1::2] = _parity_amplitudes(h, n_modes, u)
    return G


def _interleaved_axis_form(table, alpha):
    # the single-interval axis form from the interleaved amplitude rows of
    # _centred_amplitudes: weighted after they are built, and each parity's
    # rows gathered into a contiguous copy for its Gram product
    _, h, k, om = table
    m = k.size
    u, xi, w, xi_max = _axis_quadrature(h[0], m)
    root_w = np.sqrt(w * xi**alpha)
    A = np.zeros((m, m))
    chunk = max(1, eigensolver._CHUNK_ENTRIES // m)
    for i0 in range(0, xi.size, chunk):
        G = _centred_amplitudes(h[0], m, u[i0 : i0 + chunk]) * root_w[i0 : i0 + chunk]
        for par in (slice(0, m, 2), slice(1, m, 2)):
            X = np.ascontiguousarray(G[par])
            A[par, par] += X @ X.T
    A /= np.pi
    A += _tail_integrals(om, k, h[0], alpha, xi_max)
    return 0.5 * (A + A.T)


def _dense_subordination_grams(table, s):
    # D(s) with expm1 and the Gram product on every (s, xi) entry and on
    # every pair (j, k) of a parity block, saturated or not
    _, hs, kk, om = table
    h, n = hs[0], kk.size
    u, nodes, wts, xi_max = _axis_quadrature(h, n)
    D = np.zeros((s.size, n, n))
    chunk = max(1, eigensolver._CHUNK_ENTRIES // max(s.size, ((n + 1) // 2) ** 2))
    for i0 in range(0, nodes.size, chunk):
        xi = nodes[i0 : i0 + chunk]
        W = -np.expm1(-np.outer(s, xi**2)) * wts[i0 : i0 + chunk]
        G = _centred_amplitudes(h, n, u[i0 : i0 + chunk])
        for par in (slice(0, n, 2), slice(1, n, 2)):
            Gp = G[par]
            products = (Gp[:, None] * Gp[None]).reshape(-1, xi.size)
            D[:, par, par] += (W @ products.T).reshape(s.size, len(Gp), len(Gp))
    D /= np.pi
    x = s * xi_max**2
    ramp = -np.expm1(-x) + 2 * x * np.exp(-x) - 2 * np.sqrt(np.pi) * x**1.5 * erfc(np.sqrt(x))
    D += ramp[:, None, None] * _tail_integrals(om, kk, h, 0.0, xi_max)
    return D


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("n", [16, 64])
def test_parity_blocks_keep_the_interval_form_bits(n, alpha):
    # the parity rows built contiguously with the root weights folded in take
    # the same operations in the same order as the interleaved rows
    (table,) = _sine_basis(Domain.interval(-1.0, 1.0), n).tables
    assert np.array_equal(_axis_form(table, alpha), _interleaved_axis_form(table, alpha))


def test_saturation_threshold_rounds_to_one():
    assert -np.expm1(-_X_SAT) == 1.0


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("h", [1.0, 2.0])
def test_subordination_grams_match_the_dense_evaluation(h, n):
    # saturated rows summed per xi block and upper-triangle products against
    # expm1 on every entry: the same sums in another order
    (table,) = _sine_basis(Domain.interval(-h, h), n).tables
    s, _ = log_panels(_S_MIN, _S_MAX, _S_PANELS_PER_DECADE, _S_NODES)
    ref = _dense_subordination_grams(table, s)
    D = _subordination_grams(table, s)
    assert np.max(np.abs(D - ref)) <= 4e-15 * np.max(np.abs(ref))
    assert np.array_equal(D, D.transpose(0, 2, 1))
    assert np.array_equal(D == 0.0, ref == 0.0)


def test_square_builds_each_axis_once(monkeypatch):
    # the two axes of a square share one axis table, so one form and one Gram
    calls = []

    def counted(fn):
        def wrapper(*args, **kw):
            calls.append(fn.__name__)
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(eigensolver, "_axis_form", counted(_axis_form))
    monkeypatch.setattr(eigensolver, "_subordination_grams", counted(_subordination_grams))
    square = solve_spectrum(Domain.rectangle(-1.0, 1.0, -1.0, 1.0), 1.0, 8)
    assert sorted(calls) == ["_axis_form", "_subordination_grams"]
    calls.clear()
    rect = solve_spectrum(Domain.rectangle(-1.0, 1.0, -1.0 - 1e-9, 1.0 + 1e-9), 1.0, 8)
    assert len(calls) == 4
    np.testing.assert_allclose(square.eigenvalues, rect.eigenvalues, rtol=1e-8)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_axis_form_matches_sinc_amplitude_form(alpha):
    # the same grid, weights and tails, with the Gram product of the sinc
    # transforms [Re S | Im S] in place of the closed-form amplitudes. Entry
    # (j, k) is a sum of terms of both signs, and its rounding scales with
    # sqrt(E_jj E_kk), the Cauchy-Schwarz bound on it: the sinc amplitudes
    # alone put 1e-12 relative error on the smallest entries (against an
    # 80-bit evaluation of the closed form, which the assembly meets to 8e-14)
    (table,) = _sine_basis(Domain.interval(-1.0, 1.0), 64).tables
    ref = _sinc_gram_form(table, alpha)
    scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
    assert np.max(np.abs(_axis_form(table, alpha) - ref) / scale) <= 1e-13


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize(
    "intervals",
    [[(-2.0, -0.5), (0.5, 2.5)], [(-3.0, -2.0), (-1.0, 0.5), (1.0, 2.2)]],
    ids=["asymmetric", "three"],
)
def test_union_axis_form_matches_sinc_gram(intervals, alpha):
    # asymmetric unions with unequal half-lengths: on a union symmetric about
    # 0 the reflection maps one sign of the phase between components onto the
    # other, so only an asymmetric one pins the sign. Scaled as in
    # test_axis_form_matches_sinc_amplitude_form
    (table,) = _sine_basis(Domain.interval_union(intervals), 24).tables
    ref = _sinc_gram_form(table, alpha)
    scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
    assert np.max(np.abs(_axis_form(table, alpha) - ref) / scale) <= 1e-13


def test_union_assembly_takes_no_sinc_transform(monkeypatch):
    def no_sinc(*args):
        raise AssertionError("basis_mode_transform called")

    monkeypatch.setattr(eigensolver, "basis_mode_transform", no_sinc)
    r = solve_spectrum(Domain.interval_union([(-2.0, -0.5), (0.5, 2.5)]), 1.0, 16)
    assert r.lambda1 > 0


def test_rectangle_form_vanishes_across_parity():
    n1, n2 = 6, 5
    j, m = np.divmod(np.arange(n1 * n2), n2)  # row (j, m) = j * n2 + m
    cross = ((j[:, None] - j[None, :]) % 2 == 1) | ((m[:, None] - m[None, :]) % 2 == 1)
    for alpha in (0.5, 1.0, 1.5):
        A, _ = assemble_form_matrix(Domain.rectangle(-2.0, 2.0, -1.0, 1.0), alpha, (n1, n2))
        assert np.all(A[cross] == 0.0), alpha
        assert np.all(A[~cross] != 0.0), alpha
        assert np.array_equal(A, A.T), alpha


def test_alpha2_rectangle_form_is_its_diagonal(monkeypatch):
    # at alpha = 2 the cross terms carry the weight c_alpha = 0, so no Gram
    # matrix is built and the form is omega1^2 + omega2^2 on the diagonal
    def no_grams(table, s):
        raise AssertionError("cross-term Gram matrices built at alpha = 2")

    monkeypatch.setattr(eigensolver, "_subordination_grams", no_grams)
    A, basis = assemble_form_matrix(Domain.rectangle(-2.0, 2.0, -1.0, 1.0), 2.0, (6, 5))
    om1, om2 = (table[3] for table in basis.tables)
    assert np.array_equal(A, np.diag((om1[:, None] ** 2 + om2[None] ** 2).ravel()))


@pytest.mark.parametrize("domain, n", [(Domain.rectangle(-2.0, 2.0, -1.0, 1.0), 32),
                                       (Domain.interval(-1.0, 1.0), 64)],
                         ids=["rectangle", "interval"])
def test_alpha2_diagonal_equals_the_kronecker_sum(domain, n):
    # the alpha = 2 form, built as a diagonal, has every entry of the sum of
    # Kronecker products of the axis forms and its symmetrization
    basis = _sine_basis(domain, n)
    forms = [_axis_form(table, 2.0) for table in basis.tables]
    eye = [np.eye(len(A)) for A in forms]
    E = sum(eigensolver._kron(eye[:i] + [A[None]] + eye[i + 1 :], np.ones(1))
            for i, A in enumerate(forms))
    assert np.array_equal(eigensolver._assemble_sine(basis, 2.0), 0.5 * (E + E.T))


CUBE = Domain.product([(-1.0, 1.0)], [(-1.0, 1.0)], [(-1.0, 1.0)])
LONG_BOX = Domain.product([(-2.0, 2.0)], [(-1.0, 1.0)], [(-1.0, 1.0)])


def test_three_axis_form_reproduces_cube_lambda1():
    # the assembly has one path for every number of axes: on (-1, 1)^3, lambda1
    # at n = 6 per axis is the d = 3 Kronecker form's value in ROADMAP item 13's
    # table, and the form never couples modes of different parity on an axis
    basis = eigensolver.spectral_basis(CUBE, 6)
    assert basis.size == 6**3 and basis.counts == (6, 6, 6)
    parity = np.array(np.meshgrid(*[np.arange(6) % 2] * 3, indexing="ij")).reshape(3, -1)
    cross = (parity[:, :, None] != parity[:, None, :]).any(axis=0)
    for alpha, lam1 in ((0.5, 1.495472), (1.0, 2.389885), (1.5, 4.066274)):
        A = eigensolver._assemble_sine(basis, alpha)
        assert np.array_equal(A, A.T) and np.all(A[cross] == 0.0), alpha
        assert round(np.linalg.eigvalsh(A)[0], 6) == lam1, alpha
    # every n = 6 row of item 13's table: lambda1 and lambda* - lambda1 of the solve
    for domain, rows in ((CUBE, ((0.5, 1.495472, 0.34782), (1.0, 2.389885, 1.14562),
                                 (1.5, 4.066274, 2.99701))),
                         (LONG_BOX, ((0.5, 1.376320, 0.15663), (1.0, 2.040035, 0.42216),
                                     (1.5, 3.242677, 0.90775)))):
        for alpha, lam1, gap in rows:
            r = solve_spectrum(domain, alpha, 6)
            assert round(r.lambda1, 6) == lam1, (domain, alpha)
            assert round(r.lambda_star - r.lambda1, 5) == gap, (domain, alpha)
            assert r.symmetry[r.star_index - 1] == "antisymmetric"
    # the Kronecker helper against nested np.kron, with one factor free of s
    rng = np.random.default_rng(13)
    for sizes in ((3,), (3, 2), (3, 2, 4)):
        weights = rng.standard_normal(5)
        factors = [rng.standard_normal((5, n, n)) for n in sizes]
        factors[-1][:] = factors[-1][0]
        expected = sum(w * reduce(np.kron, [f[i] for f in factors])
                       for i, w in enumerate(weights))
        for last in (factors[-1], factors[-1][0]):
            got = eigensolver._kron(factors[:-1] + [last], weights)
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13)


def _direct_axis(h, n, R):
    """One axis of a direct xi quadrature: nodes and weights on [0, R'] (R'
    the first panel edge >= R), the same-parity products P (n, n, nodes) of
    the real transform amplitudes, and tail(beta), a bound on
    integral_R'^inf xi^beta |P_jk| dxi."""
    # 10-node Gauss panels of width pi / (4 h), the first one split
    # geometrically towards 0, where |xi|^alpha is not smooth
    w = np.pi / (4 * h)
    edges = np.concatenate([[0.0], w * 2.0 ** -np.arange(30, 0, -1),
                            w * np.arange(1, int(np.ceil(R / w)) + 1)])
    xg, wg = np.polynomial.legendre.leggauss(10)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    x, wts = (mid[:, None] + half[:, None] * xg).ravel(), (half[:, None] * wg).ravel()
    R = edges[-1]
    # sin(om (x + h)) / sqrt(h) on (-h, h) has the transform
    # 2 om {cos, sin}(h xi) / (sqrt(h) (om^2 - xi^2)) (times i for even k)
    k = np.arange(1, n + 1)
    om = k * np.pi / (2 * h)
    trig = np.where(k[:, None] % 2 == 1, np.cos(h * x), np.sin(h * x))
    G = 2 * om[:, None] * trig / (np.sqrt(h) * (om[:, None] ** 2 - x**2))
    same = (k[:, None] - k[None]) % 2 == 0
    P = G[:, None] * G[None] * same[..., None]
    # |G_k(xi)| <= 2 om_k / (sqrt(h) xi^2 (1 - om_k^2 / R^2)) for xi >= R
    envelope = 2 * om / (np.sqrt(h) * (1 - om**2 / R**2))

    def tail(beta):
        return np.outer(envelope, envelope) * R ** (beta - 3) / (3 - beta)

    return x, wts, P, tail


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_rectangle_form_matches_direct_2d_quadrature(alpha):
    # E_(j,m),(k,l) = pi^-2 * integral over [0, inf)^2 of
    # (xi1^2 + xi2^2)^(alpha/2) P1_jk(xi1) P2_ml(xi2), evaluated directly on
    # [0, R]^2, with no subordination and no tail model. Outside [0, R]^2,
    # |xi|^alpha <= xi1^alpha + xi2^alpha, so the missing part is bounded
    # entrywise by B = pi^-2 (sum over the two axes of T(alpha) M(0) +
    # T(0) M(alpha)), with T(beta) = tail(beta) of one axis and M(beta) the
    # integral of xi^beta |P| over [0, inf) on the other. At R = 200 the
    # largest B is 1.2e-5 (alpha = 0.5), 2.0e-4 (1) and 3.8e-3 (1.5); the
    # truncation error is about half of it. The assembly is held to B plus
    # 1e-8 for its own quadrature error.
    ns = (3, 2)
    A, _ = assemble_form_matrix(Domain.rectangle(-2.0, 2.0, -1.0, 1.0), alpha, ns)
    axes = [_direct_axis(h, n, 200.0) for h, n in zip((2.0, 1.0), ns)]
    (x1, w1, P1, T1), (x2, w2, P2, T2) = axes
    inner = np.zeros(P1.shape[:2] + x2.shape)
    for i0 in range(0, x1.size, 500):
        rows = slice(i0, i0 + 500)
        K = (x1[rows, None] ** 2 + x2[None] ** 2) ** (alpha / 2) * w1[rows, None]
        inner += P1[..., rows] @ K
    n = ns[0] * ns[1]
    direct = np.einsum("jkq,mlq,q->jmkl", inner, P2, w2).reshape(n, n) / np.pi**2

    def M(P, x, w, T, beta):
        return np.abs(P) @ (w * x**beta) + T(beta)

    def kron(a, b):
        return np.einsum("jk,ml->jmkl", a, b).reshape(n, n)

    bound = (kron(T1(alpha), M(P2, x2, w2, T2, 0)) + kron(T1(0), M(P2, x2, w2, T2, alpha))
             + kron(M(P1, x1, w1, T1, alpha), T2(0)) + kron(M(P1, x1, w1, T1, 0), T2(alpha)))
    bound /= np.pi**2
    assert bound.max() < 4e-3
    assert np.all(np.abs(A - direct) <= bound + 1e-8)


# lambda_1..lambda_4 of the assembly as it stands: the interval and union rows
# date from the complex-arithmetic assembly that preceded the real closed-form
# one (the two agree to rounding: the union row, whose cross-component blocks
# now take the closed-form amplitudes times cos and sin of the phase, within
# 1.2e-14 relative); the rectangle rows are those of the Kronecker-sum
# assembly with its subordination cross term
PINNED_EIGENVALUES = [
    (Domain.interval(-1.0, 1.0), 0.5, 64,
     [0.9721329037531323, 1.6045418680148043, 2.0325675525885916, 2.391382713366734]),
    (Domain.interval(-1.0, 1.0), 1.0, 64,
     [1.1603382330197374, 2.7605883666971534, 4.3258548080919335, 5.9040522766316785]),
    (Domain.interval(-1.0, 1.0), 1.5, 64,
     [1.5992009999957661, 5.064946886605607, 9.604103438163559, 15.033627539725547]),
    (Domain.interval_union([(-2.0, -0.5), (0.5, 2.0)]), 1.0, 64,
     [1.4686653937721823, 1.6244197282528952, 3.667674040086566, 3.6943940180221833]),
    (Domain.rectangle(-2.0, 2.0, -1.0, 1.0), 1.0, 16,
     [1.4234949251768325, 1.9659674033971049, 2.6148098885160316, 2.891817913949644]),
    (Domain.rectangle(-2.0, 2.0, -1.0, 1.0), 1.0, (6, 5),
     [1.4387813202051414, 1.9821992110056248, 2.635169148839616, 2.9261731714023433]),
]


@pytest.mark.parametrize(
    "domain, alpha, n, expected",
    PINNED_EIGENVALUES,
    ids=["interval-a0.5", "interval-a1", "interval-a1.5", "union", "rect-16", "rect-6x5"],
)
def test_eigenvalue_regression_pins(domain, alpha, n, expected):
    lam = solve_spectrum(domain, alpha, n).eigenvalues[:4]
    np.testing.assert_allclose(lam, expected, rtol=1e-11, atol=0)


def _signed_largest_coefficient(result, count=16):
    # 1-based position of each eigenvector's largest coefficient, with its sign
    C = result.coefficients[:count]
    j = np.argmax(np.abs(C), axis=1)
    return [int(np.sign(C[i, p]) * (p + 1)) for i, p in enumerate(j)]


def test_interval_signs_and_labels_pinned(interval_128):
    assert interval_128.symmetry == ["symmetric", "antisymmetric"] * 64
    assert interval_128.star_index == 2
    assert _signed_largest_coefficient(interval_128) == [
        1, -2, -3, 4, -5, -6, 7, 8, -9, 10, 11, -12, 13, 14, -15, -16
    ]


def test_rectangle_signs_and_labels_pinned():
    r = solve_spectrum(Domain.rectangle(-2.0, 2.0, -1.0, 1.0), 1.0, 16)
    labels = "".join(s[0] for s in r.symmetry)
    assert labels == (
        "sassaassasaassaassssaasaaasssssaaaassaasssaaassasssaasaaassasass"
        "ssaasaasaaasssasassasasaasaassasassaasaaasssasaasssaaasaaassssaa"
        "saaassasassassaaaasssassaasaasasaassssasaaaassassaassasaaasassas"
        "asaassaasassassaasasasaasasssasaaassaasasssasaaasassaasassaasasa"
    )
    assert r.star_index == 2
    assert _signed_largest_coefficient(r) == [
        1, -17, 33, -2, 18, -49, -34, -65, 50, -3, 19, 81, 66, -35, 51, -82
    ]


def _reflect(basis, C):
    # the coefficients of u(-x1, x2, ...) for each row of C: basis function i
    # goes to sign[i] times basis function image[i]
    image, sign = basis.reflection()
    out = np.empty_like(C)
    out[:, image] = sign * C
    return out


@pytest.mark.parametrize(
    "domain, alpha, n, head",
    [
        (Domain.interval_union([(-3.0, -1.0), (-0.5, 0.5), (1.0, 3.0)]), 1.0, 32, None),
        # exactly degenerate clusters (the square's modes (j, m) and (m, j)):
        # inside a cluster the antisymmetric mode comes first
        (Domain.rectangle(-1.0, 1.0, -1.0, 1.0), 1.0, 16, "sasassasassaaass"),
        (Domain.disk(0.0, 0.0, 1.0), 2.0, 40, "sasassasasasassa"),
    ],
    ids=["union3", "square", "disk"],
)
def test_labels_are_exact_reflection_eigenvalues(domain, alpha, n, head):
    r = solve_spectrum(domain, alpha, n)
    C = r.coefficients
    sign = np.where(np.array(r.symmetry) == "symmetric", 1.0, -1.0)
    assert set(r.symmetry) == {"symmetric", "antisymmetric"}
    np.testing.assert_allclose(_reflect(r.basis, C), sign[:, None] * C, rtol=0, atol=1e-12)
    assert r.star_index == 2
    if head is not None:
        assert "".join(s[0] for s in r.symmetry[:16]) == head


@pytest.mark.parametrize(
    "domain, n",
    [
        (Domain.rectangle(-2.0, 2.0, -1.0, 1.0), 16),
        (Domain.rectangle(-2.0, 2.0, -1.0, 1.0), 32),
        (Domain.rectangle(-1.0, 1.0, -1.0, 1.0), 16),
        (Domain.rectangle(0.0, 3.0, 0.5, 1.5), 12),
    ],
    ids=["rect-16", "rect-32", "square-16", "off-centre-12"],
)
def test_rectangle_modes_have_exact_x2_parity(domain, n):
    # basis function j * n + m has the x2 mode k = m + 1, even about the
    # x2 centre for odd k: per mode, the largest |coefficient| on each parity
    C = solve_spectrum(domain, 1.0, n).coefficients.reshape(-1, n, n // 2, 2)
    per_parity = np.max(np.abs(C), axis=(1, 2))
    assert np.all(per_parity.min(axis=1) == 0.0)
    assert np.all(per_parity.max(axis=1) > 0.0)
    assert set(per_parity.argmax(axis=1)) == {0, 1}


@pytest.mark.parametrize(
    "domain, n, n_report",
    [(Domain.interval(-1.0, 1.0), 16, 1), (Domain.rectangle(-1.0, 1.0, -2.0, 2.0), 6, 2)],
    ids=["interval", "rectangle"],
)
def test_star_index_counts_reported_modes_only(domain, n, n_report):
    # the full solve has its star mode beyond n_report
    assert solve_spectrum(domain, 1.0, n).star_index > n_report
    r = solve_spectrum(domain, 1.0, n, n_report=n_report)
    assert r.star_index is None and len(r.eigenvalues) == n_report
    with pytest.raises(ValidationError, match="n_report"):
        r.lambda_star
    if n_report == 1:
        with pytest.raises(ValidationError, match="n_report"):
            r.lambda2
    with pytest.raises(ValidationError, match="not x1-symmetric"):
        solve_spectrum(Domain.interval(0.0, 2.0), 1.0, n, n_report=n_report).lambda_star


@pytest.mark.parametrize(
    "domain, alpha, n, x",
    [
        (Domain.interval_union([(-2.0, -0.5), (0.5, 2.0)]), 1.0, 8,
         np.linspace(-2.5, 2.5, 41)[:, None]),
        (Domain.rectangle(-2.0, 2.0, -1.0, 1.0), 1.0, 5,
         np.column_stack([np.linspace(-2.5, 2.5, 23), np.linspace(-1.2, 0.9, 23)])),
        (Domain.disk(0.0, 0.0, 1.0), 2.0, 12,
         np.column_stack([np.linspace(-1.1, 0.8, 17), np.linspace(0.3, -0.9, 17)])),
    ],
    ids=["union", "rectangle", "disk"],
)
def test_stacked_coefficients_match_one_vector_at_a_time(domain, alpha, n, x):
    r = solve_spectrum(domain, alpha, n)
    C = r.coefficients[:6]
    stacked = evaluate_basis_sum(r.basis, C, x)
    rows = np.array([evaluate_basis_sum(r.basis, c, x) for c in C])
    np.testing.assert_allclose(stacked, rows, rtol=0, atol=1e-14)
    single = evaluate_basis_sum(r.basis, C, x[3])
    np.testing.assert_allclose(single, rows[:, 3], rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "domain, n, span",
    [
        (Domain.interval_union([(-2.0, -0.5), (0.5, 2.0)]), 5, 1.5),
        (Domain.interval_union([(-3.0, -2.5), (-2.0, -1.0), (1.0, 2.0), (2.5, 3.0)]), 5, 3.2),
        (Domain.rectangle(-2.0, 2.0, -1.0, 1.0), (5, 4), 1.5),
        (Domain.disk(0.0, 0.0, 1.0), 12, 1.5),
    ],
    ids=["union", "union-4-unequal", "rectangle", "disk"],
)
def test_reflection_matrix_reflects_x1(domain, n, span):
    # the signed permutation maps the coefficients of u to those of u(-x1, x2, ...)
    A, basis = assemble_form_matrix(domain, 2.0, n)
    assert basis.size == len(A)
    image, _ = basis.reflection()
    # the reflection keeps every parity label, as _reflection_blocks_eigh requires
    assert np.array_equal(basis.labels()[image], basis.labels())
    assert np.array_equal(np.sort(image), np.arange(basis.size))
    assert np.array_equal(image[image], np.arange(basis.size))  # an involution
    C = np.random.default_rng(3).standard_normal((2, basis.size))
    x = np.random.default_rng(4).uniform(-span, span, (29, 2))
    x = x[:, :1] if domain.dim == 1 else x
    mirrored = -x if domain.dim == 1 else x * [-1.0, 1.0]
    np.testing.assert_allclose(evaluate_basis_sum(basis, _reflect(basis, C), x),
                               evaluate_basis_sum(basis, C, mirrored), rtol=0, atol=1e-12)


def _direct_modes(intervals, n, x):
    # columns: sqrt(2 / (b - a)) sin(k pi (x - a) / (b - a)) on (a, b), zero
    # elsewhere, component by component, k = 1..n
    cols = []
    for a, b in intervals:
        for k in range(1, n + 1):
            inside = (x > a) & (x < b)
            cols.append(np.where(inside, np.sqrt(2 / (b - a)) * np.sin(k * np.pi * (x - a) / (b - a)), 0.0))
    return np.column_stack(cols)


@pytest.mark.parametrize(
    "domain, comps, counts, x",
    [
        (Domain.interval_union([(-2.0, -0.5), (0.5, 2.0)]), [[(-2.0, -0.5), (0.5, 2.0)]], [8],
         np.linspace(-2.5, 2.5, 61)[:, None]),
        (Domain.rectangle(0.3, 2.1, -0.4, 1.0), [[(0.3, 2.1)], [(-0.4, 1.0)]], [7, 6],
         np.column_stack([np.linspace(0.0, 2.4, 37), np.linspace(1.2, -0.6, 37)])),
    ],
    ids=["union", "off-centre-rectangle"],
)
def test_basis_sum_matches_direct_sine_formula(domain, comps, counts, x):
    basis = _sine_basis(domain, counts)
    C = np.random.default_rng(7).standard_normal((3, basis.size))
    coords = list(x.T)
    mats = [_direct_modes(ivs, n, u) for ivs, n, u in zip(comps, counts, coords)]
    # basis function p is the product of one mode per axis, in row-major order
    direct = sum(
        C[:, p, None] * np.prod([M[:, i] for M, i in zip(mats, idx)], axis=0)
        for p, idx in enumerate(np.ndindex(*(M.shape[1] for M in mats)))
    )
    tol = 1e-13 * np.max(np.abs(direct))
    np.testing.assert_allclose(evaluate_basis_sum(basis, C, x), direct, rtol=0, atol=tol)
    np.testing.assert_allclose(evaluate_basis_sum(basis, C[0], x[5]), direct[0, 5], rtol=0, atol=tol)
