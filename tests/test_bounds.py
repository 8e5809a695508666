"""Closed-form constants, Bessel utilities, and the bound report."""

import numpy as np
import pytest
from scipy.special import jn_zeros, jv

from stablegap import (
    Domain,
    ValidationError,
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

# published three-decimal values of the main constants (C_d, C'_d)
STATED = {1: (0.735, 0.297), 2: (0.475, 0.192), 3: (0.358, 0.145)}


def test_main_gap_constants_match_stated_decimals():
    for d, (c, cp) in STATED.items():
        got_c, got_cp = main_gap_constants(d)
        assert abs(got_c - c) < 1e-3
        assert abs(got_cp - cp) < 1e-3


def test_weighted_poincare_constant():
    assert weighted_poincare_constant(1) == pytest.approx(3 * np.pi / 8, abs=1e-12)
    assert weighted_poincare_constant(2) == pytest.approx(2 * np.pi / 3, abs=1e-12)


def test_half_order_bessel_zeros_are_exact():
    # J_{1/2} ~ sin, J_{-1/2} ~ cos: first zeros pi and pi/2
    assert abs(bessel_zero(0.5, 1) - np.pi) < 1e-13
    assert abs(bessel_zero(-0.5, 1) - np.pi / 2) < 1e-13


def test_bessel_zero_residuals_and_oracle():
    for p in (-0.5, 0.0, 0.5, 1.0, 2.0):
        for k in range(1, 6):
            z = bessel_zero(p, k)
            # Newton runs on this same jv, so the residual is near-tautological;
            # the jn_zeros and half-order tests are the independent oracles
            assert abs(jv(p, z)) < 1e-12


def test_integer_bessel_zeros_match_scipy():
    for p in (0, 1, 2):
        ref = jn_zeros(p, 5)
        got = np.array([bessel_zero(float(p), k) for k in range(1, 6)])
        assert np.max(np.abs(got - ref)) < 1e-11


def test_bessel_zero_interlacing():
    for p in (0.0, 0.5, 1.3):
        for k in range(1, 5):
            assert bessel_zero(p, k) < bessel_zero(p + 1.0, k) < bessel_zero(p, k + 1)


def test_ball_laplacian_eigenvalues():
    r = 1.7
    mu1, mu2 = ball_laplacian_eigenvalues(2, r)
    z = jn_zeros(0, 1)[0]
    z1 = jn_zeros(1, 1)[0]
    assert mu1 == pytest.approx((z / r) ** 2, rel=1e-12)
    assert mu2 == pytest.approx((z1 / r) ** 2, rel=1e-12)
    mu1d, mu2d = ball_laplacian_eigenvalues(1, 2.0)
    assert mu1d == pytest.approx((np.pi / 4) ** 2, rel=1e-12)
    assert mu2d == pytest.approx((np.pi / 2) ** 2, rel=1e-12)


def test_stable_eigenvalue_bracket():
    mu = (np.pi / 2) ** 2
    lo, hi = stable_eigenvalue_bracket(mu, 1.0)
    assert lo == pytest.approx(np.pi / 4, rel=1e-12)
    assert hi == pytest.approx(np.pi / 2, rel=1e-12)
    lo2, hi2 = stable_eigenvalue_bracket(mu, 2.0)
    assert lo2 == pytest.approx(mu / 2, rel=1e-12)
    assert hi2 == pytest.approx(mu, rel=1e-12)
    assert lo < hi
    with pytest.raises(ValidationError):
        stable_eigenvalue_bracket(mu, 2.5)


def test_gap_upper_closed_forms():
    assert gap_upper(1, 1.0) == pytest.approx(3 * np.pi / 4, rel=1e-12)
    z0, z1 = jn_zeros(0, 1)[0], jn_zeros(1, 1)[0]
    assert gap_upper(2, 1.0) == pytest.approx(z1 - z0 / 2, rel=1e-12)
    # scaling: bound on radius r is bound on radius 1 over r
    assert gap_upper(2, 2.0) == pytest.approx(gap_upper(2, 1.0) / 2, rel=1e-12)
    with pytest.raises(ValidationError):
        gap_upper(2, 1.0, 7)


def test_gap_lower_values():
    assert disk_gap_lower(1.0) == pytest.approx(1 / 6, rel=1e-12)
    assert disk_gap_lower(2.0) == pytest.approx(1 / 12, rel=1e-12)
    for L in (1.0, 2.0, 4.0, 8.0):
        assert rectangle_gap_lower(L) == pytest.approx(
            min(2 / (5 * L**2), 1 / 6), rel=1e-12
        )
    # the dimensional constant route agrees with C'_d at unit scale
    assert gap_lower_main(1, 1.0, 1.0) == pytest.approx(
        main_gap_constants(1)[1], rel=1e-12
    )


def test_final_inequality():
    lam = 1.16
    v = final_inequality(lam, 2.0)
    c = 2 * lam + 1
    assert v == pytest.approx(min(np.pi**2 / (16 * c), 1 / c), rel=1e-12)
    with pytest.raises(ValidationError):
        final_inequality(-1.0, 1.0)


def test_lower_bounds_sit_below_upper_bounds():
    for L in (1.0, 2.0, 4.0, 8.0):
        assert rectangle_gap_lower(L) < gap_upper(2, 1.0)
    for r in (0.5, 1.0, 3.0):
        assert disk_gap_lower(r) < gap_upper(2, r)


def test_build_report_and_table():
    rep = build_report(Domain.rectangle(-2.0, 2.0, -1.0, 1.0))
    assert rep.dim == 2
    assert rep.lambda1_bracket[0] < rep.lambda1_bracket[1]
    assert rep.lambda_star_bracket[0] < rep.lambda_star_bracket[1]
    assert "gap_lower_rectangle" in rep.rows
    assert rep.rows["gap_lower_rectangle"] < rep.gap_upper
    txt = render_table(rep)
    assert "gap_lower_rectangle" in txt and "gap_upper" in txt

    disk_rep = build_report(Domain.disk(0.0, 0.0, 1.0))
    assert "gap_lower_disk" in disk_rep.rows
    assert disk_rep.rows["gap_lower_disk"] == pytest.approx(1 / 6, rel=1e-12)

    with_lam = build_report(Domain.rectangle(-2.0, 2.0, -1.0, 1.0), lambda1=1.42)
    assert "gap_lower_from_lambda1" in with_lam.rows
    assert with_lam.rows["gap_lower_from_lambda1"] == pytest.approx(
        final_inequality(1.42, 2.0), rel=1e-12
    )
