"""Closed-form spectral bounds and the Bessel-zero evaluations behind them.

Zeros of the Bessel functions J_p of any real order p >= -1/2 are located by
Newton iteration on scipy's J_p, seeded from the McMahon expansion.
Everything here is cheap, deterministic, and independent of the variational
solver, so the two sides can be compared in tests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ValidationError, require_alpha, require_count


_NEWTON_MAXITER = 50  # Newton steps allowed after the McMahon seed


def bessel_zero(p, k):
    """k-th positive zero of J_p (k >= 1), Newton from the McMahon seed."""
    from scipy.special import jv, jvp

    require_count(k, "zero index k")
    if not p >= -0.5:
        raise ValidationError("orders below -1/2 are not supported")
    mu = 4 * p * p
    beta = (k + 0.5 * p - 0.25) * np.pi
    x = beta - (mu - 1) / (8 * beta) - 4 * (mu - 1) * (7 * mu - 31) / (3 * (8 * beta) ** 3)
    for _ in range(_NEWTON_MAXITER):
        step = jv(p, x) / jvp(p, x)
        x -= step
        if abs(step) < 1e-15 * x:
            break
    return float(x)


# ---------------- spectral brackets and gap bounds ----------------


def ball_laplacian_eigenvalues(dim, radius):
    """(mu1, mu2): lowest Dirichlet-Laplacian eigenvalue of the ball of the
    given radius, and the lowest one among x1-antisymmetric eigenfunctions.

    mu1 = j(d/2-1, 1)^2 / r^2,  mu2 = j(d/2, 1)^2 / r^2.
    """
    require_count(dim, "dimension")
    if not radius > 0:
        raise ValidationError("radius must be positive")
    j0 = bessel_zero(dim / 2 - 1, 1)
    j1 = bessel_zero(dim / 2, 1)
    return j0**2 / radius**2, j1**2 / radius**2


def stable_eigenvalue_bracket(mu, alpha):
    """Bracket [mu^(alpha/2) / 2, mu^(alpha/2)] for the alpha-stable eigenvalue
    corresponding to a Dirichlet-Laplacian eigenvalue mu of the ball."""
    require_alpha(alpha)
    if not mu > 0:
        raise ValidationError("mu must be positive")
    top = mu ** (alpha / 2)
    return 0.5 * top, top


def ball_bracket(dim, radius, alpha=1.0):
    """Brackets for lambda1 and lambda* of the alpha-stable process on a ball."""
    mu1, mu2 = ball_laplacian_eigenvalues(dim, radius)
    return stable_eigenvalue_bracket(mu1, alpha), stable_eigenvalue_bracket(mu2, alpha)


def gap_upper(dim, inradius, alpha=1.0):
    """Upper bound on lambda2 - lambda1 via the largest inscribed ball:

    (j(d/2,1)^alpha - j(d/2-1,1)^alpha / 2) / r^alpha.
    """
    require_count(dim, "dimension")
    require_alpha(alpha)
    if not inradius > 0:
        raise ValidationError("inradius must be positive")
    j0 = bessel_zero(dim / 2 - 1, 1)
    j1 = bessel_zero(dim / 2, 1)
    return (j1**alpha - 0.5 * j0**alpha) / inradius**alpha


def main_gap_constants(dim):
    """(C_d, C'_d) in the lower bound lambda* - lambda1 >= min(C_d r / L^2, C'_d / r).

    C_d = pi^2 (d+1) / (2 pi d (d+2) + 4 (d+1)),  C'_d = 4 C_d / pi^2.
    """
    require_count(dim, "dimension")
    c = np.pi**2 * (dim + 1) / (2 * np.pi * dim * (dim + 2) + 4 * (dim + 1))
    return float(c), float(4 * c / np.pi**2)


def gap_lower_main(dim, half_extent, inradius):
    """min(C_d r / L^2, C'_d / r) for the Cauchy process on an x1-symmetric
    convex domain with horizontal half-extent L and inradius r."""
    if not (inradius > 0 and half_extent > 0):
        raise ValidationError("geometry parameters must be positive")
    if inradius > half_extent + 1e-12:
        raise ValidationError("inradius cannot exceed the half-extent")
    c, cp = main_gap_constants(dim)
    return min(c * inradius / half_extent**2, cp / inradius)


def disk_gap_lower(radius):
    """Simplified disk bound: lambda* - lambda1 >= 1 / (6 r)."""
    if not radius > 0:
        raise ValidationError("radius must be positive")
    return 1.0 / (6.0 * radius)


def rectangle_gap_lower(half_extent):
    """Simplified bound for the rectangle (-L, L) x (-1, 1):
    lambda* - lambda1 >= min(2 / (5 L^2), 1/6)."""
    if not half_extent >= 1:
        raise ValidationError("rectangle bound assumes L >= 1")
    return min(2.0 / (5.0 * half_extent**2), 1.0 / 6.0)


def weighted_poincare_constant(dim):
    """C(d) = pi d (d+2) / (4 (d+1)), the constant in the weighted Poincare
    inequality for the ground-state weight."""
    require_count(dim, "dimension")
    return float(np.pi * dim * (dim + 2) / (4 * (dim + 1)))


def final_inequality(lambda1, half_extent):
    """Gap lower bound in terms of lambda1 for x1-symmetric convex planar
    domains of inradius 1: min(pi^2 / (4 (2 lambda1 + 1) L^2), 1 / (2 lambda1 + 1))."""
    if not (lambda1 > 0 and half_extent > 0):
        raise ValidationError("arguments must be positive")
    c = 2 * lambda1 + 1
    return min(np.pi**2 / (4 * c * half_extent**2), 1.0 / c)


@dataclass
class BoundReport:
    """All closed-form rows that apply to one domain."""

    dim: int
    alpha: float
    inradius: float
    half_extent: float
    lambda1_bracket: tuple
    lambda_star_bracket: tuple
    gap_upper: float
    rows: dict = field(default_factory=dict)

    def to_json(self):
        return asdict(self)


def render_table(report):
    """Aligned text table of a BoundReport."""
    rows = [
        ("dim", report.dim),
        ("alpha", report.alpha),
        ("inradius", report.inradius),
        ("half_extent", report.half_extent),
        ("lambda1_lower", report.lambda1_bracket[0]),
        ("lambda1_upper", report.lambda1_bracket[1]),
        ("lambda_star_lower", report.lambda_star_bracket[0]),
        ("lambda_star_upper", report.lambda_star_bracket[1]),
        ("gap_upper", report.gap_upper),
    ] + sorted(report.rows.items())
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v:.9g}" for k, v in rows)


def build_report(domain, alpha=1.0, lambda1=None):
    """Assemble every closed-form bound applicable to ``domain``.

    ``lambda1`` (if supplied, e.g. from the variational solver) enables the
    lambda1-dependent gap row.
    """
    summ = domain.summarize()
    d, r, L = summ.dim, summ.inradius, summ.half_extent
    br1, br2 = ball_bracket(d, r, alpha)
    report = BoundReport(
        dim=d,
        alpha=alpha,
        inradius=r,
        half_extent=L,
        lambda1_bracket=br1,
        lambda_star_bracket=br2,
        gap_upper=gap_upper(d, r, alpha),
    )
    if alpha == 1.0 and summ.symmetric_x1 and summ.convex:
        report.rows["gap_lower_main"] = gap_lower_main(d, L, r)
        cd, cpd = main_gap_constants(d)
        report.rows["C_d"] = cd
        report.rows["C_prime_d"] = cpd
        if domain.kind == "disk":
            report.rows["gap_lower_disk"] = disk_gap_lower(r)
        elif d == 2 and abs(r - 1.0) < 1e-12 and L >= 1:  # a convex 2D product: a rectangle
            report.rows["gap_lower_rectangle"] = rectangle_gap_lower(L)
        if lambda1 is not None and d == 2 and abs(r - 1.0) < 1e-12:
            report.rows["gap_lower_from_lambda1"] = final_inequality(lambda1, L)
    return report
