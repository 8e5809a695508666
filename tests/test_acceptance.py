"""Acceptance suite: ten headline guarantees, one printed verdict line each.

The expensive solves are shared through session fixtures (conftest.py); each
test prints `[PASS] criterion-k: ...` or `[FAIL] ...` before asserting.
"""

import time

import numpy as np
import pytest
from scipy.special import jv

from stablegap import (
    Domain,
    McConfig,
    Truncation,
    WeightProfile,
    bessel_zero,
    cauchy_kernel,
    check_lemma_derivative,
    d01_lower_bound_check,
    estimate_gap_star,
    estimate_lambda1,
    gap_identity_check,
    gap_upper,
    ground_state_domination_check,
    ground_state_weight,
    main_gap_constants,
    min_antisymmetric_quotient,
    rectangle_gap_lower,
    solve_spectrum,
    subordinated_gaussian,
    survival_curve,
)

GAP_REF = 1.59786  # lambda_* - lambda_1 on (-1, 1), alpha = 1


def _verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def rectangles(rect_32):
    out = {2.0: rect_32}
    for L in (1.0, 4.0, 8.0):
        out[L] = solve_spectrum(Domain.rectangle(-L, L, -1.0, 1.0), 1.0, 32)
    return out


def test_criterion_01_interval_eigenvalue_brackets(interval_domain):
    t0 = time.time()
    res = solve_spectrum(interval_domain, 1.0, 512)
    elapsed = time.time() - t0
    lam1, lam2 = res.eigenvalues[0], res.eigenvalues[1]
    ok = (np.pi / 4 <= lam1 <= np.pi / 2) and (np.pi / 2 <= lam2 <= np.pi) \
        and elapsed < 60.0
    _verdict(
        "criterion-1 interval brackets",
        ok,
        f"lambda1={lam1:.6f} in [{np.pi/4:.4f},{np.pi/2:.4f}], "
        f"lambda2={lam2:.6f} in [{np.pi/2:.4f},{np.pi:.4f}], "
        f"solve {elapsed:.1f}s < 60s",
    )


def test_criterion_02_gap_identity(interval_512):
    t0 = time.time()
    chk = gap_identity_check(interval_512, trunc=Truncation(1e-3, 30.0, 60.0))
    elapsed = time.time() - t0
    rel = abs(chk["relative_error"])
    ok = rel < 0.02 and elapsed < 600.0
    _verdict(
        "criterion-2 variational gap identity",
        ok,
        f"gap={chk['lhs']:.6f}, energy={chk['rhs']:.6f}, rel err {rel:.4f} "
        f"< 0.02, tail {chk['tail_bound']:.2e}, {elapsed:.0f}s < 600s",
    )


def test_criterion_03_lower_bound_and_domination(interval_512, rect_32):
    results = []
    for label, res, trunc in (
        ("interval", interval_512, None),
        ("rectangle", rect_32, None),
    ):
        out = d01_lower_bound_check(res, trunc=trunc)
        margin = ground_state_domination_check(res)
        results.append((label, out, margin))
    ok = all(
        out["simplified_integral"] <= out["gap"] + 1e-3 and margin >= -1e-8
        for _, out, margin in results
    )
    detail = "; ".join(
        f"{lbl}: d01={out['simplified_integral']:.4f} <= gap {out['gap']:.4f}"
        f"+1e-3, min domination margin {marg:.2e}"
        for lbl, out, marg in results
    )
    _verdict("criterion-3 simplified lower bound + ground-state domination",
             ok, detail)


def test_criterion_04_rectangle_gap_lower_bounds(rectangles):
    t0 = time.time()
    rows = []
    ok = True
    for L, res in sorted(rectangles.items()):
        gap = res.lambda_star - res.lambda1
        bound = rectangle_gap_lower(L)
        ok &= gap > bound
        rows.append(f"L={L:g}: gap {gap:.4f} > {bound:.4f}")
    elapsed = time.time() - t0
    ok &= elapsed < 1800.0
    _verdict("criterion-4 rectangle gap lower bounds", bool(ok),
             "; ".join(rows))


def test_criterion_05_gap_upper_bounds(interval_512, rectangles):
    rows = []
    ok = True
    g1 = interval_512.eigenvalues[1] - interval_512.eigenvalues[0]
    ok &= g1 <= 3 * np.pi / 4
    rows.append(f"interval: {g1:.4f} <= {3*np.pi/4:.4f}")
    for L, res in sorted(rectangles.items()):
        g = res.eigenvalues[1] - res.eigenvalues[0]
        b = gap_upper(2, 1.0)
        ok &= g <= b
        rows.append(f"L={L:g}: {g:.4f} <= {b:.4f}")
    _verdict("criterion-5 spectral gap upper bounds", bool(ok), "; ".join(rows))


def test_criterion_06_weighted_poincare(interval_domain):
    bound = np.pi**2 / 4
    rows = []
    ok = True
    for alpha in (1.0, 1.5, 2.0):
        res = solve_spectrum(interval_domain, alpha, 256)
        q = min_antisymmetric_quotient(ground_state_weight(res), 1.0).quotient
        ok &= q >= bound - 1e-4
        rows.append(f"alpha={alpha}: {q:.4f} >= {bound:.4f}-1e-4")
    flat = WeightProfile.from_function(lambda x: np.ones_like(x), 1.0)
    qf = min_antisymmetric_quotient(flat, 1.0).quotient
    ok &= abs(qf - bound) < 1e-4
    rows.append(f"flat weight: |{qf:.6f} - pi^2/4| < 1e-4")
    _verdict("criterion-6 weighted Poincare inequality", bool(ok),
             "; ".join(rows))


def test_criterion_07_subordination_identity():
    ts = np.geomspace(0.05, 5.0, 5)
    worst = 0.0
    for dim in (1, 2):
        xs = np.geomspace(0.05, 5.0, 5)
        for t in ts:
            for x in xs:
                a = subordinated_gaussian(t, np.eye(dim)[0] * x, np.zeros(dim))
                b = cauchy_kernel(t, np.eye(dim)[0] * x, np.zeros(dim))
                worst = max(worst, abs(a - b))
    ok = worst < 1e-7
    _verdict("criterion-7 subordination identity", ok,
             f"max |subordinated - closed form| = {worst:.2e} < 1e-7 "
             "on 5x5 grids, dims 1 and 2")


def test_criterion_08_monte_carlo_consistency(interval_domain, interval_512):
    t0 = time.time()
    cfg = McConfig(alpha=1.0, paths=10**6, dt=1e-3, t_max=12.0, seed=20260826)
    curve = survival_curve(interval_domain, 0.5, cfg)
    lam = estimate_lambda1(curve)
    gap = estimate_gap_star(interval_domain, curve)
    elapsed = time.time() - t0
    lam_ref = interval_512.lambda1
    gap_ref = interval_512.lambda_star - interval_512.lambda1
    z_lam = (lam.value - lam_ref) / lam.stderr
    z_gap = (gap.value - gap_ref) / gap.stderr
    ok = abs(z_lam) < 3 and abs(z_gap) < 3 and elapsed < 1200.0
    _verdict(
        "criterion-8 Monte Carlo consistency",
        ok,
        f"lambda1 {lam.value:.4f}+-{lam.stderr:.4f} (z={z_lam:+.2f}), "
        f"gap {gap.value:.4f}+-{gap.stderr:.4f} (z={z_gap:+.2f}), "
        f"{elapsed:.0f}s < 1200s",
    )


def test_criterion_09_constants_and_bessel():
    stated = {1: (0.735, 0.297), 2: (0.475, 0.192), 3: (0.358, 0.145)}
    ok = all(
        abs(main_gap_constants(d)[0] - c) < 1e-3
        and abs(main_gap_constants(d)[1] - cp) < 1e-3
        for d, (c, cp) in stated.items()
    )
    ok &= abs(bessel_zero(0.5, 1) - np.pi) < 1e-13
    ok &= abs(bessel_zero(-0.5, 1) - np.pi / 2) < 1e-13
    worst = max(
        abs(jv(p, bessel_zero(p, k)))
        for p in (-0.5, 0.0, 0.5, 1.0)
        for k in range(1, 6)
    )
    ok &= worst < 1e-12
    _verdict(
        "criterion-9 closed-form constants and Bessel zeros",
        bool(ok),
        f"main constants within 1e-3 of stated 3-decimal values (d=1,2,3); "
        f"half-order zeros exact to 1e-13; max |J_p(zero)| = {worst:.1e} "
        "< 1e-12",
    )


def test_criterion_10_derivative_inequality_property():
    rng = np.random.default_rng(2026)
    ts = np.linspace(0.0, 60.0, 6001)
    violations = 0
    worst_ratio = np.inf
    for _ in range(100):
        n_modes = rng.integers(1, 7)
        om = rng.uniform(0.1, 3.0, n_modes)
        a = rng.normal(size=n_modes)
        b = rng.normal(size=n_modes)
        fs = (a[:, None] * np.cos(np.outer(om, ts))
              + b[:, None] * np.sin(np.outer(om, ts))).sum(axis=0)
        for c in (0.5, 1.0, 5.0):
            out = check_lemma_derivative(ts, fs, c)
            if not out["pass"]:
                violations += 1
            worst_ratio = min(worst_ratio, out["ratio"])
    ok = violations == 0
    _verdict(
        "criterion-10 exponential-weight derivative inequality",
        ok,
        f"{violations} violations over 100 random band-limited f x "
        f"c in {{0.5, 1, 5}}; smallest I/bound ratio {worst_ratio:.3f}",
    )
