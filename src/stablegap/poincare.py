"""Weighted Poincare inequalities for symmetric log-concave-like weights.

For a positive symmetric weight g on (-l, l) and antisymmetric f, the sharp
directional inequality

    integral f'^2 g  >=  (pi^2 / (4 l^2)) integral f^2 g

is verified here by minimizing the discrete Rayleigh quotient over a P1
finite-element space on the half-interval (odd extension, free endpoint).
The minimum is the smallest eigenvalue of a tridiagonal pencil (K, M),
found by inverse iteration: K is factored once by LAPACK's tridiagonal
LDL^T (dpttrf), each step solves with it (dpttrs) and multiplies by M in
numpy, and the Rayleigh quotient is summed cell by cell, so it carries no
cancellation of the assembled diagonals. The module also provides discrete
log-concavity tests, the corresponding 2D directional check on rectangles,
iterated-kernel survival probabilities of the process observed along a
finite time skeleton, and the elementary exponential-weight derivative
inequality used by the gap bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quad import axis_rules, tensor_rule
from .errors import (NumericalBudgetError, UnsupportedConfigurationError, ValidationError,
                     require_count)
from .kernels import cauchy_kernel_r2
from .montecarlo import start_point

_PROFILE_CELLS = 2048  # cells of the uniform partition a profile samples
_QUOTIENT_TOL = 1e-4  # min_antisymmetric_quotient: slack below its bound
_QUOTIENT_STEPS = 500  # min_antisymmetric_quotient: cap on inverse-iteration steps
_QUOTIENT_PANELS = 24  # directional_quotient_2d: Gauss panels per side
_FD_STEP = 1e-6  # directional_quotient_2d: central-difference step in x1
_SKELETON_PANELS, _SKELETON_NODES = 24, 4  # skeleton_survival: per axis component
_KERNEL_BLOCK_ENTRIES = 1 << 21  # one row block of the skeleton kernel: 16 MB
_LEMMA_TOL = 1e-12  # check_lemma_derivative: absolute slack below its bound


@dataclass(frozen=True)
class WeightProfile:
    """Positive weight sampled on a uniform grid (cell centers of (-l, l)),
    symmetric: the grid is checked to be strictly increasing and odd, the
    samples to be even."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        if g.ndim != 1 or g.shape != v.shape:
            raise ValidationError("grid and values must be matching 1D arrays")
        if not np.all(np.diff(g) > 0):  # from_function(fn, l) with l <= 0 or NaN
            raise ValidationError("the grid must be strictly increasing")
        if np.any(v <= 0) or not np.all(np.isfinite(v)):
            raise ValidationError("weight samples must be positive and finite")
        sym_err = np.max(np.abs(v - v[::-1]))
        grid_err = np.max(np.abs(g + g[::-1]))
        if sym_err > 1e-10 * np.max(v) or grid_err > 1e-10 * np.max(np.abs(g)):
            raise ValidationError("weight profile samples are not symmetric")

    @classmethod
    def from_function(cls, fn, l):
        """Sample fn at the cell centers of a uniform partition of (-l, l)."""
        edges = np.linspace(-l, l, _PROFILE_CELLS + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        return cls(centers, np.asarray(fn(centers), dtype=float))


def ground_state_weight(result):
    """phi_1^2 of a spectral result on one interval (c - l, c + l) as a
    WeightProfile on (-l, l), sampled as phi_1(x + c)^2: the quotient
    is translation invariant."""
    domain = result.domain
    if domain.dim != 1 or len(domain.params[0]) != 1:
        raise ValidationError("the ground-state weight needs a single interval")
    ((a, b),) = domain.params[0]
    c, l = 0.5 * (a + b), 0.5 * (b - a)
    phi = result.eigenfunction(1)
    return WeightProfile.from_function(lambda x: phi((x + c)[:, None]) ** 2, l)


def is_log_concave(profile, tol=1e-9):
    """Midpoint concavity of log g over all adjacent grid triples.

    Returns True when every discrete second difference of log g is at most
    tol * max|log g| (quadrature noise can flip exact-zero differences).
    """
    g = profile.grid
    dg = np.diff(g)
    if np.max(np.abs(dg - dg[0])) > 1e-9 * abs(dg[0]):
        raise ValidationError("log-concavity test needs a uniform grid")
    lg = np.log(profile.values)
    second = lg[:-2] - 2 * lg[1:-1] + lg[2:]
    return bool(np.all(second <= tol * max(1.0, np.max(np.abs(lg)))))


@dataclass
class RayleighOutcome:
    """Minimal weighted Rayleigh quotient against its closed-form bound."""

    quotient: float
    bound: float
    passed: bool


def min_antisymmetric_quotient(profile, l):
    """Minimize (integral f'^2 g) / (integral f^2 g) over odd f on (-l, l).

    Odd functions are parameterized by their restriction to (0, l) in a P1
    finite-element space with f(0) = 0 and a free (natural) condition at l;
    g is taken piecewise constant per cell. The minimal generalized
    eigenvalue is compared with pi^2 / (4 l^2). l must be the half-extent
    of the profile's grid (ValidationError otherwise).

    The eigenvalue comes from inverse iteration started at v = 1 (the module
    docstring), stopped once the quotient no longer decreases; it is the
    smallest quotient met. NumericalBudgetError past _QUOTIENT_STEPS steps,
    or when LAPACK reports a failed factorization or solve.
    """
    from scipy.linalg.lapack import dpttrf, dpttrs

    m = profile.grid.size
    if m < 16:
        raise UnsupportedConfigurationError("weight grid too coarse (< 16 nodes)")
    # cell values of g on (0, l): the right half of the profile
    if m % 2 != 0:
        raise UnsupportedConfigurationError("need an even number of cell samples")
    extent = profile.grid[-1] + 0.5 * (profile.grid[1] - profile.grid[0])
    # extent > 0 on an increasing odd grid, so NaN, 0 and l < 0 fail it too
    if not abs(l - extent) <= 1e-9 * extent:
        raise ValidationError(f"l = {l!r} differs from the profile's half-extent {extent!r}")
    gc = profile.values[m // 2 :]
    h = l / gc.size
    # P1 stiffness/mass with piecewise-constant weight; unknowns at nodes 1..n
    adjacent = np.append(gc[:-1] + gc[1:], gc[-1])  # the weight of the cells at each node
    md, mo = adjacent * h / 3, gc[1:] * h / 6
    d, e, info = dpttrf(adjacent / h, -gc[1:] / h)
    if info != 0:
        raise NumericalBudgetError(f"stiffness factorization failed (dpttrf info {info})")
    v = np.ones(gc.size + 1)  # node values, v[0] = f(0) = 0
    v[0] = 0.0
    quotient = np.inf
    for _ in range(_QUOTIENT_STEPS):
        y = md * v[1:]
        y[:-1] += mo * v[2:]
        y[1:] += mo * v[1:-1]
        x, info = dpttrs(d, e, y)
        if info != 0:
            raise NumericalBudgetError(f"stiffness solve failed (dpttrs info {info})")
        v[1:] = x / x.max()
        # per cell: g (v_i - v_(i-1))^2 / h over g h (v_(i-1)^2 + v_(i-1) v_i + v_i^2) / 3
        dv, v0, v1 = np.diff(v), v[:-1], v[1:]
        q = (gc @ (dv * dv) / h) / (gc @ (v0 * v0 + v0 * v1 + v1 * v1) * h / 3)
        if not q < quotient:
            break
        quotient = float(q)
    else:
        raise NumericalBudgetError(
            f"inverse iteration still descending after {_QUOTIENT_STEPS} steps"
        )
    bound = np.pi**2 / (4 * l**2)
    return RayleighOutcome(quotient, bound, bool(quotient >= bound - _QUOTIENT_TOL))


def directional_quotient_2d(domain, weight, f, tol=1e-10):
    """Directional Poincare check on a rectangle symmetric in x1:

    lhs = integral |df/dx1|^2 w,  rhs = (pi^2 / (4 L^2)) integral f^2 w,

    for an x1-antisymmetric test function f and x1-symmetric weight w, both
    callables of an (n, 2) array. Returns {"lhs", "rhs", "pass"}.
    """
    if domain.kind == "disk" or list(map(len, domain.params)) != [1, 1]:
        raise ValidationError("directional quotient is defined on rectangles")
    if not domain.summarize().symmetric_x1:
        raise ValidationError("rectangle must be symmetric in x1")
    (a1, b1), _ = domain.bounding_box()
    L = 0.5 * (b1 - a1)
    pts, ww = tensor_rule(axis_rules(domain, _QUOTIENT_PANELS, 6))
    refl = pts.copy()
    refl[:, 0] *= -1
    fv = np.asarray(f(pts), dtype=float)
    if np.max(np.abs(np.asarray(f(refl)) + fv)) > 1e-8 * max(1.0, np.max(np.abs(fv))):
        raise ValidationError("test function is not antisymmetric in x1")
    wv = np.asarray(weight(pts), dtype=float)
    plus = pts.copy()
    plus[:, 0] += _FD_STEP
    minus = pts.copy()
    minus[:, 0] -= _FD_STEP
    d1 = (np.asarray(f(plus)) - np.asarray(f(minus))) / (2 * _FD_STEP)
    lhs = float(np.sum(d1**2 * wv * ww))
    rhs = float(np.pi**2 / (4 * L**2) * np.sum(fv**2 * wv * ww))
    return {"lhs": lhs, "rhs": rhs, "pass": bool(lhs >= rhs - tol - 1e-9 * abs(rhs))}


def skeleton_survival(domain, x, times):
    """P_x(X_{t_1} in D, ..., X_{t_n} in D) for the free Cauchy process
    (alpha = 1, closed-form kernel) observed on a finite time skeleton, by
    iterated kernel quadrature over D^n (n <= 4), D a product in one or two
    dimensions, from the start point x (montecarlo.start_point). The kernel
    matrix is applied in row blocks, so its memory does not grow with the
    square of the nodes."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size > 4:
        raise UnsupportedConfigurationError(
            "deterministic skeleton quadrature supports n <= 4 times"
        )
    if times.size == 0 or not (np.all(np.diff(times) > 0) and times[0] > 0):
        raise ValidationError("times must be nonempty, strictly increasing and positive")
    if domain.kind == "disk":
        raise UnsupportedConfigurationError("the skeleton quadrature needs a product domain")
    # a box in R^3 has 96^3 nodes, and each time past the first costs N^2 kernel entries
    if domain.dim > 2:
        raise UnsupportedConfigurationError(
            f"the skeleton quadrature supports 1D and 2D products, not {domain.dim}D"
        )
    x0 = start_point(domain, x)
    pts, ww = tensor_rule(axis_rules(domain, _SKELETON_PANELS, _SKELETON_NODES))
    block = max(1, _KERNEL_BLOCK_ENTRIES // len(pts))
    v = np.ones(len(pts))
    gaps = np.diff(np.concatenate([[0.0], times]))
    for dt in gaps[:0:-1]:
        parts = []
        for i0 in range(0, len(pts), block):  # squared distances, summed over axes
            r2 = sum(np.subtract.outer(p[i0 : i0 + block], p) ** 2 for p in pts.T)
            parts.append((cauchy_kernel_r2(dt, r2, domain.dim) * ww[None, :]) @ v)
        v = np.concatenate(parts)
    r2_start = np.sum((pts - x0) ** 2, axis=1)
    return float(np.sum(cauchy_kernel_r2(gaps[0], r2_start, domain.dim) * ww * v))


def segment_log_concavity(domain, segment, times, n_points=25):
    """Discrete log-concavity of the skeleton survival probability along an
    axis-parallel segment ((start, end) points in D). Returns the maximal
    second difference of the log (<= 0, up to quadrature noise, means
    log-concave); n_points >= 3 gives at least one second difference."""
    require_count(n_points, "n_points", 3)
    a = np.asarray(segment[0], dtype=float)
    b = np.asarray(segment[1], dtype=float)
    vals = [skeleton_survival(domain, a + s * (b - a), times) for s in np.linspace(0, 1, n_points)]
    lg = np.log(np.asarray(vals))
    second = lg[:-2] - 2 * lg[1:-1] + lg[2:]
    return float(np.max(second))


def check_lemma_derivative(ts, fs, c):
    """Exponentially weighted energy of a sampled function on [0, T]:

        I = integral over [0, T] of (f^2 + f'^2) e^(-c t),

    which dominates f(0)^2 / (c + 1). Returns {"I", "bound", "pass",
    "ratio"}; f' is a second-order finite difference of the samples.
    """
    if not c > 0:
        raise ValidationError("rate c must be positive")
    ts = np.asarray(ts, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if ts.size < 3 or ts[0] != 0.0 or not np.all(np.diff(ts) > 0):
        raise ValidationError("need increasing samples starting at t = 0")
    df = np.gradient(fs, ts)
    integrand = (fs**2 + df**2) * np.exp(-c * ts)
    I = float(np.trapezoid(integrand, ts))
    bound = float(fs[0] ** 2 / (c + 1.0))
    return {
        "I": I,
        "bound": bound,
        "pass": bool(I >= bound - _LEMMA_TOL - 1e-9 * bound),
        "ratio": I / bound if bound > 0 else np.inf,
    }
