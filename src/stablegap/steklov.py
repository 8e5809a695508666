"""Harmonic extensions of killed-process eigenfunctions to the upper half-space.

For an eigenfunction phi_n of the Cauchy process (alpha = 1) on D, the
Poisson-type extension u_n(x, t) = P_t phi_n(x) is harmonic on the half-space
R^d x (0, inf), equals phi_n at t = 0 on D, vanishes at t = 0 outside D, and
satisfies du/dt = -lambda_n phi_n on D at the boundary. Spectral gaps turn
into the weighted Dirichlet energy

    Q(w, w) = integral over the half-space of |grad w|^2 u_1^2,

evaluated here for w = u_n / u_1 on a truncated box with graded tensor
quadrature and analytic gradients: one engine pass returns each extension's
value together with its x- and t-derivatives.

Extensions are evaluated through Gaussian subordination: smoothing a sine
mode by the heat kernel has a closed form in the complex error function, and
the subordinator integral in the auxiliary time is a fixed log-panel rule.
This is numerically equivalent to quadrature of the Cauchy kernel against
phi_n but vectorizes over (mode, point, time) and stays accurate for small t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import wofz

from ._quad import log_panels, panel_gauss
from .errors import ValidationError
from .eigensolver import SpectralResult, evaluate_basis_sum
from .kernels import subordination_grid, subordinator_density_half


@dataclass(frozen=True)
class Truncation:
    """Box (-R, R)^d x (eps, T) on which half-space integrals are evaluated."""

    eps: float = 1e-3
    t_max: float = 30.0
    x_max: float = 60.0

    def validate(self):
        if not (0 < self.eps < self.t_max and self.x_max > 0):
            raise ValidationError("need 0 < eps < t_max and x_max > 0")


def default_truncation(dim):
    return Truncation(1e-3, 30.0, 60.0) if dim == 1 else Truncation(1e-3, 20.0, 40.0)


# ---------------- closed-form Gaussian smoothing of sine modes ----------------


def _scaled_erf(r, omega, s):
    """e^(-omega^2 s) * erf((r - 2 i omega s) / (2 sqrt s)), overflow-safe.

    All arguments broadcast; omega >= 0, s > 0, r real. Uses
    erfc(q) = e^(-q^2) w(iq) with the Faddeeva function w, whose argument is
    kept in the upper half-plane by the sign symmetry in r.
    """
    ra = np.abs(r)
    sq = np.sqrt(s)
    q_up = (2.0 * omega * s + 1j * ra) / (2.0 * sq)
    E = np.exp(-(omega**2) * s) - np.exp(-(ra**2) / (4.0 * s) + 1j * omega * ra) * wofz(q_up)
    return np.where(r >= 0, E, -np.conj(E))


def smoothed_sine_mode(x, s, omega, center, half, grad=False):
    """Heat-kernel smoothing of the unit sine mode of an interval:

    (4 pi s)^(-1/2) * integral over (c-h, c+h) of
        exp(-(x-y)^2 / (4 s)) sin(omega (y - c + h)) / sqrt(h) dy.

    Broadcasts over all arguments. With grad=True returns the pair
    (value, d/dx value), valid for the basis frequencies omega = k pi / (2 h):
    such a mode vanishes at both ends of its window, so the x-derivative is
    the smoothing of omega cos(omega (y - c + h)) / sqrt(h), the real part of
    the complex expression whose imaginary part is the value.
    """
    u = np.asarray(x, dtype=float) - center
    E2 = _scaled_erf(half - u, omega, s)
    E1 = _scaled_erf(-half - u, omega, s)
    Z = np.exp(1j * omega * (u + half)) * 0.5 * (E2 - E1)
    scale = 1.0 / np.sqrt(half)
    if grad:
        return scale * np.imag(Z), scale * omega * np.real(Z)
    return scale * np.imag(Z)


# ---------------- evaluation engine ----------------

_S_CHUNK = 24  # subordination nodes per pass of the mode kernel


def _contract(C, factors):
    """Sum the coefficient tensor C (rows, m_1, ..., m_d) against per-axis
    mode arrays factors[i] of shape (m_i, n_i, s): returns (rows, n_1, ..., n_d, s)."""
    m, p = "jk"[: len(factors)], "ab"[: len(factors)]
    spec = f"f{m}," + ",".join(f"{mi}{pi}s" for mi, pi in zip(m, p)) + f"->f{p}s"
    return np.einsum(spec, C, *factors, optimize=True)


def _time_contract(M, G):
    """Contract the trailing s axis of M with G (nt, ns) in one matrix product."""
    return (M.reshape(-1, M.shape[-1]) @ G.T).reshape(M.shape[:-1] + (G.shape[0],))


def _axes(xs, dim):
    """Point axes as a list of 1D arrays: [xs] in 1D, [x1s, x2s] in 2D."""
    axes = [xs] if dim == 1 else list(xs)
    return [np.atleast_1d(np.asarray(a, dtype=float)) for a in axes]


def _xs(axes):
    """Inverse of _axes: the point argument of the field samplers."""
    return axes[0] if len(axes) == 1 else tuple(axes)


def _grid_points(axes):
    """The tensor grid of the axes as points: an array in 1D, (n, 2) in 2D."""
    if len(axes) == 1:
        return axes[0]
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def _require_positive_times(ts):
    if np.any(np.asarray(ts) <= 0.0):
        raise ValidationError("gradients need t > 0")


class ExtensionEngine:
    """Evaluates P_t applied to arbitrary coefficient vectors of a sine basis,
    and its gradient, batched over tensor grids of points and times."""

    def __init__(self, basis):
        if basis.kind not in ("sine", "sine2d"):
            raise ValidationError("harmonic extensions need a sine basis")
        self.basis = basis
        self.s_nodes, self.s_weights = subordination_grid()

    def _time_weights(self, ts):
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < 0):
            raise ValidationError("times must be nonnegative")
        g = subordinator_density_half(np.maximum(ts, 1e-300)[:, None], self.s_nodes[None, :])
        g[ts == 0] = 0.0
        return g * self.s_weights[None, :]

    def _modes(self, rows):
        """Per-axis (centers, halves, omegas) of the modes in use and the
        coefficient tensor (rows, m_1, ..., m_d) over them."""
        meta = self.basis.meta
        if self.basis.kind == "sine":
            used = np.nonzero(np.max(np.abs(rows), axis=0) > 1e-15 * np.max(np.abs(rows)))[0]
            c, h, _, om = (np.array([meta[p][i] for p in used]) for i in range(4))
            return [(c, h, om)], rows[:, used]
        (c1, h1), (c2, h2), n1, n2 = meta
        axes = [
            (np.full(n, c), np.full(n, h), np.arange(1, n + 1) * np.pi / (2 * h))
            for c, h, n in ((c1, h1, n1), (c2, h2, n2))
        ]
        return axes, rows.reshape(rows.shape[0], n1, n2)

    def values(self, coeff_rows, xs, ts, grad=False):
        """Extensions of several coefficient vectors on a tensor grid.

        1D: xs is an array of points; returns (n_rows, len(xs), len(ts)).
        2D: xs = (x1s, x2s); returns (n_rows, len(x1s), len(x2s), len(ts)).
        Entries with t = 0 are the boundary values (the functions themselves).

        With grad=True an axis of length dim + 2 follows the rows, holding the
        value, d/dx (or d/dx1, d/dx2) and d/dt, all from the same mode arrays:
        the x-derivatives come with the smoothed modes, and d/dt is the same
        subordination sum taken against dg/dt = g (1/t - t / (2 s)). Gradients
        need every t > 0.
        """
        rows = np.atleast_2d(np.asarray(coeff_rows, dtype=float))
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        gw = self._time_weights(ts)
        nt = ts.size
        if grad:
            _require_positive_times(ts)
            dg = 1.0 / ts[:, None] - ts[:, None] / (2.0 * self.s_nodes[None, :])
            gw = np.concatenate([gw, gw * dg])
        points = _axes(xs, 1 if self.basis.kind == "sine" else 2)
        modes, C = self._modes(rows)
        grid = tuple(p.size for p in points)
        out = np.zeros((rows.shape[0], len(points) + 2 if grad else 1) + grid + (nt,))
        for i0 in range(0, self.s_nodes.size, _S_CHUNK):
            sl = slice(i0, i0 + _S_CHUNK)
            sc = self.s_nodes[None, None, sl]
            per_axis = [
                smoothed_sine_mode(p[None, :, None], sc, om[:, None, None],
                                   c[:, None, None], h[:, None, None], grad=grad)
                for p, (c, h, om) in zip(points, modes)
            ]
            if not grad:
                out[:, 0] += _time_contract(_contract(C, per_axis), gw[:, sl])
                continue
            vals = [v for v, _ in per_axis]
            both = _time_contract(_contract(C, vals), gw[:, sl])
            out[:, 0] += both[..., :nt]
            out[:, -1] += both[..., nt:]
            for i, (_, dx) in enumerate(per_axis):
                factors = vals[:i] + [dx] + vals[i + 1 :]
                out[:, 1 + i] += _time_contract(_contract(C, factors), gw[:nt, sl])
        if grad:
            return out
        out = out[:, 0]
        if np.any(ts == 0.0):
            self._fill_boundary(out, rows, points, ts)
        return out

    def _fill_boundary(self, out, rows, points, ts):
        pts = _grid_points(points)
        for f in range(rows.shape[0]):
            vals = evaluate_basis_sum(self.basis, rows[f], pts)
            out[f][..., ts == 0.0] = vals.reshape(out.shape[1:-1] + (1,))


class HarmonicExtension:
    """The half-space extension u_n(x, t) of one eigenfunction."""

    def __init__(self, engine, coeffs, lam, dim):
        self.engine = engine
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.lam = float(lam)
        self.dim = dim

    def values(self, xs, ts):
        return self.engine.values(self.coeffs[None, :], xs, ts)[0]

    def values_and_grad(self, xs, ts):
        """Value and gradient stacked on the first axis (see ExtensionEngine.values)."""
        return self.engine.values(self.coeffs[None, :], xs, ts, grad=True)[0]

    def __call__(self, x, t):
        if self.dim == 1:
            return float(self.values(np.array([float(x)]), np.array([float(t)]))[0, 0])
        x = np.asarray(x, dtype=float)
        return float(
            self.values((np.array([x[0]]), np.array([x[1]])), np.array([float(t)]))[0, 0, 0]
        )


def extend(result: SpectralResult, n: int) -> HarmonicExtension:
    """Harmonic extension of mode n (1-based) of a Cauchy-process result.

    Extensions of the same result share its basis, so energy quadratures
    evaluate them together in one engine pass.
    """
    if result.alpha != 1.0:
        raise ValidationError("harmonic extensions apply to alpha = 1 results")
    return HarmonicExtension(
        ExtensionEngine(result.basis),
        result.coefficients[n - 1],
        result.eigenvalues[n - 1],
        result.domain.dim,
    )


@dataclass
class ExtensionField:
    """Sampled extension on a tensor grid, with its evaluator attached.

    x_grid is an array (1D) or a pair of axis arrays (2D); values has shape
    (nx, nt) or (nx1, nx2, nt). phi_boundary holds u(x, 0) = phi(x).
    """

    x_grid: object
    t_grid: np.ndarray
    values: np.ndarray
    lam: float
    phi_boundary: np.ndarray
    extension: HarmonicExtension

    def to_json(self):
        xg = self.x_grid
        xg = [np.asarray(a).tolist() for a in xg] if isinstance(xg, tuple) else np.asarray(xg).tolist()
        return {
            "schema": 1,
            "lambda": self.lam,
            "x_grid": xg,
            "t_grid": self.t_grid.tolist(),
            "values": self.values.tolist(),
            "phi_boundary": self.phi_boundary.tolist(),
        }


def default_field_grid(domain, t_max=20.0, n_x=80, n_t=33):
    """Default sampling grid: x covers D plus a 50% margin; times are zero
    followed by a geometric ladder up to t_max.  The ladder starts at
    0.02 * inradius in 1d and 0.2 * inradius in 2d: below that the
    truncated sine basis leaves a boundary-layer residual of order
    t * |(A - lambda_1) phi_1| in the extension, and the coarser
    per-axis resolution of the tensor basis makes the layer thicker in 2d.
    """
    g = domain.summarize()
    t_min = (0.02 if domain.dim == 1 else 0.2) * g.inradius
    ts = np.concatenate([[0.0], np.geomspace(t_min, t_max, n_t - 1)])
    if domain.dim == 1:
        (lo, hi), = domain.bounding_box()
        pad = 0.25 * (hi - lo)
        return np.linspace(lo - pad, hi + pad, n_x), ts
    (a1, b1), (a2, b2) = domain.bounding_box()
    p1, p2 = 0.25 * (b1 - a1), 0.25 * (b2 - a2)
    return (np.linspace(a1 - p1, b1 + p1, n_x), np.linspace(a2 - p2, b2 + p2, n_x)), ts


def sample_extension(result, n, x_grid=None, t_grid=None) -> ExtensionField:
    """Evaluate the extension of mode n on a tensor grid (default grid if
    none is given) and package it as an ExtensionField."""
    ext = extend(result, n)
    if x_grid is None or t_grid is None:
        xg, tg = default_field_grid(result.domain)
        x_grid = xg if x_grid is None else x_grid
        t_grid = tg if t_grid is None else t_grid
    t_grid = np.asarray(t_grid, dtype=float)
    with_zero = t_grid if t_grid[0] == 0.0 else np.concatenate([[0.0], t_grid])
    vals = ext.values(x_grid, with_zero)
    phi0 = vals[..., 0]
    if t_grid[0] != 0.0:
        vals = vals[..., 1:]
    return ExtensionField(x_grid, t_grid, vals, ext.lam, phi0, ext)


# ---------------- pointwise structural checks ----------------


def check_harmonic(field, x, t, h=1e-3):
    """Residual of the (d+1)-dimensional Laplacian of u at (x, t), h-stencil,
    normalized by |u(x, t)| + 1. Accepts a HarmonicExtension or an
    ExtensionField."""
    ext = getattr(field, "extension", field)
    if t - h <= 0:
        raise ValidationError("stencil must stay inside t > 0")
    if ext.dim == 1:
        x = float(x)
        pts = np.array([x, x - h, x + h])
        ts = np.array([t - h, t, t + h])
        v = ext.values(pts, ts)
        lap = (v[1, 1] + v[2, 1] + v[0, 0] + v[0, 2] - 4 * v[0, 1]) / h**2
        return abs(lap) / (abs(v[0, 1]) + 1.0)
    x1, x2 = float(x[0]), float(x[1])
    v = ext.values((np.array([x1 - h, x1, x1 + h]), np.array([x2 - h, x2, x2 + h])),
                   np.array([t - h, t, t + h]))
    center = v[1, 1, 1]
    lap = (
        v[0, 1, 1] + v[2, 1, 1] + v[1, 0, 1] + v[1, 2, 1] + v[1, 1, 0] + v[1, 1, 2]
        - 6 * center
    ) / h**2
    return abs(lap) / (abs(center) + 1.0)


def check_boundary_derivative(result, n, x, h=1e-4):
    """One-sided residual |(u(x, h) - phi(x)) / h + lambda_n phi(x)| at one
    point x in D. For x outside the closure of D returns |u(x, h)| instead
    (the boundary value there is zero)."""
    ext = extend(result, n)
    lam = result.eigenvalues[n - 1]
    phi = result.eigenfunction(n)
    if result.domain.dim == 1:
        pt = np.array([float(x)])
        u_h = ext.values(pt, np.array([h]))[0, 0]
    else:
        pt = np.asarray(x, dtype=float)[None, :]
        u_h = ext.values((pt[:, 0], pt[:, 1]), np.array([h]))[0, 0, 0]
    if not result.domain.contains(pt)[0]:
        return abs(u_h)
    phi_v = float(phi(pt.ravel() if result.domain.dim == 1 else pt)[0])
    return abs((u_h - phi_v) / h + lam * phi_v)


def _interior_axes(domain, n):
    """n evenly spaced interior points per interval component (1D) or per
    rectangle side (2D), as a list of axes."""
    if domain.dim == 1:
        return [np.concatenate([np.linspace(a, b, n + 2)[1:-1] for a, b in domain.intervals])]
    return [np.linspace(a, b, n + 2)[1:-1] for a, b in domain.params]


def ground_state_domination_check(result, xs=None, ts=None):
    """min over the grid of u_1(x, t) - exp(-lambda_1 t) phi_1(x).

    The free evolution of the nonnegative ground state dominates its killed
    evolution, so the margin should be >= -1e-8 wherever the discretization
    error of the eigenpair is below the true slack. On the default field
    grid that holds; inside the thin layer t < ~0.02 * inradius near the
    boundary of D the Galerkin residual (order 1e-4 for a 512-mode sine
    basis) swamps the slack, which is why the default grid starts above it.
    """
    ext = extend(result, 1)
    phi1 = result.eigenfunction(1)
    if xs is None or ts is None:
        gx, gt = default_field_grid(result.domain)
        xs = gx if xs is None else xs
        ts = gt if ts is None else ts
    ts = np.asarray(ts, dtype=float)
    u = ext.values(xs, ts)
    pts = _grid_points(_axes(xs, result.domain.dim))
    phiv = np.where(result.domain.contains(pts), phi1(pts), 0.0).reshape(u.shape[:-1])
    lower = np.exp(-result.lambda1 * ts) * phiv[..., None]
    return float(np.min(u - lower))


# ---------------- energy quadrature ----------------


@dataclass
class QResult:
    value: float
    tail_bound: float
    truncation: Truncation
    n_x: int
    n_t: int
    diagnostics: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "schema": 1,
            "value": self.value,
            "tail_bound": self.tail_bound,
            "truncation": {
                "eps": self.truncation.eps,
                "t_max": self.truncation.t_max,
                "x_max": self.truncation.x_max,
            },
            "n_x": self.n_x,
            "n_t": self.n_t,
        }


def _t_grid(trunc, nodes_per_panel=6, panels_per_decade=4):
    return log_panels(
        trunc.eps, trunc.t_max, panels_per_decade=panels_per_decade,
        nodes_per_panel=nodes_per_panel,
    )


def _x_grid_1d(domain, x_max, n_inner=49, nodes_per_panel=6, axis=0):
    box = domain.bounding_box()
    lo, hi = box[axis]
    b = 1.6 * max(abs(lo), abs(hi))
    inner = np.linspace(-b, b, n_inner)
    w = 0.4 * b
    outer_left = [-b]
    while outer_left[-1] - w > -x_max:
        outer_left.append(outer_left[-1] - w)
        w *= 1.35
    edges = sorted(set([-x_max] + outer_left + list(inner) + [-v for v in outer_left] + [x_max]))
    return panel_gauss(np.array(edges), nodes_per_panel)


def _energy_grid(domain, trunc):
    """Per-axis x rules and the t rule of the truncated box: ([x rules], t rule)."""
    if domain.dim == 1:
        return [_x_grid_1d(domain, trunc.x_max)], _t_grid(trunc)
    # coarser rules in 2d: the field arrays grow with the square of the
    # per-axis node count
    return (
        [_x_grid_1d(domain, trunc.x_max, n_inner=17, nodes_per_panel=4, axis=i) for i in (0, 1)],
        _t_grid(trunc, nodes_per_panel=4, panels_per_decade=3),
    )


def _integrate(f, weights):
    """Tensor quadrature: contract each leading axis of f with its weights."""
    for w in weights:
        f = np.tensordot(w, f, axes=(0, 0))
    return float(f)


class ConstantField:
    """Trivial field sampler u(x, t) = value, for degenerate test inputs."""

    def __init__(self, dim, value=1.0):
        self.dim = dim
        self.value = float(value)

    def values(self, xs, ts):
        shape = tuple(a.size for a in _axes(xs, self.dim)) + (np.atleast_1d(ts).size,)
        return np.full(shape, self.value)

    def values_and_grad(self, xs, ts):
        _require_positive_times(ts)
        v = self.values(xs, ts)
        out = np.zeros((self.dim + 2,) + v.shape)
        out[0] = v
        return out


def _quotient(a, b):
    """Value and gradient of a / b from those of a and b (stacked on axis 0)."""
    w = a[0] / b[0]
    return np.concatenate([w[None], (a[1:] - w * b[1:]) / b[0]])


class RatioField:
    """Pointwise quotient of two extensions, e.g. w = u_n / u_1."""

    def __init__(self, num, den):
        self.num = num
        self.den = den
        self.dim = num.dim

    def values(self, xs, ts):
        return self.num.values(xs, ts) / self.den.values(xs, ts)

    def values_and_grad(self, xs, ts):
        return _quotient(self.num.values_and_grad(xs, ts), self.den.values_and_grad(xs, ts))


def extend_ratio(result, n):
    """The bounded field u_n / u_1 whose energy gives the gap to lambda_1."""
    return RatioField(extend(result, n), extend(result, 1))


def _atoms(f):
    return (f.num, f.den) if isinstance(f, RatioField) else (f,)


def _eval_fields(fields, xs, ts):
    """Values and gradients (values_and_grad) of several fields on one grid.

    Extensions are batched by basis identity: all extensions of one spectral
    result go through one engine pass, with duplicate coefficient rows
    evaluated once. Other fields evaluate themselves; a field passed twice
    is evaluated once."""
    batches = {}  # id(basis) -> (engine, {coefficient bytes: row}, [rows])
    for a in (a for f in fields for a in _atoms(f)):
        if isinstance(a, HarmonicExtension):
            engine, index, rows = batches.setdefault(id(a.engine.basis), (a.engine, {}, []))
            index.setdefault(a.coeffs.tobytes(), len(rows))
            if len(index) > len(rows):
                rows.append(a.coeffs)
    vals = {
        key: engine.values(np.vstack(rows), xs, ts, grad=True)
        for key, (engine, _, rows) in batches.items()
    }

    def val(a):
        if not isinstance(a, HarmonicExtension):
            return a.values_and_grad(xs, ts)
        key = id(a.engine.basis)
        return vals[key][batches[key][1][a.coeffs.tobytes()]]

    out = {}
    for f in fields:
        if id(f) not in out:
            out[id(f)] = _quotient(val(f.num), val(f.den)) if isinstance(f, RatioField) else val(f)
    return [out[id(f)] for f in fields]


def q_functional(u, v, u1, trunc=None):
    """Energy pairing of two fields with the squared ground extension weight:

        Q(u, v) = integral over [-R, R]^d x [eps, T] of grad u . grad v * u1^2,

    by tensor Gauss quadrature of the analytic gradients (values_and_grad);
    u1 must carry a basis (a harmonic extension), whose domain sets the x
    rules. For
    u = v = u_n/u_1 (see extend_ratio) this equals the eigenvalue gap
    lambda_n - lambda_1. The reported tail_bound integrates a fitted envelope
    K (t^2 + |x|^2)^(-(d+1)) over the omitted region. diagnostics holds
    "constant_field", the pairing of ConstantField with itself against the
    same weight on the same grid, which is zero unless the gradients are wrong.
    """
    basis = getattr(getattr(u1, "engine", None), "basis", None)
    if basis is None:
        raise ValidationError("u1 carries no basis to set the quadrature grid")
    dim = u1.dim
    if trunc is None:
        trunc = default_truncation(dim)
    trunc.validate()
    x_rules, (tq, tw) = _energy_grid(basis.domain, trunc)
    axes = [x for x, _ in x_rules]
    weights = [w for _, w in x_rules] + [tw]
    gu, gv, g1, gc = _eval_fields((u, v, u1, ConstantField(dim)), _xs(axes), tq)
    weight = g1[0] ** 2
    integrand = np.sum(gu[1:] * gv[1:], axis=0) * weight
    return QResult(
        _integrate(integrand, weights),
        _tail_bound(axes, tq, np.abs(integrand), trunc),
        trunc,
        int(np.prod([x.size for x in axes])),
        tq.size,
        {"constant_field": _integrate(np.sum(gc[1:] ** 2, axis=0) * weight, weights)},
    )


# envelope integrals outside the box, per dimension: (t-side, x-side) constants
_TAIL_CONSTANTS = {1: (np.pi / 4, np.pi / 4), 2: (np.pi / 6, np.pi**2 / 8)}


def _tail_bound(axes, tq, integrand, trunc):
    # calibrate integrand <= K (t^2 + |x|^2)^(-(d+1)) on the outer shell, then
    # integrate that envelope outside the box
    d = len(axes)
    *X, T = np.meshgrid(*axes, tq, indexing="ij")
    R2 = sum(x**2 for x in X)
    shell = (np.sqrt(R2) > 0.8 * trunc.x_max) | (T > 0.8 * trunc.t_max)
    if not np.any(shell):
        return float("inf")
    K = float(np.max(integrand[shell] * (T[shell] ** 2 + R2[shell]) ** (d + 1)))
    c_t, c_x = _TAIL_CONSTANTS[d]
    return K * (c_t / trunc.t_max ** (d + 1) + c_x / trunc.x_max ** (d + 1))


def gap_identity_check(result, n=None, trunc=None):
    """Compare the energy Q(u_n/u_1, u_n/u_1) with lambda_n - lambda_1.

    Returns {"lhs": eigenvalue gap, "rhs": energy, "relative_error", ...,
    "constant_field_Q": the constant field's energy on the same pass};
    n defaults to the star mode.
    """
    if n is None:
        n = result.star_index
    gap = float(result.eigenvalues[n - 1] - result.lambda1)
    w = extend_ratio(result, n)
    q = q_functional(w, w, w.den, trunc=trunc)
    return {
        "mode": n,
        "lhs": gap,
        "rhs": q.value,
        "relative_error": abs(q.value - gap) / gap,
        "tail_bound": q.tail_bound,
        "constant_field_Q": q.diagnostics["constant_field"],
    }


def ratio_boundedness_check(result, n=None, t_max=20.0):
    """max |u_n / u_1| over a probe grid of the half-space above D.

    The ratio is bounded; the returned maximum should sit far below the
    coarse sanity ceiling 1e6 * ||phi_n||_inf / min-grid phi_1.
    """
    if n is None:
        n = result.star_index
    rows = np.vstack([result.coefficients[n - 1], result.coefficients[0]])
    axes = _interior_axes(result.domain, 40 if result.domain.dim == 1 else 24)
    vals = ExtensionEngine(result.basis).values(rows, _xs(axes), np.geomspace(1e-3, t_max, 25))
    return float(np.max(np.abs(vals[0] / vals[1])))


def gradient_scale_fit(result, n=None, trunc=None):
    """Fit the constant c in |grad(u_n/u_1)| <= c / t on a probe grid of the
    half-space above D; returns max over the grid of t * |grad(u_n/u_1)|."""
    if n is None:
        n = result.star_index
    if trunc is None:
        trunc = default_truncation(result.domain.dim)
    tq = np.geomspace(trunc.eps, trunc.t_max, 25)
    axes = _interior_axes(result.domain, 30 if result.domain.dim == 1 else 14)
    (gw,) = _eval_fields((extend_ratio(result, n),), _xs(axes), tq)
    return float(np.max(np.sqrt(np.sum(gw[1:] ** 2, axis=0)) * tq))


def d01_lower_bound_check(result, trunc=None):
    """Evaluate the explicit lower-bound integral for the gap:

        integral over D x (0, T] of |grad (u*/u_1)|^2 exp(-2 lambda_1 t) phi_1^2,

    which never exceeds lambda_* - lambda_1 (the weight is dominated by u_1^2
    and the region is a subset of the half-space). Also reports the minimum of
    u_1^2 - exp(-2 lambda_1 t) phi_1^2 over the grid, which must stay above
    the Galerkin floor (see ground_state_domination_check).
    """
    if result.star_index is None:
        raise ValidationError("domain is not x1-symmetric")
    if trunc is None:
        trunc = default_truncation(result.domain.dim)
    n = result.star_index
    lam1 = result.lambda1
    tq, tw = log_panels(1e-6, trunc.t_max, panels_per_decade=3, nodes_per_panel=6)
    x_rules = _interior_quadrature(result.domain)
    axes = [x for x, _ in x_rules]
    w = extend_ratio(result, n)
    gw, g1 = _eval_fields((w, w.den), _xs(axes), tq)
    phi1 = result.eigenfunction(1)(_grid_points(axes)).reshape(g1.shape[1:-1])
    weight = np.exp(-2 * lam1 * tq) * phi1[..., None] ** 2
    value = _integrate(np.sum(gw[1:] ** 2, axis=0) * weight, [xw for _, xw in x_rules] + [tw])
    gap = float(result.lambda_star - lam1)
    return {
        "mode": n,
        "simplified_integral": value,
        "gap": gap,
        "weight_slack": float(np.min(g1[0] ** 2 - weight)),
        "pass": bool(value <= gap + 1e-3),
    }


def _interior_quadrature(domain):
    """Per-axis Gauss rules over D: 16 five-node panels per interval component
    in 1d, 10 four-node panels per side of a rectangle in 2d."""
    if domain.dim == 1:
        rules = [panel_gauss(np.linspace(a, b, 17), 5) for a, b in domain.intervals]
        return [tuple(np.concatenate(parts) for parts in zip(*rules))]
    return [panel_gauss(np.linspace(a, b, 11), 4) for a, b in domain.params]
